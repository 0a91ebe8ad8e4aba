package consistency

// The certificate round-trip property of this PR's provenance layer:
// every definitive verdict Check returns carries a certificate, and
// certificate.Verify — which re-evaluates vectors, re-validates
// documents, and re-fires lint rules, but never invokes a solver —
// confirms it against the original specification.

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
)

func checkRoundTrip(t *testing.T, name string, d *dtd.DTD, set *constraint.Set, opts Options) Result {
	t.Helper()
	res, err := Check(d, set, opts)
	if err != nil {
		t.Fatalf("%s: Check: %v", name, err)
	}
	switch res.Verdict {
	case Unknown:
		if res.Certificate != nil {
			t.Errorf("%s: Unknown verdict carries a certificate: %s", name, res.Certificate)
		}
	case Consistent, Inconsistent:
		if res.Certificate == nil {
			t.Fatalf("%s: %v verdict (method %s) has no certificate", name, res.Verdict, res.Method)
		}
		wantKind := "witness"
		if res.Verdict == Inconsistent {
			wantKind = "refutation"
		}
		if res.Certificate.Kind() != wantKind {
			t.Errorf("%s: %v verdict has %s certificate", name, res.Verdict, res.Certificate.Kind())
		}
		if err := certificate.Verify(d, set, res.Certificate); err != nil {
			t.Errorf("%s: certificate does not verify: %v\ncertificate: %s", name, err, res.Certificate)
		}
	}
	return res
}

// TestCertificateRoundTripTestdata runs every testdata specification
// (each DTD against each of its constraint files and against the
// empty set) through Check and re-verifies the certificate.
func TestCertificateRoundTripTestdata(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata")
	dtds, err := filepath.Glob(filepath.Join(dir, "*.dtd"))
	if err != nil || len(dtds) == 0 {
		t.Fatalf("no testdata DTDs found: %v", err)
	}
	for _, dtdPath := range dtds {
		base := strings.TrimSuffix(filepath.Base(dtdPath), ".dtd")
		dtdSrc, err := os.ReadFile(dtdPath)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dtd.Parse(string(dtdSrc))
		if err != nil {
			t.Fatalf("%s: %v", dtdPath, err)
		}
		checkRoundTrip(t, base+" (no constraints)", d, &constraint.Set{}, Options{})
		keys, err := filepath.Glob(filepath.Join(dir, base+"*.keys"))
		if err != nil {
			t.Fatal(err)
		}
		for _, keyPath := range keys {
			src, err := os.ReadFile(keyPath)
			if err != nil {
				t.Fatal(err)
			}
			set, err := constraint.ParseSet(string(src))
			if err != nil {
				t.Fatalf("%s: %v", keyPath, err)
			}
			if set.Validate(d) != nil {
				continue
			}
			res := checkRoundTrip(t, filepath.Base(keyPath), d, set, Options{})
			if res.Verdict == Unknown {
				t.Errorf("%s: testdata spec is Unknown", keyPath)
			}
		}
	}

	// One more input no testdata spec reaches: the absolute encoding
	// refutes this recursive spec only after a connectivity cut, so the
	// refutation must fingerprint the system as it stood before the cut.
	d := dtd.MustParse(`
<!ELEMENT e0 (e1 | EMPTY)>
<!ATTLIST e0 a0 CDATA #REQUIRED a1 CDATA #REQUIRED>
<!ELEMENT e1 ((EMPTY | EMPTY), e1)>
<!ATTLIST e1 a0 CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("e1.a0 -> e1\ne0.a1 ⊆ e1.a0")
	res := checkRoundTrip(t, "refuted after a cut", d, set, Options{SkipLint: true})
	if res.Verdict != Inconsistent || res.Stats.Cuts < 1 ||
		res.Certificate == nil || res.Certificate.Refutation.Source != certificate.SourceILP {
		t.Errorf("refuted after a cut: verdict %v, %d cuts, certificate %s; want an ILP refutation after >= 1 cut",
			res.Verdict, res.Stats.Cuts, res.Certificate)
	}
}

// TestCertificateRoundTripRandom is the ≥500-spec property fuzz: the
// generator mirrors speclint's soundness fuzz (random DTDs with
// random well-formed key/foreign-key sets across the dialect
// spectrum), and every definitive verdict must round-trip through its
// certificate.
func TestCertificateRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	counts := map[Verdict]int{}
	kinds := map[string]int{}
	const n = 600
	checked := 0
	for i := 0; i < n; i++ {
		opts := dtd.RandomOptions{
			Types:          2 + rng.Intn(5),
			MaxAttrs:       2,
			MaxExprSize:    5,
			AllowStar:      rng.Intn(2) == 0,
			AllowRecursion: rng.Intn(4) == 0,
			AllowText:      rng.Intn(3) == 0,
		}
		d := dtd.Random(rng, opts)
		set := randomCertSet(rng, d)
		if set.Validate(d) != nil {
			continue
		}
		checked++
		res, err := Check(d, set, Options{})
		if err != nil {
			t.Fatalf("random spec %d: %v", i, err)
		}
		counts[res.Verdict]++
		if res.Verdict == Unknown {
			continue
		}
		if res.Certificate == nil {
			t.Fatalf("random spec %d: %v verdict (method %s, class %s) has no certificate",
				i, res.Verdict, res.Method, res.Class)
		}
		if res.Certificate.Witness != nil {
			kinds[string(res.Certificate.Witness.Form)]++
		} else {
			kinds["refutation/"+string(res.Certificate.Refutation.Source)]++
		}
		if err := certificate.Verify(d, set, res.Certificate); err != nil {
			t.Fatalf("random spec %d: certificate does not verify: %v\ncertificate: %s",
				i, err, res.Certificate)
		}
	}
	if checked < 500 {
		t.Fatalf("only %d valid random specs, want >= 500", checked)
	}
	if counts[Consistent] == 0 || counts[Inconsistent] == 0 {
		t.Errorf("fuzz did not cover both definitive verdicts: %v", counts)
	}
	t.Logf("%d specs: verdicts %v, certificate shapes %v", checked, counts, kinds)
}

// randomCertSet mirrors speclint's randomSet: a random well-formed
// constraint set over the attributes the random DTD declares.
func randomCertSet(rng *rand.Rand, d *dtd.DTD) *constraint.Set {
	var typed []string
	for _, name := range d.Names {
		if len(d.Attrs(name)) > 0 {
			typed = append(typed, name)
		}
	}
	set := &constraint.Set{}
	if len(typed) == 0 {
		return set
	}
	target := func() constraint.Target {
		typ := typed[rng.Intn(len(typed))]
		attrs := d.Attrs(typ)
		return constraint.Target{Type: typ, Attrs: []string{attrs[rng.Intn(len(attrs))]}}
	}
	context := func() string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return d.Names[rng.Intn(len(d.Names))]
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		set.AddKey(constraint.Key{Context: context(), Target: target()})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		ctx := context()
		set.AddForeignKey(constraint.Inclusion{Context: ctx, From: target(), To: target()})
		if rng.Intn(3) == 0 {
			last := set.Incls[len(set.Incls)-1]
			set.AddKey(constraint.Key{Context: ctx, Target: last.From})
		}
	}
	return set
}

// TestCertificateTamperDetection: a verifier that accepts doctored
// certificates is worthless, so flip each certificate form and demand
// rejection.
func TestCertificateTamperDetection(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT db (a, b*)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
`)
	set := constraint.MustParseSet("a.x -> a\nb.y -> b\na.x ⊆ b.y")
	res, err := Check(d, set, Options{})
	if err != nil || res.Verdict != Consistent || res.Certificate == nil {
		t.Fatalf("setup: %v %v %v", res.Verdict, res.Certificate, err)
	}
	if err := certificate.Verify(d, set, res.Certificate); err != nil {
		t.Fatalf("genuine certificate rejected: %v", err)
	}
	w := res.Certificate.Witness
	if w == nil || w.Form != certificate.FormVector {
		t.Fatalf("expected a vector witness, got %s", res.Certificate)
	}
	// Zero every count: the root-occupancy equation fails.
	tampered := certificate.Certificate{Witness: &certificate.Witness{
		Form: w.Form, Encoding: w.Encoding, Vector: map[string]int64{},
	}}
	for k := range w.Vector {
		tampered.Witness.Vector[k] = 0
	}
	if err := certificate.Verify(d, set, &tampered); err == nil {
		t.Error("zeroed vector accepted")
	}
	// A refutation naming a rule that does not fire must be rejected.
	bogus := certificate.FromLint("SL201", "made up")
	if err := certificate.Verify(d, set, bogus); err == nil {
		t.Error("bogus lint refutation accepted")
	}
	// A document witness that violates the constraints must be rejected.
	badDoc := certificate.FromDocument(`<db><a x="1"/></db>`)
	if err := certificate.Verify(d, set, badDoc); err == nil {
		t.Error("non-satisfying document witness accepted")
	}
	// An empty certificate is not a certificate.
	if err := certificate.Verify(d, set, &certificate.Certificate{}); err == nil {
		t.Error("empty certificate accepted")
	}
}
