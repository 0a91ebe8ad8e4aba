package consistency

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/certificate"
	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/prover"
)

func loadTestdataSpec(t *testing.T, dtdName, keysName string) (*dtd.DTD, *constraint.Set) {
	t.Helper()
	dir := filepath.Join("..", "..", "testdata")
	db, err := os.ReadFile(filepath.Join(dir, dtdName+".dtd"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := dtd.Parse(string(db))
	if err != nil {
		t.Fatal(err)
	}
	kb, err := os.ReadFile(filepath.Join(dir, keysName+".keys"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet(string(kb))
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(d); err != nil {
		t.Fatal(err)
	}
	return d, set
}

// requireMinimalCore checks the single-removal minimality property:
// the core subset is inconsistent, and removing any single member
// (where removal keeps Σ well-formed) makes the verdict
// non-Inconsistent.
func requireMinimalCore(t *testing.T, d *dtd.DTD, set *constraint.Set, core []int) {
	t.Helper()
	if len(core) == 0 {
		t.Fatal("empty unsat core")
	}
	build := func(skip int) *constraint.Set {
		out := &constraint.Set{}
		for i, k := range set.Keys {
			if i != skip && containsIdx(core, i) {
				out.AddKey(k)
			}
		}
		for i, in := range set.Incls {
			if len(set.Keys)+i != skip && containsIdx(core, len(set.Keys)+i) {
				out.AddInclusion(in)
			}
		}
		return out
	}
	opts := Options{SkipWitness: true, SkipCertificate: true}
	full := build(-1)
	if full.Validate(d) != nil {
		t.Fatal("core subset is not a well-formed constraint set")
	}
	res, err := Check(d, full, opts)
	if err != nil || res.Verdict != Inconsistent {
		t.Fatalf("core subset is not inconsistent: %v %v", res.Verdict, err)
	}
	for _, c := range core {
		reduced := build(c)
		if reduced.Validate(d) != nil {
			continue // removal would orphan a paired constraint
		}
		r, err := Check(d, reduced, opts)
		if err != nil {
			t.Fatalf("core minus Σ[%d]: %v", c, err)
		}
		if r.Verdict == Inconsistent {
			t.Errorf("core is not minimal: still inconsistent without Σ[%d] (%s)",
				c, prover.ConstraintAt(set, c))
		}
	}
}

func containsIdx(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}

func TestExplainGeography(t *testing.T) {
	d, set := loadTestdataSpec(t, "geography", "geography")
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", ex.Verdict)
	}
	requireMinimalCore(t, d, set, ex.Core)
	if len(ex.Derivation) == 0 {
		t.Fatal("prover-refutable spec explained without a derivation")
	}
	if ex.Certificate == nil || ex.Certificate.Refutation == nil ||
		ex.Certificate.Refutation.Source != certificate.SourceProver {
		t.Fatalf("expected a prover refutation certificate, got %s", ex.Certificate)
	}
	// The remapped core derivation must replay against the FULL spec.
	if err := certificate.Verify(d, set, ex.Certificate); err != nil {
		t.Fatalf("core derivation does not replay against the full spec: %v", err)
	}
	if len(ex.Hints) == 0 {
		t.Fatal("no repair hints")
	}
	for _, h := range ex.Hints {
		if h.Action != "drop" && h.Action != "weaken" {
			t.Errorf("hint action %q not in {drop, weaken}", h.Action)
		}
		if h.Cores < 1 || h.Cores > ex.Cores {
			t.Errorf("hint core count %d out of range [1,%d]", h.Cores, ex.Cores)
		}
		if !containsIdx(ex.Core, h.Constraint) && h.Cores < 1 {
			t.Errorf("hint cites Σ[%d] appearing in no core", h.Constraint)
		}
	}
	if len(ex.CoreConstraints) != len(ex.Core) {
		t.Errorf("rendered core length %d != core length %d", len(ex.CoreConstraints), len(ex.Core))
	}
}

func TestExplainSchoolExtended(t *testing.T) {
	d, set := loadTestdataSpec(t, "school", "school-extended")
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", ex.Verdict)
	}
	requireMinimalCore(t, d, set, ex.Core)
	if len(ex.Derivation) == 0 {
		t.Fatal("no derivation for the regular-dialect refutation")
	}
	if err := certificate.Verify(d, set, ex.Certificate); err != nil {
		t.Fatalf("certificate does not verify: %v", err)
	}
}

func TestExplainConsistentSpec(t *testing.T) {
	d, set := loadTestdataSpec(t, "library", "library")
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Consistent {
		t.Fatalf("verdict %v, want Consistent", ex.Verdict)
	}
	if len(ex.Core) != 0 || len(ex.Derivation) != 0 || len(ex.Hints) != 0 {
		t.Errorf("consistent spec explained with core/derivation/hints: %+v", ex)
	}
}

func TestExplainCheckShortCircuit(t *testing.T) {
	// With Explain set, Check itself must short-circuit before the ILP
	// on prover-refutable specs and record it in Stats. school-extended
	// is the spec no sound lint rule covers, so the prover hook — not
	// the lint prepass — is what fires here.
	d, set := loadTestdataSpec(t, "school", "school-extended")
	res, err := Check(d, set, Options{Explain: true, SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", res.Verdict)
	}
	if !res.Stats.ProverShortCircuit {
		t.Error("prover short-circuit not recorded in Stats")
	}
	if res.Stats.ProverFacts == 0 {
		t.Error("Stats.ProverFacts is zero after a saturation")
	}
	if res.Stats.ILPNodes != 0 || res.Stats.LPCalls != 0 {
		t.Errorf("ILP ran despite the prover refutation: %+v", res.Stats)
	}
	if res.Certificate == nil || res.Certificate.Refutation == nil ||
		res.Certificate.Refutation.Source != certificate.SourceProver {
		t.Fatalf("expected a prover certificate, got %s", res.Certificate)
	}
	if err := certificate.Verify(d, set, res.Certificate); err != nil {
		t.Fatalf("pipeline prover certificate does not verify: %v", err)
	}

	// Explain off: the same spec must decide without the prover.
	res2, err := Check(d, set, Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.ProverFacts != 0 || res2.Stats.ProverShortCircuit {
		t.Errorf("prover ran with Explain off: %+v", res2.Stats)
	}
	if res2.Verdict != Inconsistent {
		t.Fatalf("verdict without prover %v, want Inconsistent", res2.Verdict)
	}
}

// TestMinimalCoreGeography pins the Figure 1 geography core: the
// absolute country key is irrelevant to the counting conflict and must
// be dropped. The relative province key stays even though the conflict
// would survive without it: it is the paired key of the foreign key
// (the paper's foreign-key definition bundles them), so removing it
// alone would leave an ill-formed set.
func TestMinimalCoreGeography(t *testing.T) {
	d := dtd.MustParse(geoDTD)
	set := constraint.MustParseSet(geoConstraints)
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Inconsistent {
		t.Fatalf("verdict %v, want Inconsistent", ex.Verdict)
	}
	want := []string{
		"country(province.name -> province)",
		"country(capital.inProvince -> capital)",
		"country(capital.inProvince ⊆ province.name)",
	}
	if !reflect.DeepEqual(ex.CoreConstraints, want) {
		t.Fatalf("core = %q, want %q", ex.CoreConstraints, want)
	}
	requireMinimalCore(t, d, set, ex.Core)
}

// TestMinimalCoreAbsolute surrounds a 3-constraint conflict (two keyed
// a's into one keyed b) with irrelevant c constraints, which the core
// must drop.
func TestMinimalCoreAbsolute(t *testing.T) {
	d := dtd.MustParse(`
<!ELEMENT db (a, a, b, c, c)>
<!ELEMENT a EMPTY>
<!ELEMENT b EMPTY>
<!ELEMENT c EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST b y CDATA #REQUIRED>
<!ATTLIST c z CDATA #REQUIRED>
`)
	set := constraint.MustParseSet(`
c.z -> c
a.x -> a
b.y -> b
a.x ⊆ b.y
c.z ⊆ a.x
`)
	ex, err := Explain(d, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.x -> a", "b.y -> b", "a.x ⊆ b.y"}
	if !reflect.DeepEqual(ex.CoreConstraints, want) {
		t.Fatalf("core = %q, want %q", ex.CoreConstraints, want)
	}
	requireMinimalCore(t, d, set, ex.Core)
}

// TestMinimalCoreUnsatisfiableDTD: when the DTD alone admits no finite
// document, the spec is inconsistent and the constraint core is empty.
func TestMinimalCoreUnsatisfiableDTD(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a (b)><!ELEMENT b (b)>`)
	ex, err := Explain(d, &constraint.Set{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Inconsistent || len(ex.Core) != 0 {
		t.Fatalf("verdict %v, core %v; want Inconsistent with an empty core", ex.Verdict, ex.Core)
	}
}

// TestMinimalCoreRejectsConsistent: a consistent spec has no core
// (Spec.ExplainInconsistency turns this into an error).
func TestMinimalCoreRejectsConsistent(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT a EMPTY>`)
	ex, err := Explain(d, &constraint.Set{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Verdict != Consistent || len(ex.Core) != 0 {
		t.Fatalf("verdict %v, core %v; want Consistent with no core", ex.Verdict, ex.Core)
	}
}
