package consistency

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/obs"
)

// certJSON canonicalizes a certificate for comparison (scope vectors
// are assembled in sorted key order, so equal certificates marshal to
// equal bytes).
func certJSON(t *testing.T, res Result) string {
	t.Helper()
	if res.Certificate == nil {
		return ""
	}
	b, err := json.Marshal(res.Certificate)
	if err != nil {
		t.Fatalf("marshal certificate: %v", err)
	}
	return string(b)
}

// assertSameOutcome checks that a parallel run reproduced the
// sequential run exactly: verdict, method, certificate, witness, and
// aggregate stats (modulo the Workers field, which records the pool
// size by design).
func assertSameOutcome(t *testing.T, label string, seq, par Result) {
	t.Helper()
	if par.Verdict != seq.Verdict {
		t.Fatalf("%s: verdict = %v, sequential = %v (%s / %s)",
			label, par.Verdict, seq.Verdict, par.Diagnosis, seq.Diagnosis)
	}
	if par.Method != seq.Method {
		t.Errorf("%s: method = %q, sequential = %q", label, par.Method, seq.Method)
	}
	if got, want := certJSON(t, par), certJSON(t, seq); got != want {
		t.Errorf("%s: certificate differs\nparallel:   %s\nsequential: %s", label, got, want)
	}
	if (par.Witness == nil) != (seq.Witness == nil) {
		t.Fatalf("%s: witness presence differs (parallel %v, sequential %v)",
			label, par.Witness != nil, seq.Witness != nil)
	}
	if par.Witness != nil && par.Witness.XML() != seq.Witness.XML() {
		t.Errorf("%s: witness differs\nparallel:\n%s\nsequential:\n%s",
			label, par.Witness.XML(), seq.Witness.XML())
	}
	ps, ss := par.Stats, seq.Stats
	ps.Workers, ss.Workers = 0, 0
	if ps != ss {
		t.Errorf("%s: stats differ\nparallel:   %+v\nsequential: %+v", label, ps, ss)
	}
}

// assertSameSpanLayout checks that the inline loop and an 8-worker
// pool record the same sequence of span paths: the pool's recorder
// shards must fold back into the layout the inline loop records.
func assertSameSpanLayout(t *testing.T, label string, d *dtd.DTD, set *constraint.Set) {
	t.Helper()
	paths := func(workers int) []string {
		rec := obs.New()
		if _, err := Check(d, set, Options{SkipLint: true, Parallelism: workers, Obs: rec}); err != nil {
			t.Fatalf("%s parallel=%d: %v", label, workers, err)
		}
		var out []string
		for _, s := range rec.Spans() {
			out = append(out, s.Path)
		}
		return out
	}
	if seq, par := paths(1), paths(8); !slices.Equal(seq, par) {
		t.Fatalf("%s: span layouts differ\nsequential: %q\nparallel:   %q", label, seq, par)
	}
}

// TestParallelMatchesSequentialFixtures runs the named paper
// specifications through every interesting pool size and demands the
// sequential outcome bit for bit.
func TestParallelMatchesSequentialFixtures(t *testing.T) {
	fixtures := []struct {
		name, dtdSrc, cSrc string
		want               Verdict
	}{
		{"geography", geoDTD, geoConstraints, Inconsistent},
		{"library", libraryDTD, libraryConstraints, Consistent},
		{"nested-contexts", nestedDTD, nestedConstraints, Inconsistent},
	}
	for _, fx := range fixtures {
		d := dtd.MustParse(fx.dtdSrc)
		set := constraint.MustParseSet(fx.cSrc)
		// SkipLint forces the hierarchical route even for specs the
		// prepass would short-circuit, so the fan-out actually runs.
		seq, err := Check(d, set, Options{SkipLint: true})
		if err != nil {
			t.Fatalf("%s sequential: %v", fx.name, err)
		}
		if seq.Verdict != fx.want {
			t.Fatalf("%s sequential verdict = %v, want %v", fx.name, seq.Verdict, fx.want)
		}
		for _, workers := range []int{2, 8, -1} {
			par, err := Check(d, set, Options{SkipLint: true, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", fx.name, workers, err)
			}
			assertSameOutcome(t, fx.name, seq, par)
			if resolveParallelism(workers) >= 2 && par.Stats.Workers != resolveParallelism(workers) {
				t.Errorf("%s parallel=%d: Stats.Workers = %d, want %d",
					fx.name, workers, par.Stats.Workers, resolveParallelism(workers))
			}
		}
		assertSameSpanLayout(t, fx.name, d, set)
	}
}

// TestParallelMatchesSequentialRandom is the differential harness of
// the fan-out: 500 random specifications, each decided sequentially,
// with worker pools of 2 and 8, and with the int64 LP fast path
// disabled — all four runs must agree on verdict and certificate, and
// the pooled runs must reproduce the sequential stats exactly.
func TestParallelMatchesSequentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	trials := 0
	for trials < 500 {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types: 3 + rng.Intn(3), MaxAttrs: 1, MaxExprSize: 5,
			AllowStar: rng.Intn(2) == 0, AllowText: false,
		})
		set := randomRelativeSet(rng, d)
		if set.Size() == 0 || set.Validate(d) != nil || !Hierarchical(d, set) {
			continue
		}
		trials++
		seq, err := Check(d, set, Options{SkipLint: true})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Verdict == Consistent && seq.Witness != nil {
			if err := seq.Witness.Conforms(d); err != nil {
				t.Fatalf("witness conformance: %v\nDTD:\n%s\nΣ:\n%s", err, d, set)
			}
			if vs := constraint.Check(seq.Witness, set); len(vs) != 0 {
				t.Fatalf("witness violations: %v\nDTD:\n%s\nΣ:\n%s", vs, d, set)
			}
		}
		for _, workers := range []int{2, 8} {
			par, err := Check(d, set, Options{SkipLint: true, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			assertSameOutcome(t, "random", seq, par)
		}
		// The exact big.Rat tableau must reach the same verdict and
		// certificate as the int64 fast path (stats legitimately
		// differ: FastPathLPs collapses to zero).
		rat, err := Check(d, set, Options{SkipLint: true, ILP: ilp.Options{ForceRatLP: true}})
		if err != nil {
			t.Fatal(err)
		}
		if rat.Verdict != seq.Verdict {
			t.Fatalf("ForceRatLP verdict = %v, fast path = %v\nDTD:\n%s\nΣ:\n%s",
				rat.Verdict, seq.Verdict, d, set)
		}
		if got, want := certJSON(t, rat), certJSON(t, seq); got != want {
			t.Fatalf("ForceRatLP certificate differs\nrat:  %s\nfast: %s\nDTD:\n%s\nΣ:\n%s",
				got, want, d, set)
		}
	}
}

// nestedDTD/nestedConstraints is the inconsistent nested-context spec
// from TestRelativeNestedContexts: a book-level key on section titles
// against a chapter-level inclusion into a single holder value.
const nestedDTD = `
<!ELEMENT library (book)>
<!ELEMENT book (chapter, chapter)>
<!ELEMENT chapter (section, section, holder)>
<!ELEMENT section EMPTY>
<!ELEMENT holder EMPTY>
<!ATTLIST section title CDATA #REQUIRED>
<!ATTLIST holder h CDATA #REQUIRED>
`

const nestedConstraints = `
book(section.title -> section)
chapter(holder.h -> holder)
chapter(section.title ⊆ holder.h)
`

// deepDTD/deepConstraints has the Figure 4 hierarchical shape: every
// level carries its own keyed items injecting into a single holder
// value, which is unsatisfiable.
const deepDTD = `
<!ELEMENT l0 (l1, l1, item0, item0, holder0)>
<!ELEMENT l1 (l2, l2, item1, item1, holder1)>
<!ELEMENT l2 (item2, item2, holder2)>
<!ELEMENT item0 EMPTY>
<!ELEMENT item1 EMPTY>
<!ELEMENT item2 EMPTY>
<!ELEMENT holder0 EMPTY>
<!ELEMENT holder1 EMPTY>
<!ELEMENT holder2 EMPTY>
<!ATTLIST item0 v CDATA #REQUIRED>
<!ATTLIST item1 v CDATA #REQUIRED>
<!ATTLIST item2 v CDATA #REQUIRED>
<!ATTLIST holder0 v CDATA #REQUIRED>
<!ATTLIST holder1 v CDATA #REQUIRED>
<!ATTLIST holder2 v CDATA #REQUIRED>
`

const deepConstraints = `
l0(item0.v -> item0)
l1(item1.v -> item1)
l2(item2.v -> item2)
l0(holder0.v -> holder0)
l1(holder1.v -> holder1)
l2(holder2.v -> holder2)
l0(item0.v ⊆ holder0.v)
l1(item1.v ⊆ holder1.v)
l2(item2.v ⊆ holder2.v)
`

// TestParallelDeepChain exercises a decomposition deep enough that
// tasks must wait on grandchildren while the pool is saturated — the
// no-deadlock property of waiting without a solve slot.
func TestParallelDeepChain(t *testing.T) {
	d := dtd.MustParse(deepDTD)
	set := constraint.MustParseSet(deepConstraints)
	if !Hierarchical(d, set) {
		t.Fatal("deep chain spec must be hierarchical")
	}
	seq, err := Check(d, set, Options{SkipLint: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := Check(d, set, Options{SkipLint: true, Parallelism: workers})
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, "deep-chain", seq, par)
	}
	assertSameSpanLayout(t, "deep-chain", d, set)
	if seq.Stats.Scopes < 3 {
		t.Fatalf("scopes = %d, want a real multi-scope decomposition", seq.Stats.Scopes)
	}
}
