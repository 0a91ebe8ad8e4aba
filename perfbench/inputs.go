package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"

	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/reduction"
	"repro/internal/scope"
)

// spec is one workload input as the checker receives it: DTD and
// constraint text only. expect is the verdict known from outside the
// checker (a reference solver or the paper), Unknown when the input
// has none and its answer is established by certificate, witness and
// bounded search instead.
type spec struct {
	name   string
	dtd    string
	keys   string
	expect consistency.Verdict
}

// paperSpec is one of the paper's worked examples with its verdict.
type paperSpec struct {
	name, dtdFile, keysFile string
	expect                  consistency.Verdict
}

var paperSpecs = []paperSpec{
	{"library", "library.dtd", "library.keys", consistency.Consistent},
	{"school", "school.dtd", "school.keys", consistency.Consistent},
	{"geography", "geography.dtd", "geography.keys", consistency.Inconsistent},
	{"school-extended", "school.dtd", "school-extended.keys", consistency.Inconsistent},
}

// loadPaper reads the paper's specifications from the repository's
// testdata directory.
func loadPaper(root string) (map[string]spec, error) {
	out := map[string]spec{}
	for _, p := range paperSpecs {
		d, err := os.ReadFile(filepath.Join(root, "testdata", p.dtdFile))
		if err != nil {
			return nil, err
		}
		k, err := os.ReadFile(filepath.Join(root, "testdata", p.keysFile))
		if err != nil {
			return nil, err
		}
		out[p.name] = spec{name: p.name, dtd: string(d), keys: string(k), expect: p.expect}
	}
	return out, nil
}

var (
	dtdComment = regexp.MustCompile(`(?s)<!--.*?-->`)
	identifier = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
)

// renamed returns an isomorphic copy of s in which every element type
// carries the suffix "x<n>": the same verdict, a distinct digest, so a
// fixed specification can recur in a stream of distinct inputs and a
// warm-up can run a shape without running the timed input itself.
func renamed(s spec, n int) (spec, error) {
	d, err := dtd.Parse(s.dtd)
	if err != nil {
		return spec{}, err
	}
	names := map[string]bool{}
	for _, name := range d.Names {
		names[name] = true
	}
	suffix := fmt.Sprintf("x%d", n)
	rename := func(text string) string {
		return identifier.ReplaceAllStringFunc(text, func(id string) string {
			if names[id] {
				return id + suffix
			}
			return id
		})
	}
	return spec{
		name:   s.name + "/" + suffix,
		dtd:    rename(dtdComment.ReplaceAllString(s.dtd, "")),
		keys:   rename(s.keys),
		expect: s.expect,
	}, nil
}

// renamedAll renames every input with suffix "x0", the warm-up copies.
func renamedAll(in []spec) []spec {
	out := make([]spec, 0, len(in))
	for _, s := range in {
		if r, err := renamed(s, 0); err == nil {
			out = append(out, r)
		}
	}
	return out
}

// corpusPaper names the paper specifications that recur, renamed, in
// the corpus stream. school-extended is left to the explain workload:
// its regular-path refutation costs hundreds of times a typical corpus
// check and would make the corpus about that one spec.
var corpusPaper = []string{"library", "geography", "school"}

// corpusPaperEvery is the stream period of paper specifications: every
// 16th input, cycling through corpusPaper, so their share is the same
// in every run.
const corpusPaperEvery = 16

// corpusGen yields the corpus stream: an endless sequence of distinct
// small specifications, determined by the seed. Every 16th input is a
// renamed copy of a paper specification; the rest are seeded random
// non-recursive DTDs with 3–8 element types and a mix of absolute and
// relative keys and foreign keys.
type corpusGen struct {
	rng   *rand.Rand
	seed  int64
	paper []spec
	n     int
	seen  map[string]bool
}

func newCorpusGen(root string, seed int64) (*corpusGen, error) {
	p, err := loadPaper(root)
	if err != nil {
		return nil, err
	}
	g := &corpusGen{rng: rand.New(rand.NewSource(seed)), seed: seed, seen: map[string]bool{}}
	for _, name := range corpusPaper {
		g.paper = append(g.paper, p[name])
	}
	return g, nil
}

func (g *corpusGen) next() spec {
	g.n++
	if g.n%corpusPaperEvery == 0 {
		base := g.paper[(g.n/corpusPaperEvery)%len(g.paper)]
		// The suffix folds in the stream position and the seed, so
		// copies never repeat within a run or match a warm-up copy.
		if s, err := renamed(base, int(g.seed)*1000003+g.n); err == nil {
			return s
		}
	}
	for {
		d, set := randomSpec(g.rng)
		key := digest.Spec(d, set)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		return spec{name: fmt.Sprintf("random/%d", g.n), dtd: d.String(), keys: set.String()}
	}
}

// batch draws the next n inputs.
func (g *corpusGen) batch(n int) []spec {
	out := make([]spec, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// randomSpec draws a non-recursive DTD and a well-formed constraint set
// over it. Relative sets are kept only when hierarchical, so every
// random input lies in a decidable class of the paper.
func randomSpec(rng *rand.Rand) (*dtd.DTD, *constraint.Set) {
	for {
		d := dtd.Random(rng, dtd.RandomOptions{
			Types:       3 + rng.Intn(6),
			MaxAttrs:    2,
			MaxExprSize: 5,
			AllowStar:   rng.Intn(2) == 0,
			AllowText:   rng.Intn(3) == 0,
		})
		for try := 0; try < 8; try++ {
			set := randomSet(rng, d)
			if set.Size() == 0 || set.Validate(d) != nil {
				continue
			}
			if constraint.Classify(set).Relative && !scope.Hierarchical(d, set) {
				continue
			}
			return d, set
		}
	}
}

// randomSet draws up to three keys and two foreign keys over the
// attributes the DTD declares; each constraint is absolute or relative
// to a random element type with equal odds.
func randomSet(rng *rand.Rand, d *dtd.DTD) *constraint.Set {
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
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		set.AddKey(constraint.Key{Context: context(), Target: target()})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		set.AddForeignKey(constraint.Inclusion{Context: context(), From: target(), To: target()})
	}
	return set
}

// familyDraw is one randomized hard family at one size: draw builds an
// instance from a seeded generator (ok false when the draw is
// unusable), and sat/unsat are how many instances of each known
// answer the mix takes.
type familyDraw struct {
	draw       func(rng *rand.Rand) (experiments.Instance, bool)
	sat, unsat int
}

func always(f func(rng *rand.Rand) experiments.Instance) func(*rand.Rand) (experiments.Instance, bool) {
	return func(rng *rand.Rand) (experiments.Instance, bool) { return f(rng), true }
}

// hardDraws is the hard-families mix per randomized family and size.
// Drawing a fixed number of instances per known answer keeps the mix's
// cost from swinging with the share of satisfiable draws a seed
// happens to produce.
var hardDraws = []familyDraw{
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Fig3Unary(r, 5) }), 3, 3},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Fig3Unary(r, 6) }), 3, 3},
	{func(r *rand.Rand) (experiments.Instance, bool) { return experiments.Fig3PDE(r, 4) }, 3, 3},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Fig3Regular(r, 3) }), 3, 3},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Fig3Regular(r, 4) }), 2, 2},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Fig4DLocal(r, 3) }), 3, 3},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Thm35SubsetSum(r, 6, 64) }), 3, 3},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Thm35SubsetSum(r, 8, 256) }), 3, 3},
}

// explainDraws is the randomized part of the explain mix: unsat
// instances only, since Explain minimizes cores of inconsistent specs.
var explainDraws = []familyDraw{
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Fig4DLocal(r, 1) }), 0, 3},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Thm35SubsetSum(r, 4, 16) }), 0, 2},
	{always(func(r *rand.Rand) experiments.Instance { return experiments.Thm35SubsetSum(r, 6, 64) }), 0, 2},
}

// maxDraws bounds the seeded draws per family and size; a quota the
// draws cannot fill is left short rather than looping.
const maxDraws = 400

// drawFamilies fills every family's sat/unsat quota with distinct
// instances drawn from one seeded generator.
func drawFamilies(seed int64, draws []familyDraw) []spec {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []spec
	for _, f := range draws {
		need := map[consistency.Verdict]int{consistency.Consistent: f.sat, consistency.Inconsistent: f.unsat}
		for i := 0; i < maxDraws && need[consistency.Consistent]+need[consistency.Inconsistent] > 0; i++ {
			in, ok := f.draw(rng)
			if !ok || need[in.Expect] == 0 {
				continue
			}
			s := instanceSpec(in)
			if seen[s.dtd+"\x00"+s.keys] {
				continue
			}
			seen[s.dtd+"\x00"+s.keys] = true
			need[in.Expect]--
			out = append(out, s)
		}
	}
	return out
}

func instanceSpec(in experiments.Instance) spec {
	return spec{name: in.Name, dtd: in.D.String(), keys: in.Set.String(), expect: in.Expect}
}

// The hard-families and explain lists are fixed: their randomized
// families are drawn from these list seeds, not from the run's seed.
// Instance hardness in these families spans an order of magnitude from
// draw to draw, so a per-run draw made the mix's geometric mean swing
// by a quarter between seeds (five-seed trial: IQR/median 0.25, 0.38
// for throughput). The run's seed orders each round instead. Warm-ups
// draw from warmListSeed and rename every element type, so no warm-up
// input equals a timed one.
const (
	timedListSeed = 1
	warmListSeed  = 2
)

// paritySubsetSum is a Thm35SubsetSum instance of n even values 2, 4,
// …, 2n with an odd target: unsatisfiable by parity, which interval
// propagation does not see. Its search passes the 2000 nodes after
// which the solver engages the LP relaxation, so the simplex and its
// int64 fast path run on the hard mix; no seeded draw of the sizes
// above searches that long.
func paritySubsetSum(n int, target uint64) spec {
	in := reduction.SubsetSum{Target: target}
	for k := 1; k <= n; k++ {
		in.Set = append(in.Set, 2*uint64(k))
	}
	d, set := reduction.FromSubsetSum(in)
	expect := consistency.Inconsistent
	if reduction.SolveSubsetSum(in) {
		expect = consistency.Consistent
	}
	return spec{
		name:   fmt.Sprintf("subsetsum-parity/n=%d,t=%d", n, target),
		dtd:    d.String(),
		keys:   set.String(),
		expect: expect,
	}
}

// hardInputs is the hard-families list: the seeded families above, the
// fixed Fig4Hierarchical chains, satisfiable and not, and one parity
// SubsetSum instance.
func hardInputs(seed int64) []spec {
	out := drawFamilies(seed, hardDraws)
	for levels := 3; levels <= 6; levels++ {
		for _, sat := range []bool{true, false} {
			out = append(out, instanceSpec(experiments.Fig4Hierarchical(levels, sat)))
		}
	}
	return append(out, paritySubsetSum(12, 65))
}

// explainInputs is the explain list: geography, the unsat
// Fig4Hierarchical chains, and seeded unsat Fig4DLocal and
// Thm35SubsetSum instances. school-extended is not in it: one Explain
// of it takes about 2.4 s (nine sub-checks of 0.22 s on the regular
// route), which would be nine tenths of every round and leave a 10 s
// run under a hundred operations.
func explainInputs(root string, seed int64) ([]spec, error) {
	p, err := loadPaper(root)
	if err != nil {
		return nil, err
	}
	out := []spec{p["geography"]}
	for levels := 2; levels <= 6; levels++ {
		out = append(out, instanceSpec(experiments.Fig4Hierarchical(levels, false)))
	}
	return append(out, drawFamilies(seed, explainDraws)...), nil
}
