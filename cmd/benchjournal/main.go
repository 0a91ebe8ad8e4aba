// Command benchjournal appends one timed run of the core benchmark
// families to a schema-versioned journal file (BENCH_<date>.json by
// default), so the repository's performance trajectory is recorded in
// a machine-readable form: ns/op, allocs/op, certificate kind and
// size, per-phase span durations, and the toolchain plus VCS revision
// that produced the numbers.
//
// Usage:
//
//	benchjournal [-out BENCH_2026-08-06.json] [-quick] [-seed N]
//
// Exit status: 0 on success, 1 when a benchmark case fails or returns
// a wrong verdict, 3 on usage or journal-file errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/benchjournal"
	"repro/internal/buildinfo"
	"repro/internal/cliutil"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/dtd"
	"repro/internal/experiments"
	"repro/internal/ilp"
	"repro/internal/introspect"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchCase is one journaled benchmark: a prepared spec and the
// verdict the checker must report for the timing to count.
type benchCase struct {
	name   string
	d      *dtd.DTD
	set    *constraint.Set
	opts   consistency.Options
	expect consistency.Verdict
	// certify keeps certificate construction in the timed loop; every
	// other case times the bare decision.
	certify bool
}

const libraryDTD = `
<!ELEMENT library (book+)>
<!ELEMENT book (author+, chapter+)>
<!ELEMENT author EMPTY>
<!ELEMENT chapter (section*)>
<!ELEMENT section EMPTY>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ATTLIST author name CDATA #REQUIRED>
<!ATTLIST chapter number CDATA #REQUIRED>
<!ATTLIST section title CDATA #REQUIRED>
`

const libraryKeys = `
library(book.isbn -> book)
book(author.name -> author)
book(chapter.number -> chapter)
chapter(section.title -> section)
`

const geographyDTD = `
<!ELEMENT db (country+)>
<!ELEMENT country (province+, capital+)>
<!ELEMENT province (capital, city*)>
<!ELEMENT capital EMPTY>
<!ELEMENT city EMPTY>
<!ATTLIST country name CDATA #REQUIRED>
<!ATTLIST province name CDATA #REQUIRED>
<!ATTLIST capital inProvince CDATA #REQUIRED>
`

const geographyKeys = `
country.name -> country
country(province.name -> province)
country(capital.inProvince -> capital)
country(capital.inProvince ⊆ province.name)
`

// cases mirrors the benchmark families of bench_test.go: the worked
// examples of Figures 1 and 2, one point from each complexity-table
// sweep, and the Theorem 3.5 tractable fragment.
func cases(seed int64) ([]benchCase, error) {
	spec := func(name, dtdSrc, keySrc string, expect consistency.Verdict) (benchCase, error) {
		d, err := dtd.Parse(dtdSrc)
		if err != nil {
			return benchCase{}, fmt.Errorf("%s: %v", name, err)
		}
		set, err := constraint.ParseSet(keySrc)
		if err != nil {
			return benchCase{}, fmt.Errorf("%s: %v", name, err)
		}
		return benchCase{name: name, d: d, set: set, expect: expect}, nil
	}
	library, err := spec("fig2/library", libraryDTD, libraryKeys, consistency.Consistent)
	if err != nil {
		return nil, err
	}
	geography, err := spec("fig1/geography", geographyDTD, geographyKeys, consistency.Inconsistent)
	if err != nil {
		return nil, err
	}
	fromInstance := func(name string, in experiments.Instance) benchCase {
		return benchCase{name: name, d: in.D, set: in.Set, opts: in.Opts, expect: in.Expect}
	}
	rng := rand.New(rand.NewSource(seed))
	// The certificate path's cost is gated on its own row: the same
	// library check with provenance capture left on.
	certified := library
	certified.name = "fig2/library/with-certificate"
	certified.certify = true
	cs := []benchCase{
		library,
		certified,
		geography,
		fromInstance("fig3/unary-n=4", experiments.Fig3Unary(rng, 4)),
		fromInstance("fig4/hierarchical-levels=4", experiments.Fig4Hierarchical(4, true)),
		fromInstance("thm35/tractable-width=16", experiments.Thm35Tractable(16, true)),
	}

	// Paired ablation cases. The lp= pair runs the same hard CNF
	// instance with the simplex engaged at every stride level, once on
	// the exact big.Rat tableau and once on the int64 fast path — the
	// ratio between the two rows is the fast path's journaled speedup.
	// The fig4 pair decides the same hierarchical family sequentially
	// and with a four-worker scope pool.
	hardCNF := experiments.Fig3Unary(rng, 6)
	ratCase := fromInstance("fig3/unary-n=6/lp=rat", hardCNF)
	ratCase.opts.ILP.LP = ilp.LPAlways
	ratCase.opts.ILP.ForceRatLP = true
	fastCase := fromInstance("fig3/unary-n=6/lp=fast", hardCNF)
	fastCase.opts.ILP.LP = ilp.LPAlways
	hier := experiments.Fig4Hierarchical(6, true)
	seqCase := fromInstance("fig4/hierarchical-levels=6/seq", hier)
	parCase := fromInstance("fig4/hierarchical-levels=6/parallel=4", hier)
	parCase.opts.Parallelism = 4
	return append(cs, ratCase, fastCase, seqCase, parCase), nil
}

// journalEntry measures one case and then runs it once more under a
// recorder to capture provenance: the certificate shape and the
// per-phase span durations.
func journalEntry(c benchCase, target time.Duration) (benchjournal.Entry, error) {
	timedOpts := c.opts
	timedOpts.SkipWitness = true
	timedOpts.SkipCertificate = !c.certify
	m, err := benchjournal.Measure(target, func() error {
		res, err := consistency.Check(c.d, c.set, timedOpts)
		if err != nil {
			return err
		}
		if res.Verdict != c.expect {
			return fmt.Errorf("%s: verdict %v, want %v", c.name, res.Verdict, c.expect)
		}
		return nil
	})
	if err != nil {
		return benchjournal.Entry{}, err
	}

	rec := obs.New()
	instrOpts := c.opts
	instrOpts.SkipWitness = true
	instrOpts.Obs = rec
	// The ledger attributes the instrumented run's cost to its scope
	// subproblems; allocation tracking is fine in a batch tool.
	instrOpts.Ledger = introspect.NewLedger().TrackAllocs()
	res, err := consistency.Check(c.d, c.set, instrOpts)
	if err != nil {
		return benchjournal.Entry{}, err
	}
	entry := benchjournal.Entry{
		Name:        c.name,
		Iterations:  m.Iterations,
		NsPerOp:     m.NsPerOp,
		AllocsPerOp: m.AllocsPerOp,
		BytesPerOp:  m.BytesPerOp,
		SpecDigest:  digest.Spec(c.d, c.set),
		Verdict:     res.Verdict.String(),

		FastPathLPs:  res.Stats.FastPathLPs,
		RatFallbacks: res.Stats.RatFallbacks,
		Workers:      res.Stats.Workers,
	}
	if res.Certificate != nil {
		entry.CertificateKind = res.Certificate.Kind()
		entry.CertificateSize = res.Certificate.Size()
	}
	for _, sp := range rec.Spans() {
		entry.Phases = append(entry.Phases, benchjournal.Phase{
			Path: sp.Path, DurationUS: sp.DurationUS,
		})
	}
	entry.ScopeCosts = instrOpts.Ledger.Rows()

	// One more instrumented run with the prover enabled, recorded
	// separately so the baseline phases above stay untouched: only the
	// prover span is appended, giving each row an additive "prover"
	// phase without disturbing the certificate provenance (Explain can
	// short-circuit inconsistent cases before the ILP phases run).
	prec := obs.New()
	proverOpts := c.opts
	proverOpts.SkipWitness = true
	proverOpts.SkipCertificate = true
	proverOpts.SkipLint = true // lint would short-circuit known-bad specs before the prover runs
	proverOpts.Explain = true
	proverOpts.Obs = prec
	if _, err := consistency.Check(c.d, c.set, proverOpts); err != nil {
		return benchjournal.Entry{}, err
	}
	for _, sp := range prec.Spans() {
		if strings.HasSuffix(sp.Path, "/prover") || sp.Path == "prover" {
			entry.Phases = append(entry.Phases, benchjournal.Phase{
				Path: sp.Path, DurationUS: sp.DurationUS,
			})
		}
	}
	return entry, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjournal", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		outPath = fs.String("out", "", "journal file to append to (default BENCH_<date>.json)")
		quick   = fs.Bool("quick", false, "shorter timing target per case")
		seed    = fs.Int64("seed", 2002, "random seed for the generated instance families")
		version = fs.Bool("version", false, "print version information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 3
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionString("benchjournal"))
		return 0
	}
	path := *outPath
	if path == "" {
		path = benchjournal.FileName(time.Now())
	}
	target := 200 * time.Millisecond
	if *quick {
		target = 10 * time.Millisecond
	}

	cs, err := cases(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "benchjournal:", err)
		return 3
	}
	info := buildinfo.Get()
	runRec := benchjournal.Run{
		Date:      time.Now().Format(time.RFC3339),
		Module:    info.Module,
		Version:   info.Version,
		GoVersion: info.GoVersion,
		Revision:  info.Revision,
		Dirty:     info.Dirty,
		Quick:     *quick,
		Seed:      *seed,
	}
	for _, c := range cs {
		entry, err := journalEntry(c, target)
		if err != nil {
			fmt.Fprintln(stderr, "benchjournal:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-30s %12.0f ns/op %10.0f allocs/op  %s", entry.Name,
			entry.NsPerOp, entry.AllocsPerOp, entry.Verdict)
		if entry.CertificateKind != "" {
			fmt.Fprintf(stdout, " (%s certificate, size %d)", entry.CertificateKind, entry.CertificateSize)
		}
		fmt.Fprintln(stdout)
		runRec.Entries = append(runRec.Entries, entry)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runRec.Goroutines = runtime.NumGoroutine()
	runRec.GCCycles = ms.NumGC
	if err := benchjournal.Append(path, runRec); err != nil {
		fmt.Fprintln(stderr, "benchjournal:", err)
		return 3
	}
	fmt.Fprintf(stdout, "appended %d entries to %s (%s)\n", len(runRec.Entries), path, info.String())
	return 0
}
