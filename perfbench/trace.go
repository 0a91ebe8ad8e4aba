package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	xmlspec "repro"
	"repro/internal/bruteforce"
	"repro/internal/cardinality"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/digest"
	"repro/internal/dtd"
	"repro/internal/ilp"
	"repro/internal/prover"
	"repro/internal/scope"
	"repro/internal/speclint"
	"repro/internal/telemetry"
	"repro/internal/xmltree"
)

// The traced run calls each layer's public functions in the checker's
// pipeline order, from outside the program, and times every call:
//
//	parse      xmlspec.Parse
//	digest     digest.Spec
//	lint       speclint.PrepassValidated
//	prover     prover.Saturate (explain workload)
//	scope      scope.ContextTypes / ChainKey / DTD / LocalSet
//	encode     cardinality.EncodeAbsolute / EncodeRegular
//	sysdigest  ilp.(*System).Digest, with the re-encode a refutation
//	           certificate does
//	solve      cardinality.DecideFlow (bounded search off the
//	           decidable routes)
//
// Certificate and witness construction have no public entry point of
// their own; their cost is the difference between a default check and
// one with SkipCertificate or SkipWitness.

// walkLayers are the timed layers in pipeline order.
var walkLayers = []string{"parse", "digest", "lint", "prover", "scope", "encode", "sysdigest", "solve"}

// walk is one input's traced pass.
type walk struct {
	time           map[string]time.Duration
	ran            map[string]bool
	total          time.Duration
	lintShort      bool
	proverRefuted  bool
	facts          int
	scopes         int
	sysdigestCalls int
	vars, cons     int
}

func (w *walk) add(layer string, t0 time.Time) {
	w.time[layer] += time.Since(t0)
	w.ran[layer] = true
}

// traceWalk runs the layer pipeline on one input.
func traceWalk(s spec, explain bool) (*walk, error) {
	d, set, err := parseInternal(s)
	if err != nil {
		return nil, err
	}
	w := &walk{time: map[string]time.Duration{}, ran: map[string]bool{}}
	start := time.Now()
	defer func() { w.total = time.Since(start) }()

	t := time.Now()
	if _, err := xmlspec.Parse(s.dtd, s.keys); err != nil {
		return nil, err
	}
	w.add("parse", t)
	t = time.Now()
	digest.Spec(d, set)
	w.add("digest", t)
	t = time.Now()
	rep := speclint.PrepassValidated(d, set, nil)
	w.add("lint", t)
	if rep.SoundError() != nil {
		w.lintShort = true
		return w, nil
	}
	if explain {
		t = time.Now()
		out := prover.Saturate(d, set)
		w.add("prover", t)
		w.facts = out.Facts
		if out.Refuted {
			w.proverRefuted = true
			return w, nil
		}
	}
	prof := constraint.Classify(set)
	switch {
	case prof.Relative:
		w.relative(d, set)
	case len(set.Incls) == 0 && !prof.Regular:
		t = time.Now()
		d.Satisfiable()
		w.add("solve", t)
	case prof.Regular:
		t = time.Now()
		enc, err := cardinality.EncodeRegular(d, set)
		w.add("encode", t)
		if err != nil {
			return w, nil
		}
		w.solveFlow(enc.Flow, func() string {
			re, err := cardinality.EncodeRegular(d, set)
			if err != nil {
				return ""
			}
			return re.Flow.Sys.Digest()
		})
	default:
		t = time.Now()
		enc, err := cardinality.EncodeAbsolute(d, set)
		w.add("encode", t)
		if err != nil {
			return w, nil
		}
		w.solveFlow(enc.Flow, func() string {
			re, err := cardinality.EncodeAbsolute(d, set)
			if err != nil {
				return ""
			}
			return re.Flow.Sys.Digest()
		})
	}
	return w, nil
}

// solveFlow solves a document-level encoding; on a refutation it times
// the re-encode and system digest the refutation certificate pins.
func (w *walk) solveFlow(f *cardinality.Flow, refutationDigest func() string) {
	w.size(f.Sys)
	t := time.Now()
	res, _ := cardinality.DecideFlow(f, ilp.Options{})
	w.add("solve", t)
	if res.Verdict == ilp.Unsat {
		t = time.Now()
		refutationDigest()
		w.add("sysdigest", t)
		w.sysdigestCalls++
	}
}

func (w *walk) size(sys *ilp.System) {
	w.vars += sys.NumVars()
	w.cons += len(sys.Lins) + len(sys.Conds) + len(sys.Quads)
}

// relative walks the Theorem 4.3 scope chain the way the checker does:
// every scope's exits first, then the scope's own projected problem,
// digested and solved.
func (w *walk) relative(d *dtd.DTD, set *constraint.Set) {
	t := time.Now()
	contexts := scope.ContextTypes(d, set)
	hier := !d.IsRecursive() && len(scope.ConflictingPairs(d, set)) == 0
	w.add("scope", t)
	if !hier {
		t = time.Now()
		bruteforce.Decide(d, set, bruteforce.Options{})
		w.add("solve", t)
		return
	}
	memo := map[string]ilp.Verdict{}
	var visit func(chain map[string]bool, tau string) ilp.Verdict
	visit = func(chain map[string]bool, tau string) ilp.Verdict {
		t := time.Now()
		key := scope.ChainKey(chain, tau)
		w.add("scope", t)
		if v, ok := memo[key]; ok {
			return v
		}
		memo[key] = ilp.Unknown
		w.scopes++
		t = time.Now()
		sd, exits := scope.DTD(d, contexts, tau)
		w.add("scope", t)
		var banned []string
		for _, e := range exits {
			sub := map[string]bool{e: true}
			for c := range chain {
				sub[c] = true
			}
			if visit(sub, e) == ilp.Unsat {
				banned = append(banned, e)
			}
		}
		t = time.Now()
		local, forceZero := scope.LocalSet(d, sd, set, chain, tau)
		w.add("scope", t)
		t = time.Now()
		enc, err := cardinality.EncodeAbsolute(sd, local)
		w.add("encode", t)
		if err != nil {
			return ilp.Unknown
		}
		w.size(enc.Flow.Sys)
		t = time.Now()
		enc.Flow.Sys.Digest()
		w.add("sysdigest", t)
		w.sysdigestCalls++
		for _, z := range append(forceZero, banned...) {
			if fn := enc.Flow.Lookup(z, 0); fn >= 0 {
				enc.Flow.Sys.AddConst(enc.Flow.Vars[fn], 0)
			}
		}
		t = time.Now()
		res, _ := cardinality.DecideFlow(enc.Flow, ilp.Options{})
		w.add("solve", t)
		memo[key] = res.Verdict
		return res.Verdict
	}
	visit(map[string]bool{d.Root: true}, d.Root)
}

// sample is everything the traced run measured on one input.
type sample struct {
	w   *walk
	ans answer
	// op is the untraced operation: parse and check (or explain).
	op time.Duration
	// certificate and witness are the construction costs by
	// difference; ran reports whether the verdict carried one.
	certificate, witness       time.Duration
	hasCert, hasWitness        bool
	certBytes, witnessNodes    int
	explainChecks, explainCore int
	// check is one explain-mode check of the whole spec, the unit the
	// explain minimizer repeats.
	check time.Duration
	// stats is the solver effort the checker reports for the input.
	stats xmlspec.Stats
}

// timeCheck parses (untimed) and times one check with the options.
func timeCheck(s spec, opts *xmlspec.Options) (xmlspec.Result, time.Duration, error) {
	sp, err := xmlspec.Parse(s.dtd, s.keys)
	if err != nil {
		return xmlspec.Result{}, 0, err
	}
	t0 := time.Now()
	res, err := sp.Consistent(opts)
	return res, time.Since(t0), err
}

// traceInput measures one input: the untraced op, the layer walk, and
// the certificate and witness costs by difference.
func traceInput(s spec, explain bool, base xmlspec.Options) (*sample, error) {
	smp := &sample{}
	if explain {
		t0 := time.Now()
		sp, err := xmlspec.Parse(s.dtd, s.keys)
		if err != nil {
			return nil, err
		}
		ex, err := sp.Explain(&base)
		if err != nil {
			return nil, err
		}
		smp.op = time.Since(t0)
		smp.ans = answer{
			verdict: ex.Verdict, cert: ex.Certificate, explained: true,
			core: ex.Core, derivation: ex.Derivation,
		}
		smp.explainChecks, smp.explainCore = ex.Checks, ex.Cores
		sp2, err := xmlspec.Parse(s.dtd, s.keys)
		if err != nil {
			return nil, err
		}
		noCert := base
		noCert.SkipCertificate = true
		t0 = time.Now()
		if _, err := sp2.Explain(&noCert); err != nil {
			return nil, err
		}
		if ex.Certificate != nil {
			smp.hasCert = true
			smp.certificate = smp.op - time.Since(t0)
			smp.certBytes = jsonSize(ex.Certificate)
		}
		one := base
		one.Explain, one.SkipWitness = true, true
		var res xmlspec.Result
		if res, smp.check, err = timeCheck(s, &one); err != nil {
			return nil, err
		}
		smp.stats = res.Stats
	} else {
		t0 := time.Now()
		sp, err := xmlspec.Parse(s.dtd, s.keys)
		if err != nil {
			return nil, err
		}
		res, err := sp.Consistent(&base)
		if err != nil {
			return nil, err
		}
		smp.op = time.Since(t0)
		smp.ans = resultAnswer(res)
		smp.stats = res.Stats
		noCert, noWit := base, base
		noCert.SkipCertificate, noWit.SkipWitness = true, true
		_, full, err := timeCheck(s, &base)
		if err != nil {
			return nil, err
		}
		_, tc, err := timeCheck(s, &noCert)
		if err != nil {
			return nil, err
		}
		_, tw, err := timeCheck(s, &noWit)
		if err != nil {
			return nil, err
		}
		if res.Certificate != nil {
			smp.hasCert = true
			smp.certificate = full - tc
			smp.certBytes = jsonSize(res.Certificate)
		}
		if res.Witness != "" {
			smp.hasWitness = true
			smp.witness = full - tw
			if tree, err := xmltree.ParseDocumentString(res.Witness); err == nil {
				smp.witnessNodes = tree.Size()
			}
		}
	}
	w, err := traceWalk(s, explain)
	if err != nil {
		return nil, err
	}
	smp.w = w
	return smp, nil
}

func jsonSize(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b)
}

// perLayer lists every per-layer metric with its unit, in report order.
var perLayer = []struct{ name, unit string }{
	{"parse.p50_us", "us"}, {"parse.share", "ratio"},
	{"digest.p50_us", "us"}, {"digest.share", "ratio"},
	{"lint.p50_us", "us"}, {"lint.share", "ratio"}, {"lint.short_circuit_ratio", "ratio"},
	{"encode.p50_us", "us"}, {"encode.share", "ratio"}, {"encode.variables_per_check", "count"}, {"encode.constraints_per_check", "count"},
	{"sysdigest.p50_us", "us"}, {"sysdigest.share", "ratio"}, {"sysdigest.calls_per_check", "count"},
	{"scope.p50_us", "us"}, {"scope.share", "ratio"}, {"scope.count_per_check", "count"},
	{"solve.p50_us", "us"}, {"solve.share", "ratio"},
	{"ilp.nodes_per_check", "count"}, {"ilp.lp_calls_per_check", "count"}, {"ilp.pivots_per_check", "count"}, {"ilp.fast_path_ratio", "ratio"},
	{"certificate.build_p50_us", "us"}, {"certificate.share", "ratio"}, {"certificate.bytes_p50", "bytes"},
	{"witness.build_p50_us", "us"}, {"witness.share", "ratio"}, {"witness.nodes_p50", "count"},
	{"prover.p50_us", "us"}, {"prover.share", "ratio"}, {"prover.facts_per_call", "count"}, {"prover.refuted_ratio", "ratio"},
	{"explain.checks_per_call", "count"}, {"explain.cores_per_call", "count"}, {"explain.subcheck_share", "ratio"},
	{"server.request_p50_us", "us"}, {"server.check_p50_us", "us"}, {"server.outside_check_p50_us", "us"},
	{"client.overhead_p50_us", "us"}, {"server.request_bytes_p50", "bytes"}, {"server.response_bytes_p50", "bytes"},
	{"runtime.allocs_per_op", "count"}, {"runtime.bytes_per_op", "bytes"}, {"runtime.gc_per_1k_ops", "count"},
	{"consistency.unattributed_share", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

// newTraceReport starts a traced report with every per-layer metric at
// zero: a layer the workload never reaches reads 0 with 0 samples.
func newTraceReport() *report {
	rep := newReport()
	for _, m := range perLayer {
		rep.set(m.name, 0, m.unit, 0)
	}
	return rep
}

// summarize turns the traced samples into the per-layer metrics.
func summarize(rep *report, samples []*sample) {
	n := float64(len(samples))
	var opSum float64
	layerSum := map[string]float64{}
	layerVals := map[string][]float64{}
	var certVals, certBytes, witVals, witNodes []float64
	var certSum, witSum, walkSum, checkShare float64
	var lintShort, refuted, proverRuns, explains int
	var facts, scopes, sdCalls, vars, cons, checks, cores float64
	var st xmlspec.Stats
	for _, s := range samples {
		op := us(s.op)
		opSum += op
		for _, l := range walkLayers {
			if s.w.ran[l] {
				v := us(s.w.time[l])
				layerSum[l] += v
				layerVals[l] = append(layerVals[l], v)
			}
		}
		walkSum += us(s.w.total)
		if s.hasCert {
			certVals = append(certVals, us(s.certificate))
			certBytes = append(certBytes, float64(s.certBytes))
			certSum += us(s.certificate)
		}
		if s.hasWitness {
			witVals = append(witVals, us(s.witness))
			witNodes = append(witNodes, float64(s.witnessNodes))
			witSum += us(s.witness)
		}
		if s.w.lintShort {
			lintShort++
		}
		if s.w.ran["prover"] {
			proverRuns++
			facts += float64(s.w.facts)
			if s.w.proverRefuted {
				refuted++
			}
		}
		if s.explainChecks > 0 {
			explains++
			checks += float64(s.explainChecks)
			cores += float64(s.explainCore)
			checkShare += float64(s.explainChecks) * us(s.check) / op
		}
		scopes += float64(s.w.scopes)
		sdCalls += float64(s.w.sysdigestCalls)
		vars += float64(s.w.vars)
		cons += float64(s.w.cons)
		st.SolverNodes += s.stats.SolverNodes
		st.LPCalls += s.stats.LPCalls
		st.Pivots += s.stats.Pivots
		st.FastPathLPs += s.stats.FastPathLPs
	}
	for _, l := range walkLayers {
		setIf(rep, l+".p50_us", layerVals[l], "us")
		rep.set(l+".share", layerSum[l]/opSum, "ratio", len(samples))
	}
	rep.set("lint.short_circuit_ratio", float64(lintShort)/n, "ratio", len(samples))
	rep.set("encode.variables_per_check", vars/n, "count", len(samples))
	rep.set("encode.constraints_per_check", cons/n, "count", len(samples))
	rep.set("sysdigest.calls_per_check", sdCalls/n, "count", len(samples))
	rep.set("scope.count_per_check", scopes/n, "count", len(samples))
	rep.set("ilp.nodes_per_check", float64(st.SolverNodes)/n, "count", len(samples))
	rep.set("ilp.lp_calls_per_check", float64(st.LPCalls)/n, "count", len(samples))
	rep.set("ilp.pivots_per_check", float64(st.Pivots)/n, "count", len(samples))
	if st.LPCalls > 0 {
		rep.set("ilp.fast_path_ratio", float64(st.FastPathLPs)/float64(st.LPCalls), "ratio", st.LPCalls)
	}
	setIf(rep, "certificate.build_p50_us", certVals, "us")
	setIf(rep, "certificate.bytes_p50", certBytes, "bytes")
	rep.set("certificate.share", certSum/opSum, "ratio", len(certVals))
	setIf(rep, "witness.build_p50_us", witVals, "us")
	setIf(rep, "witness.nodes_p50", witNodes, "count")
	rep.set("witness.share", witSum/opSum, "ratio", len(witVals))
	if proverRuns > 0 {
		rep.set("prover.facts_per_call", facts/float64(proverRuns), "count", proverRuns)
		rep.set("prover.refuted_ratio", float64(refuted)/float64(proverRuns), "ratio", proverRuns)
	}
	if explains > 0 {
		rep.set("explain.checks_per_call", checks/float64(explains), "count", explains)
		rep.set("explain.cores_per_call", cores/float64(explains), "count", explains)
		rep.set("explain.subcheck_share", checkShare/float64(explains), "ratio", explains)
	}
	attributed := certSum + witSum
	for _, l := range walkLayers {
		attributed += layerSum[l]
	}
	rep.set("consistency.unattributed_share", 1-attributed/opSum, "ratio", len(samples))
	rep.set("trace.overhead_ratio", (walkSum+certSum+witSum)/opSum, "ratio", len(samples))
}

func setIf(rep *report, name string, vals []float64, unit string) {
	if len(vals) > 0 {
		rep.set(name, median(vals), unit, len(vals))
	}
}

// allocProfile runs the untraced operation over inputs for the budget
// and sets the runtime metrics from the MemStats deltas.
func allocProfile(rep *report, inputs []spec, f op, budget time.Duration) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ops := 0
	start := time.Now()
	for time.Since(start) < budget || ops == 0 {
		_, _, _, _ = f(inputs[ops%len(inputs)])
		ops++
	}
	runtime.ReadMemStats(&after)
	n := float64(ops)
	rep.set("runtime.allocs_per_op", float64(after.Mallocs-before.Mallocs)/n, "count", ops)
	rep.set("runtime.bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/n, "bytes", ops)
	rep.set("runtime.gc_per_1k_ops", float64(after.NumGC-before.NumGC)*1000/n, "count", ops)
}

// traceInputs runs the traced pass over inputs, cycling until the
// budget is spent, and returns the samples. Every operation's answer is
// checked against the known answers as in the timed run.
func traceInputs(rep *report, inputs []spec, explain bool, base xmlspec.Options, budget time.Duration) []*sample {
	var out []*sample
	start := time.Now()
	for i := 0; time.Since(start) < budget || i == 0; i++ {
		if i == len(inputs) {
			break
		}
		rep.attempted++
		smp, err := traceInput(inputs[i], explain, base)
		if err != nil {
			rep.fail(fmt.Errorf("%s: %w", inputs[i].name, err))
			continue
		}
		if smp.ans.verdict != consistency.Unknown {
			rep.decided++
		}
		if _, err := checkAnswer(inputs[i], smp.ans); err != nil {
			rep.fail(err)
			continue
		}
		out = append(out, smp)
	}
	return out
}

// traceCorpus is the traced corpus run.
func traceCorpus(cfg config) (*report, error) {
	gen, err := newCorpusGen(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	rep := newTraceReport()
	inputs := gen.batch(cfg.scaled(4000, 20))
	allocProfile(rep, inputs, corpusOp, cfg.duration()/4)
	summarize(rep, traceInputs(rep, inputs, false, xmlspec.Options{}, cfg.duration()*3/4))
	return rep, nil
}

// traceHard is the traced hard-families run.
func traceHard(cfg config) (*report, error) {
	rep := newTraceReport()
	inputs := hardInputs(timedListSeed)
	allocProfile(rep, inputs, hardOp, cfg.duration()/4)
	summarize(rep, traceInputs(rep, inputs, false, xmlspec.Options{Parallelism: runtime.NumCPU()}, cfg.duration()*3/4))
	return rep, nil
}

// traceExplain is the traced explain run.
func traceExplain(cfg config) (*report, error) {
	inputs, err := explainInputs(cfg.root, timedListSeed)
	if err != nil {
		return nil, err
	}
	rep := newTraceReport()
	allocProfile(rep, inputs, explainOp, cfg.duration()/4)
	summarize(rep, traceInputs(rep, inputs, true, xmlspec.Options{}, cfg.duration()*3/4))
	return rep, nil
}

// traceDaemon is the traced daemon run: a load phase whose server-side
// histograms are scraped from /metrics afterwards, then the in-process
// layer walk over the same request stream.
func traceDaemon(cfg config) (*report, error) {
	rep := newTraceReport()
	dr, err := driveDaemon(cfg, rep, cfg.duration()/2, true)
	if err != nil {
		return nil, err
	}
	delete(rep.metrics, "setup_s")
	exp, err := telemetry.ParseExposition(dr.metrics)
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	req, okR := expValue(exp, "server_request_us_p50")
	chk, okC := expValue(exp, "server_check_us_p50")
	if !okR || !okC {
		return nil, fmt.Errorf("/metrics lacks the server.request_us or server.check_us histogram")
	}
	rep.set("server.request_p50_us", req, "us", 1)
	rep.set("server.check_p50_us", chk, "us", 1)
	rep.set("server.outside_check_p50_us", req-chk, "us", 1)
	var overhead, reqBytes, respBytes []float64
	seen := map[string]bool{}
	var distinct []spec
	passed, _ := checkReplies(rep, dr)
	for _, r := range passed {
		overhead = append(overhead, us(r.latency)-float64(r.reply.ElapsedUS))
		reqBytes = append(reqBytes, float64(len(r.body)))
		respBytes = append(respBytes, float64(r.respBytes))
		if key := r.in.dtd + "\x00" + r.in.keys; !seen[key] {
			seen[key] = true
			distinct = append(distinct, r.in)
		}
	}
	setIf(rep, "client.overhead_p50_us", overhead, "us")
	setIf(rep, "server.request_bytes_p50", reqBytes, "bytes")
	setIf(rep, "server.response_bytes_p50", respBytes, "bytes")
	if len(distinct) == 0 {
		return nil, fmt.Errorf("no daemon request completed")
	}
	allocProfile(rep, distinct, corpusOp, cfg.duration()/8)
	summarize(rep, traceInputs(rep, distinct, false, xmlspec.Options{}, cfg.duration()*3/8))
	return rep, nil
}

// expValue finds a sample by the suffix of its exposition name (the
// registry prefixes its namespace).
func expValue(exp *telemetry.Exposition, suffix string) (float64, bool) {
	for _, s := range exp.Samples {
		if strings.HasSuffix(s.Name, suffix) {
			return s.Value, true
		}
	}
	return 0, false
}
