package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	xmlspec "repro"
	"repro/internal/certificate"
	"repro/internal/consistency"
	"repro/internal/constraint"
	"repro/internal/dtd"
)

const (
	// setupReps is the least number of set-ups a run times; setup_s is
	// their median.
	setupReps = 11
	// corpusSetupPool is the number of corpus inputs a set-up parses:
	// the first inputs of the stream, which the timed phase then runs.
	corpusSetupPool = 2000
	// corpusBatch is how many corpus inputs are drawn, timed, and then
	// checked at a time once the set-up pool is used up.
	corpusBatch = 1000
	// warmSalt derives the warm-up seed from the timed seed, so a warm
	// pass never sees a timed input.
	warmSalt = 0x5eed
)

func warmSeed(seed int64) int64 { return seed ^ warmSalt }

// op is one timed operation on one input: it returns the answer, the
// time the operation took, and the part of it spent verifying the
// certificate (corpus only; zero elsewhere).
type op func(s spec) (answer, time.Duration, time.Duration, error)

// corpusOp parses, checks with default options (certificate and
// witness on), and verifies the certificate, as a CI job checking one
// spec would.
func corpusOp(s spec) (answer, time.Duration, time.Duration, error) {
	t0 := time.Now()
	sp, err := xmlspec.Parse(s.dtd, s.keys)
	if err != nil {
		return answer{}, 0, 0, fmt.Errorf("%s: parse: %w", s.name, err)
	}
	res, err := sp.Consistent(nil)
	if err != nil {
		return answer{}, 0, 0, fmt.Errorf("%s: check: %w", s.name, err)
	}
	t1 := time.Now()
	if res.Certificate != nil {
		if err := sp.VerifyCertificate(res.Certificate); err != nil {
			return answer{}, 0, 0, fmt.Errorf("%s: certificate rejected: %w", s.name, err)
		}
	}
	t2 := time.Now()
	return resultAnswer(res), t2.Sub(t0), t2.Sub(t1), nil
}

// hardOp parses and checks with the scope worker pool sized to the
// machine.
func hardOp(s spec) (answer, time.Duration, time.Duration, error) {
	t0 := time.Now()
	sp, err := xmlspec.Parse(s.dtd, s.keys)
	if err != nil {
		return answer{}, 0, 0, fmt.Errorf("%s: parse: %w", s.name, err)
	}
	res, err := sp.Consistent(&xmlspec.Options{Parallelism: runtime.NumCPU()})
	if err != nil {
		return answer{}, 0, 0, fmt.Errorf("%s: check: %w", s.name, err)
	}
	return resultAnswer(res), time.Since(t0), 0, nil
}

// explainOp parses and explains with default options.
func explainOp(s spec) (answer, time.Duration, time.Duration, error) {
	t0 := time.Now()
	sp, err := xmlspec.Parse(s.dtd, s.keys)
	if err != nil {
		return answer{}, 0, 0, fmt.Errorf("%s: parse: %w", s.name, err)
	}
	ex, err := sp.Explain(nil)
	if err != nil {
		return answer{}, 0, 0, fmt.Errorf("%s: explain: %w", s.name, err)
	}
	return answer{
		verdict: ex.Verdict, cert: ex.Certificate, explained: true,
		core: ex.Core, derivation: ex.Derivation,
	}, time.Since(t0), 0, nil
}

func resultAnswer(res xmlspec.Result) answer {
	return answer{verdict: consistency.Verdict(res.Verdict), cert: res.Certificate, witness: res.Witness}
}

// setupOnce times one set-up — parsing and validating every given
// input — and appends it, in seconds, to times. The workloads
// interleave set-ups with their timed rounds or batches, outside the
// clock, so the median spans the run instead of one burst at its start.
func setupOnce(inputs []spec, times *[]float64) error {
	t0 := time.Now()
	for _, s := range inputs {
		if _, err := xmlspec.Parse(s.dtd, s.keys); err != nil {
			return fmt.Errorf("set-up: %s: %w", s.name, err)
		}
	}
	*times = append(*times, time.Since(t0).Seconds())
	return nil
}

// setupMetric pads the interleaved set-ups to setupReps and reports
// their median.
func setupMetric(rep *report, inputs []spec, times []float64) error {
	for len(times) < setupReps {
		if err := setupOnce(inputs, &times); err != nil {
			return err
		}
	}
	rep.set("setup_s", median(times), "s", len(times))
	return nil
}

// warmUp runs the operation over warm-up inputs until they are used up
// or the budget is spent. Its answers are discarded.
func warmUp(inputs []spec, f op, budget time.Duration) {
	start := time.Now()
	for _, s := range inputs {
		if time.Since(start) >= budget {
			return
		}
		_, _, _, _ = f(s)
	}
}

func (c config) warmBudget() time.Duration {
	b := c.duration() / 5
	if b > 2*time.Second {
		b = 2 * time.Second
	}
	return b
}

func selfPeakRSS(rep *report) error {
	mb, err := peakRSSMB(strconv.Itoa(os.Getpid()))
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", mb, "MB", 1)
	return nil
}

// runCorpus is the corpus workload: one caller, a closed loop over a
// stream of distinct small specs, each parsed, checked and its
// certificate verified. Inputs are timed in batches; each batch's
// answers are checked after its timed window, outside the clock.
func runCorpus(cfg config) (*report, error) {
	gen, err := newCorpusGen(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	warm, err := newCorpusGen(cfg.root, warmSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	rep := newReport()
	pool := gen.batch(cfg.scaled(corpusSetupPool, 20))
	var setups []float64
	if err := setupOnce(pool, &setups); err != nil {
		return nil, err
	}
	warmUp(warm.batch(cfg.scaled(corpusBatch, 20)), corpusOp, cfg.warmBudget())

	var lats, verifies, rates []float64
	var timed time.Duration
	inputs := pool
	for timed < cfg.duration() {
		if len(inputs) == 0 {
			inputs = gen.batch(cfg.scaled(corpusBatch, 20))
		}
		answers := make([]answer, 0, len(inputs))
		runtime.GC()
		start := time.Now()
		full := true
		for _, s := range inputs {
			if timed+time.Since(start) >= cfg.duration() {
				full = false
				break
			}
			a, lat, ver, err := corpusOp(s)
			rep.attempted++
			if err != nil {
				rep.fail(err)
				answers = append(answers, answer{verdict: consistency.Unknown})
				continue
			}
			lats = append(lats, us(lat))
			if a.verdict != consistency.Unknown {
				verifies = append(verifies, us(ver))
			}
			answers = append(answers, a)
		}
		batch := time.Since(start)
		timed += batch
		if full {
			rates = append(rates, float64(len(answers))/batch.Seconds())
		}
		for i, a := range answers {
			if a.verdict != consistency.Unknown {
				rep.decided++
			}
			if _, err := checkAnswer(inputs[i], a); err != nil {
				rep.fail(err)
			}
		}
		inputs = nil
		if err := setupOnce(pool, &setups); err != nil {
			return nil, err
		}
	}
	if err := setupMetric(rep, pool, setups); err != nil {
		return nil, err
	}
	rep.note("corpus: %d distinct inputs timed in %.3fs; set-up parses the first %d", len(lats), timed.Seconds(), len(pool))
	latencyMetrics(rep, lats, lats, rates, timed)
	rep.set("verify_p50_us", median(verifies), "us", len(verifies))
	return rep, selfPeakRSS(rep)
}

// latencyMetrics sets the throughput, the latency percentiles from the
// per-operation latencies, and the geometric mean from per-instance
// medians. Throughput is the median of the completion rates of the
// timed phase's windows (batches, rounds or seconds), so a burst of
// interference on the machine moves a window, not the figure; with no
// complete window it is the whole phase's rate.
func latencyMetrics(rep *report, lats, instanceMedians, rates []float64, timed time.Duration) {
	if len(rates) > 0 {
		rep.set("throughput_per_s", median(rates), "1/s", len(rates))
	} else {
		rep.set("throughput_per_s", float64(len(lats))/timed.Seconds(), "1/s", 1)
	}
	rep.set("latency_p50_us", median(lats), "us", len(lats))
	rep.set("latency_p90_us", quantile(lats, 0.9), "us", len(lats))
	rep.note("latency_p90_us rests on %d samples beyond it", tailCount(lats, 0.9))
	rep.set("latency_geomean_us", geomean(instanceMedians), "us", len(instanceMedians))
}

// runRounds is the closed loop of the hard-families and explain
// workloads: rounds over a fixed list of distinct instances, each
// instance once per round in an order drawn from the seed, so every
// instance gets a median time. Each answer's certificate is verified
// right after its operation, outside the operation's time; the timed
// phase is the sum of the operations' times.
func runRounds(cfg config, inputs, warm []spec, f op) (*report, error) {
	order := rand.New(rand.NewSource(cfg.seed))
	rep := newReport()
	type parsed struct {
		d   *dtd.DTD
		set *constraint.Set
	}
	specs := make([]parsed, len(inputs))
	for i, s := range inputs {
		d, set, err := parseInternal(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		specs[i] = parsed{d, set}
	}
	var setups []float64
	if err := setupOnce(inputs, &setups); err != nil {
		return nil, err
	}
	warmUp(warm, f, cfg.warmBudget())

	per := make([][]float64, len(inputs))
	vers := make([][]float64, len(inputs))
	last := make([]answer, len(inputs))
	bad := make([]bool, len(inputs))
	var lats, rates []float64
	var timed time.Duration
	rounds := 0
	for timed < cfg.duration() {
		var roundOps int
		var roundTime time.Duration
		full := true
		for _, i := range order.Perm(len(inputs)) {
			if timed >= cfg.duration() {
				full = false
				break
			}
			s := inputs[i]
			// Each operation starts from a collected heap, so neither its
			// time nor the peak resident set depends on the garbage the
			// instances before it in this round's order left behind.
			runtime.GC()
			a, lat, _, err := f(s)
			rep.attempted++
			if err != nil {
				rep.fail(err)
				bad[i] = true
				continue
			}
			timed += lat
			roundOps++
			roundTime += lat
			if rounds > 0 && a.verdict != last[i].verdict {
				rep.fail(fmt.Errorf("%s: verdict changed from %v to %v between rounds", s.name, last[i].verdict, a.verdict))
			}
			if a.verdict != consistency.Unknown {
				rep.decided++
			}
			last[i] = a
			per[i] = append(per[i], us(lat))
			lats = append(lats, us(lat))
			if a.cert != nil {
				t0 := time.Now()
				if err := certificate.Verify(specs[i].d, specs[i].set, a.cert); err != nil {
					rep.fail(fmt.Errorf("%s: certificate rejected: %w", s.name, err))
					bad[i] = true
					continue
				}
				vers[i] = append(vers[i], us(time.Since(t0)))
			}
		}
		if full && roundTime > 0 {
			rates = append(rates, float64(roundOps)/roundTime.Seconds())
		}
		rounds++
		if err := setupOnce(inputs, &setups); err != nil {
			return nil, err
		}
	}
	if err := setupMetric(rep, inputs, setups); err != nil {
		return nil, err
	}
	var medians, verifies []float64
	for i, s := range inputs {
		if len(per[i]) == 0 || bad[i] {
			continue
		}
		medians = append(medians, median(per[i]))
		if _, err := checkAnswer(s, last[i]); err != nil {
			// Every timed operation on the instance returned this
			// verdict, so all of them count as failed.
			rep.fail(err)
			rep.failed += len(per[i]) - 1
			continue
		}
		if len(vers[i]) > 0 {
			verifies = append(verifies, median(vers[i]))
		}
	}
	rep.note("%d distinct instances, %d rounds in seeded order, %d operations in %.3fs; each instance repeats once per round",
		len(inputs), rounds, len(lats), timed.Seconds())
	latencyMetrics(rep, lats, medians, rates, timed)
	rep.set("verify_p50_us", median(verifies), "us", len(verifies))
	return rep, selfPeakRSS(rep)
}

// runHard is the hard-families workload.
func runHard(cfg config) (*report, error) {
	return runRounds(cfg, hardInputs(timedListSeed), renamedAll(hardInputs(warmListSeed)), hardOp)
}

// runExplain is the explain workload.
func runExplain(cfg config) (*report, error) {
	inputs, err := explainInputs(cfg.root, timedListSeed)
	if err != nil {
		return nil, err
	}
	warm, err := explainInputs(cfg.root, warmListSeed)
	if err != nil {
		return nil, err
	}
	return runRounds(cfg, inputs, renamedAll(warm), explainOp)
}
