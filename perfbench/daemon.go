package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/certificate"
	"repro/internal/consistency"
)

const (
	// hotSet is the number of specs the daemon workload re-sends.
	hotSet = 16
	// repeatShare is the share of daemon requests that re-send one of
	// the hot specs; the rest are distinct corpus-shaped specs.
	repeatShare = 0.25
	// daemonSetupReps is how many daemon start-ups a run times.
	daemonSetupReps = 11
	// daemonWindow is the number of consecutive completions in one
	// throughput window.
	daemonWindow = 1000
)

// daemon is one running xmlconsistd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	out  *bufio.Reader
}

// startDaemon execs the daemon with default flags on a free loopback
// port and waits until /healthz answers 200. It returns the daemon and
// the time from exec to that first 200.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, out: bufio.NewReader(stdout)}
	line, err := d.out.ReadString('\n')
	const prefix = "xmlconsistd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.stop()
		return nil, 0, fmt.Errorf("daemon did not announce its address (read %q: %v)", line, err)
	}
	d.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	client := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("daemon /healthz not ready after 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	client.CloseIdleConnections()
	return d, time.Since(t0), nil
}

// stop sends SIGTERM, waits for the daemon to exit, and kills it if
// it has not exited after ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, d.out)
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// request is one daemon request and, after the run, its reply.
type request struct {
	in   spec
	body []byte
	hot  bool
	// Filled by the client; end is the completion time from the start
	// of the load.
	done      bool
	err       error
	latency   time.Duration
	end       time.Duration
	respBytes int
	reply     checkReply
}

// checkReply is the part of the /check response the benchmark reads.
type checkReply struct {
	Verdict     string                   `json:"verdict"`
	Witness     string                   `json:"witness"`
	Certificate *certificate.Certificate `json:"certificate"`
	ElapsedUS   int64                    `json:"elapsed_us"`
}

// daemonStream draws the request sequence: a hot set of corpus specs,
// then a stream in which each request re-sends a hot spec with
// probability repeatShare and otherwise the next distinct spec.
func daemonStream(root string, seed int64, n int) ([]request, error) {
	gen, err := newCorpusGen(root, seed)
	if err != nil {
		return nil, err
	}
	hot := gen.batch(hotSet)
	hotBodies := make([][]byte, len(hot))
	for i, s := range hot {
		if hotBodies[i], err = requestBody(s); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed + 1))
	reqs := make([]request, n)
	for i := range reqs {
		if rng.Float64() < repeatShare {
			h := rng.Intn(len(hot))
			reqs[i] = request{in: hot[h], body: hotBodies[h], hot: true}
			continue
		}
		s := gen.next()
		body, err := requestBody(s)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{in: s, body: body}
	}
	return reqs, nil
}

func requestBody(s spec) ([]byte, error) {
	return json.Marshal(map[string]string{"dtd": s.dtd, "constraints": s.keys})
}

// load drives the daemon with conns keep-alive connections in a closed
// loop over reqs until the budget is spent or the requests run out. It
// returns the length of the timed phase and how many requests were
// sent.
func load(base string, reqs []request, conns int, budget time.Duration) (time.Duration, int) {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				send(client, base, &reqs[i])
				reqs[i].end = time.Since(start)
			}
		}()
	}
	wg.Wait()
	sent := int(next.Load())
	if sent > len(reqs) {
		sent = len(reqs)
	}
	return time.Since(start), sent
}

// send posts one request and records its reply.
func send(client *http.Client, base string, r *request) {
	t0 := time.Now()
	resp, err := client.Post(base+"/check", "application/json", bytes.NewReader(r.body))
	if err != nil {
		r.err, r.done = err, true
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	r.respBytes, r.done = len(body), true
	if err != nil {
		r.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Errorf("%s: HTTP %d: %.200s", r.in.name, resp.StatusCode, body)
		return
	}
	if err := json.Unmarshal(body, &r.reply); err != nil {
		r.err = fmt.Errorf("%s: decode reply: %w", r.in.name, err)
	}
}

func parseVerdict(s string) consistency.Verdict {
	switch s {
	case "consistent":
		return consistency.Consistent
	case "inconsistent":
		return consistency.Inconsistent
	}
	return consistency.Unknown
}

// daemonRun is what one daemon load phase measured.
type daemonRun struct {
	reqs    []request
	timed   time.Duration
	sent    int
	rssMB   float64
	metrics string
}

// driveDaemon sets up the daemon workload, runs its load for the
// budget, and stops the daemon. It records set-up times in rep.
func driveDaemon(cfg config, rep *report, budget time.Duration, scrape bool) (*daemonRun, error) {
	if cfg.daemonBin == "" {
		return nil, fmt.Errorf("the daemon workload needs -daemon-bin")
	}
	var setups []float64
	for r := 0; r < daemonSetupReps; r++ {
		d, ready, err := startDaemon(cfg.daemonBin)
		if err != nil {
			return nil, err
		}
		d.stop()
		setups = append(setups, ready.Seconds())
	}
	rep.set("setup_s", median(setups), "s", len(setups))

	d, _, err := startDaemon(cfg.daemonBin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	conns := runtime.NumCPU()

	// The warm-up also sizes the request stream: enough requests for
	// twice the warm-up rate over the budget, so the timed phase does
	// not run dry.
	warm, err := daemonStream(cfg.root, warmSeed(cfg.seed), cfg.scaled(4000, 40))
	if err != nil {
		return nil, err
	}
	wt, wn := load(d.base, warm, conns, cfg.warmBudget())
	n := int(2*float64(wn)/wt.Seconds()*budget.Seconds()) + 100
	reqs, err := daemonStream(cfg.root, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	out := &daemonRun{reqs: reqs}
	out.timed, out.sent = load(d.base, reqs, conns, budget)
	if out.sent == len(reqs) {
		rep.note("daemon: the request stream ran out after %.3fs", out.timed.Seconds())
	}
	if out.rssMB, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	if scrape {
		resp, err := http.Get(d.base + "/metrics")
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		out.metrics = string(b)
	}
	rep.note("daemon: %d connections, closed loop, %d requests in %.3fs", conns, out.sent, out.timed.Seconds())
	return out, nil
}

// runDaemon is the daemon workload: the client's view of xmlconsistd
// under nproc keep-alive connections in a closed loop.
func runDaemon(cfg config) (*report, error) {
	rep := newReport()
	dr, err := driveDaemon(cfg, rep, cfg.duration(), false)
	if err != nil {
		return nil, err
	}
	passed, verifies := checkReplies(rep, dr)
	var lats []float64
	perSpec := map[string][]float64{}
	var ends []time.Duration
	for _, r := range passed {
		lats = append(lats, us(r.latency))
		ends = append(ends, r.end)
		key := r.in.dtd + "\x00" + r.in.keys
		perSpec[key] = append(perSpec[key], us(r.latency))
	}
	hot := 0
	for _, r := range dr.reqs[:dr.sent] {
		if r.done && r.hot {
			hot++
		}
	}
	var medians []float64
	for _, v := range perSpec {
		medians = append(medians, median(v))
	}
	share := float64(hot) / float64(rep.attempted)
	rep.note("daemon: repeat_share=%.4f (%d of %d requests re-sent one of %d hot specs)", share, hot, rep.attempted, hotSet)
	latencyMetrics(rep, lats, medians, windowRates(ends, daemonWindow), dr.timed)
	rep.set("verify_p50_us", median(verifies), "us", len(verifies))
	rep.set("peak_rss_mb", dr.rssMB, "MB", 1)
	return rep, nil
}

// checkReplies checks every reply of a load phase against the known
// answers: each sent request counts as attempted, and a transport
// error, a non-200 reply, an undecodable body or a reply that fails
// its checks counts as failed. It returns the requests that passed and
// the certificate verification time of each definitive verdict.
func checkReplies(rep *report, dr *daemonRun) ([]*request, []float64) {
	var passed []*request
	var verifies []float64
	brute := map[string]error{}
	for i := 0; i < dr.sent; i++ {
		r := &dr.reqs[i]
		if !r.done {
			continue
		}
		rep.attempted++
		if r.err != nil {
			rep.fail(r.err)
			continue
		}
		a := answer{verdict: parseVerdict(r.reply.Verdict), cert: r.reply.Certificate, witness: r.reply.Witness}
		if a.verdict != consistency.Unknown {
			rep.decided++
		}
		ver, err := checkReplyCached(r.in, a, brute)
		if err != nil {
			rep.fail(err)
			continue
		}
		if a.verdict != consistency.Unknown {
			verifies = append(verifies, us(ver))
		}
		passed = append(passed, r)
	}
	return passed, verifies
}

// windowRates splits completion times into windows of n consecutive
// completions and returns each full window's rate per second.
func windowRates(ends []time.Duration, n int) []float64 {
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	var rates []float64
	prev := time.Duration(0)
	for i := n - 1; i < len(ends); i += n {
		rates = append(rates, float64(n)/(ends[i]-prev).Seconds())
		prev = ends[i]
	}
	return rates
}

// checkReplyCached checks a daemon reply. Certificates and witnesses
// are checked on every reply; the bounded search behind an
// inconsistent random spec runs once per distinct spec, since for a
// hot spec it would only repeat.
func checkReplyCached(s spec, a answer, brute map[string]error) (time.Duration, error) {
	if a.verdict != consistency.Inconsistent || s.expect != consistency.Unknown {
		return checkAnswer(s, a)
	}
	known := s
	known.expect = consistency.Inconsistent
	t, err := checkAnswer(known, a)
	if err != nil {
		return t, err
	}
	key := s.dtd + "\x00" + s.keys
	berr, ok := brute[key]
	if !ok {
		berr = noSmallWitness(s)
		brute[key] = berr
	}
	return t, berr
}
