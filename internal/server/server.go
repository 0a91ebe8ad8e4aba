// Package server exposes the consistency checker over HTTP with live
// telemetry, using only the standard library. Endpoints:
//
//	POST /check         specification in, verdict + certificate + stats out
//	POST /explain       same request shape; verdict + minimal unsat core +
//	                    rule derivation + repair hints out
//	GET  /metrics       Prometheus text exposition of the process registry
//	GET  /healthz       liveness probe
//	GET  /debug/status  human-readable status page (HTML)
//	GET  /debug/checks  the status page's data as JSON
//	GET  /debug/inflight live solver progress of running checks (JSON)
//	GET  /debug/pprof   optional runtime profiles (Config.Pprof)
//
// Every request runs under middleware that assigns a request ID,
// writes a structured log line, recovers panics into 500s, and feeds
// the latency histograms. Checks execute synchronously on the request
// goroutine with a deadline-bounded context threaded into the decision
// procedures, so a client disconnect or timeout aborts the worst-case
// exponential search promptly and leaks no goroutines.
//
// Every request also runs under W3C trace context: the middleware
// parses an inbound traceparent header (or starts a fresh trace),
// echoes it on the response, and the trace ID flows into the span
// tree, the audit event, the latency-histogram exemplars, and the
// response bodies, so one identifier joins every artifact a request
// leaves behind.
//
// /check and /explain run through one request pipeline (serveSpec);
// each op adds only a small core that runs its decision procedure and
// builds its response body. Beyond counters, every completed check
// leaves its audit event — the one per-check record (request ID, trace
// ID, spec digest, verdict, phases) — in the audit log, whose ring
// backs the status page's recent checks; an observation in the
// rolling 1m/5m/1h windows that drive the rate/latency/burn-rate
// gauges; and the same event in the flight recorder, which, on a
// trigger (slow threshold, 5xx/panic, abort, sampled inconsistent
// verdict), dumps a rate-limited correlated bundle into
// Config.QuarantineDir so anomalous checks can be replayed offline.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	xmlspec "repro"
	"repro/internal/audit"
	"repro/internal/certificate"
	"repro/internal/flight"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/prover"
	"repro/internal/telemetry"
)

// Config parameterizes a Server. The zero value serves with no
// deadline, no in-flight cap, no trace directory, and a default
// logger.
type Config struct {
	// Registry receives per-request measurements; NewServer creates
	// one when nil.
	Registry *telemetry.Registry
	// Deadline bounds each check (zero: requests run until the client
	// gives up). Per-request deadline_ms values are clamped to it.
	Deadline time.Duration
	// MaxInflight caps concurrently running checks; excess requests
	// are rejected with 429 (zero: unlimited).
	MaxInflight int
	// TraceDir, when set, stores a Chrome trace-event file per check
	// request (check-<request-id>.json), loadable in Perfetto.
	TraceDir string
	// Logger receives one structured line per request (nil: slog
	// text handler on stderr).
	Logger *slog.Logger
	// Pprof mounts net/http/pprof under /debug/pprof.
	Pprof bool
	// MaxRequestBytes bounds the /check request body (zero: 8 MiB).
	MaxRequestBytes int64
	// Parallelism is the default scope worker pool size for
	// hierarchical checks (0/1: sequential; negative: one worker per
	// CPU). A request's options.parallelism overrides it. Verdicts
	// are identical at any setting; only wall time changes.
	Parallelism int
	// Audit receives one event per check. When nil, NewServer creates
	// an in-memory log (ring and hot-digest table only, no file) so the
	// status page always has data; the caller owns a file-backed log's
	// lifecycle, including Close.
	Audit *audit.Log
	// SlowThreshold marks checks slower than it as slow: they bump the
	// slow counter and trip the flight recorder's slow trigger (zero:
	// no slow trigger).
	SlowThreshold time.Duration
	// QuarantineDir is where flight bundles land, as a
	// <trigger>-<trace-id>.json correlated bundle plus a matching
	// .spec dump. Empty disables dumping (triggers are still counted).
	QuarantineDir string
	// SlowCaptureInterval rate-limits flight dumps across all
	// triggers: at most one bundle per interval (zero: one per
	// minute).
	SlowCaptureInterval time.Duration
	// FlightSampleInconsistent dumps every Nth inconsistent verdict as
	// a flight bundle (zero: off).
	FlightSampleInconsistent int
	// FlightMaxBundleBytes caps each flight bundle's .json size (zero:
	// 4 MiB).
	FlightMaxBundleBytes int64
	// SLOTarget is the latency target of the serving SLO; checks
	// slower than it burn error budget. Zero disables the SLO gauges.
	SLOTarget time.Duration
	// SLOObjective is the fraction of checks that must finish under
	// SLOTarget without failing (zero: 0.99).
	SLOObjective float64
}

// Server handles the HTTP surface. Create with NewServer.
type Server struct {
	cfg      Config
	reg      *telemetry.Registry
	log      *slog.Logger
	audit    *audit.Log
	rolling  *telemetry.Rolling
	start    time.Time
	inflight atomic.Int64
	reqSeq   atomic.Uint64

	// running holds the calls in flight, for the status page's
	// in-flight table.
	runningMu sync.Mutex
	running   map[string]*specCall

	// flight is the anomaly flight recorder: the trigger-driven
	// quarantine dumper.
	flight *flight.Recorder
}

// NewServer validates the config and builds a server.
func NewServer(cfg Config) *Server {
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry("")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 8 << 20
	}
	if cfg.Audit == nil {
		// Cannot fail: an empty path opens no file.
		cfg.Audit, _ = audit.New(audit.Options{})
	}
	if cfg.SLOObjective == 0 {
		cfg.SLOObjective = 0.99
	}
	if cfg.SlowCaptureInterval == 0 {
		cfg.SlowCaptureInterval = time.Minute
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		log:     cfg.Logger,
		audit:   cfg.Audit,
		rolling: telemetry.NewRolling(cfg.SLOTarget.Microseconds()),
		start:   time.Now(),
		running: map[string]*specCall{},
		flight: flight.New(flight.Options{
			Dir:                cfg.QuarantineDir,
			SlowThreshold:      cfg.SlowThreshold,
			Interval:           cfg.SlowCaptureInterval,
			SampleInconsistent: cfg.FlightSampleInconsistent,
			MaxBundleBytes:     cfg.FlightMaxBundleBytes,
			Logger:             cfg.Logger,
		}),
	}
	s.reg.RegisterGauge("server_inflight_checks",
		"Checks currently executing.",
		func() float64 { return float64(s.inflight.Load()) })
	s.reg.RegisterGauge("server_audit_events",
		"Audit events recorded since start.",
		func() float64 { return float64(s.audit.Events()) })
	s.reg.RegisterGauge("server_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.start).Seconds() })
	telemetry.RegisterRolling(s.reg, s.rolling)
	if cfg.SLOTarget > 0 {
		telemetry.RegisterSLO(s.reg, s.rolling, cfg.SLOTarget, cfg.SLOObjective)
	}
	s.reg.Help("server.requests", "HTTP requests served, any endpoint.")
	s.reg.Help("server.checks", "Consistency checks completed with a verdict.")
	s.reg.Help("server.explains", "Explanations (/explain) completed with a verdict.")
	s.reg.Help("server.explain_us", "Explanation latency in microseconds (check + core minimization).")
	s.reg.Help("server.panics", "Handler panics recovered into 500 responses.")
	s.reg.Help("server.request_us", "End-to-end HTTP request latency in microseconds.")
	s.reg.Help("server.check_us", "Consistency-check latency in microseconds (verdict-bearing requests).")
	s.reg.Help("server.slow_captures", "Flight bundles dumped to the quarantine directory (trace+spec pairs, any trigger).")
	s.reg.Help("server.slow_checks", "Checks that exceeded the slow threshold (captured or not).")
	s.reg.RegisterGauge("server_flight_triggered",
		"Requests that tripped a flight-recorder trigger.",
		func() float64 { t, _, _ := s.flight.Stats(); return float64(t) })
	s.reg.RegisterGauge("server_flight_suppressed",
		"Flight dumps suppressed by the shared rate limiter.",
		func() float64 { _, _, sup := s.flight.Stats(); return float64(sup) })
	return s
}

// Handler returns the full route table wrapped in the request
// middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /check", func(w http.ResponseWriter, r *http.Request) {
		s.serveSpec(w, r, "check", s.check)
	})
	mux.HandleFunc("POST /explain", func(w http.ResponseWriter, r *http.Request) {
		s.serveSpec(w, r, "explain", s.explain)
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/status", s.handleStatus)
	mux.HandleFunc("GET /debug/checks", s.handleChecks)
	mux.HandleFunc("GET /debug/inflight", s.handleInflight)
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.middleware(mux)
}

// CheckRequest is the /check request body.
type CheckRequest struct {
	// DTD is the specification's DTD in surface syntax.
	DTD string `json:"dtd"`
	// Constraints is the constraint set, one constraint per line.
	Constraints string `json:"constraints"`
	// DeadlineMS optionally tightens this request's deadline in
	// milliseconds; it never loosens the server-wide one.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Options tunes the decision procedures.
	Options CheckOptions `json:"options,omitempty"`
}

// CheckOptions is the JSON projection of xmlspec.Options.
type CheckOptions struct {
	MaxSolverNodes  int   `json:"max_solver_nodes,omitempty"`
	MaxValue        int64 `json:"max_value,omitempty"`
	SkipWitness     bool  `json:"skip_witness,omitempty"`
	MinimizeWitness bool  `json:"minimize_witness,omitempty"`
	SkipLint        bool  `json:"skip_lint,omitempty"`
	SkipCertificate bool  `json:"skip_certificate,omitempty"`
	// Parallelism sets the scope worker pool size for hierarchical
	// checks (0: the server default; 1: sequential; negative: one
	// worker per CPU). Verdicts are identical at any setting.
	Parallelism int `json:"parallelism,omitempty"`
	// Attribution asks for the per-scope cost ledger in the response.
	// The server always runs the (time-only) ledger for its audit
	// trail; this flag only controls response inclusion.
	Attribution bool `json:"attribution,omitempty"`
}

// CheckResponse is the /check response body on success.
type CheckResponse struct {
	RequestID string `json:"request_id"`
	// TraceID is the W3C trace ID this request ran under (also echoed
	// in the traceparent response header): the join key for audit
	// events, metric exemplars, and flight bundles.
	TraceID string `json:"trace_id,omitempty"`
	// SpecDigest is the canonical digest of the checked specification
	// (internal/digest) — the key joining this response to audit
	// events, traces, journal entries, and the status page.
	SpecDigest  string                   `json:"spec_digest"`
	Verdict     string                   `json:"verdict"`
	Class       string                   `json:"class,omitempty"`
	Method      string                   `json:"method,omitempty"`
	Witness     string                   `json:"witness,omitempty"`
	Diagnosis   string                   `json:"diagnosis,omitempty"`
	Certificate *certificate.Certificate `json:"certificate,omitempty"`
	Stats       xmlspec.Stats            `json:"stats"`
	// Attribution is the per-scope cost ledger (certificate's sibling
	// report), present when the request set options.attribution.
	Attribution []xmlspec.ScopeCost `json:"attribution,omitempty"`
	ElapsedUS   int64               `json:"elapsed_us"`
}

// ExplainResponse is the /explain response body on success. The request
// shape is CheckRequest — /explain accepts exactly what /check accepts —
// and the core, derivation and hint fields mirror xmlspec.Explanation,
// with constraint references as Σ indices in the prover's canonical
// order (keys first, then inclusions).
type ExplainResponse struct {
	RequestID  string `json:"request_id"`
	TraceID    string `json:"trace_id,omitempty"`
	SpecDigest string `json:"spec_digest"`
	Verdict    string `json:"verdict"`
	Method     string `json:"method,omitempty"`
	// Core lists the Σ indices of a minimal conflicting subset;
	// CoreConstraints renders them, parallel to Core.
	Core            []int    `json:"core,omitempty"`
	CoreConstraints []string `json:"core_constraints,omitempty"`
	// Derivation is the prover's replayable rule derivation of the
	// contradiction, when the sound rule set reaches it.
	Derivation []prover.Step `json:"derivation,omitempty"`
	// Hints ranks drop/weaken repair candidates by cross-core membership.
	Hints []xmlspec.RepairHint `json:"hints,omitempty"`
	// Cores and Checks describe the minimization effort: distinct unsat
	// cores enumerated, and consistency sub-decisions performed.
	Cores       int                      `json:"cores"`
	Checks      int                      `json:"checks"`
	Certificate *certificate.Certificate `json:"certificate,omitempty"`
	ElapsedUS   int64                    `json:"elapsed_us"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	RequestID string `json:"request_id"`
	TraceID   string `json:"trace_id,omitempty"`
	Error     string `json:"error"`
	// Kind distinguishes machine-readable failure classes:
	// "parse", "overload", "deadline", "canceled", "internal".
	Kind string `json:"kind"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"inflight\":%d}\n", s.inflight.Load())
}

// handleMetrics serves the registry under content negotiation: the
// OpenMetrics exposition (with trace-ID exemplars on the histogram
// buckets) when the scraper asks for it, the Prometheus text format
// otherwise.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	contentType, openMetrics := telemetry.NegotiateExposition(r.Header.Get("Accept"))
	w.Header().Set("Content-Type", contentType)
	var err error
	if openMetrics {
		err = s.reg.WriteOpenMetrics(w)
	} else {
		err = s.reg.WritePrometheus(w)
	}
	if err != nil {
		s.log.Error("metrics write failed", "err", err)
	}
}

// admit applies the in-flight cap, answering 429 itself when the server
// is at capacity. The caller must pair a successful admit with the
// deferred decrement.
func (s *Server) admit(w http.ResponseWriter, id, tid string) bool {
	if max := s.cfg.MaxInflight; max > 0 && s.inflight.Load() >= int64(max) {
		s.reg.Add("server.rejects.overload", 1)
		s.writeError(w, id, tid, http.StatusTooManyRequests, "overload",
			fmt.Sprintf("at capacity (%d checks in flight)", max))
		return false
	}
	s.inflight.Add(1)
	return true
}

// readSpecRequest reads and decodes the request shape /check and
// /explain share, and parses the specification. On failure it answers
// the request itself with kind "parse", counts it, and reports
// ok=false.
func (s *Server) readSpecRequest(w http.ResponseWriter, r *http.Request, id, tid string) (CheckRequest, *xmlspec.Spec, bool) {
	fail := func(status int, msg string) (CheckRequest, *xmlspec.Spec, bool) {
		s.reg.Add("server.errors.parse", 1)
		s.writeError(w, id, tid, status, "parse", msg)
		return CheckRequest{}, nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxRequestBytes+1))
	if err != nil {
		return fail(http.StatusBadRequest, "reading body: "+err.Error())
	}
	if int64(len(body)) > s.cfg.MaxRequestBytes {
		return fail(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
	}
	var req CheckRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fail(http.StatusBadRequest, "decoding request: "+err.Error())
	}
	spec, err := xmlspec.Parse(req.DTD, req.Constraints)
	if err != nil {
		return fail(http.StatusBadRequest, err.Error())
	}
	return req, spec, true
}

// specCall is one /check or /explain request in the pipeline. Its
// audit event is the single per-check record: the running table shows
// its identity, the op core fills in the outcome, and the audit log
// and the flight recorder receive it when the request ends.
type specCall struct {
	ev audit.Event
	// start is when the decision procedure began; elapsed is its wall
	// time, stamped by decided. The pipeline copies it into
	// ev.ElapsedUS and the root span.
	start   time.Time
	elapsed time.Duration
	// pub receives the solver's sampled progress snapshots, so
	// /debug/inflight can show where a long check is without ever
	// blocking the search.
	pub *introspect.Publisher

	req  CheckRequest
	spec *xmlspec.Spec
	opts *xmlspec.Options
	rec  *obs.Recorder
	root *obs.Span
}

// decided stamps the decision procedure's wall time on the call and
// returns it in microseconds for the op's latency histogram.
func (c *specCall) decided() int64 {
	c.elapsed = time.Since(c.start)
	return c.elapsed.Microseconds()
}

// opCore is what one endpoint adds to the pipeline: it runs the
// decision procedure on c under ctx, calls c.decided as soon as that
// returns (before recording the op's own counter and latency
// histogram), fills the verdict fields of c.ev, and returns the
// response body. A core that never calls decided is timed by the
// pipeline when it returns.
type opCore func(ctx context.Context, c *specCall) (any, error)

// serveSpec is the one request pipeline behind /check and /explain:
// admission, decode and parse, spec digest, the running-table entry,
// the deadline context, the recorder and root span (server.<op>), the
// server-default options, then the op core, abort classification, the
// audit event, the flight observation and the response.
func (s *Server) serveSpec(w http.ResponseWriter, r *http.Request, op string, core opCore) {
	id := requestID(r.Context())
	tid := traceID(r.Context())

	if !s.admit(w, id, tid) {
		return
	}
	defer s.inflight.Add(-1)

	req, spec, ok := s.readSpecRequest(w, r, id, tid)
	if !ok {
		return
	}
	dig := spec.Digest()
	ctx, cancel := s.checkContext(r.Context(), req.DeadlineMS)
	defer cancel()
	c := &specCall{
		ev:   audit.Event{RequestID: id, TraceID: tid, SpecDigest: dig},
		pub:  introspect.NewPublisher(),
		req:  req,
		spec: spec,
		opts: req.Options.internal(),
		// Per-request recorder: the span tree becomes this request's
		// trace file, the counters and histograms aggregate into the
		// registry.
		rec: obs.New(),
	}
	if op != "check" {
		c.ev.Op = op
	}
	c.rec.SetTraceID(tid)
	c.root = c.rec.Start("server." + op)
	c.root.SetString("request_id", id)
	c.root.SetString("trace_id", tid)
	c.root.SetString("spec_digest", dig)
	spec.SetObserver(c.rec)
	if c.opts.Parallelism == 0 {
		c.opts.Parallelism = s.cfg.Parallelism
	}
	c.opts.Progress = c.pub
	c.opts.ProfileLabel = dig

	c.start = time.Now()
	s.runningMu.Lock()
	s.running[id] = c
	s.runningMu.Unlock()
	defer func() {
		s.runningMu.Lock()
		delete(s.running, id)
		s.runningMu.Unlock()
	}()
	body, err := core(ctx, c)
	if c.elapsed == 0 {
		c.decided()
	}
	c.ev.ElapsedUS = c.elapsed.Microseconds()
	c.root.SetInt("elapsed_us", c.ev.ElapsedUS)

	if err == nil {
		c.rec.Add("server.verdict."+c.ev.Verdict, 1)
	}
	c.root.End()
	s.reg.Absorb(c.rec)
	s.writeTraceFile(id, c.rec)
	s.rolling.Observe(c.ev.ElapsedUS, err != nil)
	c.ev.Phases = auditPhases(c.rec)

	var msg string
	if err != nil {
		msg = s.classifyAbort(&c.ev, op, err, c.elapsed)
	} else {
		c.ev.Status = http.StatusOK
	}
	s.audit.Record(c.ev)
	s.observeFlight(c)
	if err != nil {
		s.writeError(w, id, tid, c.ev.Status, c.ev.Abort, msg)
		return
	}
	s.writeJSON(w, http.StatusOK, body)
}

// check is the /check core.
func (s *Server) check(ctx context.Context, c *specCall) (any, error) {
	// The time-only ledger always runs: its rows feed the audit trail
	// even when the client did not ask for them in the response.
	// Allocation tracking stays off — ReadMemStats is too heavy for a
	// serving hot path.
	c.opts.Attribution = true
	res, err := c.spec.CheckContext(ctx, c.opts)
	us := c.decided()
	c.rec.Observe("server.check_us", us)
	c.rec.Add("server.checks", 1)
	s.reg.Exemplar("server.check_us", us, c.ev.TraceID)
	if err != nil {
		return nil, err
	}
	c.ev.Verdict = res.Verdict.String()
	c.ev.CertificateKind = res.Certificate.Kind()
	c.ev.ScopeCosts = auditScopeCosts(res.Attribution)
	resp := CheckResponse{
		RequestID:   c.ev.RequestID,
		TraceID:     c.ev.TraceID,
		SpecDigest:  c.ev.SpecDigest,
		Verdict:     c.ev.Verdict,
		Class:       res.Class,
		Method:      res.Method,
		Witness:     res.Witness,
		Diagnosis:   res.Diagnosis,
		Certificate: res.Certificate,
		Stats:       res.Stats,
		ElapsedUS:   us,
	}
	if c.req.Options.Attribution {
		resp.Attribution = res.Attribution
	}
	return resp, nil
}

// explain is the /explain core: check, then deletion-based core
// minimization with derivation extraction and repair-hint ranking.
// Explanation re-decides many constraint subsets, so it keeps its own
// latency histogram, counters, and audit op.
func (s *Server) explain(ctx context.Context, c *specCall) (any, error) {
	ex, err := c.spec.ExplainContext(ctx, c.opts)
	us := c.decided()
	c.rec.Observe("server.explain_us", us)
	c.rec.Add("server.explains", 1)
	s.reg.Exemplar("server.explain_us", us, c.ev.TraceID)
	if err != nil {
		return nil, err
	}
	c.ev.Verdict = ex.Verdict.String()
	c.ev.CertificateKind = ex.Certificate.Kind()
	return ExplainResponse{
		RequestID:       c.ev.RequestID,
		TraceID:         c.ev.TraceID,
		SpecDigest:      c.ev.SpecDigest,
		Verdict:         c.ev.Verdict,
		Method:          ex.Method,
		Core:            ex.Core,
		CoreConstraints: ex.CoreConstraints,
		Derivation:      ex.Derivation,
		Hints:           ex.Hints,
		Cores:           ex.Cores,
		Checks:          ex.Checks,
		Certificate:     ex.Certificate,
		ElapsedUS:       us,
	}, nil
}

// classifyAbort records why an op's decision procedure failed: it
// counts the cause, stamps the abort cause and HTTP status on the
// event, and returns the error message for the response.
func (s *Server) classifyAbort(ev *audit.Event, op string, err error, elapsed time.Duration) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Add("server.aborts.deadline", 1)
		ev.Abort, ev.Status = "deadline", http.StatusGatewayTimeout
		return op + " aborted: deadline exceeded after " + elapsed.String()
	case errors.Is(err, context.Canceled):
		s.reg.Add("server.aborts.canceled", 1)
		// The client is usually gone; the status code is best-effort.
		ev.Abort, ev.Status = "canceled", 499
		return op + " aborted: request canceled"
	default:
		s.reg.Add("server.errors.internal", 1)
		ev.Abort, ev.Status = "internal", http.StatusInternalServerError
		return err.Error()
	}
}

// auditScopeCosts caps the attribution rows stamped into an audit
// event. The ledger sorts rows by descending elapsed time, so the cap
// keeps the most expensive scopes and a pathological spec cannot
// bloat the log line.
func auditScopeCosts(rows []introspect.ScopeCost) []introspect.ScopeCost {
	const maxRows = 32
	if len(rows) > maxRows {
		rows = rows[:maxRows:maxRows]
	}
	return rows
}

// auditPhases flattens the request's span tree into audit phases,
// capped so a pathological trace cannot bloat the log line.
func auditPhases(rec *obs.Recorder) []audit.Phase {
	spans := rec.Spans()
	const maxPhases = 48
	if len(spans) > maxPhases {
		spans = spans[:maxPhases]
	}
	phases := make([]audit.Phase, len(spans))
	for i, sp := range spans {
		phases[i] = audit.Phase{Path: sp.Path, DurationUS: sp.DurationUS}
	}
	return phases
}

// observeFlight hands a finished request to the flight recorder — the
// single capture path for slow, errored, aborted, and sampled
// inconsistent checks — and keeps the slow-check accounting. The
// recorder's shared rate limiter and <trigger>-<trace_id> naming
// guarantee a request is captured at most once, whatever combination
// of triggers it trips. Capture failures are logged by the recorder,
// never surfaced: capture must not fail a check that finished.
func (s *Server) observeFlight(c *specCall) {
	ev := &c.ev
	if s.cfg.SlowThreshold > 0 && c.elapsed >= s.cfg.SlowThreshold {
		s.reg.Add("server.slow_checks", 1)
		s.log.Warn("slow check",
			"request_id", ev.RequestID, "trace_id", ev.TraceID, "spec_digest", ev.SpecDigest,
			"elapsed", c.elapsed, "threshold", s.cfg.SlowThreshold)
	}
	file := s.flight.Observe(*ev, flight.Capture{
		DTD:         c.req.DTD,
		Constraints: c.req.Constraints,
		Rec:         c.rec,
		Progress:    c.pub,
	})
	if file != "" {
		s.reg.Add("server.slow_captures", 1)
		s.log.Warn("flight bundle dumped",
			"request_id", ev.RequestID, "trace_id", ev.TraceID, "bundle", file)
	}
}

// checkContext derives the context a check runs under: the request
// context (canceled on client disconnect) bounded by the tighter of
// the server-wide and per-request deadlines.
func (s *Server) checkContext(ctx context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Deadline
	if deadlineMS > 0 {
		if reqD := time.Duration(deadlineMS) * time.Millisecond; d == 0 || reqD < d {
			d = reqD
		}
	}
	if d <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, d)
}

// internal converts the JSON options to facade options. The pipeline
// attaches the progress publisher afterwards, and the /check core
// forces the attribution ledger on.
func (o CheckOptions) internal() *xmlspec.Options {
	return &xmlspec.Options{
		MaxSolverNodes:  o.MaxSolverNodes,
		MaxValue:        o.MaxValue,
		SkipWitness:     o.SkipWitness,
		MinimizeWitness: o.MinimizeWitness,
		SkipLint:        o.SkipLint,
		SkipCertificate: o.SkipCertificate,
		Parallelism:     o.Parallelism,
		Attribution:     o.Attribution,
	}
}

// writeTraceFile stores the request's span tree as a Chrome trace when
// a trace directory is configured. Failures are logged, not surfaced:
// tracing must never fail a check that succeeded.
func (s *Server) writeTraceFile(id string, rec *obs.Recorder) {
	if s.cfg.TraceDir == "" {
		return
	}
	path := filepath.Join(s.cfg.TraceDir, "check-"+id+".json")
	f, err := os.Create(path)
	if err != nil {
		s.log.Error("trace file", "request_id", id, "err", err)
		return
	}
	err = rec.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.log.Error("trace write", "request_id", id, "err", err)
		return
	}
	s.reg.Add("server.traces_written", 1)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("response encode failed", "err", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, id, tid string, status int, kind, msg string) {
	s.writeJSON(w, status, ErrorResponse{RequestID: id, TraceID: tid, Error: msg, Kind: kind})
}
