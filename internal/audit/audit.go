// Package audit is the serving path's flight recorder: an append-only
// JSONL event log of every consistency check, plus two in-memory
// aggregates the live status page reads — a bounded ring of the most
// recent events and a decaying top-N tracker of the hottest spec
// digests.
//
// The file log rotates by size (the current file is renamed to
// <path>.1, replacing the previous rotation) and can be sampled (write
// every Nth event) so a daemon under thousands of RPS bounds its disk
// and syscall cost; the ring and the hot tracker always see every
// event regardless of sampling. All methods are safe for concurrent
// use; a nil *Log no-ops, so wiring audit into a handler costs one nil
// check when disabled.
package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/introspect"
)

// Event is one audited check, and the daemon's single per-check
// record: the in-flight table, this log and the flight recorder all
// read the same event. It is written as a single JSON line and is
// designed to be joinable with the other serving artifacts: the
// request ID matches the X-Request-Id header and the trace file name,
// the spec digest matches the /check response, certificate, and
// benchmark-journal entries.
type Event struct {
	// Time is the RFC 3339 completion time (stamped by Record when
	// empty).
	Time string `json:"time"`
	// RequestID is the serving request ID ("-" outside a server).
	RequestID string `json:"request_id"`
	// TraceID is the W3C trace ID the request ran under, joining this
	// event with the response headers, metric exemplars, and flight
	// bundles (empty outside a server).
	TraceID string `json:"trace_id,omitempty"`
	// Op names the serving operation ("explain" for /explain events;
	// empty for plain checks, keeping existing logs stable).
	Op string `json:"op,omitempty"`
	// SpecDigest is the canonical digest of the checked specification.
	SpecDigest string `json:"spec_digest,omitempty"`
	// Verdict is the check's outcome (empty when the check aborted).
	Verdict string `json:"verdict,omitempty"`
	// CertificateKind names the attached certificate's shape, if any.
	CertificateKind string `json:"certificate_kind,omitempty"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status,omitempty"`
	// Abort is the machine-readable abort cause ("deadline",
	// "canceled", "internal"; empty for completed checks). The flight
	// recorder's capture of a panicking request also uses "panic".
	Abort string `json:"abort,omitempty"`
	// ElapsedUS is the end-to-end check latency in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
	// Phases are the check's per-phase span durations (slash-joined
	// paths, as in traces and the benchmark journal).
	Phases []Phase `json:"phases,omitempty"`
	// ScopeCosts attributes the check's cost to its scope subproblems
	// (repro-bench/v1 rows, capped by the recorder so a pathological
	// spec cannot bloat the log line). Additive: absent in old logs.
	ScopeCosts []introspect.ScopeCost `json:"scope_costs,omitempty"`
}

// Phase is one span of the audited check.
type Phase struct {
	Path       string `json:"path"`
	DurationUS int64  `json:"duration_us"`
}

// HotDigest is one row of the hot-digest table: a spec digest, its
// decayed request score, and the verdict it last produced.
type HotDigest struct {
	Digest string `json:"digest"`
	// Score is the decayed request count: recent requests count ~1,
	// each decay interval halves older contributions.
	Score float64 `json:"score"`
	// LastVerdict is the verdict of this digest's most recent check.
	LastVerdict string `json:"last_verdict,omitempty"`
}

// Options configures a Log. The zero value keeps everything in memory
// with default capacities.
type Options struct {
	// Path is the JSONL file to append to (empty: in-memory only).
	Path string
	// MaxBytes rotates the file when it would exceed this size
	// (0: 8 MiB).
	MaxBytes int64
	// Sample writes every Nth event to the file (<=1: every event).
	// The ring and hot tracker are unaffected by sampling.
	Sample int
	// RingSize bounds the recent-events ring (0: 128).
	RingSize int
	// HotSize bounds the hot-digest table (0: 64).
	HotSize int
	// DecayEvery halves every hot-digest score after this many
	// recorded events (0: 1024), so the table tracks current load
	// rather than all-time totals.
	DecayEvery int
}

// Log is the audit sink. Create with New; a nil *Log no-ops.
type Log struct {
	mu   sync.Mutex
	opts Options

	f    *os.File
	size int64
	seq  uint64
	err  error // first file write/rotate error, surfaced by Close

	ring     []Event
	ringNext int
	ringFull bool

	hot        map[string]*hotEntry
	sinceDecay int
}

type hotEntry struct {
	score       float64
	lastVerdict string
}

// New opens the audit log. With an empty Path no file is touched and
// New cannot fail.
func New(opts Options) (*Log, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 8 << 20
	}
	if opts.Sample <= 1 {
		opts.Sample = 1
	}
	if opts.RingSize <= 0 {
		opts.RingSize = 128
	}
	if opts.HotSize <= 0 {
		opts.HotSize = 64
	}
	if opts.DecayEvery <= 0 {
		opts.DecayEvery = 1024
	}
	l := &Log{
		opts: opts,
		ring: make([]Event, opts.RingSize),
		hot:  map[string]*hotEntry{},
	}
	if opts.Path != "" {
		f, err := os.OpenFile(opts.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("audit: %w", err)
		}
		l.f, l.size = f, st.Size()
	}
	return l, nil
}

// Record appends one event: always into the ring and the hot tracker,
// and into the file subject to sampling. File errors are latched (and
// returned by Close) rather than surfaced per event — auditing must
// never fail a check that succeeded.
func (l *Log) Record(ev Event) {
	if l == nil {
		return
	}
	if ev.Time == "" {
		ev.Time = time.Now().Format(time.RFC3339Nano)
	}
	l.mu.Lock()
	defer l.mu.Unlock()

	l.ring[l.ringNext] = ev
	l.ringNext++
	if l.ringNext == len(l.ring) {
		l.ringNext, l.ringFull = 0, true
	}

	if ev.SpecDigest != "" {
		e := l.hot[ev.SpecDigest]
		if e == nil {
			e = &hotEntry{}
			l.hot[ev.SpecDigest] = e
		}
		e.score++
		if ev.Verdict != "" {
			e.lastVerdict = ev.Verdict
		}
	}
	l.sinceDecay++
	if l.sinceDecay >= l.opts.DecayEvery {
		l.decayLocked()
	}
	if len(l.hot) > 2*l.opts.HotSize {
		l.trimLocked()
	}

	l.seq++
	if l.f == nil || (l.seq-1)%uint64(l.opts.Sample) != 0 {
		return
	}
	line, err := json.Marshal(ev)
	if err != nil { // unreachable for Event, but never panic the server
		l.setErr(err)
		return
	}
	line = append(line, '\n')
	if l.size+int64(len(line)) > l.opts.MaxBytes && l.size > 0 {
		l.rotateLocked()
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		l.setErr(err)
	}
}

// decayLocked halves every hot score and drops entries that decayed
// below half a request.
func (l *Log) decayLocked() {
	l.sinceDecay = 0
	for k, e := range l.hot {
		e.score /= 2
		if e.score < 0.5 {
			delete(l.hot, k)
		}
	}
}

// trimLocked bounds the hot map: when decay alone has not kept it
// near HotSize (many distinct digests between decays), the lowest
// scores are evicted.
func (l *Log) trimLocked() {
	type kv struct {
		k string
		s float64
	}
	all := make([]kv, 0, len(l.hot))
	for k, e := range l.hot {
		all = append(all, kv{k, e.score})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].s > all[j].s })
	for _, it := range all[l.opts.HotSize:] {
		delete(l.hot, it.k)
	}
}

// rotateLocked renames the current file to <path>.1 (replacing any
// previous rotation) and starts a fresh file.
func (l *Log) rotateLocked() {
	if err := l.f.Close(); err != nil {
		l.setErr(err)
	}
	if err := os.Rename(l.opts.Path, l.opts.Path+".1"); err != nil {
		l.setErr(err)
	}
	f, err := os.OpenFile(l.opts.Path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.setErr(err)
		l.f = nil
		l.size = 0
		return
	}
	l.f, l.size = f, 0
}

func (l *Log) setErr(err error) {
	if l.err == nil {
		l.err = err
	}
}

// Recent returns up to n recorded events, newest first (all of them
// when n <= 0).
func (l *Log) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	total := l.ringNext
	if l.ringFull {
		total = len(l.ring)
	}
	if n <= 0 || n > total {
		n = total
	}
	out := make([]Event, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.ring[(l.ringNext-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Hot returns up to n hot digests, highest score first (all of them
// when n <= 0). Ties break lexicographically so the table is stable.
func (l *Log) Hot(n int) []HotDigest {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := make([]HotDigest, 0, len(l.hot))
	for k, e := range l.hot {
		out = append(out, HotDigest{Digest: k, Score: e.score, LastVerdict: e.lastVerdict})
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Digest < out[j].Digest
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// Events returns the total number of events recorded (before
// sampling).
func (l *Log) Events() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Close closes the file (when one is open) and returns the first
// write or rotation error encountered over the log's lifetime.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			l.setErr(err)
		}
		l.f = nil
	}
	return l.err
}
