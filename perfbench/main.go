// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against the consistency checker for a fixed time,
// checks every verdict against answers known without the checker, and
// prints its metrics; the last line of standard output is one JSON
// object. With -trace 1 it instead times the calls into each layer's
// public functions from outside the program and prints the per-layer
// metrics. See README.md for the workloads and the metric definitions.
//
// Run it through run.sh from the repository root, which builds this
// program and the daemon first:
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	root      string
	daemonBin string
	out       io.Writer
}

// metric is one reported number with its unit and sample count.
type metric struct {
	value   float64
	unit    string
	samples int
}

// report is what a workload measured.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	decided   int
	notes     []string
	errs      []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{value: v, unit: unit, samples: samples}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation; the first few are printed.
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// workloads maps each workload name to its timed run and its traced
// run.
var workloads = map[string]struct {
	run, traced func(cfg config) (*report, error)
}{
	"corpus":        {runCorpus, traceCorpus},
	"hard-families": {runHard, traceHard},
	"daemon":        {runDaemon, traceDaemon},
	"explain":       {runExplain, traceExplain},
}

func main() {
	cfg := config{out: os.Stdout}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: corpus, hard-families, daemon or explain")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root (testdata and sources)")
	flag.StringVar(&cfg.daemonBin, "daemon-bin", "", "xmlconsistd binary for the daemon workload")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints its report. It returns an error
// when the workload cannot run at all, and exits non-zero after
// printing when an operation failed.
func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		return fmt.Errorf("-root %s is not the repository root: %w", cfg.root, err)
	}
	fn := w.run
	if cfg.trace {
		fn = w.traced
	}
	rep, err := fn(cfg)
	if err != nil {
		return err
	}
	if err := printReport(cfg, rep); err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	return nil
}

// printReport writes the stamp, one line per metric, the failures,
// and the final JSON result line.
func printReport(cfg config, rep *report) error {
	if rep.attempted < 1 {
		return fmt.Errorf("no operation completed")
	}
	out := cfg.out
	decided := float64(rep.decided) / float64(rep.attempted)
	failed := float64(rep.failed) / float64(rep.attempted)
	if !cfg.trace {
		rep.set("decided_ratio", decided, "ratio", rep.attempted)
	}
	names := make([]string, 0, len(rep.metrics))
	samples := map[string]int{}
	for name, m := range rep.metrics {
		names = append(names, name)
		samples[name] = m.samples
	}
	sort.Strings(names)
	stamp := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"revision":   revision(cfg.root),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"samples":    samples,
	}
	sb, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stamp %s\n", sb)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "note  %s\n", n)
	}
	fmt.Fprintf(out, "check attempted=%d failed=%d decided=%d failed_ratio=%g decided_ratio=%g\n",
		rep.attempted, rep.failed, rep.decided, failed, decided)
	for _, e := range rep.errs {
		fmt.Fprintf(out, "FAIL  %s\n", e)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, name := range names {
		m := rep.metrics[name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value (%d samples)", name, m.samples)
		}
		fmt.Fprintf(out, "metric %-36s %16s %-6s n=%d\n", name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit, m.samples)
		metrics[name] = jm{m.value, m.unit}
	}
	fmt.Fprintf(out, "metric %-36s %16s %-6s n=%d\n", "failed_ratio", strconv.FormatFloat(failed, 'g', -1, 64), "ratio", rep.attempted)
	res, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", res)
	return err
}

// revision names the source the benchmark measured: the git commit
// when the root is a git checkout, otherwise a digest of every Go
// source and module file under the root, so an exported tree without
// version control still stamps a comparable identity.
func revision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
		if out, err := cmd.Output(); err == nil {
			rev := strings.TrimSpace(string(out))
			st := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no")
			if dirty, err := st.Output(); err == nil && len(dirty) > 0 {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "bin") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, bufio.NewReader(f))
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// scaled sizes a fixed-size part of a workload (a set-up pool, a
// warm-up or request stream) for the run length: full size from 10 s
// on, proportionally less for shorter runs such as the smoke test's,
// and at least min.
func (c config) scaled(n, min int) int {
	v := int(float64(n) * math.Min(1, c.seconds/10))
	if v < min {
		return min
	}
	return v
}

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}
