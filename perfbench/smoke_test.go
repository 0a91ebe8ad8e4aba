package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// resultLine is the benchmark's last output line.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

var failedZero = regexp.MustCompile(`(?m)^metric failed_ratio +0 +ratio `)

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each prints every metric BENCHMARK.json names, with
// its unit, and that no operation failed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "xmlconsistd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/xmlconsistd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			var out bytes.Buffer
			cfg := config{
				workload: w.Name, seed: 7, seconds: 0.5, trace: traced,
				root: "..", daemonBin: bin, out: &out,
			}
			if err := run(cfg); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if !traced && !failedZero.MatchString(out.String()) {
				t.Errorf("%s: failed_ratio 0 not printed:\n%s", w.Name, out.String())
			}
			if !strings.HasPrefix(lines[0], "stamp ") || !strings.Contains(lines[0], `"revision"`) {
				t.Errorf("%s trace=%v: first line is not the stamp: %s", w.Name, traced, lines[0])
			}
		}
	}
}
