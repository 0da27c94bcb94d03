package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the tests
// hold the program to.
type benchmarkSpec struct {
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

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig shrinks every size so one pass of any workload takes seconds.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace = workload, trace
	cfg.seconds = 0.001
	cfg.scale = 0.003
	cfg.setupReps, cfg.setupSeconds = 1, 0
	cfg.serveHorizon = 1
	cfg.out = t.TempDir()
	return cfg
}

func runTiny(t *testing.T, cfg config) (*report, string) {
	t.Helper()
	var out bytes.Buffer
	rep, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s (trace %t): %v", cfg.workload, cfg.trace, err)
	}
	if err := rep.writeJSON(&out); err != nil {
		t.Fatal(err)
	}
	return rep, out.String()
}

// printed returns the value of "metric <workload> <name> <value> <unit>".
func printed(t *testing.T, out, workload, name, unit string) float64 {
	t.Helper()
	prefix := fmt.Sprintf("metric %s %s ", workload, name)
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, prefix)
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != unit {
			t.Fatalf("%q: want value and unit %s", line, unit)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return v
	}
	t.Fatalf("%s: metric %s not printed", workload, name)
	return 0
}

// TestSmokeEveryMetric runs every workload of BENCHMARK.json at a tiny
// scale, untraced and traced, and requires every metric it names to print
// with its unit, in the text lines and in the closing JSON object.
func TestSmokeEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	layer := perLayerNames()
	if len(spec.PerLayer) != len(layer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(layer))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			rep, out := runTiny(t, tinyConfig(t, w.Name, trace))
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s (trace %t): correct=%t attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Fatalf("%s (trace %t): %d metrics in JSON, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Fatalf("%s (trace %t): JSON metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if v := printed(t, out, w.Name, m.Name, m.Unit); v != got.Value && !(math.Abs(v-got.Value) <= 1e-5*math.Abs(got.Value)) {
					t.Fatalf("%s: printed %s = %v, JSON has %v", w.Name, m.Name, v, got.Value)
				}
			}
			if v := printed(t, out, w.Name, "error_rate", "ratio"); v != 0 {
				t.Fatalf("%s: error_rate %v on a clean run", w.Name, v)
			}
			if !strings.Contains(out, "digest "+w.Name+" ") {
				t.Fatalf("%s: no output digest printed", w.Name)
			}
			if last := strings.TrimSpace(out[strings.LastIndex(strings.TrimSpace(out), "\n")+1:]); !strings.HasPrefix(last, "{") {
				t.Fatalf("%s: last line %q is not the JSON result", w.Name, last)
			}
		}
	}
}

// TestWrongReferenceRaisesErrorRate corrupts one query's reference
// fingerprint: the output checks must count the ops on it as failed.
func TestWrongReferenceRaisesErrorRate(t *testing.T) {
	for _, w := range []string{"job-sweep", "fleet-chaos"} {
		cfg := tinyConfig(t, w, false)
		cfg.wrongRef = "17a"
		rep, out := runTiny(t, cfg)
		if rep.Correct || rep.Failed == 0 {
			t.Fatalf("%s: wrong reference went unnoticed (correct=%t failed=%d)", w, rep.Correct, rep.Failed)
		}
		if v := printed(t, out, w, "error_rate", "ratio"); v <= 0 {
			t.Fatalf("%s: error_rate %v, want > 0", w, v)
		}
	}
}

// TestSelfTimeSubtractsChildCoverage checks self time against a hand-built
// span tree whose children overlap each other and the parent's end.
func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 40, Parent: 0},
		{Name: "child", Start: 90, End: 120, Parent: 0},
		{Name: "leaf", Start: 12, End: 14, Parent: 1},
	}}
	st := tr.stats()
	if got := st["root"]; got.TotalNs != 100 || got.SelfNs != 100-30-10 {
		t.Fatalf("root: %+v, want total 100 self 60", got)
	}
	if got := st["child"]; got.Count != 3 || got.TotalNs != 70 || got.SelfNs != 70-2 {
		t.Fatalf("child: %+v, want count 3 total 70 self 68", got)
	}
}

// TestPackageOf pins the CPU-share bucketing of function names.
func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"hybridndp/internal/exec.(*Engine).RunPlan": "exec",
		"hybridndp/internal/lsm.(*Tree).Get":        "lsm",
		"runtime.mallocgc":                          "runtime",
		"runtime/internal/atomic.Load":              "runtime",
		"hybridndp/internal/analysis/load.Load":     "other",
		"sort.Slice":                                "other",
		"main.main":                                 "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
