// Command perfbench is the repository benchmark. It runs one named workload
// against the hybridndp packages for a wall-clock budget, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is one JSON object: the end-to-end metrics of an untraced
// run, or, with -trace 1, the per-layer metrics of a traced run.
//
//	go run . -workload job-sweep -seed 1 -seconds 10 -trace 0
//
// perfbench/run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// gcPercent is the GOGC setting every measurement runs under.
const gcPercent = 50

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for spans and profiles ("" = write none)

	// Sizes. The defaults are the benchmark's; tests shrink them.
	scale        float64 // dataset scale of every workload's set-up load
	setupReps    int     // least set-ups per run; setup_s is their median
	setupSeconds float64 // set up again until the set-ups' wall time reaches this
	serveHorizon float64 // virtual seconds of arrivals per serving run

	// wrongRef, when set, replaces that query's reference fingerprint with a
	// bogus one: the output check must then fail every op on the query.
	wrongRef string
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 10, out: ".bench_build/perfbench",
		scale: 0.01, setupReps: 3, setupSeconds: 3,
		serveHorizon: 20,
	}
}

func main() {
	cfg := defaultConfig()
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the dataset, arrivals, fault plan and query order")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "wall seconds to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.out, "out", cfg.out, "directory for the span dump and CPU profile of a traced run")
	flag.Parse()
	cfg.trace = traceFlag != 0
	// The benchmark machine has two cores; pin the scheduler to them so runs
	// on larger machines measure the same parallelism.
	runtime.GOMAXPROCS(2)
	// At the default GOGC of 100 a collection samples the live heap only
	// each time the heap doubles: the sampled peak of job-sweep spread by
	// 12% over five runs, and by 2-3% at 50. At 25 the sweep ran 45% slower.
	debug.SetGCPercent(gcPercent)
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one invocation.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) writeJSON(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printMetrics writes every metric as "metric <name> <value> <unit>", sorted.
func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %s %s %.6g %s\n", workload, n, ms[n].Value, ms[n].Unit)
	}
}
