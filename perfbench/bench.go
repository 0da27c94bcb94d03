package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hybridndp/internal/obs"
)

// workload is one named input set the benchmark runs.
type workload interface {
	// setup prepares the workload anew. It is timed and repeated;
	// the last set-up's state is the one measured.
	setup(b *bench) error
	// pass runs one unit of measured work (a full query sweep, one serving
	// run, one dataset load), adding its ops, failures and latencies to b,
	// and returns a digest of the virtual-time outputs it produced.
	pass(b *bench) (string, error)
	// layers adds the workload's per-layer metrics after the traced phase.
	layers(b *bench, ph phase, r *report) error
}

// workloadSpec names a workload's constructor and the untimed passes that
// warm it up before the measured phase: serve-zipf's first pass fills the
// plan cache; fleet-chaos's first pass warms the optimizer, host executor
// and dataset it keeps across passes. A job-sweep pass is the whole 15 s
// sweep, too long to repeat untimed.
type workloadSpec struct {
	make   func() workload
	warmup int
}

var workloads = map[string]workloadSpec{
	"job-sweep":   {func() workload { return &jobSweep{} }, 0},
	"serve-zipf":  {func() workload { return &serveZipf{} }, 1},
	"fleet-chaos": {func() workload { return &fleetChaos{} }, 1},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// bench is the state shared by the run loop and the workload.
type bench struct {
	cfg config
	// tr and reg are set only during set-up and the measured phase of a
	// traced run; workloads attach reg to the program's Metrics fields.
	tr  *tracer
	reg *obs.Registry

	op                int64
	attempted, failed int64
	lat               []float64 // wall ms per op
	probes            []float64 // every probe time of the run, ms
	digest            string    // first pass's digest
	mismatches        int       // passes whose digest differed from the first
}

// nextOp returns a fresh op id for span grouping.
func (b *bench) nextOp() int64 {
	b.op++
	return b.op
}

// probe runs the speed probe after a forced collection and records it.
func (b *bench) probe() float64 {
	runtime.GC()
	ms := probe()
	b.probes = append(b.probes, ms)
	return ms
}

// fail records n failed ops (none when n is 0) and reports the first few
// causes on standard error.
func (b *bench) fail(n int64, format string, args ...any) {
	if n == 0 {
		return
	}
	if b.failed < maxReportedFailures {
		fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
	}
	b.failed += n
}

const maxReportedFailures = 5

// maxSetups caps the set-ups of one run.
const maxSetups = 15

// phase is one measured phase.
type phase struct {
	ops        int64
	passes     int
	wall       time.Duration // sum of pass durations
	passWall   []float64     // seconds per pass
	passRate   []float64     // wall ops per second of each pass
	passPeakMB []float64     // peak live heap per pass
	lat        []float64     // wall ms per op
	slowness   float64       // the phase's wall time ÷ its time at the reference speed
	peakLiveMB float64
	allocMB    float64
	gcCPUShare float64
}

// opsPerSec is the median over passes of each pass's ops per second, at the
// reference speed.
func (ph phase) opsPerSec() float64 { return median(ph.passRate) * ph.slowness }

// latMs is the q-quantile of the ops' latency, at the reference speed.
func (ph phase) latMs(q float64) float64 { return quantile(ph.lat, q) / ph.slowness }

// run executes one invocation, printing the human-readable lines to w, and
// returns the report whose JSON form ends the output.
func run(cfg config, w io.Writer) (*report, error) {
	spec, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	wl := spec.make()
	b := &bench{cfg: cfg}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// With three set-ups a run, the 0.2 s set-up of job-sweep and of a
	// scale-0.01 load spread by 17% and 26% between quartiles over ten runs.
	// Repeating it for a few seconds steadies the median without tripling
	// serve-zipf's 2.5 s.
	b.tr = tr
	var wallSetups, setupProbes []float64
	for total := 0.0; len(wallSetups) < cfg.setupReps || (total < cfg.setupSeconds && len(wallSetups) < maxSetups); {
		setupProbes = append(setupProbes, b.probe())
		t0 := time.Now()
		if err := wl.setup(b); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		wallSetups = append(wallSetups, time.Since(t0).Seconds())
		total += wallSetups[len(wallSetups)-1]
	}
	b.tr = nil
	setupProbes = append(setupProbes, b.probe())

	plain, err := b.measure(wl, spec.warmup)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	if !cfg.trace {
		rep.set("setup_s", median(wallSetups)/slowness(setupProbes), "s")
		rep.set("ops_per_s", plain.opsPerSec(), "1/s")
		rep.set("op_p50_ms", plain.latMs(0.5), "ms")
		rep.set("op_p90_ms", plain.latMs(0.9), "ms")
		rep.set("peak_live_heap_mb", plain.peakLiveMB, "MB")
	} else {
		b.tr, b.reg = tr, obs.NewRegistry()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		// The plain phase has just warmed the workload up.
		traced, err := b.measure(wl, 0)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if err := wl.layers(b, traced, rep); err != nil {
			return nil, fmt.Errorf("%s per-layer metrics: %w", cfg.workload, err)
		}
		b.tr, b.reg = nil, nil
		shares, err := cpuSelfShares(prof.Bytes())
		if err != nil {
			return nil, err
		}
		for pkg, s := range shares {
			rep.set("cpu.self_share."+pkg, s, "ratio")
		}
		rep.set("runtime.alloc_mb_per_op", traced.allocMB/float64(traced.ops), "MB/op")
		rep.set("runtime.gc_cpu_share", traced.gcCPUShare, "ratio")
		rep.set("trace.ops_per_s", traced.opsPerSec(), "1/s")
		rep.set("trace.untraced_ops_per_s", plain.opsPerSec(), "1/s")
		rep.set("trace.overhead_share", 1-traced.opsPerSec()/plain.opsPerSec(), "ratio")
		rep.set("machine.probe_ms", median(b.probes), "ms")
		fillPerLayer(rep)
		if err := writeArtifacts(cfg, tr, prof.Bytes(), w); err != nil {
			return nil, err
		}
		for _, line := range selfTimeTable(tr) {
			fmt.Fprintln(w, line)
		}
	}

	fmt.Fprintf(w, "passes %s wall_s=%.3f ops_per_s=%.1f peak_live_heap_mb=%.1f\n", cfg.workload, plain.passWall, plain.passRate, plain.passPeakMB)
	fmt.Fprintf(w, "wall %s setup_s=%.6g ops_per_s=%.6g op_p50_ms=%.6g op_p90_ms=%.6g probe_ms=%.4g\n", cfg.workload,
		median(wallSetups), median(plain.passRate), quantile(plain.lat, 0.5), quantile(plain.lat, 0.9), median(b.probes))
	fmt.Fprintf(w, "digest %s %s\n", cfg.workload, b.digest)
	printMetrics(w, cfg.workload, rep.Metrics)
	fmt.Fprintf(w, "metric %s error_rate %.6g ratio\n", cfg.workload, float64(b.failed)/float64(b.attempted))
	rep.Attempted, rep.Failed = b.attempted, b.failed
	rep.Correct = b.failed == 0 && b.mismatches == 0
	return rep, nil
}

// measure runs warmup untimed passes, then whole passes until their summed
// wall time reaches the budget (at least one pass). Warm-up passes are
// checked like the others but add no ops, latencies or wall time. A forced
// collection and a speed probe before each pass and after the last, outside
// the timed region, start every pass from the same heap and give the
// phase's slowness. The phase's peak live heap is the median over passes of
// each pass's peak.
func (b *bench) measure(wl workload, warmup int) (phase, error) {
	for i := 0; i < warmup; i++ {
		runtime.GC()
		if err := b.pass(wl); err != nil {
			return phase{}, err
		}
	}
	ops0, lat0 := b.attempted, len(b.lat)
	probes := []float64{b.probe()}
	rt0 := readRuntime()
	heap := startHeapSampler()
	defer heap.stop()
	var ph phase
	budget := time.Duration(b.cfg.seconds * float64(time.Second))
	for ph.passes == 0 || ph.wall < budget {
		if ph.passes > 0 {
			probes = append(probes, b.probe())
		}
		heap.take()
		passOps := b.attempted
		t0 := time.Now()
		err := b.pass(wl)
		dt := time.Since(t0)
		ph.wall += dt
		ph.passWall = append(ph.passWall, dt.Seconds())
		ph.passRate = append(ph.passRate, float64(b.attempted-passOps)/dt.Seconds())
		ph.passes++
		ph.passPeakMB = append(ph.passPeakMB, float64(heap.take())/1e6)
		if err != nil {
			return ph, err
		}
	}
	rt1 := readRuntime()
	ph.slowness = slowness(append(probes, b.probe()))
	ph.ops = b.attempted - ops0
	ph.lat = b.lat[lat0:]
	ph.peakLiveMB = median(ph.passPeakMB)
	ph.allocMB = float64(rt1.allocBytes-rt0.allocBytes) / 1e6
	if cpu := rt1.totalCPU - rt0.totalCPU; cpu > 0 {
		ph.gcCPUShare = (rt1.gcCPU - rt0.gcCPU) / cpu
	}
	if ph.ops == 0 {
		return ph, fmt.Errorf("%s: no ops ran", b.cfg.workload)
	}
	return ph, nil
}

// pass runs one pass and checks its digest against the first pass's.
func (b *bench) pass(wl workload) error {
	d, err := wl.pass(b)
	if err != nil {
		return fmt.Errorf("%s: %w", b.cfg.workload, err)
	}
	switch {
	case b.digest == "":
		b.digest = d
	case d != b.digest:
		b.mismatches++
	}
	return nil
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// heapSampler polls /gc/heap/live:bytes (updated at the end of every
// collection) and tracks its maximum since the last take.
type heapSampler struct {
	peak       atomic.Uint64
	quit, done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// take returns the peak since the previous take and starts a new one.
func (h *heapSampler) take() uint64 {
	h.read()
	return h.peak.Swap(0)
}

// stop ends the polling and returns once the goroutine has exited.
func (h *heapSampler) stop() {
	close(h.quit)
	<-h.done
}

// perLayer lists every per-layer metric with its unit. A workload that does
// not cross a layer reports that layer's metrics as 0.
var perLayer = []struct{ name, unit string }{
	{"job.load_s", "s"},
	{"flash.write_amp", "ratio"},
	{"lsm.ssts", "count"},
	{"optimizer.build_plan_ms", "ms"},
	{"optimizer.decide_ms", "ms"},
	{"sql.prepare_ms", "ms"},
	{"serve.measure_s", "s"},
	{"serve.run_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"coop.run_ms.blk", "ms"},
	{"coop.run_ms.native", "ms"},
	{"coop.run_ms.hybrid", "ms"},
	{"coop.run_ms.ndp", "ms"},
	{"coop.batches", "count/pass"},
	{"coop.transfer_mb", "MB/pass"},
	{"coop.host.cache_hit_ratio", "ratio"},
	{"coop.host.bloom_negative_ratio", "ratio"},
	{"device.cache_hit_ratio", "ratio"},
	{"device.slot_stalls", "count/pass"},
	{"device.scan_rows_per_result_row", "ratio"},
	{"flash.page_reads", "count/pass"},
	{"flash.read_mb", "MB/pass"},
	{"fleet.plan_shards_ms", "ms"},
	{"fleet.run_ms", "ms"},
	{"fleet.hedge.fired", "count/pass"},
	{"fleet.hedge.won_ratio", "ratio"},
	{"sched.fleet.shard.denied", "count/pass"},
	{"sched.queue_wait_ms", "ms"},
	{"sched.overhead_ms", "ms"},
	{"runtime.alloc_mb_per_op", "MB/op"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.overhead_share", "ratio"},
	{"machine.probe_ms", "ms"},
}

// perLayerNames is every per-layer metric name: perLayer plus one CPU share
// per package bucket.
func perLayerNames() map[string]string {
	out := map[string]string{}
	for _, m := range perLayer {
		out[m.name] = m.unit
	}
	for _, p := range cpuPackages {
		out["cpu.self_share."+p] = "ratio"
	}
	return out
}

// fillPerLayer reports every per-layer metric the workload left unset as 0.
func fillPerLayer(r *report) {
	for name, unit := range perLayerNames() {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
}

// writeArtifacts writes the span dump and the CPU profile of a traced run.
func writeArtifacts(cfg config, tr *tracer, prof []byte, w io.Writer) error {
	if cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans %s.spans.jsonl\nprofile %s.cpu.pprof\n", base, base)
	return nil
}

// selfTimeTable renders per-span-name counts, total and self wall time.
func selfTimeTable(tr *tracer) []string {
	st := tr.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{"span name count total_ms self_ms"}
	for _, n := range names {
		s := st[n]
		lines = append(lines, fmt.Sprintf("span %s %d %.3f %.3f", n, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6))
	}
	return lines
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
