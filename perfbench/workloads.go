package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"hybridndp/internal/coop"
	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/fleet"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/obs"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/query"
	"hybridndp/internal/sched"
	"hybridndp/internal/serve"
	"hybridndp/internal/vclock"
)

// load is the set-up every workload shares: the JOB dataset at the
// benchmark scale. The read workloads query the default-seed dataset, the
// one the repository's goldens pin: the cost of the fan-out queries depends
// so strongly on the generated data that seeded datasets moved the sweep's
// ops/s by 30% from seed to seed. The run's seed varies the query order,
// the arrivals and the fault plan instead, which keep the work constant.
// Every table must hold the rows the generator made for it.
func load(b *bench, scale float64) (*job.Dataset, error) {
	sp := b.tr.begin("job.load_seeded", -1, 0)
	ds, err := job.LoadSeeded(scale, hw.Cosmos(), job.DefaultSeed)
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	for name, want := range ds.Counts {
		got := int64(-1)
		if t, err := ds.Cat.Table(name); err == nil {
			got = t.RowCount()
		}
		if got != int64(want) {
			b.fail(1, "table %s: %d rows loaded, %d generated", name, got, want)
		}
	}
	return ds, nil
}

// shuffled returns the JOB queries in the seed's order.
func shuffled(seed int64) []*query.Query {
	qs := job.Queries()
	rand.New(rand.NewSource(seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

func sinceMs(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

// reference is the result digest the output checks compare; the wrongRef
// test hook corrupts one query's reference.
func (b *bench) reference(q string, r *exec.Result) string {
	if q == b.cfg.wrongRef {
		return "wrong-reference"
	}
	return fleet.Fingerprint(r)
}

// ---------------------------------------------------------------- job-sweep

// jobSweep is the Fig. 12 experiment: every JOB query under BLK, native,
// every hybrid split H0..Hn and full NDP, one strategy run at a time. An op
// is one strategy run; every result must match the query's host-native
// fingerprint.
type jobSweep struct {
	ds    *job.Dataset
	opt   *optimizer.Optimizer
	ex    *coop.Executor
	order []*query.Query

	// Traced-phase accumulators.
	deviceResultRows int64
	flash0           flashSample

	// The write path of the last set-up's load.
	written writeSample
}

type flashSample struct{ pageReads, bytesRead int64 }

// writeSample is what loading a dataset wrote: flash bytes, the user row
// bytes they hold, and the SSTs they form.
type writeSample struct {
	flashBytes, userBytes int64
	ssts                  int
}

// written reads the write-path figures of a freshly loaded dataset, before
// any read can touch its storage.
func written(ds *job.Dataset) (writeSample, error) {
	ws := writeSample{flashBytes: ds.Flash.Stats().BytesWritten}
	for _, s := range job.Schemas() {
		ws.userBytes += int64(ds.Counts[s.Name]) * int64(s.RowBytes())
	}
	for _, name := range ds.DB.ColumnFamilies() {
		cf, err := ds.DB.CF(name)
		if err != nil {
			return ws, err
		}
		ws.ssts += cf.Stats().SSTs
	}
	return ws, nil
}

func (w *jobSweep) setup(b *bench) error {
	ds, err := load(b, b.cfg.scale)
	if err != nil {
		return err
	}
	if w.written, err = written(ds); err != nil {
		return err
	}
	w.ds, w.opt, w.ex = ds, optimizer.New(ds.Cat, ds.Model), coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	w.order = shuffled(b.cfg.seed)
	return nil
}

// sweepStrategies is block, native, every hybrid split and full NDP, the
// Fig. 12 order.
func sweepStrategies(p *exec.Plan) []coop.Strategy {
	out := []coop.Strategy{{Kind: coop.BlockOnly}, {Kind: coop.HostNative}}
	if len(p.Steps) > 0 {
		out = append(out, coop.Strategy{Kind: coop.Hybrid, Split: -1})
		for k := 1; k <= len(p.Steps); k++ {
			out = append(out, coop.Strategy{Kind: coop.Hybrid, Split: k})
		}
	}
	return append(out, coop.Strategy{Kind: coop.NDPOnly})
}

func (w *jobSweep) pass(b *bench) (string, error) {
	// The registry is attached at the first traced pass: that is where the
	// traced phase's flash activity starts.
	if b.reg != nil && w.ex.Metrics == nil {
		st := w.ds.Flash.Stats()
		w.flash0 = flashSample{st.PageReads, st.BytesRead}
	}
	w.ex.Metrics = b.reg
	h := fnv.New64a()
	for _, q := range w.order {
		qs := b.tr.begin("query", -1, 0)
		sp := b.tr.begin("optimizer.build_plan", qs, 0)
		p, err := w.opt.BuildPlan(q)
		b.tr.end(sp)
		if err != nil {
			return "", fmt.Errorf("plan %s: %w", q.Name, err)
		}
		strategies := sweepStrategies(p)
		fps := make([]string, len(strategies))
		ref := ""
		for i, st := range strategies {
			sp := b.tr.begin("coop.run."+st.Kind.String(), qs, b.nextOp())
			t0 := time.Now()
			rep, err := w.ex.Run(p, st)
			b.lat = append(b.lat, sinceMs(t0))
			b.tr.end(sp)
			b.attempted++
			if err != nil {
				fps[i] = "error: " + err.Error()
				fmt.Fprintf(h, "%s|%s|error\n", q.Name, st)
				continue
			}
			fps[i] = fleet.Fingerprint(rep.Result)
			if st.Kind == coop.HostNative {
				ref = b.reference(q.Name, rep.Result)
			}
			if b.reg != nil && st.Kind != coop.BlockOnly && st.Kind != coop.HostNative {
				w.deviceResultRows += rep.Result.RowCount
			}
			fmt.Fprintf(h, "%s|%s|%v|%v|%d|%d|%d\n", q.Name, st, rep.Elapsed, rep.DeviceElapsed,
				rep.Result.RowCount, rep.Batches, rep.TransferredBytes)
		}
		for i, fp := range fps {
			if fp != ref {
				b.fail(1, "%s under %s: result %s, host-native %s", q.Name, strategies[i], fp, ref)
			}
		}
		b.tr.end(qs)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func (w *jobSweep) layers(b *bench, ph phase, r *report) error {
	st := b.tr.stats()
	for _, k := range []struct {
		kind coop.Kind
		name string
	}{{coop.BlockOnly, "blk"}, {coop.HostNative, "native"}, {coop.Hybrid, "hybrid"}, {coop.NDPOnly, "ndp"}} {
		r.set("coop.run_ms."+k.name, st["coop.run."+k.kind.String()].MeanMs(), "ms")
	}
	r.set("optimizer.build_plan_ms", st["optimizer.build_plan"].MeanMs(), "ms")
	c := func(name string) float64 { return float64(b.reg.Counter(name).Value()) }
	passes := float64(ph.passes)
	r.set("coop.batches", c("coop.batches")/passes, "count/pass")
	r.set("coop.transfer_mb", c("coop.transfer.bytes")/passes/1e6, "MB/pass")
	r.set("coop.host.cache_hit_ratio", ratio(c("coop.host.cache.hits"), c("coop.host.cache.hits")+c("coop.host.cache.misses")), "ratio")
	r.set("coop.host.bloom_negative_ratio", ratio(c("coop.host.bloom.negative"), c("coop.host.bloom.negative")+c("coop.host.bloom.positive")), "ratio")
	r.set("device.cache_hit_ratio", ratio(c("device.cache.hits"), c("device.cache.hits")+c("device.cache.misses")), "ratio")
	r.set("device.slot_stalls", c("device.slot.stalls")/passes, "count/pass")
	r.set("device.scan_rows_per_result_row", ratio(c("device.scan.rows"), float64(w.deviceResultRows)), "ratio")
	fs := w.ds.Flash.Stats()
	r.set("flash.page_reads", float64(fs.PageReads-w.flash0.pageReads)/passes, "count/pass")
	r.set("flash.read_mb", float64(fs.BytesRead-w.flash0.bytesRead)/passes/1e6, "MB/pass")
	// The write path runs in the set-ups, which the traced run also traces.
	r.set("job.load_s", st["job.load_seeded"].MeanMs()/1e3, "s")
	r.set("flash.write_amp", ratio(float64(w.written.flashBytes), float64(w.written.userBytes)), "ratio")
	r.set("lsm.ssts", float64(w.written.ssts), "count")
	return nil
}

// --------------------------------------------------------------- serve-zipf

// serveZipf is the SQL front door under an open-loop arrival stream: three
// weighted tenants with Zipf-skewed statements, Poisson arrivals at 1.25x
// the calibrated host capacity, adaptive placement and a plan cache smaller
// than the statement set. An op is one simulated request.
type serveZipf struct {
	ds   *job.Dataset
	srv  *serve.Server
	hits int64
	miss int64
}

// serveCacheCap is the plan-cache capacity: below the 113 statements, so
// misses keep reaching the optimizer. At the default of 256 every request
// after the first 113 hit the cache and the run measured almost nothing.
const serveCacheCap = 32

func (w *serveZipf) setup(b *bench) error {
	ds, err := load(b, b.cfg.scale)
	if err != nil {
		return err
	}
	// The seed drives the arrivals and the Zipf draws; the statement ranking
	// stays fixed, since which statements are hot decides the cost of every
	// plan-cache miss.
	qs := job.Queries()
	sp := b.tr.begin("serve.measure", -1, 0)
	ct, err := serve.Measure(ds, qs, 2)
	b.tr.end(sp)
	if err != nil {
		return err
	}
	tenants := []serve.TenantConfig{
		{Name: "gold", Weight: 4, SLO: 5 * vclock.Millisecond, Skew: 1.3},
		{Name: "silver", Weight: 2, SLO: 10 * vclock.Millisecond, Skew: 1.3},
		{Name: "bronze", Weight: 1, SLO: 20 * vclock.Millisecond, Skew: 1.3},
	}
	arrival := serve.DefaultArrival()
	arrival.Rate = 1.25 * ct.HostCapacityQPS(ds.Model.HostCores) / float64(len(tenants))
	sp = b.tr.begin("serve.new", -1, 0)
	srv, err := serve.New(ds, ct, serve.Config{
		Tenants:      tenants,
		Arrival:      arrival,
		Policy:       sched.Adaptive,
		PlanCacheCap: serveCacheCap,
		Horizon:      vclock.Duration(b.cfg.serveHorizon * float64(vclock.Second)),
		Seed:         b.cfg.seed,
		Queries:      qs,
	})
	b.tr.end(sp)
	if err != nil {
		return err
	}
	w.ds, w.srv = ds, srv
	return nil
}

func (w *serveZipf) pass(b *bench) (string, error) {
	sp := b.tr.begin("serve.run", -1, b.nextOp())
	t0 := time.Now()
	res, err := w.srv.Run()
	d := time.Since(t0)
	b.tr.end(sp)
	if err != nil {
		b.attempted++
		b.fail(1, "serving run: %v", err)
		return "error", nil
	}
	b.attempted += int64(res.Requests)
	accounted := res.Completed + res.QuotaRejected + res.QueueRejected + res.DeadlineRejected
	b.fail(int64(absDiff(res.Requests, accounted)), "%d requests, %d completed or rejected", res.Requests, accounted)
	if res.Requests > 0 {
		b.lat = append(b.lat, float64(d)/1e6/float64(res.Requests))
	}
	if b.reg != nil {
		w.hits += res.CacheHits
		w.miss += res.CacheMisses
	}
	// The digest leaves out the plan-cache counters: a warm cache changes
	// them, never the virtual-time outputs.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%v\n", res.Requests, res.Completed, res.QuotaRejected,
		res.QueueRejected, res.DeadlineRejected, res.Makespan)
	for _, t := range res.Tenants {
		fmt.Fprintf(h, "%s|%d|%d|%d|%v|%v|%v|%v\n", t.Name, t.Requests, t.Completed, t.SLOMissed,
			t.P50, t.P95, t.P99, t.MeanLatency)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func (w *serveZipf) layers(b *bench, _ phase, r *report) error {
	// The optimizer and SQL calls run inside serve.New and serve.Server.Run;
	// replay them here, one statement at a time, to time each layer.
	sess := serve.NewSession("replay", w.ds.Cat)
	opt := optimizer.New(w.ds.Cat, w.ds.Model)
	src := w.srv.Session(0)
	for _, name := range src.Statements() {
		p, _ := src.Stmt(name)
		op := b.nextOp()
		root := b.tr.begin("replay", -1, op)
		sp := b.tr.begin("sql.prepare", root, op)
		_, err := sess.Prepare(name, p.Norm)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("optimizer.build_plan", root, op)
		_, err = opt.BuildPlan(p.Query)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("optimizer.decide", root, op)
		_, err = opt.Decide(p.Query)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		b.tr.end(root)
	}
	st := b.tr.stats()
	r.set("sql.prepare_ms", st["sql.prepare"].MeanMs(), "ms")
	r.set("optimizer.build_plan_ms", st["optimizer.build_plan"].MeanMs(), "ms")
	r.set("optimizer.decide_ms", st["optimizer.decide"].MeanMs(), "ms")
	r.set("serve.measure_s", st["serve.measure"].MeanMs()/1e3, "s")
	r.set("serve.run_s", st["serve.run"].MeanMs()/1e3, "s")
	r.set("serve.cache_hit_ratio", ratio(float64(w.hits), float64(w.hits+w.miss)), "ratio")
	return nil
}

// absDiff is |a-b|.
func absDiff(a, b int) int {
	if a < b {
		return b - a
	}
	return a - b
}

// -------------------------------------------------------------- fleet-chaos

// fleetChaos is one closed-loop client submitting the JOB queries through
// the scheduler into a 4-device range fleet, with device 1 stalling 2ms per
// batch and hedged shard execution on. An op is one query; every result
// must match the query's host-native fingerprint.
type fleetChaos struct {
	ds     *job.Dataset
	opt    *optimizer.Optimizer
	ex     *coop.Executor
	desc   *fleet.Descriptor
	faults *fault.Plan
	order  []*query.Query
	refs   map[string]string

	queueWaitMs []float64
}

// fleetDevices is the fleet size of the fleet-chaos workload.
const fleetDevices = 4

func (w *fleetChaos) setup(b *bench) error {
	ds, err := load(b, b.cfg.scale)
	if err != nil {
		return err
	}
	desc, err := fleet.Build(ds.Cat, fleetDevices, fleet.SchemeRange)
	if err != nil {
		return err
	}
	faults, err := fault.Parse(fmt.Sprintf("dev1:dev.stall=2ms,seed=%d", b.cfg.seed))
	if err != nil {
		return err
	}
	opt := optimizer.New(ds.Cat, ds.Model)
	ex := coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
	order := shuffled(b.cfg.seed)
	refs := make(map[string]string, len(order))
	for _, q := range order {
		d, err := opt.Decide(q)
		if err != nil {
			return err
		}
		rep, err := ex.Run(d.Plan, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			return fmt.Errorf("reference %s: %w", q.Name, err)
		}
		refs[q.Name] = b.reference(q.Name, rep.Result)
	}
	*w = fleetChaos{ds: ds, opt: opt, ex: ex, desc: desc, faults: faults, order: order, refs: refs}
	return nil
}

// scheduler builds a one-worker scheduler over a fresh fault-injected,
// hedging fleet executor, and returns both. Every pass gets fresh ones: the
// scheduler wires its own admission gate and calibration into the executor.
func (w *fleetChaos) scheduler(reg *obs.Registry) (*sched.Scheduler, *fleet.Executor) {
	fx := fleet.NewExecutor(w.ds.Cat, w.ds.DB, w.ds.Model, w.desc)
	fx.Faults = w.faults
	fx.Hedge = fleet.HedgeConfig{Enabled: true}
	cfg := sched.DefaultConfig()
	cfg.Workers = 1
	cfg.Devices = fleetDevices
	cfg.Fleet = fx
	cfg.Metrics = reg
	return sched.New(w.opt, w.ex, w.ds.Model, cfg), fx
}

func (w *fleetChaos) pass(b *bench) (string, error) {
	s, _ := w.scheduler(b.reg)
	defer s.Close()
	ctx := context.Background()
	h := fnv.New64a()
	for _, q := range w.order {
		op := b.nextOp()
		sp := b.tr.begin("sched.submit_wait", -1, op)
		t0 := time.Now()
		o, err := submitWait(ctx, s, q)
		b.lat = append(b.lat, sinceMs(t0))
		b.tr.end(sp)
		b.attempted++
		if err != nil {
			b.fail(1, "%s: %v", q.Name, err)
			fmt.Fprintf(h, "%s|error\n", q.Name)
			continue
		}
		if b.reg != nil {
			w.queueWaitMs = append(w.queueWaitMs, float64(o.QueueWait)/1e6)
		}
		if fp := fleet.Fingerprint(o.Report.Result); fp != w.refs[q.Name] {
			b.fail(1, "%s via %s: result %s, host-native %s", q.Name, o.Chosen, fp, w.refs[q.Name])
		}
		fmt.Fprintf(h, "%s|%s|%t|%v\n", q.Name, o.Chosen, o.Degraded, o.Elapsed)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// submitWait is one closed-loop request: submit, then wait for the outcome.
func submitWait(ctx context.Context, s *sched.Scheduler, q *query.Query) (*sched.Outcome, error) {
	tk, err := s.Submit(ctx, q, sched.Normal)
	if err != nil {
		return nil, err
	}
	o, err := tk.Wait(ctx)
	if err != nil {
		return nil, err
	}
	if o.Err != nil {
		return nil, o.Err
	}
	if o.Report == nil || o.Report.Result == nil {
		return nil, fmt.Errorf("%s: outcome carries no result", q.Name)
	}
	return o, nil
}

func (w *fleetChaos) layers(b *bench, ph phase, r *report) error {
	// The scheduler makes the optimizer and fleet calls internally. Replay
	// them here, each right after the same query went through an idle
	// scheduler, on the fleet executor that scheduler wired (same admission
	// gate, same hedge calibration). The scheduler's overhead is the paired
	// difference; its median over the queries survives the machine's speed
	// drifting between the measured phase and the replay.
	s, fx := w.scheduler(nil)
	defer s.Close()
	ctx := context.Background()
	overheadMs := make([]float64, 0, len(w.order))
	for _, q := range w.order {
		op := b.nextOp()
		t0 := time.Now()
		if _, err := submitWait(ctx, s, q); err != nil {
			return err
		}
		waitMs := sinceMs(t0)
		t0 = time.Now()
		root := b.tr.begin("replay", -1, op)
		sp := b.tr.begin("optimizer.decide", root, op)
		d, err := w.opt.Decide(q)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("fleet.plan_shards", root, op)
		a, err := fleet.PlanShards(w.opt, w.desc, d)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		sp = b.tr.begin("fleet.run", root, op)
		_, err = fx.Run(a)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		b.tr.end(root)
		overheadMs = append(overheadMs, waitMs-sinceMs(t0))
	}
	st := b.tr.stats()
	r.set("optimizer.decide_ms", st["optimizer.decide"].MeanMs(), "ms")
	r.set("fleet.plan_shards_ms", st["fleet.plan_shards"].MeanMs(), "ms")
	r.set("fleet.run_ms", st["fleet.run"].MeanMs(), "ms")
	r.set("sched.overhead_ms", median(overheadMs), "ms")
	r.set("sched.queue_wait_ms", mean(w.queueWaitMs), "ms")
	c := func(name string) float64 { return float64(b.reg.Counter(name).Value()) }
	passes := float64(ph.passes)
	r.set("fleet.hedge.fired", c("fleet.hedge.fired")/passes, "count/pass")
	r.set("fleet.hedge.won_ratio", ratio(c("fleet.hedge.won"), c("fleet.hedge.fired")), "ratio")
	r.set("sched.fleet.shard.denied", c("sched.fleet.shard.denied")/passes, "count/pass")
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
