// Package coop implements hybridNDP's cooperative execution model (paper §4)
// and the baseline execution stacks. A hybrid run splits the physical plan
// at Hk, ships the NDP-PQEP to the device simulator, pre-builds the host
// PQEP's structures while the device performs its initial execution, and then
// consumes intermediate result sets slot by slot, so both engines overlap and
// only stall on each other when the shared buffer runs full (device) or
// empty (host). All interaction is priced on two virtual timelines whose
// rendezvous points reproduce the phase structure of paper Fig. 17 / Table 4.
package coop

import (
	"fmt"
	"strings"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/num"
	"hybridndp/internal/obs"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Kind selects the execution strategy.
type Kind int

// Execution strategies. BlockOnly and HostNative run the whole plan on the
// host over the BLK / native stacks (paper Fig. 10 baselines); NDPOnly
// offloads the complete plan; Hybrid splits it.
const (
	BlockOnly Kind = iota
	HostNative
	NDPOnly
	Hybrid
)

func (k Kind) String() string {
	switch k {
	case BlockOnly:
		return "block"
	case HostNative:
		return "native"
	case NDPOnly:
		return "ndp"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Strategy is a fully specified execution choice.
type Strategy struct {
	Kind Kind
	// Split is the number of join steps executed on device for Hybrid:
	// -1 = H0 (every leaf selection offloaded, all joins on host),
	// k ≥ 1 = Hk (leaves 0..k and joins 1..k offloaded).
	Split int
}

// SplitLabel renders H0..Hn / stack names.
func (s Strategy) String() string {
	if s.Kind != Hybrid {
		return s.Kind.String()
	}
	if s.Split < 0 {
		return "H0"
	}
	return fmt.Sprintf("H%d", s.Split)
}

// BatchEvent records one intermediate result set handoff for timeline plots.
type BatchEvent struct {
	Idx         int
	Rows        int
	Bytes       int64
	DeviceReady vclock.Time // device finished producing the slot
	HostFetched vclock.Time // host completed the transfer
	HostDone    vclock.Time // host finished processing the batch
}

// Report is the outcome of one execution.
type Report struct {
	Query    string
	Strategy Strategy
	Result   *exec.Result
	// Elapsed is the end-to-end virtual runtime (host completion).
	Elapsed vclock.Duration
	// DeviceElapsed is the device timeline's completion instant (zero for
	// host-only strategies).
	DeviceElapsed vclock.Duration

	HostAccount   map[string]vclock.Duration
	DeviceAccount map[string]vclock.Duration

	Batches          int
	TransferredBytes int64
	Timeline         []BatchEvent
	DeviceMemory     device.MemoryPlan

	// FaultRetries counts device-command retries forced by injected faults;
	// the wasted virtual time of every failed attempt is folded into Elapsed.
	FaultRetries int
	// FellBack reports that the run abandoned the device after exhausting its
	// retries and re-executed the whole plan host-only.
	FellBack bool
}

// Profile aggregates the report's timeline accounts into the paper's phase
// structure (obs.QueryProfile): host phases partition the end-to-end virtual
// runtime, device phases the device timeline span, with explicit stall
// accounting.
func (r *Report) Profile() *obs.QueryProfile {
	var dev map[string]vclock.Duration
	if len(r.DeviceAccount) > 0 {
		dev = r.DeviceAccount
	}
	return obs.Profile(r.Query, r.Strategy.String(), r.HostAccount, dev, r.Elapsed, r.DeviceElapsed)
}

// WaitInitial reports the host's initial stall waiting for the first device
// result (Fig. 17 / Table 4 "Wait (initial device exec.)").
func (r *Report) WaitInitial() vclock.Duration { return r.HostAccount[hw.CatWaitInitial] }

// WaitFetch reports host stalls on later batches.
func (r *Report) WaitFetch() vclock.Duration { return r.HostAccount[hw.CatWaitFetch] }

// DeviceWaitSlots reports device stalls on exhausted buffer slots.
func (r *Report) DeviceWaitSlots() vclock.Duration { return r.DeviceAccount[hw.CatWaitSlots] }

// CacheFormat overrides the device's intermediate-result cache format.
type CacheFormat int

// Cache format overrides (paper §4.2): Auto switches to pointer format above
// two tables; the forced settings exist for the ablation benchmarks.
const (
	CacheAuto CacheFormat = iota
	CacheRow
	CachePointer
)

// Executor runs plans under any strategy.
type Executor struct {
	Cat   *table.Catalog
	DB    *kv.DB
	Model hw.Model
	// Chunks overrides the driving-table partition count (0 = auto).
	Chunks int
	// CacheFormat overrides the device cache-structure choice.
	CacheFormat CacheFormat
	// Metrics receives per-run counters/histograms (batches, transfer volume,
	// stall time, cache hit rates). Nil disables metric recording; the
	// registry is race-safe, so one registry may be shared by concurrent runs.
	Metrics *obs.Registry
	// Faults, when set to an enabled plan, deterministically injects device
	// faults (see internal/fault): flash read errors and per-batch
	// stall/crash/corruption on device strategies. Host-side execution — and
	// therefore the fallback path — is never injected: the smart-storage
	// device is the unreliable component of the model.
	Faults *fault.Plan
	// MaxRetries caps device-command retries before host-only fallback
	// (0 = default of 2, negative = no retries).
	MaxRetries int
	// Budget, when set, is the global token-bucket retry budget shared by
	// every run of this executor (and, in fleet settings, with shard hedges):
	// each retry spends a token, each successful run refills a fraction, and
	// a drained bucket sends faulted runs straight to the host fallback so a
	// fault storm cannot amplify into a retry storm. Nil = unlimited.
	Budget *fault.RetryBudget
	// Deadline is the default per-run virtual-time budget (0 = none): once a
	// faulted device attempt can no longer finish inside it, the run stops
	// retrying and falls back to the host immediately. RunDeadline overrides
	// it per run.
	Deadline vclock.Duration
	// BatchSize sets the row capacity of the columnar batches the engines
	// this executor builds process at a time (0 = exec.DefaultBatchSize).
	// Virtual-time charges are byte-identical for every value; the knob only
	// trades wall-clock locality against scratch memory.
	BatchSize int
}

// maxRetries resolves the retry cap.
func (x *Executor) maxRetries() int {
	if x.MaxRetries < 0 {
		return 0
	}
	if x.MaxRetries == 0 {
		return 2
	}
	return x.MaxRetries
}

// injectorFor derives the per-run fault injector. The stream is keyed by
// query and strategy, so concurrent scheduling order can never perturb a
// run's fault episode. Nil when fault injection is disabled.
func (x *Executor) injectorFor(p *exec.Plan, s Strategy) *fault.Injector {
	in := x.Faults.Injector(p.Query.Name + "|" + s.String())
	in.Bind(x.Metrics)
	return in
}

// applyCacheFormat applies the override to a device engine.
func (x *Executor) applyCacheFormat(eng *exec.Engine) {
	switch x.CacheFormat {
	case CacheRow:
		eng.PointerCache = false
	case CachePointer:
		eng.PointerCache = true
	}
}

// NewExecutor builds an executor over the catalog.
func NewExecutor(cat *table.Catalog, db *kv.DB, m hw.Model) *Executor {
	return &Executor{Cat: cat, DB: db, Model: m}
}

// hostCache builds a fresh host block cache sized as the model's fraction of
// the stored dataset (MyRocks block cache under the paper's memory-pressure
// ratio). Every run starts cold so strategy comparisons are
// order-independent.
func (x *Executor) hostCache() *lsm.BlockCache {
	bytes := int64(float64(x.DB.Flash().Used()) * x.Model.HostCacheFraction)
	return lsm.NewBlockCache(bytes)
}

// Run executes the plan under the given strategy.
func (x *Executor) Run(p *exec.Plan, s Strategy) (*Report, error) {
	return x.RunTraced(p, s, nil)
}

// RunTraced executes the plan under the given strategy, recording structured
// spans into tr (nil tr disables tracing at the cost of a pointer test per
// span site). The trace is per-run state, so one Executor can serve
// concurrent traced runs, each with its own Trace.
func (x *Executor) RunTraced(p *exec.Plan, s Strategy, tr *obs.Trace) (*Report, error) {
	return x.RunDeadline(p, s, tr, x.Deadline)
}

// RunDeadline executes like RunTraced under an explicit per-run virtual-time
// deadline (0 = none). The deadline is advisory for fault recovery, not a
// hard abort: a fault-free run past its deadline still completes (the serve
// layer accounts the SLO miss), but a faulted run whose next device attempt
// cannot fit inside the remaining budget skips the retries and re-executes
// host-side at once — the cheapest completion still available.
func (x *Executor) RunDeadline(p *exec.Plan, s Strategy, tr *obs.Trace, deadline vclock.Duration) (*Report, error) {
	var rep *Report
	var err error
	switch s.Kind {
	case BlockOnly:
		rep, err = x.runHostOnly(p, s, hw.BlockStackRates(x.Model), tr)
	case HostNative:
		rep, err = x.runHostOnly(p, s, hw.HostRates(x.Model), tr)
	case NDPOnly:
		rep, err = x.runNDPOnly(p, s, tr, deadline)
	case Hybrid:
		rep, err = x.runHybrid(p, s, tr, deadline)
	default:
		return nil, fmt.Errorf("coop: unknown strategy %v", s.Kind)
	}
	if err != nil {
		return nil, err
	}
	if rep.FaultRetries == 0 && !rep.FellBack {
		x.Budget.OnSuccess()
	}
	x.recordRun(rep)
	return rep, nil
}

// recordRun publishes one finished run's outcome into the metrics registry
// (no-op on a nil registry).
func (x *Executor) recordRun(r *Report) {
	m := x.Metrics
	if m == nil {
		return
	}
	m.Counter("coop.runs." + r.Strategy.Kind.String()).Inc()
	m.Histogram("coop.elapsed.ns", obs.DefaultDurationBuckets).Observe(float64(r.Elapsed))
	if r.Batches > 0 {
		m.Counter("coop.batches").Add(int64(r.Batches))
		m.Histogram("coop.batch.count", obs.DefaultSizeBuckets).Observe(float64(r.Batches))
	}
	if r.TransferredBytes > 0 {
		m.Counter("coop.transfer.bytes").Add(r.TransferredBytes)
	}
	m.Counter("coop.stall.host.initial.ns").Add(int64(r.WaitInitial()))
	m.Counter("coop.stall.host.fetch.ns").Add(int64(r.WaitFetch()))
	m.Counter("coop.stall.device.slots.ns").Add(int64(r.DeviceWaitSlots()))
}

// recordStorage publishes a host engine's storage-path observability: block
// cache hit/miss counts plus the derived hit rate, and Bloom-filter probe
// outcomes (no-op on a nil registry). Counters only ever accumulate virtual
// simulation outcomes, so the dump stays deterministic.
func (x *Executor) recordStorage(eng *exec.Engine) {
	m := x.Metrics
	if m == nil || eng == nil {
		return
	}
	if eng.Cache != nil {
		hits, misses, _ := eng.Cache.Stats()
		m.Counter("coop.host.cache.hits").Add(hits)
		m.Counter("coop.host.cache.misses").Add(misses)
		h := m.Counter("coop.host.cache.hits").Value()
		n := h + m.Counter("coop.host.cache.misses").Value()
		if n > 0 {
			m.Gauge("coop.host.cache.hitrate").Set(float64(h) / float64(n))
		}
	}
	if neg, pos := eng.Bloom.Counts(); neg+pos > 0 {
		m.Counter("coop.host.bloom.negative").Add(neg)
		m.Counter("coop.host.bloom.positive").Add(pos)
	}
}

// instrument attaches per-run Bloom-filter stats to a host engine when a
// metrics registry is bound.
func (x *Executor) instrument(eng *exec.Engine) *exec.Engine {
	if x.Metrics != nil {
		eng.Bloom = &lsm.BloomStats{}
	}
	return eng
}

// runHostOnly executes the whole plan on the host stack. All table data
// crosses the interconnect as part of the host flash path.
func (x *Executor) runHostOnly(p *exec.Plan, s Strategy, rates hw.Rates, tr *obs.Trace) (*Report, error) {
	tl := vclock.NewTimeline("host")
	eng := x.instrument(&exec.Engine{Cat: x.Cat, TL: tl, R: rates, Cache: x.hostCache(), BatchSize: x.BatchSize})
	root := tr.Start(tl, "query:"+p.Query.Name).Attr("strategy", s.String())
	res, err := eng.RunPlan(p)
	root.End()
	if err != nil {
		return nil, err
	}
	x.recordStorage(eng)
	return &Report{
		Query:       p.Query.Name,
		Strategy:    s,
		Result:      res,
		Elapsed:     vclock.Duration(tl.Now()),
		HostAccount: tl.Account(),
	}, nil
}

// snapshotFor captures the shared state for the device-read tables.
func (x *Executor) snapshotFor(p *exec.Plan, split int) (*kv.Snapshot, error) {
	var names []string
	add := func(ref exec.AccessPath) {
		names = append(names, "tbl."+ref.Ref.Table)
	}
	add(p.Driving)
	limit := len(p.Steps)
	if split >= 0 {
		limit = split
	}
	for i := 0; i < limit; i++ {
		add(p.Steps[i].Right)
	}
	return x.DB.TakeSnapshot(names)
}

// chunkCount sizes the driving-table partitioning so a chunk's result set
// lands near the shared-buffer slot size.
func (x *Executor) chunkCount(p *exec.Plan) int {
	if x.Chunks > 0 {
		return x.Chunks
	}
	t, err := x.Cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return 8
	}
	st := t.CollectStats()
	bytes := float64(st.TotalBytes())
	c := int(bytes / float64(4*x.Model.SharedBufferSlot))
	if c < 4 {
		c = 4
	}
	if c > 64 {
		c = 64
	}
	return c
}

// withRecovery drives a device strategy to completion on hostTL. attempt runs
// one full device-side execution and returns the device timeline's position
// at exit; injected faults (crash, corruption, flash read errors) are retried
// with capped exponential backoff after the host has waited out the failed
// attempt, and once maxRetries is exhausted the original plan re-executes
// host-only on the same timeline. Every failed attempt's virtual time is
// therefore folded into the final report's Elapsed. Non-injected errors
// (planning bugs, validation) propagate immediately.
//
// Two more guards cut the retry loop short: a per-run deadline (a retry whose
// backoff alone pushes past the remaining virtual budget is pointless — the
// host fallback is the only completion left worth buying) and the shared
// retry budget (a drained bucket means the system is already saturated with
// recovery work, so this run must not add more device attempts).
func (x *Executor) withRecovery(orig *exec.Plan, s Strategy, tr *obs.Trace,
	hostTL *vclock.Timeline, deadline vclock.Duration, attempt func() (*Report, vclock.Time, error)) (*Report, error) {

	retries := 0
	for {
		rep, devNow, err := attempt()
		if err == nil {
			rep.FaultRetries = retries
			return rep, nil
		}
		if !fault.Injected(err) {
			return nil, err
		}
		if retries >= x.maxRetries() {
			return x.fallbackHost(orig, s, tr, hostTL, devNow, retries, err)
		}
		if deadline > 0 && vclock.Duration(devNow)+retryBackoff(retries+1) >= deadline {
			if m := x.Metrics; m != nil {
				m.Counter("coop.deadline.fallback").Inc()
			}
			return x.fallbackHost(orig, s, tr, hostTL, devNow, retries, err)
		}
		if !x.Budget.Allow() {
			if m := x.Metrics; m != nil {
				m.Counter("coop.retry.budget_exhausted").Inc()
			}
			return x.fallbackHost(orig, s, tr, hostTL, devNow, retries, err)
		}
		retries++
		// The host discovers the failure no earlier than the device reached
		// it, then backs off before reissuing the command.
		rsp := tr.Start(hostTL, "coop.retry").AttrInt("attempt", int64(retries)).
			Attr("cause", err.Error())
		hostTL.WaitUntil(devNow, hw.CatFaultWait)
		hostTL.Charge(hw.CatBackoff, retryBackoff(retries))
		rsp.End()
		if m := x.Metrics; m != nil {
			m.Counter("coop.retry").Inc()
		}
	}
}

// retryBackoff is the capped exponential backoff before retry n (1-based):
// 100µs doubling per attempt, capped at 5ms.
func retryBackoff(n int) vclock.Duration {
	d := vclock.Duration(100e3)
	for i := 1; i < n; i++ {
		d *= 2
	}
	if d > vclock.Duration(5e6) {
		d = vclock.Duration(5e6)
	}
	return d
}

// fallbackHost re-executes the original plan host-only after the device was
// given up on. It runs on the same host timeline, so the report's Elapsed
// includes everything wasted on the failed device attempts.
func (x *Executor) fallbackHost(p *exec.Plan, s Strategy, tr *obs.Trace,
	hostTL *vclock.Timeline, devNow vclock.Time, retries int, cause error) (*Report, error) {

	if m := x.Metrics; m != nil {
		m.Counter("coop.fallback.host").Inc()
	}
	fsp := tr.Start(hostTL, "coop.fallback.host").Attr("cause", cause.Error())
	hostTL.WaitUntil(devNow, hw.CatFaultWait)
	eng := x.instrument(&exec.Engine{Cat: x.Cat, TL: hostTL, R: hw.HostRates(x.Model), Cache: x.hostCache(), BatchSize: x.BatchSize})
	res, err := eng.RunPlan(p)
	fsp.End()
	if err != nil {
		return nil, err
	}
	x.recordStorage(eng)
	return &Report{
		Query:        p.Query.Name,
		Strategy:     s,
		Result:       res,
		Elapsed:      vclock.Duration(hostTL.Now()),
		HostAccount:  hostTL.Account(),
		FaultRetries: retries,
		FellBack:     true,
	}, nil
}

// runNDPOnly offloads the complete plan including grouping/aggregation; the
// host only issues the command and fetches the final result.
func (x *Executor) runNDPOnly(p *exec.Plan, s Strategy, tr *obs.Trace, deadline vclock.Duration) (*Report, error) {
	snap, err := x.snapshotFor(p, -1) // full plan: all tables device-read
	if err != nil {
		return nil, err
	}
	cmd := &device.Command{Plan: p, SplitAfter: len(p.Steps), Snapshot: snap, Chunks: 1}
	mp := device.PlanMemory(x.Model, p, cmd.SplitAfter)
	inj := x.injectorFor(p, s)
	hostTL := vclock.NewTimeline("host")
	hostR := hw.HostRates(x.Model)

	root := tr.Start(hostTL, "query:"+p.Query.Name).Attr("strategy", s.String())
	defer root.End()

	return x.withRecovery(p, s, tr, hostTL, deadline, func() (*Report, vclock.Time, error) {
		dev := device.New(x.Model, x.Cat)
		dev.BatchSize = x.BatchSize
		dev.Trace = tr
		dev.Metrics = x.Metrics
		dev.Faults = inj
		if err := dev.Validate(cmd); err != nil {
			return nil, dev.TL.Now(), err
		}
		eng := dev.Engine(mp)
		x.applyCacheFormat(eng)
		eng.Views = snapshotViews(snap)

		devRoot := tr.Start(dev.TL, "device:"+p.Query.Name).Attr("strategy", s.String())

		// NDP setup: the command (plan, placements, shared state) crosses PCIe.
		sp := tr.Start(hostTL, "ndp.setup").AttrInt("cmd.bytes", cmd.Bytes())
		setup := hostR.Interconnect.Transfer(cmd.Bytes(), cmd.Bytes())
		hostTL.Charge(hw.CatNDPSetup, setup)
		sp.End()
		dsp := tr.Start(dev.TL, "device.setup.wait")
		dev.TL.WaitUntil(hostTL.Now(), hw.CatNDPSetup)
		dsp.End()

		dsp = tr.Start(dev.TL, "device.plan")
		res, err := eng.RunPlan(p)
		if err == nil && inj != nil {
			// The final result ships as one batch: give the injector its
			// per-batch shot at stalling or crashing the command.
			ev := inj.BeforeEmit()
			if ev.Stall > 0 {
				dev.TL.Charge(hw.CatFaultStall, ev.Stall)
			}
			if ev.Crash != nil {
				err = fmt.Errorf("device: final result: %w", ev.Crash)
			}
		}
		dsp.End()
		devRoot.End()
		if err != nil {
			return nil, dev.TL.Now(), err
		}
		// Host waits for device completion, then transfers the final result.
		sp = tr.Start(hostTL, "host.wait.device")
		hostTL.WaitUntil(dev.TL.Now(), hw.CatWaitInitial)
		sp.End()
		sp = tr.Start(hostTL, "transfer.result").AttrInt("bytes", res.Bytes)
		hostR.Transfer(hostTL, res.Bytes, x.Model.SharedBufferSlot)
		sp.End()

		return &Report{
			Query:            p.Query.Name,
			Strategy:         s,
			Result:           res,
			Elapsed:          vclock.Duration(hostTL.Now()),
			DeviceElapsed:    vclock.Duration(dev.TL.Now()),
			HostAccount:      hostTL.Account(),
			DeviceAccount:    dev.TL.Account(),
			TransferredBytes: res.Bytes,
			DeviceMemory:     mp,
		}, dev.TL.Now(), nil
	})
}

// runHybrid is the cooperative execution path.
func (x *Executor) runHybrid(orig *exec.Plan, s Strategy, tr *obs.Trace, deadline vclock.Duration) (*Report, error) {
	p := orig
	split := s.Split
	if split == 0 {
		split = -1 // H0
	}
	if split > len(p.Steps) {
		return nil, fmt.Errorf("coop: split H%d exceeds the plan's %d joins", split, len(p.Steps))
	}
	// Join-free (single-table) plans execute as H0: the device scans and
	// filters the base table, ships survivor chunks through the shared
	// buffer, and the host finalizes (projection / aggregation). Interior
	// splits are rejected above since len(p.Steps) == 0.
	if split < 0 {
		// H0 joins device-shipped leaf rows on the host: every step becomes
		// a buffered join over the seeded inner sides; index joins against
		// the base tables would discard the offloaded selections.
		p2 := *p
		p2.Steps = append([]exec.JoinStep(nil), p.Steps...)
		for i := range p2.Steps {
			if p2.Steps[i].Type == exec.BNLI {
				p2.Steps[i].Type = exec.BNL
			}
		}
		p = &p2
	}
	snap, err := x.snapshotFor(p, split)
	if err != nil {
		return nil, err
	}
	mp := device.PlanMemory(x.Model, p, split)
	inj := x.injectorFor(p, s)
	hostTL := vclock.NewTimeline("host")
	hostR := hw.HostRates(x.Model)

	root := tr.Start(hostTL, "query:"+p.Query.Name).Attr("strategy", s.String())
	defer root.End()

	// The fallback re-executes the ORIGINAL plan (with its BNLI index joins
	// intact): the H0 rewrite only makes sense with device-seeded inners.
	return x.withRecovery(orig, s, tr, hostTL, deadline, func() (*Report, vclock.Time, error) {
		dev := device.New(x.Model, x.Cat)
		dev.BatchSize = x.BatchSize
		dev.Trace = tr
		dev.Metrics = x.Metrics
		dev.Faults = inj
		cmd := &device.Command{Plan: p, SplitAfter: split, Snapshot: snap, Chunks: x.chunkCount(p)}
		if err := dev.Validate(cmd); err != nil {
			return nil, dev.TL.Now(), err
		}
		devEng := dev.Engine(mp)
		x.applyCacheFormat(devEng)
		devEng.Views = snapshotViews(snap)

		hostEng := x.instrument(&exec.Engine{Cat: x.Cat, TL: hostTL, R: hostR, Cache: x.hostCache(), BatchSize: x.BatchSize})

		// The two engines share one pipeline: the device owns the inner state
		// of its join steps, the host owns the rest. Each attempt starts from
		// a fresh pipeline (and device), so a retried command replays its
		// builds and scans instead of resuming half-poisoned state.
		pl, err := hostEng.StartPipeline(p)
		if err != nil {
			return nil, dev.TL.Now(), err
		}

		devRoot := tr.Start(dev.TL, "device:"+p.Query.Name).Attr("strategy", s.String()).
			AttrInt("chunks", int64(cmd.Chunks))

		// (A) NDP invocation.
		sp := tr.Start(hostTL, "ndp.setup").AttrInt("cmd.bytes", cmd.Bytes())
		setup := hostR.Interconnect.Transfer(cmd.Bytes(), cmd.Bytes())
		hostTL.Charge(hw.CatNDPSetup, setup)
		sp.End()
		dsp := tr.Start(dev.TL, "device.setup.wait")
		dev.TL.WaitUntil(hostTL.Now(), hw.CatNDPSetup)
		dsp.End()

		// Host prep overlaps the device's initial execution: build the hash
		// tables of the host-side buffered joins now.
		hostFrom := 0
		if split > 0 {
			hostFrom = split
		}
		if split > 0 { // Hk: host joins steps[split:]; inners are host-scanned.
			for si := hostFrom; si < len(p.Steps); si++ {
				if p.Steps[si].Type != exec.BNLI {
					bsp := tr.Start(hostTL, "host.build.inner").
						Attr("alias", p.Steps[si].Right.Ref.Alias).AttrInt("step", int64(si))
					_, err := hostEng.BuildInner(pl, si)
					bsp.End()
					if err != nil {
						// Close the device root span before abandoning the
						// attempt: leaving it open corrupts the per-timeline
						// span stack for the fault-injection retry that
						// replays this command on the same trace.
						devRoot.End()
						return nil, dev.TL.Now(), err
					}
				}
			}
		}

		report := &Report{Query: p.Query.Name, Strategy: s, DeviceMemory: mp}
		tuples := new(exec.TupleSet)
		var fetchDone []vclock.Time
		first := true

		emit := func(b device.Batch) error {
			cat := hw.CatWaitFetch
			spName := "host.wait.fetch"
			if first {
				cat = hw.CatWaitInitial
				spName = "host.wait.initial"
			}
			idx := int64(report.Batches)
			wsp := tr.Start(hostTL, spName).AttrInt("batch", idx)
			stall := hostTL.WaitUntil(b.Ready, cat)
			wsp.Attr("stall", stall.String()).End()
			first = false
			tsp := tr.Start(hostTL, "host.fetch").AttrInt("batch", idx).AttrInt("bytes", b.Bytes)
			hostR.Transfer(hostTL, num.MaxI64(b.Bytes, 64), x.Model.SharedBufferSlot)
			tsp.End()
			fetchDone = append(fetchDone, hostTL.Now())
			report.TransferredBytes += b.Bytes
			report.Batches++
			if b.Sum != 0 {
				// Sealed batch (fault injection active): corrupt in transit
				// per the plan, then verify the checksum host-side.
				if inj.TransferCorrupt() {
					b.CorruptInTransfer()
				}
				if verr := b.Verify(); verr != nil {
					return fmt.Errorf("batch %d: %w", idx, verr)
				}
			}

			ev := BatchEvent{
				Idx:         report.Batches - 1,
				Bytes:       b.Bytes,
				DeviceReady: b.Ready,
				HostFetched: hostTL.Now(),
			}

			psp := tr.Start(hostTL, "host.process.batch").AttrInt("batch", idx)
			if b.LeafAlias != "" {
				// H0 leaf batch: the column batch seeds the host join's inner
				// side directly.
				psp.Attr("leaf", b.LeafAlias)
				for si, st := range p.Steps {
					if st.Right.Ref.Alias == b.LeafAlias {
						if seedErr := hostEng.SeedInnerCols(pl, si, b.Cols); seedErr != nil {
							psp.End()
							return seedErr
						}
						break
					}
				}
				ev.Rows = b.Cols.Len()
			} else {
				// Driving-chunk batch: run it through the host PQEP.
				batch := b.Tuples
				ev.Rows = batch.Len()
				for si := hostFrom; si < len(p.Steps); si++ {
					jsp := tr.Start(hostTL, "host.join").AttrInt("step", int64(si)).
						AttrInt("in.rows", int64(batch.Len()))
					var jerr error
					batch, jerr = hostEng.JoinStep(pl, si, batch)
					jsp.AttrInt("out.rows", int64(batch.Len())).End()
					if jerr != nil {
						psp.End()
						return jerr
					}
				}
				tuples.Append(batch)
			}
			psp.AttrInt("rows", int64(ev.Rows)).End()
			if m := x.Metrics; m != nil {
				m.Histogram("coop.batch.rows", obs.DefaultSizeBuckets).Observe(float64(ev.Rows))
				m.Histogram("coop.batch.bytes", obs.DefaultSizeBuckets).Observe(float64(b.Bytes))
			}
			ev.HostDone = hostTL.Now()
			report.Timeline = append(report.Timeline, ev)
			return nil
		}
		waitSlot := func(j int) (vclock.Time, bool) {
			if j < len(fetchDone) {
				return fetchDone[j], true
			}
			return 0, false
		}

		runErr := dev.Run(cmd, pl, devEng, emit, waitSlot)
		devRoot.End()
		if runErr != nil {
			return nil, dev.TL.Now(), runErr
		}

		fsp := tr.Start(hostTL, "host.finalize").AttrInt("rows", int64(tuples.Len()))
		res, err := hostEng.Finalize(pl, tuples)
		fsp.End()
		if err != nil {
			return nil, dev.TL.Now(), err
		}
		x.recordStorage(hostEng)
		report.Result = res
		report.Elapsed = vclock.Duration(hostTL.Now())
		report.DeviceElapsed = vclock.Duration(dev.TL.Now())
		report.HostAccount = hostTL.Account()
		report.DeviceAccount = dev.TL.Account()
		return report, dev.TL.Now(), nil
	})
}

// snapshotViews extracts the frozen per-table views from the shared-state
// snapshot (update-aware NDP): the device engine reads through them, so
// host writes issued after the invocation stay invisible on device.
func snapshotViews(snap *kv.Snapshot) map[string]*lsm.View {
	views := make(map[string]*lsm.View, len(snap.CFs))
	for name, cf := range snap.CFs {
		views[strings.TrimPrefix(name, "tbl.")] = cf.View
	}
	return views
}
