package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
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

// Gate is the fleet's per-shard admission hook (wired to the scheduler's
// device ledger and breakers). AdmitShard asks to run a device-side shard on
// device dev; a denial degrades that shard to host execution instead of
// failing the query. The returned release must be called exactly once with
// the shard's outcome and its device-busy virtual time. A nil Gate admits
// everything.
type Gate interface {
	AdmitShard(dev int, memBytes int64, estNs float64) (release func(ok bool, busyNs float64), admitted bool)
}

// ShardReport is one device's contribution to a fleet run.
type ShardReport struct {
	Device     int
	Split      int
	Partitions int
	Frac       float64
	// Rows counts driving tuples plus leaf rows the shard produced.
	Rows    int64
	Batches int
	Elapsed vclock.Duration
	Account map[string]vclock.Duration
	// Degraded marks a device-planned shard the admission gate refused; its
	// partitions executed host-side instead.
	Degraded bool
	// Crashed marks a shard whose device command died on an injected fault;
	// its partitions executed host-side instead.
	Crashed bool
	// Hedged marks a shard whose host-native backup beat the device on the
	// virtual timeline (or whose device result would have blown the request
	// deadline); the merge consumed the host backup's rows.
	Hedged bool
	Reason string
}

// Report is the outcome of one scatter-gather fleet execution.
type Report struct {
	Query  string
	Mode   string
	Result *exec.Result
	// Elapsed is the host timeline's completion instant (merge + finalize).
	Elapsed     vclock.Duration
	HostAccount map[string]vclock.Duration

	Batches          int
	TransferredBytes int64
	Devices          int
	DegradedShards   int
	// CrashedShards counts shards abandoned to the host after an injected
	// device crash; CorruptBatches counts batches that failed host-side
	// checksum verification (their partitions re-ran host-side).
	CrashedShards  int
	CorruptBatches int
	// HedgesFired / HedgesWon / HedgesLost account hedged shard execution:
	// fired = a host backup was launched for a slow shard, won = the backup's
	// estimated finish beat the device and the merge used the host rows,
	// lost = the device still finished first and the backup was cancelled.
	HedgesFired int
	HedgesWon   int
	HedgesLost  int
	// DeadlineDegraded counts shards routed to host-side execution because
	// their device completion would have blown the request deadline.
	DeadlineDegraded int
	Shards           []ShardReport
}

// Executor fans per-partition NDP-PQEPs out over the fleet and gathers the
// partial results on the host. All devices run on independent virtual
// timelines anchored at their command-setup instants; the host merge
// consumes shard batches in ascending driving-partition order (never in
// completion order), so the merged tuple stream — and the finalized result —
// is byte-identical to a single-device run for every fleet size.
type Executor struct {
	Cat   *table.Catalog
	DB    *kv.DB
	Model hw.Model
	Desc  *Descriptor
	// Gate is the per-shard admission hook; nil admits every shard.
	Gate Gate
	// Chunks overrides the global driving-table chunk count (0 = auto); each
	// shard gets its per-device share.
	Chunks int
	// BatchSize sets the columnar batch row capacity of every engine this
	// executor builds (0 = exec.DefaultBatchSize); charges are byte-identical
	// at every size.
	BatchSize int
	// Faults, when set to an enabled plan, injects per-device faults into the
	// scatter path (device-scoped entries like "dev1:dev.stall=2ms" hit only
	// that fleet member). A crashed shard degrades to host-side execution at
	// its merge position; a corrupt batch re-runs its partition host-side.
	Faults *fault.Plan
	// Metrics receives fleet counters (hedges, crashes, degradations); the
	// registry is race-safe and may be shared. Nil disables recording.
	Metrics *obs.Registry
	// Budget, when set, is the shared retry/hedge token budget: launching a
	// shard hedge spends one token, and a drained bucket suppresses hedging
	// so fault storms cannot amplify. Nil = unlimited.
	Budget *fault.RetryBudget
	// Hedge configures hedged shard execution (disabled by default).
	Hedge HedgeConfig
}

// HedgeConfig tunes hedged shard execution: once a shard's device elapsed
// virtual time exceeds Mult × the Quantile of the admitted shards' EstDevNs
// (optionally rescaled by the scheduler's EWMA device-calibration factor via
// Scale), a host-native backup for that shard is launched at the threshold
// instant, and the merge takes whichever side finishes first on the virtual
// timeline. Both sides produce the identical tuple stream for the shard's
// partitions, so fingerprints are unchanged whichever wins.
type HedgeConfig struct {
	// Enabled turns hedging on.
	Enabled bool
	// Quantile of the admitted shards' device estimates that anchors the
	// threshold (0 = 0.5, the median).
	Quantile float64
	// Mult scales the quantile into the launch threshold (0 = 3): a shard
	// must look Mult× slower than the typical shard estimate before the
	// backup spends host work.
	Mult float64
	// Scale, when set, rescales the threshold by the scheduler's learned
	// device calibration factor so hedge launches track real device speed
	// rather than raw model estimates.
	Scale func() float64
}

// NewExecutor builds a fleet executor over the catalog and descriptor.
func NewExecutor(cat *table.Catalog, db *kv.DB, m hw.Model, desc *Descriptor) *Executor {
	return &Executor{Cat: cat, DB: db, Model: m, Desc: desc}
}

// hostCache mirrors the cooperative executor's cold host block cache.
func (x *Executor) hostCache() *lsm.BlockCache {
	bytes := int64(float64(x.DB.Flash().Used()) * x.Model.HostCacheFraction)
	return lsm.NewBlockCache(bytes)
}

// snapshotFor captures shared state for the device-read tables (driving plus
// the inner tables of the first `split` steps; split < 0 = all).
func (x *Executor) snapshotFor(p *exec.Plan, split int) (*kv.Snapshot, error) {
	names := []string{"tbl." + p.Driving.Ref.Table}
	limit := len(p.Steps)
	if split >= 0 && split < limit {
		limit = split
	}
	for i := 0; i < limit; i++ {
		names = append(names, "tbl."+p.Steps[i].Right.Ref.Table)
	}
	return x.DB.TakeSnapshot(names)
}

// chunkCount mirrors the cooperative executor's driving-chunk sizing; each
// fleet shard then takes its per-device share (+1 so a shard never rounds to
// zero chunks).
func (x *Executor) chunkCount(p *exec.Plan) int {
	if x.Chunks > 0 {
		return x.Chunks
	}
	t, err := x.Cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return 8
	}
	bytes := float64(t.CollectStats().TotalBytes())
	c := int(bytes / float64(4*x.Model.SharedBufferSlot))
	if c < 4 {
		c = 4
	}
	if c > 64 {
		c = 64
	}
	return c
}

// snapshotViews extracts the frozen per-table views from the snapshot.
func snapshotViews(snap *kv.Snapshot) map[string]*lsm.View {
	views := make(map[string]*lsm.View, len(snap.CFs))
	for name, cf := range snap.CFs {
		views[strings.TrimPrefix(name, "tbl.")] = cf.View
	}
	return views
}

// leafKey addresses one inner table's partition scan: step index within the
// plan plus partition index within the table's descriptor entry.
type leafKey struct{ step, part int }

// Run executes a planned assignment over the fleet.
func (x *Executor) Run(a *Assignment) (*Report, error) {
	return x.RunTraced(a, nil, 0)
}

// RunTraced executes a planned assignment with structured spans on the host
// timeline and an optional per-request virtual-time deadline (0 = none). The
// deadline never aborts the request: a shard whose device completion would
// land past the deadline is degraded to host-side execution at its merge
// position — the same partition-preserving path an admission denial takes —
// so the host stops waiting on stragglers it can out-run.
func (x *Executor) RunTraced(a *Assignment, tr *obs.Trace, deadline vclock.Duration) (*Report, error) {
	p := a.Plan
	rep := &Report{Query: p.Query.Name, Mode: a.Mode, Devices: x.Desc.Devices}
	hostTL := vclock.NewTimeline("host")
	hostR := hw.HostRates(x.Model)
	hostEng := &exec.Engine{Cat: x.Cat, TL: hostTL, R: hostR, Cache: x.hostCache(), BatchSize: x.BatchSize}

	root := tr.Start(hostTL, "query:"+p.Query.Name).Attr("strategy", "fleet:"+a.Label())
	defer root.End()

	// A host-global decision never scatters: the whole plan runs on the host
	// exactly like the cooperative baseline.
	if a.Mode == ModeHost {
		res, err := hostEng.RunPlan(p)
		if err != nil {
			return nil, err
		}
		rep.Result = res
		rep.Elapsed = vclock.Duration(hostTL.Now())
		rep.HostAccount = hostTL.Account()
		return rep, nil
	}

	// H0 joins device-shipped leaf rows on the host: index joins against the
	// base tables would discard the offloaded selections (same plan-copy
	// coercion as the cooperative H0 path).
	if a.Mode == ModeH0 && len(p.Steps) > 0 {
		p2 := *p
		p2.Steps = append([]exec.JoinStep(nil), p.Steps...)
		for i := range p2.Steps {
			if p2.Steps[i].Type == exec.BNLI {
				p2.Steps[i].Type = exec.BNL
			}
		}
		p = &p2
	}

	// Per-shard admission. A denied device-planned shard degrades to host
	// execution of its partitions; planned host shards (hybrid Split == 0)
	// never claim device resources.
	nDev := x.Desc.Devices
	releases := make([]func(ok bool, busyNs float64), nDev)
	degraded := make([]bool, nDev)
	wantsDevice := func(dev int) bool {
		return !(a.Mode == ModeHybrid && a.Shards[dev].Split == 0)
	}
	released := false
	releaseAll := func(ok bool, busy func(dev int) float64) {
		if released {
			return
		}
		released = true
		for dev, rel := range releases {
			if rel != nil {
				rel(ok, busy(dev))
			}
		}
	}
	defer releaseAll(false, func(int) float64 { return 0 })
	for dev := 0; dev < nDev; dev++ {
		if !wantsDevice(dev) {
			continue
		}
		if x.Gate == nil {
			continue
		}
		sp := a.Shards[dev]
		rel, ok := x.Gate.AdmitShard(dev, sp.Mem.TotalBytes, sp.EstDevNs)
		if !ok {
			degraded[dev] = true
			rep.DegradedShards++
			continue
		}
		releases[dev] = rel
	}
	crashed := make([]bool, nDev)
	healthy := func(dev int) bool { return wantsDevice(dev) && !degraded[dev] && !crashed[dev] }

	anyDevice := false
	maxSplit := -1
	for dev := 0; dev < nDev; dev++ {
		if healthy(dev) {
			anyDevice = true
			if s := a.Shards[dev].Split; s > maxSplit {
				maxSplit = s
			}
		}
	}
	if a.Mode == ModeH0 {
		maxSplit = -1 // leaf offload reads every inner table on device
	}

	pl, err := hostEng.StartPipeline(p)
	if err != nil {
		return nil, err
	}

	// Scatter phase: each admitted device gets its own command, engine and
	// pipeline, so inner builds and scans charge the owning device's
	// timeline. Devices are visited in ascending id — their timelines are
	// independent, so code order only fixes determinism, not virtual
	// concurrency.
	var snap *kv.Snapshot
	if anyDevice {
		snap, err = x.snapshotFor(p, maxSplit)
		if err != nil {
			return nil, err
		}
	}
	shardChunks := x.chunkCount(p)/nDev + 1
	devs := make([]*device.Device, nDev)
	injs := make([]*fault.Injector, nDev)
	leaves := make(map[leafKey]device.Batch)
	drivingBatches := make([][]device.Batch, len(a.DrivingParts))
	shardRows := make([]int64, nDev)
	shardBatches := make([]int, nDev)
	for dev := 0; dev < nDev; dev++ {
		if !healthy(dev) {
			continue
		}
		sp := a.Shards[dev]
		d := device.New(x.Model, x.Cat)
		d.BatchSize = x.BatchSize
		d.Trace = tr
		if fp := x.Faults.ForDevice(dev); fp.Enabled() {
			// Per-device fault stream: the run key folds in the device id so
			// one sick device's episode never perturbs its siblings'.
			injs[dev] = fp.Injector(p.Query.Name + "|" + a.Mode + "|dev" + strconv.Itoa(dev)).Bind(x.Metrics)
			d.Faults = injs[dev]
		}
		devs[dev] = d
		cmd := &device.Command{Plan: p, SplitAfter: sp.Split, Snapshot: snap, Chunks: shardChunks}
		if err := d.Validate(cmd); err != nil {
			return nil, err
		}
		eng := d.Engine(sp.Mem)
		eng.Views = snapshotViews(snap)
		dpl, err := eng.StartPipeline(p)
		if err != nil {
			return nil, err
		}

		// NDP setup: the host issues the fleet's commands back to back; each
		// device's timeline starts when its own command arrived.
		setup := hostR.Interconnect.Transfer(cmd.Bytes(), cmd.Bytes())
		hostTL.Charge(hw.CatNDPSetup, setup)
		d.TL.WaitUntil(hostTL.Now(), hw.CatNDPSetup)

		devErr := func() error {
			// H0: this device ships its partitions of every leaf selection.
			if a.Mode == ModeH0 {
				for si, st := range p.Steps {
					for pi, part := range x.Desc.Parts[st.Right.Ref.Table] {
						if part.Device != dev {
							continue
						}
						b, err := d.ScanLeafPartition(st.Right, eng, part.Lo, part.Hi)
						if err != nil {
							return err
						}
						leaves[leafKey{si, pi}] = b
						shardRows[dev] += int64(b.Cols.Len())
						shardBatches[dev]++
					}
				}
			}
			// Driving partitions owned by this device, in ascending key order.
			for pi, part := range a.DrivingParts {
				if part.Device != dev {
					continue
				}
				slot := pi
				err := d.RunShard(cmd, dpl, eng, part.Lo, part.Hi, func(b device.Batch) error {
					drivingBatches[slot] = append(drivingBatches[slot], b)
					shardRows[dev] += int64(b.Tuples.Len())
					shardBatches[dev]++
					return nil
				})
				if err != nil {
					return err
				}
			}
			return nil
		}()
		if devErr != nil {
			if !fault.Injected(devErr) {
				return nil, devErr
			}
			// Injected crash: abandon the shard and run its partitions
			// host-side at their merge positions (the breaker-denial path).
			// Partial device output is discarded so the merged stream stays
			// byte-identical to the fault-free run.
			crashed[dev] = true
			rep.CrashedShards++
			x.Metrics.Counter("fleet.shard.crashed").Inc()
			for si, st := range p.Steps {
				for pi, part := range x.Desc.Parts[st.Right.Ref.Table] {
					if part.Device == dev {
						delete(leaves, leafKey{si, pi})
					}
				}
			}
			for pi, part := range a.DrivingParts {
				if part.Device == dev {
					drivingBatches[pi] = nil
				}
			}
			shardRows[dev], shardBatches[dev] = 0, 0
		}
	}

	// Hedge / deadline decision. Every admitted shard's device completion
	// instant is known here; a shard past the request deadline degrades to
	// host-side execution outright, and — with hedging on — a shard past the
	// hedge threshold launches a host-native backup at the threshold instant,
	// the merge taking whichever side's virtual finish comes first. Either
	// way the shard's partitions yield the identical tuple stream, so the
	// choice moves latency, never bytes.
	hedged := make([]bool, nDev)
	hedgeFloor := make([]vclock.Time, nDev)
	thr := x.hedgeThreshold(a, healthy)
	for dev := 0; dev < nDev; dev++ {
		if !healthy(dev) {
			continue
		}
		elapsed := devs[dev].TL.Now()
		if deadline > 0 && vclock.Duration(elapsed) > deadline {
			hedged[dev] = true
			rep.DeadlineDegraded++
			x.Metrics.Counter("fleet.deadline.degraded").Inc()
			continue
		}
		if thr > 0 && float64(elapsed) > thr {
			if !x.Budget.Allow() {
				x.Metrics.Counter("fleet.hedge.budget_denied").Inc()
				continue
			}
			rep.HedgesFired++
			x.Metrics.Counter("fleet.hedge.fired").Inc()
			if thr+a.Shards[dev].EstHostNs < float64(elapsed) {
				hedged[dev] = true
				hedgeFloor[dev] = vclock.Time(thr)
				rep.HedgesWon++
				x.Metrics.Counter("fleet.hedge.won").Inc()
			} else {
				rep.HedgesLost++
				x.Metrics.Counter("fleet.hedge.lost").Inc()
			}
		}
	}
	// useDevice: the merge consumes this shard's device batches (admitted,
	// alive, and not out-raced by its host backup).
	useDevice := func(dev int) bool { return healthy(dev) && !hedged[dev] }

	// Host prep overlaps the devices' initial execution: pre-build the inner
	// hash tables of host-side buffered joins (H0 inners are device-seeded
	// and must stay unbuilt until the leaf batches arrive).
	if a.Mode != ModeH0 {
		minHostFrom := len(p.Steps)
		for _, part := range a.DrivingParts {
			hf := 0
			if useDevice(part.Device) {
				if hf = a.Shards[part.Device].Split; hf < 0 {
					hf = 0
				}
			}
			if hf < minHostFrom {
				minHostFrom = hf
			}
		}
		for si := minHostFrom; si < len(p.Steps); si++ {
			if p.Steps[si].Type != exec.BNLI {
				if _, err := hostEng.BuildInner(pl, si); err != nil {
					return nil, err
				}
			}
		}
	}

	// Gather phase. Batches are consumed in plan order — every leaf
	// partition of every step first (H0), then every driving partition — in
	// ascending partition order regardless of which device produced them, so
	// the merged tuple stream reconstructs the single-device order exactly.
	first := true
	fetch := func(b device.Batch) {
		cat := hw.CatWaitFetch
		if first {
			cat = hw.CatWaitInitial
			first = false
		}
		hostTL.WaitUntil(b.Ready, cat)
		hostR.Transfer(hostTL, num.MaxI64(b.Bytes, 64), x.Model.SharedBufferSlot)
		rep.TransferredBytes += b.Bytes
		rep.Batches++
	}
	// verify draws the in-transfer corruption for a sealed batch and checks
	// its checksum host-side; a failed batch sends its partition to the host
	// path. Unsealed batches (fault-free runs) skip everything.
	verify := func(dev int, b device.Batch) bool {
		if b.Sum == 0 {
			return true
		}
		if injs[dev].TransferCorrupt() {
			b.CorruptInTransfer()
		}
		if b.Verify() != nil {
			rep.CorruptBatches++
			x.Metrics.Counter("fleet.batch.corrupt").Inc()
			return false
		}
		return true
	}
	if a.Mode == ModeH0 {
		for si, st := range p.Steps {
			for pi, part := range x.Desc.Parts[st.Right.Ref.Table] {
				if b, ok := leaves[leafKey{si, pi}]; ok && !hedged[part.Device] {
					fetch(b)
					if verify(part.Device, b) {
						if err := hostEng.AppendInnerCols(pl, si, b.Cols); err != nil {
							return nil, err
						}
						continue
					}
				}
				// Degraded, crashed, hedged or corrupt owner: the host scans
				// this leaf partition itself.
				hostTL.WaitUntil(hedgeFloor[part.Device], hw.CatHedgeWait)
				cb, _, err := hostEng.ScanCols(st.Right, part.Lo, part.Hi)
				if err != nil {
					return nil, err
				}
				if err := hostEng.AppendInnerCols(pl, si, cb); err != nil {
					return nil, err
				}
			}
		}
	}
	tuples := new(exec.TupleSet)
	joinRange := func(from int, batch *exec.TupleSet) (*exec.TupleSet, error) {
		for si := from; si < len(p.Steps); si++ {
			var jerr error
			if batch, jerr = hostEng.JoinStep(pl, si, batch); jerr != nil {
				return nil, jerr
			}
		}
		return batch, nil
	}
	for pi, part := range a.DrivingParts {
		dev := part.Device
		fromDevice := false
		if useDevice(dev) {
			// Merge the shard's device batches; a corrupt batch abandons the
			// partition's merged rows and falls through to the host path, so
			// the final stream carries each partition exactly once.
			fromDevice = true
			partTuples := new(exec.TupleSet)
			hostFrom := a.Shards[dev].Split
			if hostFrom < 0 {
				hostFrom = 0
			}
			for _, b := range drivingBatches[pi] {
				fetch(b)
				if !verify(dev, b) {
					fromDevice = false
					break
				}
				out, err := joinRange(hostFrom, b.Tuples)
				if err != nil {
					return nil, err
				}
				partTuples.Append(out)
			}
			if fromDevice {
				tuples.Append(partTuples)
				continue
			}
		}
		// Host shard (planned, degraded, crashed, hedged or corrupt): its
		// partition runs entirely host-side at its merge position, preserving
		// the global order. A hedge-won shard's backup is floored at the
		// hedge launch instant — the backup cannot have started earlier.
		var hsp *obs.Span
		if hedged[dev] {
			name := "fleet.deadline.degrade"
			if hedgeFloor[dev] > 0 {
				name = "fleet.hedge"
			}
			hsp = tr.Start(hostTL, name).AttrInt("device", int64(dev)).AttrInt("partition", int64(pi))
			hostTL.WaitUntil(hedgeFloor[dev], hw.CatHedgeWait)
		}
		rows, _, err := hostEng.ScanAccess(p.Driving, part.Lo, part.Hi)
		if err != nil {
			hsp.End()
			return nil, err
		}
		if !healthy(dev) {
			shardRows[dev] += int64(len(rows))
		}
		out, err := joinRange(0, pl.MakeTuples(rows))
		if err != nil {
			hsp.End()
			return nil, err
		}
		tuples.Append(out)
		hsp.End()
	}

	res, err := hostEng.Finalize(pl, tuples)
	if err != nil {
		return nil, err
	}
	rep.Result = res
	rep.Elapsed = vclock.Duration(hostTL.Now())
	rep.HostAccount = hostTL.Account()
	rep.Shards = make([]ShardReport, nDev)
	for dev := 0; dev < nDev; dev++ {
		sp := a.Shards[dev]
		sr := ShardReport{
			Device: dev, Split: sp.Split, Frac: sp.Frac, Reason: sp.Reason,
			Rows: shardRows[dev], Batches: shardBatches[dev], Degraded: degraded[dev],
			Crashed: crashed[dev], Hedged: hedged[dev],
		}
		for _, part := range a.DrivingParts {
			if part.Device == dev {
				sr.Partitions++
			}
		}
		if d := devs[dev]; d != nil {
			sr.Elapsed = vclock.Duration(d.TL.Now())
			sr.Account = d.TL.Account()
		}
		rep.Shards[dev] = sr
	}
	releaseAll(true, func(dev int) float64 {
		if d := devs[dev]; d != nil {
			return float64(d.TL.Now())
		}
		return 0
	})
	return rep, nil
}

// hedgeThreshold derives the virtual-time hedge launch threshold for this
// assignment: Mult × the Quantile of the admitted shards' device estimates,
// rescaled by the scheduler's learned device-calibration factor when wired.
// Anchoring on the shard population's own estimates (rather than a fixed
// duration) makes the threshold scale-free: a query whose shards are all
// expensive hedges late, a cheap query's straggler is caught early. Returns 0
// (hedging off) when disabled or no shard is device-admitted.
func (x *Executor) hedgeThreshold(a *Assignment, healthy func(int) bool) float64 {
	if !x.Hedge.Enabled {
		return 0
	}
	var ests []float64
	for dev := range a.Shards {
		if healthy(dev) {
			ests = append(ests, a.Shards[dev].EstDevNs)
		}
	}
	if len(ests) == 0 {
		return 0
	}
	sort.Float64s(ests)
	q := x.Hedge.Quantile
	if q <= 0 || q > 1 {
		q = 0.5
	}
	idx := int(q*float64(len(ests)-1) + 0.5)
	mult := x.Hedge.Mult
	if mult <= 0 {
		mult = 3
	}
	scale := 1.0
	if x.Hedge.Scale != nil {
		if s := x.Hedge.Scale(); s > 0 {
			scale = s
		}
	}
	return mult * scale * ests[idx]
}

// Fingerprint digests a result for byte-identity comparison: column names,
// row count, byte volume and every retained row's values feed one FNV-1a
// stream, so two results agree iff the digests agree.
func Fingerprint(r *exec.Result) string {
	h := fnv.New64a()
	for _, c := range r.Columns {
		fmt.Fprintf(h, "%s\x00", c)
	}
	fmt.Fprintf(h, "|%d|%d|", r.RowCount, r.Bytes)
	for _, row := range r.Rows {
		for _, v := range row {
			switch {
			case v.Null:
				fmt.Fprintf(h, "N\x00")
			case v.IsI:
				fmt.Fprintf(h, "i%d\x00", v.Int)
			default:
				fmt.Fprintf(h, "s%s\x00", v.Str)
			}
		}
		fmt.Fprintf(h, "\n")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
