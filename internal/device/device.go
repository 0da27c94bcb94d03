// Package device simulates the COSMOS+ smart-storage board of the paper: a
// management core (core 0) that receives NDP commands and relays result
// buffers, a dedicated execution core (core 1) that runs the offloaded
// partial plan as a volcano pipeline over bounded caches, a DRAM budget
// ledger enforcing the paper's memory reservations, and shared buffer slots
// that create back-pressure between device production and host consumption.
package device

import (
	"errors"
	"fmt"
	"hash/fnv"

	"hybridndp/internal/exec"
	"hybridndp/internal/fault"
	"hybridndp/internal/hw"
	"hybridndp/internal/kv"
	"hybridndp/internal/lsm"
	"hybridndp/internal/obs"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Typed device errors. The crash/corruption sentinels are re-exported from
// internal/fault so recovery code can errors.Is against either package.
var (
	// ErrDeviceCrash is a mid-command device crash (injected).
	ErrDeviceCrash = fault.ErrDeviceCrash
	// ErrCorruptBatch is a result batch whose checksum failed verification.
	ErrCorruptBatch = fault.ErrCorruptBatch
	// ErrDeviceBusy signals that no device can admit the command right now
	// (all NDP command slots taken or every breaker open).
	ErrDeviceBusy = errors.New("device: no NDP command slot available")
	// ErrMemoryBudget signals a command whose memory plan exceeds the NDP
	// DRAM budget.
	ErrMemoryBudget = errors.New("device: NDP memory plan exceeds budget")
	// ErrBadSplit signals a split point past the plan's join count.
	ErrBadSplit = errors.New("device: split exceeds join steps")
)

// Command is one NDP invocation: the offloaded partial plan plus everything
// the device needs to execute it without host interaction (paper Fig. 7 A):
// the shared-state snapshot, physical placements, index information and the
// transfer buffer configuration.
type Command struct {
	Plan *exec.Plan
	// SplitAfter is the number of join steps executed on device. -1 selects
	// leaf-only offloading (H0: every base-table selection runs on device,
	// all joins remain on the host). len(Plan.Steps) offloads every join.
	SplitAfter int
	// Snapshot is the shared state shipped with the invocation.
	Snapshot *kv.Snapshot
	// Chunks partitions the driving table; each chunk yields one
	// intermediate result set placed in a shared buffer slot.
	Chunks int
}

// Bytes estimates the serialized command size (plan description, placement
// map, shared state), charged as PCIe payload during the NDP setup.
func (c *Command) Bytes() int64 {
	var n int64 = 256                    // command header, buffer config
	n += int64(c.Plan.NumTables()) * 128 // per-table descriptor + predicates
	n += int64(len(c.Plan.Steps)) * 64   // join descriptors
	if c.Snapshot != nil {
		n += c.Snapshot.Bytes()
	}
	return n
}

// Batch is one intermediate result set: the tuples of one driving-table
// chunk after the device-side joins, stamped with the device time at which
// the shared buffer slot became ready for pickup.
type Batch struct {
	Tuples *exec.TupleSet
	Bytes  int64
	Ready  vclock.Time
	// LeafAlias is set for H0 leaf batches: which table's selection this is.
	LeafAlias string
	// Cols carries an H0 leaf selection as a fully-selected column batch —
	// the cross-interconnect transfer unit the host gather loop feeds straight
	// into SeedInnerCols/AppendInnerCols.
	Cols *exec.ColBatch
	Last bool
	// Sum is the payload checksum sealed by the device before the slot is
	// published and verified by the host after the fetch. 0 = unsealed
	// (fault injection disabled): verification is skipped, so fault-free
	// runs pay no checksum cost and stay byte-identical.
	Sum uint64
}

// corruptMask is the bit pattern injected corruption XORs into a sealed
// checksum — any non-zero mask makes Verify fail.
const corruptMask = 0xdeadbeefcafef00d

// Checksum hashes the batch payload (FNV-1a over tuples/rows with length
// framing). It is a simulation-level integrity check, not charged to any
// timeline: real hardware folds CRC into the DMA engine.
func (b *Batch) Checksum() uint64 {
	h := fnv.New64a()
	var frame [8]byte
	writeLen := func(n int) {
		frame[0] = byte(n)
		frame[1] = byte(n >> 8)
		frame[2] = byte(n >> 16)
		frame[3] = byte(n >> 24)
		h.Write(frame[:4])
	}
	n, w := b.Tuples.Len(), b.Tuples.Width()
	writeLen(n)
	for i := 0; i < n; i++ {
		writeLen(w)
		for p := 0; p < w; p++ {
			pos := b.Tuples.Row(i, p)
			writeLen(len(pos))
			h.Write(pos)
		}
	}
	// Leaf payload: the column batch's selected rows in selection order —
	// the same bytes, in the same framing, as the row-slice payload this
	// checksum originally covered, so sealed sums are unchanged.
	if b.Cols != nil {
		writeLen(b.Cols.Len())
		for _, i := range b.Cols.Sel {
			r := b.Cols.Rows[i]
			writeLen(len(r))
			h.Write(r)
		}
	} else {
		writeLen(0)
	}
	h.Write([]byte(b.LeafAlias))
	sum := h.Sum64()
	if sum == 0 {
		sum = 1 // 0 is reserved for "unsealed"
	}
	return sum
}

// Seal stamps the batch with its checksum; corrupt simulates device-side
// payload corruption by sealing a flipped sum.
func (b *Batch) Seal(corrupt bool) {
	b.Sum = b.Checksum()
	if corrupt {
		b.Sum ^= corruptMask
	}
}

// CorruptInTransfer simulates interconnect corruption during the host fetch
// of a sealed batch (no-op on unsealed batches).
func (b *Batch) CorruptInTransfer() {
	if b.Sum != 0 {
		b.Sum ^= corruptMask
	}
}

// Verify re-hashes the payload against the sealed checksum. Unsealed batches
// (Sum 0, faults disabled) pass unconditionally.
func (b *Batch) Verify() error {
	if b.Sum == 0 {
		return nil
	}
	if got := b.Checksum(); got != b.Sum {
		return fmt.Errorf("device: checksum %#x != sealed %#x: %w", got, b.Sum, ErrCorruptBatch)
	}
	return nil
}

// MemoryPlan is the device DRAM ledger for one command (paper §5 memory
// reservations: 17 MB per selection via an index, 7 MB per join, within the
// ~400 MB NDP budget).
type MemoryPlan struct {
	Selections     int
	SecondaryIdx   int
	Joins          int
	SelBytes       int64
	JoinBytes      int64
	TotalBytes     int64
	BudgetBytes    int64
	UsesPointerFmt bool
}

// PlanMemory computes the ledger for offloading the given prefix.
func PlanMemory(m hw.Model, p *exec.Plan, splitAfter int) MemoryPlan {
	mp := MemoryPlan{BudgetBytes: m.DeviceNDPBudget}
	nTables := 1
	if splitAfter < 0 {
		nTables = p.NumTables() // H0: all leaves
	} else {
		nTables = 1 + splitAfter
	}
	mp.Selections = nTables
	if splitAfter > 0 {
		mp.Joins = splitAfter
	}
	for i := 0; i < splitAfter && i < len(p.Steps); i++ {
		if p.Steps[i].Type == exec.BNLI && !p.Steps[i].RightIndexIsPK {
			mp.SecondaryIdx++
		}
	}
	mp.SelBytes = int64(mp.Selections+mp.SecondaryIdx) * m.SelBufBytes
	mp.JoinBytes = int64(mp.Joins) * m.JoinBufBytes
	mp.TotalBytes = mp.SelBytes + mp.JoinBytes
	mp.UsesPointerFmt = nTables > 2 // paper §4.2: pointer cache above 2 tables
	return mp
}

// Fits reports whether the ledger stays inside the NDP budget. With the
// paper's numbers this allows at most 12 tables with secondary indices or 17
// without in one NDP call.
func (mp MemoryPlan) Fits() bool { return mp.TotalBytes <= mp.BudgetBytes }

// Device is the simulated smart-storage board.
type Device struct {
	Model hw.Model
	Cat   *table.Catalog
	// TL is core 1's execution timeline.
	TL *vclock.Timeline
	// Trace receives device-side spans (leaf scans, driving chunks, explicit
	// slot-stall spans). Nil disables tracing. A device is created per run, so
	// the trace needs no further synchronization here.
	Trace *obs.Trace
	// Metrics receives device counters (scan volume, batches, slot stalls).
	// Nil disables them.
	Metrics *obs.Registry
	// Faults, when set, injects crash/stall/corruption faults into this
	// run's batch-emit path and flash read errors into the device engine.
	// Per-run state like Trace: the caller attaches one injector per run.
	Faults *fault.Injector
	// BatchSize is the columnar batch row capacity of the engines this device
	// builds (0 = exec.DefaultBatchSize); charges are byte-identical at every
	// size.
	BatchSize int
}

// New creates a device bound to the catalog (whose flash it reads directly).
func New(m hw.Model, cat *table.Catalog) *Device {
	return &Device{Model: m, Cat: cat, TL: vclock.NewTimeline("device")}
}

// Engine builds the on-device execution engine for one command: device
// rates, bounded buffers, the row/pointer cache format switch, and a small
// data-block buffer cache carved out of the temporary-storage reservation.
func (d *Device) Engine(mp MemoryPlan) *exec.Engine {
	cacheBytes := int64(float64(d.Cat.DB().Flash().Used()) * d.Model.DeviceCacheFraction)
	eng := &exec.Engine{
		Cat:          d.Cat,
		TL:           d.TL,
		R:            hw.DeviceRates(d.Model),
		Cache:        lsm.NewBlockCache(cacheBytes),
		JoinBuf:      d.Model.JoinBufBytes,
		SelBuf:       d.Model.SelBufBytes,
		PointerCache: mp.UsesPointerFmt,
		BatchSize:    d.BatchSize,
	}
	if d.Faults != nil {
		// Only assign a live injector: a typed-nil interface would defeat
		// the inj != nil fast path in the flash layer.
		eng.Faults = d.Faults
	}
	return eng
}

// Run executes the command's device part, calling emit for every produced
// batch. waitSlot is consulted before producing batch j once all shared
// buffer slots are occupied: it returns the host fetch-completion time of
// batch j-slots, and the device stalls until then (paper §4.1: "the smart
// storage stalls and waits for the host-engine"). Both callbacks run
// synchronously; batches are emitted in production order. A non-nil error
// from emit aborts the run (the host rejected the batch); with d.Faults set,
// an injected crash aborts before the batch is emitted.
func (d *Device) Run(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	emit func(Batch) error, waitSlot func(batchIdx int) (vclock.Time, bool)) error {

	slots := d.Model.SharedSlots
	produced := 0
	emitBatch := func(b Batch) error {
		if d.Faults != nil {
			ev := d.Faults.BeforeEmit()
			if ev.Stall > 0 {
				// Firmware hiccup: extra device latency before the slot is
				// produced, charged to the device timeline.
				d.TL.Charge(hw.CatFaultStall, ev.Stall)
			}
			if ev.Crash != nil {
				return fmt.Errorf("device: batch %d: %w", produced, ev.Crash)
			}
			b.Seal(ev.Corrupt)
		}
		if produced >= slots {
			if t, ok := waitSlot(produced - slots); ok {
				// All shared buffer slots are occupied: the device stalls
				// until the host has drained the oldest one. The span makes
				// the back-pressure visible as an explicit region on the
				// device track.
				ssp := d.Trace.Start(d.TL, "device.wait.slot").AttrInt("batch", int64(produced))
				stall := d.TL.WaitUntil(t, hw.CatWaitSlots)
				ssp.Attr("stall", stall.String()).End()
				d.Metrics.Counter("device.slot.stalls").Inc()
			}
		}
		b.Ready = d.TL.Now()
		d.Metrics.Counter("device.batches").Inc()
		if err := emit(b); err != nil {
			return err
		}
		produced++
		return nil
	}

	p := cmd.Plan
	devSteps := cmd.SplitAfter
	err := func() error {
		if devSteps < 0 {
			// H0: run every leaf selection on device. Inner tables ship as one
			// batch each; the driving table streams in chunks.
			for _, st := range p.Steps {
				lsp := d.Trace.Start(d.TL, "device.leaf.scan").Attr("alias", st.Right.Ref.Alias)
				cb, width, err := eng.ScanCols(st.Right, nil, nil)
				if err != nil {
					lsp.End()
					return err
				}
				lsp.AttrInt("rows", int64(cb.Len())).End()
				d.recordScan(int64(cb.Len()), int64(cb.Len())*width)
				if err := emitBatch(Batch{
					LeafAlias: st.Right.Ref.Alias,
					Cols:      cb,
					Bytes:     int64(cb.Len()) * width,
				}); err != nil {
					return err
				}
			}
			return d.streamDriving(cmd, pl, eng, 0, emitBatch)
		}

		// Hk: pre-build the inner sides of the device joins (hash tables are
		// built once and probed by every chunk), then stream driving chunks
		// through the device join pipeline.
		return d.streamDriving(cmd, pl, eng, devSteps, emitBatch)
	}()
	if err == nil && d.Metrics != nil && eng.Cache != nil {
		hits, misses, _ := eng.Cache.Stats()
		d.Metrics.Counter("device.cache.hits").Add(hits)
		d.Metrics.Counter("device.cache.misses").Add(misses)
		h := d.Metrics.Counter("device.cache.hits").Value()
		if n := h + d.Metrics.Counter("device.cache.misses").Value(); n > 0 {
			d.Metrics.Gauge("device.cache.hitrate").Set(float64(h) / float64(n))
		}
	}
	return err
}

// recordScan books device scan volume: rows and bytes read compaction-free
// from the frozen snapshot views (the NDP premise — this volume never crosses
// the interconnect).
func (d *Device) recordScan(rows, bytes int64) {
	d.Metrics.Counter("device.scan.rows").Add(rows)
	d.Metrics.Counter("device.scan.bytes").Add(bytes)
}

// streamDriving partitions the driving table into chunks by primary-key
// ranges and pushes each chunk through the first devSteps join steps.
func (d *Device) streamDriving(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	devSteps int, emitBatch func(Batch) error) error {
	return d.streamDrivingRange(cmd, pl, eng, devSteps, nil, nil, emitBatch)
}

// RunPartition is Run restricted to a driving-table PK partition [lo, hi),
// used for multi-device cooperative execution: every device runs the same
// device-side PQEP over its share of the driving table. Shared-slot
// back-pressure is not applied — the caller merges batches from several
// producers and the host is the bottleneck. Under H0 only the first
// partition (lo == nil) carries the inner tables' leaf scans; in a real
// deployment each device would scan its own partition of every table.
func (d *Device) RunPartition(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	lo, hi *int32, emit func(Batch)) error {

	// Fault injection targets the single-device cooperative path (Run); the
	// multi-device merge path keeps a void emit and no injection hooks.
	emitBatch := func(b Batch) error {
		b.Ready = d.TL.Now()
		emit(b)
		return nil
	}
	devSteps := cmd.SplitAfter
	if devSteps < 0 {
		if lo == nil {
			for _, st := range cmd.Plan.Steps {
				cb, width, err := eng.ScanCols(st.Right, nil, nil)
				if err != nil {
					return err
				}
				if err := emitBatch(Batch{
					LeafAlias: st.Right.Ref.Alias,
					Cols:      cb,
					Bytes:     int64(cb.Len()) * width,
				}); err != nil {
					return err
				}
			}
		}
		devSteps = 0
	}
	return d.streamDrivingRange(cmd, pl, eng, devSteps, lo, hi, emitBatch)
}

// RunShard streams the driving-table partition [lo, hi) through the first
// cmd.SplitAfter join steps (0 or -1 = scan-only: the shard ships filtered
// driving rows and every join stays on the host). Unlike RunPartition it
// carries no H0 leaf logic — fleet execution scans each inner table's
// partitions through ScanLeafPartition on the owning device — and emit may
// reject a batch with an error. Shared-slot back-pressure is not applied:
// the host merges batches from the whole fleet in partition order, so the
// host side is the bottleneck.
func (d *Device) RunShard(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	lo, hi *int32, emit func(Batch) error) error {

	devSteps := cmd.SplitAfter
	if devSteps < 0 {
		devSteps = 0
	}
	produced := 0
	return d.streamDrivingRange(cmd, pl, eng, devSteps, lo, hi, func(b Batch) error {
		if d.Faults != nil {
			// Per-device fleet chaos: the shard's batches face the same
			// stall/crash/corrupt draws as the cooperative path (a crash
			// degrades the whole shard at the fleet layer instead of retrying).
			ev := d.Faults.BeforeEmit()
			if ev.Stall > 0 {
				d.TL.Charge(hw.CatFaultStall, ev.Stall)
			}
			if ev.Crash != nil {
				return fmt.Errorf("device: shard batch %d: %w", produced, ev.Crash)
			}
			b.Seal(ev.Corrupt)
		}
		produced++
		b.Ready = d.TL.Now()
		return emit(b)
	})
}

// ScanLeafPartition scans one inner table's partition [lo, hi) on this device
// (fleet H0: every device ships its share of every leaf selection) and
// returns it as a leaf batch stamped with the device completion time.
func (d *Device) ScanLeafPartition(ap exec.AccessPath, eng *exec.Engine, lo, hi *int32) (Batch, error) {
	lsp := d.Trace.Start(d.TL, "device.leaf.scan").Attr("alias", ap.Ref.Alias)
	cb, width, err := eng.ScanCols(ap, lo, hi)
	if err != nil {
		lsp.End()
		return Batch{}, err
	}
	lsp.AttrInt("rows", int64(cb.Len())).End()
	d.recordScan(int64(cb.Len()), int64(cb.Len())*width)
	b := Batch{
		LeafAlias: ap.Ref.Alias,
		Cols:      cb,
		Bytes:     int64(cb.Len()) * width,
	}
	if d.Faults != nil {
		ev := d.Faults.BeforeEmit()
		if ev.Stall > 0 {
			d.TL.Charge(hw.CatFaultStall, ev.Stall)
		}
		if ev.Crash != nil {
			return Batch{}, fmt.Errorf("device: leaf scan %s: %w", ap.Ref.Alias, ev.Crash)
		}
		b.Seal(ev.Corrupt)
	}
	b.Ready = d.TL.Now()
	return b, nil
}

// streamDrivingRange is streamDriving clipped to [loPart, hiPart).
func (d *Device) streamDrivingRange(cmd *Command, pl *exec.Pipeline, eng *exec.Engine,
	devSteps int, loPart, hiPart *int32, emitBatch func(Batch) error) error {

	p := cmd.Plan
	bounds, err := d.chunkBounds(p.Driving.Ref.Table, cmd.Chunks)
	if err != nil {
		return err
	}
	bounds = clipBounds(bounds, loPart, hiPart)
	width := pl.TupleWidth(devSteps + 1)
	slot := d.Model.SharedBufferSlot
	acc := new(exec.TupleSet)
	var accBytes int64
	flush := func(last bool) error {
		if acc.Len() == 0 && !last {
			// An empty intermediate result set occupies no buffer slot and
			// is not transferred.
			return nil
		}
		err := emitBatch(Batch{Tuples: acc, Bytes: accBytes, Last: last})
		acc = new(exec.TupleSet)
		accBytes = 0
		return err
	}
	// The chunk's rows stream through the device joins in bounded pieces
	// (the volcano pipeline over per-operation caches of paper Fig. 8): each
	// operation hands over once its cache holds a piece, so result sets fill
	// shared-buffer slots incrementally with honest per-piece timestamps.
	const pieceRows = 256
	var runFrom func(si int, tuples *exec.TupleSet) error
	runFrom = func(si int, tuples *exec.TupleSet) error {
		n := tuples.Len()
		if n == 0 {
			return nil
		}
		if si >= devSteps {
			acc.Append(tuples)
			accBytes += int64(n) * width
			if accBytes >= slot {
				return flush(false)
			}
			return nil
		}
		for off := 0; off < n; off += pieceRows {
			end := off + pieceRows
			if end > n {
				end = n
			}
			out, err := eng.JoinStep(pl, si, tuples.Slice(off, end))
			if err != nil {
				return err
			}
			if err := runFrom(si+1, out); err != nil {
				return err
			}
		}
		return nil
	}
	for ci := 0; ci+1 < len(bounds); ci++ {
		lo, hi := bounds[ci], bounds[ci+1]
		csp := d.Trace.Start(d.TL, "device.chunk").AttrInt("chunk", int64(ci))
		rows, rowWidth, err := eng.ScanAccess(p.Driving, lo, hi)
		if err != nil {
			csp.End()
			return err
		}
		d.recordScan(int64(len(rows)), int64(len(rows))*rowWidth)
		csp.AttrInt("rows", int64(len(rows)))
		group := len(rows)/8 + 1
		if group > pieceRows {
			group = pieceRows
		}
		for off := 0; off < len(rows); off += group {
			end := off + group
			if end > len(rows) {
				end = len(rows)
			}
			tuples := pl.MakeTuples(rows[off:end])
			if err := runFrom(0, tuples); err != nil {
				csp.End()
				return err
			}
		}
		csp.End()
	}
	return flush(true)
}

// chunkBounds derives n chunk boundaries from the primary-key quantiles of
// the table's statistics sample. The first and last bounds are open.
func (d *Device) chunkBounds(tableName string, n int) ([]*int32, error) {
	if n < 1 {
		n = 1
	}
	t, err := d.Cat.Table(tableName)
	if err != nil {
		return nil, err
	}
	st := t.CollectStats()
	bounds := make([]*int32, 0, n+1)
	bounds = append(bounds, nil)
	if len(st.Sample) >= 2 && n > 1 {
		pks := make([]int32, 0, len(st.Sample))
		for _, r := range st.Sample {
			pks = append(pks, r.PK())
		}
		sortInt32(pks)
		for i := 1; i < n; i++ {
			q := pks[i*len(pks)/n]
			// Boundaries must be strictly increasing.
			if last := bounds[len(bounds)-1]; last == nil || q > *last {
				v := q
				bounds = append(bounds, &v)
			}
		}
	}
	bounds = append(bounds, nil)
	return bounds, nil
}

// clipBounds restricts chunk boundaries to the partition [lo, hi).
func clipBounds(bounds []*int32, lo, hi *int32) []*int32 {
	out := []*int32{lo}
	for _, b := range bounds[1 : len(bounds)-1] {
		if b == nil {
			continue
		}
		if lo != nil && *b <= *lo {
			continue
		}
		if hi != nil && *b >= *hi {
			continue
		}
		out = append(out, b)
	}
	return append(out, hi)
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Validate checks that the command can run on the device at all.
func (d *Device) Validate(cmd *Command) error {
	mp := PlanMemory(d.Model, cmd.Plan, cmd.SplitAfter)
	if !mp.Fits() {
		return fmt.Errorf("%w: NDP memory plan (%d MB for %d selections, %d secondary, %d joins) exceeds budget (%d MB)",
			ErrMemoryBudget, mp.TotalBytes>>20, mp.Selections, mp.SecondaryIdx, mp.Joins, mp.BudgetBytes>>20)
	}
	if cmd.SplitAfter > len(cmd.Plan.Steps) {
		return fmt.Errorf("%w: split after %d exceeds %d join steps", ErrBadSplit, cmd.SplitAfter, len(cmd.Plan.Steps))
	}
	return nil
}

// ResultWidthCols reports a human label for batches (debugging aid).
func ResultWidthCols(p *exec.Plan, devSteps int) []string {
	aliases := p.Aliases()
	if devSteps < 0 {
		return aliases[:1]
	}
	return aliases[:devSteps+1]
}
