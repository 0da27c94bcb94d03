package device_test

import (
	"sync"
	"testing"

	"hybridndp/internal/device"
	"hybridndp/internal/exec"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/optimizer"
	"hybridndp/internal/vclock"
)

var (
	dsOnce sync.Once
	ds     *job.Dataset
	dsErr  error
)

func env(t *testing.T) (*job.Dataset, *optimizer.Optimizer) {
	t.Helper()
	dsOnce.Do(func() { ds, dsErr = job.Load(0.01, hw.Cosmos()) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return ds, optimizer.New(ds.Cat, ds.Model)
}

func TestPlanMemoryLimits(t *testing.T) {
	m := hw.Cosmos() // unscaled: 17 MB / 7 MB / 400 MB
	mkPlan := func(tables int, secondary bool) *exec.Plan {
		p := &exec.Plan{Query: nil}
		for i := 1; i < tables; i++ {
			st := exec.JoinStep{Type: exec.BNL}
			if secondary {
				st.Type = exec.BNLI
				st.RightIndex = "idx_x"
			}
			p.Steps = append(p.Steps, st)
		}
		return p
	}
	// Paper §5 allows ≤17 tables without secondary indices per NDP call;
	// with every join using a secondary index (each adding its own 17 MB
	// selection buffer) the ledger caps at 10 — the paper's 12 assumes a
	// mix of indexed and non-indexed joins.
	if mp := device.PlanMemory(m, mkPlan(17, false), 16); !mp.Fits() {
		t.Fatalf("17 tables without secondary indices must fit: %+v", mp)
	}
	if mp := device.PlanMemory(m, mkPlan(18, false), 17); mp.Fits() {
		t.Fatalf("18 tables must not fit: %+v", mp)
	}
	if mp := device.PlanMemory(m, mkPlan(10, true), 9); !mp.Fits() {
		t.Fatalf("10 all-secondary tables must fit: %+v", mp)
	}
	if mp := device.PlanMemory(m, mkPlan(12, true), 11); mp.Fits() {
		t.Fatalf("12 all-secondary tables must not fit: %+v", mp)
	}
}

func TestPlanMemoryPointerFormatSwitch(t *testing.T) {
	m := hw.Cosmos()
	two := &exec.Plan{Steps: []exec.JoinStep{{Type: exec.BNL}}}
	three := &exec.Plan{Steps: []exec.JoinStep{{Type: exec.BNL}, {Type: exec.BNL}}}
	if device.PlanMemory(m, two, 1).UsesPointerFmt {
		t.Fatal("2 tables must use the row cache format (paper §4.2)")
	}
	if !device.PlanMemory(m, three, 2).UsesPointerFmt {
		t.Fatal("3 tables must switch to the pointer cache format")
	}
	// H0 over a wide plan counts every leaf.
	wide := &exec.Plan{Steps: make([]exec.JoinStep, 6)}
	mp := device.PlanMemory(m, wide, -1)
	if mp.Selections != 7 || mp.Joins != 0 {
		t.Fatalf("H0 memory plan: %+v", mp)
	}
}

func TestValidateRejectsOversizedCommands(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	d := device.New(ds.Model, ds.Cat)
	if err := d.Validate(&device.Command{Plan: p, SplitAfter: len(p.Steps) + 3}); err == nil {
		t.Fatal("split beyond the plan must fail validation")
	}
	// A crushed budget rejects everything beyond tiny offloads.
	m := ds.Model
	m.DeviceNDPBudget = 1
	tiny := device.New(m, ds.Cat)
	if err := tiny.Validate(&device.Command{Plan: p, SplitAfter: 2}); err == nil {
		t.Fatal("over-budget command must fail validation")
	}
}

func TestCommandBytesGrowWithPlan(t *testing.T) {
	_, opt := env(t)
	small, err := opt.BuildPlan(job.QueryByName("32b"))
	if err != nil {
		t.Fatal(err)
	}
	big, err := opt.BuildPlan(job.QueryByName("29a"))
	if err != nil {
		t.Fatal(err)
	}
	cs := &device.Command{Plan: small, SplitAfter: 1}
	cb := &device.Command{Plan: big, SplitAfter: 1}
	if cb.Bytes() <= cs.Bytes() {
		t.Fatal("bigger plans must serialize to bigger commands")
	}
}

func TestRunH0EmitsLeavesThenDrivingChunks(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	d := device.New(ds.Model, ds.Cat)
	cmd := &device.Command{Plan: p, SplitAfter: -1, Chunks: 4}
	mp := device.PlanMemory(ds.Model, p, -1)
	eng := d.Engine(mp)
	hostEng := &exec.Engine{Cat: ds.Cat}
	pl, err := hostEng.StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	var leafBatches, chunkBatches int
	sawChunk := false
	var lastReady vclock.Time
	emit := func(b device.Batch) error {
		if b.Ready < lastReady {
			t.Fatal("batch timestamps must be monotone")
		}
		lastReady = b.Ready
		if b.LeafAlias != "" {
			if sawChunk {
				t.Fatal("leaf batches must precede driving chunks")
			}
			leafBatches++
			if b.Cols == nil && b.Bytes > 0 {
				t.Fatal("leaf batch without a column batch")
			}
		} else {
			sawChunk = true
			chunkBatches++
		}
		return nil
	}
	if err := d.Run(cmd, pl, eng, emit, func(int) (vclock.Time, bool) { return 0, false }); err != nil {
		t.Fatal(err)
	}
	if leafBatches != len(p.Steps) {
		t.Fatalf("H0 emitted %d leaf batches, want %d", leafBatches, len(p.Steps))
	}
	if chunkBatches == 0 {
		t.Fatal("no driving chunks emitted")
	}
}

func TestRunHkProducesJoinedTuples(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	d := device.New(ds.Model, ds.Cat)
	split := 2
	cmd := &device.Command{Plan: p, SplitAfter: split, Chunks: 4}
	mp := device.PlanMemory(ds.Model, p, split)
	eng := d.Engine(mp)
	pl, err := (&exec.Engine{Cat: ds.Cat}).StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	emit := func(b device.Batch) error {
		if n := b.Tuples.Len(); n > 0 && b.Tuples.Width() != split+1 {
			t.Fatalf("tuples span %d tables, want %d", b.Tuples.Width(), split+1)
		}
		total += b.Tuples.Len()
		return nil
	}
	if err := d.Run(cmd, pl, eng, emit, func(int) (vclock.Time, bool) { return 0, false }); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("device pipeline produced nothing")
	}
	if d.TL.Now() <= 0 {
		t.Fatal("device work was not charged")
	}
}

func TestWaitSlotBackPressure(t *testing.T) {
	ds, opt := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Model
	m.SharedSlots = 1
	d := device.New(m, ds.Cat)
	split := 1
	cmd := &device.Command{Plan: p, SplitAfter: split, Chunks: 8}
	mp := device.PlanMemory(m, p, split)
	eng := d.Engine(mp)
	pl, err := (&exec.Engine{Cat: ds.Cat}).StartPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	// The host "fetches" each batch only far in the future, so the single
	// slot forces the device to stall between batches.
	var ready []vclock.Time
	slack := vclock.Time(0)
	emit := func(b device.Batch) error {
		ready = append(ready, b.Ready)
		return nil
	}
	waitSlot := func(j int) (vclock.Time, bool) {
		if j < len(ready) {
			slack += 1e9 // each fetch 1 virtual second after the last
			return ready[j].Add(vclock.Duration(slack)), true
		}
		return 0, false
	}
	if err := d.Run(cmd, pl, eng, emit, waitSlot); err != nil {
		t.Fatal(err)
	}
	if len(ready) > 1 && d.TL.Booked(hw.CatWaitSlots) <= 0 {
		t.Fatal("device never stalled despite a single occupied slot")
	}
}

// TestBatchChecksumPinned pins the sealed-sum framing: a hand-built batch
// with driving and join positions plus a leaf column batch (partially
// selected, out of row order) must hash to the value the row-slice tuple
// format produced, so sealed sums survive any change of tuple storage.
func TestBatchChecksumPinned(t *testing.T) {
	row := func(s string) []byte { return []byte(s) }
	b := device.Batch{
		Tuples: exec.TupleSetOf(
			[][]byte{row("drive-0"), row("drive-1"), row("drive-1")},
			[][]byte{row("join-a"), row("join-bb"), row("join-a")},
		),
		Cols: &exec.ColBatch{
			Rows: [][]byte{row("leaf-x"), row("leaf-yy"), row("leaf-zzz")},
			Sel:  []int32{2, 0},
		},
		LeafAlias: "mk",
	}
	if got, want := b.Checksum(), uint64(0x993aa586e67971d8); got != want {
		t.Errorf("checksum = %#x, want %#x", got, want)
	}
	if got, want := (&device.Batch{}).Checksum(), uint64(0xa8c7f832281a39c5); got != want {
		t.Errorf("empty checksum = %#x, want %#x", got, want)
	}
}
