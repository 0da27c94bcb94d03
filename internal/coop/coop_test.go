package coop_test

import (
	"sync"
	"testing"

	"hybridndp/internal/coop"
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

func env(t *testing.T) (*optimizer.Optimizer, *coop.Executor) {
	t.Helper()
	dsOnce.Do(func() { ds, dsErr = job.Load(0.01, hw.Cosmos()) })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return optimizer.New(ds.Cat, ds.Model), coop.NewExecutor(ds.Cat, ds.DB, ds.Model)
}

func TestStrategyStrings(t *testing.T) {
	cases := map[string]coop.Strategy{
		"block":  {Kind: coop.BlockOnly},
		"native": {Kind: coop.HostNative},
		"ndp":    {Kind: coop.NDPOnly},
		"H0":     {Kind: coop.Hybrid, Split: -1},
		"H3":     {Kind: coop.Hybrid, Split: 3},
	}
	for want, s := range cases {
		if s.String() != want {
			t.Errorf("%v renders %q, want %q", s, s.String(), want)
		}
	}
}

func TestEveryStrategySameResultRows(t *testing.T) {
	opt, ex := env(t)
	for _, name := range []string{"1a", "4b", "10c", "32b"} {
		q := job.QueryByName(name)
		p, err := opt.BuildPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		strategies := []coop.Strategy{
			{Kind: coop.BlockOnly}, {Kind: coop.HostNative}, {Kind: coop.NDPOnly},
			{Kind: coop.Hybrid, Split: -1},
		}
		for k := 1; k <= len(p.Steps); k++ {
			strategies = append(strategies, coop.Strategy{Kind: coop.Hybrid, Split: k})
		}
		var ref int64 = -1
		for _, st := range strategies {
			rep, err := ex.Run(p, st)
			if err != nil {
				t.Fatalf("%s %v: %v", name, st, err)
			}
			if ref < 0 {
				ref = rep.Result.RowCount
			} else if rep.Result.RowCount != ref {
				t.Fatalf("%s %v: %d rows, reference %d", name, st, rep.Result.RowCount, ref)
			}
		}
	}
}

func TestBlockStackSlowerThanNative(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	blk, err := ex.Run(p, coop.Strategy{Kind: coop.BlockOnly})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := ex.Run(p, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Elapsed <= nat.Elapsed {
		t.Fatalf("BLK (%v) must be slower than native (%v)", blk.Elapsed, nat.Elapsed)
	}
}

func TestHybridTimelineMonotone(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches == 0 || len(rep.Timeline) != rep.Batches {
		t.Fatalf("batches=%d timeline=%d", rep.Batches, len(rep.Timeline))
	}
	var prevFetch vclock.Time
	for _, ev := range rep.Timeline {
		if ev.HostFetched < ev.DeviceReady {
			t.Fatal("host fetched a batch before the device produced it")
		}
		if ev.HostDone < ev.HostFetched {
			t.Fatal("host finished a batch before fetching it")
		}
		if ev.HostFetched < prevFetch {
			t.Fatal("fetches out of order")
		}
		prevFetch = ev.HostFetched
	}
	if vclock.Time(rep.Elapsed) < rep.Timeline[len(rep.Timeline)-1].HostDone {
		t.Fatal("elapsed ends before the last batch completes")
	}
}

func TestHybridRejectsBadSplits(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: len(p.Steps) + 5}); err == nil {
		t.Fatal("oversized split must fail")
	}
	single, err := opt.BuildPlan(job.Listing2(1000, false))
	if err != nil {
		t.Fatal(err)
	}
	single.Steps = nil // degenerate: no joins
	if _, err := ex.Run(single, coop.Strategy{Kind: coop.Hybrid, Split: 1}); err == nil {
		t.Fatal("hybrid without joins must fail")
	}
}

func TestNDPOnlyTransfersOnlyResults(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: -1})
	if err != nil {
		t.Fatal(err)
	}
	if ndp.TransferredBytes >= h0.TransferredBytes {
		t.Fatalf("full NDP ships %d B, H0 ships %d B — NDP must ship less (final result only)",
			ndp.TransferredBytes, h0.TransferredBytes)
	}
	if ndp.DeviceAccount == nil || ndp.HostAccount[hw.CatWaitInitial] <= 0 {
		t.Fatal("NDP-only run missing device account or host wait")
	}
}

func TestHybridAccountsCoherent(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: -1})
	if err != nil {
		t.Fatal(err)
	}
	hostSum := vclock.SumAccount(rep.HostAccount, nil)
	// Float summation order differs between the timeline and this sum.
	if diff := float64(hostSum - rep.Elapsed); diff > 1 || diff < -1 {
		t.Fatalf("host account sums to %v but elapsed is %v", hostSum, rep.Elapsed)
	}
	if rep.WaitInitial() < 0 || rep.WaitFetch() < 0 || rep.DeviceWaitSlots() < 0 {
		t.Fatal("negative waits")
	}
	if rep.DeviceMemory.Selections == 0 {
		t.Fatal("memory plan missing")
	}
}

func TestSingleTableNDPOnly(t *testing.T) {
	// A single-table query (no joins) still runs under full NDP: the device
	// scans, filters and aggregates, and only the final result crosses.
	opt, ex := env(t)
	q := job.Listing2(int32(ds.Counts["movie_link"]), false)
	q.Tables = q.Tables[:1] // movie_keyword only
	q.Joins = nil
	q.Output = q.Output[:1]
	delete(q.Filters, "ml")
	q.Name = "single"
	p, err := opt.BuildPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	host, err := ex.Run(p, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	if host.Result.RowCount != ndp.Result.RowCount {
		t.Fatalf("single-table rows differ: %d vs %d", host.Result.RowCount, ndp.Result.RowCount)
	}
	if ndp.TransferredBytes <= 0 {
		t.Fatal("NDP-only must ship the result")
	}
}

func TestHybridH0SeedsEveryInner(t *testing.T) {
	// H0's leaf offloading must seed every join's inner side: the host must
	// not rescan any table (its flash account stays empty apart from the
	// driving-chunk processing it receives pre-filtered).
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.HostAccount[hw.CatFlashLoad]; got > 0 {
		t.Fatalf("H0 host still read %v of flash — a leaf was not seeded", got)
	}
	leaves := 0
	for _, ev := range rep.Timeline {
		_ = ev
		leaves++
	}
	if rep.Batches < len(p.Steps)+1 {
		t.Fatalf("H0 shipped %d batches for %d inners + driving chunks", rep.Batches, len(p.Steps))
	}
}

func TestCacheFormatOverride(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("8c"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ex.CacheFormat = coop.CacheAuto }()
	ex.CacheFormat = coop.CacheRow
	row, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	ex.CacheFormat = coop.CachePointer
	ptr, err := ex.Run(p, coop.Strategy{Kind: coop.NDPOnly})
	if err != nil {
		t.Fatal(err)
	}
	if row.Result.RowCount != ptr.Result.RowCount {
		t.Fatal("cache format changed the result")
	}
	if ptr.DeviceAccount[hw.CatBufferManage] <= row.DeviceAccount[hw.CatBufferManage] {
		t.Fatal("pointer format must pay more buffer management (dereferencing)")
	}
}

func TestMultiDeviceMatchesSingleDevice(t *testing.T) {
	opt, ex := env(t)
	for _, name := range []string{"1a", "17b"} {
		p, err := opt.BuildPlan(job.QueryByName(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, split := range []int{-1, 1} {
			single, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: split})
			if err != nil {
				t.Fatalf("%s H%d single: %v", name, split, err)
			}
			for _, n := range []int{1, 2, 4} {
				multi, err := ex.RunHybridMulti(p, coop.Strategy{Kind: coop.Hybrid, Split: split}, n)
				if err != nil {
					t.Fatalf("%s H%d x%d: %v", name, split, n, err)
				}
				if multi.Result.RowCount != single.Result.RowCount {
					t.Fatalf("%s H%d x%d: %d rows, single-device %d",
						name, split, n, multi.Result.RowCount, single.Result.RowCount)
				}
				if multi.Devices != n || len(multi.DeviceElapsed) != n {
					t.Fatalf("%s: device accounting wrong: %d/%d", name, multi.Devices, len(multi.DeviceElapsed))
				}
			}
		}
	}
}

func TestMultiDevicePartitionsShrinkPerDeviceWork(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	one, err := ex.RunHybridMulti(p, coop.Strategy{Kind: coop.Hybrid, Split: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := ex.RunHybridMulti(p, coop.Strategy{Kind: coop.Hybrid, Split: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var maxFour vclock.Duration
	for _, d := range four.DeviceElapsed {
		if d > maxFour {
			maxFour = d
		}
	}
	if maxFour >= one.DeviceElapsed[0] {
		t.Fatalf("slowest of 4 devices (%v) should be under the single device (%v)",
			maxFour, one.DeviceElapsed[0])
	}
}

func TestMultiDeviceRejectsNonHybrid(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("1a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.RunHybridMulti(p, coop.Strategy{Kind: coop.NDPOnly}, 2); err == nil {
		t.Fatal("non-hybrid multi-device run must fail")
	}
	if _, err := ex.RunHybridMulti(p, coop.Strategy{Kind: coop.Hybrid, Split: 99}, 2); err == nil {
		t.Fatal("oversized split must fail")
	}
}

func TestChunksOverride(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ex.Chunks = 0 }()
	ex.Chunks = 2
	few, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: -1})
	if err != nil {
		t.Fatal(err)
	}
	ex.Chunks = 32
	many, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: -1})
	if err != nil {
		t.Fatal(err)
	}
	if many.Result.RowCount != few.Result.RowCount {
		t.Fatal("chunking changed the result")
	}
}

// TestMultiReportAggregationInvariants pins the aggregation contract of
// MultiReport across fleet sizes: the per-device vectors match the fleet
// size, no device's busy time exceeds the end-to-end elapsed time (devices
// run within the cooperative window), and the union of partitioned results
// equals the single-device result.
func TestMultiReportAggregationInvariants(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ex.Run(p, coop.Strategy{Kind: coop.Hybrid, Split: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 8} {
		mr, err := ex.RunHybridMulti(p, coop.Strategy{Kind: coop.Hybrid, Split: 1}, n)
		if err != nil {
			t.Fatalf("x%d: %v", n, err)
		}
		if mr.Devices != n {
			t.Fatalf("x%d: Devices=%d", n, mr.Devices)
		}
		if len(mr.DeviceElapsed) != n || len(mr.DeviceAccounts) != n {
			t.Fatalf("x%d: per-device vectors sized %d/%d",
				n, len(mr.DeviceElapsed), len(mr.DeviceAccounts))
		}
		for d, el := range mr.DeviceElapsed {
			if el <= 0 {
				t.Fatalf("x%d: device %d reports no busy time", n, d)
			}
			if el > mr.Elapsed {
				t.Fatalf("x%d: device %d busy %v exceeds elapsed %v", n, d, el, mr.Elapsed)
			}
			if len(mr.DeviceAccounts[d]) == 0 {
				t.Fatalf("x%d: device %d has an empty account", n, d)
			}
		}
		if mr.Result.RowCount != ref.Result.RowCount {
			t.Fatalf("x%d: %d rows, single-device %d", n, mr.Result.RowCount, ref.Result.RowCount)
		}
		if mr.Batches < n {
			t.Fatalf("x%d: only %d batches; every device must ship at least one", n, mr.Batches)
		}
		if mr.TransferredBytes <= 0 {
			t.Fatalf("x%d: no bytes transferred", n)
		}
	}
}
