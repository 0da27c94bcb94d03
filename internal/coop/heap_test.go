package coop_test

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"hybridndp/internal/coop"
	"hybridndp/internal/job"
)

// fanOutHeapBoundMB bounds the live-heap growth (MiB) of one 31c run at scale
// 0.01 over the heap live before it. 31c's BNLI step on movie_keyword turns
// 11,844 tuples into 516,704 ten-table tuples. With one slice header per
// table position, the run grew the live heap by 120–165 MiB under both
// strategies; flat row-id tuple sets grow it by 40–55 MiB.
const fanOutHeapBoundMB = 90

// TestFanOutPeakHeapBound runs the worst fan-out query under host-native and
// H2 while sampling /gc/heap/live:bytes, and fails when the peak grows past
// fanOutHeapBoundMB. It must not run in parallel with other tests: their
// allocations would count against this one's heap.
func TestFanOutPeakHeapBound(t *testing.T) {
	opt, ex := env(t)
	p, err := opt.BuildPlan(job.QueryByName("31c"))
	if err != nil {
		t.Fatal(err)
	}
	// A lower GC target samples the live heap more often (it only moves at
	// the end of a collection).
	defer debug.SetGCPercent(debug.SetGCPercent(50))
	for _, st := range []coop.Strategy{{Kind: coop.HostNative}, {Kind: coop.Hybrid, Split: 2}} {
		runtime.GC()
		base := liveHeapBytes()
		peak := base
		done := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				peak = max(peak, liveHeapBytes())
				select {
				case <-done:
					return
				case <-tick.C:
				}
			}
		}()
		_, err := ex.Run(p, st)
		close(done)
		<-sampled
		if err != nil {
			t.Fatalf("31c %v: %v", st, err)
		}
		growth := float64(peak-base) / (1 << 20)
		t.Logf("31c %v: live heap %.1f MB before, peak growth %.1f MB", st, float64(base)/(1<<20), growth)
		if growth > fanOutHeapBoundMB {
			t.Errorf("31c %v: live heap grew %.1f MB, bound %d MB", st, growth, fanOutHeapBoundMB)
		}
	}
}

// liveHeapBytes reads the live heap as of the last completed collection.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
