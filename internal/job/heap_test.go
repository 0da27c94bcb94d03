package job

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"hybridndp/internal/hw"
)

// loadHeapBoundMB bounds the live heap (MiB) a scale-0.01 dataset keeps after
// loading. Its rows live once, in flushed SSTs; when the LSM trees kept their
// flushed memtables reachable, a second, pointer-dense skiplist copy of every
// row stayed live too and the dataset held 30.8 MiB instead of 7.4 MiB.
const loadHeapBoundMB = 12

// TestLoadedDatasetLiveHeap measures the live-heap growth of one load after a
// full collection on both sides. It must not run in parallel with other
// tests: their allocations would count against this one's heap.
func TestLoadedDatasetLiveHeap(t *testing.T) {
	runtime.GC()
	base := liveHeapBytes()
	ds, err := LoadSeeded(0.01, hw.Cosmos(), DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	growth := (float64(liveHeapBytes()) - float64(base)) / (1 << 20)
	runtime.KeepAlive(ds)
	t.Logf("scale 0.01 dataset: live heap grew %.1f MiB", growth)
	if growth > loadHeapBoundMB {
		t.Errorf("scale 0.01 dataset keeps %.1f MiB of live heap, bound %d MiB", growth, loadHeapBoundMB)
	}
}

// liveHeapBytes reads the live heap as of the last completed collection.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
