package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark machine's speed drifts. On the 2-vCPU host the benchmark was
// built on, a fixed loop took 37–72 ms per 10 s window over two minutes, and
// its thread CPU time tracked its wall time: the cores themselves slowed, so
// no CPU-time figure escapes the drift, and the host exposes no hardware
// counters to count instructions instead. Over runs of the same code, wall
// ops/s spread by up to 57% between quartiles. Every timed end-to-end figure
// is therefore reported at a reference speed: the benchmark times a fixed
// kernel of its own (probe) before and after each set-up and each pass, and
// divides the stretch's wall time by its slowness, the median probe time
// over refProbeMs. The kernel calls no program code, allocates nothing and
// runs after a forced collection, so a change to the program does not move
// it. Every run prints the raw wall figures on its `wall` line.

// refProbeMs is the probe time that defines the reference speed: a figure
// at the reference speed is the wall figure on a machine whose probe takes
// this long, about the fastest the benchmark machine ran it (22–33 ms seen).
const refProbeMs = 22.0

// probeWords is the size of each probe goroutine's table: 4 MB, past the
// 2 MB L2 of one core.
const probeWords = 1 << 19

// probeTables holds one table per core. It is mapped outside the Go heap, so
// the collector never scans it and peak_live_heap_mb does not count it.
var probeTables = func() [][]uint64 {
	const cores = 2
	mem, err := syscall.Mmap(-1, 0, cores*probeWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), cores*probeWords)
	return [][]uint64{all[:probeWords], all[probeWords:]}
}()

// probeRuns is how many times one probe runs the kernel pair. Single runs
// of 20-30 ms differed by 13-26% from one to the next; job-sweep probes only
// three times in its measured phase.
const probeRuns = 5

// probe returns the median over probeRuns of probePair.
func probe() float64 {
	ms := make([]float64, probeRuns)
	for i := range ms {
		ms[i] = probePair()
	}
	return median(ms)
}

// probePair returns the mean wall milliseconds of the kernel run at once on
// each of the two cores the benchmark uses (the workloads keep both busy: a
// client on one, the collector or a scheduler worker on the other).
func probePair() float64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	ms := make([]float64, len(probeTables))
	for i, t := range probeTables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ms[i] = probeKernel(t)
		}()
	}
	close(start)
	wg.Wait()
	return mean(ms)
}

// probeKernel returns the wall milliseconds of random reads and writes over
// t, with a data-dependent branch per step. An untimed sweep first brings
// the table back into cache, whatever the workload left there.
func probeKernel(t []uint64) float64 {
	for i := range t {
		t[i]++
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint64
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & uint64(len(t)-1)
		v := t[j]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v >> 3
		}
		t[j] = v + x
	}
	t[0] += acc
	return float64(time.Since(t0)) / 1e6
}

// slowness is how many times slower than the reference speed the machine
// ran over a stretch, from the probes taken before, during and after it.
func slowness(probes []float64) float64 { return median(probes) / refProbeMs }
