// Cooperative demonstrates the overlapping host/device execution of paper §4
// and Fig. 17 on JOB Q8.d: the device produces intermediate result sets into
// shared buffer slots while the host consumes them, and the two engines only
// stall on each other at the boundaries.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	hybridndp "hybridndp"
	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/vclock"
)

func main() {
	sys, err := hybridndp.OpenJOB(0.05, hw.Cosmos())
	if err != nil {
		log.Fatal(err)
	}
	q := job.QueryByName("8d")
	// The paper analyses Q8.d at split H2 — two joins on the device.
	rep, err := sys.Run(q, coop.Strategy{Kind: coop.Hybrid, Split: 2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Q8.d at H2: %8.3f ms end-to-end, %d batches\n\n", rep.Elapsed.Milliseconds(), rep.Batches)

	fmt.Println("batch timeline (paper Fig. 17):")
	fmt.Println("  idx   device-ready   host-fetched   host-done     rows")
	for _, ev := range rep.Timeline {
		fmt.Printf("  %3d %12.3fms %12.3fms %12.3fms %8d\n",
			ev.Idx, float64(ev.DeviceReady)/1e6, float64(ev.HostFetched)/1e6,
			float64(ev.HostDone)/1e6, ev.Rows)
	}

	fmt.Println("\nhost stage distribution (paper Table 4, left):")
	hostTotal := float64(vclock.SumAccount(rep.HostAccount, nil))
	stages := []struct{ label, cat string }{
		{"NDP setup (command)", hw.CatNDPSetup},
		{"Wait (initial device exec.)", hw.CatWaitInitial},
		{"Wait (2nd..nth device exec.)", hw.CatWaitFetch},
		{"Result transfer", hw.CatTransfer},
	}
	rest := hostTotal
	for _, s := range stages {
		d := float64(rep.HostAccount[s.cat])
		rest -= d
		fmt.Printf("  %-30s %8.3fms  %5.2f%%\n", s.label, d/1e6, 100*d/hostTotal)
	}
	fmt.Printf("  %-30s %8.3fms  %5.2f%%\n", "Processing", rest/1e6, 100*rest/hostTotal)

	fmt.Println("\ndevice operation distribution (paper Table 4, right):")
	devTotal := float64(vclock.SumAccount(rep.DeviceAccount, nil))
	type kv struct {
		k string
		v float64
	}
	var entries []kv
	for k, v := range rep.DeviceAccount {
		entries = append(entries, kv{k, float64(v)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].v > entries[j].v })
	for _, e := range entries {
		if e.v/devTotal < 0.001 {
			continue
		}
		bar := strings.Repeat("▒", int(30*e.v/devTotal))
		fmt.Printf("  %-30s %5.2f%% %s\n", e.k, 100*e.v/devTotal, bar)
	}
}
