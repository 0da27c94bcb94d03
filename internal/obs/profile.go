package obs

import (
	"fmt"
	"io"
	"math"
	"strings"

	"hybridndp/internal/hw"
	"hybridndp/internal/vclock"
)

// Phase is one bucket of the paper's phase structure (Fig. 17 / Table 4): the
// places a hybrid query's virtual time can go. Host and device timelines use
// disjoint subsets plus the shared setup/transfer phases.
type Phase string

// The paper phases. HostProcess and DeviceOther absorb every category not
// explicitly mapped, so a profile always covers its timeline completely.
const (
	PhaseSetup        Phase = "setup"         // NDP command transfer / rendezvous
	PhaseDeviceScan   Phase = "device-scan"   // flash load, seeks, selection, evaluation
	PhaseDeviceJoin   Phase = "device-join"   // on-device hash build/probe, grouping, buffer mgmt
	PhaseSlotWait     Phase = "slot-wait"     // device stalled on a full shared buffer
	PhaseStallInitial Phase = "stall-initial" // host wait for the first device batch
	PhaseStallFetch   Phase = "stall-fetch"   // host waits for later batches
	PhaseTransfer     Phase = "transfer"      // interconnect result transfer
	PhaseHostBuild    Phase = "host-build"    // host-side hash build (PQEP prep)
	PhaseHostProbe    Phase = "host-probe"    // host-side probe work
	PhaseHostProcess  Phase = "host-process"  // remaining host processing
	PhaseDeviceOther  Phase = "device-other"  // remaining device work
)

// hostPhases / devicePhases fix the rendering order of a profile.
var hostPhases = []Phase{
	PhaseSetup, PhaseStallInitial, PhaseStallFetch, PhaseTransfer,
	PhaseHostBuild, PhaseHostProbe, PhaseHostProcess,
}

var devicePhases = []Phase{
	PhaseSetup, PhaseDeviceScan, PhaseDeviceJoin, PhaseSlotWait,
	PhaseTransfer, PhaseDeviceOther,
}

// hostPhaseOf maps a host timeline cost category to its paper phase.
func hostPhaseOf(cat string) Phase {
	switch cat {
	case hw.CatNDPSetup:
		return PhaseSetup
	case hw.CatWaitInitial:
		return PhaseStallInitial
	case hw.CatWaitFetch:
		return PhaseStallFetch
	case hw.CatTransfer:
		return PhaseTransfer
	case hw.CatHashBuild:
		return PhaseHostBuild
	case hw.CatHashProbe:
		return PhaseHostProbe
	default:
		return PhaseHostProcess
	}
}

// devicePhaseOf maps a device timeline cost category to its paper phase.
func devicePhaseOf(cat string) Phase {
	switch cat {
	case hw.CatNDPSetup:
		return PhaseSetup
	case hw.CatWaitSlots:
		return PhaseSlotWait
	case hw.CatTransfer:
		return PhaseTransfer
	case hw.CatFlashLoad, hw.CatSeekIndex, hw.CatSeekData,
		hw.CatSelection, hw.CatMemcmp, hw.CatCompareKeys, hw.CatEval:
		return PhaseDeviceScan
	case hw.CatHashBuild, hw.CatHashProbe, hw.CatGroup, hw.CatBufferManage, hw.CatMemcpy:
		return PhaseDeviceJoin
	default:
		return PhaseDeviceOther
	}
}

// PhaseTotal is one rendered line of a profile.
type PhaseTotal struct {
	Phase   Phase
	Total   vclock.Duration
	Percent float64 // share of the timeline's total
}

// QueryProfile aggregates one query execution into the paper's phase
// structure. Host phases partition the host timeline exactly: their sum
// equals the end-to-end virtual runtime (Elapsed), because every host-side
// charge and stall lands in exactly one phase. Device phases likewise
// partition the device timeline.
type QueryProfile struct {
	Query    string
	Strategy string
	// Elapsed is the end-to-end virtual runtime (host timeline completion).
	Elapsed vclock.Duration
	// DeviceElapsed is the device timeline's completion instant (zero for
	// host-only strategies).
	DeviceElapsed vclock.Duration

	Host   []PhaseTotal
	Device []PhaseTotal
}

// aggregate folds an account into fixed-order phase totals using the given
// category→phase mapping; total is the timeline's end instant used for
// percentages.
func aggregate(account map[string]vclock.Duration, phaseOf func(string) Phase,
	order []Phase, total vclock.Duration) []PhaseTotal {
	out := make([]PhaseTotal, 0, len(order))
	for _, ph := range order {
		sum := vclock.SumAccount(account, func(cat string) bool { return phaseOf(cat) == ph })
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(sum) / float64(total)
		}
		out = append(out, PhaseTotal{Phase: ph, Total: sum, Percent: pct})
	}
	return out
}

// Profile builds the paper-phase profile of one execution from its timeline
// accounts. hostAccount/deviceAccount are vclock.Timeline.Account() maps;
// elapsed and deviceElapsed are the corresponding end instants. A host-only
// execution passes a nil deviceAccount.
func Profile(queryName, strategy string,
	hostAccount, deviceAccount map[string]vclock.Duration,
	elapsed, deviceElapsed vclock.Duration) *QueryProfile {

	p := &QueryProfile{
		Query:         queryName,
		Strategy:      strategy,
		Elapsed:       elapsed,
		DeviceElapsed: deviceElapsed,
		Host:          aggregate(hostAccount, hostPhaseOf, hostPhases, elapsed),
	}
	if deviceAccount != nil {
		p.Device = aggregate(deviceAccount, devicePhaseOf, devicePhases, deviceElapsed)
	}
	return p
}

// HostPhase reports the host-side total booked under ph.
func (p *QueryProfile) HostPhase(ph Phase) vclock.Duration { return phaseTotal(p.Host, ph) }

// DevicePhase reports the device-side total booked under ph.
func (p *QueryProfile) DevicePhase(ph Phase) vclock.Duration { return phaseTotal(p.Device, ph) }

func phaseTotal(ts []PhaseTotal, ph Phase) vclock.Duration {
	for _, t := range ts {
		if t.Phase == ph {
			return t.Total
		}
	}
	return 0
}

// Stalls reports the profile's stall accounting (paper Table 4): the host's
// initial and follow-up waits for the device and the device's waits for a
// free shared-buffer slot.
func (p *QueryProfile) Stalls() (hostInitial, hostFetch, deviceSlots vclock.Duration) {
	return p.HostPhase(PhaseStallInitial), p.HostPhase(PhaseStallFetch), p.DevicePhase(PhaseSlotWait)
}

// reconcileTolerance bounds the relative error accepted by Reconciles: phase
// sums re-add the same float64 charges in a different order than the clock
// advanced, so equality holds only up to accumulation rounding.
const reconcileTolerance = 1e-9

// Reconciles verifies the profile's core invariant: the phase totals
// partition their timeline, i.e. the host phases sum to the end-to-end
// virtual runtime and the device phases to the device timeline span (up to
// float64 accumulation rounding).
func (p *QueryProfile) Reconciles() bool {
	return closeTo(sumPhases(p.Host), p.Elapsed) &&
		(p.Device == nil || closeTo(sumPhases(p.Device), p.DeviceElapsed))
}

func sumPhases(ts []PhaseTotal) vclock.Duration {
	var s vclock.Duration
	for _, t := range ts {
		s += t.Total
	}
	return s
}

func closeTo(a, b vclock.Duration) bool {
	diff := math.Abs(float64(a) - float64(b))
	scale := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return diff <= reconcileTolerance*math.Max(scale, 1)
}

// WriteText renders the profile as the paper's two phase tables.
func (p *QueryProfile) WriteText(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s [%s] elapsed=%s\n", p.Query, p.Strategy, p.Elapsed)
	writePhases(&b, "host", p.Host)
	if p.Device != nil {
		writePhases(&b, "device", p.Device)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePhases(b *strings.Builder, tl string, ts []PhaseTotal) {
	fmt.Fprintf(b, "  %s:\n", tl)
	for _, t := range ts {
		fmt.Fprintf(b, "    %-14s %12s %6.2f%%\n", t.Phase, t.Total.String(), t.Percent)
	}
}

// MergeProfiles aggregates many per-query profiles into one workload-level
// phase breakdown per timeline — the harness-level aggregation view (where
// does the mix's virtual time go). Phases keep their fixed order; percentages
// are recomputed against the merged totals.
func MergeProfiles(ps []*QueryProfile) *QueryProfile {
	merged := &QueryProfile{Query: fmt.Sprintf("aggregate(%d)", len(ps)), Strategy: "mixed"}
	hostSums := map[Phase]vclock.Duration{}
	devSums := map[Phase]vclock.Duration{}
	anyDev := false
	for _, p := range ps {
		if p == nil {
			continue
		}
		merged.Elapsed += p.Elapsed
		merged.DeviceElapsed += p.DeviceElapsed
		for _, t := range p.Host {
			hostSums[t.Phase] += t.Total
		}
		if p.Device != nil {
			anyDev = true
			for _, t := range p.Device {
				devSums[t.Phase] += t.Total
			}
		}
	}
	toTotals := func(sums map[Phase]vclock.Duration, order []Phase, total vclock.Duration) []PhaseTotal {
		out := make([]PhaseTotal, 0, len(order))
		for _, ph := range order {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(sums[ph]) / float64(total)
			}
			out = append(out, PhaseTotal{Phase: ph, Total: sums[ph], Percent: pct})
		}
		return out
	}
	merged.Host = toTotals(hostSums, hostPhases, merged.Elapsed)
	if anyDev {
		merged.Device = toTotals(devSums, devicePhases, merged.DeviceElapsed)
	}
	return merged
}
