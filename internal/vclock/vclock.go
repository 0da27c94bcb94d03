// Package vclock provides the virtual-time substrate for the hybridNDP
// simulator. Operators execute for real over real data, but instead of being
// timed with a wall clock they charge virtual durations to a Timeline at
// rates calibrated from the hardware model. Two timelines (host and device)
// advance independently; rendezvous points such as buffer handoffs are
// modelled with WaitUntil, which moves a consumer forward to the producer's
// timestamp and reports the stall, exactly mirroring the cooperative
// execution model of the paper (Fig. 17).
package vclock

import (
	"fmt"
	"sort"
	"time"
)

// Duration is a virtual duration in nanoseconds. It is kept as a float64 so
// that sub-nanosecond per-record costs accumulate without rounding to zero.
type Duration float64

// Common virtual durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Std converts a virtual duration to a time.Duration for display.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// FromStd converts a wall-clock duration into virtual nanoseconds. It is the
// only sanctioned crossing in that direction (the vtunits analyzer flags raw
// conversions); callers should have a stated reason to import measured wall
// time into virtual accounting, e.g. seeding a cost model from a calibration
// run.
func FromStd(d time.Duration) Duration { return Duration(d) }

func (d Duration) String() string { return d.Std().String() }

// Seconds reports the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds reports the duration in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Time is a virtual instant: nanoseconds since the start of the execution.
type Time float64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return time.Duration(t).String() }

// MaxTime returns the later of two instants.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Timeline is one engine's private virtual clock plus a per-category cost
// account used for execution breakdowns (paper Table 4).
type Timeline struct {
	name    string
	now     Time
	account map[string]Duration
}

// NewTimeline returns a timeline starting at virtual time zero.
func NewTimeline(name string) *Timeline {
	return &Timeline{name: name, account: make(map[string]Duration)}
}

// Name reports the timeline's label ("host" or "device").
func (tl *Timeline) Name() string { return tl.name }

// Now reports the current virtual instant.
func (tl *Timeline) Now() Time { return tl.now }

// Charge advances the clock by d and books it under category.
func (tl *Timeline) Charge(category string, d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative charge %v to %s/%s", d, tl.name, category))
	}
	tl.now = tl.now.Add(d)
	tl.account[category] += d
}

// WaitUntil advances the clock to t if t is in the future, booking the gap
// under category (e.g. "wait.initial", "wait.slots"). It returns the stall
// duration (zero when no wait was needed).
func (tl *Timeline) WaitUntil(t Time, category string) Duration {
	if t <= tl.now {
		return 0
	}
	d := t.Sub(tl.now)
	tl.now = t
	tl.account[category] += d
	return d
}

// Account returns a copy of the per-category cost account.
func (tl *Timeline) Account() map[string]Duration {
	out := make(map[string]Duration, len(tl.account))
	for k, v := range tl.account {
		out[k] = v
	}
	return out
}

// SumAccount adds up the durations of an account's categories that keep
// accepts (every category when keep is nil) in sorted category order. Float
// addition is not associative, so a sum taken in map iteration order can
// differ in its last bits from run to run; every total over an account goes
// through here.
func SumAccount(account map[string]Duration, keep func(category string) bool) Duration {
	cats := make([]string, 0, len(account))
	for c := range account {
		if keep == nil || keep(c) {
			cats = append(cats, c)
		}
	}
	sort.Strings(cats)
	var sum Duration
	for _, c := range cats {
		sum += account[c]
	}
	return sum
}

// Booked reports the total booked under category.
func (tl *Timeline) Booked(category string) Duration { return tl.account[category] }

// Reset rewinds the timeline to zero and clears the account.
func (tl *Timeline) Reset() {
	tl.now = 0
	tl.account = make(map[string]Duration)
}

// BreakdownEntry is one line of a timeline's account report.
type BreakdownEntry struct {
	Category string
	Total    Duration
	Percent  float64
}

// Breakdown returns the account sorted by descending share of the total.
func (tl *Timeline) Breakdown() []BreakdownEntry {
	total := SumAccount(tl.account, nil)
	out := make([]BreakdownEntry, 0, len(tl.account))
	for k, v := range tl.account {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(v) / float64(total)
		}
		out = append(out, BreakdownEntry{Category: k, Total: v, Percent: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Category < out[j].Category
	})
	return out
}
