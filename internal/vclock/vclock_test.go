package vclock

import (
	"testing"
	"testing/quick"
)

func TestChargeAdvancesClock(t *testing.T) {
	tl := NewTimeline("host")
	if tl.Now() != 0 {
		t.Fatal("fresh timeline must start at zero")
	}
	tl.Charge("work", 100*Microsecond)
	tl.Charge("work", 50*Microsecond)
	tl.Charge("other", 25*Microsecond)
	if got := tl.Now(); got != Time(175*Microsecond) {
		t.Fatalf("Now = %v, want 175µs", got)
	}
	if got := tl.Booked("work"); got != 150*Microsecond {
		t.Fatalf("Booked(work) = %v", got)
	}
}

func TestChargePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge must panic")
		}
	}()
	NewTimeline("x").Charge("bad", -1)
}

func TestWaitUntil(t *testing.T) {
	tl := NewTimeline("host")
	tl.Charge("work", 10*Microsecond)
	// Waiting for a past instant is free.
	if d := tl.WaitUntil(Time(5*Microsecond), "wait"); d != 0 {
		t.Fatalf("past wait returned %v", d)
	}
	if tl.Now() != Time(10*Microsecond) {
		t.Fatal("past wait must not move the clock")
	}
	// Waiting for a future instant books the stall.
	if d := tl.WaitUntil(Time(30*Microsecond), "wait"); d != 20*Microsecond {
		t.Fatalf("future wait returned %v, want 20µs", d)
	}
	if tl.Booked("wait") != 20*Microsecond {
		t.Fatalf("wait booked %v", tl.Booked("wait"))
	}
	if tl.Now() != Time(30*Microsecond) {
		t.Fatalf("Now = %v", tl.Now())
	}
}

func TestBreakdownSortedAndSumsTo100(t *testing.T) {
	tl := NewTimeline("dev")
	tl.Charge("a", 10)
	tl.Charge("b", 30)
	tl.Charge("c", 60)
	bd := tl.Breakdown()
	if len(bd) != 3 || bd[0].Category != "c" || bd[2].Category != "a" {
		t.Fatalf("breakdown order wrong: %+v", bd)
	}
	sum := 0.0
	for _, e := range bd {
		sum += e.Percent
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("percentages sum to %.2f", sum)
	}
}

func TestResetClearsState(t *testing.T) {
	tl := NewTimeline("x")
	tl.Charge("a", 5)
	tl.Reset()
	if tl.Now() != 0 || tl.Booked("a") != 0 || len(tl.Account()) != 0 {
		t.Fatal("Reset left state behind")
	}
}

func TestAccountIsACopy(t *testing.T) {
	tl := NewTimeline("x")
	tl.Charge("a", 5)
	acc := tl.Account()
	acc["a"] = 999
	if tl.Booked("a") != 5 {
		t.Fatal("mutating the returned account affected the timeline")
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != Time(150) {
		t.Fatalf("Add: %v", b)
	}
	if d := b.Sub(a); d != 50 {
		t.Fatalf("Sub: %v", d)
	}
	if MaxTime(a, b) != b || MaxTime(b, a) != b {
		t.Fatal("MaxTime wrong")
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Millisecond
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", d.Seconds())
	}
	if d.Milliseconds() != 1500 {
		t.Fatalf("Milliseconds = %v", d.Milliseconds())
	}
}

func TestClockMonotonicProperty(t *testing.T) {
	// Any sequence of charges and waits keeps the clock monotone and the
	// clock always equals the sum of all booked durations.
	f := func(charges []uint16) bool {
		tl := NewTimeline("p")
		prev := tl.Now()
		for i, c := range charges {
			if i%3 == 2 {
				tl.WaitUntil(tl.Now().Add(Duration(c)), "w")
			} else {
				tl.Charge("c", Duration(c))
			}
			if tl.Now() < prev {
				return false
			}
			prev = tl.Now()
		}
		return Time(SumAccount(tl.Account(), nil)) == tl.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAccountSumIsOrderFree sums one account 200 times, each through a fresh
// map: 0.1+0.2+0.3 depends on the addition order, so a total taken in map
// iteration order takes more than one value.
func TestAccountSumIsOrderFree(t *testing.T) {
	sums := map[Duration]bool{}
	shares := map[float64]bool{}
	for i := 0; i < 200; i++ {
		tl := NewTimeline("host")
		tl.Charge("a", 0.1)
		tl.Charge("b", 0.2)
		tl.Charge("c", 0.3)
		sums[SumAccount(tl.Account(), nil)] = true
		shares[tl.Breakdown()[0].Percent] = true
	}
	if len(sums) != 1 || len(shares) != 1 {
		t.Fatalf("200 passes gave %d distinct sums and %d distinct shares, want 1 each", len(sums), len(shares))
	}
	if want := (Duration(0.1) + 0.2) + 0.3; !sums[want] {
		t.Errorf("sum is not taken in sorted category order: got %v, want %v", sums, want)
	}
	if got := SumAccount(map[string]Duration{"a": 1, "b": 2, "c": 4}, func(c string) bool { return c != "b" }); got != 5 {
		t.Errorf("filtered sum = %v, want 5", got)
	}
}
