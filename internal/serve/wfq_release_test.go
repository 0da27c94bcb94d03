package serve

import (
	"testing"

	"hybridndp/internal/sched"
)

// TestTenantQueuePopReleasesSlot pops the head of a tenant's class queue and
// checks the slot it vacated no longer points at the request: the backing
// array lives until the slice reallocates, and a popped request must not.
func TestTenantQueuePopReleasesSlot(t *testing.T) {
	q := &tenantQueue{depth: 4}
	a := &request{seq: 1, prio: sched.Normal}
	b := &request{seq: 2, prio: sched.Normal}
	q.push(a)
	q.push(b)
	orig := q.classes[sched.Normal]
	if got := q.pop(); got != a {
		t.Fatalf("popped seq %d, want the head (seq 1)", got.seq)
	}
	if orig[0] != nil {
		t.Error("popped request still reachable through the class queue's backing array")
	}
	if len(q.classes[sched.Normal]) != 1 || q.classes[sched.Normal][0] != b {
		t.Errorf("class queue after pop has %d requests, want only seq 2", len(q.classes[sched.Normal]))
	}
}
