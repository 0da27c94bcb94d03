package sched

import "testing"

// TestPopReleasesTicketSlot pops the head of a class queue and checks the
// slot it vacated no longer points at the ticket: the queue's backing array
// lives until the slice reallocates, and a popped ticket must not.
func TestPopReleasesTicketSlot(t *testing.T) {
	s := &Scheduler{}
	a, b := &Ticket{priority: Normal}, &Ticket{priority: Normal}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queues[Normal] = []*Ticket{a, b}
	s.queued = 2
	orig := s.queues[Normal]
	if got := s.popLocked(); got != a {
		t.Fatalf("popped %p, want the head %p", got, a)
	}
	if orig[0] != nil {
		t.Error("popped ticket still reachable through the queue's backing array")
	}
	if len(s.queues[Normal]) != 1 || s.queues[Normal][0] != b {
		t.Errorf("queue after pop = %v, want [b]", s.queues[Normal])
	}
}
