package serve

import (
	"hybridndp/internal/sched"
	"hybridndp/internal/vclock"
)

// request is one open-loop arrival flowing through admission → WFQ → lanes.
type request struct {
	tenant  int
	seq     int
	name    string // workload query name (prepared-statement key)
	prio    sched.Priority
	arrival vclock.Time
	// cost is the request's host-path service estimate, the work unit the
	// deficit-round-robin scheduler charges against tenant deficits. Using
	// the same canonical cost for every placement keeps the fair-share
	// arithmetic independent of the policy under test.
	cost vclock.Duration
}

// tokenBucket enforces one tenant's admission quota on virtual time.
type tokenBucket struct {
	rate   float64 // tokens per virtual second; <= 0 disables the quota
	burst  float64
	tokens float64
	last   vclock.Time
}

func newTokenBucket(rate float64, burst int) tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// allow consumes one token at virtual instant now, refilling first.
func (b *tokenBucket) allow(now vclock.Time) bool {
	if b.rate <= 0 {
		return true
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// tenantQueue is one tenant's bounded admission queue: the scheduler's
// three-priority shape with the same aging rule (every fourth pop takes the
// oldest request regardless of class), re-keyed on virtual arrival time.
type tenantQueue struct {
	classes  [3][]*request
	size     int
	depth    int
	popCount uint64
}

// push appends r to its class; false means the tenant's queue is full.
func (t *tenantQueue) push(r *request) bool {
	if t.size >= t.depth {
		return false
	}
	t.classes[r.prio] = append(t.classes[r.prio], r)
	t.size++
	return true
}

// choose picks the class the NEXT pop will take from, without mutating
// state, so peek and pop always agree.
func (t *tenantQueue) choose() int {
	if (t.popCount+1)%4 == 0 {
		pick := -1
		var oldest vclock.Time
		for c := range t.classes {
			if len(t.classes[c]) == 0 {
				continue
			}
			if h := t.classes[c][0]; pick < 0 || h.arrival < oldest {
				pick, oldest = c, h.arrival
			}
		}
		return pick
	}
	for c := range t.classes {
		if len(t.classes[c]) > 0 {
			return c
		}
	}
	return -1
}

// peek returns the request the next pop will dispatch (nil when empty).
func (t *tenantQueue) peek() *request {
	c := t.choose()
	if c < 0 {
		return nil
	}
	return t.classes[c][0]
}

func (t *tenantQueue) pop() *request {
	c := t.choose()
	if c < 0 {
		return nil
	}
	t.popCount++
	r := t.classes[c][0]
	t.classes[c][0] = nil // the reslice below would keep it reachable
	t.classes[c] = t.classes[c][1:]
	t.size--
	return r
}

// wfq is the cross-tenant weighted fair queue: classic deficit round robin
// over the per-tenant priority queues. Each visit to a backlogged tenant
// grants quantum×weight virtual nanoseconds of deficit; a tenant dispatches
// while its deficit covers the head request's canonical cost. Tenant order is
// the configuration order, so tie-breaking is deterministic by construction.
type wfq struct {
	qs      []*tenantQueue
	deficit []float64
	quantum []float64
	rr      int
	total   int
}

func newWFQ(tenants []TenantConfig, quantum vclock.Duration, depth int) *wfq {
	w := &wfq{
		qs:      make([]*tenantQueue, len(tenants)),
		deficit: make([]float64, len(tenants)),
		quantum: make([]float64, len(tenants)),
	}
	for i, tc := range tenants {
		w.qs[i] = &tenantQueue{depth: depth}
		weight := tc.Weight
		if weight < 1 {
			weight = 1
		}
		w.quantum[i] = float64(quantum) * float64(weight)
	}
	return w
}

// push enqueues r on its tenant's queue; false means that queue is full.
func (w *wfq) push(r *request) bool {
	if !w.qs[r.tenant].push(r) {
		return false
	}
	w.total++
	return true
}

// Len reports the queued request count across tenants.
func (w *wfq) Len() int { return w.total }

// pick dispatches the next request under deficit round robin, or nil when
// every queue is empty. An empty tenant forfeits its deficit (standard DRR:
// idle tenants must not bank credit).
func (w *wfq) pick() *request {
	if w.total == 0 {
		return nil
	}
	for {
		ti := w.rr % len(w.qs)
		tq := w.qs[ti]
		if tq.size == 0 {
			w.deficit[ti] = 0
			w.rr++
			continue
		}
		head := tq.peek()
		if w.deficit[ti] < float64(head.cost) {
			w.deficit[ti] += w.quantum[ti]
			w.rr++
			continue
		}
		w.deficit[ti] -= float64(head.cost)
		w.total--
		return tq.pop()
	}
}
