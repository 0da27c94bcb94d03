package exec

import (
	"fmt"

	"hybridndp/internal/table"
)

// rowPool is an append-only list of row views that tuple-set row ids index:
// a pipeline's driving-scan rows, a buffered join's inner rows, a BNLI step's
// fetched records, or the rows a merge copied out of another pipeline. Pools
// only ever grow, so an id stays valid for the pool's lifetime.
type rowPool struct{ rows [][]byte }

// add appends one row and returns its id.
func (p *rowPool) add(row []byte) int32 {
	p.rows = append(p.rows, row)
	return int32(len(p.rows) - 1)
}

// TupleSet holds join-pipeline tuples in a flat, pointer-free form: each
// tuple is Width() int32 row ids stored back to back, and the id at position
// p indexes the row pool of position p. Intermediates are references, not
// copied rows (the pointer format of paper §4.2), so a join step writes one
// 4-byte id per position instead of copying a slice header per position, and
// the garbage collector never scans the ids.
//
// A set is only ever driven by one goroutine at a time, like the pipeline
// whose pools it references: the cooperative executor runs host joins
// synchronously inside the device's emit callback, and the parallel sweep
// gives each worker its own engines and pipelines.
type TupleSet struct {
	pools []*rowPool // per position
	ids   []int32    // Len()*Width() row ids, tuple-major
	// owned marks positions whose pool this set created while merging tuples
	// from another pipeline (see Append); only those may be appended to.
	owned []bool
}

// TupleSetOf builds a set from per-position row columns: tuple i holds
// cols[p][i] at position p. Every column must have the same length.
func TupleSetOf(cols ...[][]byte) *TupleSet {
	s := &TupleSet{pools: make([]*rowPool, len(cols))}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for p, c := range cols {
		if len(c) != n {
			panic(fmt.Sprintf("exec: TupleSetOf column %d has %d rows, want %d", p, len(c), n))
		}
		s.pools[p] = &rowPool{rows: c}
	}
	s.ids = make([]int32, 0, n*len(cols))
	for i := 0; i < n; i++ {
		for range cols {
			s.ids = append(s.ids, int32(i))
		}
	}
	return s
}

// Width reports the number of table positions per tuple.
func (s *TupleSet) Width() int {
	if s == nil {
		return 0
	}
	return len(s.pools)
}

// Len reports the number of tuples (0 for a nil set).
func (s *TupleSet) Len() int {
	if s.Width() == 0 {
		return 0
	}
	return len(s.ids) / len(s.pools)
}

// Row returns the raw record at position p of tuple i.
func (s *TupleSet) Row(i, p int) []byte {
	return s.pools[p].rows[s.ids[i*len(s.pools)+p]]
}

// Record returns the decoded view of position p of tuple i under shape sh.
func (s *TupleSet) Record(sh *Shape, i, p int) table.Record {
	return table.Record{Schema: sh.Schemas[p], Data: s.Row(i, p)}
}

// Slice returns tuples [lo, hi) as a set sharing s's ids and pools.
func (s *TupleSet) Slice(lo, hi int) *TupleSet {
	w := len(s.pools)
	return &TupleSet{pools: s.pools, ids: s.ids[lo*w : hi*w : hi*w]}
}

// extend returns an empty set whose tuples are s's positions plus one more,
// resolved through pool.
func (s *TupleSet) extend(pool *rowPool) *TupleSet {
	pools := make([]*rowPool, len(s.pools)+1)
	copy(pools, s.pools)
	pools[len(s.pools)] = pool
	return &TupleSet{pools: pools}
}

// Append appends o's tuples to s, keeping their order. An empty set adopts
// o's pools. A position whose rows live in a different pool than s's — o
// came from another pipeline, as a fleet shard's tuples do — is re-homed:
// s copies the row views of that position into a pool of its own, once for
// its existing tuples and then for every appended one. Positions that share
// a pool cost one id copy per tuple.
func (s *TupleSet) Append(o *TupleSet) {
	n := o.Len()
	if n == 0 {
		return
	}
	w := len(o.pools)
	if s.Len() == 0 {
		s.pools = append([]*rowPool(nil), o.pools...)
		s.ids = append(s.ids[:0], o.ids...)
		return
	}
	if len(s.pools) != w {
		panic(fmt.Sprintf("exec: appending %d-position tuples to a %d-position set", w, len(s.pools)))
	}
	base := len(s.ids)
	s.ids = append(s.ids, o.ids...)
	for p := 0; p < w; p++ {
		if s.pools[p] == o.pools[p] {
			continue
		}
		if s.owned == nil || !s.owned[p] {
			s.rehome(p, base/w)
		}
		dst, src := s.pools[p], o.pools[p]
		for i := base + p; i < len(s.ids); i += w {
			s.ids[i] = dst.add(src.rows[s.ids[i]])
		}
	}
}

// rehome moves position p of the first n tuples into a pool owned by s.
func (s *TupleSet) rehome(p, n int) {
	w := len(s.pools)
	src, dst := s.pools[p], &rowPool{rows: make([][]byte, 0, n)}
	for i := 0; i < n; i++ {
		s.ids[i*w+p] = dst.add(src.rows[s.ids[i*w+p]])
	}
	if s.owned == nil {
		s.pools = append([]*rowPool(nil), s.pools...) // may be shared by a Slice
		s.owned = make([]bool, w)
	}
	s.pools[p] = dst
	s.owned[p] = true
}
