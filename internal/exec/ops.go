package exec

import (
	"fmt"
	"sort"

	"hybridndp/internal/expr"
	"hybridndp/internal/hw"
	"hybridndp/internal/num"
	"hybridndp/internal/query"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// ScanAccess reads one base table through its access path: rows surviving
// the local predicate, restricted to the optional primary-key range
// [loPK, hiPK) used by the device engine's chunked pipeline. The scan charges
// flash reads and merge comparisons through the LSM layer, predicate
// evaluation per scanned record, and a selection-cache copy per match.
//
// Execution is vectorized: row views accumulate into a fixed-size column
// batch, the compiled predicate refines the batch's selection vector term by
// term, and only selected views reach the result — rejected rows are never
// materialized. Charges derive from the accumulated scanned/selected counts,
// so virtual time is byte-identical at every batch size (size 1 degenerates
// to the tuple-at-a-time order of operations).
func (e *Engine) ScanAccess(ap AccessPath, loPK, hiPK *int32) ([][]byte, int64, error) {
	t, err := e.Cat.Table(ap.Ref.Table)
	if err != nil {
		return nil, 0, err
	}
	ac := e.Access()
	terms := 0
	if ap.Filter != nil {
		terms = ap.Filter.Terms()
	}
	width := projWidth(t.Schema, ap.Proj)

	bp := expr.Compile(t.Schema, ap.Filter)
	bs := e.batchSize()
	batch := ColBatch{Schema: t.Schema, Rows: make([][]byte, 0, bs), Sel: make([]int32, 0, bs)}
	var rows [][]byte
	scanned := 0
	flush := func() {
		if len(batch.Rows) == 0 {
			return
		}
		batch.SelectAll()
		if bp != nil {
			batch.Sel = bp.Filter(batch.Rows, batch.Sel)
		}
		rows = batch.Selected(rows)
		batch.Rows = batch.Rows[:0]
	}

	view := e.viewOf(ap.Ref.Table)
	if ap.UseFilterIndex {
		pks, err := t.IndexSeek(ap.FilterIndex, ap.FilterValue, ac)
		if err != nil {
			return nil, 0, err
		}
		for _, pk := range pks {
			if loPK != nil && pk < *loPK {
				continue
			}
			if hiPK != nil && pk >= *hiPK {
				continue
			}
			rec, ok, err := t.GetByPKView(view, pk, ac)
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				continue
			}
			scanned++
			batch.Rows = append(batch.Rows, rec.Data)
			if len(batch.Rows) >= bs {
				flush()
			}
		}
	} else {
		var lo, hi []byte
		if loPK != nil {
			lo = table.EncodePK(*loPK)
		}
		if hiPK != nil {
			hi = table.EncodePK(*hiPK)
		}
		for it := t.ScanView(view, lo, hi, ac); it.Valid(); it.Next() {
			scanned++
			batch.Rows = append(batch.Rows, it.Entry().Value)
			if len(batch.Rows) >= bs {
				flush()
			}
		}
	}
	flush()

	if e.TL != nil {
		e.R.Eval(e.TL, scanned, terms)
		copyBytes := int64(len(rows)) * e.cacheWidth(width)
		e.R.Memcpy(e.TL, copyBytes)
		e.R.RowOverhead(e.TL, len(rows), hw.CatSelection)
	}
	return rows, width, nil
}

// ScanCols is ScanAccess in the engine's columnar transfer format: the
// surviving rows arrive as one fully-selected ColBatch, the unit device leaf
// scans emit and the host gather loop consumes. Charges are ScanAccess's.
func (e *Engine) ScanCols(ap AccessPath, loPK, hiPK *int32) (*ColBatch, int64, error) {
	rows, width, err := e.ScanAccess(ap, loPK, hiPK)
	if err != nil {
		return nil, 0, err
	}
	t, err := e.Cat.Table(ap.Ref.Table)
	if err != nil {
		return nil, 0, err
	}
	return NewColBatch(t.Schema, rows), width, nil
}

// SeedInnerCols seeds a join's inner side from a column batch (the H0 leaf
// batch a device shipped).
func (e *Engine) SeedInnerCols(pl *Pipeline, si int, cb *ColBatch) error {
	return e.SeedInner(pl, si, cb.View())
}

// AppendInnerCols appends a column batch to a join's inner side (multi-device
// and fleet gather loops, one shard partition at a time).
func (e *Engine) AppendInnerCols(pl *Pipeline, si int, cb *ColBatch) error {
	return e.AppendInner(pl, si, cb.View())
}

// cacheWidth is the per-record footprint in an intermediate cache: the
// projected row (row-cache format) or an 8-byte pointer (pointer-cache
// format, paper §4.2).
func (e *Engine) cacheWidth(rowWidth int64) int64 {
	if e.PointerCache {
		return 8
	}
	return rowWidth
}

// innerState caches the materialized inner side of a BNL/GHJ/NLJ join so
// chunked executions build it only once (the device builds its hash tables
// once and streams probes through them). For BNL with a bounded join buffer
// it also tracks how much outer data has streamed past, charging one extra
// inner pass every time the cumulative outer volume crosses a buffer-sized
// block boundary — the block-nested-loop rescan behaviour.
type innerState struct {
	rows   *rowPool // the inner rows; join output ids index them directly
	tab    *keyTab
	built  bool
	seeded bool
	width  int64

	scanDelta     map[string]vclock.Duration // cost of one inner scan pass
	cumOuterBytes int64
	chargedBlocks int64
}

// appendTupleKey appends the composite join key of left tuple i to buf
// using plan-time-bound column indices; ok is false when any component is
// NULL (SQL equality never matches NULL). Partial appends from earlier
// conditions are the caller's to discard (it resets buf per tuple).
func appendTupleKey(buf []byte, sh *Shape, ts *TupleSet, i int, conds []BoundCond) ([]byte, bool) {
	for _, c := range conds {
		var ok bool
		buf, ok = ts.Record(sh, i, c.LeftPos).AppendColKey(buf, c.LeftColIdx)
		if !ok {
			return buf, false
		}
	}
	return buf, true
}

// appendRowKey appends the composite key of a right-side record to buf.
func appendRowKey(buf []byte, rec table.Record, conds []BoundCond) ([]byte, bool) {
	for _, c := range conds {
		var ok bool
		buf, ok = rec.AppendColKey(buf, c.RightColIdx)
		if !ok {
			return buf, false
		}
	}
	return buf, true
}

// JoinStep executes join step si of the pipeline over the given left tuples
// and returns the extended tuples. Inner-side state persists in the pipeline
// across chunked invocations.
func (e *Engine) JoinStep(pl *Pipeline, si int, left *TupleSet) (*TupleSet, error) {
	step := pl.Plan.Steps[si]
	leftShape := pl.ShapeAt(si)
	switch step.Type {
	case BNL, NLJ, GHJ:
		return e.joinBuffered(pl, si, leftShape, left, step)
	case BNLI:
		return e.joinIndexed(pl, si, leftShape, left, step)
	default:
		return nil, fmt.Errorf("exec: unknown join type %v", step.Type)
	}
}

// joinBuffered implements BNL (hash table in the join buffer), NLJ and GHJ.
// All three compute the same equality-join result; they differ in the work
// charged: BNL re-reads the inner table once per outer block that exceeds
// the join buffer, NLJ charges the full cross-comparison, GHJ charges
// partitioning copies of both sides.
func (e *Engine) joinBuffered(pl *Pipeline, si int, leftShape *Shape, left *TupleSet, step JoinStep) (*TupleSet, error) {
	inner, err := e.BuildInner(pl, si)
	if err != nil {
		return nil, err
	}

	// BNL rescan accounting: once the cumulative outer volume exceeds the
	// join buffer, each further buffer-sized outer block re-reads the inner
	// table (Exp 5: the device BNL bottleneck).
	if step.Type == BNL && e.JoinBuf > 0 && !inner.seeded {
		innerBytes := int64(len(inner.rows.rows)) * e.cacheWidth(inner.width)
		if innerBytes > e.JoinBuf {
			inner.cumOuterBytes += int64(left.Len()) * pl.TupleWidth(si+1)
			blocks := inner.cumOuterBytes / e.JoinBuf
			if blocks > inner.chargedBlocks && e.TL != nil {
				chargeRepeatDelta(e.TL, inner.scanDelta, int(blocks-inner.chargedBlocks))
				inner.chargedBlocks = blocks
			}
		}
	}

	// Batch-at-a-time probing: for each batch of left tuples, phase 1 encodes
	// every join key into the shared arena and resolves its hash-table entry;
	// phase 2 walks the batch again chasing match chains in the same tuple
	// order, so output ordering and the integer comparison counters — and with
	// them every charge — are identical to tuple-at-a-time execution.
	out := left.extend(inner.rows)
	var cmpBytes int64
	cmps := 0
	conds := pl.conds[si]
	bs := e.batchSize()
	keys := pl.keyBuf[:0]
	ends := pl.probeEnd[:0]
	ents := pl.probeEnt[:0]
	n, w := left.Len(), left.Width()
	for base := 0; base < n; base += bs {
		hi := min(base+bs, n)
		keys = keys[:0]
		ends = ends[:0]
		ents = ents[:0]
		for i := base; i < hi; i++ {
			start := len(keys)
			var ok bool
			keys, ok = appendTupleKey(keys, leftShape, left, i, conds)
			if !ok {
				keys = keys[:start] // discard partial NULL-key append
				ends = append(ends, int32(start))
				ents = append(ents, -1)
				continue
			}
			k := keys[start:]
			ends = append(ends, int32(len(keys)))
			ents = append(ents, inner.tab.find(fnv1a(k), k))
		}
		start := int32(0)
		for j := range hi - base {
			end := ends[j]
			if ei := ents[j]; ei >= 0 {
				ent := &inner.tab.entries[ei]
				cmps += int(ent.n)
				cmpBytes += int64(end-start) * int64(ent.n)
				tu := left.ids[(base+j)*w : (base+j+1)*w]
				for r := ent.head; r >= 0; r = inner.tab.next[r] {
					out.ids = append(append(out.ids, tu...), r)
				}
			}
			start = end
		}
	}
	pl.keyBuf = keys[:0]
	pl.probeEnd = ends[:0]
	pl.probeEnt = ents[:0]
	if e.TL != nil {
		e.R.HashProbe(e.TL, n)
		e.R.Memcmp(e.TL, cmpBytes, cmps)
		if step.Type == NLJ {
			// Naive nested loop compares every pair.
			pairs := int64(n) * int64(len(inner.rows.rows))
			e.R.Memcmp(e.TL, pairs*8, num.ClampInt(pairs))
		}
		e.R.Memcpy(e.TL, int64(out.Len())*e.cacheWidth(pl.Widths[si+1]))
		e.R.RowOverhead(e.TL, out.Len(), hw.CatBufferManage)
		e.chargeDeref(pl, si, out.Len())
	}
	return out, nil
}

// chargeDeref books the pointer-cache dereferencing of the produced tuples
// (paper §4.2) when the engine stores intermediates in pointer format.
func (e *Engine) chargeDeref(pl *Pipeline, si, out int) {
	if !e.PointerCache || out == 0 {
		return
	}
	positions := si + 2
	e.R.Deref(e.TL, out, positions, int64(out)*pl.TupleWidth(positions))
}

// BuildInner materializes and hashes the inner side of join step si if not
// yet built. The cooperative executor calls this to pre-build the host-side
// hash tables while the device runs its initial execution, overlapping the
// two engines (paper §4.1).
func (e *Engine) BuildInner(pl *Pipeline, si int) (*innerState, error) {
	inner := pl.inner[si]
	if inner == nil {
		inner = &innerState{}
		pl.inner[si] = inner
	}
	if inner.built {
		return inner, nil
	}
	step := pl.Plan.Steps[si]
	snapBefore := accountSnapshot(e)
	rows, width, err := e.ScanAccess(step.Right, nil, nil)
	if err != nil {
		return nil, err
	}
	snapAfter := accountSnapshot(e)
	inner.scanDelta = accountDelta(snapBefore, snapAfter)
	e.hashInner(inner, rows, width, step, pl.conds[si])
	if e.TL != nil && step.Type == GHJ {
		// Grace hash join additionally partitions both sides through flash.
		e.R.Memcpy(e.TL, 2*int64(len(rows))*width)
	}
	return inner, nil
}

// SeedInner installs device-shipped, already-filtered rows as the inner side
// of join step si, so the host joins NDP outputs instead of rescanning the
// base table (H0 leaf offloading).
func (e *Engine) SeedInner(pl *Pipeline, si int, rows [][]byte) error {
	inner := pl.inner[si]
	if inner == nil {
		inner = &innerState{}
		pl.inner[si] = inner
	}
	step := pl.Plan.Steps[si]
	rt, err := e.Cat.Table(step.Right.Ref.Table)
	if err != nil {
		return err
	}
	e.hashInner(inner, rows, projWidth(rt.Schema, step.Right.Proj), step, pl.conds[si])
	inner.seeded = true
	return nil
}

// AppendInner extends a seeded inner side with further device-shipped rows
// (multi-device execution delivers each inner table's partitions as separate
// leaf batches). A first call on an unbuilt inner behaves like SeedInner.
func (e *Engine) AppendInner(pl *Pipeline, si int, rows [][]byte) error {
	inner := pl.inner[si]
	if inner == nil || !inner.built {
		return e.SeedInner(pl, si, rows)
	}
	step := pl.Plan.Steps[si]
	rt, err := e.Cat.Table(step.Right.Ref.Table)
	if err != nil {
		return err
	}
	base := len(inner.rows.rows)
	inner.rows.rows = append(inner.rows.rows, rows...)
	conds := pl.conds[si]
	key := pl.keyBuf[:0]
	for i, r := range rows {
		key = key[:0]
		var ok bool
		key, ok = appendRowKey(key, table.Record{Schema: rt.Schema, Data: r}, conds)
		if !ok {
			continue
		}
		inner.tab.addRow(fnv1a(key), key, base+i)
	}
	pl.keyBuf = key[:0]
	if e.TL != nil {
		e.R.HashBuild(e.TL, len(rows))
		e.R.Memcpy(e.TL, int64(len(rows))*e.cacheWidth(inner.width))
	}
	return nil
}

// hashInner builds the in-buffer hash table over the inner rows. The rows
// get a fresh pool, so tuples joined against an earlier seeding keep
// resolving to the rows they matched.
func (e *Engine) hashInner(inner *innerState, rows [][]byte, width int64, step JoinStep, conds []BoundCond) {
	rt, _ := e.Cat.Table(step.Right.Ref.Table)
	inner.rows = &rowPool{rows: rows}
	inner.width = width
	inner.tab = newKeyTab(len(rows))
	var key []byte
	for i, r := range rows {
		key = key[:0]
		var ok bool
		key, ok = appendRowKey(key, table.Record{Schema: rt.Schema, Data: r}, conds)
		if !ok {
			continue
		}
		inner.tab.addRow(fnv1a(key), key, i)
	}
	if e.TL != nil {
		e.R.HashBuild(e.TL, len(rows))
		e.R.Memcpy(e.TL, int64(len(rows))*e.cacheWidth(width))
	}
	inner.built = true
}

// accountDelta computes per-category cost differences between snapshots.
func accountDelta(before, after map[string]vclock.Duration) map[string]vclock.Duration {
	out := make(map[string]vclock.Duration)
	for cat, d := range after {
		if delta := d - before[cat]; delta > 0 {
			out[cat] = delta
		}
	}
	return out
}

// chargeRepeatDelta books the delta map times extra times. Categories charge
// in sorted order so the timeline's float accumulation sequence — and with it
// every downstream golden — is independent of map iteration order.
func chargeRepeatDelta(tl *vclock.Timeline, delta map[string]vclock.Duration, times int) {
	if times <= 0 || delta == nil {
		return
	}
	cats := make([]string, 0, len(delta))
	for cat := range delta {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	for _, cat := range cats {
		tl.Charge(cat, delta[cat]*vclock.Duration(times))
	}
}

// joinIndexed implements BNLI: for every left tuple the right side is probed
// through an index — directly through the primary LSM tree when the join
// column is the PK, or through the secondary index with the two-stage
// secondary→primary seek of paper Fig. 9.
func (e *Engine) joinIndexed(pl *Pipeline, si int, leftShape *Shape, left *TupleSet, step JoinStep) (*TupleSet, error) {
	rt, err := e.Cat.Table(step.Right.Ref.Table)
	if err != nil {
		return nil, err
	}
	if len(step.Conds) == 0 {
		return nil, fmt.Errorf("exec: BNLI join without conditions")
	}
	ac := e.Access()
	conds := pl.conds[si]
	primary := conds[0]
	residual := conds[1:]
	terms := 0
	if step.Right.Filter != nil {
		terms = step.Right.Filter.Terms()
	}
	// The right-side filter runs per fetched record; the compiled form reads
	// the fixed-width layout directly instead of decoding Values per term.
	rightBP := expr.Compile(rt.Schema, step.Right.Filter)

	pool := pl.fetched[si]
	if pool == nil {
		pool = &rowPool{}
		pl.fetched[si] = pool
	}
	out := left.extend(pool)
	view := e.viewOf(step.Right.Ref.Table)
	var rrows []table.Record
	fetched := 0
	n, w := left.Len(), left.Width()
	for i := 0; i < n; i++ {
		v := left.Record(leftShape, i, primary.LeftPos).Get(primary.LeftColIdx)
		if v.Null {
			continue
		}
		rrows = rrows[:0]
		if step.RightIndexIsPK {
			if !v.IsI {
				continue
			}
			rec, ok, err := rt.GetByPKView(view, v.Int, ac)
			if err != nil {
				return nil, err
			}
			if ok {
				rrows = append(rrows, rec)
			}
		} else {
			pks, err := rt.IndexSeek(step.RightIndex, v, ac)
			if err != nil {
				return nil, err
			}
			for _, pk := range pks {
				rec, ok, err := rt.GetByPKView(view, pk, ac)
				if err != nil {
					return nil, err
				}
				if ok {
					rrows = append(rrows, rec)
				}
			}
		}
		for _, rec := range rrows {
			fetched++
			if rightBP != nil && !rightBP.EvalRow(rec.Data) {
				continue
			}
			match := true
			for _, c := range residual {
				lv := left.Record(leftShape, i, c.LeftPos).Get(c.LeftColIdx)
				rv := rec.Get(c.RightColIdx)
				if lv.Null || rv.Null || lv.IsI != rv.IsI ||
					(lv.IsI && lv.Int != rv.Int) || (!lv.IsI && lv.Str != rv.Str) {
					match = false
					break
				}
			}
			if match {
				out.ids = append(append(out.ids, left.ids[i*w:(i+1)*w]...), pool.add(rec.Data))
			}
		}
	}
	if e.TL != nil {
		e.R.Eval(e.TL, fetched, terms+len(residual))
		e.R.Memcpy(e.TL, int64(out.Len())*e.cacheWidth(pl.Widths[si+1]))
		e.R.RowOverhead(e.TL, out.Len(), hw.CatBufferManage)
		e.chargeDeref(pl, si, out.Len())
	}
	return out, nil
}

// boundRef is a column reference resolved against a shape: tuple position
// plus column index, so the per-tuple path never resolves names.
type boundRef struct{ pos, idx int }

// bindRef resolves an aliased column once. Unknown aliases or columns bind to
// -1 and read as NULL.
func bindRef(sh *Shape, alias, col string) boundRef {
	p := sh.Pos(alias)
	if p < 0 {
		return boundRef{pos: -1, idx: -1}
	}
	return boundRef{pos: p, idx: sh.Schemas[p].ColumnIndex(col)}
}

// colVal reads a bound column from tuple i (NULL for unbound refs and
// absent rows).
func colVal(sh *Shape, ts *TupleSet, i int, r boundRef) table.Value {
	if r.pos < 0 {
		return table.NullVal()
	}
	row := ts.Row(i, r.pos)
	if row == nil {
		return table.NullVal()
	}
	return table.Record{Schema: sh.Schemas[r.pos], Data: row}.Get(r.idx)
}

// groupAggregate hash-groups tuples and computes the aggregates. Groups live
// in the open-addressing key table — the entry ordinal is the group's
// first-occurrence rank, which is the output order — with flat accumulator
// arrays indexed by ordinal×len(aggs) instead of a per-group state struct.
func (e *Engine) groupAggregate(sh *Shape, tuples *TupleSet, groupBy []query.ColRef, aggs []query.Aggregate) (*Result, error) {
	gbRefs := make([]boundRef, len(groupBy))
	for i, g := range groupBy {
		gbRefs[i] = bindRef(sh, g.Alias, g.Col)
	}
	aggRefs := make([]boundRef, len(aggs))
	// aggStr marks MIN/MAX arguments of CHAR columns: the result type comes
	// from the schema, so an extreme value of "" still renders as a string.
	aggStr := make([]bool, len(aggs))
	for i, a := range aggs {
		if !a.Star {
			r := bindRef(sh, a.Arg.Alias, a.Arg.Col)
			aggRefs[i] = r
			aggStr[i] = r.idx >= 0 && sh.Schemas[r.pos].Columns[r.idx].Type == table.Char
		}
	}

	na := len(aggs)
	tab := newKeyTab(0)
	var (
		keys   [][]table.Value // decoded key of each group's first tuple
		minI   []int32         // flat accumulators: [ordinal*na + agg]
		minS   []string
		sums   []float64
		counts []int64
		seen   []bool
	)
	// Tuples accumulate batch-at-a-time: phase 1 encodes one batch of group
	// keys into a shared arena, phase 2 walks the spans doing the hash-table
	// upsert and accumulator updates in the same tuple order. put() copies the
	// key into the table's own arena, so reusing ours across batches is safe,
	// and ordinal assignment — the output order — matches one-at-a-time.
	bs := e.batchSize()
	var gkArena []byte
	var gkEnds []int32
	n := tuples.Len()
	for b := 0; b < n; b += bs {
		hi := min(b+bs, n)
		gkArena = gkArena[:0]
		gkEnds = gkEnds[:0]
		for t := b; t < hi; t++ {
			for gi := range groupBy {
				r := gbRefs[gi]
				if r.pos >= 0 {
					if row := tuples.Row(t, r.pos); row != nil {
						var ok bool
						gkArena, ok = table.Record{Schema: sh.Schemas[r.pos], Data: row}.AppendColKey(gkArena, r.idx)
						if ok {
							continue
						}
					}
				}
				// NULL group keys encode like the empty string (and collide
				// with it), as the decoded-value codec always has.
				gkArena = append(gkArena, 's', 0)
			}
			gkEnds = append(gkEnds, int32(len(gkArena)))
		}
		gkStart := int32(0)
		for j := range hi - b {
			t := b + j
			gk := gkArena[gkStart:gkEnds[j]]
			gkStart = gkEnds[j]
			ord, fresh := tab.put(fnv1a(gk), gk)
			if fresh {
				kv := make([]table.Value, len(groupBy))
				for gi := range groupBy {
					kv[gi] = colVal(sh, tuples, t, gbRefs[gi])
				}
				keys = append(keys, kv)
				for i := 0; i < na; i++ {
					minI = append(minI, 0)
					minS = append(minS, "")
					sums = append(sums, 0)
					counts = append(counts, 0)
					seen = append(seen, false)
				}
			}
			base := int(ord) * na
			for i, a := range aggs {
				if a.Star {
					counts[base+i]++
					continue
				}
				v := colVal(sh, tuples, t, aggRefs[i])
				if v.Null {
					continue
				}
				counts[base+i]++
				switch a.Func {
				case query.Min:
					if v.IsI {
						if !seen[base+i] || v.Int < minI[base+i] {
							minI[base+i] = v.Int
						}
					} else if !seen[base+i] || v.Str < minS[base+i] {
						minS[base+i] = v.Str
					}
				case query.Max:
					if v.IsI {
						if !seen[base+i] || v.Int > minI[base+i] {
							minI[base+i] = v.Int
						}
					} else if !seen[base+i] || v.Str > minS[base+i] {
						minS[base+i] = v.Str
					}
				case query.Sum, query.Avg:
					if v.IsI {
						sums[base+i] += float64(v.Int)
					}
				case query.Count:
					// count handled above
				}
				seen[base+i] = true
			}
		}
	}

	if e.TL != nil {
		e.R.Group(e.TL, n)
	}

	res := &Result{}
	for _, g := range groupBy {
		res.Columns = append(res.Columns, g.String())
	}
	for _, a := range aggs {
		name := a.As
		if name == "" {
			name = a.String()
		}
		res.Columns = append(res.Columns, name)
	}
	rowWidth := int64(len(res.Columns) * 8)
	for ord := range keys {
		base := ord * na
		var row []table.Value
		row = append(row, keys[ord]...)
		for i, a := range aggs {
			switch {
			case a.Func == query.Count:
				row = append(row, table.IntVal(int32(counts[base+i])))
			case !seen[base+i]:
				row = append(row, table.NullVal())
			case a.Func == query.Sum:
				row = append(row, table.IntVal(int32(sums[base+i])))
			case a.Func == query.Avg:
				row = append(row, table.IntVal(int32(sums[base+i]/float64(num.MaxI64(counts[base+i], 1)))))
			case a.Func == query.Min || a.Func == query.Max:
				if aggStr[i] {
					row = append(row, table.StrVal(minS[base+i]))
				} else {
					row = append(row, table.IntVal(minI[base+i]))
				}
			}
		}
		if len(res.Rows) < RetainRows {
			res.Rows = append(res.Rows, row)
		}
		res.RowCount++
		res.Bytes += rowWidth
	}
	// An aggregate query over zero tuples still returns one all-NULL row
	// (no GROUP BY case), as SQL does.
	if len(groupBy) == 0 && res.RowCount == 0 {
		var row []table.Value
		for _, a := range aggs {
			if a.Func == query.Count {
				row = append(row, table.IntVal(0))
			} else {
				row = append(row, table.NullVal())
			}
		}
		res.Rows = append(res.Rows, row)
		res.RowCount = 1
		res.Bytes = rowWidth
	}
	return res, nil
}

// projectTuples renders plain projections.
func (e *Engine) projectTuples(sh *Shape, tuples *TupleSet, out []query.ColRef) (*Result, error) {
	res := &Result{}
	if len(out) == 0 {
		// SELECT *: all columns of all tables.
		for i, a := range sh.Aliases {
			for _, c := range sh.Schemas[i].Columns {
				res.Columns = append(res.Columns, a+"."+c.Name)
			}
		}
	} else {
		for _, c := range out {
			res.Columns = append(res.Columns, c.String())
		}
	}
	var rowWidth int64
	refs := make([]boundRef, len(out))
	if len(out) == 0 {
		for _, s := range sh.Schemas {
			rowWidth += int64(s.RowBytes())
		}
	} else {
		for ci, c := range out {
			i := sh.Pos(c.Alias)
			if i < 0 {
				return nil, fmt.Errorf("exec: projection references alias %q outside the plan", c.Alias)
			}
			rowWidth += int64(sh.Schemas[i].ColumnStoredBytes(c.Col))
			refs[ci] = bindRef(sh, c.Alias, c.Col)
		}
	}
	for t := range tuples.Len() {
		if len(res.Rows) < RetainRows {
			var row []table.Value
			if len(out) == 0 {
				for i := range sh.Aliases {
					rec := tuples.Record(sh, t, i)
					for ci := range sh.Schemas[i].Columns {
						row = append(row, rec.Get(ci))
					}
				}
			} else {
				for _, r := range refs {
					row = append(row, colVal(sh, tuples, t, r))
				}
			}
			res.Rows = append(res.Rows, row)
		}
		res.RowCount++
	}
	res.Bytes = res.RowCount * rowWidth
	if e.TL != nil {
		e.R.Memcpy(e.TL, res.Bytes)
	}
	return res, nil
}
