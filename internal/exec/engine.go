package exec

import (
	"hybridndp/internal/flash"
	"hybridndp/internal/hw"
	"hybridndp/internal/lsm"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

// Engine executes physical plans against a catalog, charging all work to its
// timeline at its rate table. A host engine has effectively unbounded
// buffers; the device engine (internal/device) wraps an Engine with the
// paper's memory reservations and the pointer-cache switch.
type Engine struct {
	Cat *table.Catalog
	TL  *vclock.Timeline
	R   hw.Rates

	// Cache is the engine's block cache (RocksDB block cache on the host,
	// data-block buffer on the device); nil disables caching.
	Cache *lsm.BlockCache
	// Bloom, when set, accumulates Bloom-filter probe outcomes for the
	// metrics registry (host engines only; the device never probes filters).
	Bloom *lsm.BloomStats
	// Views maps table names to frozen read views (update-aware NDP): the
	// device engine resolves primary-data reads against the snapshot that
	// accompanied the invocation, so host-side writes issued after the
	// invocation stay invisible to it. Nil entries fall back to live reads.
	Views map[string]*lsm.View
	// JoinBuf bounds the join buffer (hw_MSJ on device); 0 = unbounded.
	// A bounded buffer forces extra BNL passes over the inner table.
	JoinBuf int64
	// SelBuf bounds the selection result cache (hw_MSS on device).
	SelBuf int64
	// PointerCache stores intermediate results as pointers instead of
	// copied rows (paper §4.2 cache structure optimization).
	PointerCache bool
	// BatchSize is the row capacity of the columnar batches the engine's
	// operators process at a time (0 = DefaultBatchSize). Charges derive from
	// accumulated batch counts with the same integer math at every size, so
	// virtual time is byte-identical for any value; the knob only trades
	// wall-clock locality against scratch memory.
	BatchSize int
	// Faults, when set, injects flash read failures into this engine's
	// storage accesses (chaos runs; see internal/fault).
	Faults flash.Faults
}

// Access returns the engine's LSM access context.
func (e *Engine) Access() lsm.Access {
	return lsm.Access{TL: e.TL, R: e.R, Cache: e.Cache, Bloom: e.Bloom, Faults: e.Faults}
}

// viewOf returns the frozen view for a table, if the engine reads through a
// snapshot.
func (e *Engine) viewOf(tableName string) *lsm.View {
	if e.Views == nil {
		return nil
	}
	return e.Views[tableName]
}

// Result is the output of a (partial) plan execution.
type Result struct {
	Columns  []string
	Rows     [][]table.Value // retained rows (capped at RetainRows)
	RowCount int64
	Bytes    int64 // total output payload bytes
}

// RetainRows caps the rows materialized into Result.Rows; counts and byte
// totals always cover the full output.
const RetainRows = 100

// RunPlan executes the whole plan on this engine (host-only / full-NDP
// execution paths).
func (e *Engine) RunPlan(p *Plan) (*Result, error) {
	pl, err := e.StartPipeline(p)
	if err != nil {
		return nil, err
	}
	rows, _, err := e.ScanAccess(p.Driving, nil, nil)
	if err != nil {
		return nil, err
	}
	tuples := pl.MakeTuples(rows)
	for si := range p.Steps {
		tuples, err = e.JoinStep(pl, si, tuples)
		if err != nil {
			return nil, err
		}
	}
	return e.Finalize(pl, tuples)
}

// Pipeline carries the resolved state of one plan execution: the tuple shape
// and per-position projected widths, plus cached inner-side state so chunked
// device execution builds each join's hash table only once.
type Pipeline struct {
	Plan   *Plan
	Shapes []*Shape // Shapes[i] = shape after i join steps
	Widths []int64  // projected bytes per tuple position
	inner  []*innerState

	// conds holds per-step join conditions with verified column indices (the
	// plan's conds are not mutated; hand-built plans may carry unresolved
	// indices).
	conds [][]BoundCond
	// keyBuf is the reusable scratch arena for join/group-key encoding (one
	// batch of keys at a time).
	keyBuf []byte
	// probeEnd/probeEnt are the reusable batch-probe scratch vectors: per
	// batch tuple, the key's end offset in keyBuf and its resolved hash-table
	// entry (-1 = NULL key or no match).
	probeEnd []int32
	probeEnt []int32
	// drive holds the driving-scan rows that position 0 of the pipeline's
	// tuple sets indexes; fetched[si] holds the records BNLI step si matched
	// (buffered steps index their inner side's rows instead).
	drive   *rowPool
	fetched []*rowPool
}

// StartPipeline resolves tables and builds shapes for the plan.
func (e *Engine) StartPipeline(p *Plan) (*Pipeline, error) {
	t0, err := e.Cat.Table(p.Driving.Ref.Table)
	if err != nil {
		return nil, err
	}
	sh := NewShape([]string{p.Driving.Ref.Alias}, []*table.Schema{t0.Schema})
	pl := &Pipeline{
		Plan:   p,
		Shapes: []*Shape{sh},
		Widths: []int64{projWidth(t0.Schema, p.Driving.Proj)},
		inner:  make([]*innerState, len(p.Steps)),

		drive:   &rowPool{},
		fetched: make([]*rowPool, len(p.Steps)),
	}
	for _, s := range p.Steps {
		tr, err := e.Cat.Table(s.Right.Ref.Table)
		if err != nil {
			return nil, err
		}
		sh = sh.Extend(s.Right.Ref.Alias, tr.Schema)
		pl.Shapes = append(pl.Shapes, sh)
		pl.Widths = append(pl.Widths, projWidth(tr.Schema, s.Right.Proj))
	}
	pl.conds = make([][]BoundCond, len(p.Steps))
	for si, s := range p.Steps {
		cs := make([]BoundCond, len(s.Conds))
		copy(cs, s.Conds)
		leftSh := pl.Shapes[si]
		rightSchema := pl.Shapes[si+1].Schemas[len(pl.Shapes[si+1].Schemas)-1]
		for i := range cs {
			c := &cs[i]
			if c.LeftPos >= 0 && c.LeftPos < len(leftSh.Schemas) {
				ls := leftSh.Schemas[c.LeftPos]
				if c.LeftColIdx < 0 || c.LeftColIdx >= len(ls.Columns) || ls.Columns[c.LeftColIdx].Name != c.LeftCol {
					c.LeftColIdx = ls.ColumnIndex(c.LeftCol)
				}
			}
			if c.RightColIdx < 0 || c.RightColIdx >= len(rightSchema.Columns) || rightSchema.Columns[c.RightColIdx].Name != c.RightCol {
				c.RightColIdx = rightSchema.ColumnIndex(c.RightCol)
			}
		}
		pl.conds[si] = cs
	}
	return pl, nil
}

// MakeTuples adds scan rows to the pipeline's driving pool and returns them
// as single-position tuples.
func (pl *Pipeline) MakeTuples(rows [][]byte) *TupleSet {
	base := int32(len(pl.drive.rows))
	pl.drive.rows = append(pl.drive.rows, rows...)
	ids := make([]int32, len(rows))
	for i := range ids {
		ids[i] = base + int32(i)
	}
	return &TupleSet{pools: []*rowPool{pl.drive}, ids: ids}
}

// FinalShape returns the shape after all join steps.
func (pl *Pipeline) FinalShape() *Shape { return pl.Shapes[len(pl.Shapes)-1] }

// ShapeAt returns the shape after k join steps.
func (pl *Pipeline) ShapeAt(k int) *Shape { return pl.Shapes[k] }

// TupleWidth reports the projected byte width of a tuple with the first n
// positions populated.
func (pl *Pipeline) TupleWidth(n int) int64 {
	var w int64
	for i := 0; i < n && i < len(pl.Widths); i++ {
		w += pl.Widths[i]
	}
	return w
}

// projWidth sums the aligned stored widths of the projected columns (all
// columns when proj is empty — full projection).
func projWidth(s *table.Schema, proj []string) int64 {
	if len(proj) == 0 {
		return int64(s.RowBytes())
	}
	var w int64
	for _, c := range proj {
		w += int64(s.ColumnStoredBytes(c))
	}
	if w == 0 {
		w = 4
	}
	return w
}

// Finalize applies grouping/aggregation or projection to the joined tuples.
func (e *Engine) Finalize(pl *Pipeline, tuples *TupleSet) (*Result, error) {
	p := pl.Plan
	sh := pl.FinalShape()
	if len(p.Aggregates) > 0 || len(p.GroupBy) > 0 {
		return e.groupAggregate(sh, tuples, p.GroupBy, p.Aggregates)
	}
	return e.projectTuples(sh, tuples, p.Output)
}

// accountSnapshot captures the timeline's account for pass-cost deltas.
func accountSnapshot(e *Engine) map[string]vclock.Duration {
	if e.TL == nil {
		return nil
	}
	return e.TL.Account()
}
