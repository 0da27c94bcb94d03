package hybridndp

import (
	"sync"
	"testing"

	"hybridndp/internal/coop"
	"hybridndp/internal/hw"
	"hybridndp/internal/job"
	"hybridndp/internal/table"
	"hybridndp/internal/vclock"
)

var (
	sysOnce sync.Once
	sysInst *System
	sysErr  error
)

// testSystem loads one small shared JOB instance for all façade tests.
func testSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		sysInst, sysErr = OpenJOB(0.01, hw.Cosmos())
	})
	if sysErr != nil {
		t.Fatal(sysErr)
	}
	return sysInst
}

func TestRunHostStacksAgree(t *testing.T) {
	s := testSystem(t)
	q := job.QueryByName("1a")
	blk, err := s.Run(q, coop.Strategy{Kind: coop.BlockOnly})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := s.Run(q, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	if blk.Result.RowCount != nat.Result.RowCount {
		t.Fatalf("row counts differ: blk=%d native=%d", blk.Result.RowCount, nat.Result.RowCount)
	}
	if blk.Elapsed <= nat.Elapsed {
		t.Fatalf("BLK stack (%v) must be slower than native (%v): abstraction tax", blk.Elapsed, nat.Elapsed)
	}
}

func TestAllStrategiesProduceIdenticalResults(t *testing.T) {
	s := testSystem(t)
	for _, name := range []string{"1a", "8c", "17b", "32b", "6f"} {
		q := job.QueryByName(name)
		if q == nil {
			t.Fatalf("query %s missing", name)
		}
		ref, err := s.Run(q, coop.Strategy{Kind: coop.HostNative})
		if err != nil {
			t.Fatalf("%s host: %v", name, err)
		}
		strategies := []coop.Strategy{{Kind: coop.NDPOnly}}
		splits, err := s.Splits(q)
		if err != nil {
			t.Fatalf("%s splits: %v", name, err)
		}
		strategies = append(strategies, splits...)
		for _, st := range strategies {
			rep, err := s.Run(q, st)
			if err != nil {
				t.Fatalf("%s %v: %v", name, st, err)
			}
			if rep.Result.RowCount != ref.Result.RowCount {
				t.Fatalf("%s %v: row count %d != host %d", name, st, rep.Result.RowCount, ref.Result.RowCount)
			}
			if len(rep.Result.Rows) > 0 && len(ref.Result.Rows) > 0 {
				// Aggregate queries: the single result row must match.
				if len(q.Aggregates) > 0 && len(q.GroupBy) == 0 {
					for i := range ref.Result.Rows[0] {
						a, b := ref.Result.Rows[0][i], rep.Result.Rows[0][i]
						if a.String() != b.String() {
							t.Fatalf("%s %v: aggregate %d = %v, host says %v", name, st, i, b, a)
						}
					}
				}
			}
		}
	}
}

func TestHybridOverlapBeatsSerialParts(t *testing.T) {
	s := testSystem(t)
	q := job.QueryByName("8c")
	splits, err := s.Splits(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range splits {
		rep, err := s.Run(q, st)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if rep.Batches == 0 {
			t.Fatalf("%v produced no batches", st)
		}
		if rep.Elapsed <= 0 {
			t.Fatalf("%v has non-positive elapsed time", st)
		}
		// The hybrid elapsed time must be at least the device's busy time
		// outside waiting (sanity of the two-timeline accounting).
		devBusy := float64(vclock.SumAccount(rep.DeviceAccount, func(cat string) bool {
			return cat != hw.CatWaitSlots && cat != hw.CatNDPSetup
		}))
		if float64(rep.Elapsed) < devBusy {
			t.Fatalf("%v: elapsed %v < device busy %v", st, rep.Elapsed, devBusy)
		}
	}
}

func TestDecideReturnsCostPicture(t *testing.T) {
	s := testSystem(t)
	for _, name := range []string{"1a", "8c", "17b"} {
		d, err := s.Decide(job.QueryByName(name))
		if err != nil {
			t.Fatal(err)
		}
		sc := d.Costs
		if sc.HostTotal <= 0 || sc.NDPTotal <= 0 || sc.CTarget <= 0 {
			t.Fatalf("%s: degenerate costs %+v", name, sc)
		}
		if len(sc.CNode) != d.Plan.NumTables() {
			t.Fatalf("%s: %d split points for %d tables", name, len(sc.CNode), d.Plan.NumTables())
		}
		for k := 1; k < len(sc.CNode); k++ {
			if sc.CNode[k] < sc.CNode[k-1]-1 { // cumulative within fp tolerance
				t.Fatalf("%s: c_node not cumulative at H%d: %v", name, k, sc.CNode)
			}
		}
		if d.Reason == "" {
			t.Fatalf("%s: decision without reason", name)
		}
	}
}

func TestRunAutoExecutesDecision(t *testing.T) {
	s := testSystem(t)
	rep, d, err := s.RunAuto(job.QueryByName("17b"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil || rep.Elapsed <= 0 {
		t.Fatal("empty report")
	}
	want := DecisionStrategy(d)
	if rep.Strategy.Kind != want.Kind {
		t.Fatalf("executed %v, decision said %v", rep.Strategy, want)
	}
}

func TestSQLThroughFacade(t *testing.T) {
	s := testSystem(t)
	q, err := s.Query(`SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk,
		keyword AS k WHERE k.id = mk.keyword_id AND t.id = mk.movie_id
		AND k.keyword = 'sequel'`)
	if err != nil {
		t.Fatal(err)
	}
	rep, d, err := s.RunAuto(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.RowCount != 1 || d.Reason == "" {
		t.Fatalf("SQL query misbehaved: %d rows, reason %q", rep.Result.RowCount, d.Reason)
	}
	if _, err := s.Query("SELECT FROM nothing"); err == nil {
		t.Fatal("bad SQL must fail")
	}
	if _, err := s.Query("SELECT MIN(x.y) FROM ghost AS x"); err == nil {
		t.Fatal("unknown table must fail validation")
	}
}

func TestRunMultiThroughFacade(t *testing.T) {
	s := testSystem(t)
	q := job.QueryByName("1a")
	single, err := s.Run(q, coop.Strategy{Kind: coop.Hybrid, Split: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := s.RunMulti(q, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Result.RowCount != single.Result.RowCount {
		t.Fatalf("multi-device result %d != single %d", multi.Result.RowCount, single.Result.RowCount)
	}
	if multi.Devices != 3 {
		t.Fatalf("Devices = %d", multi.Devices)
	}
}

// TestSingleTableSplits is the join-free regression: Splits must classify a
// single-table query as the H0-only strategy set (not an error), and the H0
// execution — device-side scan+filter, host-side finalize — must agree with
// the host-native result.
func TestSingleTableSplits(t *testing.T) {
	s := testSystem(t)
	q, err := s.Query(`SELECT MIN(t.title) FROM title AS t WHERE t.production_year > 2000`)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := s.Splits(q)
	if err != nil {
		t.Fatalf("Splits on a join-free query: %v", err)
	}
	if len(splits) != 1 || splits[0].Kind != coop.Hybrid || splits[0].Split != -1 {
		t.Fatalf("want the H0-only set, got %v", splits)
	}
	ref, err := s.Run(q, coop.Strategy{Kind: coop.HostNative})
	if err != nil {
		t.Fatal(err)
	}
	h0, err := s.Run(q, splits[0])
	if err != nil {
		t.Fatalf("single-table H0 execution: %v", err)
	}
	if h0.Result.RowCount != ref.Result.RowCount {
		t.Fatalf("H0 rows %d != host %d", h0.Result.RowCount, ref.Result.RowCount)
	}
	if len(ref.Result.Rows) > 0 && len(h0.Result.Rows) > 0 &&
		ref.Result.Rows[0][0].String() != h0.Result.Rows[0][0].String() {
		t.Fatalf("H0 aggregate %v != host %v", h0.Result.Rows[0][0], ref.Result.Rows[0][0])
	}
	if h0.Batches == 0 {
		t.Fatal("single-table H0 produced no shared-buffer batches")
	}
	// The decision path must classify it too (NDP vs host, never an error).
	d, err := s.Decide(q)
	if err != nil {
		t.Fatal(err)
	}
	if DecisionStrategy(d).Kind == coop.Hybrid && len(d.Plan.Steps) == 0 && DecisionStrategy(d).Split > 0 {
		t.Fatalf("join-free decision chose an interior split: %v", d.StrategyLabel())
	}
}

func TestEmptySystemUsable(t *testing.T) {
	s, err := New(hw.Cosmos())
	if err != nil {
		t.Fatal(err)
	}
	sch := table.MustSchema("kvp", []table.Column{
		{Name: "id", Type: table.Int32, Size: 4},
		{Name: "v", Type: table.Char, Size: 8, Nullable: true},
	}, "id")
	tbl, err := s.Catalog.CreateTable(sch)
	if err != nil {
		t.Fatal(err)
	}
	for i := int32(1); i <= 100; i++ {
		if err := tbl.Insert([]table.Value{table.IntVal(i), table.StrVal("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.RowCount(); n != 100 {
		t.Fatalf("RowCount = %d", n)
	}
}
