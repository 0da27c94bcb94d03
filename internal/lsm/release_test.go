package lsm

import "testing"

// immSlotsEmpty fails when any slot of the immutable-memtable queue's backing
// array still points at a memtable once the queue is drained: a flushed
// skiplist left there stays reachable for the tree's lifetime.
func immSlotsEmpty(t *testing.T, tr *Tree, when string) {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	if len(tr.imm) != 0 {
		t.Fatalf("%s: %d immutable memtables left unflushed", when, len(tr.imm))
	}
	for i, m := range tr.imm[:cap(tr.imm)] {
		if m != nil {
			t.Errorf("%s: imm backing slot %d still holds a flushed memtable (%d entries)", when, i, m.Len())
		}
	}
}

func TestFlushReleasesMemTables(t *testing.T) {
	tr := smallTree(testFlash())
	// A size-triggered rotation flushes inside Put.
	for i := 0; tr.Stats().SSTs == 0; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	immSlotsEmpty(t, tr, "after rotation flush")

	if err := tr.Put(key(-1), val(-1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	immSlotsEmpty(t, tr, "after Flush")
	if v, ok, err := tr.Get(key(-1), Access{}); err != nil || !ok || string(v) != string(val(-1)) {
		t.Fatalf("flushed key lost: %q %v %v", v, ok, err)
	}
}

func TestLeveledCompactionReleasesVictim(t *testing.T) {
	tr := NewTree(testFlash(), Config{
		MemTableBytes:  8 << 10,
		MaxL1Files:     4,
		LevelRatio:     4,
		BaseLevelBytes: 1 << 30, // no lower compaction while loading
	})
	for i := 0; i < 5000; i++ {
		if err := tr.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.levels) == 0 || len(tr.levels[0]) < 2 {
		t.Fatalf("want C2 with at least two SSTs, got %d levels", len(tr.levels))
	}
	orig := tr.levels[0] // shares the backing array the pop reslices
	victim := orig[0]
	var size int64
	for _, s := range orig {
		size += s.DataBytes()
	}
	tr.cfg.BaseLevelBytes = size - 1 // C2 now overflows by one byte
	if err := tr.compactLowerLocked(); err != nil {
		t.Fatal(err)
	}
	if len(tr.levels[0]) != len(orig)-1 || &tr.levels[0][0] != &orig[1] {
		t.Fatalf("C2 was not popped from the front of its array")
	}
	if orig[0] == victim {
		t.Errorf("compaction victim %v still reachable through C2's backing array", victim.File())
	}
}
