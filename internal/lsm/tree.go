package lsm

import (
	"bytes"
	"fmt"
	"sync"

	"hybridndp/internal/flash"
)

// flashFileID aliases the flash file identifier for the manifest hook.
type flashFileID = flash.FileID

// Config tunes one LSM tree.
type Config struct {
	// MemTableBytes is the C0 flush threshold.
	MemTableBytes int64
	// MaxL1Files triggers compaction of C1 (which may hold overlapping key
	// ranges) into C2 once exceeded.
	MaxL1Files int
	// LevelRatio is the size ratio r = |C_{i+1}|/|C_i| of classic LSM trees
	// (leveled), or the run count per level that triggers a merge (tiered).
	LevelRatio int
	// BaseLevelBytes is the size limit of C2; level i+1 allows
	// BaseLevelBytes × LevelRatio^(i-2). Leveled strategy only.
	BaseLevelBytes int64
	// Tiered selects tiered compaction (paper §2.2: "depending on the
	// strategy (e.g., tiered or leveled)"): each level holds up to
	// LevelRatio overlapping runs; overflow merges the whole level into one
	// run on the next level. Reads check every run, writes move less data.
	Tiered bool
	// Durable enables the write-ahead log and the flash-rooted manifest, so
	// the tree survives a restart via Reopen.
	Durable bool
	// WALSyncBytes is the WAL group-commit threshold (≤0: 64 KiB).
	WALSyncBytes int64
	// OnManifest, when set, receives each newly written manifest file ID
	// instead of installing it as the flash root — the hook the nKV layer
	// uses to keep one root covering many column families.
	OnManifest func(id flashFileID) error
	// Seed is the base seed for memtable skiplist height RNGs; each rotation
	// derives a fresh per-memtable seed from it. 0 means lsm.DefaultSeed.
	Seed int64
}

// DefaultConfig mirrors a small RocksDB-ish setup, scaled for the simulator.
func DefaultConfig() Config {
	return Config{
		MemTableBytes:  4 << 20,
		MaxL1Files:     8,
		LevelRatio:     10,
		BaseLevelBytes: 64 << 20,
	}
}

// Tree is a multi-level LSM tree as organized in RocksDB/nKV (paper §2.2 and
// Fig. 4): C0 is a set of skiplist MemTables; C1 holds flushed SSTs with
// possibly overlapping key ranges (no merge on flush, for performance); C2..CK
// hold non-overlapping SSTs produced by compaction.
type Tree struct {
	mu         sync.RWMutex
	cfg        Config
	fl         *flash.Flash
	mem        *MemTable   // guarded by mu
	imm        []*MemTable // immutable memtables, newest first; guarded by mu
	l1         []*SST      // newest first, ranges may overlap; guarded by mu
	levels     [][]*SST    // levels[i] = C_{i+2}, sorted by min key, non-overlapping; guarded by mu
	wal        *WAL        // nil unless cfg.Durable
	manifestID flashFileID // guarded by mu
	memSeq     int64       // memtables created so far, for seed derivation; guarded by mu
}

// NewTree creates an empty tree over the given flash module.
func NewTree(fl *flash.Flash, cfg Config) *Tree {
	if cfg.MemTableBytes <= 0 {
		def := DefaultConfig()
		def.Tiered = cfg.Tiered
		def.Durable = cfg.Durable
		def.WALSyncBytes = cfg.WALSyncBytes
		def.OnManifest = cfg.OnManifest
		def.Seed = cfg.Seed
		cfg = def
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	t := &Tree{cfg: cfg, fl: fl}
	t.mem = t.newMemTableLocked()
	if cfg.Durable {
		t.wal = newWAL(fl, cfg.WALSyncBytes)
	}
	return t
}

// Put inserts or overwrites a key. Writes are maintenance traffic in this
// reproduction (the paper measures read-side query processing; write
// amplification was addressed earlier by NoFTL-KV) and are not charged.
func (t *Tree) Put(key, value []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal != nil {
		if err := t.wal.Append(Entry{Key: key, Value: value}); err != nil {
			return err
		}
	}
	t.mem.Put(key, value)
	return t.maybeRotateLocked()
}

// Delete writes a tombstone for key.
func (t *Tree) Delete(key []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal != nil {
		if err := t.wal.Append(Entry{Key: key, Tombstone: true}); err != nil {
			return err
		}
	}
	t.mem.Delete(key)
	return t.maybeRotateLocked()
}

// newMemTableLocked derives the next memtable's RNG seed from the configured
// base seed and a rotation counter, so every memtable over the tree's lifetime
// gets a distinct but reproducible skiplist height sequence.
func (t *Tree) newMemTableLocked() *MemTable {
	t.memSeq++
	return NewMemTableSeeded(t.cfg.Seed + t.memSeq - 1)
}

func (t *Tree) maybeRotateLocked() error {
	if t.mem.ByteSize() < t.cfg.MemTableBytes {
		return nil
	}
	t.imm = append([]*MemTable{t.mem}, t.imm...)
	t.mem = t.newMemTableLocked()
	return t.flushLocked()
}

// Sync persists any pending WAL records without flushing memtables.
func (t *Tree) Sync() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return nil
	}
	if err := t.wal.Sync(); err != nil {
		return err
	}
	return t.persistManifestLocked()
}

// Flush forces all memtables (mutable and immutable) to C1 SSTs.
func (t *Tree) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mem.Len() > 0 {
		t.imm = append([]*MemTable{t.mem}, t.imm...)
		t.mem = t.newMemTableLocked()
	}
	return t.flushLocked()
}

// flushLocked writes immutable memtables to C1 (no merging: overlapping key
// ranges are allowed on C1, exactly as the paper describes) and triggers
// compaction when C1 grows past its file limit.
func (t *Tree) flushLocked() error {
	for len(t.imm) > 0 {
		m := t.imm[len(t.imm)-1] // oldest first keeps newest-first order in l1
		// Nil the vacated slot: the backing array would otherwise keep the
		// flushed skiplist (a second copy of every row) alive.
		t.imm[len(t.imm)-1] = nil
		t.imm = t.imm[:len(t.imm)-1]
		if m.Len() == 0 {
			continue
		}
		entries := make([]Entry, 0, m.Len())
		for it := m.Iter(nil); it.Valid(); it.Next() {
			entries = append(entries, it.Entry())
		}
		sst, err := BuildSST(t.fl, entries, Access{})
		if err != nil {
			return err
		}
		t.l1 = append([]*SST{sst}, t.l1...)
	}
	if len(t.l1) > t.cfg.MaxL1Files {
		if t.cfg.Tiered {
			if err := t.compactL1TieredLocked(); err != nil {
				return err
			}
		} else if err := t.compactL1Locked(); err != nil {
			return err
		}
	}
	var err error
	if t.cfg.Tiered {
		err = t.compactLowerTieredLocked()
	} else {
		err = t.compactLowerLocked()
	}
	if err != nil {
		return err
	}
	// Everything logged so far is durable in SSTs now: retire the WAL and
	// install the new manifest.
	if t.wal != nil {
		t.wal.Reset()
	}
	return t.persistManifestLocked()
}

// compactL1TieredLocked merges all of C1 into one sorted run pushed onto C2
// without touching C2's existing runs (tiered compaction: levels hold
// multiple overlapping runs, newest first).
func (t *Tree) compactL1TieredLocked() error {
	if len(t.l1) == 0 {
		return nil
	}
	srcs := make([]mergeSource, 0, len(t.l1))
	for _, s := range t.l1 {
		srcs = append(srcs, &sstSource{it: s.Iter(nil, Access{})})
	}
	merged, err := mergeAll(srcs, false)
	if err != nil {
		return err
	}
	old := t.l1
	t.l1 = nil
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	if len(merged) > 0 {
		// One SST per run: the level's run count is what triggers further
		// tiered merges, so a compaction must add exactly one run.
		run, err := BuildSST(t.fl, merged, Access{})
		if err != nil {
			return err
		}
		t.levels[0] = append([]*SST{run}, t.levels[0]...)
	}
	for _, s := range old {
		t.fl.DeleteFile(s.File())
	}
	return nil
}

// compactLowerTieredLocked merges a whole level into one run on the next
// level once it accumulates LevelRatio runs.
func (t *Tree) compactLowerTieredLocked() error {
	ratio := t.cfg.LevelRatio
	if ratio < 2 {
		ratio = 2
	}
	for i := 0; i < len(t.levels); i++ {
		if len(t.levels[i]) <= ratio {
			continue
		}
		srcs := make([]mergeSource, 0, len(t.levels[i]))
		for _, s := range t.levels[i] {
			srcs = append(srcs, &sstSource{it: s.Iter(nil, Access{})})
		}
		dropTombstones := i+2 >= len(t.levels)+1 && i+1 >= len(t.levels)
		merged, err := mergeAll(srcs, dropTombstones)
		if err != nil {
			return err
		}
		old := t.levels[i]
		t.levels[i] = nil
		if i+1 >= len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		if len(merged) > 0 {
			run, err := BuildSST(t.fl, merged, Access{})
			if err != nil {
				return err
			}
			t.levels[i+1] = append([]*SST{run}, t.levels[i+1]...)
		}
		for _, s := range old {
			t.fl.DeleteFile(s.File())
		}
	}
	return nil
}

// compactL1Locked merges all of C1 with the overlapping part of C2. Outdated
// versions are removed; tombstones survive unless C2 becomes the last level.
func (t *Tree) compactL1Locked() error {
	if len(t.l1) == 0 {
		return nil
	}
	var lo, hi []byte
	for _, s := range t.l1 {
		if lo == nil || bytes.Compare(s.MinKey(), lo) < 0 {
			lo = s.MinKey()
		}
		if hi == nil || bytes.Compare(s.MaxKey(), hi) > 0 {
			hi = s.MaxKey()
		}
	}
	if len(t.levels) == 0 {
		t.levels = append(t.levels, nil)
	}
	var overlap, keep []*SST
	for _, s := range t.levels[0] {
		if s.OverlapsRange(lo, hi) {
			overlap = append(overlap, s)
		} else {
			keep = append(keep, s)
		}
	}
	// Sources newest first: C1 files (already newest first), then C2 overlap.
	srcs := make([]mergeSource, 0, len(t.l1)+len(overlap))
	for _, s := range t.l1 {
		srcs = append(srcs, &sstSource{it: s.Iter(nil, Access{})})
	}
	for _, s := range overlap {
		srcs = append(srcs, &sstSource{it: s.Iter(nil, Access{})})
	}
	dropTombstones := len(t.levels) == 1 // C2 is the last level
	merged, err := mergeAll(srcs, dropTombstones)
	if err != nil {
		return err
	}
	old := append(append([]*SST(nil), t.l1...), overlap...)
	t.l1 = nil
	if len(merged) > 0 {
		outs, err := t.buildRuns(merged)
		if err != nil {
			return err
		}
		keep = append(keep, outs...)
	}
	sortByMinKey(keep)
	t.levels[0] = keep
	for _, s := range old {
		t.fl.DeleteFile(s.File())
	}
	return nil
}

// compactLowerLocked pushes overflowing levels downward (classic leveled
// compaction with ratio r).
func (t *Tree) compactLowerLocked() error {
	for i := 0; i < len(t.levels); i++ {
		limit := t.cfg.BaseLevelBytes
		for j := 0; j < i; j++ {
			limit *= int64(t.cfg.LevelRatio)
		}
		var size int64
		for _, s := range t.levels[i] {
			size += s.DataBytes()
		}
		if size <= limit || len(t.levels[i]) == 0 {
			continue
		}
		if i+1 >= len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		// Move the first (smallest-key) SST down, merging with overlap.
		victim := t.levels[i][0]
		t.levels[i][0] = nil // the reslice below would keep it reachable
		t.levels[i] = t.levels[i][1:]
		var overlap, keep []*SST
		for _, s := range t.levels[i+1] {
			if s.OverlapsRange(victim.MinKey(), victim.MaxKey()) {
				overlap = append(overlap, s)
			} else {
				keep = append(keep, s)
			}
		}
		srcs := []mergeSource{&sstSource{it: victim.Iter(nil, Access{})}}
		for _, s := range overlap {
			srcs = append(srcs, &sstSource{it: s.Iter(nil, Access{})})
		}
		dropTombstones := i+2 == len(t.levels)
		merged, err := mergeAll(srcs, dropTombstones)
		if err != nil {
			return err
		}
		if len(merged) > 0 {
			outs, err := t.buildRuns(merged)
			if err != nil {
				return err
			}
			keep = append(keep, outs...)
		}
		sortByMinKey(keep)
		t.levels[i+1] = keep
		t.fl.DeleteFile(victim.File())
		for _, s := range overlap {
			t.fl.DeleteFile(s.File())
		}
	}
	return nil
}

// buildRuns splits merged entries into SSTs of roughly memtable size.
func (t *Tree) buildRuns(entries []Entry) ([]*SST, error) {
	var outs []*SST
	var run []Entry
	var runBytes int64
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		s, err := BuildSST(t.fl, run, Access{})
		if err != nil {
			return err
		}
		outs = append(outs, s)
		run = nil
		runBytes = 0
		return nil
	}
	for _, e := range entries {
		run = append(run, e)
		runBytes += int64(len(e.Key) + len(e.Value))
		if runBytes >= 2*t.cfg.MemTableBytes {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return outs, nil
}

func sortByMinKey(ssts []*SST) {
	for i := 1; i < len(ssts); i++ {
		for j := i; j > 0 && bytes.Compare(ssts[j].MinKey(), ssts[j-1].MinKey()) < 0; j-- {
			ssts[j], ssts[j-1] = ssts[j-1], ssts[j]
		}
	}
}

// mergeAll drains the sources (ordered newest first) into a deduplicated
// sorted entry list.
func mergeAll(srcs []mergeSource, dropTombstones bool) ([]Entry, error) {
	it := newMergeIter(srcs, Access{}, !dropTombstones)
	var out []Entry
	for it.Valid() {
		e := it.Entry()
		if !(dropTombstones && e.Tombstone) {
			out = append(out, Entry{
				Key:       append([]byte(nil), e.Key...),
				Value:     append([]byte(nil), e.Value...),
				Tombstone: e.Tombstone,
			})
		}
		it.Next()
	}
	return out, it.Err()
}

// Get retrieves the entry for key following the paper's lookup order:
// memtables, then C1 (every overlapping SST, newest first), then one SST per
// lower level.
func (t *Tree) Get(key []byte, ac Access) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.mem.Get(key); ok {
		return valueOf(e)
	}
	for _, m := range t.imm {
		if e, ok := m.Get(key); ok {
			return valueOf(e)
		}
	}
	for _, s := range t.l1 {
		e, ok, err := s.Get(key, ac)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return valueOf(e)
		}
	}
	for _, lvl := range t.levels {
		e, ok, err := getFromLevel(lvl, key, ac, t.cfg.Tiered)
		if err != nil {
			return nil, false, err
		}
		if ok {
			return valueOf(e)
		}
	}
	return nil, false, nil
}

// getFromLevel resolves a key inside one level: leveled levels hold
// non-overlapping SSTs (binary search), tiered levels hold overlapping runs
// checked newest first.
func getFromLevel(lvl []*SST, key []byte, ac Access, tiered bool) (Entry, bool, error) {
	if tiered {
		for _, s := range lvl {
			e, ok, err := s.Get(key, ac)
			if err != nil || ok {
				return e, ok, err
			}
		}
		return Entry{}, false, nil
	}
	i := searchLevel(lvl, key)
	if i < 0 {
		return Entry{}, false, nil
	}
	return lvl[i].Get(key, ac)
}

func valueOf(e Entry) ([]byte, bool, error) {
	if e.Tombstone {
		return nil, false, nil
	}
	return e.Value, true, nil
}

// searchLevel finds the single SST in a non-overlapping level that could
// contain key, or -1.
func searchLevel(lvl []*SST, key []byte) int {
	lo, hi := 0, len(lvl)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := lvl[mid]
		switch {
		case bytes.Compare(key, s.MinKey()) < 0:
			hi = mid - 1
		case bytes.Compare(key, s.MaxKey()) > 0:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Scan returns a merged iterator over [lo, hi) (nil bounds are unbounded).
// Fence pointers exclude SSTs entirely outside the range before any flash
// read happens, as in MyRocks/RocksDB.
func (t *Tree) Scan(lo, hi []byte, ac Access) *TreeIter {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var hiIncl []byte // OverlapsRange uses inclusive bounds; adjust below.
	if hi != nil {
		hiIncl = hi
	}
	srcs := []mergeSource{&memSource{it: t.mem.Iter(lo)}}
	for _, m := range t.imm {
		srcs = append(srcs, &memSource{it: m.Iter(lo)})
	}
	for _, s := range t.l1 {
		if s.OverlapsRange(lo, hiIncl) {
			srcs = append(srcs, &sstSource{it: s.Iter(lo, ac)})
		}
	}
	for _, lvl := range t.levels {
		for _, s := range lvl {
			if s.OverlapsRange(lo, hiIncl) {
				srcs = append(srcs, &sstSource{it: s.Iter(lo, ac)})
			}
		}
	}
	return &TreeIter{inner: newMergeIter(srcs, ac, false), hi: hi}
}

// TreeIter walks the merged view of the tree, hiding tombstones and stopping
// at the upper bound.
type TreeIter struct {
	inner *mergeIter
	hi    []byte
}

// Valid reports whether the iterator is positioned on a live entry.
func (it *TreeIter) Valid() bool {
	it.skipDead()
	if !it.inner.Valid() {
		return false
	}
	if it.hi != nil && bytes.Compare(it.inner.Entry().Key, it.hi) >= 0 {
		return false
	}
	return true
}

func (it *TreeIter) skipDead() {
	for it.inner.Valid() && it.inner.Entry().Tombstone {
		it.inner.Next()
	}
}

// Entry returns the current entry; only valid while Valid().
func (it *TreeIter) Entry() Entry { return it.inner.Entry() }

// Next advances to the next live entry.
func (it *TreeIter) Next() { it.inner.Next() }

// Err reports a read error encountered while iterating.
func (it *TreeIter) Err() error { return it.inner.Err() }

// MemContents returns the current C0 contents (mutable and immutable
// memtables, newest version per key, tombstones included). This is the
// shared-state payload nKV ships alongside NDP invocations so the device
// sees a transactionally consistent snapshot.
func (t *Tree) MemContents() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	srcs := []mergeSource{&memSource{it: t.mem.Iter(nil)}}
	for _, m := range t.imm {
		srcs = append(srcs, &memSource{it: m.Iter(nil)})
	}
	var out []Entry
	for it := newMergeIter(srcs, Access{}, true); it.Valid(); it.Next() {
		e := it.Entry()
		out = append(out, Entry{
			Key:       append([]byte(nil), e.Key...),
			Value:     append([]byte(nil), e.Value...),
			Tombstone: e.Tombstone,
		})
	}
	return out
}

// LevelInfo describes one level for statistics and NDP placement maps.
type LevelInfo struct {
	Level int // 0 = C0 (memtables), 1 = C1, ...
	SSTs  []SSTInfo
	// MemEntries counts in-memory entries (level 0 only).
	MemEntries int
}

// SSTInfo is the physical placement record of one SST: what the host sends
// along with an NDP invocation so the device can read the file directly.
type SSTInfo struct {
	File      flash.FileID
	MinKey    []byte
	MaxKey    []byte
	Count     int
	DataBytes int64
}

// Placement reports the physical organization of the tree (the
// address-mapping information that accompanies NDP invocations).
func (t *Tree) Placement() []LevelInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	mem := t.mem.Len()
	for _, m := range t.imm {
		mem += m.Len()
	}
	out := []LevelInfo{{Level: 0, MemEntries: mem}}
	appendLevel := func(level int, ssts []*SST) {
		li := LevelInfo{Level: level}
		for _, s := range ssts {
			li.SSTs = append(li.SSTs, SSTInfo{
				File: s.File(), MinKey: s.MinKey(), MaxKey: s.MaxKey(),
				Count: s.Count(), DataBytes: s.DataBytes(),
			})
		}
		out = append(out, li)
	}
	appendLevel(1, t.l1)
	for i, lvl := range t.levels {
		appendLevel(i+2, lvl)
	}
	return out
}

// Stats summarizes the tree for the optimizer's statistics collection.
type Stats struct {
	Entries   int
	DataBytes int64
	Levels    int
	SSTs      int
}

// Stats reports aggregate tree statistics. Entries counts SST entries plus
// memtable entries and over-counts keys duplicated across levels, matching
// the imprecision of real system statistics.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var st Stats
	st.Entries = t.mem.Len()
	for _, m := range t.imm {
		st.Entries += m.Len()
	}
	count := func(ssts []*SST) {
		for _, s := range ssts {
			st.Entries += s.Count()
			st.DataBytes += s.DataBytes()
			st.SSTs++
		}
	}
	count(t.l1)
	st.Levels = 1
	if len(t.l1) > 0 {
		st.Levels = 2
	}
	for _, lvl := range t.levels {
		count(lvl)
		if len(lvl) > 0 {
			st.Levels++
		}
	}
	return st
}

// SanityCheck verifies structural invariants: C1 may overlap, lower levels
// must not under leveled compaction; every leveled level is sorted by min
// key. Used by property tests.
func (t *Tree) SanityCheck() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.cfg.Tiered {
		return nil // tiered levels are allowed to overlap by design
	}
	for li, lvl := range t.levels {
		for i := 1; i < len(lvl); i++ {
			if bytes.Compare(lvl[i-1].MaxKey(), lvl[i].MinKey()) >= 0 {
				return fmt.Errorf("lsm: level C%d SSTs %d,%d overlap (%q ≥ %q)",
					li+2, i-1, i, lvl[i-1].MaxKey(), lvl[i].MinKey())
			}
		}
	}
	return nil
}
