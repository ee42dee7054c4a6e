package storage_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// activeSegment returns the path of the newest WAL segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal segments in %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// frameOffsets walks path's frames by their length headers and returns
// where each starts, plus — last — the logical tail: the offset after the
// final frame, where the preallocated zeros begin.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	for off := 0; off+8 <= len(raw); {
		size := int(binary.BigEndian.Uint32(raw[off : off+4]))
		if size == 0 || off+8+size > len(raw) {
			break
		}
		off += 8 + size
		offs = append(offs, int64(off))
	}
	return offs
}

// patchFile overwrites len(b) bytes of path at off.
func patchFile(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func entry(i int64, term uint64, key string) protocol.Entry {
	return protocol.Entry{
		Index: i, Term: term, Bal: term,
		Cmd: protocol.Command{ID: uint64(i), Op: protocol.OpPut, Key: key, Value: []byte("v")},
	}
}

// testStore is the Store contract suite, run on every implementation: the
// cluster tests drive Mem where production drives File, so the two must
// accept, reject and expose the same things.
func testStore(t *testing.T, s storage.Store) {
	t.Helper()
	saved := storage.HardState{Term: 3, VotedFor: 1, Commit: 2}
	if err := s.SaveHardState(saved); err != nil {
		t.Fatal(err)
	}
	hs, err := s.HardState()
	if err != nil || hs != saved {
		t.Fatalf("hardstate = %+v, %v", hs, err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 1, "k")}); err != nil {
			t.Fatal(err)
		}
	}
	last, err := s.LastIndex()
	if err != nil || last != 5 {
		t.Fatalf("last = %d, %v", last, err)
	}
	ents, err := s.Entries(2, 4)
	if err != nil || len(ents) != 3 || ents[0].Index != 2 {
		t.Fatalf("entries = %+v, %v", ents, err)
	}
	// A rejected batch leaves the log untouched: the overwrite ahead of
	// the gap must not land.
	if err := s.Append([]protocol.Entry{entry(3, 2, "k2"), entry(9, 2, "k")}); err == nil {
		t.Fatal("gapped append accepted")
	}
	if last, _ := s.LastIndex(); last != 5 {
		t.Fatalf("rejected batch moved the log: last = %d, want 5", last)
	}
	if ents, err := s.Entries(3, 3); err != nil || ents[0].Term != 1 {
		t.Fatalf("rejected batch overwrote entry 3: %+v, %v", ents, err)
	}
	// Overwrite at index 3 (Raft*'s covered overwrite) truncates the suffix.
	if err := s.Append([]protocol.Entry{entry(3, 2, "k2")}); err != nil {
		t.Fatal(err)
	}
	ents, err = s.Entries(3, 3)
	if err != nil || ents[0].Term != 2 || ents[0].Cmd.Key != "k2" {
		t.Fatalf("overwrite lost: %+v, %v", ents, err)
	}
	if last, _ := s.LastIndex(); last != 3 {
		t.Fatalf("overwrite kept the suffix: last = %d, want 3", last)
	}
	if _, err := s.Entries(0, 1); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	// Buffered appends are readable before any sync, an overwrite included.
	if err := s.AppendBuffered([]protocol.Entry{entry(4, 2, "b"), entry(5, 2, "b")}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBuffered([]protocol.Entry{entry(4, 3, "c")}); err != nil {
		t.Fatal(err)
	}
	if last, _ := s.LastIndex(); last != 4 {
		t.Fatalf("buffered overwrite: last = %d, want 4", last)
	}
	if ents, err := s.Entries(4, 4); err != nil || ents[0].Term != 3 {
		t.Fatalf("buffered overwrite not readable: %+v, %v", ents, err)
	}
	// SyncBatch saves the hard state only when asked to.
	next := storage.HardState{Term: 4, VotedFor: 2, Commit: 3}
	if err := s.SyncBatch(next, false); err != nil {
		t.Fatal(err)
	}
	if hs, _ := s.HardState(); hs != saved {
		t.Fatalf("SyncBatch(save=false) moved the hard state to %+v", hs)
	}
	if err := s.SyncBatch(next, true); err != nil {
		t.Fatal(err)
	}
	if hs, _ := s.HardState(); hs != next {
		t.Fatalf("SyncBatch(save=true) left the hard state at %+v, want %+v", hs, next)
	}
	// Sync on a clean log is a no-op.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if last, _ := s.LastIndex(); last != 4 {
		t.Fatalf("clean Sync moved the log: last = %d, want 4", last)
	}
}

func TestMemStore(t *testing.T) { testStore(t, storage.NewMem()) }

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
	syncs := s.SyncCount()
	if err := s.Sync(); err != nil || s.SyncCount() != syncs {
		t.Fatalf("Sync on a clean log: err %v, fsyncs %d -> %d", err, syncs, s.SyncCount())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveHardState(storage.HardState{Term: 7, VotedFor: 2, Commit: 3}); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 4; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 7, "key")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	hs, _ := re.HardState()
	if hs.Term != 7 || hs.VotedFor != 2 || hs.Commit != 3 {
		t.Fatalf("recovered hardstate %+v", hs)
	}
	last, _ := re.LastIndex()
	if last != 4 {
		t.Fatalf("recovered last = %d, want 4", last)
	}
	ents, err := re.Entries(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		if e.Index != int64(i+1) || e.Cmd.Key != "key" || string(e.Cmd.Value) != "v" {
			t.Fatalf("entry %d corrupted: %+v", i+1, e)
		}
	}
}

func TestFileStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 1, "k")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Simulate a crash mid-write: a header promising 50 bytes and three of
	// them, at the logical tail of the active segment.
	wal := activeSegment(t, dir)
	offs := frameOffsets(t, wal)
	patchFile(t, wal, offs[len(offs)-1], []byte{0, 0, 0, 50, 1, 2, 3})

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	last, _ := re.LastIndex()
	if last != 3 {
		t.Fatalf("torn tail not discarded: last = %d", last)
	}
}

// TestFileStoreTornMidFrame tears the WAL mid-record — the torn final
// frame must be dropped on reopen without losing any earlier entry.
func TestFileStoreTornMidFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 1, "k")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := activeSegment(t, dir)
	offs := frameOffsets(t, wal)
	// The last record's final sector never landed: its header survives but
	// the end of the payload is still the preallocated zeros, exactly what
	// a crash mid-write leaves behind.
	patchFile(t, wal, offs[len(offs)-1]-10, make([]byte, 10))

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	last, _ := re.LastIndex()
	if last != 4 {
		t.Fatalf("after mid-frame tear: last = %d, want 4", last)
	}
	ents, err := re.Entries(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		if e.Index != int64(i+1) || e.Cmd.Key != "k" {
			t.Fatalf("entry %d lost or corrupted: %+v", i+1, e)
		}
	}
}

// TestFileStoreBadCRCTail flips a byte inside the final record's body —
// the checksum mismatch must drop that record on reopen and keep the
// earlier entries intact.
func TestFileStoreBadCRCTail(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 1, "k")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := activeSegment(t, dir)
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	offs := frameOffsets(t, wal)
	end := offs[len(offs)-1] - 1 // final byte of the last record's body
	patchFile(t, wal, end, []byte{raw[end] ^ 0xff})

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	last, _ := re.LastIndex()
	if last != 2 {
		t.Fatalf("bad-CRC record not dropped: last = %d, want 2", last)
	}
}

// TestFileStoreZeroTail: a zero-filled tail — this store's own
// preallocation, or what ext4/XFS delayed allocation leaves after power
// loss — is end-of-log, not a corrupt record. (A length-0 frame has
// CRC32("") = 0, so it passes the checksum and only then fails to decode.)
func TestFileStoreZeroTail(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]protocol.Entry{entry(1, 1, "k")}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(activeSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen over a zero tail: %v", err)
	}
	defer re.Close()
	if last, _ := re.LastIndex(); last != 1 {
		t.Fatalf("last = %d, want 1", last)
	}
	if err := re.Append([]protocol.Entry{entry(2, 1, "k")}); err != nil {
		t.Fatalf("append after a zero tail: %v", err)
	}
}

// TestFileStoreStaleFrameNotResurrected: frame 5 is torn but frame 6
// behind it is intact. Reopen must scrub 6 before the first append, or a
// new entry 5 of the old one's encoded length would sit flush against it
// and the next replay would stitch the stale 6 back onto the log.
func TestFileStoreStaleFrameNotResurrected(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 6; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 1, "k")}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := activeSegment(t, dir)
	offs := frameOffsets(t, wal) // offs[4] starts frame 5, offs[5] frame 6
	patchFile(t, wal, offs[4], make([]byte, offs[5]-offs[4]))

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := re.LastIndex(); last != 4 {
		t.Fatalf("after tearing frame 5: last = %d, want 4", last)
	}
	if err := re.Append([]protocol.Entry{entry(5, 2, "K")}); err != nil { // same encoded length as the old 5
		t.Fatal(err)
	}
	re.Close()
	if got := frameOffsets(t, wal); got[5] != offs[5] {
		t.Fatalf("new frame 5 ends at %d, old one at %d: the test no longer lines them up", got[5], offs[5])
	}

	re2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if last, _ := re2.LastIndex(); last != 5 {
		t.Fatalf("stale frame 6 resurrected: last = %d, want 5", last)
	}
	if ents, err := re2.Entries(5, 5); err != nil || ents[0].Term != 2 || ents[0].Cmd.Key != "K" {
		t.Fatalf("entry 5 = %+v, %v", ents, err)
	}
}

// TestFileStoreRotationNeverWaits: with segments that take a few dozen
// syncs to fill, the background preparer always has the next one ready, so
// rotation — on the persister's path — never waits for a zero-fill. The
// claim is held to the best of three runs, each on a fresh store: a
// preparer that is merely not scheduled while other work holds the CPUs
// can spoil one run, but a rotation that waits for its own zero-fill
// spoils all three.
func TestFileStoreRotationNeverWaits(t *testing.T) {
	best := 1.0 // least share of a run spent waiting for the preparer
	for run := 0; run < 3; run++ {
		s := smallSeg(t, t.TempDir())
		start := time.Now()
		appendN(t, s, 1, 2000)
		e := time.Since(start)
		w := time.Duration(s.SegmentWaitNs())
		n := s.SegmentCount()
		s.Close()
		if n < 20 {
			t.Fatalf("segments = %d, want a rotation-heavy run (>= 20)", n)
		}
		t.Logf("run %d: %d segments in %v, %v of it waiting for the preparer", run, n, e, w)
		if share := float64(w) / float64(e); share < best {
			best = share
		}
	}
	if best > 1.0/20 {
		t.Fatalf("rotation waited for the preparer %.1f%% of the run, in the best of three runs", 100*best)
	}
}

// TestFileStoreGroupCommitSyncCount asserts the group-commit contract:
// one fsync per Append batch, however many entries the batch carries.
func TestFileStoreGroupCommitSyncCount(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	batch := make([]protocol.Entry, 0, 64)
	for i := int64(1); i <= 64; i++ {
		batch = append(batch, entry(i, 1, "k"))
	}
	if err := s.Append(batch); err != nil {
		t.Fatal(err)
	}
	if got := s.SyncCount(); got != 1 {
		t.Fatalf("SyncCount after one 64-entry batch = %d, want 1", got)
	}
	if got := s.EntryCount(); got != 64 {
		t.Fatalf("EntryCount = %d, want 64", got)
	}
	if err := s.Append([]protocol.Entry{entry(65, 1, "k")}); err != nil {
		t.Fatal(err)
	}
	if got, appends := s.SyncCount(), s.AppendCount(); got != 2 || appends != 2 {
		t.Fatalf("SyncCount = %d, AppendCount = %d, want 2 and 2", got, appends)
	}
	if err := s.Append(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.SyncCount(); got != 2 {
		t.Fatalf("empty Append must not sync: SyncCount = %d, want 2", got)
	}
	// The batch is durable and replayable.
	last, _ := s.LastIndex()
	if last != 65 {
		t.Fatalf("last = %d, want 65", last)
	}
}

func TestMemTruncate(t *testing.T) {
	m := storage.NewMem()
	for i := int64(1); i <= 5; i++ {
		if err := m.Append([]protocol.Entry{entry(i, 1, "k")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Truncate(2); err != nil {
		t.Fatal(err)
	}
	last, _ := m.LastIndex()
	if last != 2 {
		t.Fatalf("last after truncate = %d", last)
	}
	if err := m.Truncate(99); err == nil {
		t.Fatal("out-of-range truncate accepted")
	}
}

// TestFileSyncBatchDurableAcrossReopen pins the GroupSync contract the
// persistence pipeline leans on: one SyncBatch call makes the buffered
// entry window and the hard state durable together (entries strictly
// first), a clean log costs no extra WAL fsync, and — the other half of
// the contract — a bare SaveHardState never drags buffered entries to
// disk with it. Durability is proven the honest way: abandon the store
// without Close and reopen the directory.
func TestFileSyncBatchDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	batch := []protocol.Entry{entry(1, 1, "a"), entry(2, 1, "b"), entry(3, 1, "c")}
	if err := s.AppendBuffered(batch); err != nil {
		t.Fatal(err)
	}
	if got := s.SyncCount(); got != 0 {
		t.Fatalf("AppendBuffered synced: SyncCount = %d, want 0", got)
	}
	hs := storage.HardState{Term: 2, VotedFor: 1, Commit: 3}
	if err := s.SyncBatch(hs, true); err != nil {
		t.Fatal(err)
	}
	if got := s.SyncCount(); got != 1 {
		t.Fatalf("SyncCount after SyncBatch = %d, want 1", got)
	}
	// Clean log: a second SyncBatch must not touch the WAL again.
	if err := s.SyncBatch(hs, false); err != nil {
		t.Fatal(err)
	}
	if got := s.SyncCount(); got != 1 {
		t.Fatalf("SyncBatch on a clean log fsynced: SyncCount = %d, want 1", got)
	}

	// Crash (no Close): only what SyncBatch flushed survives the reopen.
	s2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := s2.LastIndex(); last != 3 {
		t.Fatalf("reopened last = %d, want 3", last)
	}
	if got, _ := s2.HardState(); got != hs {
		t.Fatalf("reopened hard state = %+v, want %+v", got, hs)
	}
	ents, err := s2.Entries(1, 3)
	if err != nil || len(ents) != 3 || ents[2].Cmd.Key != "c" {
		t.Fatalf("reopened entries = %+v, %v", ents, err)
	}

	// Stage one more entry but save only the hard state: the save must be
	// durable while the buffered entry must NOT ride along to disk.
	if err := s2.AppendBuffered([]protocol.Entry{entry(4, 2, "d")}); err != nil {
		t.Fatal(err)
	}
	hs2 := storage.HardState{Term: 3, VotedFor: 2, Commit: 3}
	if err := s2.SaveHardState(hs2); err != nil {
		t.Fatal(err)
	}
	s3, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if last, _ := s3.LastIndex(); last != 3 {
		t.Fatalf("save-only flush dragged a buffered entry to disk: last = %d, want 3", last)
	}
	if got, _ := s3.HardState(); got != hs2 {
		t.Fatalf("hard state after save-only = %+v, want %+v", got, hs2)
	}
}
