package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// smallSeg opens a file store whose segments rotate after ~1KB, so a few
// dozen entries span several files.
func smallSeg(t *testing.T, dir string) *storage.File {
	t.Helper()
	s, err := storage.OpenFileWith(dir, storage.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendN(t *testing.T, s storage.Store, lo, hi int64) {
	t.Helper()
	for i := lo; i <= hi; i++ {
		if err := s.Append([]protocol.Entry{entry(i, 1, fmt.Sprintf("key-%d", i))}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "snapshot-*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// TestSegmentRotationAndCompaction drives enough entries to rotate several
// segments, snapshots, compacts, and asserts dead segments are deleted
// while reads below FirstIndex fail with ErrCompacted.
func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	defer s.Close()
	appendN(t, s, 1, 200)
	if n := s.SegmentCount(); n < 3 {
		t.Fatalf("segments = %d, want >= 3 after 200 entries at 1KB rotation", n)
	}
	preBytes := s.WALBytes()

	if err := s.SaveSnapshot(storage.Snapshot{Index: 150, Term: 1, State: []byte("state@150")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(150); err != nil {
		t.Fatal(err)
	}
	if got := s.WALBytes(); got >= preBytes {
		t.Fatalf("compaction freed nothing: %d -> %d bytes", preBytes, got)
	}
	first, _ := s.FirstIndex()
	if first != 151 {
		t.Fatalf("FirstIndex = %d, want 151", first)
	}
	last, _ := s.LastIndex()
	if last != 200 {
		t.Fatalf("LastIndex = %d, want 200", last)
	}
	if _, err := s.Entries(100, 160); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("read below FirstIndex: err = %v, want ErrCompacted", err)
	}
	ents, err := s.Entries(151, 200)
	if err != nil || len(ents) != 50 || ents[0].Index != 151 {
		t.Fatalf("tail read: %d ents, %v", len(ents), err)
	}
	// The tail keeps appending across the compaction boundary.
	appendN(t, s, 201, 210)
	if _, err := s.Entries(201, 210); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryFromSnapshotPlusTail closes after snapshot+compact and
// reopens: the store must come back with the snapshot and only the tail,
// proving restart cost is O(snapshot + tail), not O(history).
func TestRecoveryFromSnapshotPlusTail(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 120)
	if err := s.SaveSnapshot(storage.Snapshot{Index: 100, Term: 1, State: []byte("state@100")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(100); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := smallSeg(t, dir)
	defer re.Close()
	snap, ok, err := re.LatestSnapshot()
	if err != nil || !ok {
		t.Fatalf("no snapshot after reopen: %v", err)
	}
	if snap.Index != 100 || !bytes.Equal(snap.State, []byte("state@100")) {
		t.Fatalf("recovered snapshot = %+v", snap)
	}
	first, _ := re.FirstIndex()
	last, _ := re.LastIndex()
	if first != 101 || last != 120 {
		t.Fatalf("recovered range [%d, %d], want [101, 120]", first, last)
	}
	if _, err := re.Entries(1, 50); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("compacted read after reopen: %v, want ErrCompacted", err)
	}
	ents, err := re.Entries(101, 120)
	if err != nil || len(ents) != 20 || ents[0].Cmd.Key != "key-101" {
		t.Fatalf("tail after reopen: %d ents, %v", len(ents), err)
	}
}

// TestCrashBetweenSnapshotAndCompact simulates dying after the snapshot
// file is durable but before any segment was deleted: reopen must use the
// new snapshot and skip the WAL records it covers.
func TestCrashBetweenSnapshotAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 80)
	if err := s.SaveSnapshot(storage.Snapshot{Index: 60, Term: 1, State: []byte("state@60")}); err != nil {
		t.Fatal(err)
	}
	// No Compact: every segment still on disk, exactly the crash window.
	s.Close()

	re := smallSeg(t, dir)
	defer re.Close()
	snap, ok, _ := re.LatestSnapshot()
	if !ok || snap.Index != 60 {
		t.Fatalf("snapshot after crash window = %+v, ok=%v", snap, ok)
	}
	// The watermark never moved, so the full log is still readable — the
	// snapshot is a pure gain, never a loss, until Compact commits to it.
	first, _ := re.FirstIndex()
	last, _ := re.LastIndex()
	if first != 1 || last != 80 {
		t.Fatalf("range after crash window [%d, %d], want [1, 80]", first, last)
	}
	// Compaction can resume where the crash interrupted it.
	if err := re.Compact(60); err != nil {
		t.Fatal(err)
	}
	if base, term, _ := re.CompactionBase(); base != 60 || term != 1 {
		t.Fatalf("compaction base = (%d, %d), want (60, 1)", base, term)
	}
	if _, err := re.Entries(61, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Entries(1, 80); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("err = %v, want ErrCompacted", err)
	}
}

// TestCorruptSnapshotFallsBack corrupts the newest snapshot file: reopen
// must fall back to the previous snapshot and replay the full tail above
// it, losing nothing.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 60)
	if err := s.SaveSnapshot(storage.Snapshot{Index: 30, Term: 1, State: []byte("state@30")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(30); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 61, 90)
	// Second snapshot written but its compaction never ran (crash window).
	if err := s.SaveSnapshot(storage.Snapshot{Index: 80, Term: 1, State: []byte("state@80")}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	snaps := snapshotFiles(t, dir)
	if len(snaps) != 2 {
		t.Fatalf("snapshot files = %v, want 2", snaps)
	}
	// Corrupt the newest (snapshot-…80): flip a byte inside the body.
	raw, err := os.ReadFile(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(snaps[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re := smallSeg(t, dir)
	defer re.Close()
	snap, ok, _ := re.LatestSnapshot()
	if !ok || snap.Index != 30 || !bytes.Equal(snap.State, []byte("state@30")) {
		t.Fatalf("fallback snapshot = %+v, ok=%v, want index 30", snap, ok)
	}
	// Full tail above the fallback must have replayed: nothing lost.
	first, _ := re.FirstIndex()
	last, _ := re.LastIndex()
	if first != 31 || last != 90 {
		t.Fatalf("fallback range [%d, %d], want [31, 90]", first, last)
	}
	ents, err := re.Entries(31, 90)
	if err != nil || len(ents) != 60 {
		t.Fatalf("fallback tail: %d ents, %v", len(ents), err)
	}
}

// TestTornSnapshotTmpIgnored leaves a half-written snapshot tmp file (the
// crash-before-rename window): reopen must ignore it entirely.
func TestTornSnapshotTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 20)
	s.Close()
	tmp := filepath.Join(dir, fmt.Sprintf("snapshot-%016d.tmp", 15))
	if err := os.WriteFile(tmp, []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok, _ := re.LatestSnapshot(); ok {
		t.Fatal("torn tmp snapshot adopted")
	}
	last, _ := re.LastIndex()
	if last != 20 {
		t.Fatalf("last = %d, want 20", last)
	}
}

// TestSnapshotPruning keeps exactly the newest two snapshot files.
func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	defer s.Close()
	appendN(t, s, 1, 50)
	for _, idx := range []int64{10, 20, 30, 40} {
		if err := s.SaveSnapshot(storage.Snapshot{Index: idx, Term: 1, State: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	snaps := snapshotFiles(t, dir)
	if len(snaps) != 2 {
		t.Fatalf("snapshot files after pruning = %v, want newest 2", snaps)
	}
	if filepath.Base(snaps[1]) != fmt.Sprintf("snapshot-%016d", 40) {
		t.Fatalf("newest = %s", snaps[1])
	}
}

// TestCompactedOverwriteNotResurrected: entries 51..66 are erased by an
// overwrite at 50, then compaction reaches 50. The erased records still
// sit in a segment that survives (its maxIndex is 66), so the overwrite's
// own segment must survive with it and replay must honour it even though
// its index is now at the compaction base — otherwise a restart brings
// 51..66 back. (Found by TestFilePowerLoss.)
func TestCompactedOverwriteNotResurrected(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 66)
	over := entry(50, 2, "over")
	over.Cmd.Value = make([]byte, 1200) // fills its segment: sealed at once
	if err := s.Append([]protocol.Entry{over}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(storage.Snapshot{Index: 50, Term: 2, State: []byte("state@50")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(50); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := smallSeg(t, dir)
	defer re.Close()
	first, _ := re.FirstIndex()
	last, _ := re.LastIndex()
	if first != 51 || last != 50 {
		t.Fatalf("recovered range [%d, %d], want the empty [51, 50]", first, last)
	}
}

// TestLostWatermarkFallsBackToSnapshot deletes the compact watermark file
// after a compaction: reopen must adopt the snapshot (which verifiably
// covers the deleted prefix) as the base instead of losing the tail — and
// must adopt the snapshot's exact index and term, not guess from the
// oldest surviving record.
func TestLostWatermarkFallsBackToSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 120)
	if err := s.SaveSnapshot(storage.Snapshot{Index: 100, Term: 1, State: []byte("state@100")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(80); err != nil { // margin: watermark behind snapshot
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, "compact")); err != nil {
		t.Fatal(err)
	}

	re := smallSeg(t, dir)
	defer re.Close()
	base, term, _ := re.CompactionBase()
	if base != 100 || term != 1 {
		t.Fatalf("adopted base = (%d, %d), want snapshot boundary (100, 1)", base, term)
	}
	first, _ := re.FirstIndex()
	last, _ := re.LastIndex()
	if first != 101 || last != 120 {
		t.Fatalf("range [%d, %d], want [101, 120]", first, last)
	}
	ents, err := re.Entries(101, 120)
	if err != nil || len(ents) != 20 {
		t.Fatalf("tail: %d, %v", len(ents), err)
	}
}

// TestMemSnapshotCompact mirrors the file-store compaction contract on the
// in-memory store so driver tests can exercise it without disk.
func TestMemSnapshotCompact(t *testing.T) {
	m := storage.NewMem()
	appendN(t, m, 1, 10)
	if err := m.SaveSnapshot(storage.Snapshot{Index: 6, Term: 1, State: []byte("s")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Compact(6); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Entries(5, 8); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("err = %v, want ErrCompacted", err)
	}
	first, _ := m.FirstIndex()
	last, _ := m.LastIndex()
	if first != 7 || last != 10 {
		t.Fatalf("range [%d, %d], want [7, 10]", first, last)
	}
	ents, err := m.Entries(7, 10)
	if err != nil || len(ents) != 4 {
		t.Fatalf("tail: %d, %v", len(ents), err)
	}
	// Appends continue above the compaction in global index space.
	appendN(t, m, 11, 12)
	if last, _ = m.LastIndex(); last != 12 {
		t.Fatalf("last = %d, want 12", last)
	}
}

// TestInstallSnapshotBeyondLog adopts a received snapshot whose index lies
// far past the stored log — the wiped/stranded-replica case Compact can
// never express — and checks the base jumps, appends resume at the
// boundary, dead segments are deleted, and a reopen recovers everything.
func TestInstallSnapshotBeyondLog(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	appendN(t, s, 1, 30)

	state := []byte("received-image")
	if err := s.InstallSnapshot(storage.Snapshot{Index: 500, Term: 7, State: state}); err != nil {
		t.Fatal(err)
	}
	if first, _ := s.FirstIndex(); first != 501 {
		t.Fatalf("FirstIndex = %d, want 501", first)
	}
	if last, _ := s.LastIndex(); last != 500 {
		t.Fatalf("LastIndex = %d, want 500", last)
	}
	if base, term, _ := s.CompactionBase(); base != 500 || term != 7 {
		t.Fatalf("base = %d/%d, want 500/7", base, term)
	}
	if _, err := s.Entries(1, 30); !errors.Is(err, storage.ErrCompacted) {
		t.Fatalf("old entries err = %v, want ErrCompacted", err)
	}
	if len(segmentFiles(t, dir)) != 1 {
		t.Fatalf("sealed segments not deleted: %v", segmentFiles(t, dir))
	}
	// Replication resumes from the boundary.
	if err := s.Append([]protocol.Entry{entry(501, 7, "after")}); err != nil {
		t.Fatalf("append above boundary: %v", err)
	}
	// A gapped append below or above stays invalid.
	if err := s.Append([]protocol.Entry{entry(600, 7, "gap")}); err == nil {
		t.Fatal("gapped append accepted")
	}
	s.Close()

	re, err := storage.OpenFileWith(dir, storage.Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	snap, ok, _ := re.LatestSnapshot()
	if !ok || snap.Index != 500 || !bytes.Equal(snap.State, state) {
		t.Fatalf("reopened snapshot = %+v ok=%v", snap, ok)
	}
	if base, term, _ := re.CompactionBase(); base != 500 || term != 7 {
		t.Fatalf("reopened base = %d/%d", base, term)
	}
	ents, err := re.Entries(501, 501)
	if err != nil || ents[0].Cmd.Key != "after" {
		t.Fatalf("tail above installed snapshot lost: %v %v", ents, err)
	}
}

// TestInstallSnapshotKeepsSuffix installs an image that lands inside the
// stored log: entries above the boundary survive.
func TestInstallSnapshotKeepsSuffix(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	defer s.Close()
	appendN(t, s, 1, 30)
	if err := s.InstallSnapshot(storage.Snapshot{Index: 20, Term: 1, State: []byte("img")}); err != nil {
		t.Fatal(err)
	}
	if first, _ := s.FirstIndex(); first != 21 {
		t.Fatalf("FirstIndex = %d, want 21", first)
	}
	ents, err := s.Entries(21, 30)
	if err != nil || len(ents) != 10 || ents[0].Cmd.Key != "key-21" {
		t.Fatalf("suffix lost: %d ents, err %v", len(ents), err)
	}
}

// TestInstallSnapshotPrunesObsolete: images made obsolete by an installed
// (received) snapshot are deleted exactly like locally-taken ones, so
// install-heavy nodes keep the newest-two retention invariant.
func TestInstallSnapshotPrunesObsolete(t *testing.T) {
	dir := t.TempDir()
	s := smallSeg(t, dir)
	defer s.Close()
	appendN(t, s, 1, 20)
	for _, idx := range []int64{5, 10, 15} {
		if err := s.SaveSnapshot(storage.Snapshot{Index: idx, Term: 1, State: []byte("local")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InstallSnapshot(storage.Snapshot{Index: 900, Term: 3, State: []byte("wire")}); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotFiles(t, dir)
	if len(snaps) != 2 {
		t.Fatalf("snapshot files after install = %v, want newest 2", snaps)
	}
	if filepath.Base(snaps[1]) != fmt.Sprintf("snapshot-%016d", 900) {
		t.Fatalf("newest = %s", snaps[1])
	}
	// A regressing install is refused, matching SaveSnapshot.
	if err := s.InstallSnapshot(storage.Snapshot{Index: 100, Term: 3, State: []byte("old")}); err == nil {
		t.Fatal("regressing install accepted")
	}
}

// TestMemInstallSnapshot gives the in-memory store the same semantics.
func TestMemInstallSnapshot(t *testing.T) {
	m := storage.NewMem()
	appendN(t, m, 1, 10)
	if err := m.InstallSnapshot(storage.Snapshot{Index: 50, Term: 2, State: []byte("img")}); err != nil {
		t.Fatal(err)
	}
	if first, _ := m.FirstIndex(); first != 51 {
		t.Fatalf("FirstIndex = %d, want 51", first)
	}
	if base, term, _ := m.CompactionBase(); base != 50 || term != 2 {
		t.Fatalf("base = %d/%d", base, term)
	}
	snap, ok, _ := m.LatestSnapshot()
	if !ok || snap.Index != 50 {
		t.Fatalf("snapshot = %+v ok=%v", snap, ok)
	}
	if err := m.Append([]protocol.Entry{entry(51, 2, "after")}); err != nil {
		t.Fatalf("append above boundary: %v", err)
	}
	// Mid-log install keeps the suffix.
	if err := m.InstallSnapshot(storage.Snapshot{Index: 50, Term: 2, State: []byte("img")}); err != nil {
		t.Fatal(err)
	}
	if last, _ := m.LastIndex(); last != 51 {
		t.Fatalf("suffix lost: last = %d, want 51", last)
	}
}
