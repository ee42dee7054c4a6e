package kvstore_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/protocol"
)

func TestApplyAndGet(t *testing.T) {
	s := kvstore.New()
	s.Apply(protocol.Entry{Index: 1, Cmd: protocol.Command{Op: protocol.OpPut, Key: "a", Value: []byte("1")}})
	s.Apply(protocol.Entry{Index: 2, Cmd: protocol.Command{Op: protocol.OpPut, Key: "b", Value: []byte("2")}})
	s.Apply(protocol.Entry{Index: 3, Cmd: protocol.Command{Op: protocol.OpPut, Key: "a", Value: []byte("3")}})

	v, ok := s.Get("a")
	if !ok || string(v) != "3" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	vv, ok := s.GetVersioned("a")
	if !ok || vv.Index != 3 {
		t.Fatalf("versioned a = %+v", vv)
	}
	if s.AppliedIndex() != 3 {
		t.Fatalf("applied = %d", s.AppliedIndex())
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestNopsAdvanceAppliedOnly(t *testing.T) {
	s := kvstore.New()
	s.Apply(protocol.Entry{Index: 1, Cmd: protocol.Command{Op: protocol.OpNop}})
	s.Apply(protocol.Entry{Index: 2, Cmd: protocol.Command{Op: protocol.OpGet, Key: "x"}})
	if s.AppliedIndex() != 2 || s.Len() != 0 {
		t.Fatalf("applied=%d len=%d", s.AppliedIndex(), s.Len())
	}
}

// TestSnapshotRestoreRoundTrip serializes an applied state and rebuilds an
// identical store from it — the state-machine half of log compaction.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := kvstore.New()
	for i := int64(1); i <= 50; i++ {
		s.Apply(protocol.Entry{Index: i, Cmd: protocol.Command{
			Op: protocol.OpPut, Key: fmt.Sprintf("k%d", i%7), Value: []byte(fmt.Sprintf("v%d", i)),
		}})
	}
	s.Apply(protocol.Entry{Index: 51, Cmd: protocol.Command{Op: protocol.OpNop}})
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	re := kvstore.New()
	if err := re.Restore(img); err != nil {
		t.Fatal(err)
	}
	if re.AppliedIndex() != 51 {
		t.Fatalf("restored applied = %d, want 51", re.AppliedIndex())
	}
	if re.Len() != s.Len() {
		t.Fatalf("restored len = %d, want %d", re.Len(), s.Len())
	}
	for i := 0; i < 7; i++ {
		k := fmt.Sprintf("k%d", i)
		want, wok := s.GetVersioned(k)
		got, gok := re.GetVersioned(k)
		if wok != gok || got.Index != want.Index || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("key %s: restored %+v, want %+v", k, got, want)
		}
	}
	// Restore replaces, not merges: pre-existing junk must vanish.
	dirty := kvstore.New()
	dirty.Apply(protocol.Entry{Index: 1, Cmd: protocol.Command{Op: protocol.OpPut, Key: "junk", Value: []byte("x")}})
	if err := dirty.Restore(img); err != nil {
		t.Fatal(err)
	}
	if _, ok := dirty.Get("junk"); ok {
		t.Fatal("Restore merged instead of replacing")
	}
}

// TestSnapshotDeterministic asserts two snapshots of identical state are
// byte-identical (map iteration order must not leak into the image).
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *kvstore.Store {
		s := kvstore.New()
		for i := int64(1); i <= 100; i++ {
			s.Apply(protocol.Entry{Index: i, Cmd: protocol.Command{
				Op: protocol.OpPut, Key: fmt.Sprintf("key-%d", i), Value: []byte("v"),
			}})
		}
		return s
	}
	a, err := build().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("snapshots of identical state differ")
	}
}

// TestApplyOncePerCommandID is the shape the fast write path leaves in a
// log when election recovery adopts a speculative copy of a command chosen
// two slots earlier (multipaxos-fast seed 30061: 42, 43, 44): X, Y, X. The
// second X must not undo Y, on a replica that applied all three and on one
// restored from an image taken between them alike.
func TestApplyOncePerCommandID(t *testing.T) {
	put := func(idx int64, id uint64, val string) protocol.Entry {
		return protocol.Entry{Index: idx, Cmd: protocol.Command{ID: id, Op: protocol.OpPut, Key: "k3", Value: []byte(val)}}
	}
	s := kvstore.New()
	s.Apply(put(42, 19, "c0-19"))
	s.Apply(put(43, 25, "c2-25"))
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := kvstore.New()
	if err := restored.Restore(img); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*kvstore.Store{"applied": s, "restored": restored} {
		st.Apply(put(44, 19, "c0-19"))
		if v, _ := st.GetVersioned("k3"); string(v.Value) != "c2-25" || v.Index != 43 {
			t.Fatalf("%s: k3 = %q written at %d after X, Y, X; want Y (c2-25 at 43) to stand", name, v.Value, v.Index)
		}
		if st.AppliedIndex() != 44 || st.Skipped() != 1 {
			t.Fatalf("%s: applied %d skipped %d, want 44 and 1", name, st.AppliedIndex(), st.Skipped())
		}
	}
	a, _ := s.Snapshot()
	b, _ := restored.Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("a restored replica's image differs from the image of the replica that applied everything")
	}
	// Commands without an ID are not deduplicated.
	s.Apply(protocol.Entry{Index: 45, Cmd: protocol.Command{Op: protocol.OpPut, Key: "k3", Value: []byte("a")}})
	s.Apply(protocol.Entry{Index: 46, Cmd: protocol.Command{Op: protocol.OpPut, Key: "k3", Value: []byte("b")}})
	if v, _ := s.Get("k3"); string(v) != "b" {
		t.Fatalf("k3 = %q, want b: puts with ID 0 must all apply", v)
	}
}

// TestDedupWindowSlides: the window is the last 4096 puts, in the image as
// in memory — an ID older than that applies again.
func TestDedupWindowSlides(t *testing.T) {
	s := kvstore.New()
	for i := int64(1); i <= 5000; i++ {
		s.Apply(protocol.Entry{Index: i, Cmd: protocol.Command{ID: uint64(i), Op: protocol.OpPut, Key: "k", Value: []byte("v")}})
	}
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	re := kvstore.New()
	if err := re.Restore(img); err != nil {
		t.Fatal(err)
	}
	for _, st := range []*kvstore.Store{s, re} {
		st.Apply(protocol.Entry{Index: 5001, Cmd: protocol.Command{ID: 5000 - 4095, Op: protocol.OpPut, Key: "k", Value: []byte("in")}})
		st.Apply(protocol.Entry{Index: 5002, Cmd: protocol.Command{ID: 5000 - 4096, Op: protocol.OpPut, Key: "k", Value: []byte("out")}})
		if v, _ := st.Get("k"); string(v) != "out" || st.Skipped() != 1 {
			t.Fatalf("k = %q skipped %d; want the ID inside the window skipped and the one outside applied", v, st.Skipped())
		}
	}
}

// TestRestoreRefusesVersion1: images written before the applied-ID window
// existed cannot say what to skip.
func TestRestoreRefusesVersion1(t *testing.T) {
	v1 := append([]byte{1}, make([]byte, 12)...) // version 1, applied 0, no keys
	if err := kvstore.New().Restore(v1); err == nil {
		t.Fatal("version 1 image accepted")
	}
}

// TestRestoreRejectsGarbage must fail cleanly, never panic or half-apply.
func TestRestoreRejectsGarbage(t *testing.T) {
	s := kvstore.New()
	s.Apply(protocol.Entry{Index: 1, Cmd: protocol.Command{Op: protocol.OpPut, Key: "keep", Value: []byte("v")}})
	for _, bad := range [][]byte{nil, {0}, {99, 0, 0, 0, 0, 0, 0, 0, 0}, []byte("garbage-garbage")} {
		if err := s.Restore(bad); err == nil {
			t.Fatalf("garbage %v accepted", bad)
		}
	}
	if _, ok := s.Get("keep"); !ok {
		t.Fatal("failed restore clobbered state")
	}
}

func TestConcurrentReaders(t *testing.T) {
	s := kvstore.New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Get("k")
				s.AppliedIndex()
			}
		}()
	}
	for i := int64(1); i <= 1000; i++ {
		s.Apply(protocol.Entry{Index: i, Cmd: protocol.Command{Op: protocol.OpPut, Key: "k", Value: []byte("v")}})
	}
	wg.Wait()
	if s.AppliedIndex() != 1000 {
		t.Fatalf("applied = %d", s.AppliedIndex())
	}
}
