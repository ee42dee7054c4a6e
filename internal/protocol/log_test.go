package protocol

import "testing"

// TestLogWithHoles: Put grows the log with fillers up to the index it
// writes and fills a hole in place; the fillers survive a Restore from the
// log's own tail, as the durable log hands them back; TruncatePrefix moves
// the tail down within the backing array instead of copying it out.
func TestLogWithHoles(t *testing.T) {
	var l Log
	cmd := func(id uint64) Command { return Command{ID: id, Op: OpPut, Key: "k"} }
	if !l.Put(Entry{Index: 4, Term: 3, Bal: 3, Cmd: cmd(4)}) {
		t.Fatal("Put above the base was refused")
	}
	if l.LastIndex() != 4 {
		t.Fatalf("LastIndex %d after a Put at 4, want 4", l.LastIndex())
	}
	for i := int64(1); i <= 3; i++ {
		if ent, ok := l.At(i); !ok || !ent.IsFiller() || ent.Index != i {
			t.Fatalf("index %d = %+v, %v; want a filler", i, ent, ok)
		}
	}
	l.Put(Entry{Index: 2, Term: 3, Bal: 3, Cmd: cmd(2)})
	if ent, _ := l.At(2); ent.Cmd.ID != 2 || l.LastIndex() != 4 {
		t.Fatalf("filling hole 2 gave %+v and LastIndex %d", ent, l.LastIndex())
	}

	var r Log
	r.Restore(0, 0, l.Tail(1))
	for i, filler := range map[int64]bool{1: true, 2: false, 3: true, 4: false} {
		if ent, ok := r.At(i); !ok || ent.IsFiller() != filler {
			t.Fatalf("restored index %d = %+v, %v; filler want %v", i, ent, ok, filler)
		}
	}

	for i := int64(5); i <= 8; i++ {
		r.Put(Entry{Index: i, Term: 3, Bal: 3, Cmd: cmd(uint64(i))})
	}
	array := &r.ents[:cap(r.ents)][0]
	r.TruncatePrefix(5)
	if r.Base() != 5 || r.Len() != 3 || &r.ents[:cap(r.ents)][0] != array {
		t.Fatalf("TruncatePrefix(5): base %d, %d held, same array %v; want 5, 3, true", r.Base(), r.Len(), &r.ents[:cap(r.ents)][0] == array)
	}
	if ent, _ := r.At(6); ent.Cmd.ID != 6 {
		t.Fatalf("index 6 after truncation = %+v", ent)
	}
	if r.Put(Entry{Index: 5, Term: 3, Bal: 3, Cmd: cmd(5)}) {
		t.Fatal("Put at the compaction base was accepted")
	}
}
