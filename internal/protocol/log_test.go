package protocol

import "testing"

// TestLogWithHoles: Put grows the log with fillers up to the index it
// writes and fills a hole in place; the fillers survive a Restore from the
// log's own tail, as the durable log hands them back; TruncatePrefix moves
// the tail down within the backing array instead of copying it out; and
// Emit's batches, appended to a store that truncates the suffix above the
// first index it writes, keep the store a copy of the log.
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

	var w Log
	var store []Entry
	for _, step := range []struct {
		name     string
		truncate int64
		put      []int64
		lo, hi   int64 // the emitted batch; 0, 0 for none
	}{
		{name: "a put past the end", put: []int64{3}, lo: 1, hi: 3},
		{name: "nothing written", lo: 0, hi: 0},
		{name: "a put below the end", put: []int64{2}, lo: 2, hi: 3},
		{name: "puts past and below the end", put: []int64{5, 1}, lo: 1, hi: 5},
		{name: "a put at or below the base", truncate: 2, put: []int64{2, 1}, lo: 0, hi: 0},
	} {
		w.TruncatePrefix(step.truncate)
		for _, i := range step.put {
			w.Put(Entry{Index: i, Term: 3, Bal: 3, Cmd: cmd(uint64(i))})
		}
		var out Output
		w.Emit(&out)
		var lo, hi, n int64
		if n = int64(len(out.AppendedEntries)); n > 0 {
			lo, hi = out.AppendedEntries[0].Index, out.AppendedEntries[n-1].Index
		}
		if lo != step.lo || hi != step.hi || (n > 0 && n != hi-lo+1) {
			t.Fatalf("%s: emitted %+v, want indexes %d..%d", step.name, out.AppendedEntries, step.lo, step.hi)
		}
		for _, ent := range out.AppendedEntries {
			if ent.Index > int64(len(store))+1 {
				t.Fatalf("%s: the store refuses %d, a gap above %d", step.name, ent.Index, len(store))
			}
			store = append(store[:ent.Index-1], ent)
		}
		if int64(len(store)) != w.LastIndex() {
			t.Fatalf("%s: the store ends at %d, the log at %d", step.name, len(store), w.LastIndex())
		}
		for i := w.FirstIndex(); i <= w.LastIndex(); i++ {
			if ent, _ := w.At(i); store[i-1].Index != i || store[i-1].Bal != ent.Bal || store[i-1].Cmd.ID != ent.Cmd.ID {
				t.Fatalf("%s: the store holds %+v at %d, the log %+v", step.name, store[i-1], i, ent)
			}
		}
	}
}
