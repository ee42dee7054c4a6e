package protocol

// Log is a base-offset in-memory log: a contiguous run of entries whose
// compacted prefix has been dropped while every index stays in global
// log-index space. Engines embed it so their memory footprint tracks the
// uncompacted tail (everything above the latest snapshot) instead of all
// history, and so index arithmetic lives in exactly one place.
//
// Invariants: the entry at global index i (FirstIndex() <= i <=
// LastIndex()) is ents[i-base-1]; entries below or at base are gone and
// summarized by baseTerm, the term of the entry at index base (the
// snapshot's last included term).
//
// A log grown by Put is persisted by Emit, which restates it to a store
// whose append truncates the suffix above the first index it writes; low
// and emitted are what Emit needs to know for that.
type Log struct {
	base     int64
	baseTerm uint64
	ents     []Entry
	// low is the lowest index Put since the last Emit (0: none), and
	// emitted the LastIndex the store holds since then.
	low, emitted int64
}

// Base returns the compacted-prefix watermark: every entry at or below it
// has been dropped.
func (l *Log) Base() int64 { return l.base }

// FirstIndex returns the lowest index still held (base+1). On an empty,
// never-compacted log it is 1 even though no entry exists yet.
func (l *Log) FirstIndex() int64 { return l.base + 1 }

// LastIndex returns the highest index held (base when the tail is empty,
// 0 for an empty never-compacted log).
func (l *Log) LastIndex() int64 { return l.base + int64(len(l.ents)) }

// Len returns the number of entries held in memory (the uncompacted tail).
func (l *Log) Len() int { return len(l.ents) }

// At returns the entry at global index i, false when i is outside
// [FirstIndex, LastIndex] (compacted or not yet appended).
func (l *Log) At(i int64) (Entry, bool) {
	if i <= l.base || i > l.LastIndex() {
		return Entry{}, false
	}
	return l.ents[i-l.base-1], true
}

// TermAt returns the term of the entry at global index i. For i == base it
// answers from the compaction summary (baseTerm); outside the known range
// it returns 0, matching the pre-compaction convention for index 0.
func (l *Log) TermAt(i int64) uint64 {
	if i == l.base {
		return l.baseTerm
	}
	if ent, ok := l.At(i); ok {
		return ent.Term
	}
	return 0
}

// Append adds e at LastIndex+1. The caller owns index assignment; Append
// trusts e.Index when it equals LastIndex()+1 and panics otherwise, because
// a gapped engine log is a protocol bug, not a recoverable condition.
func (l *Log) Append(e Entry) {
	if e.Index != l.LastIndex()+1 {
		panic("protocol: log append gap")
	}
	l.ents = append(l.ents, e)
}

// Set overwrites the entry at global index i, which must be held.
func (l *Log) Set(i int64, e Entry) {
	if i <= l.base || i > l.LastIndex() {
		panic("protocol: log set outside held range")
	}
	l.ents[i-l.base-1] = e
}

// Put writes e at e.Index, growing the log up to it with fillers
// (Entry.IsFiller: slots nothing was accepted in yet), which is how a log
// with holes — MultiPaxos's instances, chosen and accepted out of order —
// lives here. An index at or below base is compacted: Put ignores it and
// reports false.
func (l *Log) Put(e Entry) bool {
	if e.Index <= l.base {
		return false
	}
	for l.LastIndex() < e.Index-1 {
		l.ents = append(l.ents, Entry{Index: l.LastIndex() + 1})
	}
	if e.Index > l.LastIndex() {
		l.ents = append(l.ents, e)
	} else {
		l.ents[e.Index-l.base-1] = e
	}
	if l.low == 0 || e.Index < l.low {
		l.low = e.Index
	}
	return true
}

// Emit queues for persistence (Output.AppendedEntries) what Put wrote since
// the last Emit: [min(lowest index written, stored end+1), LastIndex],
// holes as fillers. The range runs through LastIndex because the store's
// append truncates the suffix above the first index it writes, and starts
// no later than the stored end+1 because fillers Put grew past it are new
// to the store too. With nothing written it emits nothing.
func (l *Log) Emit(out *Output) {
	lo := l.emitted + 1
	if l.low != 0 {
		lo = min(lo, l.low)
	}
	if lo = max(lo, l.FirstIndex()); lo <= l.LastIndex() {
		out.AppendedEntries = append(out.AppendedEntries, l.ents[lo-l.base-1:]...)
	}
	l.Synced()
}

// Synced records that the store holds the log as it stands, so the next
// Emit starts above LastIndex: a restart calls it once it has rebuilt the
// log from the store.
func (l *Log) Synced() { l.low, l.emitted = 0, l.LastIndex() }

// TruncateSuffix drops every entry with index > i (Raft's conflicting-
// suffix erase). i below base is clamped to base (nothing held survives).
func (l *Log) TruncateSuffix(i int64) {
	if i >= l.LastIndex() {
		return
	}
	if i < l.base {
		i = l.base
	}
	l.ents = l.ents[:i-l.base]
}

// TruncatePrefix drops every entry with index <= through, recording the
// dropped boundary's term so consistency checks against the compacted
// prefix still answer. through beyond LastIndex is clamped; through at or
// below base is a no-op. The retained tail moves down within the backing
// array, whose capacity the next appends reuse instead of regrowing it.
func (l *Log) TruncatePrefix(through int64) {
	if through <= l.base {
		return
	}
	if through > l.LastIndex() {
		through = l.LastIndex()
	}
	l.baseTerm = l.TermAt(through)
	n := copy(l.ents, l.ents[through-l.base:])
	clear(l.ents[n:])
	l.ents = l.ents[:n]
	l.base = through
}

// Restore primes the log from a snapshot boundary plus a durable tail:
// entries below or at base live in the snapshot; ents (which may be empty,
// and may hold fillers) must start at base+1. Any current content is
// discarded, and the store is taken to hold what is restored (Synced).
func (l *Log) Restore(base int64, baseTerm uint64, ents []Entry) {
	if len(ents) > 0 && ents[0].Index != base+1 {
		panic("protocol: log restore gap")
	}
	l.base = base
	l.baseTerm = baseTerm
	l.ents = append([]Entry(nil), ents...)
	l.Synced()
}

// Slice returns a copy of entries in [lo, hi] (global indexes); the range
// must be held.
func (l *Log) Slice(lo, hi int64) []Entry {
	if lo <= l.base || hi > l.LastIndex() || lo > hi {
		panic("protocol: log slice outside held range")
	}
	return append([]Entry(nil), l.ents[lo-l.base-1:hi-l.base]...)
}

// Tail returns a copy of entries in [lo, LastIndex]; lo above LastIndex
// yields nil.
func (l *Log) Tail(lo int64) []Entry {
	if lo > l.LastIndex() {
		return nil
	}
	return l.Slice(lo, l.LastIndex())
}
