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
type Log struct {
	base     int64
	baseTerm uint64
	ents     []Entry
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
// entries below or at base live in the snapshot; ents (which may be empty)
// must start at base+1. Any current content is discarded.
func (l *Log) Restore(base int64, baseTerm uint64, ents []Entry) {
	if len(ents) > 0 && ents[0].Index != base+1 {
		panic("protocol: log restore gap")
	}
	l.base = base
	l.baseTerm = baseTerm
	l.ents = append([]Entry(nil), ents...)
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
