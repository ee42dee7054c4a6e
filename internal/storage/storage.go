// Package storage provides the durable state consensus replicas require:
// a stable store for the (term, votedFor, commit) triple, an
// append-optimized log store, and a snapshot store that bounds both, with
// in-memory and file-backed implementations.
//
// The file backend writes a segmented WAL — length-and-checksum-framed
// entry records in preallocated, zero-filled segment files rotated at a
// byte threshold — and group-commits each Append batch with a single
// buffered flush + fdatasync; because the bytes land in extents that are
// already written, a steady-state sync changes no filesystem metadata. The
// log ends at the first frame that is empty, fails its checksum or
// overruns the file. Snapshots are CRC-framed files written atomically
// (tmp + rename + directory fsync); Compact deletes whole WAL segments
// whose records all fall at or below the snapshot, so disk usage tracks the
// uncompacted tail instead of all history and restart replays only that
// tail.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/wire"
)

// HardState is the durable per-replica consensus state.
type HardState struct {
	Term     uint64
	VotedFor protocol.NodeID
	Commit   int64
}

// Snapshot is a serialized state-machine image with the log position it
// covers: every entry at or below Index is reflected in State.
type Snapshot struct {
	Index int64
	Term  uint64
	State []byte
}

// Store is the persistence contract engines' drivers rely on.
type Store interface {
	// SaveHardState durably records term/vote/commit.
	SaveHardState(hs HardState) error
	// HardState returns the last saved hard state. A fresh store reports
	// the zero hard state with a nil error; a non-nil error means durably
	// recorded state exists but cannot be read — drivers must refuse to
	// start on it rather than come up with a blank term/vote and risk
	// double voting.
	HardState() (HardState, error)
	// Append adds entries at the end of the log. An entry at an index
	// already stored overwrites it and truncates everything after it (the
	// rest of the batch then rebuilds the suffix): engines emit a
	// conflicting overwrite restated through their last index, so the
	// stored log always mirrors the in-memory one — Raft's conflicting-
	// suffix erase is the case where the restated suffix is shorter.
	Append(entries []protocol.Entry) error
	// Entries returns entries in [lo, hi]. Reads below FirstIndex return
	// ErrCompacted; reads above LastIndex return ErrOutOfRange.
	Entries(lo, hi int64) ([]protocol.Entry, error)
	// FirstIndex returns the lowest readable index (1 on a fresh store;
	// snapshot index + 1 after compaction).
	FirstIndex() (int64, error)
	// LastIndex returns the last stored index (0 when empty; the snapshot
	// index when everything is compacted).
	LastIndex() (int64, error)
	// Close releases resources.
	Close() error
}

// SnapshotStore is the optional compaction extension of Store: drivers
// that snapshot their state machine persist the image here and then drop
// the covered log prefix.
type SnapshotStore interface {
	// SaveSnapshot durably records a state-machine image atomically. The
	// previous snapshot is retained until the next save so recovery can
	// fall back past a torn write.
	SaveSnapshot(snap Snapshot) error
	// LatestSnapshot returns the newest valid snapshot, if any.
	LatestSnapshot() (Snapshot, bool, error)
	// Compact drops log storage for entries at or below through. The
	// caller must have saved a snapshot covering through first. Callers
	// normally compact some margin behind the snapshot so recovery and
	// peer catch-up retain a tail of individually readable entries.
	Compact(through int64) error
	// CompactionBase returns the current compaction watermark: the index
	// of the last dropped entry and its term (0, 0 before any compaction).
	// FirstIndex == base + 1.
	CompactionBase() (index int64, term uint64, err error)
	// InstallSnapshot atomically adopts a snapshot received from a peer
	// (wire transfer): it persists the image like SaveSnapshot — including
	// pruning snapshot files the received image makes obsolete — and then
	// advances the compaction base to the image's index even when that is
	// beyond the last stored entry, dropping every entry the image covers.
	// Unlike Compact, the new base needs no locally stored entry at it:
	// the received image is the durable record of that prefix.
	InstallSnapshot(snap Snapshot) error
}

// DeferredSync is an optional Store extension for drivers that group
// commit across event-loop iterations: AppendBuffered stages entries in
// the log's write path without forcing them to disk, and Sync makes
// everything staged durable with one fsync. A driver may buffer appends
// exactly while nothing observable depends on them — the moment an ack, a
// client reply, or a commit that counts the local copy toward a quorum is
// about to be released, it must Sync first. Reads (Entries/LastIndex)
// see buffered entries immediately; a crash before Sync loses them, which
// is indistinguishable from crashing before the append.
type DeferredSync interface {
	// AppendBuffered is Append minus the durability barrier.
	AppendBuffered(entries []protocol.Entry) error
	// Sync makes every buffered append durable (no-op when clean).
	Sync() error
}

// GroupSync is an optional Store extension for drivers that pipeline
// persistence off their event loop: SyncBatch is the combined
// entry+hardstate flush of one pipeline window. It makes every append
// staged by AppendBuffered durable (no-op when the log is clean) and,
// when save is set, durably rewrites the hard state afterwards — the
// barrier order (entries first, then hard state) under a single lock
// acquisition, so a persister goroutine retires a whole window of staged
// rounds with one call.
type GroupSync interface {
	DeferredSync
	// SyncBatch flushes buffered entries and, when save is set, persists
	// hs, in that order.
	SyncBatch(hs HardState, save bool) error
}

// ErrOutOfRange is returned for reads beyond the stored log.
var ErrOutOfRange = errors.New("storage: index out of range")

// ErrCompacted is returned for reads below FirstIndex: those entries were
// folded into a snapshot and are no longer individually readable.
var ErrCompacted = errors.New("storage: index compacted into snapshot")

// --- In-memory implementation ---

// Mem is the in-memory Store (and SnapshotStore, for driver tests that
// exercise compaction without touching disk).
type Mem struct {
	mu       sync.Mutex
	hs       HardState
	base     int64            // entries <= base are compacted into snap
	baseTerm uint64           // term of the entry at base
	log      []protocol.Entry // log[i] has Index base+i+1
	snap     Snapshot
	has      bool
}

var (
	_ Store         = (*Mem)(nil)
	_ SnapshotStore = (*Mem)(nil)
)

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{} }

// SaveHardState implements Store.
func (m *Mem) SaveHardState(hs HardState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hs = hs
	return nil
}

// HardState implements Store.
func (m *Mem) HardState() (HardState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hs, nil
}

// Append implements Store.
func (m *Mem) Append(entries []protocol.Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range entries {
		rel := e.Index - m.base
		switch {
		case e.Index <= 0:
			return fmt.Errorf("storage: bad index %d", e.Index)
		case rel <= 0:
			return fmt.Errorf("storage: append at %d below compaction %d: %w", e.Index, m.base, ErrCompacted)
		case rel <= int64(len(m.log)):
			// Overwrite truncates the suffix (matching the file backend):
			// the batch restates whatever survives above the overwrite, so
			// a stale suffix the new entries do not cover is erased rather
			// than resurrected on restart.
			m.log[rel-1] = e
			m.log = m.log[:rel]
		case rel == int64(len(m.log))+1:
			m.log = append(m.log, e)
		default:
			return fmt.Errorf("storage: gap at index %d (last %d)", e.Index, m.base+int64(len(m.log)))
		}
	}
	return nil
}

// Truncate drops all entries after index (global index space).
func (m *Mem) Truncate(index int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if index < m.base || index > m.base+int64(len(m.log)) {
		return ErrOutOfRange
	}
	m.log = m.log[:index-m.base]
	return nil
}

// Entries implements Store.
func (m *Mem) Entries(lo, hi int64) ([]protocol.Entry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lo <= m.base && m.base > 0 {
		return nil, ErrCompacted
	}
	if lo < 1 || hi > m.base+int64(len(m.log)) || lo > hi {
		return nil, ErrOutOfRange
	}
	out := make([]protocol.Entry, hi-lo+1)
	copy(out, m.log[lo-m.base-1:hi-m.base])
	return out, nil
}

// FirstIndex implements Store.
func (m *Mem) FirstIndex() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base + 1, nil
}

// LastIndex implements Store.
func (m *Mem) LastIndex() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base + int64(len(m.log)), nil
}

// SaveSnapshot implements SnapshotStore.
func (m *Mem) SaveSnapshot(snap Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.has && snap.Index < m.snap.Index {
		return fmt.Errorf("storage: snapshot regresses %d -> %d", m.snap.Index, snap.Index)
	}
	snap.State = append([]byte(nil), snap.State...)
	m.snap = snap
	m.has = true
	return nil
}

// LatestSnapshot implements SnapshotStore.
func (m *Mem) LatestSnapshot() (Snapshot, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snap, m.has, nil
}

// Compact implements SnapshotStore.
func (m *Mem) Compact(through int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if last := m.base + int64(len(m.log)); through > last {
		through = last
	}
	if through <= m.base {
		return nil
	}
	m.compactToLocked(through, m.log[through-m.base-1].Term)
	return nil
}

// compactToLocked is the shared tail of Compact and InstallSnapshot:
// trim the log to whatever survives above base (nothing when base jumped
// past the log end) and adopt the new watermark. The caller has verified
// base > m.base.
func (m *Mem) compactToLocked(base int64, term uint64) {
	if last := m.base + int64(len(m.log)); base < last {
		m.log = append([]protocol.Entry(nil), m.log[base-m.base:]...)
	} else {
		m.log = nil
	}
	m.base = base
	m.baseTerm = term
}

// CompactionBase implements SnapshotStore.
func (m *Mem) CompactionBase() (int64, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base, m.baseTerm, nil
}

// InstallSnapshot implements SnapshotStore.
func (m *Mem) InstallSnapshot(snap Snapshot) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.has && snap.Index < m.snap.Index {
		return fmt.Errorf("storage: snapshot regresses %d -> %d", m.snap.Index, snap.Index)
	}
	m.snap = Snapshot{Index: snap.Index, Term: snap.Term, State: append([]byte(nil), snap.State...)}
	m.has = true
	if snap.Index <= m.base {
		return nil
	}
	m.compactToLocked(snap.Index, snap.Term)
	return nil
}

// Close implements Store.
func (m *Mem) Close() error { return nil }

// --- File-backed implementation ---

// DefaultSegmentBytes is the WAL rotation threshold when Options leaves it
// zero.
const DefaultSegmentBytes = 8 << 20

// Options tunes the file-backed store.
type Options struct {
	// SegmentBytes rotates the active WAL segment once it exceeds this
	// many bytes (0 = DefaultSegmentBytes). Compaction deletes whole
	// segments, so a smaller threshold reclaims space at a finer grain for
	// more files. Segments are preallocated at this length plus an eighth,
	// the slack absorbing the batch that crosses the threshold.
	SegmentBytes int64
}

// segment is one on-disk WAL file.
type segment struct {
	seq  uint64
	path string
	// maxIndex is the highest entry index recorded in the segment: the
	// whole file is dead once a snapshot covers it.
	maxIndex int64
	// size is the logical length — the offset after the last good frame —
	// not the preallocated file length.
	size int64
}

// prepared is the background preparer's hand-off: the next segment, zero-
// filled and synced under a temp name, or why it could not be made.
type prepared struct {
	file *os.File
	err  error
}

// File is the file-backed Store: a hard-state file rewritten atomically, a
// segmented WAL of framed, checksummed entry records, and atomically
// written snapshot files. Appends are group committed: a whole batch is
// staged through one buffered writer and made durable with a single
// fdatasync, so the per-entry sync cost amortizes across however many
// entries the driver drained into the batch. Compact deletes whole segments
// below the latest snapshot, keeping disk usage proportional to the tail.
type File struct {
	mu      sync.Mutex
	dir     string
	segSize int64

	segs     []segment // sealed + active, ascending seq; last is active
	wal      *os.File  // active segment
	w        *bufio.Writer
	dirty    bool // buffered appends staged since the last sync
	hs       HardState
	base     int64            // compaction watermark: entries <= base are dropped
	baseTerm uint64           // term of the entry at base
	cached   []protocol.Entry // cached[i] has Index base+i+1
	snap     Snapshot
	hasSnap  bool
	scratch  []byte // per-Append frame-encoding buffer, reused (under mu)

	// next carries the one segment the background preparer keeps ready;
	// rotation takes it and starts the next preparation. Buffered for the
	// preparer's single send, so an abandoned store leaks no goroutine.
	next chan prepared
	stop chan struct{} // closed by Close: an in-flight preparation gives up

	syncs     atomic.Uint64
	appends   atomic.Uint64
	entriesUp atomic.Uint64
	segWait   atomic.Int64
}

var (
	_ Store         = (*File)(nil)
	_ SnapshotStore = (*File)(nil)
)

const (
	hsFile     = "hardstate"
	cmpFile    = "compact" // compaction watermark: base index + base term
	segPrefix  = "wal-"
	prepGlob   = "prealloc-*.tmp" // a segment being prepared, renamed in at rotation
	snapPrefix = "snapshot-"
	// keepSnapshots is how many snapshot files survive a save: the newest
	// plus one fallback, so a crash that tears the newest mid-write still
	// recovers from the previous image plus a longer tail replay.
	keepSnapshots = 2
)

func segName(seq uint64) string { return fmt.Sprintf("%s%016d", segPrefix, seq) }
func snapName(idx int64) string { return fmt.Sprintf("%s%016d", snapPrefix, idx) }

// syncDir fsyncs a directory so recent creates/renames/deletes in it
// survive power loss (file-content fsync alone does not pin the dirent).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OpenFile opens (or creates) a file-backed store in dir with default
// options, loading the latest valid snapshot and replaying the WAL tail
// into memory for reads.
func OpenFile(dir string) (*File, error) {
	return OpenFileWith(dir, Options{})
}

// OpenFileWith is OpenFile with explicit Options.
func OpenFileWith(dir string, opt Options) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: mkdir: %w", err)
	}
	f := &File{dir: dir, segSize: opt.SegmentBytes, next: make(chan prepared, 1), stop: make(chan struct{})}
	if f.segSize <= 0 {
		f.segSize = DefaultSegmentBytes
	}
	if err := f.loadHardState(); err != nil {
		return nil, err
	}
	if err := f.loadCompactionBase(); err != nil {
		return nil, err
	}
	if err := f.loadSnapshot(); err != nil {
		return nil, err
	}
	tailZero, err := f.replay()
	if err != nil {
		return nil, err
	}
	if err := f.openActive(tailZero); err != nil {
		return nil, err
	}
	go f.prepareNext()
	return f, nil
}

func (f *File) loadHardState() error {
	raw, err := os.ReadFile(filepath.Join(f.dir, hsFile))
	if errors.Is(err, os.ErrNotExist) {
		f.hs = HardState{VotedFor: protocol.None}
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read hardstate: %w", err)
	}
	if len(raw) != 24 {
		return fmt.Errorf("storage: hardstate is %d bytes, want 24", len(raw))
	}
	f.hs.Term = binary.BigEndian.Uint64(raw[0:8])
	f.hs.VotedFor = protocol.NodeID(int64(binary.BigEndian.Uint64(raw[8:16])))
	f.hs.Commit = int64(binary.BigEndian.Uint64(raw[16:24]))
	return nil
}

// SaveHardState implements Store: staged in a tmp file, fsynced, renamed
// into place, directory fsynced. The fsyncs are what make the persist-
// before-ack barrier real for fencing state — a vote grant released after
// an unsynced rename could still evaporate in a power loss, letting the
// restarted replica double-vote (and a torn, partially written hard-state
// file would block recovery entirely). Callers throttle commit-only
// updates, so this cost lands on election paths, not the append hot path.
func (f *File) SaveHardState(hs HardState) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saveHardStateLocked(hs)
}

func (f *File) saveHardStateLocked(hs HardState) error {
	var buf [24]byte
	binary.BigEndian.PutUint64(buf[0:8], hs.Term)
	binary.BigEndian.PutUint64(buf[8:16], uint64(int64(hs.VotedFor)))
	binary.BigEndian.PutUint64(buf[16:24], uint64(hs.Commit))
	tmp := filepath.Join(f.dir, hsFile+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create hardstate: %w", err)
	}
	if _, err := tf.Write(buf[:]); err != nil {
		tf.Close()
		return fmt.Errorf("storage: write hardstate: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("storage: sync hardstate: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("storage: close hardstate: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, hsFile)); err != nil {
		return fmt.Errorf("storage: rename hardstate: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	f.hs = hs
	return nil
}

// HardState implements Store.
func (f *File) HardState() (HardState, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hs, nil
}

// appendEntryFrame appends one framed entry onto buf: total length,
// CRC32, then the payload in the internal/wire entry layout — the same
// byte sequence the transport ships inside append/accept batches, so the
// system has exactly one entry encoding. The frame (length + checksum) is
// what lets replay detect a torn tail after a crash.
func appendEntryFrame(buf []byte, e *protocol.Entry) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC backpatched below
	buf = wire.AppendEntry(buf, e)
	body := buf[start+8:]
	binary.BigEndian.PutUint32(buf[start:start+4], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[start+4:start+8], crc32.ChecksumIEEE(body))
	return buf
}

func decodeEntry(body []byte) (protocol.Entry, error) {
	r := wire.NewReader(body)
	e := wire.ReadEntry(r)
	if err := r.Done(); err != nil {
		return protocol.Entry{}, fmt.Errorf("storage: bad entry record: %w", err)
	}
	return e, nil
}

// loadCompactionBase reads the persisted compaction watermark; WAL replay
// skips records at or below it (the segments holding them were deleted, or
// are about to be on the next Compact).
func (f *File) loadCompactionBase() error {
	raw, err := os.ReadFile(filepath.Join(f.dir, cmpFile))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read compaction base: %w", err)
	}
	if len(raw) != 20 || crc32.ChecksumIEEE(raw[0:16]) != binary.BigEndian.Uint32(raw[16:20]) {
		// A torn watermark is survivable: fall back to replaying from the
		// oldest retained record (worst case: extra replay work).
		return nil
	}
	f.base = int64(binary.BigEndian.Uint64(raw[0:8]))
	f.baseTerm = binary.BigEndian.Uint64(raw[8:16])
	return nil
}

// saveCompactionBaseLocked durably records the watermark before any
// segment is deleted, so a crash mid-compaction cannot leave records
// missing below an unrecorded base.
func (f *File) saveCompactionBaseLocked(base int64, term uint64) error {
	var buf [20]byte
	binary.BigEndian.PutUint64(buf[0:8], uint64(base))
	binary.BigEndian.PutUint64(buf[8:16], term)
	binary.BigEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(buf[0:16]))
	tmp := filepath.Join(f.dir, cmpFile+".tmp")
	if err := os.WriteFile(tmp, buf[:], 0o644); err != nil {
		return fmt.Errorf("storage: write compaction base: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, cmpFile)); err != nil {
		return fmt.Errorf("storage: rename compaction base: %w", err)
	}
	return syncDir(f.dir)
}

// loadSnapshot picks the newest decodable snapshot file, falling back past
// torn or corrupt ones. The snapshot does not move the log base — that is
// the compaction watermark's job — so entries retained behind the snapshot
// stay readable for recovery margin and peer catch-up.
func (f *File) loadSnapshot() error {
	names, err := filepath.Glob(filepath.Join(f.dir, snapPrefix+"*"))
	if err != nil {
		return fmt.Errorf("storage: list snapshots: %w", err)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names))) // zero-padded: newest first
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			continue // torn save that never reached its rename
		}
		snap, err := readSnapshotFile(name)
		if err != nil {
			continue // torn or corrupt: fall back to the previous one
		}
		f.snap = snap
		f.hasSnap = true
		return nil
	}
	return nil
}

func readSnapshotFile(path string) (Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	if len(raw) < 8 {
		return Snapshot{}, errors.New("storage: short snapshot header")
	}
	size := int(binary.BigEndian.Uint32(raw[0:4]))
	sum := binary.BigEndian.Uint32(raw[4:8])
	if len(raw) < 8+size {
		return Snapshot{}, errors.New("storage: torn snapshot")
	}
	body := raw[8 : 8+size]
	if crc32.ChecksumIEEE(body) != sum {
		return Snapshot{}, errors.New("storage: snapshot checksum mismatch")
	}
	if len(body) < 16 {
		return Snapshot{}, errors.New("storage: short snapshot body")
	}
	return Snapshot{
		Index: int64(binary.BigEndian.Uint64(body[0:8])),
		Term:  binary.BigEndian.Uint64(body[8:16]),
		State: append([]byte(nil), body[16:]...),
	}, nil
}

// SaveSnapshot implements SnapshotStore: CRC-framed body staged in a tmp
// file, fsynced, renamed into place, directory fsynced, older snapshot
// files pruned down to the newest two.
func (f *File) SaveSnapshot(snap Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saveSnapshotLocked(snap)
}

func (f *File) saveSnapshotLocked(snap Snapshot) error {
	if f.hasSnap && snap.Index < f.snap.Index {
		return fmt.Errorf("storage: snapshot regresses %d -> %d", f.snap.Index, snap.Index)
	}
	body := make([]byte, 16, 16+len(snap.State))
	binary.BigEndian.PutUint64(body[0:8], uint64(snap.Index))
	binary.BigEndian.PutUint64(body[8:16], snap.Term)
	body = append(body, snap.State...)
	frame := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	frame = append(frame, body...)

	final := filepath.Join(f.dir, snapName(snap.Index))
	tmp := final + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create snapshot: %w", err)
	}
	if _, err := tf.Write(frame); err != nil {
		tf.Close()
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("storage: sync snapshot: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("storage: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("storage: rename snapshot: %w", err)
	}
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	f.snap = Snapshot{Index: snap.Index, Term: snap.Term, State: append([]byte(nil), snap.State...)}
	f.hasSnap = true
	f.pruneSnapshotsLocked()
	return nil
}

// pruneSnapshotsLocked deletes all but the newest keepSnapshots snapshot
// files (best effort; stale files only waste space).
func (f *File) pruneSnapshotsLocked() {
	names, err := filepath.Glob(filepath.Join(f.dir, snapPrefix+"*"))
	if err != nil {
		return
	}
	var finals []string
	for _, name := range names {
		if !strings.HasSuffix(name, ".tmp") {
			finals = append(finals, name)
		}
	}
	if len(finals) <= keepSnapshots {
		return
	}
	sort.Strings(finals) // zero-padded: oldest first
	for _, name := range finals[:len(finals)-keepSnapshots] {
		os.Remove(name)
	}
	syncDir(f.dir)
}

// LatestSnapshot implements SnapshotStore.
func (f *File) LatestSnapshot() (Snapshot, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap, f.hasSnap, nil
}

// replay scans every WAL segment in sequence order, rebuilding the entry
// cache (records at or below the snapshot base are skipped — the snapshot
// already covers them) and each segment's maxIndex for compaction. A
// segment's log ends at the first frame whose length is 0 (the
// preallocated zeros, or a tail the filesystem zero-filled after power
// loss), whose checksum fails, or that overruns the file. tailZero reports
// whether every byte past that point in the newest segment is zero, i.e.
// whether openActive may append there without scrubbing first.
func (f *File) replay() (tailZero bool, err error) {
	names, err := filepath.Glob(filepath.Join(f.dir, segPrefix+"*"))
	if err != nil {
		return false, fmt.Errorf("storage: list segments: %w", err)
	}
	sort.Strings(names) // zero-padded seq: ascending
	for _, name := range names {
		seq, err := strconv.ParseUint(strings.TrimPrefix(filepath.Base(name), segPrefix), 10, 64)
		if err != nil {
			continue // not a segment file
		}
		raw, err := os.ReadFile(name)
		if err != nil {
			return false, fmt.Errorf("storage: read segment: %w", err)
		}
		seg := segment{seq: seq, path: name}
		off := 0
		for off+8 <= len(raw) {
			size := int(binary.BigEndian.Uint32(raw[off : off+4]))
			sum := binary.BigEndian.Uint32(raw[off+4 : off+8])
			if size == 0 || off+8+size > len(raw) {
				break
			}
			body := raw[off+8 : off+8+size]
			if crc32.ChecksumIEEE(body) != sum {
				break
			}
			ent, err := decodeEntry(body)
			if err != nil {
				return false, err
			}
			if ent.Index > seg.maxIndex {
				seg.maxIndex = ent.Index
			}
			if len(f.cached) == 0 && f.base == 0 && ent.Index > 1 &&
				f.hasSnap && ent.Index <= f.snap.Index+1 {
				// Older segments are gone but the watermark file did not
				// survive. Adopt the snapshot as the base — it verifiably
				// covers everything below the oldest retained record, and
				// its term is exact. Without a covering snapshot the gap
				// is indistinguishable from corruption, so no base is
				// fabricated and the records drop conservatively.
				f.base = f.snap.Index
				f.baseTerm = f.snap.Term
			}
			f.applyToCache(ent)
			off += 8 + size
		}
		seg.size = int64(off)
		tailZero = allZero(raw[off:])
		f.segs = append(f.segs, seg)
	}
	return tailZero, nil
}

// zeros is the source for zero-fills and the reference for allZero.
var zeros [1 << 20]byte

func allZero(b []byte) bool {
	for len(b) > 0 {
		n := min(len(b), len(zeros))
		if !bytes.Equal(b[:n], zeros[:n]) {
			return false
		}
		b = b[n:]
	}
	return true
}

// zeroFill writes zeros over [from, to) of file so the range is backed by
// written extents: overwrites there allocate and convert nothing, which
// keeps a WAL sync off the filesystem journal (fallocate alone leaves
// unwritten extents whose conversion still journals). A closed stop
// abandons the fill.
func zeroFill(file *os.File, from, to int64, stop <-chan struct{}) error {
	for from < to {
		select {
		case <-stop:
			return errors.New("storage: store closed")
		default:
		}
		n, err := file.WriteAt(zeros[:min(to-from, int64(len(zeros)))], from)
		if err != nil {
			return fmt.Errorf("storage: zero-fill segment: %w", err)
		}
		from += int64(n)
	}
	return nil
}

// preLen is the length segments are created at: the rotation threshold
// plus slack for the batch that crosses it (a batch that overshoots even
// that just grows the file on that one sync).
func (f *File) preLen() int64 { return f.segSize + f.segSize/8 }

// newSegmentFile creates a full-length, zero-filled, durable segment file
// under a temp name; installSegmentLocked renames it into the sequence.
func (f *File) newSegmentFile() (*os.File, error) {
	file, err := os.CreateTemp(f.dir, prepGlob)
	if err != nil {
		return nil, fmt.Errorf("storage: create wal segment: %w", err)
	}
	err = preallocate(file, f.preLen())
	if err == nil {
		err = zeroFill(file, 0, f.preLen(), f.stop)
	}
	if err == nil {
		err = fdatasync(file)
	}
	if err != nil {
		file.Close()
		os.Remove(file.Name())
		return nil, err
	}
	return file, nil
}

// prepareNext is the background preparer: it builds one next segment off
// the persister's path (zero-filling 9 MB takes tens of milliseconds) and
// parks it in f.next. It runs once per open and once per rotation, never
// concurrently with itself, and takes no lock.
func (f *File) prepareNext() {
	file, err := f.newSegmentFile()
	f.next <- prepared{file, err}
}

// openActive opens the newest segment for writing at its logical end
// (creating the first segment of a fresh store — the one segment built
// synchronously). Unless the bytes past the good prefix are already zero
// at full preallocated length, they are zeroed and synced before the first
// append: an intact stale frame sitting behind a torn one could otherwise
// be stitched back onto the log by a new frame of the torn one's length.
func (f *File) openActive(tailZero bool) error {
	stale, _ := filepath.Glob(filepath.Join(f.dir, prepGlob))
	for _, name := range stale {
		os.Remove(name) // a previous process's unfinished preparation
	}
	if len(f.segs) == 0 {
		file, err := f.newSegmentFile()
		if err != nil {
			return err
		}
		return f.installSegmentLocked(1, file)
	}
	act := &f.segs[len(f.segs)-1]
	wal, err := os.OpenFile(act.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open wal segment: %w", err)
	}
	info, err := wal.Stat()
	if err == nil && (!tailZero || info.Size() < f.preLen()) {
		if err = zeroFill(wal, act.size, max(info.Size(), f.preLen()), nil); err == nil {
			err = fdatasync(wal)
		}
	}
	if err == nil {
		_, err = wal.Seek(act.size, io.SeekStart)
	}
	if err != nil {
		wal.Close()
		return fmt.Errorf("storage: scrub wal tail: %w", err)
	}
	f.wal = wal
	f.w = bufio.NewWriterSize(wal, 256<<10)
	return nil
}

// installSegmentLocked renames a prepared file in as segment seq, fsyncs
// the directory so the dirent is durable, and makes it the active write
// target.
func (f *File) installSegmentLocked(seq uint64, file *os.File) error {
	path := filepath.Join(f.dir, segName(seq))
	err := os.Rename(file.Name(), path)
	if err == nil {
		err = syncDir(f.dir)
	}
	if err != nil {
		file.Close()
		return fmt.Errorf("storage: install wal segment: %w", err)
	}
	f.segs = append(f.segs, segment{seq: seq, path: path})
	f.wal = file
	f.w = bufio.NewWriterSize(file, 256<<10)
	return nil
}

// rotateLocked seals the active segment and makes the prepared one active.
// The caller has already flushed and synced the active file. Waiting on
// the preparer under mu is deliberate — appends cannot proceed without a
// segment — and normally free: the next segment has been ready since the
// previous rotation. SegmentWaitNs counts the times it was not.
func (f *File) rotateLocked() error {
	start := time.Now()
	p := <-f.next
	f.segWait.Add(int64(time.Since(start)))
	go f.prepareNext()
	if p.err != nil {
		return p.err
	}
	act := f.segs[len(f.segs)-1]
	// Hand the unused preallocation back. Best effort: replay reads the
	// segment the same at either length.
	_ = f.wal.Truncate(act.size)
	if err := f.wal.Close(); err != nil {
		p.file.Close()
		os.Remove(p.file.Name())
		return fmt.Errorf("storage: close segment: %w", err)
	}
	return f.installSegmentLocked(act.seq+1, p.file)
}

func (f *File) applyToCache(e protocol.Entry) {
	rel := e.Index - f.base
	switch {
	case rel <= 0:
		// Covered by the snapshot. Only replay gets here (append refuses
		// such an index), and there a covered record that follows
		// uncovered ones is an overwrite that erased them.
		f.cached = f.cached[:0]
	case rel <= int64(len(f.cached)):
		f.cached[rel-1] = e
		f.cached = f.cached[:rel] // records overwrite the suffix
	case rel == int64(len(f.cached))+1:
		f.cached = append(f.cached, e)
	}
}

// Append implements Store: the whole batch is framed through the buffered
// writer and made durable with one fsync (group commit), then the active
// segment rotates if it crossed the size threshold.
func (f *File) Append(entries []protocol.Entry) error {
	return f.append(entries, true)
}

// AppendBuffered implements DeferredSync: stage the batch without the
// fsync. The frames live in the buffered writer (and the read cache)
// until the next Sync — or Append — makes them durable.
func (f *File) AppendBuffered(entries []protocol.Entry) error {
	return f.append(entries, false)
}

var (
	_ DeferredSync = (*File)(nil)
)

func (f *File) append(entries []protocol.Entry, sync bool) error {
	if len(entries) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	// Validate the whole batch before staging any frame, so a bad index in
	// the middle cannot leave a half-written batch in the buffer.
	simLen := f.base + int64(len(f.cached))
	for _, e := range entries {
		if e.Index <= f.base {
			return fmt.Errorf("storage: append at %d below compaction %d: %w", e.Index, f.base, ErrCompacted)
		}
		if e.Index > simLen+1 {
			return fmt.Errorf("storage: gap at index %d (last %d)", e.Index, simLen)
		}
		if e.Index == simLen+1 {
			simLen++
		} else {
			simLen = e.Index // overwrite truncates the cached suffix
		}
	}
	act := &f.segs[len(f.segs)-1]
	// Batch-encode the whole append into one reused scratch buffer and
	// hand it to the buffered writer in a single pass: per-entry frame
	// allocation and per-entry Write calls both disappear from the hot
	// path (steady-state appends allocate nothing once scratch reaches
	// its high-water mark).
	f.scratch = f.scratch[:0]
	for i := range entries {
		f.scratch = appendEntryFrame(f.scratch, &entries[i])
	}
	if _, err := f.w.Write(f.scratch); err != nil {
		return fmt.Errorf("storage: append wal: %w", err)
	}
	act.size += int64(len(f.scratch))
	for _, e := range entries {
		if e.Index > act.maxIndex {
			act.maxIndex = e.Index
		}
		f.applyToCache(e)
	}
	f.appends.Add(1)
	f.entriesUp.Add(uint64(len(entries)))
	if !sync {
		f.dirty = true
		return nil
	}
	return f.syncLocked()
}

// Sync implements DeferredSync: flush and fsync everything staged by
// AppendBuffered. A clean log costs nothing.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.dirty {
		return nil
	}
	return f.syncLocked()
}

// SyncBatch implements GroupSync: one call retires a pipeline window —
// buffered entries are flushed and fsynced first (no-op on a clean log),
// then, when save is set, the hard state is rewritten durably. The
// ordering is the persist-before-ack barrier's steps 1 and 2 fused under
// one lock acquisition.
func (f *File) SyncBatch(hs HardState, save bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dirty {
		if err := f.syncLocked(); err != nil {
			return err
		}
	}
	if save {
		return f.saveHardStateLocked(hs)
	}
	return nil
}

var _ GroupSync = (*File)(nil)

// syncLocked flushes the write buffer, fdatasyncs the active segment, and
// performs any rotation that was deferred while appends were buffered.
func (f *File) syncLocked() error {
	if err := f.w.Flush(); err != nil {
		return fmt.Errorf("storage: flush wal: %w", err)
	}
	if err := fdatasync(f.wal); err != nil {
		return fmt.Errorf("storage: sync wal: %w", err)
	}
	f.syncs.Add(1)
	f.dirty = false
	if f.segs[len(f.segs)-1].size >= f.segSize {
		if err := f.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Compact implements SnapshotStore: drop the in-memory prefix at or below
// through and delete the leading sealed segments whose records all fall at
// or below it. The active segment always survives.
func (f *File) Compact(through int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if last := f.base + int64(len(f.cached)); through > last {
		through = last
	}
	if through <= f.base {
		return nil
	}
	return f.compactToLocked(through, f.cached[through-f.base-1].Term)
}

// compactToLocked is the shared tail of Compact and InstallSnapshot: it
// durably records the new watermark before anything is dropped, trims the
// entry cache to whatever survives above base (which may be nothing when
// base jumped past the log end), and deletes the leading sealed segments
// the watermark covers, fsyncing the directory after removals. The caller
// has verified base > f.base.
func (f *File) compactToLocked(base int64, term uint64) error {
	if err := f.saveCompactionBaseLocked(base, term); err != nil {
		return err
	}
	kept := f.cached[:0]
	if last := f.base + int64(len(f.cached)); base < last {
		kept = f.cached[:copy(f.cached, f.cached[base-f.base:])]
	}
	clear(f.cached[len(kept):])
	f.cached = kept
	f.base = base
	f.baseTerm = term

	// Only a covered prefix of the sequence goes: a covered segment behind
	// a surviving one may hold the overwrite that erased part of it.
	drop := 0
	for drop < len(f.segs)-1 && f.segs[drop].maxIndex <= base {
		if err := os.Remove(f.segs[drop].path); err != nil {
			return fmt.Errorf("storage: remove segment: %w", err)
		}
		drop++
	}
	if drop == 0 {
		return nil
	}
	f.segs = append(f.segs[:0], f.segs[drop:]...)
	if err := syncDir(f.dir); err != nil {
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return nil
}

// InstallSnapshot implements SnapshotStore: persist the received image
// (with the same atomic write + obsolete-snapshot pruning as a local
// save), record the new compaction base — which may lie beyond the last
// stored entry, something Compact never allows — and drop every entry and
// whole sealed segment the image covers. Records left in the active
// segment below the new base are skipped on replay by the watermark.
func (f *File) InstallSnapshot(snap Snapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.saveSnapshotLocked(snap); err != nil {
		return err
	}
	if snap.Index <= f.base {
		return nil
	}
	return f.compactToLocked(snap.Index, snap.Term)
}

// SegmentWaitNs returns the nanoseconds rotations have spent waiting for
// the background preparer since open: ~0 while it keeps up, growing when
// segments fill faster than the next one can be zero-filled.
func (f *File) SegmentWaitNs() int64 { return f.segWait.Load() }

// SyncCount returns the number of WAL fsyncs since open. Under group
// commit it grows by one per Append batch, not per entry — dividing it by
// EntryCount gives the amortization the batching architecture buys.
func (f *File) SyncCount() uint64 { return f.syncs.Load() }

// AppendCount returns the number of Append batches since open.
func (f *File) AppendCount() uint64 { return f.appends.Load() }

// EntryCount returns the number of entries written to the WAL since open.
func (f *File) EntryCount() uint64 { return f.entriesUp.Load() }

// CompactionBase implements SnapshotStore.
func (f *File) CompactionBase() (int64, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base, f.baseTerm, nil
}

// SegmentCount returns the number of live WAL segments (sealed + active).
func (f *File) SegmentCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.segs)
}

// WALBytes returns the total logical bytes (frames written, not
// preallocated length) across live WAL segments — the number compaction is
// there to bound.
func (f *File) WALBytes() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, seg := range f.segs {
		n += seg.size
	}
	return n
}

// Entries implements Store.
func (f *File) Entries(lo, hi int64) ([]protocol.Entry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if lo <= f.base && f.base > 0 {
		return nil, ErrCompacted
	}
	if lo < 1 || hi > f.base+int64(len(f.cached)) || lo > hi {
		return nil, ErrOutOfRange
	}
	out := make([]protocol.Entry, hi-lo+1)
	copy(out, f.cached[lo-f.base-1:hi-f.base])
	return out, nil
}

// FirstIndex implements Store.
func (f *File) FirstIndex() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base + 1, nil
}

// LastIndex implements Store.
func (f *File) LastIndex() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.base + int64(len(f.cached)), nil
}

// Close implements Store. It also retires the background preparer and
// deletes the segment it had ready.
func (f *File) Close() error {
	f.mu.Lock()
	if f.wal == nil {
		f.mu.Unlock()
		return nil
	}
	ferr := f.w.Flush()
	err := f.wal.Close()
	f.wal = nil
	f.mu.Unlock()
	if err == nil {
		err = ferr
	}
	close(f.stop)
	if p := <-f.next; p.file != nil {
		p.file.Close()
		os.Remove(p.file.Name())
	}
	return err
}

// CopyTo streams the live WAL segments to w in order (debug/backup helper).
func (f *File) CopyTo(w io.Writer) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wal != nil {
		if err := f.w.Flush(); err != nil {
			return err
		}
	}
	for _, seg := range f.segs {
		src, err := os.Open(seg.path)
		if err != nil {
			return err
		}
		_, err = io.Copy(w, io.LimitReader(src, seg.size)) // frames only, not the zero tail
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
