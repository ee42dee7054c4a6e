// Package kvstore is the replicated state machine used by the examples
// and the evaluation: a versioned key-value store applying committed
// commands in log order.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"raftpaxos/internal/protocol"
)

// Versioned is a value with the log index that wrote it.
type Versioned struct {
	Value []byte
	Index int64
}

// dedupWindow is how many applied put IDs the store remembers. The fast
// write path can put one command into the log twice (election recovery
// adopts a speculative copy of a command already chosen a slot or two
// earlier), and the second copy must not undo a put that completed in
// between. Both copies were accepted while the first was uncommitted, so
// they sit within one uncommitted window of each other in slot order: the
// bound is on log distance, not on time.
const dedupWindow = 4096

// Store is a key-value state machine. It is safe for concurrent use (live
// drivers apply from one goroutine and serve reads from others; the
// simulator is single-threaded and pays no contention).
type Store struct {
	mu      sync.RWMutex
	data    map[string]Versioned
	applied int64

	// The IDs of the last dedupWindow puts applied: ring in apply order
	// starting at head (the oldest, evicted next), seen the same IDs as a set.
	ring    []uint64
	head    int
	seen    map[uint64]struct{}
	skipped uint64
}

var _ protocol.StateMachine = (*Store)(nil)

// New returns an empty store.
func New() *Store {
	return &Store{data: make(map[string]Versioned), seen: make(map[uint64]struct{})}
}

// Apply executes one committed entry. Entries must be applied in index
// order; no-ops advance the applied index only, and so does a put whose
// command ID (0 = none) is among the last dedupWindow applied: a command
// takes effect once however often the log carries it.
func (s *Store) Apply(e protocol.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Index > 0 {
		s.applied = e.Index
	}
	if e.Cmd.Op != protocol.OpPut {
		return
	}
	if id := e.Cmd.ID; id != 0 {
		if _, dup := s.seen[id]; dup {
			s.skipped++
			return
		}
		s.remember(id)
	}
	s.data[e.Cmd.Key] = Versioned{Value: e.Cmd.Value, Index: e.Index}
}

// remember records id as the newest applied put, evicting the oldest once
// the window is full.
func (s *Store) remember(id uint64) {
	if len(s.ring) < dedupWindow {
		s.ring = append(s.ring, id)
	} else {
		delete(s.seen, s.ring[s.head])
		s.ring[s.head] = id
		s.head = (s.head + 1) % dedupWindow
	}
	s.seen[id] = struct{}{}
}

// Skipped returns how many puts Apply skipped as repeats.
func (s *Store) Skipped() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.skipped
}

// Get returns the current value of key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v.Value, ok
}

// GetVersioned returns the value with its writing index.
func (s *Store) GetVersioned(key string) (Versioned, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// AppliedIndex returns the highest applied log index.
func (s *Store) AppliedIndex() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// snapshotVersion tags the serialized format so it can evolve. Version 2
// appended the applied-ID window; no deployed data carries version 1.
const snapshotVersion = 2

// Snapshot implements protocol.StateMachine: a deterministic binary image
// of the applied state (keys serialized in sorted order), the applied
// index and the applied-ID window (oldest first) — a replica restored from
// the image skips exactly the repeats the others skip — suitable for log
// compaction. The caller is responsible for framing/checksumming the image
// (the storage layer CRC-frames snapshot files).
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var buf []byte
	var tmp [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	buf = append(buf, snapshotVersion)
	put64(uint64(s.applied))
	put32(uint32(len(keys)))
	for _, k := range keys {
		v := s.data[k]
		put32(uint32(len(k)))
		buf = append(buf, k...)
		put64(uint64(v.Index))
		put32(uint32(len(v.Value)))
		buf = append(buf, v.Value...)
	}
	put32(uint32(len(s.ring)))
	for i := range s.ring {
		put64(s.ring[(s.head+i)%len(s.ring)])
	}
	return buf, nil
}

// Restore implements protocol.StateMachine: replace the applied state with
// a Snapshot image.
func (s *Store) Restore(data []byte) error {
	if len(data) < 1+8+4 {
		return errors.New("kvstore: short snapshot")
	}
	if data[0] != snapshotVersion {
		return fmt.Errorf("kvstore: snapshot version %d, want %d (older images lack the applied-ID window and cannot be restored)", data[0], snapshotVersion)
	}
	off := 1
	get64 := func() (uint64, bool) {
		if off+8 > len(data) {
			return 0, false
		}
		v := binary.BigEndian.Uint64(data[off : off+8])
		off += 8
		return v, true
	}
	get32 := func() (uint32, bool) {
		if off+4 > len(data) {
			return 0, false
		}
		v := binary.BigEndian.Uint32(data[off : off+4])
		off += 4
		return v, true
	}
	applied, _ := get64()
	n, _ := get32()
	m := make(map[string]Versioned, n)
	for i := uint32(0); i < n; i++ {
		klen, ok := get32()
		if !ok || off+int(klen) > len(data) {
			return errors.New("kvstore: truncated snapshot key")
		}
		k := string(data[off : off+int(klen)])
		off += int(klen)
		idx, ok := get64()
		if !ok {
			return errors.New("kvstore: truncated snapshot index")
		}
		vlen, ok := get32()
		if !ok || off+int(vlen) > len(data) {
			return errors.New("kvstore: truncated snapshot value")
		}
		var val []byte
		if vlen > 0 {
			val = append([]byte(nil), data[off:off+int(vlen)]...)
		}
		off += int(vlen)
		m[k] = Versioned{Value: val, Index: int64(idx)}
	}
	nids, ok := get32()
	if !ok || nids > dedupWindow || off+8*int(nids) != len(data) {
		return errors.New("kvstore: truncated snapshot ID window")
	}
	ring := make([]uint64, nids)
	seen := make(map[uint64]struct{}, nids)
	for i := range ring {
		ring[i], _ = get64()
		seen[ring[i]] = struct{}{}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = m
	s.applied = int64(applied)
	s.ring, s.head, s.seen = ring, 0, seen
	return nil
}
