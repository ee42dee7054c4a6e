package storage_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

var crashSeed = flag.Int64("crashseed", 0, "run TestFilePowerLoss on this one seed")

// TestFilePowerLoss drives storage.File through seeded random schedules
// of appends, buffered appends, syncs, rotations and snapshot+compact, then
// cuts the power: every byte a completed sync covered survives, and each
// 512 B sector written since independently lands, keeps its old contents,
// reads back as zeros, or reads back as garbage. The store must reopen to
// the synced log extended by some prefix of the unsynced frames — never a
// gap, never a frame that was not written at that index — and must stay
// that way after one more append and another reopen (the append that
// would stitch a stale frame back on if openActive had not scrubbed it).
func TestFilePowerLoss(t *testing.T) {
	seeds := make([]int64, 150)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *crashSeed != 0 {
		seeds = []int64{*crashSeed}
	}
	for _, seed := range seeds {
		if err := powerLoss(t.TempDir(), seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/storage -run TestFilePowerLoss -crashseed=%d", seed, err, seed)
		}
	}
}

// logModel is the reference log: entries above a compaction base, with the
// store's overwrite-truncates-suffix rule.
type logModel struct {
	base int64
	ents []protocol.Entry
}

func (m logModel) last() int64 { return m.base + int64(len(m.ents)) }

func (m logModel) apply(batch ...protocol.Entry) logModel {
	out := logModel{m.base, append([]protocol.Entry(nil), m.ents...)}
	for _, e := range batch {
		out.ents = append(out.ents[:e.Index-out.base-1], e)
	}
	return out
}

func (m logModel) compact(through int64) logModel {
	return logModel{through, append([]protocol.Entry(nil), m.ents[through-m.base:]...)}
}

// check compares the reopened store against the model.
func (m logModel) check(s *storage.File) error {
	first, _ := s.FirstIndex()
	last, _ := s.LastIndex()
	if first != m.base+1 || last != m.last() {
		return fmt.Errorf("range [%d, %d], want [%d, %d]", first, last, m.base+1, m.last())
	}
	if len(m.ents) == 0 {
		return nil
	}
	got, err := s.Entries(first, last)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, m.ents) {
		return fmt.Errorf("entries [%d, %d] differ from what was written there", first, last)
	}
	return nil
}

// diskImage reads every file the store owns (not the preparer's temp).
func diskImage(dir string) (map[string][]byte, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	img := make(map[string][]byte)
	for _, n := range names {
		if strings.HasPrefix(n.Name(), "prealloc-") {
			continue
		}
		if img[n.Name()], err = os.ReadFile(filepath.Join(dir, n.Name())); err != nil {
			return nil, err
		}
	}
	return img, nil
}

const sector = 512

// tear builds what power loss leaves of now, given durable — the image at
// the last completed sync. Sectors the two agree on are safe; every other
// one independently lands, reverts, zeroes or scrambles — from its first
// changed byte on: the bytes before that were covered by a completed sync
// and survive (power-safe overwrite, which every WAL that does not pad its
// commits to sector boundaries assumes).
func tear(rng *rand.Rand, durable, now map[string][]byte) map[string][]byte {
	out := make(map[string][]byte)
	for name, cur := range now {
		old := durable[name]
		torn := append([]byte(nil), cur...)
		for off := 0; off < len(cur); off += sector {
			end := min(off+sector, len(cur))
			was := make([]byte, end-off) // never written reads as zeros
			if off < len(old) {
				copy(was, old[off:min(end, len(old))])
			}
			changed := 0
			for changed < len(was) && cur[off+changed] == was[changed] {
				changed++
			}
			if changed == len(was) {
				continue
			}
			switch rng.Intn(6) {
			case 0, 1, 2: // landed
			case 3:
				copy(torn[off+changed:end], was[changed:])
			case 4:
				copy(torn[off+changed:end], make([]byte, end-off))
			case 5:
				rng.Read(torn[off+changed : end])
			}
		}
		out[name] = torn
	}
	return out
}

func powerLoss(dir string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	opt := storage.Options{SegmentBytes: 2 << 10}
	s, err := storage.OpenFileWith(dir, opt)
	if err != nil {
		return err
	}
	var (
		synced   logModel         // as of the last completed sync
		pending  []protocol.Entry // staged or written since, in write order
		hs       storage.HardState
		snapIdx  int64
		durable  map[string][]byte
		nextTerm = uint64(1)
	)
	// batch makes 1-4 entries continuing the log, or (1 in 5) restating a
	// suffix at a higher term, the way engines overwrite a conflict.
	batch := func() []protocol.Entry {
		cur := synced.apply(pending...)
		at := cur.last() + 1
		if back := int64(rng.Intn(3)); rng.Intn(5) == 0 && at-back > cur.base+1 {
			at -= back + 1
			nextTerm++
		}
		out := make([]protocol.Entry, 1+rng.Intn(4))
		for i := range out {
			val := make([]byte, 1+rng.Intn(400))
			rng.Read(val)
			out[i] = protocol.Entry{Index: at + int64(i), Term: nextTerm, Bal: nextTerm,
				Cmd: protocol.Command{ID: 7, Op: protocol.OpPut, Key: "k", Value: val}}
		}
		return out
	}
	commit := func() (err error) { // a sync completed: everything on disk is durable
		synced, pending = synced.apply(pending...), nil
		durable, err = diskImage(dir)
		return err
	}
	if err := commit(); err != nil {
		return err
	}
	for op, n := 0, 5+rng.Intn(60); op < n && err == nil; op++ {
		switch k := rng.Intn(10); {
		case k < 4:
			b := batch()
			pending = append(pending, b...)
			if err = s.Append(b); err == nil {
				err = commit()
			}
		case k < 7:
			b := batch()
			pending = append(pending, b...)
			err = s.AppendBuffered(b)
		case k < 8:
			if err = s.Sync(); err == nil {
				err = commit()
			}
		case k < 9:
			save := rng.Intn(2) == 0
			next := storage.HardState{Term: nextTerm, VotedFor: 1, Commit: synced.last()}
			if err = s.SyncBatch(next, save); err == nil {
				if save {
					hs = next
				}
				err = commit()
			}
		default: // snapshot what is durable, compact a margin behind it
			if err = s.Sync(); err != nil {
				break
			}
			if err = commit(); err != nil || synced.last() <= snapIdx {
				break
			}
			snapIdx = synced.last()
			if err = s.SaveSnapshot(storage.Snapshot{Index: snapIdx, Term: nextTerm, State: []byte("img")}); err != nil {
				break
			}
			if through := snapIdx - int64(rng.Intn(4)); through > synced.base {
				if err = s.Compact(through); err != nil {
					break
				}
				synced = synced.compact(through)
			}
			err = commit()
		}
	}
	if err != nil {
		return err
	}
	// Power fails during one last group commit (or, 1 in 3, with the staged
	// frames still in memory): its frames reach the file, its sync never
	// returns, so nothing written since the last image is safe.
	if rng.Intn(3) > 0 {
		b := batch()
		pending = append(pending, b...)
		if err := s.Append(b); err != nil {
			return err
		}
	}
	now, err := diskImage(dir)
	if err != nil {
		return err
	}
	s.Close() // flushes staged frames, but the torn image below replaces the files
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	crashed := tear(rng, durable, now)
	crashed["prealloc-dead.tmp"] = []byte("half-prepared segment of the dead process")
	for name, data := range crashed {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return err
		}
	}

	re, err := storage.OpenFileWith(dir, opt)
	if err != nil {
		return fmt.Errorf("reopen after power loss: %w", err)
	}
	// The survivor is the synced log plus the longest prefix of unsynced
	// frames that landed whole.
	if os.Getenv("DBG") != "" {
		f, _ := re.FirstIndex()
		l, _ := re.LastIndex()
		fmt.Printf("synced [%d,%d] recovered [%d,%d] pending:", synced.base+1, synced.last(), f, l)
		for _, e := range pending {
			fmt.Printf(" %d@%d", e.Index, e.Term)
		}
		got, _ := re.Entries(f, l)
		fmt.Printf("\nrecovered:")
		for _, e := range got {
			fmt.Printf(" %d@%d", e.Index, e.Term)
		}
		fmt.Printf("\nsynced:")
		for _, e := range synced.ents {
			fmt.Printf(" %d@%d", e.Index, e.Term)
		}
		fmt.Println()
		for n, d := range crashed {
			fmt.Println(n, len(d), len(durable[n]), len(now[n]))
		}
	}
	want, kept := synced, 0
	for ; want.check(re) != nil && kept < len(pending); kept++ {
		want = want.apply(pending[kept])
	}
	if err := want.check(re); err != nil {
		re.Close()
		return fmt.Errorf("after power loss no prefix of the %d unsynced frames matches; against all of them: %w", len(pending), err)
	}
	if got, _ := re.HardState(); hs != (storage.HardState{}) && got != hs {
		re.Close()
		return fmt.Errorf("hard state %+v, want %+v", got, hs)
	}
	if snap, ok, _ := re.LatestSnapshot(); (snapIdx > 0) != ok || snap.Index != snapIdx {
		re.Close()
		return fmt.Errorf("snapshot %d (ok=%v), want %d", snap.Index, ok, snapIdx)
	}
	// One more entry — when a frame was lost, a rewrite of exactly its
	// length, flush against whatever used to follow it — then reopen.
	more := protocol.Entry{Index: want.last() + 1, Term: nextTerm + 1, Bal: nextTerm + 1,
		Cmd: protocol.Command{ID: 7, Op: protocol.OpPut, Key: "k", Value: []byte("after")}}
	if kept < len(pending) {
		more = pending[kept]
		more.Term, more.Bal = nextTerm+1, nextTerm+1
	}
	if err := re.Append([]protocol.Entry{more}); err != nil {
		re.Close()
		return fmt.Errorf("append after recovery: %w", err)
	}
	want = want.apply(more)
	if err := re.Close(); err != nil {
		return err
	}
	re2, err := storage.OpenFileWith(dir, opt)
	if err != nil {
		return fmt.Errorf("second reopen: %w", err)
	}
	defer re2.Close()
	if err := want.check(re2); err != nil {
		return fmt.Errorf("after recovery + append + reopen: %w", err)
	}
	return nil
}
