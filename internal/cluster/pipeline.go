// The asynchronous persistence pipeline: the complete half of the
// stage/complete split around Node.finish.
//
// The event loop stages one persistJob per load-bearing iteration
// (stageCh, capacity = Config.PersistWindow) and keeps stepping the
// engine; the persister goroutine drains whatever is staged into one
// group-committed round — entries from every drained job share a single
// store sync (storage.File: one fdatasync into a preallocated segment), the
// newest hard state folds into the same flush (storage.GroupSync) — and
// then walks the drained jobs strictly in staging order, releasing each
// job's withheld BarrierMessages only once everything the job accepted is
// durable. That keeps the protocol.Output barrier (entries synced → hard
// state synced → acks released) intact per round while the sync itself
// overlaps with message processing.
package cluster

import (
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// persistJob is one event-loop iteration's persistence round.
type persistJob struct {
	// seq numbers the round in staging order (Node.stagedSeq).
	seq int64
	// entries are the iteration's accepted entries (value copies emitted
	// by the engine; the loop never mutates them after staging).
	entries []protocol.Entry
	// install, when non-nil, is a wire snapshot the engine adopted this
	// iteration: it must be durable — and the WAL base jumped — before
	// any entry above its boundary is appended.
	install *protocol.SnapshotImage
	// msgs are the iteration's BarrierMessages, released only when this
	// round (and every round staged before it) is durable. A round that
	// has any must sync; rounds without stay buffered — group commit
	// across the window.
	msgs []protocol.Envelope
	// hs/saveHS carry the engine's hard state, snapshotted on the event
	// loop, when this iteration moved it (term, vote, or commits).
	hs     storage.HardState
	saveHS bool
	// force is the shutdown flush: save hs even inside the commit-only
	// throttle window.
	force bool
	// done, when non-nil, is closed once the round completes
	// (Config.SyncPersist: the loop waits on it).
	done chan struct{}
}

// stage hands one round to the persister, blocking — and counting the
// stall — only when the in-flight window is full. Event loop only.
func (n *Node) stage(job persistJob) {
	if n.cfg.SyncPersist || n.cfg.DisableBatching {
		job.done = make(chan struct{})
	}
	n.stagedSeq++
	job.seq = n.stagedSeq
	if cur := n.inflightCur.Add(1); cur > n.inflightMax.Load() {
		n.inflightMax.Store(cur) // loop is the only writer; no CAS needed
	}
	select {
	case n.stageCh <- job:
	default:
		// Window full: the disk is behind. Block (backpressure) and bill
		// the wait to loopStallNs — the clock is read only on this path,
		// so an unsaturated pipeline costs zero time.Now calls.
		start := time.Now()
		n.stageCh <- job
		n.loopStallNs.Add(time.Since(start).Nanoseconds())
	}
	if job.done != nil {
		<-job.done
	}
}

// persister is the pipeline's completion half: it drains staged rounds,
// group-commits their writes, and releases their promises in staging
// order. It exits when the event loop closes stageCh (after staging the
// shutdown flush), having completed every staged round.
func (n *Node) persister() {
	defer close(n.persistDone)
	var jobs []persistJob
	open := true
	for open {
		job, ok := <-n.stageCh
		if !ok {
			return
		}
		jobs = append(jobs[:0], job)
		// Coalesce: every round already staged joins this drain and
		// shares its sync. The stage channel's capacity bounds the batch.
	coalesce:
		for {
			select {
			case next, ok := <-n.stageCh:
				if !ok {
					open = false
					break coalesce
				}
				jobs = append(jobs, next)
			default:
				break coalesce
			}
		}
		n.processRounds(jobs)
	}
}

// processRounds is one group-committed drain: write every job's entries
// (and snapshot install), sync once if any job carries a promise, fold
// the newest hard state into the same flush, then complete the jobs in
// staging order — withheld messages release per job, and a failure at job
// i fails jobs i.. while jobs before i still complete.
func (n *Node) processRounds(jobs []persistJob) {
	var (
		perr     error
		failIdx  = len(jobs) // first failed job; everything at/after it fails
		needSync = false
	)
	for i := range jobs {
		job := &jobs[i]
		if perr != nil {
			// A round already failed in this drain: later rounds' entries
			// join the redo batch (they must eventually reach disk — the
			// engine will re-ack but never re-emit them) and their acks
			// stay withheld.
			n.redo = append(n.redo, n.persistable(job.entries)...)
			continue
		}
		if img := job.install; img != nil {
			// A wire snapshot adopted this round: make it durable and jump
			// the WAL's compaction base first, so this round's entries
			// (and every later round's, above the boundary) land on a
			// store whose log starts at the image.
			if ss, ok := n.cfg.Stable.(storage.SnapshotStore); ok {
				if err := ss.InstallSnapshot(storage.Snapshot{
					Index: img.Index, Term: img.Term, State: img.Data,
				}); err != nil {
					perr, failIdx = err, i
					n.redo = append(n.redo, n.persistable(job.entries)...)
					continue
				}
				n.walLast = img.Index
			}
		}
		ents := job.entries
		if len(n.redo) > 0 {
			ents = append(n.redo, ents...)
			n.redo = nil
		}
		ents = n.persistable(ents)
		if err := n.appendRound(ents); err != nil {
			// Carried forward, not dropped: see the redo field's contract.
			// The copy owns its backing array (ents may alias job slices).
			perr, failIdx = err, i
			n.redo = append([]protocol.Entry(nil), ents...)
			continue
		}
		if len(ents) > 0 {
			n.walLast = ents[len(ents)-1].Index
		}
		if len(job.msgs) > 0 {
			needSync = true
		}
	}

	// Hard state: the newest snapshot across the drain wins (hard state
	// only moves forward within one loop's staging order). Fencing moves
	// (term/vote) always save — a vote grant is only releasable once the
	// vote is durable; commit-only movement saves at commitSaveInterval
	// cadence, one clock read per drain, none on the event loop.
	var (
		hs    storage.HardState
		save  bool
		force bool
	)
	for i := range jobs {
		if jobs[i].saveHS {
			hs, save = jobs[i].hs, true
			force = force || jobs[i].force
		}
	}
	if save && n.hardSaved && hs == n.lastSaved {
		save = false
	}
	if save && !force {
		fence := !n.hardSaved || hs.Term != n.lastSaved.Term || hs.VotedFor != n.lastSaved.VotedFor
		if !fence && time.Since(n.lastCommitSave) < commitSaveInterval {
			save = false
		}
	}

	// One sync retires every promise in the drain. It runs even when a
	// later round's append failed: successful rounds' promises need the
	// buffered entries on disk (the failed batch is in redo, not the
	// buffer, so the sync covers exactly what succeeded). Held self-acks
	// oblige it too: they wait for this durability point.
	_, deferred := n.deferredSync()
	durable := !deferred // a plain store is durable per append
	if needSync || len(n.heldSelf) > 0 {
		if serr := n.syncAndSave(hs, save, true); serr != nil {
			// The group sync (or hard-state save) failed: no round reached
			// its durability point, so all of them fail and their acks stay
			// withheld. Buffered entries survive in the store's write
			// buffer (or redo) and retry under a future drain's sync.
			perr, failIdx, durable = serr, 0, false
		} else {
			save, durable = false, true
		}
	}
	// Self-acks held by earlier drains: their entries rode the redo (or the
	// store's write buffer) that this drain's first round appended before
	// the sync, so this drain's durability point covers them. The rounds
	// that fail below are not covered and hold theirs for the next one.
	prior := n.heldSelf
	n.heldSelf = nil
	// Completion, strictly in staging order.
	for i := range jobs {
		job := &jobs[i]
		if i >= failIdx {
			n.notePersistFailure(perr)
			// Peers retry their withheld acks; the engine asks for its own
			// once per index, so a self-ack waits for the next durable
			// point instead of being lost.
			for _, env := range job.msgs {
				if env.To == n.id {
					n.heldSelf = append(n.heldSelf, env)
				}
			}
		} else {
			n.notePersistSuccess()
			for _, env := range job.msgs {
				n.release(env)
			}
		}
		if job.done != nil {
			close(job.done)
		}
		n.inflightCur.Add(-1)
	}
	if durable && failIdx > 0 {
		// Every entry of the rounds before the first failure — redo
		// included — was appended before the sync, so all of them are
		// durable now.
		n.durableSeq.Store(jobs[failIdx-1].seq)
		for _, env := range prior {
			n.release(env)
		}
	} else {
		n.heldSelf = append(prior, n.heldSelf...)
	}
	if save {
		// No barrier round consumed the save: persist the watermark (or
		// the shutdown flush) after everything released — nothing waits.
		if serr := n.syncAndSave(hs, true, false); serr != nil && perr == nil {
			n.notePersistFailure(serr)
		}
	}
}

// prefixAck is an ack that vouches for a log prefix: Raft*'s append ack
// claims every entry through its LastIndex.
type prefixAck interface {
	CoverDurable(last int64)
}

// release hands on one barrier message of a round that is durable, with
// every round written before the drain's sync. A self-ack that vouches for
// a log prefix claims all the store now holds, not only what the engine
// had appended when it asked: writes proposed later in the same loop
// iteration rode the same sync and need no ask of their own. The store is
// the leader's own log; a peer's ack is never raised, since a follower's
// log may hold a stale suffix beyond what its leader sent.
func (n *Node) release(env protocol.Envelope) {
	if a, ok := env.Msg.(prefixAck); ok && env.To == n.id {
		a.CoverDurable(n.walLast)
	}
	n.send(env)
}

// deferredSync returns the store's deferred-sync view when the persister
// buffers appends through it (never under DisableBatching, whose
// per-entry Appends sync themselves).
func (n *Node) deferredSync() (storage.DeferredSync, bool) {
	ds, ok := n.cfg.Stable.(storage.DeferredSync)
	return ds, ok && !n.cfg.DisableBatching
}

// appendRound writes one round's entries to the log store: buffered when
// the store defers syncs (the drain's single sync covers them), plain
// otherwise, per-entry under DisableBatching (the measured baseline).
func (n *Node) appendRound(ents []protocol.Entry) error {
	if n.cfg.DisableBatching {
		for _, ent := range ents {
			if err := n.cfg.Stable.Append([]protocol.Entry{ent}); err != nil {
				return err
			}
		}
		return nil
	}
	if len(ents) == 0 {
		return nil
	}
	if ds, ok := n.deferredSync(); ok {
		return ds.AppendBuffered(ents)
	}
	return n.cfg.Stable.Append(ents)
}

// syncAndSave retires the drain's durability obligations: flush buffered
// entries when a promise depends on them (doSync), then persist the hard
// state when it moved (save) — fused into one storage.GroupSync call when
// the store offers it.
func (n *Node) syncAndSave(hs storage.HardState, save, doSync bool) error {
	ds, deferred := n.deferredSync()
	doSync = doSync && deferred
	if !doSync && !save {
		return nil
	}
	start := time.Now()
	var err error
	if gs, ok := n.cfg.Stable.(storage.GroupSync); ok && doSync {
		// One lock acquisition retires the whole window: entries first,
		// then hard state — the barrier's steps 1 and 2.
		err = gs.SyncBatch(hs, save)
	} else {
		if doSync {
			err = ds.Sync()
		}
		if err == nil && save {
			// save without doSync reaches here on purpose: a save-only
			// drain (commit watermark, shutdown flush) must not drag
			// promise-free buffered entries to disk with it.
			err = n.cfg.Stable.SaveHardState(hs)
		}
	}
	n.syncNs.Add(time.Since(start).Nanoseconds())
	if doSync {
		n.syncBatches.Add(1)
	}
	if err != nil {
		return err
	}
	if save {
		n.lastSaved, n.hardSaved = hs, true
		n.lastCommitSave = start
	}
	return nil
}

// PersistStats reports the pipeline's counters: total nanoseconds inside
// sync/save calls (off the event loop), group-committed sync batches
// issued, event-loop nanoseconds blocked on a full staging window, and
// the high-water mark of staged-but-incomplete rounds.
func (n *Node) PersistStats() (syncNs, syncBatches, loopStallNs, inflightMax int64) {
	return n.syncNs.Load(), n.syncBatches.Load(), n.loopStallNs.Load(), n.inflightMax.Load()
}
