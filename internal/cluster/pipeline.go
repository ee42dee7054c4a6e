// The persist-before-ack rule, written once for every driver (Persister):
// a value is durable before its ack leaves (phase 2b, appendOK). Node
// stages one Job per load-bearing event-loop iteration (stageCh, capacity
// = persistWindow) and keeps stepping the engine while its persister
// goroutine drains whatever is staged into one Persister.Round, so the
// sync overlaps with message processing. The campaign in testcluster runs
// one Round per output, synchronously, over a crash store.
package cluster

import (
	"sync/atomic"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

// Job is one event-loop iteration's persistence round (Persister.Split).
type Job struct {
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
	// hs/saveHS carry the engine's hard state, snapshotted where the
	// engine lives, when this iteration moved it (term, vote, or commits).
	hs     storage.HardState
	saveHS bool
	// force is the shutdown flush: save hs even inside the commit-only
	// throttle window.
	force bool
}

// commitSaveInterval throttles hard-state rewrites whose only change is
// the commit index. Unlike term and vote — fencing state that must be
// durable before the grant leaves — the persisted commit is a recovery
// accelerator: entries are already durable at accept time, so a stale
// watermark merely means a restart re-commits (and idempotently
// re-applies) the last interval through the normal protocol.
const commitSaveInterval = 25 * time.Millisecond

// Persister owns the persist-before-ack rule over one store. A driver
// lends it send, which hands on a released envelope, and now, the clock
// of the commit-save throttle and the sync timers: the live Node passes
// time.Now, a deterministic harness a virtual clock. Split runs where the
// engine lives; Round, and everything below it, on one goroutine at a
// time (the counters are safe to read from any).
type Persister struct {
	id    protocol.NodeID
	store storage.Store
	send  func(protocol.Envelope)
	now   func() time.Time
	// logf, when set, reports the transitions into and out of a failure
	// streak, so a dead disk is observable without flooding.
	logf func(format string, args ...any)

	// lastSaved is the hard state last persisted (valid once hardSaved is
	// set): a drain where only the log grew skips the rewrite, and
	// lastCommitSave throttles commit-only ones to commitSaveInterval.
	lastSaved      storage.HardState
	hardSaved      bool
	lastCommitSave time.Time
	// redo carries a failed append batch forward: the engine re-acks but
	// never re-emits entries it holds, so the write is retried ahead of
	// every later one, and no ack is released over entries on no disk.
	redo []protocol.Entry
	// walLast is the newest index written to the log store, buffered or
	// not: what the next successful sync makes durable. A released self-ack
	// is raised to it (release).
	walLast int64
	// heldSelf are self-acks whose round failed to persist. Unlike a peer,
	// the engine asks for its own ack once per index and never again, so
	// they wait for the next durable point instead of being dropped.
	heldSelf []protocol.Envelope

	// durableSeq is the newest job whose entries are durable: Node's
	// applier saves no snapshot of state its own WAL does not yet hold.
	durableSeq atomic.Int64
	// Nanoseconds inside sync/save calls and sync batches issued.
	syncNs      atomic.Int64
	syncBatches atomic.Int64
	// Consecutive failed rounds (each of which withheld its acks) and the
	// lifetime total.
	failStreak atomic.Int64
	failTotal  atomic.Int64
}

// NewPersister builds the rule over store (nil: a volatile driver, whose
// every envelope leaves at once). logf may be nil.
func NewPersister(id protocol.NodeID, store storage.Store, send func(protocol.Envelope),
	now func() time.Time, logf func(format string, args ...any)) *Persister {
	return &Persister{id: id, store: store, send: send, now: now, logf: logf}
}

// Split is the staging half of the rule, run where engine e lives.
// Envelopes that promise nothing about stable storage (proposals,
// requests, heartbeats, snapshot chunks) leave through send at once. The
// output's entries, installed snapshot, hard state and BarrierMessages
// form the job Round makes durable before those messages leave; ok
// reports whether it has anything to persist (ticks and idle drains stay
// free). out.Msgs is filtered in place.
func (p *Persister) Split(e protocol.Engine, out protocol.Output) (job Job, ok bool) {
	durable := p.store != nil
	acks := out.Msgs[:0]
	for _, env := range out.Msgs {
		if _, ok := env.Msg.(protocol.BarrierMessage); ok && durable {
			acks = append(acks, env)
			continue
		}
		p.send(env)
	}
	if !durable {
		return Job{}, false
	}
	job = Job{entries: out.AppendedEntries, install: out.InstalledSnapshot, msgs: acks}
	if out.StateChanged || len(out.Commits) > 0 {
		job.hs, job.saveHS = hardState(e), true
	}
	return job, len(job.entries) > 0 || job.install != nil || job.saveHS || len(job.msgs) > 0
}

// hardState snapshots an engine's durable state. Persisting the real vote
// and commit index — not just the term — is what keeps a restarted
// replica from double voting in its recorded term.
func hardState(e protocol.Engine) storage.HardState {
	return storage.HardState{Term: e.Term(), VotedFor: e.VotedFor(), Commit: e.CommitIndex()}
}

// Round is one group-committed drain: write every job's entries (and
// snapshot install), sync once if any job carries a promise (storage.File:
// one fdatasync into a preallocated segment), fold the newest hard state
// into the same flush (storage.GroupSync), then complete the jobs in
// staging order — withheld messages release per job, and a failure at job
// i fails jobs i.. while jobs before i still complete. A job with no
// barrier message carries no sync obligation: its write stays buffered
// (storage.DeferredSync) until a later job carries a promise.
func (p *Persister) Round(jobs []Job) {
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
			p.redo = append(p.redo, p.persistable(job.entries)...)
			continue
		}
		if img := job.install; img != nil {
			// A wire snapshot adopted this round: make it durable and jump
			// the WAL's compaction base first, so this round's entries
			// (and every later round's, above the boundary) land on a
			// store whose log starts at the image.
			if err := p.store.InstallSnapshot(storage.Snapshot{
				Index: img.Index, Term: img.Term, State: img.Data,
			}); err != nil {
				perr, failIdx = err, i
				p.redo = append(p.redo, p.persistable(job.entries)...)
				continue
			}
			p.walLast = img.Index
		}
		ents := job.entries
		if len(p.redo) > 0 {
			ents = append(p.redo, ents...)
			p.redo = nil
		}
		if ents = p.persistable(ents); len(ents) > 0 {
			// Buffered: the drain's single sync below covers every round.
			if err := p.store.AppendBuffered(ents); err != nil {
				// Carried forward, not dropped: see the redo field's
				// contract. The copy owns its backing array (ents may alias
				// job slices).
				perr, failIdx = err, i
				p.redo = append([]protocol.Entry(nil), ents...)
				continue
			}
			p.walLast = ents[len(ents)-1].Index
		}
		if len(job.msgs) > 0 {
			needSync = true
		}
	}

	// Hard state: the newest snapshot across the drain wins (hard state
	// only moves forward within one loop's staging order). Fencing moves
	// (term/vote) always save, ahead of the release — a vote grant is only
	// releasable once the vote is durable; commit-only movement saves at
	// commitSaveInterval cadence, one clock read per drain, and after the
	// release, since no message waits for it.
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
	if save && p.hardSaved && hs == p.lastSaved {
		save = false
	}
	fence := save && (!p.hardSaved || hs.Term != p.lastSaved.Term || hs.VotedFor != p.lastSaved.VotedFor)
	if save && !force && !fence && p.now().Sub(p.lastCommitSave) < commitSaveInterval {
		save = false
	}

	// One sync retires every promise in the drain. It runs even when a
	// later round's append failed: successful rounds' promises need the
	// buffered entries on disk (the failed batch is in redo, not the
	// buffer, so the sync covers exactly what succeeded). Held self-acks
	// oblige it too: they wait for this durability point.
	var durable bool
	if needSync || len(p.heldSelf) > 0 {
		if serr := p.syncAndSave(hs, fence, true); serr != nil {
			// The group sync (or fencing save) failed: no round reached
			// its durability point, so all of them fail and their acks stay
			// withheld. Buffered entries survive in the store's write
			// buffer (or redo) and retry under a future drain's sync.
			perr, failIdx = serr, 0
		} else {
			save, durable = save && !fence, true
		}
	}
	// Self-acks held by earlier drains: their entries rode the redo (or the
	// store's write buffer) that this drain's first round appended before
	// the sync, so this drain's durability point covers them. The rounds
	// that fail below are not covered and hold theirs for the next one.
	prior := p.heldSelf
	p.heldSelf = nil
	// Completion, strictly in staging order.
	for i := range jobs {
		job := &jobs[i]
		if i >= failIdx {
			p.noteFailure(perr)
			// Peers retry their withheld acks; the engine asks for its own
			// once per index, so a self-ack waits for the next durable
			// point instead of being lost.
			for _, env := range job.msgs {
				if env.To == p.id {
					p.heldSelf = append(p.heldSelf, env)
				}
			}
		} else {
			p.noteSuccess()
			for _, env := range job.msgs {
				p.release(env)
			}
		}
	}
	if durable && failIdx > 0 {
		// Every entry of the rounds before the first failure — redo
		// included — was appended before the sync, so all of them are
		// durable now.
		p.durableSeq.Store(jobs[failIdx-1].seq)
		for _, env := range prior {
			p.release(env)
		}
	} else {
		p.heldSelf = append(prior, p.heldSelf...)
	}
	if save {
		// No barrier round consumed the save: persist the watermark (or
		// the shutdown flush) after everything released — nothing waits.
		if serr := p.syncAndSave(hs, true, false); serr != nil && perr == nil {
			p.noteFailure(serr)
		}
	}
}

// persistable trims a round's appended entries to what the log store can
// hold: entries at or below the store's compaction base were already
// folded into a durable snapshot (the engine's in-memory base can trail
// the store's briefly while a truncation round is in flight, and a merged
// output may restate a suffix from below an install adopted in the same
// iteration). Emissions are contiguous per step, so the surviving run
// still lines up with the store's tail.
func (p *Persister) persistable(ents []protocol.Entry) []protocol.Entry {
	if len(ents) == 0 {
		return nil
	}
	first, err := p.store.FirstIndex()
	if err != nil || first <= 1 {
		return ents
	}
	kept := ents[:0]
	for _, ent := range ents {
		if ent.Index >= first {
			kept = append(kept, ent)
		}
	}
	return kept
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
func (p *Persister) release(env protocol.Envelope) {
	if a, ok := env.Msg.(prefixAck); ok && env.To == p.id {
		a.CoverDurable(p.walLast)
	}
	p.send(env)
}

// syncAndSave retires the drain's durability obligations: flush buffered
// entries when a promise depends on them (doSync), then persist the hard
// state when it moved (save).
func (p *Persister) syncAndSave(hs storage.HardState, save, doSync bool) error {
	start := p.now()
	var err error
	if doSync {
		// One lock acquisition retires the whole window: entries first,
		// then hard state — the barrier's steps 1 and 2.
		err = p.store.SyncBatch(hs, save)
		p.syncBatches.Add(1)
	} else {
		// A save-only drain (commit watermark, shutdown flush) must not
		// drag promise-free buffered entries to disk with it.
		err = p.store.SaveHardState(hs)
	}
	p.syncNs.Add(p.now().Sub(start).Nanoseconds())
	if err != nil {
		return err
	}
	if save {
		p.lastSaved, p.hardSaved = hs, true
		p.lastCommitSave = start
	}
	return nil
}

// noteFailure records one failed round, logging only the transition into
// the failed state.
func (p *Persister) noteFailure(err error) {
	p.failTotal.Add(1)
	if p.failStreak.Add(1) == 1 && p.logf != nil {
		p.logf("persistence failed (withholding acks until it recovers): %v", err)
	}
}

// noteSuccess closes a failure streak, logging the recovery once.
func (p *Persister) noteSuccess() {
	if streak := p.failStreak.Swap(0); streak > 0 && p.logf != nil {
		p.logf("persistence recovered after %d consecutive failures", streak)
	}
}

// Failures reports the rule's health: the current consecutive-failure
// streak (0 = healthy) and the lifetime total. While the streak is open, a
// driver runs an empty Job when no traffic brings one, for the held
// self-acks and the redo batch to retry in.
func (p *Persister) Failures() (streak, total int64) {
	return p.failStreak.Load(), p.failTotal.Load()
}

// stage hands one job to the persister, blocking — and counting the
// stall — only when the in-flight window is full. Event loop only.
func (n *Node) stage(job Job) {
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
}

// persister is the goroutine shell around Persister.Round: it drains
// whatever is staged into one round. It exits when the event loop closes
// stageCh (after staging the shutdown flush), having completed every
// staged job.
func (n *Node) persister() {
	defer close(n.persistDone)
	var jobs []Job
	open := true
	for open {
		job, ok := <-n.stageCh
		if !ok {
			return
		}
		jobs = append(jobs[:0], job)
		// Coalesce: every job already staged joins this drain and shares
		// its sync. The stage channel's capacity bounds the batch.
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
		n.persist.Round(jobs)
		n.inflightCur.Add(-int64(len(jobs)))
	}
}

// PersistStats reports the pipeline's counters: total nanoseconds inside
// sync/save calls (off the event loop), group-committed sync batches
// issued, event-loop nanoseconds blocked on a full staging window, and
// the high-water mark of staged-but-incomplete rounds.
func (n *Node) PersistStats() (syncNs, syncBatches, loopStallNs, inflightMax int64) {
	return n.persist.syncNs.Load(), n.persist.syncBatches.Load(), n.loopStallNs.Load(), n.inflightMax.Load()
}
