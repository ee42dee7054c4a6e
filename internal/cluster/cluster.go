// Package cluster is the live (non-simulated) runtime: it drives a
// consensus engine with a wall-clock ticker over a Transport, persists
// hard state and log entries, applies commits to the replicated key-value
// store, and offers a blocking client API (Put/Get).
//
// The hot path is batched and pipelined end to end. Each event-loop
// iteration drains the submit and inbox channels (bounded by maxBatch)
// and feeds the engine a whole batch of writes at once — engines whose
// wire protocols carry multi-entry accepts/appends turn that one
// Engine.Submit call into one broadcast. Persistence is accept-time and
// asynchronous (pipeline.go): the event loop stages each iteration's
// persistence work onto an ordered pipeline with a bounded in-flight
// window and keeps stepping the engine while a persister goroutine runs
// the fsync and releases a round's BarrierMessages only once its entries
// and hard state are durable — so every vote grant and append/accept ack,
// the leader's ack to itself included, refers to state that survives a
// full-cluster power loss (quorum ack ⇒ durable), while consecutive
// rounds with no intervening promise share one fsync. Because no
// engine counts a copy toward its commit quorum before such an ack proved
// it durable, a commit needs no barrier of its own: commits, client
// replies and confirmed reads go from the loop straight to a dedicated
// applier goroutine, so the consensus loop never blocks on the state
// machine or on waiting clients. All engine access stays serialized
// through the one event loop, matching the engines' single-threaded
// contract.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/kvstore"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
	"raftpaxos/internal/wire"
)

// MsgReply routes a committed request's response back to the node the
// client is attached to.
//
// Wire format (wire.TagClusterReply): CmdID uvarint, Value bytes,
// ErrText string — field order is frozen; append new fields at the end
// only.
type MsgReply struct {
	CmdID   uint64
	Value   []byte
	ErrText string
}

// WireSize implements protocol.Message.
func (m *MsgReply) WireSize() int { return 24 + len(m.Value) }

// RegisterMessages binds the cluster-level wire types into the binary
// codec registry for TCP deployments. Engine messages register themselves
// inside internal/wire; this package sits above the transport, so its
// types register from here. Idempotent.
func RegisterMessages() {
	wire.Register(wire.TagClusterReply, &MsgReply{}, wire.Codec{
		New: func() protocol.Message { return &MsgReply{} },
		Append: func(b []byte, msg protocol.Message) []byte {
			m := msg.(*MsgReply)
			b = wire.AppendUvarint(b, m.CmdID)
			b = wire.AppendBytes(b, m.Value)
			return wire.AppendString(b, m.ErrText)
		},
		Decode: func(r *wire.Reader) (protocol.Message, error) {
			m := &MsgReply{}
			m.CmdID = r.Uvarint()
			m.Value = r.Bytes()
			m.ErrText = r.String()
			return m, r.Err()
		},
	})
}

// Config assembles a node.
type Config struct {
	Engine    protocol.Engine
	Transport transport.Transport
	// Stable optionally persists hard state and entries (nil = volatile).
	Stable storage.Store
	// Group is the consensus group this runtime serves when it is one of
	// several hosted in the same process (see Host). Purely labeling at
	// this layer — the Host's per-group transport adapter stamps outbound
	// records and its demux feeds this runtime only its own group's
	// messages — but it keeps log lines attributable when N groups share
	// one replica ID space.
	Group uint64
	// TickInterval drives the engine's logical clock (default 10ms).
	TickInterval time.Duration
	// Ticks, when non-nil, replaces the internal wall-clock ticker as the
	// engine's tick source: the event loop ticks once per value received
	// and TickInterval is ignored. Tests use it to drive skewed, paused,
	// or deterministic per-node clocks; closing the channel stops ticking
	// (the node keeps processing messages).
	Ticks <-chan time.Time
	// SnapshotInterval, when > 0 and Stable is set, makes the applier
	// snapshot the state machine every SnapshotInterval applied entries,
	// persist the image off the consensus loop's critical path, compact
	// the WAL below it, and ask the event loop to drop the engine's
	// in-memory prefix. 0 disables snapshotting (unbounded log and WAL).
	SnapshotInterval int
}

const (
	// maxBatch bounds how many queued inputs (submissions + messages) one
	// event-loop iteration drains into a single engine batch and a single
	// persistence round.
	maxBatch = 256
	// persistWindow bounds how many staged persistence rounds may sit in
	// the pipeline between the event loop and the persister goroutine. The
	// loop stages rounds without waiting while the window has room and
	// blocks (counted in PersistStats loop-stall time) when the disk falls
	// behind — backpressure instead of unbounded queueing.
	persistWindow = 64
)

// Response completes a client call.
type Response struct {
	Value []byte
	Err   error
}

type inbound struct {
	from protocol.NodeID
	msg  protocol.Message
}

type submitReq struct {
	cmd  protocol.Command
	read bool
}

// applyBatch carries one iteration's commits and replies to the applier.
type applyBatch struct {
	commits []protocol.CommitInfo
	replies []protocol.ClientReply
	reads   []protocol.ReadState
	// install, when non-nil, is a snapshot image the engine adopted over
	// the wire this iteration: the applier restores the state machine from
	// it strictly before applying the batch's commits (which continue
	// above the image boundary). The durable half — persisting the image
	// and jumping the WAL's compaction base — runs on the persister, before
	// any entry above the boundary is appended.
	install *protocol.SnapshotImage
	// seq is the newest persistence round staged when the batch left the
	// loop: every entry the batch applies was staged in it or before it, so
	// a snapshot of the state the batch leaves may be saved once that round
	// is durable (Node.durableSeq).
	seq int64
}

// Node is one live replica of one consensus group: the group-scoped
// runtime (engine, WAL/snapshot store, persister pipeline, applier, read
// plumbing). A process serves one replicated log with a single Node, or
// N independent logs by running N of them under a Host, multiplexed over
// a shared transport.
type Node struct {
	cfg   Config
	id    protocol.NodeID
	group uint64
	store *kvstore.Store

	inbox   chan inbound
	submits chan submitReq
	applyCh chan applyBatch
	// truncCh carries snapshot watermarks from the applier back to the
	// event loop, which owns the engine: the loop truncates the engine's
	// in-memory prefix there, preserving the single-threaded contract.
	truncCh chan int64

	mu      sync.Mutex
	waiters map[uint64]chan Response
	nextID  atomic.Uint64
	// epoch makes command IDs unique across process incarnations. Entries
	// are persisted at accept time and re-committed after a restart with
	// their original command IDs; if a fresh node reused the same ID
	// space (the counter restarts at zero), the replies for those
	// restored commits would complete the new incarnation's first
	// waiters with the old commands' results.
	epoch uint64

	// Leadership view cached by the event loop: engines are
	// single-threaded, so outside readers must not touch them directly.
	isLeader atomic.Bool
	leaderID atomic.Int64

	// Snapshot-path observability. snapFailStreak counts consecutive
	// snapshot/compaction round failures (0 = healthy), snapFailTotal the
	// lifetime total; transitions are logged once, so a wedged snapshot
	// path is visible without flooding. The transfer counters record
	// wire-level catch-up work: chunks/bytes shipped to stranded peers and
	// images installed from peers.
	snapFailStreak atomic.Int64
	snapFailTotal  atomic.Int64
	snapChunksSent atomic.Int64
	snapBytesSent  atomic.Int64
	snapInstalls   atomic.Int64

	// Read-path observability: readsFast counts reads served without a
	// log append (ReadIndex states and lease-engine local reads answered
	// at this node), readsLog reads that replicated through the log as
	// entries (the slow path — zero when the fast path is on).
	readsFast atomic.Int64
	readsLog  atomic.Int64

	// The asynchronous persistence pipeline (see pipeline.go): stageCh
	// carries jobs in staging order to the persister goroutine, which runs
	// persist.Round; its capacity is the in-flight window. stagedSeq
	// numbers the jobs as the loop stages them (loop only).
	persist     *Persister
	stageCh     chan Job
	persistDone chan struct{}
	stagedSeq   int64
	// selfMsgs are self-addressed barrier messages — the engine's own acks
	// — that the persister released; the loop steps them as if a peer sent
	// them, woken by selfCh (capacity 1). The hand-back never blocks: the
	// loop may itself be blocked staging into a full window.
	selfMu   sync.Mutex
	selfMsgs []protocol.Message
	selfCh   chan struct{}

	// Pipeline observability: event-loop nanoseconds blocked on a full
	// staging window, and the high-water mark of staged-but-incomplete
	// rounds.
	loopStallNs atomic.Int64
	inflightCur atomic.Int64
	inflightMax atomic.Int64

	stop      chan struct{}
	done      chan struct{}
	applyDone chan struct{}
}

// ErrStopped is returned for calls against a stopped node.
var ErrStopped = errors.New("cluster: node stopped")

var _ protocol.SnapshotInstaller = (*Node)(nil)

// New assembles a node (call Start to run it).
func New(cfg Config) *Node {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	// Wire the snapshot provider before the engine processes any input:
	// a leader whose compaction stranded a peer ships the newest durable
	// image over the wire instead of probing forever.
	if sender, ok := cfg.Engine.(protocol.SnapshotSender); ok && cfg.Stable != nil {
		sender.SetSnapshotProvider(protocol.SnapshotProviderFunc(func() (protocol.SnapshotImage, bool) {
			snap, ok, err := cfg.Stable.LatestSnapshot()
			if err != nil || !ok {
				return protocol.SnapshotImage{}, false
			}
			return protocol.SnapshotImage{Index: snap.Index, Term: snap.Term, Data: snap.State}, true
		}))
	}
	n := &Node{
		cfg:         cfg,
		id:          cfg.Engine.ID(),
		group:       cfg.Group,
		epoch:       uint64(rand.Uint32() & 0xffffff),
		store:       kvstore.New(),
		inbox:       make(chan inbound, 4096),
		submits:     make(chan submitReq, 1024),
		applyCh:     make(chan applyBatch, 256),
		truncCh:     make(chan int64, 1),
		stageCh:     make(chan Job, persistWindow),
		selfCh:      make(chan struct{}, 1),
		waiters:     make(map[uint64]chan Response),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		applyDone:   make(chan struct{}),
		persistDone: make(chan struct{}),
	}
	n.persist = NewPersister(n.id, cfg.Stable, n.send, time.Now, n.logf)
	return n
}

// ID returns the replica identity.
func (n *Node) ID() protocol.NodeID { return n.id }

// Group returns the consensus group this runtime serves (0 when the
// process runs a single group).
func (n *Node) Group() uint64 { return n.group }

// name labels log lines with enough to find the runtime when N groups
// share one replica ID space.
func (n *Node) name() string {
	if n.group == 0 {
		return fmt.Sprintf("node %d", n.id)
	}
	return fmt.Sprintf("group %d node %d", n.group, n.id)
}

// Store exposes the applied state machine (reads of applied state).
func (n *Node) Store() *kvstore.Store { return n.store }

// Engine exposes the wrapped engine. Engines are single-threaded: callers
// may only touch it before Start or after Stop; use IsLeader/LeaderID for
// live inspection.
func (n *Node) Engine() protocol.Engine { return n.cfg.Engine }

// FastPathStats reports the fast write path's counters through
// protocol.FastStatser (zeros when the engine does not expose them).
// Engines are single-threaded: call before Start or after Stop.
func (n *Node) FastPathStats() protocol.FastStats {
	if s, ok := n.cfg.Engine.(protocol.FastStatser); ok {
		return s.FastStats()
	}
	return protocol.FastStats{}
}

// IsLeader reports the event loop's last observation of leadership.
func (n *Node) IsLeader() bool { return n.isLeader.Load() }

// LeaderID reports the event loop's last observation of the leader
// (protocol.None when unknown).
func (n *Node) LeaderID() protocol.NodeID { return protocol.NodeID(n.leaderID.Load()) }

// HandleMessage is the transport inbound hook. A MsgReply is for a client
// waiting at this node, not for the engine: it completes the waiter right
// here on the transport's goroutine, so the client wakes without an
// event-loop iteration in between — and a node whose inbox is backed up
// still answers its clients (and never blocks the transport reader on a
// reply).
func (n *Node) HandleMessage(from protocol.NodeID, msg protocol.Message) {
	if m, ok := msg.(*MsgReply); ok {
		n.completeLocal(m)
		return
	}
	select {
	case n.inbox <- inbound{from: from, msg: msg}:
	case <-n.stop:
	}
}

// Start launches the event loop, the persister, and the applier.
func (n *Node) Start() {
	go n.applier()
	go n.persister()
	go n.run()
}

// Stop terminates the event loop, drains the persistence pipeline (every
// staged round completes — withheld acks release or fail — before the
// applier shuts down), drains the applier, and fails outstanding waiters.
func (n *Node) Stop() {
	close(n.stop)
	<-n.done
	<-n.persistDone
	close(n.applyCh)
	<-n.applyDone
	n.mu.Lock()
	for id, ch := range n.waiters {
		ch <- Response{Err: ErrStopped}
		delete(n.waiters, id)
	}
	n.mu.Unlock()
}

func (n *Node) run() {
	defer close(n.done)
	n.leaderID.Store(int64(protocol.None))
	if err := n.restoreHardState(); err != nil {
		// The store holds recorded state this process cannot read.
		// Running anyway could vote twice in a term this replica already
		// voted in, or serve a log with entries silently missing —
		// refuse to start instead (the node stays up but inert; Stop
		// works normally). stageCh closes without the shutdown flush so
		// the unreadable-but-recorded hard state is never overwritten.
		n.logf("refusing to start: recorded hard state unreadable: %v", err)
		close(n.stageCh)
		return
	}
	// Shutdown of the pipeline: stage one final forced hard-state save —
	// commit-only movement is throttled (see Persister.Round), so without
	// it a clean restart would re-commit the last interval — then close
	// the stage channel; the persister drains every staged round and
	// exits. Registered after the done defer, so it runs first: Stop's
	// <-n.done ⇒ the final round is staged and the channel closed.
	defer func() {
		if n.cfg.Stable != nil {
			n.stage(Job{hs: hardState(n.cfg.Engine), saveHS: true, force: true})
		}
		close(n.stageCh)
	}()
	tickC := n.cfg.Ticks
	if tickC == nil {
		ticker := time.NewTicker(n.cfg.TickInterval)
		defer ticker.Stop()
		tickC = ticker.C
	}
	for {
		var out protocol.Output
		var writes, reads []protocol.Command
		select {
		case <-n.stop:
			return
		case _, ok := <-tickC:
			if !ok {
				// Injected tick source closed: this node's clock stops
				// (a paused clock, not a dead node).
				tickC = nil
				continue
			}
			out = n.cfg.Engine.Tick()
			if streak, _ := n.persist.Failures(); streak > 0 {
				// Persistence is failing: a leader's held self-ack and the
				// redo backlog need a round to retry in even when no
				// traffic stages one.
				n.stage(Job{})
			}
		case in := <-n.inbox:
			out = n.cfg.Engine.Step(in.from, in.msg)
		case <-n.selfCh:
			n.selfMu.Lock()
			msgs := n.selfMsgs
			n.selfMsgs = nil
			n.selfMu.Unlock()
			for _, m := range msgs {
				out.Merge(n.cfg.Engine.Step(n.id, m))
			}
		case req := <-n.submits:
			n.stepSubmit(req, &writes, &reads)
		case through := <-n.truncCh:
			// The applier persisted a snapshot at `through` and compacted
			// the WAL; drop the engine's in-memory prefix on the loop that
			// owns the engine.
			n.cfg.Engine.TruncatePrefix(through)
		}
		n.drain(&out, &writes, &reads)
		if len(writes) > 0 {
			out.Merge(n.cfg.Engine.Submit(writes...))
		}
		// Reads after writes: the batch's reads share one read index and
		// one confirmation round (ReadIndex engines), or hit the lease
		// fast path per command.
		if len(reads) > 0 {
			out.Merge(n.cfg.Engine.SubmitRead(reads...))
		}
		n.finish(out)
		n.isLeader.Store(n.cfg.Engine.IsLeader())
		n.leaderID.Store(int64(n.cfg.Engine.Leader()))
	}
}

// restoreHardState primes the engine with the durably recorded term,
// vote, snapshot, and logged entries before it processes any input: the
// term/vote keep a restarted replica from voting twice in a term it
// already voted in, and the snapshot + restored tail keep data alive
// across a full cluster restart while making restart cost O(snapshot +
// tail) instead of O(history). Entries are persisted at accept time, so
// the restored tail runs past the saved commit index: commit anchors at
// the hard state's watermark and the engine receives the whole persisted
// tail, including an accepted-but-uncommitted (possibly conflicting, to
// be overwritten by the next leader) suffix — the half of the durability
// barrier that makes a quorum-acked suffix commit after the crash instead
// of vanishing.
//
// A non-nil error means the store RECORDS hard state but cannot read it
// back (storage.Store.HardState's contract distinguishes this from a
// fresh store, which restores as zero state with no error). That is the
// one unrecoverable case: proceeding could double-vote in the recorded
// term, so the caller refuses to start the node.
func (n *Node) restoreHardState() error {
	if n.cfg.Stable == nil {
		return nil
	}
	hs, err := n.cfg.Stable.HardState()
	if err != nil {
		return err
	}
	n.cfg.Engine.RestoreHardState(hs.Term, hs.VotedFor)
	snapIdx, base, restorable := n.restoreSnapshot()
	if !restorable {
		// The directory was compacted but no decodable snapshot covers the
		// compacted prefix: a partial restore would bring the replica up
		// with entries silently missing from its state machine. Starting
		// empty is safe — the replica cannot win elections against peers
		// holding the data and never serves what it does not have.
		return nil
	}
	last, err := n.cfg.Stable.LastIndex()
	if err != nil || last <= base {
		return nil
	}
	ents, err := n.cfg.Stable.Entries(base+1, last)
	if err != nil {
		return nil
	}
	commit := hs.Commit
	if commit > last {
		commit = last
	}
	if commit < snapIdx {
		commit = snapIdx // the snapshot only ever covers applied commits
	}
	n.cfg.Engine.RestoreLog(ents, commit)
	// Prime the state machine with the committed tail above the snapshot
	// (entries at or below it are already inside the restored image): the
	// engine resumes at that commit index and will not re-emit those
	// commits.
	for _, ent := range ents {
		if ent.Index > commit {
			break
		}
		if ent.Index <= snapIdx {
			continue
		}
		n.store.Apply(ent)
	}
	return nil
}

// restoreSnapshot rebuilds the state machine from the latest durable
// snapshot and anchors the engine's log at the storage compaction
// watermark — which trails the snapshot by the compaction margin, so the
// engine comes back holding the retained tail and can still serve appends
// to peers that stopped slightly behind the snapshot. Returns the snapshot
// index (0 when recovery starts from an empty state machine), the log
// anchor, and whether restoring may proceed at all: false means the
// directory was compacted but nothing decodable covers the compacted
// prefix, so any restore would be partial.
func (n *Node) restoreSnapshot() (snapIdx, base int64, restorable bool) {
	base, baseTerm, err := n.cfg.Stable.CompactionBase()
	if err != nil {
		return 0, 0, false
	}
	snap, ok, err := n.cfg.Stable.LatestSnapshot()
	if err != nil || !ok {
		return 0, 0, base == 0
	}
	if snap.Index < base {
		// Every decodable snapshot predates the compaction watermark:
		// entries (snap.Index, base] are gone from both.
		return 0, 0, false
	}
	if err := n.store.Restore(snap.State); err != nil {
		return 0, 0, base == 0
	}
	if base > 0 {
		n.cfg.Engine.RestoreSnapshot(base, baseTerm)
	}
	return snap.Index, base, true
}

// stepSubmit collects writes and reads for one batched submission each at
// the end of the drain (a read never extends the proposal batch; batched
// reads share one ReadIndex confirmation round).
func (n *Node) stepSubmit(req submitReq, writes, reads *[]protocol.Command) {
	if req.read {
		*reads = append(*reads, req.cmd)
		return
	}
	*writes = append(*writes, req.cmd)
}

// drain pulls whatever else is already queued — bounded by maxBatch — into
// the same iteration, so one persistence round and one broadcast cover
// the whole burst. Inbox order is preserved (per-pair FIFO depends on it).
func (n *Node) drain(out *protocol.Output, writes, reads *[]protocol.Command) {
	for budget := maxBatch; budget > 0; budget-- {
		select {
		case in := <-n.inbox:
			out.Merge(n.cfg.Engine.Step(in.from, in.msg))
		case req := <-n.submits:
			n.stepSubmit(req, writes, reads)
		default:
			return
		}
	}
}

// finish realizes one iteration's merged output. Persister.Split sends
// what promises nothing about stable storage at once; the rest is staged
// onto the persistence pipeline, which releases the round's barrier
// messages once it is durable, strictly in staging order. The loop never
// blocks on the disk while the window has room.
//
// Commits, client replies, confirmed reads and an adopted snapshot go
// from here straight to the applier. No engine commits on a copy that no
// barrier has proved durable — a leader's own vote counts only once its
// self-addressed ack comes back through the pipeline — so a committed
// entry is durable on a quorum, and its reply is true whether or not this
// replica's own WAL write has landed, or ever will.
func (n *Node) finish(out protocol.Output) {
	if job, ok := n.persist.Split(n.cfg.Engine, out); ok {
		n.stage(job)
	}
	if len(out.Commits) > 0 || len(out.Replies) > 0 || len(out.ReadStates) > 0 || out.InstalledSnapshot != nil {
		n.handOff(applyBatch{
			commits: out.Commits, replies: out.Replies, reads: out.ReadStates,
			install: out.InstalledSnapshot, seq: n.stagedSeq,
		})
	}
}

// handOff passes a batch to the applier.
func (n *Node) handOff(b applyBatch) {
	select {
	case n.applyCh <- b:
	case <-n.stop:
	}
}

// send puts one envelope on the transport, counting snapshot chunks; a
// self-addressed one — the engine's own ack — is handed back to the event
// loop instead. Safe from both the event loop and the persister
// (transports are concurrency-safe; the counters are atomics).
func (n *Node) send(env protocol.Envelope) {
	if env.To == n.id {
		n.selfMu.Lock()
		n.selfMsgs = append(n.selfMsgs, env.Msg)
		n.selfMu.Unlock()
		select {
		case n.selfCh <- struct{}{}:
		default: // a wake-up is already pending
		}
		return
	}
	if chunk, ok := env.Msg.(*protocol.MsgInstallSnapshot); ok {
		n.snapChunksSent.Add(1)
		n.snapBytesSent.Add(int64(len(chunk.Data)))
	}
	n.cfg.Transport.Send(env.From, env.To, env.Msg)
}

// PersistFailures reports the persistence path's health: the current
// consecutive-failure streak (0 = healthy) and the lifetime total.
func (n *Node) PersistFailures() (streak, total int64) { return n.persist.Failures() }

// logf logs one line labelled with the node's name.
func (n *Node) logf(format string, args ...any) {
	log.Printf("cluster: %s %s", n.name(), fmt.Sprintf(format, args...))
}

// applier hands each batch to one kvstore.Applier and routes its answers
// (answer), decoupled from the consensus loop so a slow store or a
// burst of waiting clients cannot stall replication. It also drives log
// compaction: every SnapshotInterval applied entries it serializes the
// state machine, persists the snapshot, compacts the WAL below it, and
// hands the watermark to the event loop for engine truncation — all off
// the consensus loop's critical path.
func (n *Node) applier() {
	defer close(n.applyDone)
	snapshots := n.cfg.SnapshotInterval > 0 && n.cfg.Stable != nil
	var (
		sinceSnap int
		lastApply protocol.Entry
		app       = kvstore.NewApplier(n.store)
		// snap is a serialized snapshot waiting for the rounds its state
		// was staged in (snapSeq) to become durable locally: commits reach
		// the applier without waiting on this replica's own WAL.
		snap    *storage.Snapshot
		snapSeq int64
	)
	for b := range n.applyCh {
		if b.install != nil {
			// A snapshot arrived over the wire: rebuild the state machine
			// from it before this batch's commits, which continue above the
			// boundary. Earlier batches were already applied — the restore
			// supersedes them wholesale. This shares the restart path's
			// primitive (StateMachine.Restore), so install and restart
			// recover through the same code.
			if err := n.InstallSnapshot(*b.install); err != nil {
				n.logf("failed to restore installed snapshot at %d: %v", b.install.Index, err)
			} else {
				lastApply = protocol.Entry{Index: b.install.Index, Term: b.install.Term}
				sinceSnap = 0
				snap = nil // the installed image supersedes it
			}
		}
		app.Apply(b.commits, b.replies, b.reads, n.answer)
		if k := len(b.commits); k > 0 {
			lastApply = b.commits[k-1].Entry
			sinceSnap += k
		}
		// Snapshot after replying, between batches: clients never wait on
		// serialization or the snapshot fsync. The state is serialized now
		// but saved only once this replica's own WAL durably holds every
		// entry it reflects — a restart must never anchor the engine below
		// a state machine that is ahead of it, nor compact entries that
		// reached no disk here.
		if snapshots && snap == nil && sinceSnap >= n.cfg.SnapshotInterval {
			sinceSnap = 0
			if state, err := n.store.Snapshot(); err != nil {
				n.noteSnapshotFailure("serialize", err)
			} else {
				snap = &storage.Snapshot{Index: lastApply.Index, Term: lastApply.Term, State: state}
				snapSeq = b.seq
			}
		}
		if snap != nil && snapSeq <= n.persist.durableSeq.Load() {
			n.saveAndCompact(*snap)
			snap = nil
		}
	}
}

// saveAndCompact persists one snapshot, drops the WAL one full interval
// behind it, and passes that watermark to the event loop so the engine
// can release its in-memory prefix. The margin keeps the last interval of
// entries individually readable, so a replica (or peer) that stopped
// slightly behind the snapshot can catch up by log replay instead of
// needing a snapshot transfer. A failed round is skipped (nothing is
// compacted without a durable snapshot covering it) and retried next
// interval — but never silently: consecutive failures are counted,
// surfaced through SnapshotFailures, and logged once per wedged/recovered
// transition.
func (n *Node) saveAndCompact(snap storage.Snapshot) {
	if err := n.cfg.Stable.SaveSnapshot(snap); err != nil {
		n.noteSnapshotFailure("save", err)
		return
	}
	through := snap.Index - int64(n.cfg.SnapshotInterval)
	if through <= 0 {
		n.noteSnapshotSuccess()
		return
	}
	if err := n.cfg.Stable.Compact(through); err != nil {
		n.noteSnapshotFailure("compact", err)
		return
	}
	n.noteSnapshotSuccess()
	// Replace any undelivered watermark: only the newest matters.
	for {
		select {
		case n.truncCh <- through:
			return
		default:
		}
		select {
		case <-n.truncCh:
		default:
		}
	}
}

// ReadStats reports the read paths taken: fast is reads served with no
// log append (ReadIndex confirmations and lease-engine local reads
// answered at this node), logged is reads that replicated through the
// log as entries — zero when the fast path is active.
func (n *Node) ReadStats() (fast, logged int64) {
	return n.readsFast.Load(), n.readsLog.Load()
}

// InstallSnapshot implements protocol.SnapshotInstaller: rebuild the
// state machine from a snapshot image received over the wire. It runs on
// the applier, strictly ordered between the apply batches before and
// after the install; the durable half (SnapshotStore.InstallSnapshot —
// persisting the image and jumping the WAL base) runs on the persister,
// before any entry above the boundary is appended.
func (n *Node) InstallSnapshot(img protocol.SnapshotImage) error {
	if err := n.store.Restore(img.Data); err != nil {
		return err
	}
	n.snapInstalls.Add(1)
	return nil
}

// noteSnapshotFailure records one failed snapshot/compaction round,
// logging only the transition into the failed state so a wedged snapshot
// path is observable without flooding.
func (n *Node) noteSnapshotFailure(stage string, err error) {
	n.snapFailTotal.Add(1)
	if n.snapFailStreak.Add(1) == 1 {
		n.logf("snapshot %s failed (retrying every interval): %v", stage, err)
	}
}

// noteSnapshotSuccess closes a failure streak, logging the recovery once.
func (n *Node) noteSnapshotSuccess() {
	if streak := n.snapFailStreak.Swap(0); streak > 0 {
		n.logf("snapshot path recovered after %d consecutive failures", streak)
	}
}

// SnapshotFailures reports the snapshot path's health: the current
// consecutive-failure streak (0 = healthy) and the lifetime failure
// total.
func (n *Node) SnapshotFailures() (streak, total int64) {
	return n.snapFailStreak.Load(), n.snapFailTotal.Load()
}

// SnapshotTransferStats reports wire-level catch-up work: snapshot chunks
// and payload bytes shipped to stranded peers, and images installed from
// peers.
func (n *Node) SnapshotTransferStats() (chunksSent, bytesSent, installs int64) {
	return n.snapChunksSent.Load(), n.snapBytesSent.Load(), n.snapInstalls.Load()
}

// answer routes one kvstore.Applier answer to the node its client is
// attached to, counting the read path it took.
func (n *Node) answer(rep protocol.ClientReply, src kvstore.Source) {
	switch {
	case rep.Kind != protocol.ReplyRead || rep.Err != nil:
	case src == kvstore.FromCommit:
		n.readsLog.Add(1) // a read that replicated as a log entry
	default:
		n.readsFast.Add(1) // a ReadIndex or lease read: no log append
	}
	m := &MsgReply{CmdID: rep.CmdID, Value: rep.Value}
	if rep.Err != nil {
		m.ErrText = rep.Err.Error()
	}
	if rep.Client == n.id {
		n.completeLocal(m)
		return
	}
	n.cfg.Transport.Send(n.id, rep.Client, m)
}

func (n *Node) completeLocal(m *MsgReply) {
	n.mu.Lock()
	ch, ok := n.waiters[m.CmdID]
	if ok {
		delete(n.waiters, m.CmdID)
	}
	n.mu.Unlock()
	if !ok {
		return // duplicate or late reply
	}
	resp := Response{Value: m.Value}
	if m.ErrText != "" {
		resp.Err = fmt.Errorf("remote: %s", m.ErrText)
	}
	ch <- resp
}

func (n *Node) enqueue(ctx context.Context, cmd protocol.Command, read bool) (Response, error) {
	ch := make(chan Response, 1)
	n.mu.Lock()
	n.waiters[cmd.ID] = ch
	n.mu.Unlock()
	select {
	case n.submits <- submitReq{cmd: cmd, read: read}:
	case <-ctx.Done():
		n.abandon(cmd.ID)
		return Response{}, ctx.Err()
	case <-n.stop:
		n.abandon(cmd.ID)
		return Response{}, ErrStopped
	}
	select {
	case resp := <-ch:
		return resp, resp.Err
	case <-ctx.Done():
		n.abandon(cmd.ID)
		return Response{}, ctx.Err()
	case <-n.stop:
		return Response{}, ErrStopped
	}
}

func (n *Node) abandon(id uint64) {
	n.mu.Lock()
	delete(n.waiters, id)
	n.mu.Unlock()
}

// newCmd mints a command whose ID is unique per node (high byte), per
// incarnation (24-bit random epoch), and per request (32-bit counter), so
// a reply for a command accepted before a crash can never complete a
// waiter created after it.
func (n *Node) newCmd(op protocol.Op, key string, value []byte) protocol.Command {
	return protocol.Command{
		ID:     uint64(n.id)<<56 | n.epoch<<32 | (n.nextID.Add(1) & 0xffffffff),
		Client: n.id,
		Op:     op,
		Key:    key,
		Value:  value,
	}
}

// Put replicates a write and waits for it to commit.
func (n *Node) Put(ctx context.Context, key string, value []byte) error {
	_, err := n.enqueue(ctx, n.newCmd(protocol.OpPut, key, append([]byte(nil), value...)), false)
	return err
}

// Get performs a strongly consistent read at this replica. With a
// ReadIndex engine the leader serves it from the state machine after one
// confirmation round (followers forward to the leader) — no log append,
// no fsync; lease engines serve it locally under an active quorum lease;
// otherwise it replicates through the log like a write.
func (n *Node) Get(ctx context.Context, key string) ([]byte, error) {
	resp, err := n.enqueue(ctx, n.newCmd(protocol.OpGet, key, nil), true)
	return resp.Value, err
}
