package protocol

// Wire-level snapshot transfer (InstallSnapshot), built once here as
// CatchUp and shared by every engine that can strand a peer behind its
// compaction base. The paper's thesis is that optimizations port across the
// Paxos/Raft family through the shared refinement; the same holds for the
// catch-up machinery that complements log compaction: Raft and Raft*
// leaders ship the image when next[peer] falls below the held tail, and
// MultiPaxos does the equivalent for acceptors (and preparers) behind a
// peer's compaction base — all over the one message pair defined here.
//
// Transfers are chunked: a multi-megabyte state-machine image must not
// ride the single per-peer FIFO stream as one frame, or every heartbeat
// behind it would be head-of-line blocked for the whole encode/transmit.
// The sender keeps one chunk in flight and advances on each ack
// (MsgInstallSnapshotResp.NextOffset), so heartbeats interleave freely
// and a lost chunk costs one retry round, not the transfer.

// SnapshotChunkSize caps the payload of one MsgInstallSnapshot frame.
// Heartbeats queued behind a chunk on the same per-peer stream wait for
// at most this many bytes.
const SnapshotChunkSize = 64 << 10

// SnapshotImage is a serialized state-machine image plus the log position
// it covers: every entry at or below Index (whose entry had Term) is
// reflected in Data.
type SnapshotImage struct {
	Index int64
	Term  uint64
	Data  []byte
}

// SnapshotProvider hands an engine the newest durable snapshot image so
// it can ship it to a stranded peer. Live drivers adapt their snapshot
// store; tests supply fixtures.
type SnapshotProvider interface {
	// LatestSnapshotImage returns the newest durable image, if any.
	LatestSnapshotImage() (SnapshotImage, bool)
}

// SnapshotProviderFunc adapts a function to SnapshotProvider.
type SnapshotProviderFunc func() (SnapshotImage, bool)

// LatestSnapshotImage implements SnapshotProvider.
func (f SnapshotProviderFunc) LatestSnapshotImage() (SnapshotImage, bool) { return f() }

// SnapshotSender is an optional Engine extension: engines that can ship
// snapshots accept the provider from their driver before the first step.
type SnapshotSender interface {
	SetSnapshotProvider(p SnapshotProvider)
}

// SnapshotInstaller is the driver-side half of the transfer contract: a
// node that can persist a received image and restore its state machine
// from it. Engines never call it directly — they adopt the image into
// their own log state during Step and surface it via
// Output.InstalledSnapshot; the driver installs it in apply order,
// reusing the same snapshot-restore path it uses at restart.
type SnapshotInstaller interface {
	InstallSnapshot(img SnapshotImage) error
}

// Wire stability: the transfer messages travel the live wire through internal/wire;
// exported field ORDER is the encoded layout and is frozen. Append new
// fields at the end and bump the transport's wireVersion.
//
// MsgInstallSnapshot carries one chunk of a snapshot image to a peer that
// cannot be caught up by log replay (its next needed index fell below the
// sender's compaction base).
type MsgInstallSnapshot struct {
	// Term is the sender's term (ballot); stale transfers are rejected
	// exactly like stale appends.
	Term uint64
	// Index/SnapTerm identify the snapshot: its last included entry.
	Index    int64
	SnapTerm uint64
	// Offset is the byte position of Data within the image; chunks arrive
	// in offset order on the per-pair FIFO stream.
	Offset int64
	Data   []byte
	// Done marks the final chunk.
	Done bool
}

// WireSize implements Message.
func (m *MsgInstallSnapshot) WireSize() int { return 40 + len(m.Data) }

// MsgInstallSnapshotResp acks one chunk (NextOffset paces the sender) or
// reports the whole image installed, at which point replication resumes
// from Index+1.
type MsgInstallSnapshotResp struct {
	Term  uint64
	Index int64
	// NextOffset is the byte the receiver expects next; a duplicate or
	// gapped chunk re-synchronizes the sender here.
	NextOffset int64
	// Installed reports the image was adopted (or was already covered by
	// the receiver's commit): the sender may resume appends above Index.
	Installed bool
}

// WireSize implements Message.
func (m *MsgInstallSnapshotResp) WireSize() int { return 32 }

// RequiresBarrier implements BarrierMessage: chunk acks pace a transfer
// the receiver must be able to resume, and the final Installed ack
// promises the image is durably adopted.
func (m *MsgInstallSnapshotResp) RequiresBarrier() {}

// CatchUp is that machinery for one replica: a SnapshotXfer per stranded
// peer and the SnapshotAssembly of an inbound image. The engine lends what
// differs between the families: when a peer is stranded, its step-down
// before a chunk from a higher term, installing an image into its log, and
// resuming replication to a peer that installed one.
type CatchUp struct {
	id       NodeID
	provider SnapshotProvider
	xfers    map[NodeID]*SnapshotXfer
	asm      SnapshotAssembly
}

// NewCatchUp builds the catch-up half of replica id.
func NewCatchUp(id NodeID) CatchUp { return CatchUp{id: id} }

// SetProvider wires the driver's snapshot store; without one a stranded
// peer stays stranded.
func (c *CatchUp) SetProvider(p SnapshotProvider) { c.provider = p }

// Send starts, or nudges, the shipment of the newest durable image to p,
// which needs an index below first, the lowest this replica holds. A
// transfer under way re-sends its chunk only after a whole retry interval
// of silence (SnapshotXfer.Retry). An image ending below first-1 is not
// sent: p could not resume replay above it.
func (c *CatchUp) Send(p NodeID, term uint64, first int64, out *Output) {
	if x, ok := c.xfers[p]; ok {
		if x.Retry() {
			c.chunk(p, x, term, out)
		}
		return
	}
	if c.provider == nil {
		return
	}
	img, ok := c.provider.LatestSnapshotImage()
	if !ok || img.Index+1 < first {
		return
	}
	if c.xfers == nil {
		c.xfers = make(map[NodeID]*SnapshotXfer)
	}
	x := &SnapshotXfer{Img: img}
	c.xfers[p] = x
	c.chunk(p, x, term, out)
}

// Ack paces the transfer to from: the next chunk goes out, or the transfer
// ends when the receiver ran past the image. It reports whether the
// receiver installed the image, the engine's cue to resume replication
// above it. An ack from an older transfer, or at another term, is ignored.
func (c *CatchUp) Ack(from NodeID, m *MsgInstallSnapshotResp, term uint64, out *Output) bool {
	x := c.xfers[from]
	if x == nil || x.Img.Index != m.Index || m.Term != term {
		return false
	}
	if m.Installed {
		delete(c.xfers, from)
		return true
	}
	x.Ack(m.NextOffset)
	if !c.chunk(from, x, term, out) {
		delete(c.xfers, from)
	}
	return false
}

// Drop abandons every outbound transfer on a step-down: they carry the old
// term, and a new leadership restarts them on demand.
func (c *CatchUp) Drop() { c.xfers = nil }

// Receive answers one chunk at a replica now at term (the engine stepped
// down first if m.Term was higher) whose commit index or chosen prefix is
// commit, and returns the image once its last chunk lands, for the engine
// to install. A chunk from an older term is refused; an image commit
// already covers is acked as installed; a chunk of a transfer losing to a
// better one gets no answer, so its retries cannot clobber the winner.
func (c *CatchUp) Receive(from NodeID, m *MsgInstallSnapshot, term uint64, commit int64, out *Output) (SnapshotImage, bool) {
	resp := &MsgInstallSnapshotResp{Term: term, Index: m.Index}
	var img SnapshotImage
	switch {
	case m.Term < term:
	case m.Index <= commit:
		c.asm.Reset()
		resp.Installed = true
		resp.NextOffset = m.Offset + int64(len(m.Data))
	default:
		var next int64
		img, resp.Installed, next = c.asm.Accept(m)
		if next < 0 {
			return SnapshotImage{}, false
		}
		resp.NextOffset = next
	}
	out.Msgs = append(out.Msgs, Envelope{From: c.id, To: from, Msg: resp})
	return img, resp.Installed && m.Index > commit
}

// chunk sends x's current chunk to p, or reports the image exhausted.
func (c *CatchUp) chunk(p NodeID, x *SnapshotXfer, term uint64, out *Output) bool {
	m := x.Chunk(term)
	if m == nil {
		return false
	}
	out.Msgs = append(out.Msgs, Envelope{From: c.id, To: p, Msg: m})
	return true
}

// SnapshotXfer is the sender side of one in-flight transfer: one chunk
// outstanding, advanced by acks. CatchUp keeps one per stranded peer.
type SnapshotXfer struct {
	Img    SnapshotImage
	Offset int64
	// idle damps retries: a stalled transfer re-sends its current chunk
	// only after two consecutive retry triggers with no ack between them,
	// so the regular heartbeat-cadence probe does not duplicate chunks
	// that are merely still in flight.
	idle bool
}

// Chunk builds the frame at the current offset (nil when the image is
// exhausted, which only happens after the final ack).
func (x *SnapshotXfer) Chunk(term uint64) *MsgInstallSnapshot {
	total := int64(len(x.Img.Data))
	if x.Offset > total || (x.Offset == total && total > 0) {
		return nil
	}
	end := min(x.Offset+SnapshotChunkSize, total)
	x.idle = false
	return &MsgInstallSnapshot{
		Term:     term,
		Index:    x.Img.Index,
		SnapTerm: x.Img.Term,
		Offset:   x.Offset,
		Data:     x.Img.Data[x.Offset:end],
		Done:     end == total,
	}
}

// Ack adopts the receiver's expected offset; the caller then sends
// Chunk() from there.
func (x *SnapshotXfer) Ack(next int64) {
	x.Offset = max(next, 0)
	x.idle = false
}

// Retry reports whether a stalled transfer should re-send its current
// chunk now: the first trigger after an ack only arms the retry, the
// second (nothing heard for a whole retry interval) fires it.
func (x *SnapshotXfer) Retry() bool {
	fire := x.idle
	x.idle = true
	return fire
}

// SnapshotAssembly is the receiver side: it accumulates chunks arriving
// in offset order and yields the complete image. A chunk from a different
// snapshot (new leader, newer snapshot) restarts assembly from offset 0 —
// unless it is the same image, in which case a new sender may resume
// exactly where the old one stopped, since images at one index are
// deterministic and identical across replicas.
type SnapshotAssembly struct {
	index      int64
	term       uint64
	senderTerm uint64
	buf        []byte
	started    bool
}

// Accept ingests one chunk. It returns the completed image (valid only
// when done is true) and the byte offset the assembly expects next, which
// the receiver acks so the sender re-synchronizes after loss, duplication
// or a mid-transfer leader change. next < 0 means the chunk belongs to a
// transfer the assembly is deliberately ignoring (an older image, or an
// older sender, while a better transfer is in progress): send no ack at
// all, so the competing senders cannot clobber each other's progress —
// the loser's damped retries resolve via the already-covered path once
// the winning image installs.
func (a *SnapshotAssembly) Accept(m *MsgInstallSnapshot) (img SnapshotImage, done bool, next int64) {
	switch {
	case a.started && a.index == m.Index && a.term == m.SnapTerm:
		if m.Term < a.senderTerm {
			return SnapshotImage{}, false, -1 // stale sender of the same image
		}
		// Same image, possibly resumed by a newer sender after a leader
		// change: images at one index are deterministic and identical
		// across replicas, so the new sender continues where the old one
		// stopped.
		a.senderTerm = m.Term
	case a.started && m.Term < a.senderTerm:
		return SnapshotImage{}, false, -1 // stale sender shipping an old image
	case a.started && m.Term == a.senderTerm && m.Index < a.index:
		// A competing transfer of an older image at the same term (two
		// MultiPaxos acceptors answering one stranded prepare): keep the
		// newer image in flight.
		return SnapshotImage{}, false, -1
	default:
		if m.Offset != 0 {
			// Mid-image chunk of a transfer we hold no prefix for: ask the
			// sender to restart from the beginning. Any current assembly
			// is kept — adoption happens only on an offset-0 chunk.
			return SnapshotImage{}, false, 0
		}
		a.index, a.term, a.senderTerm, a.buf, a.started = m.Index, m.SnapTerm, m.Term, nil, true
	}
	if m.Offset != int64(len(a.buf)) {
		// Duplicate or gapped chunk: report where we actually are.
		return SnapshotImage{}, false, int64(len(a.buf))
	}
	a.buf = append(a.buf, m.Data...)
	if !m.Done {
		return SnapshotImage{}, false, int64(len(a.buf))
	}
	img = SnapshotImage{Index: a.index, Term: a.term, Data: a.buf}
	a.Reset()
	return img, true, int64(len(img.Data))
}

// Reset discards any partial image (the receiver turned out not to need
// the transfer after all).
func (a *SnapshotAssembly) Reset() { *a = SnapshotAssembly{} }
