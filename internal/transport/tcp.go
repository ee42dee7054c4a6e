package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/snappy"
	"raftpaxos/internal/wire"
)

// Wire protocol. A connection starts with a 5-byte handshake — the magic
// "RPXW" plus one wire-format version byte — written by the dialing
// (sending) side and verified by the accepting (reading) side before any
// frame is parsed. The handshake is what makes a mixed-codec cluster fail
// loudly: a peer speaking another format (or the old gob framing, whose
// first byte is a gob length, never 'R') is disconnected and logged
// instead of being mis-parsed into garbage messages.
//
// After the handshake, every write is one length-prefixed frame — a
// 4-byte big-endian body length, a 1-byte flag, then the body
// (snappy-compressed when the flag says so). A frame body is a batch of
// message records, each
//
//	uvarint(group) | varint(from) | tag | payload
//
// — the consensus-group ID followed by the internal/wire message record.
// The group prefix is what lets one connection multiplex N consensus
// groups (a multi-group host runs many engines over the shared link);
// single-group deployments send group 0, which costs one zero byte per
// record. The writer drains its whole outbound queue into one frame
// (bounded by maxBatchBytes), so a burst of messages costs one encode
// pass, at most one compression, and one syscall.
const (
	// wireVersion 7 dropped cluster.MsgReply's Redirect field, which no
	// engine ever set; version 6 added the trailing Accepted on
	// lease.MsgGrant (the grantor's last accepted index: the lease's
	// activation floor) and retired tag 24, pql's never-sent copy of the
	// lease read forward;
	// version 5 added the trailing Term on MsgReadForward (the
	// forwarder's term/ballot, which makes it a ReadIndex quorum witness);
	// version 4 added the fast-path message tags and the trailing
	// vote/append fields they ride on (Commit, Extra, PrevID); version 3
	// added the per-record group prefix, version 2 was the group-less
	// binary record layout, version 1 the gob stream the codec retired.
	// Mixed-version clusters fail loudly at the handshake.
	wireVersion    = 7
	frameHeaderLen = 5
	flagSnappy     = 0x01
	// maxFrameBytes bounds what a reader will allocate for one frame
	// (far above any batch the writer produces; a violation means a
	// corrupt or hostile stream).
	maxFrameBytes = 64 << 20
	// maxBatchBytes caps how much encoded payload a writer packs into one
	// frame before cutting it: bounds both sides' buffer high-water marks
	// while keeping the batch large enough that compression and syscalls
	// amortize.
	maxBatchBytes = 1 << 20
)

var wireHandshake = [5]byte{'R', 'P', 'X', 'W', wireVersion}

// DefaultCompressMin is the frame body size, in bytes, above which frames
// are compressed when compression is enabled: small control batches
// (heartbeats, votes, acks) are not worth the CPU, while batched appends
// and snapshot chunks shrink substantially.
const DefaultCompressMin = 1 << 10

// TCPOptions tunes the TCP transport's framing.
type TCPOptions struct {
	// DisableCompression turns snappy frame compression off (default on:
	// bodies at or above CompressMin bytes are compressed when that
	// actually shrinks them).
	DisableCompression bool
	// CompressMin overrides the compression threshold in bytes
	// (0 = DefaultCompressMin).
	CompressMin int
}

// TCPStats reports the transport's framing counters.
type TCPStats struct {
	// FramesSent counts frames written to peer connections (one frame
	// carries a whole drained batch of messages).
	FramesSent int64
	// FramesCompressed counts frames that went out snappy-compressed.
	FramesCompressed int64
	// RawBytes is the total pre-compression (binary-codec) body size.
	RawBytes int64
	// WireBytes is the total bytes actually written (headers + bodies,
	// post-compression): RawBytes - WireBytes + 5*FramesSent is the
	// payload volume compression saved.
	WireBytes int64
	// DroppedFrames counts messages shed on per-peer queue overflow (the
	// bounded outbound queue absorbing a burst faster than the link
	// drains). Consensus tolerates the loss and retries via timers, but
	// sustained drops mean the link or peer cannot keep up.
	DroppedFrames int64
	// EncodeNanos is the total wall time spent encoding, compressing and
	// framing outbound batches — the codec cost the binary wire format
	// exists to minimize.
	EncodeNanos int64
}

// GroupIOStats is one consensus group's slice of the transport's
// traffic. Frames batch records from many groups, so frame-level
// counters stay process-global (TCPStats); these record-level counters
// are what attribute the volume to groups — per-group bench numbers need
// no guesswork about who owned the bytes.
type GroupIOStats struct {
	// RecordsSent / BytesSent count outbound message records encoded for
	// this group and their encoded (pre-compression) record bytes,
	// including the group prefix.
	RecordsSent int64
	BytesSent   int64
	// RecordsRecv / BytesRecv are the inbound mirror, measured over the
	// decoded (post-decompression) stream.
	RecordsRecv int64
	BytesRecv   int64
}

// groupCounters is the hot-path form of GroupIOStats (atomics: writer
// goroutines and connection readers update concurrently).
type groupCounters struct {
	recordsSent atomic.Int64
	bytesSent   atomic.Int64
	recordsRecv atomic.Int64
	bytesRecv   atomic.Int64
}

// outQueueDepth bounds each per-peer outbound queue; overflow drops, as a
// lossy network would (consensus retries via timers).
const outQueueDepth = 8192

// Reconnect backoff bounds: a failed dial retries after dialBackoffMin
// (+ jitter), doubling up to dialBackoffMax while the peer stays down.
const (
	dialBackoffMin = 20 * time.Millisecond
	dialBackoffMax = 2 * time.Second
)

// outMsg is one queued outbound message awaiting encoding.
type outMsg struct {
	group uint64
	from  protocol.NodeID
	msg   protocol.Message
}

// TCP is a TCP transport: one listener per node and, per peer, an
// outbound queue drained by a dedicated writer goroutine over one lazily
// dialed connection. Send never blocks the caller on dialing or encoding —
// the consensus event loop only enqueues. Each writer batch-encodes
// whatever is queued into one reused scratch buffer with the
// internal/wire codec (zero steady-state allocations), compresses and
// frames it in place, and flushes once per drain, so a burst of messages
// costs one syscall; the single queue and single writer per destination
// preserve the per-pair FIFO delivery the Mencius engines require.
//
// A down peer does not shed the queue: the writer holds the head message
// and reconnects with exponential backoff plus jitter (so a restarted
// cluster does not produce synchronized dial storms), while the bounded
// queue absorbs or drops the backlog exactly as a lossy network would.
// Healthy reports the per-peer link state.
type TCP struct {
	self  protocol.NodeID
	addrs map[protocol.NodeID]string

	compress    bool
	compressMin int

	mu      sync.Mutex
	peers   map[protocol.NodeID]chan outMsg
	conns   map[protocol.NodeID]net.Conn // live writer conns, closed to unblock writers
	inbound map[net.Conn]struct{}        // accepted conns, closed to unblock readers
	health  map[protocol.NodeID]*atomic.Bool

	// Per-group record/byte attribution (see GroupIOStats). The map is
	// effectively append-only and tiny (one entry per consensus group);
	// lookups take the read lock, first-contact inserts the write lock.
	groupMu sync.RWMutex
	groups  map[uint64]*groupCounters

	framesSent       atomic.Int64
	framesCompressed atomic.Int64
	rawBytes         atomic.Int64
	wireBytes        atomic.Int64
	droppedFrames    atomic.Int64
	encodeNanos      atomic.Int64

	ln     net.Listener
	wg     sync.WaitGroup
	closed chan struct{}
}

// NewTCP starts a TCP transport listening on addrs[self] and dispatching
// inbound messages to h, with default options (compression on). The
// single-group form: inbound group IDs are dropped and Send stamps
// group 0.
func NewTCP(self protocol.NodeID, addrs map[protocol.NodeID]string, h Handler) (*TCP, error) {
	return NewTCPWith(self, addrs, h, TCPOptions{})
}

// NewTCPWith is NewTCP with explicit framing options.
func NewTCPWith(self protocol.NodeID, addrs map[protocol.NodeID]string, h Handler, opt TCPOptions) (*TCP, error) {
	return NewTCPGroups(self, addrs, func(_ uint64, from protocol.NodeID, msg protocol.Message) {
		h(from, msg)
	}, opt)
}

// NewTCPGroups starts a group-multiplexed TCP transport: every inbound
// record's group ID reaches h, so a multi-group host can demux frames to
// the owning group's inbox; SendGroup stamps outbound records likewise.
func NewTCPGroups(self protocol.NodeID, addrs map[protocol.NodeID]string, h GroupHandler, opt TCPOptions) (*TCP, error) {
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[self], err)
	}
	t := &TCP{
		self:        self,
		addrs:       addrs,
		compress:    !opt.DisableCompression,
		compressMin: opt.CompressMin,
		peers:       make(map[protocol.NodeID]chan outMsg),
		conns:       make(map[protocol.NodeID]net.Conn),
		inbound:     make(map[net.Conn]struct{}),
		health:      make(map[protocol.NodeID]*atomic.Bool),
		groups:      make(map[uint64]*groupCounters),
		ln:          ln,
		closed:      make(chan struct{}),
	}
	if t.compressMin <= 0 {
		t.compressMin = DefaultCompressMin
	}
	t.wg.Add(1)
	go t.accept(h)
	return t, nil
}

// Stats returns the framing counters accumulated since the transport
// started.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		FramesSent:       t.framesSent.Load(),
		FramesCompressed: t.framesCompressed.Load(),
		RawBytes:         t.rawBytes.Load(),
		WireBytes:        t.wireBytes.Load(),
		DroppedFrames:    t.droppedFrames.Load(),
		EncodeNanos:      t.encodeNanos.Load(),
	}
}

// GroupStats returns the per-group record/byte breakdown accumulated
// since the transport started (groups appear on first traffic).
func (t *TCP) GroupStats() map[uint64]GroupIOStats {
	t.groupMu.RLock()
	defer t.groupMu.RUnlock()
	out := make(map[uint64]GroupIOStats, len(t.groups))
	for g, c := range t.groups {
		out[g] = GroupIOStats{
			RecordsSent: c.recordsSent.Load(),
			BytesSent:   c.bytesSent.Load(),
			RecordsRecv: c.recordsRecv.Load(),
			BytesRecv:   c.bytesRecv.Load(),
		}
	}
	return out
}

// groupCount returns group's counters, creating them on first contact.
func (t *TCP) groupCount(group uint64) *groupCounters {
	t.groupMu.RLock()
	c := t.groups[group]
	t.groupMu.RUnlock()
	if c != nil {
		return c
	}
	t.groupMu.Lock()
	defer t.groupMu.Unlock()
	if c = t.groups[group]; c == nil {
		c = &groupCounters{}
		t.groups[group] = c
	}
	return c
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func (t *TCP) accept(h GroupHandler) {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
				continue
			}
		}
		t.mu.Lock()
		select {
		case <-t.closed:
			t.mu.Unlock()
			conn.Close()
			continue
		default:
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() {
				conn.Close()
				t.mu.Lock()
				delete(t.inbound, conn)
				t.mu.Unlock()
			}()
			t.readConn(conn, h)
		}()
	}
}

// readConn verifies the handshake, then decodes message batches out of
// the framed stream and dispatches them. The frame and decompression
// buffers are pooled per connection; decoded messages own their memory
// (engines retain them), so nothing handed to h aliases those buffers.
func (t *TCP) readConn(conn net.Conn, h GroupHandler) {
	br := bufio.NewReaderSize(conn, 64<<10)
	var hs [len(wireHandshake)]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return
	}
	if hs != wireHandshake {
		// A peer speaking a different wire format (say, the retired gob
		// codec) must be cut off before any frame is parsed: decoding its
		// stream with this codec would manufacture garbage messages.
		log.Printf("transport: node %d rejecting connection from %s: bad wire handshake % x (want % x — mixed wire-format cluster?)",
			t.self, conn.RemoteAddr(), hs, wireHandshake)
		return
	}
	fr := &frameReader{br: br}
	var r wire.Reader
	for {
		body, err := fr.next()
		if err != nil {
			if err != io.EOF && !isClosed(err) {
				log.Printf("transport: node %d dropping connection from %s: %v", t.self, conn.RemoteAddr(), err)
			}
			return
		}
		r.Reset(body)
		for r.Len() > 0 {
			before := r.Len()
			group := r.Uvarint()
			from, msg, err := wire.DecodeMessage(&r)
			if err != nil {
				log.Printf("transport: node %d dropping connection from %s: corrupt frame: %v", t.self, conn.RemoteAddr(), err)
				return
			}
			c := t.groupCount(group)
			c.recordsRecv.Add(1)
			c.bytesRecv.Add(int64(before - r.Len()))
			h(group, from, msg)
		}
	}
}

// isClosed reports whether err is the routine teardown error a closed
// connection produces (not worth logging).
func isClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}

// Send implements Transport: SendGroup on group 0.
func (t *TCP) Send(from, to protocol.NodeID, msg protocol.Message) {
	t.SendGroup(0, from, to, msg)
}

// SendGroup implements GroupTransport: enqueue onto the peer's outbound
// queue, spawning its writer on first use. All of a pair's groups share
// one queue and one connection — per-pair FIFO therefore holds across
// groups, and a multi-group burst still coalesces into single frames.
// Never blocks; overflow drops (and counts the drop in Stats).
func (t *TCP) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	t.mu.Lock()
	q, ok := t.peers[to]
	if !ok {
		if _, known := t.addrs[to]; !known {
			t.mu.Unlock()
			return
		}
		select {
		case <-t.closed:
			t.mu.Unlock()
			return
		default:
		}
		q = make(chan outMsg, outQueueDepth)
		t.peers[to] = q
		if _, ok := t.health[to]; !ok {
			h := &atomic.Bool{}
			h.Store(true) // optimistic until the first dial fails
			t.health[to] = h
		}
		t.wg.Add(1)
		go t.writer(to, q)
	}
	t.mu.Unlock()
	select {
	case q <- outMsg{group: group, from: from, msg: msg}:
	default:
		// Backpressure overflow: drop, as a lossy network would — but
		// never silently (sustained drops are a sizing signal).
		t.droppedFrames.Add(1)
	}
}

// Healthy reports the last known state of the outbound link to peer:
// false from a failed dial or broken connection until the next successful
// dial. Peers never sent to report true (nothing is known to be wrong).
func (t *TCP) Healthy(to protocol.NodeID) bool {
	t.mu.Lock()
	h, ok := t.health[to]
	t.mu.Unlock()
	if !ok {
		return true
	}
	return h.Load()
}

func (t *TCP) setHealthy(to protocol.NodeID, up bool) {
	t.mu.Lock()
	h, ok := t.health[to]
	t.mu.Unlock()
	if ok {
		h.Store(up)
	}
}

// dial connects to peer with exponential backoff and jitter, holding the
// writer until a connection exists or the transport closes. The queue
// keeps absorbing (and, when full, dropping) frames while the writer waits
// here — a down peer costs queued memory, never a shed burst or a blocked
// sender.
func (t *TCP) dial(to protocol.NodeID) net.Conn {
	backoff := dialBackoffMin
	for {
		conn, err := net.DialTimeout("tcp", t.addrs[to], time.Second)
		if err == nil {
			t.setHealthy(to, true)
			return conn
		}
		t.setHealthy(to, false)
		// Full jitter on top of the exponential step: concurrent writers
		// (a whole restarted cluster) decorrelate instead of thundering.
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)))
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
		select {
		case <-t.closed:
			return nil
		case <-time.After(sleep):
		}
	}
}

// frameReader unwraps the length-prefixed frame layer: next returns the
// current frame's (decompressed) body, valid until the following call.
// Both the wire buffer and the decompression scratch are reused across
// frames, so steady-state reading allocates nothing beyond what decoded
// messages must own.
type frameReader struct {
	br   *bufio.Reader
	body []byte // wire-frame buffer, reused
	dec  []byte // decompression scratch, reused
}

func (fr *frameReader) next() ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.br, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > maxFrameBytes {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	if cap(fr.body) < int(size) {
		fr.body = make([]byte, size)
	}
	fr.body = fr.body[:size]
	if _, err := io.ReadFull(fr.br, fr.body); err != nil {
		return nil, err
	}
	if hdr[4]&flagSnappy == 0 {
		return fr.body, nil
	}
	out, err := snappy.Decode(fr.dec[:0], fr.body)
	if err != nil {
		return nil, fmt.Errorf("transport: bad compressed frame: %w", err)
	}
	fr.dec = out[:0] // keep the grown scratch for the next frame
	return out, nil
}

// frameWriter wraps one outbound connection: the writer batch-encodes
// drained messages into scratch with the wire codec, and flushFrame
// length-prefixes the batch (compressing bodies at or above the threshold
// when that shrinks them) onto the buffered connection. All three buffers
// are reused across drains — steady-state sending allocates nothing.
type frameWriter struct {
	bw      *bufio.Writer
	scratch []byte // encoded record batch (pre-compression)
	comp    []byte // compression scratch
}

// encode appends one message record — group prefix plus the wire record
// — to the current batch. An encoding failure (an unregistered type)
// drops that message with a log line, rolling the group prefix back out
// of the batch — it is a programming error at the call site, not a
// connection fault.
func (t *TCP) encode(fw *frameWriter, m outMsg) {
	mark := len(fw.scratch)
	buf := wire.AppendUvarint(fw.scratch, m.group)
	out, err := wire.AppendMessage(buf, m.from, m.msg)
	if err != nil {
		log.Printf("transport: node %d dropping unencodable message: %v", t.self, err)
		fw.scratch = buf[:mark]
		return
	}
	fw.scratch = out
	c := t.groupCount(m.group)
	c.recordsSent.Add(1)
	c.bytesSent.Add(int64(len(out) - mark))
}

// flushFrame frames and writes the current batch, leaving scratch empty.
func (t *TCP) flushFrame(fw *frameWriter) error {
	body := fw.scratch
	if len(body) == 0 {
		return nil
	}
	t.rawBytes.Add(int64(len(body)))
	flag := byte(0)
	if t.compress && len(body) >= t.compressMin {
		fw.comp = snappy.Encode(fw.comp[:0], body)
		if len(fw.comp) < len(body) {
			body = fw.comp
			flag = flagSnappy
			t.framesCompressed.Add(1)
		}
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = flag
	if _, err := fw.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fw.bw.Write(body); err != nil {
		return err
	}
	t.framesSent.Add(1)
	t.wireBytes.Add(int64(frameHeaderLen + len(body)))
	fw.scratch = fw.scratch[:0]
	return nil
}

// writer owns the connection to one peer: it blocks for the next message,
// then batch-encodes everything queued behind it into one frame (cut at
// maxBatchBytes) and flushes once. The head message survives reconnects —
// it is held across the backoff loop and sent on the fresh connection.
func (t *TCP) writer(to protocol.NodeID, q chan outMsg) {
	defer t.wg.Done()
	var fw *frameWriter
	defer t.dropConn(to)
	for {
		var m outMsg
		select {
		case <-t.closed:
			return
		case m = <-q:
		}
		if fw == nil {
			conn := t.dial(to)
			if conn == nil {
				return // transport closed while reconnecting
			}
			t.mu.Lock()
			select {
			case <-t.closed:
				// Closed while dialing: don't register a conn nobody will
				// close for us.
				t.mu.Unlock()
				conn.Close()
				return
			default:
			}
			t.conns[to] = conn
			t.mu.Unlock()
			fw = &frameWriter{bw: bufio.NewWriterSize(conn, 64<<10)}
			if _, err := fw.bw.Write(wireHandshake[:]); err != nil {
				t.dropConn(to)
				t.setHealthy(to, false)
				fw = nil
				continue
			}
		}
		start := time.Now()
		fw.scratch = fw.scratch[:0]
		t.encode(fw, m)
		var err error
	drain:
		for err == nil {
			select {
			case m = <-q:
				if len(fw.scratch) >= maxBatchBytes {
					if err = t.flushFrame(fw); err != nil {
						break drain
					}
				}
				t.encode(fw, m)
			default:
				break drain
			}
		}
		if err == nil {
			err = t.flushFrame(fw)
		}
		t.encodeNanos.Add(time.Since(start).Nanoseconds())
		if err == nil {
			err = fw.bw.Flush()
		}
		if err != nil {
			// Connection broke: drop it so the next message re-dials (with
			// backoff) and flag the link until the reconnect lands.
			t.dropConn(to)
			t.setHealthy(to, false)
			fw = nil
		}
	}
}

func (t *TCP) dropConn(to protocol.NodeID) {
	t.mu.Lock()
	if c, ok := t.conns[to]; ok {
		c.Close()
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

// Close implements Transport.
func (t *TCP) Close() error {
	close(t.closed)
	err := t.ln.Close()
	t.mu.Lock()
	for id, c := range t.conns {
		c.Close()
		delete(t.conns, id)
	}
	// Close accepted conns too: a blocked reader would otherwise hold
	// wg.Wait until the remote side closed its outbound half, which
	// deadlocks when peers close their transports one after another.
	for c := range t.inbound {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return err
}
