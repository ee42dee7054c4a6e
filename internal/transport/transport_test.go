package transport_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raftstar"
	"raftpaxos/internal/transport"
	"raftpaxos/internal/wire"
)

func TestChanNetworkRoundTrip(t *testing.T) {
	net := transport.NewChanNetwork()
	defer net.Close()
	var mu sync.Mutex
	var got []protocol.Message
	done := make(chan struct{}, 8)
	net.Listen(1, func(from protocol.NodeID, msg protocol.Message) {
		mu.Lock()
		got = append(got, msg)
		mu.Unlock()
		done <- struct{}{}
	})
	m := &raftstar.MsgVoteReq{Term: 3}
	net.Send(0, 1, m)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("message never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].(*raftstar.MsgVoteReq).Term != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestChanNetworkUnknownPeerDropped(t *testing.T) {
	net := transport.NewChanNetwork()
	defer net.Close()
	net.Send(0, 99, &raftstar.MsgVoteReq{}) // must not panic or block
}

func TestTCPRoundTrip(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}

	type rcv struct {
		from protocol.NodeID
		msg  protocol.Message
	}
	ch := make(chan rcv, 8)
	t1, err := transport.NewTCP(1, addrs, func(from protocol.NodeID, msg protocol.Message) {
		ch <- rcv{from, msg}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	// FIFO across several messages.
	for i := uint64(1); i <= 5; i++ {
		t0.Send(0, 1, &raftstar.MsgAppendReq{Term: i})
	}
	for i := uint64(1); i <= 5; i++ {
		select {
		case r := <-ch:
			m, ok := r.msg.(*raftstar.MsgAppendReq)
			if !ok || m.Term != i || r.from != 0 {
				t.Fatalf("message %d: got %+v from %d", i, r.msg, r.from)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

// TestTCPQueuedFIFOUnderLoad hammers the queued sender with a burst far
// larger than any single writer drain and asserts strictly in-order
// delivery: the per-peer queue plus single writer goroutine must preserve
// per-pair FIFO, the property the Mencius engines assume.
func TestTCPQueuedFIFOUnderLoad(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}

	const total = 2000
	terms := make(chan uint64, total)
	t1, err := transport.NewTCP(1, addrs, func(from protocol.NodeID, msg protocol.Message) {
		if m, ok := msg.(*raftstar.MsgAppendReq); ok && from == 0 {
			terms <- m.Term
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	for i := uint64(1); i <= total; i++ {
		t0.Send(0, 1, &raftstar.MsgAppendReq{Term: i})
	}
	// The transport is lossy under overflow but must never reorder: the
	// received terms must be strictly increasing, and with a queue deeper
	// than the burst nothing should actually drop.
	var last uint64
	received := 0
	deadline := time.After(10 * time.Second)
	for received < total {
		select {
		case term := <-terms:
			if term <= last {
				t.Fatalf("reordered delivery: term %d after %d", term, last)
			}
			last = term
			received++
		case <-deadline:
			t.Fatalf("only %d/%d messages arrived (last term %d)", received, total, last)
		}
	}
}

func TestTCPSendToDeadPeerIsBestEffort(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:1"} // port 1: refused
	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()
	t0.Send(0, 1, &raftstar.MsgVoteReq{}) // must not panic
	t0.Send(0, 7, &raftstar.MsgVoteReq{}) // unknown peer: dropped

	// The failed dial must flip the health flag (with a little patience:
	// the first dial runs on the writer goroutine).
	deadline := time.Now().Add(5 * time.Second)
	for t0.Healthy(1) {
		if time.Now().After(deadline) {
			t.Fatal("dead peer still reported healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if t0.Healthy(7) != true {
		t.Fatal("never-dialed peer should report healthy (nothing known to be wrong)")
	}
}

// TestTCPReconnectWithBackoff sends to a peer whose listener does not
// exist yet: the writer must keep the frame, back off, flag the link
// unhealthy, and deliver once the peer comes up — instead of shedding the
// queue on the first failed dial.
func TestTCPReconnectWithBackoff(t *testing.T) {
	// Reserve a port for peer 1 without accepting on it yet.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := probe.Addr().String()
	probe.Close()

	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: peerAddr}
	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	for i := uint64(1); i <= 3; i++ {
		t0.Send(0, 1, &raftstar.MsgAppendReq{Term: i})
	}
	deadline := time.Now().Add(5 * time.Second)
	for t0.Healthy(1) {
		if time.Now().After(deadline) {
			t.Fatal("down peer still reported healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Bring the peer up on the reserved address: the writer's backoff loop
	// must find it and deliver the held + queued frames in order.
	type rcv struct {
		from protocol.NodeID
		msg  protocol.Message
	}
	ch := make(chan rcv, 8)
	t1, err := transport.NewTCP(1, addrs, func(from protocol.NodeID, msg protocol.Message) {
		ch <- rcv{from, msg}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	for i := uint64(1); i <= 3; i++ {
		select {
		case r := <-ch:
			m, ok := r.msg.(*raftstar.MsgAppendReq)
			if !ok || m.Term != i {
				t.Fatalf("message %d: got %+v", i, r.msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("message %d never delivered after reconnect", i)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for !t0.Healthy(1) {
		if time.Now().After(deadline) {
			t.Fatal("reconnected peer still reported unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTCPCompressionStats ships large, compressible appends over the wire
// and asserts the framing layer compressed them: wire bytes land well
// below raw bytes, the compressed-frame counter moves, and the payloads
// still round-trip intact. Small messages stay uncompressed.
func TestTCPCompressionStats(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}

	ch := make(chan protocol.Message, 64)
	t1, err := transport.NewTCP(1, addrs, func(_ protocol.NodeID, msg protocol.Message) {
		ch <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	// A small control message first: below the threshold, never compressed.
	t0.Send(0, 1, &raftstar.MsgVoteReq{Term: 7})

	// Then batched appends whose values are highly compressible — the
	// shape a real hot path produces.
	value := []byte(strings.Repeat("compressible-payload ", 40)) // ~800B each
	const batches, perBatch = 8, 16
	for b := 0; b < batches; b++ {
		ents := make([]protocol.Entry, perBatch)
		for i := range ents {
			ents[i] = protocol.Entry{
				Index: int64(b*perBatch + i + 1), Term: 1, Bal: 1,
				Cmd: protocol.Command{ID: uint64(i + 1), Op: protocol.OpPut, Key: "k", Value: value},
			}
		}
		t0.Send(0, 1, &raftstar.MsgAppendReq{Term: 1, Entries: ents})
	}

	for i := 0; i < batches+1; i++ {
		select {
		case msg := <-ch:
			if m, ok := msg.(*raftstar.MsgAppendReq); ok {
				if len(m.Entries) != perBatch || string(m.Entries[0].Cmd.Value) != string(value) {
					t.Fatalf("append mangled in flight: %d entries", len(m.Entries))
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}

	st := t0.Stats()
	// The writer batch-frames whole drains: a burst of appends may ship
	// as anywhere from one frame to one frame each, but every frame that
	// carried the big appends must have compressed.
	if st.FramesSent < 1 || st.FramesSent > int64(batches+1) {
		t.Fatalf("frames sent = %d, want 1..%d", st.FramesSent, batches+1)
	}
	if st.FramesCompressed < 1 {
		t.Fatalf("compressed frames = %d, want >= 1 (the big append batches)", st.FramesCompressed)
	}
	if st.WireBytes >= st.RawBytes {
		t.Fatalf("compression saved nothing: raw=%d wire=%d", st.RawBytes, st.WireBytes)
	}
	if st.WireBytes*2 >= st.RawBytes {
		t.Fatalf("repetitive payload should shrink >2x: raw=%d wire=%d", st.RawBytes, st.WireBytes)
	}
	if st.DroppedFrames != 0 {
		t.Fatalf("dropped frames = %d, want 0 (no queue overflow here)", st.DroppedFrames)
	}
}

// TestTCPCompressionDisabled pins the knob: with compression off, every
// frame ships raw and wire bytes exceed raw bytes by exactly the header
// overhead.
func TestTCPCompressionDisabled(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}

	ch := make(chan protocol.Message, 8)
	t1, err := transport.NewTCP(1, addrs, func(_ protocol.NodeID, msg protocol.Message) {
		ch <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	t0, err := transport.NewTCPWith(0, addrs, func(protocol.NodeID, protocol.Message) {},
		transport.TCPOptions{DisableCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	value := []byte(strings.Repeat("would-compress ", 200))
	t0.Send(0, 1, &raftstar.MsgAppendReq{Term: 1, Entries: []protocol.Entry{{
		Index: 1, Term: 1, Bal: 1,
		Cmd: protocol.Command{ID: 1, Op: protocol.OpPut, Key: "k", Value: value},
	}}})
	select {
	case msg := <-ch:
		m, ok := msg.(*raftstar.MsgAppendReq)
		if !ok || string(m.Entries[0].Cmd.Value) != string(value) {
			t.Fatalf("payload mangled: %+v", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never arrived")
	}
	st := t0.Stats()
	if st.FramesCompressed != 0 {
		t.Fatalf("compression disabled but %d frames compressed", st.FramesCompressed)
	}
	if st.WireBytes != st.RawBytes+5*st.FramesSent {
		t.Fatalf("raw framing overhead mismatch: raw=%d wire=%d frames=%d",
			st.RawBytes, st.WireBytes, st.FramesSent)
	}
}

// wireHandshakeBytes pins the on-wire connection preamble: magic "RPXW"
// plus wire-format version 6 (version 3's group-prefixed record layout,
// version 4's fast-path tags and trailing vote/append fields, version 5's
// trailing Term on MsgReadForward, plus the trailing Accepted on
// lease.MsgGrant). A format change must bump the version
// byte here and in the transport.
var wireHandshakeBytes = []byte{'R', 'P', 'X', 'W', 0x06}

// TestTCPHandshakeRejectsWrongVersion dials a live listener raw and sends
// mismatched preambles: a stale version byte and a gob-era stream (no
// preamble at all). Both connections must be closed without dispatching a
// message — mixed gob/binary clusters fail loudly instead of misparsing.
func TestTCPHandshakeRejectsWrongVersion(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	delivered := make(chan protocol.Message, 8)
	t1, err := transport.NewTCP(1, addrs, func(_ protocol.NodeID, msg protocol.Message) {
		delivered <- msg
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	// A well-formed frame body so only the handshake is at fault.
	body, err := wire.AppendMessage(nil, 0, &raftstar.MsgVoteReq{Term: 9})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 5+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	copy(frame[5:], body)

	badPreambles := [][]byte{
		{'R', 'P', 'X', 'W', 0x01},     // stale wire version (gob era)
		{'R', 'P', 'X', 'W', 0x02},     // stale wire version (pre-group records)
		{'R', 'P', 'X', 'W', 0x05},     // previous wire version (MsgGrant without Accepted)
		{0x0e, 0xff, 0x81, 0x03, 0x01}, // gob-era stream: no preamble, typeId bytes
	}
	for i, pre := range badPreambles {
		conn, err := net.Dial("tcp", t1.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(pre)
		conn.Write(frame)
		// The acceptor must hang up: the next read sees EOF/reset, not a
		// hang and not an answered protocol.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatalf("preamble %d: server kept the connection open", i)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("preamble %d: server neither closed nor rejected", i)
		}
		conn.Close()
	}
	select {
	case msg := <-delivered:
		t.Fatalf("message %T dispatched from a rejected connection", msg)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestTCPHandshakeOnWire accepts a raw connection from a live transport
// and checks the exact preamble and frame layout the dialer emits:
// handshake, then [u32 len][flags][body] with wire-codec records inside.
func TestTCPHandshakeOnWire(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: ln.Addr().String()}
	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	t0.Send(0, 1, &raftstar.MsgVoteReq{Term: 21, LastIndex: 4})

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))

	pre := make([]byte, len(wireHandshakeBytes))
	if _, err := io.ReadFull(conn, pre); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pre, wireHandshakeBytes) {
		t.Fatalf("preamble = %x, want %x", pre, wireHandshakeBytes)
	}

	hdr := make([]byte, 5)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[4] != 0 {
		t.Fatalf("small frame arrived compressed (flags %#x)", hdr[4])
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:4]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(body)
	if g := r.Uvarint(); g != 0 {
		t.Fatalf("single-group Send stamped group %d, want 0", g)
	}
	from, msg, err := wire.DecodeMessage(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	m, ok := msg.(*raftstar.MsgVoteReq)
	if !ok || from != 0 || m.Term != 21 || m.LastIndex != 4 {
		t.Fatalf("decoded %T %+v from %d", msg, msg, from)
	}
}

// TestTCPGroupDemux runs two consensus groups over one shared TCP link:
// every record must arrive tagged with the group that sent it (the
// receiver demuxes on it), per-pair FIFO must hold within each group,
// and the per-group record/byte breakdown must attribute the traffic.
func TestTCPGroupDemux(t *testing.T) {
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	type rec struct {
		group uint64
		term  uint64
	}
	got := make(chan rec, 256)
	t1, err := transport.NewTCPGroups(1, addrs, func(group uint64, from protocol.NodeID, msg protocol.Message) {
		m, ok := msg.(*raftstar.MsgVoteReq)
		if !ok || from != 0 {
			t.Errorf("unexpected inbound %T from %d", msg, from)
			return
		}
		got <- rec{group: group, term: m.Term}
	}, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()
	t0, err := transport.NewTCPGroups(0, addrs, func(uint64, protocol.NodeID, protocol.Message) {}, transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	const perGroup = 50
	for i := 0; i < perGroup; i++ {
		t0.SendGroup(3, 0, 1, &raftstar.MsgVoteReq{Term: uint64(i)})
		t0.SendGroup(7, 0, 1, &raftstar.MsgVoteReq{Term: uint64(i)})
	}
	next := map[uint64]uint64{3: 0, 7: 0}
	for n := 0; n < 2*perGroup; n++ {
		select {
		case r := <-got:
			want, ok := next[r.group]
			if !ok {
				t.Fatalf("record arrived on unknown group %d", r.group)
			}
			if r.term != want {
				t.Fatalf("group %d record out of order: term %d, want %d", r.group, r.term, want)
			}
			next[r.group]++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d records arrived", n, 2*perGroup)
		}
	}

	sent := t0.GroupStats()
	recv := t1.GroupStats()
	for _, g := range []uint64{3, 7} {
		if sent[g].RecordsSent != perGroup {
			t.Fatalf("group %d sender breakdown: %d records, want %d", g, sent[g].RecordsSent, perGroup)
		}
		if recv[g].RecordsRecv != perGroup {
			t.Fatalf("group %d receiver breakdown: %d records, want %d", g, recv[g].RecordsRecv, perGroup)
		}
		if sent[g].BytesSent == 0 || sent[g].BytesSent != recv[g].BytesRecv {
			t.Fatalf("group %d byte attribution: sent %d, recv %d", g, sent[g].BytesSent, recv[g].BytesRecv)
		}
	}
}

// TestChanNetworkGroupDemux pins the same group-multiplexing contract on
// the in-process transport multi-group hosts use in tests.
func TestChanNetworkGroupDemux(t *testing.T) {
	net := transport.NewChanNetwork()
	defer net.Close()
	type rec struct {
		group uint64
		from  protocol.NodeID
	}
	got := make(chan rec, 16)
	net.ListenGroups(1, func(group uint64, from protocol.NodeID, msg protocol.Message) {
		got <- rec{group: group, from: from}
	})
	net.SendGroup(5, 0, 1, &raftstar.MsgVoteReq{Term: 1})
	net.Send(0, 1, &raftstar.MsgVoteReq{Term: 2}) // legacy Send = group 0
	for _, want := range []rec{{5, 0}, {0, 0}} {
		select {
		case r := <-got:
			if r != want {
				t.Fatalf("got %+v, want %+v", r, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("record never delivered")
		}
	}
}

// TestTCPDroppedFramesCounter floods a peer that refuses connections: the
// bounded queue fills, the overflow is shed, and the shed count is
// observable in Stats (and from there in BENCH output).
func TestTCPDroppedFramesCounter(t *testing.T) {
	// Grab a port that is then closed again: connection refused, so the
	// writer sits in dial backoff while sends pile into the queue.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: deadAddr}
	t0, err := transport.NewTCP(0, addrs, func(protocol.NodeID, protocol.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t0.Close()

	const burst = 10000 // > outbound queue depth
	for i := 0; i < burst; i++ {
		t0.Send(0, 1, &raftstar.MsgVoteReq{Term: uint64(i)})
	}
	if d := t0.Stats().DroppedFrames; d == 0 {
		t.Fatal("queue overflow shed no frames")
	} else if d >= burst {
		t.Fatalf("all %d sends dropped; queue buffered nothing", d)
	}
}
