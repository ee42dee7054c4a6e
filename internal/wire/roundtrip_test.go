package wire

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"raftpaxos/internal/mencius"
	"raftpaxos/internal/multipaxos"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/raft"
	"raftpaxos/internal/raftstar"
)

// builtinTypeCount pins how many message types the built-in registry
// carries: adding an engine message without registering a codec (or
// registering one twice) fails here before it fails on a live wire.
const builtinTypeCount = 28

func TestRegistryCoversAllBuiltinTypes(t *testing.T) {
	if n := len(registered()); n != builtinTypeCount {
		t.Fatalf("registry has %d built-in types, want %d — update the codec table AND the spec vectors", n, builtinTypeCount)
	}
}

// fillRandom populates every exported field of a message struct with
// random values, recursing through slices and nested structs. It is the
// generator for the round-trip property test; any new field an engine
// adds to a message is picked up automatically.
func fillRandom(rng *rand.Rand, v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Pointer:
		fillRandom(rng, v.Elem(), depth)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(rng, v.Field(i), depth)
			}
		}
	case reflect.Bool:
		v.SetBool(rng.Intn(2) == 1)
	case reflect.Uint8:
		v.SetUint(uint64(rng.Intn(4)))
	case reflect.Uint64, reflect.Uint, reflect.Uint32:
		v.SetUint(randUint(rng))
	case reflect.Int64, reflect.Int, reflect.Int32:
		v.SetInt(randInt(rng))
	case reflect.String:
		v.SetString(randString(rng))
	case reflect.Slice:
		n := rng.Intn(4)
		if depth > 2 {
			n = 0
		}
		if n == 0 {
			return // nil slice: the codec's canonical empty form
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fillRandom(rng, s.Index(i), depth+1)
		}
		v.Set(s)
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// randUint mixes magnitudes so every varint width gets exercised.
func randUint(rng *rand.Rand) uint64 {
	switch rng.Intn(4) {
	case 0:
		return uint64(rng.Intn(2))
	case 1:
		return uint64(rng.Intn(1 << 14))
	case 2:
		return rng.Uint64() >> uint(rng.Intn(64))
	default:
		return math.MaxUint64
	}
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(5) {
	case 0:
		return -1 // protocol.None
	case 1:
		return int64(rng.Intn(1 << 10))
	case 2:
		return math.MaxInt64
	case 3:
		return math.MinInt64
	default:
		return int64(rng.Uint64())
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnop-0123456789"
	n := rng.Intn(12)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestRoundTripAllTypes encodes and decodes randomized instances of every
// registered message type and requires exact structural equality — the
// core property the codec must hold.
func TestRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, e := range registered() {
		name := e.typ.String()
		for trial := 0; trial < 200; trial++ {
			msg := e.codec.New()
			fillRandom(rng, reflect.ValueOf(msg), 0)
			// Raft's two responses are raftstar's structs under shorter
			// encodings: the Raft*-only fields never travel.
			switch m := msg.(type) {
			case *raft.MsgVoteResp:
				m.LastIndex = 0
			case *raft.MsgAppendResp:
				m.Holders = nil
			}
			from := protocol.NodeID(rng.Intn(9) - 1)

			buf, err := AppendMessage(nil, from, msg)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			r := NewReader(buf)
			gotFrom, got, err := DecodeMessage(r)
			if err != nil {
				t.Fatalf("%s trial %d: decode: %v", name, trial, err)
			}
			if err := r.Done(); err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			if gotFrom != from {
				t.Fatalf("%s: from = %d, want %d", name, gotFrom, from)
			}
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("%s trial %d: round-trip mismatch:\n got %#v\nwant %#v", name, trial, got, msg)
			}
		}
	}
}

// TestRoundTripEdgeValues pins the boundary cases the random sweep might
// miss: empty batches, contiguity filler entries, extreme varints, and
// nil-vs-absent payloads.
func TestRoundTripEdgeValues(t *testing.T) {
	msgs := []protocol.Message{
		&raft.MsgAppendReq{},                              // heartbeat: all zeros, no entries
		&raft.MsgAppendReq{Entries: []protocol.Entry{{}}}, // one filler entry (Bal==0, Op==0)
		&raftstar.MsgVoteResp{Term: math.MaxUint64, Granted: true, LastIndex: math.MaxInt64},
		&raftstar.MsgAppendResp{LastIndex: math.MinInt64, Holders: []protocol.NodeID{protocol.None, 0, 127}},
		&multipaxos.MsgAcceptOK{Idxs: []int64{0, -1, math.MaxInt64, math.MinInt64}},
		&multipaxos.MsgPrepareOK{Insts: []multipaxos.InstanceInfo{{Idx: 1, Bal: math.MaxUint64, Chosen: true}}},
		&mencius.MsgPropose{Owner: protocol.None, Proposer: 2, Slots: []mencius.SlotCmd{{Slot: 5}}},
		&mencius.MsgCoordHB{Barrier: -1, Frontier: []int64{}}, // empty-but-non-nil flattens to nil
		&protocol.MsgInstallSnapshot{Data: []byte{}, Done: true},
		&protocol.MsgReadForward{Cmds: []protocol.Command{{Op: protocol.OpGet, Key: "", Value: nil}}, Term: math.MaxUint64},
		&raft.MsgForward{Cmds: []protocol.Command{{ID: math.MaxUint64, Client: protocol.None, Op: protocol.OpPut, Key: "k", Value: []byte{0}, Size: -1}}},
		&protocol.MsgFastAccept{}, // empty fast round: no commands
		&protocol.MsgFastAccept{Cmds: []protocol.Command{{ID: math.MaxUint64, Client: protocol.None, Op: protocol.OpPut, Key: "hot", Value: []byte{}}}},
		&protocol.MsgFastAck{Term: math.MaxUint64, Base: math.MinInt64, IDs: []uint64{0, math.MaxUint64}, Leader: true},
		&protocol.MsgFastAck{}, // ack with no slots: pure term/leader signal
	}
	for _, msg := range msgs {
		buf, err := AppendMessage(nil, protocol.None, msg)
		if err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		r := NewReader(buf)
		_, got, err := DecodeMessage(r)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		// Empty-but-non-nil slices canonicalize to nil on decode; apply
		// the same flattening to the expectation before comparing.
		want := canonicalize(msg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T mismatch:\n got %#v\nwant %#v", msg, got, want)
		}
	}
}

// canonicalize returns a deep copy of msg with zero-length slices
// replaced by nil (the codec's canonical decode form).
func canonicalize(msg protocol.Message) protocol.Message {
	out := reflect.New(reflect.TypeOf(msg).Elem())
	out.Elem().Set(reflect.ValueOf(msg).Elem())
	flattenEmpty(out.Elem())
	return out.Interface().(protocol.Message)
}

func flattenEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				flattenEmpty(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			flattenEmpty(v.Index(i))
		}
	}
}

// TestEntrySubCodec round-trips the shared entry layout the WAL frames
// reuse, including the filler-entry form compaction relies on.
func TestEntrySubCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var e protocol.Entry
		fillRandom(rng, reflect.ValueOf(&e), 0)
		if trial == 0 {
			e = protocol.Entry{} // filler: restores as "no proposal accepted"
		}
		buf := AppendEntry(nil, &e)
		r := NewReader(buf)
		got := ReadEntry(r)
		if err := r.Done(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("trial %d: entry mismatch:\n got %#v\nwant %#v", trial, got, e)
		}
		if e.IsFiller() != got.IsFiller() {
			t.Fatalf("filler bit changed across the codec")
		}
	}
}

// TestUnknownTagFailsLoudly pins the failure mode for a registry skew
// between peers: decoding must error, not misparse.
func TestUnknownTagFailsLoudly(t *testing.T) {
	buf := AppendVarint(nil, 3) // from
	buf = append(buf, 0xEE)     // tag nobody registered
	if _, _, err := DecodeMessage(NewReader(buf)); err == nil {
		t.Fatal("unknown tag decoded without error")
	}
}

// TestVarintBounds pins the primitive edge behavior: max-width varints
// round-trip, over-long ones are rejected.
func TestVarintBounds(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		r := NewReader(AppendUvarint(nil, v))
		if got := r.Uvarint(); got != v || r.Done() != nil {
			t.Fatalf("uvarint %d round-tripped to %d (err %v)", v, got, r.Err())
		}
	}
	for _, v := range []int64{0, -1, 1, math.MaxInt64, math.MinInt64} {
		r := NewReader(AppendVarint(nil, v))
		if got := r.Varint(); got != v || r.Done() != nil {
			t.Fatalf("varint %d round-tripped to %d (err %v)", v, got, r.Err())
		}
	}
	// 11 continuation bytes: longer than any uint64 varint can be.
	r := NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	if r.Uvarint(); r.Err() == nil {
		t.Fatal("over-long varint accepted")
	}
}
