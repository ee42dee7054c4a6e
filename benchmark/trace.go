package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// tracer records, from outside the system, when each client operation
// reached each replica's log and when that log was synced. It wraps
// storage.Store and transport.GroupTransport at the seams HostConfig
// offers; nothing inside cluster.Node is touched. Marks stay in memory
// until the trial is over.
type tracer struct {
	epoch    time.Time
	replicas []*replicaTrace
}

func newTracer(replicas int) *tracer {
	t := &tracer{epoch: time.Now(), replicas: make([]*replicaTrace, replicas)}
	for i := range t.replicas {
		t.replicas[i] = &replicaTrace{epoch: t.epoch, byType: make(map[reflect.Type]int64)}
	}
	return t
}

// appendMark is one client write seen in an Append/AppendBuffered call.
type appendMark struct {
	op         uint64
	start, end time.Duration // of the store call that carried it
}

// syncMark is one Sync/SyncBatch call; covered is how many appendMarks
// had been recorded when it started, all of which it made durable.
type syncMark struct {
	start, end time.Duration
	covered    int
}

type replicaTrace struct {
	epoch time.Time

	mu       sync.Mutex
	appends  []appendMark
	syncs    []syncMark
	appendNs int64
	entries  int64
	byType   map[reflect.Type]int64 // messages sent, by message type

	sent, received atomic.Int64
}

func (rt *replicaTrace) noteAppend(ents []protocol.Entry, start time.Time, synced bool) {
	s, e := start.Sub(rt.epoch), time.Since(rt.epoch)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.appendNs += int64(e - s)
	rt.entries += int64(len(ents))
	for i := range ents {
		if ents[i].Cmd.Op != protocol.OpPut {
			continue
		}
		if _, _, op, ok := decodeValue(ents[i].Cmd.Value); ok {
			rt.appends = append(rt.appends, appendMark{op: op, start: s, end: e})
		}
	}
	if synced {
		rt.syncs = append(rt.syncs, syncMark{start: s, end: e, covered: len(rt.appends)})
	}
}

func (rt *replicaTrace) noteSync(start time.Time, covered int) {
	s, e := start.Sub(rt.epoch), time.Since(rt.epoch)
	rt.mu.Lock()
	rt.syncs = append(rt.syncs, syncMark{start: s, end: e, covered: covered})
	rt.mu.Unlock()
}

func (rt *replicaTrace) appendCount() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.appends)
}

// tracedStore embeds *storage.File so the storage.SnapshotStore,
// DeferredSync and GroupSync assertions inside cluster still hold; it
// overrides only the four calls on the write path.
type tracedStore struct {
	*storage.File
	rt *replicaTrace
}

var (
	_ storage.SnapshotStore = (*tracedStore)(nil)
	_ storage.GroupSync     = (*tracedStore)(nil)
)

func (s *tracedStore) Append(ents []protocol.Entry) error {
	start := time.Now()
	err := s.File.Append(ents)
	s.rt.noteAppend(ents, start, true)
	return err
}

func (s *tracedStore) AppendBuffered(ents []protocol.Entry) error {
	start := time.Now()
	err := s.File.AppendBuffered(ents)
	s.rt.noteAppend(ents, start, false)
	return err
}

func (s *tracedStore) Sync() error {
	covered, start := s.rt.appendCount(), time.Now()
	err := s.File.Sync()
	s.rt.noteSync(start, covered)
	return err
}

func (s *tracedStore) SyncBatch(hs storage.HardState, save bool) error {
	covered, start := s.rt.appendCount(), time.Now()
	err := s.File.SyncBatch(hs, save)
	s.rt.noteSync(start, covered)
	return err
}

func (t *tracer) wrapStore(replica int, f *storage.File) storage.Store {
	return &tracedStore{File: f, rt: t.replicas[replica]}
}

// tracedTransport counts what a replica sends, by message type.
type tracedTransport struct {
	transport.GroupTransport
	rt *replicaTrace
}

func (t *tracedTransport) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	t.rt.sent.Add(1)
	t.rt.mu.Lock()
	t.rt.byType[reflect.TypeOf(msg)]++
	t.rt.mu.Unlock()
	t.GroupTransport.SendGroup(group, from, to, msg)
}

func (t *tracedTransport) Send(from, to protocol.NodeID, msg protocol.Message) {
	t.SendGroup(0, from, to, msg)
}

func (t *tracer) wrapTransport(replica int, inner transport.GroupTransport) transport.GroupTransport {
	return &tracedTransport{GroupTransport: inner, rt: t.replicas[replica]}
}

func (t *tracer) wrapHandler(replica int, h transport.GroupHandler) transport.GroupHandler {
	rt := t.replicas[replica]
	return func(group uint64, from protocol.NodeID, msg protocol.Message) {
		rt.received.Add(1)
		h(group, from, msg)
	}
}

// opTimes is when one write reached one replica: the end of the store
// call that appended it and the end of the sync that covered it (0 when
// the trial ended first).
type opTimes struct{ appendStart, appended, syncStart, synced time.Duration }

// index returns, per op id, when this replica appended and synced it.
// A retransmitted entry keeps its first append.
func (rt *replicaTrace) index(maxOp uint64) []opTimes {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]opTimes, maxOp+1)
	si := 0
	for j, a := range rt.appends {
		if a.op > maxOp || out[a.op].appended != 0 {
			continue
		}
		for si < len(rt.syncs) && rt.syncs[si].covered <= j {
			si++
		}
		ot := opTimes{appendStart: a.start, appended: a.end}
		if si < len(rt.syncs) {
			ot.syncStart, ot.synced = rt.syncs[si].start, rt.syncs[si].end
		}
		out[a.op] = ot
	}
	return out
}

// stageTable is how the typical write spends its time: the four blocking
// steps, each averaged over the writes whose latency lies between the
// 40th and the 60th percentile, in ms. For one write the four add up to
// its latency exactly, so over that band they add up to about the p50.
// (The p50 of each step taken alone would not: medians of skewed parts
// sum to some 15-20% less than the median of the whole.)
//
//	due ──submit_to_leader_append──▶ leader appended
//	    ──leader_append_to_follower_append──▶ first follower appended
//	    ──follower_append_to_synced──▶ quorum synced
//	    ──quorum_synced_to_reply──▶ reply
//
// "First follower" is the one whose sync finished first: a commit waits
// for the leader and the faster follower only. "Quorum synced" is when
// both that follower's sync and the leader's have finished, so the third
// stage also holds whatever the leader's own sync adds after the
// follower's; storage.sync_ms_p50 beside it shows how much that is.
type stageTable struct {
	submitToLeaderAppend, leaderToFollowerAppend, followerAppendToSynced, quorumSyncedToReply float64
	tracedWriteP50                                                                            float64
	sumVsE2E                                                                                  float64
	ops                                                                                       int
}

// tracedOp is one write split into its four stages.
type tracedOp struct {
	stages  [4]float64
	latency float64
}

type span struct {
	Name    string  `json:"name"`
	Op      uint64  `json:"op"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  string  `json:"parent,omitempty"`
}

// reduce joins the client's samples with the replicas' marks. t0 is the
// measured start the samples' due offsets count from. It returns the
// stage table and the spans of up to maxOps evenly spaced operations.
func (t *tracer) reduce(writes []sample, t0 time.Time, leader, maxOps int) (stageTable, []span) {
	var maxOp uint64
	for _, s := range writes {
		if s.op > maxOp {
			maxOp = s.op
		}
	}
	idx := make([][]opTimes, len(t.replicas))
	for i, rt := range t.replicas {
		idx[i] = rt.index(maxOp)
	}
	base := t0.Sub(t.epoch)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var ops []tracedOp
	var spans []span
	every := 1
	if maxOps > 0 && len(writes) > maxOps {
		every = len(writes) / maxOps
	}
	for n, w := range writes {
		due, done := base+w.due, base+w.due+w.latency
		ld := idx[leader][w.op]
		first := -1
		for i := range idx {
			if i == leader || idx[i][w.op].synced == 0 {
				continue
			}
			if first < 0 || idx[i][w.op].synced < idx[first][w.op].synced {
				first = i
			}
		}
		if ld.appended == 0 || ld.synced == 0 || first < 0 {
			continue
		}
		fl := idx[first][w.op]
		quorum := fl.synced
		if ld.synced > quorum {
			quorum = ld.synced
		}
		ops = append(ops, tracedOp{
			stages:  [4]float64{ms(ld.appended - due), ms(fl.appended - ld.appended), ms(quorum - fl.appended), ms(done - quorum)},
			latency: ms(w.latency),
		})
		if n%every != 0 {
			continue
		}
		spans = append(spans,
			span{Name: "client.op", Op: w.op, StartUs: us(due), EndUs: us(done)},
			span{Name: "leader.append", Op: w.op, StartUs: us(ld.appendStart), EndUs: us(ld.appended), Parent: "client.op"},
			span{Name: "leader.sync", Op: w.op, StartUs: us(ld.syncStart), EndUs: us(ld.synced), Parent: "leader.append"})
		for i := range idx {
			ot := idx[i][w.op]
			if i == leader || ot.appended == 0 {
				continue
			}
			name := fmt.Sprintf("follower%d", i)
			spans = append(spans, span{Name: name + ".append", Op: w.op, StartUs: us(ot.appendStart), EndUs: us(ot.appended), Parent: "leader.append"})
			if ot.synced != 0 {
				spans = append(spans, span{Name: name + ".sync", Op: w.op, StartUs: us(ot.syncStart), EndUs: us(ot.synced), Parent: name + ".append"})
			}
		}
	}
	st := stageTable{ops: len(ops)}
	if len(ops) == 0 {
		return st, spans
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].latency < ops[j].latency })
	st.tracedWriteP50 = ops[(len(ops)-1)/2].latency
	band := ops[len(ops)*4/10 : len(ops)*6/10+1]
	var sum [4]float64
	for _, op := range band {
		for i, v := range op.stages {
			sum[i] += v / float64(len(band))
		}
	}
	st.submitToLeaderAppend, st.leaderToFollowerAppend = sum[0], sum[1]
	st.followerAppendToSynced, st.quorumSyncedToReply = sum[2], sum[3]
	st.sumVsE2E = (sum[0] + sum[1] + sum[2] + sum[3]) / st.tracedWriteP50
	return st, spans
}

// syncStats returns the sync durations (ms, sorted) of every replica
// within [from, to) and the mean time per appended entry in µs.
func (t *tracer) syncStats(from, to time.Time) (syncMs []float64, appendUsPerEntry float64) {
	lo, hi := from.Sub(t.epoch), to.Sub(t.epoch)
	var ns, entries int64
	for _, rt := range t.replicas {
		rt.mu.Lock()
		for _, s := range rt.syncs {
			if s.start >= lo && s.start < hi {
				syncMs = append(syncMs, float64(s.end-s.start)/float64(time.Millisecond))
			}
		}
		ns += rt.appendNs
		entries += rt.entries
		rt.mu.Unlock()
	}
	sort.Float64s(syncMs)
	if entries > 0 {
		appendUsPerEntry = float64(ns) / float64(entries) / 1e3
	}
	return syncMs, appendUsPerEntry
}

func (t *tracer) messagesReceived() (total int64) {
	for _, rt := range t.replicas {
		total += rt.received.Load()
	}
	return total
}

func (t *tracer) messagesSent() (total int64, byType map[string]int64) {
	byType = make(map[string]int64)
	for _, rt := range t.replicas {
		total += rt.sent.Load()
		rt.mu.Lock()
		for typ, n := range rt.byType {
			byType[typ.String()] += n
		}
		rt.mu.Unlock()
	}
	return total, byType
}

// traceFile is what a traced trial leaves in benchmark/out/.
type traceFile struct {
	Workload     string           `json:"workload"`
	Seed         int64            `json:"seed"`
	Leader       int              `json:"leader"`
	TracedOps    int              `json:"traced_ops"`
	MessagesSent map[string]int64 `json:"messages_sent"`
	// MessagesReceived is what the handler wrappers saw delivered; it
	// falls short of the sum of MessagesSent by what the transport shed.
	MessagesReceived int64  `json:"messages_received"`
	Spans            []span `json:"spans"`
}

func writeTraceFile(outDir string, tf traceFile) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+tf.Workload+".json"), data, 0o644)
}
