package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Workload shape constants. Rates and counts are fixed here and recorded
// in BENCHMARK.json; -seed changes keys, order and values only.
const (
	keyCount    = 4096
	valueSize   = 64
	zipfTheta   = 0.99
	maxInflight = 512             // open-loop callers; backlog beyond it is reported
	opTimeout   = 2 * time.Second // an op slower than this counts as failed
	windowWidth = 250 * time.Millisecond
)

// zipf draws key ranks with P(rank i) ∝ 1/(i+1)^theta. math/rand's Zipf
// needs an exponent above 1, and the workloads use 0.99.
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) next(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// Every value starts with (key index, per-key sequence, op id) so the
// checks can order what a read returns and the store wrapper can tell
// which client operation an appended entry belongs to.
const valueHeader = 4 + 8 + 8

func encodeValue(dst []byte, key uint32, seq, op uint64) {
	binary.BigEndian.PutUint32(dst[0:4], key)
	binary.BigEndian.PutUint64(dst[4:12], seq)
	binary.BigEndian.PutUint64(dst[12:20], op)
}

func decodeValue(v []byte) (key uint32, seq, op uint64, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, 0, false
	}
	return binary.BigEndian.Uint32(v[0:4]), binary.BigEndian.Uint64(v[4:12]),
		binary.BigEndian.Uint64(v[12:20]), true
}

// keyState orders one key's writes for the output checks. Sequences are
// handed out in issue order, but writes to a hot key overlap and the log
// may order overlapping writes either way, so "a read returns at least
// the highest acked sequence" would flag legal histories. What must hold:
// once write w is acked, no later read (or the final state) may return a
// write that was already acked before w was issued. contig is the
// watermark below which every write is acked; w remembers contig at its
// issue, and its ack raises floor to that watermark + 1.
type keyState struct {
	mu     sync.Mutex
	issued uint64
	contig uint64
	ahead  map[uint64]struct{} // acked sequences above contig
	floor  uint64              // a read issued now must return seq >= floor
}

func (k *keyState) issue() (seq, contigAtIssue uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.issued++
	return k.issued, k.contig
}

func (k *keyState) ack(seq, contigAtIssue uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if contigAtIssue+1 > k.floor {
		k.floor = contigAtIssue + 1
	}
	if seq != k.contig+1 {
		if k.ahead == nil {
			k.ahead = make(map[uint64]struct{})
		}
		k.ahead[seq] = struct{}{}
		return
	}
	k.contig = seq
	for {
		if _, ok := k.ahead[k.contig+1]; !ok {
			return
		}
		delete(k.ahead, k.contig+1)
		k.contig++
	}
}

func (k *keyState) bounds() (floor, issued uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.floor, k.issued
}

// keyspace is the seeded input set: key names, value filler and the
// per-key check state.
type keyspace struct {
	names  []string
	filler []byte
	keys   []keyState
	zipf   *zipf
}

func newKeyspace(seed int64) *keyspace {
	rng := rand.New(rand.NewSource(seed))
	ks := &keyspace{
		names:  make([]string, keyCount),
		filler: make([]byte, valueSize-valueHeader),
		keys:   make([]keyState, keyCount),
		zipf:   newZipf(keyCount, zipfTheta),
	}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("k%04d-%08x", i, rng.Uint32())
	}
	rng.Read(ks.filler)
	return ks
}

// stream is one source of load in a trial.
type stream struct {
	rate      float64 // open loop: operations due per second; 0 = closed loop
	clients   int     // closed loop: callers, each sending its next op on reply
	readShare float64 // share of operations that are Gets
}

// streamResult is what one stream observed.
type streamResult struct {
	writes, reads []sample
	late          []sample // open loop: how late each measured op left its due time
	backlogMax    int      // open loop: most operations due but not yet sent
	attempted     int64
	failed        int64 // errors and timeouts
	stale         int64 // reads below the key's floor, or of a wrong key
}

// loadRun drives the streams of one trial against a running rig.
type loadRun struct {
	rig     *rig
	ks      *keyspace
	t0      time.Time // start of the measured interval
	warmup  time.Duration
	measure time.Duration
	nextOp  atomic.Uint64 // op ids, dense from 1, shared by all streams
	readRR  atomic.Uint64 // round-robin cursor for reads over replicas
}

type worker struct {
	run *loadRun
	res streamResult
	val []byte
}

func (w *worker) write(ctx context.Context, key int, due time.Time) {
	lr := w.run
	k := &lr.ks.keys[key]
	seq, contig := k.issue()
	op := lr.nextOp.Add(1)
	encodeValue(w.val, uint32(key), seq, op)
	w.res.attempted++
	err := lr.rig.leaderHost().Put(ctx, lr.ks.names[key], w.val)
	lat := time.Since(due)
	if err != nil || lat > opTimeout {
		w.res.failed++
		return
	}
	k.ack(seq, contig)
	w.res.writes = append(w.res.writes, sample{due: due.Sub(lr.t0), latency: lat, op: op})
}

func (w *worker) read(ctx context.Context, key int, due time.Time) {
	lr := w.run
	floor, _ := lr.ks.keys[key].bounds()
	host := lr.rig.hosts[lr.readRR.Add(1)%uint64(len(lr.rig.hosts))]
	w.res.attempted++
	v, err := host.Get(ctx, lr.ks.names[key])
	lat := time.Since(due)
	if err != nil || lat > opTimeout {
		w.res.failed++
		return
	}
	gotKey, seq, _, ok := decodeValue(v)
	if !ok || int(gotKey) != key || seq < floor {
		w.res.stale++
	}
	w.res.reads = append(w.res.reads, sample{due: due.Sub(lr.t0), latency: lat})
}

func (w *worker) do(ctx context.Context, key int, read bool, due time.Time) {
	if read {
		w.read(ctx, key, due)
	} else {
		w.write(ctx, key, due)
	}
}

func (lr *loadRun) newWorker() *worker {
	w := &worker{run: lr, val: make([]byte, valueSize)}
	copy(w.val[valueHeader:], lr.ks.filler)
	return w
}

// opMix deals reads and writes in a fixed pattern — with readShare 0.9,
// every tenth operation is a write — so a stream's read and write rates
// are constants and the seed decides only which keys they touch.
type opMix struct {
	readShare float64
	owed      float64 // writes owed so far, less writes dealt
}

func (m *opMix) nextIsRead() bool {
	m.owed += 1 - m.readShare
	if m.owed >= 1-1e-9 {
		m.owed--
		return false
	}
	return true
}

type openOp struct {
	key  int
	read bool
	due  time.Time
}

// pacer walks the due times of an open-loop stream. It sleeps to the next
// due time and never spins: a spinning pacer is more punctual but takes a
// core from the system under test.
type pacer struct {
	start    time.Time
	interval float64 // nanoseconds between due times
	n        int64
}

func (p *pacer) due() time.Time {
	return p.start.Add(time.Duration(float64(p.n) * p.interval))
}

// wait blocks until the current due time has passed and returns it with
// how late the caller woke. It never returns early.
func (p *pacer) wait() (due time.Time, late time.Duration) {
	due = p.due()
	p.n++
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	return due, time.Since(due)
}

// runOpen sends operations on a fixed schedule whether or not earlier
// ones have completed. Latency counts from the due time, so a stall is
// charged to every operation it delayed.
func (lr *loadRun) runOpen(ctx context.Context, st stream, seed int64) streamResult {
	rng := rand.New(rand.NewSource(seed))
	work := make(chan openOp)
	workers := make([]*worker, maxInflight)
	var wg sync.WaitGroup
	for i := range workers {
		w := lr.newWorker()
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				w.do(ctx, op.key, op.read, op.due)
			}
		}()
	}
	var res streamResult
	mix := opMix{readShare: st.readShare}
	p := pacer{start: lr.t0.Add(-lr.warmup), interval: float64(time.Second) / st.rate}
	end := lr.t0.Add(lr.measure)
	for p.due().Before(end) {
		due, late := p.wait()
		if !due.Before(lr.t0) {
			res.late = append(res.late, sample{due: due.Sub(lr.t0), latency: late})
			if b := int(float64(late) / p.interval); b > res.backlogMax {
				res.backlogMax = b
			}
		}
		// Blocks while all maxInflight callers are busy; the wait shows up
		// as lateness and backlog, not as missing load.
		work <- openOp{key: lr.ks.zipf.next(rng), read: mix.nextIsRead(), due: due}
	}
	close(work)
	wg.Wait()
	for _, w := range workers {
		res.merge(&w.res)
	}
	return res
}

// runClosed keeps st.clients callers busy: each sends its next operation
// when the previous one returns, so latency counts from the send.
func (lr *loadRun) runClosed(ctx context.Context, st stream, seed int64) streamResult {
	end := lr.t0.Add(lr.measure)
	workers := make([]*worker, st.clients)
	var wg sync.WaitGroup
	for i := range workers {
		w := lr.newWorker()
		workers[i] = w
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		mix := opMix{readShare: st.readShare}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(end); now = time.Now() {
				w.do(ctx, lr.ks.zipf.next(rng), mix.nextIsRead(), now)
			}
		}()
	}
	wg.Wait()
	var res streamResult
	for _, w := range workers {
		res.merge(&w.res)
	}
	return res
}

func (r *streamResult) merge(o *streamResult) {
	r.writes = append(r.writes, o.writes...)
	r.reads = append(r.reads, o.reads...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.stale += o.stale
}

// preload writes every key once, so reads never miss and the first
// measured writes overwrite.
func (lr *loadRun) preload(ctx context.Context) error {
	const loaders = 32
	var next atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < loaders; i++ {
		w := lr.newWorker()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				key := int(next.Add(1)) - 1
				if key >= keyCount {
					break
				}
				w.write(ctx, key, time.Now())
			}
			failed.Add(w.res.failed)
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("preload: %d of %d writes failed", n, keyCount)
	}
	return nil
}

// run starts every stream at the warm-up start and returns their results
// in stream order once the measured interval is over and all callers
// have returned.
func (lr *loadRun) run(ctx context.Context, streams []stream, seed int64) []streamResult {
	out := make([]streamResult, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		i, st := i, st
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st.rate > 0 {
				out[i] = lr.runOpen(ctx, st, seed+int64(i)*104729)
			} else {
				out[i] = lr.runClosed(ctx, st, seed+int64(i)*104729)
			}
		}()
	}
	wg.Wait()
	return out
}
