package main

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
)

func TestZipfIsSeedStable(t *testing.T) {
	z := newZipf(keyCount, zipfTheta)
	draw := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, 1000)
		for i := range out {
			out[i] = z.next(rng)
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different keys")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds drew the same keys")
	}
	// Rank 0 carries about 1/H(4096, 0.99) ≈ 11% of the draws.
	hot := 0
	for _, k := range a {
		if k < 0 || k >= keyCount {
			t.Fatalf("key %d out of range", k)
		}
		if k == 0 {
			hot++
		}
	}
	if hot < 70 || hot > 160 {
		t.Fatalf("hottest key drawn %d times in 1000, want about 110", hot)
	}
	if ka, kb := newKeyspace(7), newKeyspace(8); ka.names[0] == kb.names[0] || bytes.Equal(ka.filler, kb.filler) {
		t.Fatal("seed does not change key names and values")
	}
}

func TestWindowedPercentiles(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// Three 1 s windows of 100 samples each at 1, 2, 3 ms... and one
	// stalled window where everything took 500 ms.
	for w, base := range []time.Duration{1 * ms, 2 * ms, 500 * ms, 3 * ms} {
		for i := 0; i < 100; i++ {
			samples = append(samples, sample{
				due:     time.Duration(w)*time.Second + time.Duration(i)*ms,
				latency: base + time.Duration(i)*ms/100,
			})
		}
	}
	samples = append(samples, sample{due: -time.Second, latency: time.Hour}) // warm-up: dropped
	samples = append(samples, sample{due: 4 * time.Second, latency: time.Hour})
	wins := windowed(samples, time.Second, 4*time.Second)
	if len(wins) != 4 || len(wins[0]) != 100 || len(wins[3]) != 100 {
		t.Fatalf("windows %d, sizes %d/%d", len(wins), len(wins[0]), len(wins[3]))
	}
	// Per-window p50s are about 1.5, 2.5, 500.5, 3.5: neither the quiet
	// quartile nor the median over windows sees the stall.
	if got := quietPercentile(wins, 50); got < 1.4 || got > 1.6 {
		t.Fatalf("quietest window p50 = %v, want about 1.5", got)
	}
	if got := median(perWindow(wins, 50)); got < 2.9 || got > 3.1 {
		t.Fatalf("median of window p50s = %v, want about 3.0", got)
	}
	if got := percentile(flatten(wins), 99); got < 500 {
		t.Fatalf("whole-run p99 = %v, want the stall to show", got)
	}
	if got := stallWindows(wins); got != 1 {
		t.Fatalf("stall windows = %d, want 1", got)
	}
	if got := quietRate(wins, time.Second); got != 100 {
		t.Fatalf("window rate = %v, want 100", got)
	}
}

func TestMedianAndSpreadOfTrials(t *testing.T) {
	trials := []float64{1.10, 0.95, 1.00}
	if got := median(trials); got != 1.00 {
		t.Fatalf("median = %v", got)
	}
	if got := spread(trials); got < 0.149 || got > 0.151 {
		t.Fatalf("spread = %v, want 0.15", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
	if median(nil) != 0 || spread([]float64{4}) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
	if got := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); got != 9 {
		t.Fatalf("p90 = %v", got)
	}
}

func TestPacerNeverSendsEarly(t *testing.T) {
	p := pacer{start: time.Now().Add(2 * time.Millisecond), interval: float64(500 * time.Microsecond)}
	var prev time.Time
	for i := 0; i < 40; i++ {
		due, late := p.wait()
		if now := time.Now(); now.Before(due) {
			t.Fatalf("op %d sent %v before its due time", i, due.Sub(now))
		}
		if late < 0 {
			t.Fatalf("op %d: negative lateness %v", i, late)
		}
		if i > 0 {
			if gap := due.Sub(prev); gap < 499*time.Microsecond || gap > 501*time.Microsecond {
				t.Fatalf("due times %v apart, want 500µs", gap)
			}
		}
		prev = due
		if i == 20 {
			time.Sleep(3 * time.Millisecond) // a stall: the next ops are due in the past
		}
	}
	// After the stall the pacer must have reported lateness, not skipped ops.
	if due, late := p.wait(); late <= 0 || time.Since(due) < late {
		t.Fatalf("lateness %v not recorded", late)
	}
}

func TestValueCodecRoundTrips(t *testing.T) {
	v := make([]byte, valueSize)
	encodeValue(v, 4095, 1<<40+3, 1<<50+9)
	key, seq, op, ok := decodeValue(v)
	if !ok || key != 4095 || seq != 1<<40+3 || op != 1<<50+9 {
		t.Fatalf("decoded (%d, %d, %d, %v)", key, seq, op, ok)
	}
	if _, _, _, ok := decodeValue(v[:valueHeader-1]); ok {
		t.Fatal("short value decoded")
	}
}

// The checks must accept every legal history of overlapping writes and
// still catch a lost acked write.
func TestKeyStateFloor(t *testing.T) {
	var k keyState
	s1, c1 := k.issue()
	k.ack(s1, c1)
	// Writes 2 and 3 overlap; the log may order them either way.
	s2, c2 := k.issue()
	s3, c3 := k.issue()
	k.ack(s3, c3)
	if floor, _ := k.bounds(); floor != 2 {
		t.Fatalf("floor after acking 1 then 3 = %d, want 2 (a read may still see 2 or 3, not 1)", floor)
	}
	k.ack(s2, c2)
	if floor, issued := k.bounds(); floor != 2 || issued != 3 {
		t.Fatalf("floor, issued = %d, %d", floor, issued)
	}
	// Write 4 is issued after 1..3 are all acked: once it is acked, only 4 will do.
	s4, c4 := k.issue()
	k.ack(s4, c4)
	if floor, _ := k.bounds(); floor != 4 {
		t.Fatalf("floor = %d, want 4", floor)
	}
}

func TestTracedStoreKeepsStoreInterfacesAndSeesOpIDs(t *testing.T) {
	f, err := storage.OpenFile(filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := newTracer(1)
	var st storage.Store = tr.wrapStore(0, f)
	if _, ok := st.(storage.SnapshotStore); !ok {
		t.Fatal("wrapper lost storage.SnapshotStore")
	}
	if _, ok := st.(storage.DeferredSync); !ok {
		t.Fatal("wrapper lost storage.DeferredSync")
	}
	gs, ok := st.(storage.GroupSync)
	if !ok {
		t.Fatal("wrapper lost storage.GroupSync")
	}
	ks := newKeyspace(1)
	ents := benchEntries(ks, rand.New(rand.NewSource(1)), 1, 3) // op ids 1, 2, 3
	ents = append(ents, protocol.Entry{Index: 4, Term: 1, Bal: 1})
	if err := gs.AppendBuffered(ents); err != nil {
		t.Fatal(err)
	}
	if err := gs.SyncBatch(storage.HardState{Term: 1}, true); err != nil {
		t.Fatal(err)
	}
	idx := tr.replicas[0].index(3)
	for op := 1; op <= 3; op++ {
		if ot := idx[op]; ot.appended == 0 || ot.synced < ot.appended {
			t.Fatalf("op %d: appended %v synced %v", op, ot.appended, ot.synced)
		}
	}
	if last, _ := f.LastIndex(); last != 4 {
		t.Fatalf("the wrapped file holds %d entries, want 4", last)
	}
	if f.SyncCount() != 1 {
		t.Fatalf("syncs = %d, want 1", f.SyncCount())
	}
}

func TestStagesAddUpToTheLatency(t *testing.T) {
	tr := newTracer(3)
	ms := time.Millisecond
	// Leader (replica 1) appends at 1 ms and syncs at 6 ms; follower 0
	// appends at 2 and syncs at 4; follower 2 is slower. Reply at 7 ms.
	tr.replicas[1].appends = []appendMark{{op: 9, start: 1 * ms, end: 1 * ms}}
	tr.replicas[1].syncs = []syncMark{{start: 5 * ms, end: 6 * ms, covered: 1}}
	tr.replicas[0].appends = []appendMark{{op: 9, start: 2 * ms, end: 2 * ms}}
	tr.replicas[0].syncs = []syncMark{{start: 3 * ms, end: 4 * ms, covered: 1}}
	tr.replicas[2].appends = []appendMark{{op: 9, start: 3 * ms, end: 3 * ms}}
	tr.replicas[2].syncs = []syncMark{{start: 8 * ms, end: 9 * ms, covered: 1}}
	st, spans := tr.reduce([]sample{{due: 0, latency: 7 * ms, op: 9}}, tr.epoch, 1, 10)
	want := stageTable{
		submitToLeaderAppend: 1, leaderToFollowerAppend: 1, followerAppendToSynced: 4, quorumSyncedToReply: 1,
		tracedWriteP50: 7, sumVsE2E: 1, ops: 1,
	}
	if st != want {
		t.Fatalf("stages %+v, want %+v", st, want)
	}
	if len(spans) != 7 {
		t.Fatalf("%d spans, want client.op + 3 appends + 3 syncs", len(spans))
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "write_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "commits_per_s", Better: "higher", Bound: 0.10}
	v := func(value, spread float64) e2eValue { return e2eValue{Value: value, Spread: spread} }
	for _, c := range []struct {
		m        metricSpec
		old, new e2eValue
		want     string
	}{
		{lower, v(1.00, 0.02), v(1.05, 0.02), within},
		{lower, v(1.00, 0.02), v(1.20, 0.02), worse},
		{lower, v(1.00, 0.02), v(0.80, 0.02), better},
		{lower, v(1.00, 0.02), v(1.20, 0.30), unresolved},
		{higher, v(1000, 0.01), v(850, 0.01), worse},
		{higher, v(1000, 0.01), v(1200, 0.01), better},
		{higher, v(1000, 0.01), v(950, 0.01), within},
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.old, c.new, got, c.want)
		}
	}

	bf := &benchmarkFile{EndToEnd: []metricSpec{lower}}
	set := func(p50, failedShare float64) *resultSet {
		return &resultSet{Workloads: []workloadResult{{
			Name: "steady-write", FailedShare: failedShare,
			EndToEnd: map[string]e2eValue{"write_p50_ms": v(p50, 0.01)},
			PerLayer: map[string]metricValue{"engine.raft.msgs_per_op": {Value: 7.5}},
		}}}
	}
	var out bytes.Buffer
	if !compare(&out, bf, set(1, 0), set(1.02, 0)) {
		t.Fatalf("a 2%% change within a 10%% bound was rejected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "seeded: identical") {
		t.Fatalf("exact per-layer metric not checked:\n%s", out.String())
	}
	if compare(&out, bf, set(1, 0), set(1.3, 0)) {
		t.Fatal("a 30% regression passed")
	}
	if compare(&out, bf, set(1, 0), set(1, 0.001)) {
		t.Fatal("a higher failed share passed")
	}
}

// BENCHMARK.json at the root of the repo and spec.go must say the same.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n%+v\n%+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from spec.go")
	}
	var want []workloadID
	for _, wl := range liveWorkloads {
		want = append(want, workloadID{Name: wl.name, Why: wl.why})
	}
	want = append(want, workloadID{Name: wanSimName, Why: wanSimWhy})
	if !reflect.DeepEqual(bf.Workloads, want) {
		t.Errorf("workloads differ from trial.go:\n%+v\n%+v", bf.Workloads, want)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the default is %d", bf.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) || !reflect.DeepEqual(bf.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("paths %v command %v", bf.Paths, bf.Command)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
}

// TestSmoke is `go run ./benchmark -smoke`: every workload once for one
// second with every output check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three clusters")
	}
	dir := t.TempDir()
	s := &session{seed: 1, dataDir: filepath.Join(dir, "data"), outDir: dir}
	if err := runSmoke(s); err != nil {
		t.Fatal(err)
	}
}
