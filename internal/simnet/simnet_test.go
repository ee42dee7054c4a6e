package simnet_test

import (
	"testing"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/simnet"
)

type msg struct{ size int }

func (m *msg) WireSize() int { return m.size }

func TestEventOrdering(t *testing.T) {
	sim := simnet.New(1)
	var order []int
	sim.After(30*time.Millisecond, func() { order = append(order, 3) })
	sim.After(10*time.Millisecond, func() { order = append(order, 1) })
	sim.After(20*time.Millisecond, func() { order = append(order, 2) })
	sim.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
}

// TestSameInstantFIFO checks the queue's (at, seq) order over several
// hundred events at each of three instants, scheduled interleaved, plus
// events that running ones schedule while the queue shrinks: every event
// runs after all earlier instants, and after every event scheduled before
// it at its own instant.
func TestSameInstantFIFO(t *testing.T) {
	sim := simnet.New(1)
	type stamp struct {
		at  simnet.Time
		seq int
	}
	var got []stamp
	seq := 0
	var schedule func(at simnet.Time)
	schedule = func(at simnet.Time) {
		seq++
		st := stamp{at, seq}
		sim.At(at, func() {
			got = append(got, st)
			if st.at == simnet.Time(time.Millisecond) && st.seq%2 == 0 {
				schedule(simnet.Time(3 * time.Millisecond))
			}
		})
	}
	const perInstant = 300
	for i := 0; i < 3*perInstant; i++ {
		schedule(simnet.Time(time.Duration(1+i%3) * time.Millisecond))
	}
	sim.RunUntilIdle()
	if want := 3*perInstant + perInstant/2; len(got) != want {
		t.Fatalf("%d events ran, want %d", len(got), want)
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || a.at == b.at && a.seq > b.seq {
			t.Fatalf("event %d ran before event %d: %+v then %+v", a.seq, b.seq, a, b)
		}
	}
}

// TestSchedulingDoesNotAllocate: once the queue has grown to its working
// size, scheduling and running a func built beforehand, a Runner, or a
// Clock's ticks allocates nothing.
func TestSchedulingDoesNotAllocate(t *testing.T) {
	sim := simnet.New(1)
	n := 0
	fn := func() { n++ }
	r := counter{&n}
	sim.NewClock(time.Microsecond, 1, fn)
	round := func() {
		for i := 0; i < 64; i++ {
			sim.After(time.Duration(i%7)*time.Microsecond, fn)
			sim.Schedule(sim.Now()+simnet.Time(i%5), r)
		}
		sim.Run(sim.Now().Duration() + 8*time.Microsecond)
	}
	round() // grow the queue
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of 128 events and 8 clock ticks allocated %.1f times", allocs)
	}
	if n == 0 {
		t.Fatal("no event ran")
	}
}

type counter struct{ n *int }

func (c counter) Run() { *c.n++ }

// TestSendDeliverDoesNotAllocate: once the Network's delivery pool is warm,
// a Send → Deliver round through the bandwidth, latency and CPU models
// allocates nothing.
func TestSendDeliverDoesNotAllocate(t *testing.T) {
	sim := simnet.New(1)
	net, err := simnet.NewNetwork(sim, simnet.PaperTopology(), simnet.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	ep := simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) { got++ })
	net.Register(0, 0, ep, true)
	net.Register(1, 4, ep, true)
	m := &msg{size: 100}
	round := func() {
		for i := 0; i < 8; i++ {
			net.Send(0, 1, m)
			net.Send(1, 0, m)
		}
		sim.RunUntilIdle()
	}
	round() // warm the pool and the queue
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("a round of 16 messages allocated %.1f times", allocs)
	}
	if got != 16*102 { // the first round, AllocsPerRun's warm-up run and its 100
		t.Fatalf("%d deliveries, want %d", got, 16*102)
	}
}

func TestRunStopsAtLimit(t *testing.T) {
	sim := simnet.New(1)
	fired := false
	sim.After(2*time.Second, func() { fired = true })
	end := sim.Run(time.Second)
	if fired {
		t.Fatal("event beyond the limit fired")
	}
	if end != simnet.Time(time.Second) {
		t.Fatalf("clock at %v, want 1s", end.Duration())
	}
	sim.Run(3 * time.Second)
	if !fired {
		t.Fatal("event never fired after extending the run")
	}
}

func TestEveryStops(t *testing.T) {
	sim := simnet.New(1)
	n := 0
	stop := sim.Every(10*time.Millisecond, func() {
		n++
		// Stopping from inside the callback must halt future firings.
	})
	sim.Run(55 * time.Millisecond)
	stop()
	sim.Run(200 * time.Millisecond)
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []simnet.Time {
		sim := simnet.New(42)
		topo := simnet.PaperTopology()
		net, err := simnet.NewNetwork(sim, topo, simnet.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		var arrivals []simnet.Time
		for id := protocol.NodeID(0); id < 5; id++ {
			id := id
			net.Register(id, simnet.Site(id), simnet.EndpointFunc(
				func(protocol.NodeID, protocol.Message) {
					arrivals = append(arrivals, sim.Now())
				}), true)
		}
		for i := 0; i < 20; i++ {
			from := protocol.NodeID(i % 5)
			to := protocol.NodeID((i + 1) % 5)
			net.Send(from, to, &msg{size: 100 + i})
		}
		sim.RunUntilIdle()
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("arrival counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLatencyMatrixApplied(t *testing.T) {
	sim := simnet.New(1)
	topo := simnet.PaperTopology()
	cost := simnet.CostModel{} // no CPU, no bandwidth: pure propagation
	net, err := simnet.NewNetwork(sim, topo, cost)
	if err != nil {
		t.Fatal(err)
	}
	var at simnet.Time
	net.Register(0, 0, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) {}), false)
	net.Register(1, 4, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) { at = sim.Now() }), false)
	net.Send(0, 1, &msg{size: 8})
	sim.RunUntilIdle()
	want := topo.OneWay[0][4]
	if got := at.Duration(); got != want {
		t.Fatalf("oregon->seoul delivery at %v, want %v", got, want)
	}
}

func TestPairwiseFIFOUnderBandwidth(t *testing.T) {
	sim := simnet.New(1)
	topo := simnet.PaperTopology()
	net, err := simnet.NewNetwork(sim, topo, simnet.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	net.Register(0, 0, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) {}), true)
	net.Register(1, 1, simnet.EndpointFunc(func(_ protocol.NodeID, m protocol.Message) {
		got = append(got, m.WireSize())
	}), true)
	// Mixed sizes: a large message first must still arrive first.
	net.Send(0, 1, &msg{size: 1 << 20})
	net.Send(0, 1, &msg{size: 8})
	net.Send(0, 1, &msg{size: 4096})
	sim.RunUntilIdle()
	if len(got) != 3 || got[0] != 1<<20 || got[1] != 8 || got[2] != 4096 {
		t.Fatalf("pairwise FIFO violated: %v", got)
	}
}

func TestPartitionAndDrops(t *testing.T) {
	sim := simnet.New(1)
	net, err := simnet.NewNetwork(sim, simnet.PaperTopology(), simnet.CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	net.Register(0, 0, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) {}), false)
	net.Register(1, 1, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) { n++ }), false)
	net.SetPartitioned(0, 1, true)
	net.Send(0, 1, &msg{size: 8})
	sim.RunUntilIdle()
	if n != 0 {
		t.Fatal("partitioned message delivered")
	}
	net.SetPartitioned(0, 1, false)
	net.Send(0, 1, &msg{size: 8})
	sim.RunUntilIdle()
	if n != 1 {
		t.Fatal("healed link did not deliver")
	}
	if net.Dropped != 1 {
		t.Fatalf("dropped=%d, want 1", net.Dropped)
	}
}

func TestCPUQueueSerializes(t *testing.T) {
	sim := simnet.New(1)
	cost := simnet.CostModel{MsgOverhead: 10 * time.Millisecond}
	net, err := simnet.NewNetwork(sim, simnet.PaperTopology(), cost)
	if err != nil {
		t.Fatal(err)
	}
	var times []simnet.Time
	net.Register(0, 0, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) {}), false)
	net.Register(1, 0, simnet.EndpointFunc(func(protocol.NodeID, protocol.Message) {
		times = append(times, sim.Now())
	}), true)
	for i := 0; i < 3; i++ {
		net.Send(0, 1, &msg{size: 8})
	}
	sim.RunUntilIdle()
	if len(times) != 3 {
		t.Fatalf("deliveries=%d", len(times))
	}
	// Back-to-back sends must be spaced by the 10ms service time.
	for i := 1; i < 3; i++ {
		gap := (times[i] - times[i-1]).Duration()
		if gap < 9*time.Millisecond {
			t.Fatalf("CPU queue not serialized: gap %v", gap)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	bad := &simnet.Topology{Sites: []string{"a", "b"}, OneWay: [][]time.Duration{{0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid topology accepted")
	}
	if err := simnet.PaperTopology().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClockRates(t *testing.T) {
	sim := simnet.New(1)
	var fast, slow, nominal int
	sim.NewClock(10*time.Millisecond, 2, func() { fast++ })
	sim.NewClock(10*time.Millisecond, 0.5, func() { slow++ })
	sim.NewClock(10*time.Millisecond, 1, func() { nominal++ })
	sim.Run(time.Second)
	if fast != 200 || nominal != 100 || slow != 50 {
		t.Fatalf("ticks fast=%d nominal=%d slow=%d, want 200/100/50", fast, slow, nominal)
	}
}

func TestClockPauseAndResume(t *testing.T) {
	sim := simnet.New(1)
	n := 0
	c := sim.NewClock(10*time.Millisecond, 1, func() { n++ })
	sim.Run(105 * time.Millisecond)
	if n != 10 {
		t.Fatalf("ticks before pause = %d, want 10", n)
	}
	c.SetRate(0) // GC/VM pause: the clock stands still
	sim.Run(500 * time.Millisecond)
	if n != 10 {
		t.Fatalf("paused clock ticked (n=%d)", n)
	}
	c.SetRate(1)
	sim.Run(605 * time.Millisecond)
	if n != 20 {
		t.Fatalf("ticks after resume = %d, want 20", n)
	}
	c.Stop()
	sim.Run(time.Second)
	if n != 20 {
		t.Fatalf("stopped clock ticked (n=%d)", n)
	}
}

func TestClockRateChangeMidFlight(t *testing.T) {
	sim := simnet.New(1)
	n := 0
	c := sim.NewClock(10*time.Millisecond, 1, func() { n++ })
	// The in-flight tick (armed for t=10ms) fires at its old schedule;
	// everything after runs at the new rate.
	sim.Run(5 * time.Millisecond)
	c.SetRate(2)
	sim.Run(105 * time.Millisecond)
	// t=10 (old period), then every 5ms: 15,20,...,105 → 1 + 19.
	if n != 20 {
		t.Fatalf("ticks = %d, want 20", n)
	}
}
