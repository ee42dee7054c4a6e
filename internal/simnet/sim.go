// Package simnet is a deterministic discrete-event simulator for wide-area
// replicated systems. It substitutes for the paper's 5-region AWS testbed:
// protocol engines run unmodified on virtual time, with a configurable site
// latency matrix, a per-node CPU service queue and a per-node egress
// bandwidth queue, so message patterns (quorum waits, forwarding hops,
// leader bottlenecks) reproduce the published evaluation shapes.
//
// Ordering contract: events run in a total (at, seq) order, where seq is
// the order in which they were scheduled, so events due at the same
// instant run first-scheduled first. A run is a function of its seed and
// its inputs alone. Scheduling and running an event allocate nothing once
// the queue has grown to its working size: the queue holds events by
// value, and the Network delivers each message through a pooled record
// (drivers can do the same for their own deferred work, see Runner).
package simnet

import (
	"math/rand"
	"time"
)

// Time is virtual nanoseconds since the start of the simulation.
type Time int64

// Duration converts a virtual instant into a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Runner is work the simulator runs at a scheduled instant. A driver that
// schedules the same kind of work on every step implements it on a pooled
// record and schedules that with Schedule, where a closure passed to At
// would be one heap allocation per event.
type Runner interface{ Run() }

// funcRunner runs a plain func: a func value is a single pointer, so it
// fits in the Runner interface without an allocation.
type funcRunner func()

func (f funcRunner) Run() { f() }

type event struct {
	at  Time
	seq uint64
	r   Runner
}

// before is the queue's total order: time, then scheduling order.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// queue is a 4-ary min-heap of events under before. A wider node than a
// binary heap's halves the tree's depth, so a push sifts through fewer
// levels, at the price of comparing up to four children per level on a
// pop.
type queue []event

func (q *queue) push(ev event) {
	h := append(*q, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

func (q *queue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the Runner so the GC can reclaim it
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := min(c+4, n)
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	*q = h
	return top
}

// Sim is the event loop. It is single-threaded: all scheduled work runs
// sequentially in the (at, seq) order the package comment states, which
// makes every run with the same seed bit-for-bit reproducible. Scheduling
// with Schedule, or with At and a func built beforehand, does not allocate
// once the queue has grown to the run's peak of pending events.
type Sim struct {
	now    Time
	seq    uint64
	events queue
	rng    *rand.Rand
	// processed counts executed events, for reporting.
	processed uint64
}

// New returns a simulator with a deterministic RNG derived from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulation RNG for components that need deterministic
// randomness (jittered election timeouts, workload choices).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Schedule runs r at absolute virtual time t (clamped to now).
func (s *Sim) Schedule(t Time, r Runner) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, r: r})
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) { s.Schedule(t, funcRunner(fn)) }

// After schedules fn d from now.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+Time(d), fn) }

// Every schedules fn at a fixed period until the returned stop function is
// called. The first invocation happens one period from now.
func (s *Sim) Every(period time.Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		s.After(period, tick)
	}
	s.After(period, tick)
	return func() { stopped = true }
}

// Clock drives fn periodically at an adjustable rate, modeling a node
// clock that drifts from virtual (true) time: rate 1 is nominal, 2 ticks
// twice as fast, 0.5 half speed. SetRate applies live — a step change in
// drift — and rate 0 pauses the clock until a positive rate resumes it,
// which is how simulations express a GC or VM pause without unplugging
// the node. The first tick fires one (scaled) period after creation.
type Clock struct {
	sim     *Sim
	period  time.Duration
	rate    float64
	stopped bool
	// armed guards against double-scheduling when SetRate resumes a
	// paused clock.
	armed bool
	fn    func()
	// tick is the scheduled event, built once so re-arming allocates
	// nothing.
	tick func()
}

// NewClock starts a clock with the given nominal period and initial rate.
func (s *Sim) NewClock(period time.Duration, rate float64, fn func()) *Clock {
	c := &Clock{sim: s, period: period, rate: rate, fn: fn}
	c.tick = func() {
		c.armed = false
		if c.stopped || c.rate <= 0 {
			return
		}
		c.fn()
		c.arm()
	}
	c.arm()
	return c
}

func (c *Clock) arm() {
	if c.stopped || c.armed || c.rate <= 0 {
		return
	}
	c.armed = true
	c.sim.After(time.Duration(float64(c.period)/c.rate), c.tick)
}

// SetRate changes the clock's speed from now on. Rate 0 pauses; a
// positive rate (re)starts ticking one scaled period from now, except
// that a tick already in flight when the rate changes still fires at its
// old schedule (the period it was cut from).
func (c *Clock) SetRate(rate float64) {
	c.rate = rate
	c.arm()
}

// Stop permanently silences the clock.
func (c *Clock) Stop() { c.stopped = true }

// Run executes events until virtual time reaches until or the event queue
// drains, whichever is first. It returns the time at which it stopped.
func (s *Sim) Run(until time.Duration) Time {
	limit := Time(until)
	for len(s.events) > 0 && s.events[0].at <= limit {
		s.step()
	}
	if s.now < limit {
		s.now = limit
	}
	return s.now
}

// RunUntilIdle executes events until the queue drains.
func (s *Sim) RunUntilIdle() Time {
	for len(s.events) > 0 {
		s.step()
	}
	return s.now
}

// step runs the earliest event.
func (s *Sim) step() {
	ev := s.events.pop()
	s.now = ev.at
	s.processed++
	ev.r.Run()
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.events) }
