package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"raftpaxos/internal/transport"
)

// counters is one reading of every counter the system already keeps,
// taken from outside through the modules' public accessors.
type counters struct {
	at time.Time

	fileSyncs, fileEntries uint64 // storage.File, summed over replicas

	syncNs, syncBatches, stallNs int64 // cluster.Node.PersistStats, summed
	leaderBatches                int64
	inflightMax                  int64 // max over replicas
	readsFast, readsLog          int64 // cluster.Node.ReadStats, summed

	tcp     transport.TCPStats // summed over replicas
	records int64              // transport.TCP.GroupStats RecordsSent, summed
	traced  int64              // messages the transport wrapper saw sent

	cpu        time.Duration // getrusage user+system of this process
	allocBytes uint64
	gcPauseNs  uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime(c *counters) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.cpu, c.allocBytes, c.gcPauseNs = processCPU(), ms.TotalAlloc, ms.PauseTotalNs
}

func readCounters(r *rig, tr *tracer) counters {
	c := counters{at: time.Now()}
	for i, h := range r.hosts {
		c.fileSyncs += r.files[i].SyncCount()
		c.fileEntries += r.files[i].EntryCount()
		n := h.Group(0)
		syncNs, batches, stall, inflight := n.PersistStats()
		c.syncNs += syncNs
		c.syncBatches += batches
		c.stallNs += stall
		if i == r.leader {
			c.leaderBatches = batches
		}
		if inflight > c.inflightMax {
			c.inflightMax = inflight
		}
		fast, logged := n.ReadStats()
		c.readsFast += fast
		c.readsLog += logged
		st := r.tcps[i].Stats()
		c.tcp.FramesSent += st.FramesSent
		c.tcp.FramesCompressed += st.FramesCompressed
		c.tcp.RawBytes += st.RawBytes
		c.tcp.WireBytes += st.WireBytes
		c.tcp.DroppedFrames += st.DroppedFrames
		c.tcp.EncodeNanos += st.EncodeNanos
		for _, g := range r.tcps[i].GroupStats() {
			c.records += g.RecordsSent
		}
	}
	if tr != nil {
		c.traced, _ = tr.messagesSent()
	}
	readRuntime(&c)
	return c
}

// probe watches one traced trial's measured interval: a counter reading
// at each end and, every 10 ms in between, how far each follower's state
// machine trails the leader's, how much the leader's WAL grew, and the
// live heap.
type probe struct {
	rig           *rig
	tr            *tracer
	before, after counters
	lag           []float64 // entries, one sample per follower per tick
	walGrowth     int64     // bytes the leader's WAL grew (compaction drops ignored)
	heapMax       uint64
	done          chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startProbe(r *rig, tr *tracer, end time.Time) *probe {
	p := &probe{rig: r, tr: tr, before: readCounters(r, tr), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		heap := []metrics.Sample{{Name: heapMetric}}
		leaderStore := r.leaderHost().Group(0).Store()
		lastWAL := r.files[r.leader].WALBytes()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for now := range tick.C {
			if !now.Before(end) {
				return
			}
			lead := leaderStore.AppliedIndex()
			for i, h := range r.hosts {
				if i != r.leader {
					p.lag = append(p.lag, float64(lead-h.Group(0).Store().AppliedIndex()))
				}
			}
			wal := r.files[r.leader].WALBytes()
			if wal > lastWAL {
				p.walGrowth += wal - lastWAL
			}
			lastWAL = wal
			metrics.Read(heap)
			if heap[0].Value.Kind() == metrics.KindUint64 && heap[0].Value.Uint64() > p.heapMax {
				p.heapMax = heap[0].Value.Uint64()
			}
		}
	}()
	return p
}

// finish waits for the sampler and takes the closing counter reading.
func (p *probe) finish() {
	<-p.done
	p.after = readCounters(p.rig, p.tr)
	sort.Float64s(p.lag)
}
