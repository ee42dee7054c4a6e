package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"raftpaxos"
	"raftpaxos/internal/cluster"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// snapshotInterval matches what a deployment of cmd/raftpaxos-kv would
// pass as -snapshot-interval; everything else is the library default
// (10 ms tick, 300 ms election, 50 ms heartbeat, compression on).
const snapshotInterval = 10000

// lazyTransport breaks the construction cycle the same way
// cmd/raftpaxos-kv does: the host needs a transport, the TCP transport
// needs the host's handler.
type lazyTransport struct {
	mu sync.RWMutex
	t  transport.GroupTransport
}

func (l *lazyTransport) set(t transport.GroupTransport) {
	l.mu.Lock()
	l.t = t
	l.mu.Unlock()
}

func (l *lazyTransport) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	l.mu.RLock()
	t := l.t
	l.mu.RUnlock()
	if t != nil {
		t.SendGroup(group, from, to, msg)
	}
}

func (l *lazyTransport) Send(from, to protocol.NodeID, msg protocol.Message) {
	l.SendGroup(0, from, to, msg)
}

func (l *lazyTransport) Close() error { return nil }

// rig is the system under test, assembled the way cmd/raftpaxos-kv ships
// it: one cluster.Host per replica, a raftstar engine from
// raftpaxos.NewEngine, transport.TCP on loopback, storage.File with real
// fsync. With a tracer the store and transport are wrapped at the seams
// HostConfig already offers; without one nothing sits in between.
type rig struct {
	hosts  []*cluster.Host
	tcps   []*transport.TCP
	files  []*storage.File
	owned  []*storage.File // opened here (traced runs); the host closes its own
	leader int
}

func replicaDir(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("node-%d", i)) }

func startRig(dir string, replicas int, tr *tracer) (*rig, error) {
	cluster.RegisterMessages()
	peers := make([]protocol.NodeID, replicas)
	addrs := make(map[protocol.NodeID]string, replicas)
	for i := range peers {
		peers[i] = protocol.NodeID(i)
		addrs[peers[i]] = "127.0.0.1:0"
	}
	r := &rig{leader: -1}
	for i, id := range peers {
		id := id
		lazy := &lazyTransport{}
		cfg := cluster.HostConfig{
			Groups:           1,
			Transport:        lazy,
			SnapshotInterval: snapshotInterval,
			DataDir:          replicaDir(dir, i),
			NewEngine: func(int) protocol.Engine {
				return raftpaxos.NewEngine(raftpaxos.ClusterConfig{
					Protocol: raftpaxos.ProtoRaftStar, Nodes: replicas,
				}, id, peers)
			},
		}
		if tr != nil {
			f, err := storage.OpenFileWith(cluster.GroupDir(cfg.DataDir, 0), storage.Options{})
			if err != nil {
				r.stop()
				return nil, err
			}
			r.owned = append(r.owned, f)
			cfg.OpenStore = func(int) (storage.Store, error) { return tr.wrapStore(i, f), nil }
		}
		h, err := cluster.NewHost(cfg)
		if err != nil {
			r.stop()
			return nil, err
		}
		r.hosts = append(r.hosts, h)
		handler := transport.GroupHandler(h.HandleMessage)
		if tr != nil {
			handler = tr.wrapHandler(i, handler)
		}
		tcp, err := transport.NewTCPGroups(id, addrs, handler, transport.TCPOptions{})
		if err != nil {
			r.stop()
			return nil, err
		}
		r.tcps = append(r.tcps, tcp)
		if tr != nil {
			lazy.set(tr.wrapTransport(i, tcp))
			r.files = append(r.files, r.owned[i])
		} else {
			lazy.set(tcp)
			r.files = append(r.files, h.GroupStore(0).(*storage.File))
		}
	}
	// Every listener is bound before any host starts, so the address map
	// is complete before the first dial reads it.
	for i, id := range peers {
		addrs[id] = r.tcps[i].Addr()
	}
	for _, h := range r.hosts {
		h.Start()
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.leader < 0 {
		for i, h := range r.hosts {
			if h.Group(0).IsLeader() {
				r.leader = i
			}
		}
		if r.leader < 0 {
			if time.Now().After(deadline) {
				r.stop()
				return nil, fmt.Errorf("no leader within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return r, nil
}

func (r *rig) leaderHost() *cluster.Host { return r.hosts[r.leader] }

// stop shuts the replicas down and waits for their goroutines.
func (r *rig) stop() {
	for _, h := range r.hosts {
		h.Stop()
	}
	for _, t := range r.tcps {
		t.Close()
	}
	for _, f := range r.owned {
		f.Close()
	}
	r.hosts, r.tcps, r.owned = nil, nil, nil
}

// term is the highest term any replica has made durable.
func (r *rig) term() uint64 {
	var max uint64
	for _, f := range r.files {
		if hs, err := f.HardState(); err == nil && hs.Term > max {
			max = hs.Term
		}
	}
	return max
}

// awaitConverged waits until every replica has applied what the leader
// has applied; followers learn the last commit index from the next
// heartbeat at the latest.
func (r *rig) awaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want := r.leaderHost().Group(0).Store().AppliedIndex()
		behind := false
		for _, h := range r.hosts {
			if h.Group(0).Store().AppliedIndex() < want {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge on applied index %d within %v", want, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkFinalState runs the end-of-trial output checks and returns the
// number of violations: replicas whose state machine differs from the
// leader's, and keys whose final value is older than their floor (see
// keyState), newer than anything issued, or filed under the wrong key.
func (r *rig) checkFinalState(ks *keyspace) (violations int64, err error) {
	if err := r.awaitConverged(5 * time.Second); err != nil {
		return 1, err
	}
	want, err := r.leaderHost().Group(0).Store().Snapshot()
	if err != nil {
		return 1, err
	}
	for i, h := range r.hosts {
		got, err := h.Group(0).Store().Snapshot()
		if err != nil || !bytes.Equal(got, want) {
			violations++
			fmt.Fprintf(os.Stderr, "check: replica %d state differs from the leader's\n", i)
		}
	}
	store := r.leaderHost().Group(0).Store()
	for i := range ks.keys {
		floor, issued := ks.keys[i].bounds()
		v, _ := store.Get(ks.names[i])
		key, seq, _, ok := decodeValue(v)
		if issued == 0 && !ok {
			continue
		}
		if !ok || int(key) != i || seq < floor || seq > issued {
			violations++
			fmt.Fprintf(os.Stderr, "check: key %d final seq %d outside [%d, %d]\n", i, seq, floor, issued)
		}
	}
	return violations, nil
}
