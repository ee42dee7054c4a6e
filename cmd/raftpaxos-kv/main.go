// Command raftpaxos-kv runs a replicated key-value store node over TCP —
// the multi-process deployment path. Start N processes with the same
// -peers list and distinct -id values, then drive any of them with
// -put/-get one-shot operations from a sibling invocation, or use -demo
// to launch a self-contained 3-node cluster in one process.
//
// Each process hosts -groups independent consensus groups multiplexed
// over one TCP transport; keys shard across groups by hash. -protocol
// accepts a comma-separated list cycled across groups, so different
// shards can run different engines (e.g. raftstar,multipaxos).
//
//	raftpaxos-kv -demo
//	raftpaxos-kv -demo -groups 4 -protocol raftstar,multipaxos
//	raftpaxos-kv -id 0 -groups 4 -peers 127.0.0.1:7800,127.0.0.1:7801,127.0.0.1:7802
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"raftpaxos"
	"raftpaxos/internal/cluster"
	"raftpaxos/internal/engines"
	"raftpaxos/internal/protocol"
	"raftpaxos/internal/transport"
)

// lazyTransport lets the host be constructed before its TCP transport
// (the transport needs the host's message handler, and the host needs the
// transport — this breaks the cycle).
type lazyTransport struct {
	mu sync.RWMutex
	t  transport.GroupTransport
}

func (l *lazyTransport) set(t transport.GroupTransport) {
	l.mu.Lock()
	l.t = t
	l.mu.Unlock()
}

func (l *lazyTransport) get() transport.GroupTransport {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.t
}

// Send implements transport.Transport.
func (l *lazyTransport) Send(from, to protocol.NodeID, msg protocol.Message) {
	if t := l.get(); t != nil {
		t.Send(from, to, msg)
	}
}

// SendGroup implements transport.GroupTransport.
func (l *lazyTransport) SendGroup(group uint64, from, to protocol.NodeID, msg protocol.Message) {
	if t := l.get(); t != nil {
		t.SendGroup(group, from, to, msg)
	}
}

// Close implements transport.Transport.
func (l *lazyTransport) Close() error { return nil }

func main() {
	id := flag.Int("id", 0, "this node's index into -peers")
	peersFlag := flag.String("peers", "", "comma-separated host:port list, one per replica")
	proto := flag.String("protocol", "raftstar", "protocol, or comma-separated list cycled across groups: "+
		strings.Join(engines.Names(func(s engines.Spec) bool { return !s.FastPath }), " "))
	groups := flag.Int("groups", 1, "consensus groups hosted per process (keys shard across groups by hash)")
	demo := flag.Bool("demo", false, "run a self-contained 3-node TCP cluster and a demo workload")
	dataDir := flag.String("data", "", "data directory for the WALs (empty = volatile); each group persists under node-<id>/group-<g>/")
	snapEvery := flag.Int("snapshot-interval", 0, "snapshot+compact every N applied entries (0 = never; needs -data)")
	flag.Parse()
	if err := run(*id, *peersFlag, *proto, *groups, *demo, *dataDir, *snapEvery); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseProtos parses a comma-separated protocol list (one entry is the
// classic single-protocol form; more are cycled across groups).
func parseProtos(protoName string) ([]raftpaxos.Proto, error) {
	parts := strings.Split(protoName, ",")
	protos := make([]raftpaxos.Proto, 0, len(parts))
	for _, part := range parts {
		p, err := raftpaxos.ParseProto(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		protos = append(protos, p)
	}
	return protos, nil
}

func protosLabel(protos []raftpaxos.Proto) string {
	names := make([]string, len(protos))
	for i, p := range protos {
		names[i] = fmt.Sprint(p)
	}
	return strings.Join(names, ",")
}

// startHost assembles and starts one replica: a multi-group host (group g
// runs protos[g % len(protos)]) multiplexed over a single TCP transport.
// With dataDir set, group g persists under dataDir/node-<id>/group-<g>/.
func startHost(protos []raftpaxos.Proto, id protocol.NodeID, peers []protocol.NodeID,
	addrs map[protocol.NodeID]string, groups int, dataDir string, snapEvery int) (*cluster.Host, *transport.TCP, error) {
	lazy := &lazyTransport{}
	hcfg := cluster.HostConfig{
		Groups:           groups,
		Transport:        lazy,
		SnapshotInterval: snapEvery,
		NewEngine: func(g int) protocol.Engine {
			p := protos[g%len(protos)]
			return raftpaxos.NewEngine(raftpaxos.ClusterConfig{Protocol: p, Nodes: len(peers)}, id, peers)
		},
	}
	if dataDir != "" {
		hcfg.DataDir = filepath.Join(dataDir, fmt.Sprintf("node-%d", id))
	}
	h, err := cluster.NewHost(hcfg)
	if err != nil {
		return nil, nil, err
	}
	tcp, err := transport.NewTCPGroups(id, addrs, h.HandleMessage, transport.TCPOptions{})
	if err != nil {
		h.Stop()
		return nil, nil, err
	}
	lazy.set(tcp)
	h.Start()
	return h, tcp, nil
}

func run(id int, peersFlag, protoName string, groups int, demo bool, dataDir string, snapEvery int) error {
	cluster.RegisterMessages()
	protos, err := parseProtos(protoName)
	if err != nil {
		return err
	}
	if groups < 1 {
		return fmt.Errorf("-groups %d: need at least one group", groups)
	}

	if demo {
		return runDemo(protos, groups)
	}
	if peersFlag == "" {
		return fmt.Errorf("need -peers (or -demo)")
	}
	addrList := strings.Split(peersFlag, ",")
	peers := make([]protocol.NodeID, len(addrList))
	addrs := make(map[protocol.NodeID]string, len(addrList))
	for i, a := range addrList {
		peers[i] = protocol.NodeID(i)
		addrs[protocol.NodeID(i)] = strings.TrimSpace(a)
	}
	if id < 0 || id >= len(peers) {
		return fmt.Errorf("-id %d out of range for %d peers", id, len(peers))
	}
	host, tcp, err := startHost(protos, protocol.NodeID(id), peers, addrs, groups, dataDir, snapEvery)
	if err != nil {
		return err
	}
	defer tcp.Close()
	defer host.Stop()
	fmt.Printf("node %d hosting %d group(s) of %s, listening on %s\n",
		id, groups, protosLabel(protos), addrs[protocol.NodeID(id)])

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	for g := 0; g < host.Groups(); g++ {
		syncNs, syncBatches, stallNs, inflightMax := host.Group(g).PersistStats()
		fmt.Printf("group %d persist pipeline: %d sync batches in %.1fms, loop stalled %.1fms, inflight max %d\n",
			g, syncBatches, float64(syncNs)/1e6, float64(stallNs)/1e6, inflightMax)
	}
	return nil
}

func runDemo(protos []raftpaxos.Proto, groups int) error {
	// Three nodes on loopback ports chosen by the OS.
	peers := []protocol.NodeID{0, 1, 2}
	addrs := map[protocol.NodeID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0", 2: "127.0.0.1:0"}

	var hosts []*cluster.Host
	var tcps []*transport.TCP
	// First pass: grab free loopback ports so every node knows the full
	// address map before any listener starts.
	for _, id := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
	}
	// Second pass: start for real with the final address map.
	for _, id := range peers {
		h, tcp, err := startHost(protos, id, peers, addrs, groups, "", 0)
		if err != nil {
			return err
		}
		hosts = append(hosts, h)
		tcps = append(tcps, tcp)
	}
	defer func() {
		for _, h := range hosts {
			h.Stop()
		}
		for _, t := range tcps {
			t.Close()
		}
	}()

	fmt.Printf("3-node cluster over TCP, %d group(s) of %s: %v %v %v\n",
		groups, protosLabel(protos), addrs[0], addrs[1], addrs[2])
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < groups; g++ {
		if protos[g%len(protos)].Leaderless() {
			continue // every replica owns slots from the start
		}
		for time.Now().Before(deadline) {
			if hosts[0].Group(g).LeaderID() != protocol.None {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("key-%d", i)
		g := hosts[0].GroupFor(key)
		if err := hosts[i%3].Put(ctx, key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			return fmt.Errorf("put %s: %w", key, err)
		}
		v, err := hosts[(i+1)%3].Get(ctx, key)
		if err != nil {
			return fmt.Errorf("get %s: %w", key, err)
		}
		fmt.Printf("put at node %d, read at node %d (group %d): %s = %s\n", i%3, (i+1)%3, g, key, v)
	}
	fmt.Println("demo complete")
	return nil
}
