// Host: the group-multiplexed form of the live runtime. One process
// hosts N independent consensus groups — N Nodes, each a complete
// group-scoped runtime (engine, WAL, persister pipeline, applier) — over
// one shared transport, with a hash router spreading the key space
// across groups. This is what lifts the single-leader throughput
// ceiling: each group elects its own leader, appends to its own log, and
// fsyncs through its own persister, so write throughput scales with
// groups instead of capping at what one event loop can drain.
package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"raftpaxos/internal/protocol"
	"raftpaxos/internal/storage"
	"raftpaxos/internal/transport"
)

// HostConfig assembles a multi-group host (one replica of every group).
type HostConfig struct {
	// Groups is the number of consensus groups this host runs (default 1).
	Groups int
	// NewEngine builds group g's engine for this replica. Engines may
	// differ per group — the family is interface-uniform behind protocol,
	// so a host can run raft for one shard and multipaxos for another.
	NewEngine func(group int) protocol.Engine
	// Transport is the shared group-multiplexed transport. Register the
	// host's HandleMessage as the inbound GroupHandler.
	Transport transport.GroupTransport
	// DataDir, when non-empty, roots per-group durable storage: group g
	// persists under GroupDir(DataDir, g) with its own segmented WAL and
	// snapshots. Empty means volatile groups (unless OpenStore is set).
	DataDir string
	// StorageOptions applies to every group's file store.
	StorageOptions storage.Options
	// OpenStore, when set, overrides DataDir: it supplies group g's store
	// (nil store = volatile). The host does not close injected stores —
	// crash-style tests abandon them to lose buffered bytes like a real
	// process kill.
	OpenStore func(group int) (storage.Store, error)

	// The remaining knobs mirror Config and apply to every group.
	TickInterval     time.Duration
	SnapshotInterval int
}

// Host runs one replica of each of N consensus groups in a single
// process, demuxing the shared transport's inbound records to the owning
// group's runtime and routing client keys to groups by hash.
type Host struct {
	id     protocol.NodeID
	groups []*Node
	// stores[g] is group g's store (nil = volatile); ownedStores are the
	// ones the host opened itself and must close on Stop.
	stores      []storage.Store
	ownedStores []storage.Store

	// unknownGroupDrops counts inbound records addressed to a group this
	// host does not run — a misconfigured peer (mismatched -groups) or a
	// corrupt-but-decodable record. Logged once, counted forever.
	unknownGroupDrops atomic.Int64
	unknownLogged     sync.Once
}

// groupSender adapts the shared group transport into the plain Transport
// one group-scoped runtime speaks: every outbound record is stamped with
// the group's ID.
type groupSender struct {
	group uint64
	t     transport.GroupTransport
}

func (s groupSender) Send(from, to protocol.NodeID, msg protocol.Message) {
	s.t.SendGroup(s.group, from, to, msg)
}

func (s groupSender) Close() error { return nil }

// NewHost assembles a host (call Start to run its groups).
func NewHost(cfg HostConfig) (*Host, error) {
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	if cfg.NewEngine == nil {
		return nil, fmt.Errorf("cluster: HostConfig.NewEngine is required")
	}
	h := &Host{
		groups: make([]*Node, cfg.Groups),
		stores: make([]storage.Store, cfg.Groups),
	}
	for g := 0; g < cfg.Groups; g++ {
		var (
			st  storage.Store
			err error
		)
		switch {
		case cfg.OpenStore != nil:
			st, err = cfg.OpenStore(g)
		case cfg.DataDir != "":
			var fs *storage.File
			fs, err = storage.OpenFileWith(GroupDir(cfg.DataDir, uint64(g)), cfg.StorageOptions)
			if err == nil {
				st = fs
				h.ownedStores = append(h.ownedStores, fs)
			}
		}
		if err != nil {
			h.closeOwned()
			return nil, fmt.Errorf("cluster: open group %d store: %w", g, err)
		}
		h.stores[g] = st
		h.groups[g] = New(Config{
			Engine:           cfg.NewEngine(g),
			Transport:        groupSender{group: uint64(g), t: cfg.Transport},
			Stable:           st,
			Group:            uint64(g),
			TickInterval:     cfg.TickInterval,
			SnapshotInterval: cfg.SnapshotInterval,
		})
	}
	h.id = h.groups[0].ID()
	return h, nil
}

// ID returns the replica identity shared by every group's runtime.
func (h *Host) ID() protocol.NodeID { return h.id }

// Groups reports how many consensus groups this host runs.
func (h *Host) Groups() int { return len(h.groups) }

// Group returns group g's runtime (for per-group inspection: leadership,
// stats, direct Put/Get against a known group).
func (h *Host) Group(g int) *Node { return h.groups[g] }

// GroupStore returns group g's store (nil when volatile) — per-group
// fsync and WAL accounting without reaching around the host.
func (h *Host) GroupStore(g int) storage.Store { return h.stores[g] }

// Start launches every group's runtime.
func (h *Host) Start() {
	for _, n := range h.groups {
		n.Start()
	}
}

// Stop stops every group's runtime (concurrently: each group drains its
// own persistence pipeline) and closes the stores the host opened. Stores
// injected via OpenStore stay open — their lifecycle belongs to the
// caller, which is what lets crash tests abandon them unsynced.
func (h *Host) Stop() {
	var wg sync.WaitGroup
	for _, n := range h.groups {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			n.Stop()
		}(n)
	}
	wg.Wait()
	h.closeOwned()
}

func (h *Host) closeOwned() {
	for _, st := range h.ownedStores {
		st.Close()
	}
	h.ownedStores = nil
}

// HandleMessage is the shared transport's inbound hook: demux the record
// to the owning group's inbox. Records for groups this host does not run
// are dropped and counted — a mixed-topology cluster (peers disagreeing
// on -groups) shows up here instead of corrupting an unrelated group.
func (h *Host) HandleMessage(group uint64, from protocol.NodeID, msg protocol.Message) {
	if group >= uint64(len(h.groups)) {
		h.unknownGroupDrops.Add(1)
		h.unknownLogged.Do(func() {
			log.Printf("cluster: host %d dropping message for unknown group %d (have %d groups — mismatched -groups across the cluster?)",
				h.id, group, len(h.groups))
		})
		return
	}
	h.groups[group].HandleMessage(from, msg)
}

// UnknownGroupDrops reports inbound records dropped because no local
// group owned them.
func (h *Host) UnknownGroupDrops() int64 { return h.unknownGroupDrops.Load() }

// GroupForKey hashes key onto one of groups shards (FNV-1a). Every
// router in the cluster must agree on this mapping, so it is fixed here
// rather than configurable per host.
func GroupForKey(key string, groups int) uint64 {
	if groups <= 1 {
		return 0
	}
	hash := fnv.New64a()
	hash.Write([]byte(key))
	return hash.Sum64() % uint64(groups)
}

// GroupFor routes key to its owning group on this host.
func (h *Host) GroupFor(key string) uint64 {
	return GroupForKey(key, len(h.groups))
}

// Put replicates a write through the owning group and waits for commit.
func (h *Host) Put(ctx context.Context, key string, value []byte) error {
	return h.groups[h.GroupFor(key)].Put(ctx, key, value)
}

// Get performs a strongly consistent read through the owning group.
func (h *Host) Get(ctx context.Context, key string) ([]byte, error) {
	return h.groups[h.GroupFor(key)].Get(ctx, key)
}

// KV is one write in a cross-group batch.
type KV struct {
	Key   string
	Value []byte
}

// PutAll replicates a batch of writes that may span groups and waits for
// all of them. The batch fans out concurrently, so each group coalesces
// its share into shared proposal rounds (the runtime's submit-channel
// batching) — a client touching many shards pays one round-trip, not one
// per key. Returns the first error; the rest of the batch still ran.
func (h *Host) PutAll(ctx context.Context, kvs []KV) error {
	if len(kvs) == 0 {
		return nil
	}
	if len(kvs) == 1 {
		return h.Put(ctx, kvs[0].Key, kvs[0].Value)
	}
	var (
		wg       sync.WaitGroup
		firstErr atomic.Value
	)
	for i := range kvs {
		wg.Add(1)
		go func(kv KV) {
			defer wg.Done()
			if err := h.Put(ctx, kv.Key, kv.Value); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(kvs[i])
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}

// GroupDir is the on-disk location of one group's store under a host's
// data directory.
func GroupDir(dataDir string, group uint64) string {
	return filepath.Join(dataDir, fmt.Sprintf("group-%d", group))
}
