package bench

import (
	"time"

	"raftpaxos/internal/simnet"
	"raftpaxos/internal/workload"
)

// WANScenario builds a WAN profile over WANTopology(n) with the per-link
// RTT matrix installed in the cost model (one replica per site, leader
// pinned at Oregon). clientSites restricts submitting sites (nil = all);
// clients is the closed-loop client count per submitting site.
func WANScenario(p Protocol, n int, fastPath bool, clientSites []int, clients int, seed int64) Scenario {
	topo := simnet.WANTopology(n)
	sites := make([]simnet.Site, n)
	for i := range sites {
		sites[i] = simnet.Site(i)
	}
	cost := simnet.DefaultCostModel()
	cost.LinkRTT = topo.LinkRTT(sites)
	return Scenario{
		Protocol:         p,
		LeaderSite:       0,
		ClientsPerRegion: clients,
		ClientSites:      clientSites,
		Workload:         workload.Config{ReadPercent: 0, ConflictPercent: 100, ValueSize: 8},
		Warmup:           time.Second,
		Measure:          2 * time.Second,
		Topology:         topo,
		Cost:             cost,
		FastPath:         fastPath,
		Seed:             seed,
	}
}
