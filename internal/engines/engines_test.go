package engines_test

import (
	"testing"

	"raftpaxos/internal/engines"
	"raftpaxos/internal/protocol"
)

// TestNamesParseAndBuild: every registry name parses back to the Spec that
// names it and builds a replica; a fast name exists only for a protocol
// with the fast path, and nothing else parses.
func TestNamesParseAndBuild(t *testing.T) {
	all := engines.Names(func(engines.Spec) bool { return true })
	if len(all) != 10 {
		t.Fatalf("registry names %v, want 7 protocols and 3 fast variants", all)
	}
	peers := []protocol.NodeID{0, 1, 2}
	for _, name := range all {
		s, err := engines.Parse(name)
		if err != nil || s.Name() != name {
			t.Fatalf("Parse(%q) = %+v, %v", name, s, err)
		}
		s.ElectionTicks, s.HeartbeatTicks = 10, 2
		if e := engines.New(s, 1, peers); e.ID() != 1 {
			t.Fatalf("%s: built replica %d, want 1", name, e.ID())
		}
	}
	for _, bad := range []string{"", "nosuch", "raftstar-pql+fast", "raftstar-mencius+fast", "raft+fast+fast", "rql"} {
		if s, err := engines.Parse(bad); err == nil {
			t.Fatalf("Parse(%q) = %+v, want an error", bad, s)
		}
	}
}
