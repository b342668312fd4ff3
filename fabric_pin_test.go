package piranha

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"piranha/internal/noc"
	"piranha/internal/pe"
	"piranha/internal/sim"
)

// TestTopologyFabricPinned pins the topology-backed fabric's timing to
// literals: the per-hop latency and the arrival times of a fixed
// sequence of long-packet sends (node pairs at several distances, with
// repeated sources so per-node egress occupancy shows) on small shapes
// and on every ScaleOut preset, plus the SHA-256 of a short 8-node OLTP
// Result. Any change to the distance model, the hop-latency formula or
// the egress model moves one of these numbers.
func TestTopologyFabricPinned(t *testing.T) {
	fabricNet := func(topo pe.Topology) *pe.TopologyNetwork {
		return pe.NewTopologyNetwork(topo, sim.MHz(500))
	}
	cases := []struct {
		name   string
		net    *pe.TopologyNetwork
		nodes  int
		hopLat sim.Time
		sends  []sim.Time
	}{
		{"torus2x2", fabricNet(noc.Torus{W: 2, H: 2}), 4, 4000, []sim.Time{33000, 195901, 199901, 37000, 37000, 195901}},
		{"ring4", fabricNet(noc.Ring{N: 4}), 4, 4000, []sim.Time{33000, 217499, 213499, 33000, 33000, 217499}},
		{"full5", fabricNet(noc.Full{N: 5}), 5, 6000, []sim.Time{35000, 197901, 197901, 35000, 35000, 197901}},
		{"torus1x7", fabricNet(noc.Torus{W: 1, H: 7}), 7, 4000, []sim.Time{33000, 203901, 195901, 33000, 37000, 203901}},
		{"scale8", fabricNet(ScaleOut8().Topology), 8, 4000, []sim.Time{33000, 199901, 199901, 37000, 37000, 199901}},
		{"scale32", fabricNet(ScaleOut32().Topology), 32, 4000, []sim.Time{33000, 207901, 199901, 37000, 45000, 207901}},
		{"scale64", fabricNet(ScaleOut64().Topology), 64, 4000, []sim.Time{33000, 207901, 199901, 37000, 53000, 207901}},
		{"scale256", fabricNet(ScaleOut256().Topology), 256, 4000, []sim.Time{33000, 223901, 199901, 37000, 69000, 223901}},
		{"scale1024", fabricNet(ScaleOut1024().Topology), 1024, 4000, []sim.Time{33000, 255901, 199901, 37000, 117000, 255901}},
	}
	for _, c := range cases {
		if got := c.net.HopLatency(); got != c.hopLat {
			t.Errorf("%s: hop latency %d, want %d", c.name, got, c.hopLat)
		}
		n := c.nodes
		pairs := [][2]int{{0, 1}, {0, n / 2}, {0, n - 1}, {n - 1, 0}, {n / 3, 2 * n / 3}, {0, n / 2}}
		for i, p := range pairs {
			got := c.net.Send(1000, pe.NodeID(p[0]), pe.NodeID(p[1]), pe.LongPacket, 0)
			if got != c.sends[i] {
				t.Errorf("%s: send %d (%d->%d) arrives at %d, want %d", c.name, i, p[0], p[1], got, c.sends[i])
			}
		}
	}

	r := Run(ScaleOut8(), OLTP(), WithScale(Scale{Warm: 4, Measure: 16}), WithSeed(3))
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = "c99fef433477a67416e29e1b35402799937edd71be2fd0514301892cf4883c57"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("ScaleOut8 OLTP Result SHA-256 %s, want %s", got, want)
	}
}
