package pe

import (
	"testing"

	"piranha/internal/cache"
	"piranha/internal/l2"
	"piranha/internal/noc"
	"piranha/internal/sim"
)

// probeHopLatency measures per-hop latency on internal/noc's packet
// router the way NewTopologyNetwork's closed form says it does: short
// packets sent one at a time from node 0 to min(N-1, 64) evenly strided
// destinations, total delivery cycles over total BFS hops.
func probeHopLatency(t *testing.T, topo noc.Topology, clock sim.Clock) sim.Time {
	t.Helper()
	net, err := noc.NewNetwork(noc.DefaultConfig(), topo, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, hops, err := noc.Routes(topo)
	if err != nil {
		t.Fatal(err)
	}
	probes := min(topo.Nodes()-1, calibrationProbes)
	var totalCycles, totalHops int64
	for k := 0; k < probes; k++ {
		dst := 1 + k*(topo.Nodes()-1)/probes
		p := net.Inject(0, dst, 2, false)
		if err := net.Run(1 << 20); err != nil {
			t.Fatal(err)
		}
		totalCycles += p.DeliverCycle - p.InjectCycle
		totalHops += int64(hops[0][dst])
	}
	return clock.Cycles(totalCycles / totalHops)
}

// TestHopLatencyMatchesRouterProbes checks the closed-form per-hop
// latency against probe packets through the router on every Ring and
// Full of 2–40 nodes and every Torus and Mesh up to 9x9 (except the
// single node, which has nothing to probe).
func TestHopLatencyMatchesRouterProbes(t *testing.T) {
	if shortCycles != noc.ShortCycles {
		t.Fatalf("shortCycles %d, noc.ShortCycles %d", shortCycles, noc.ShortCycles)
	}
	type shape interface {
		noc.Topology
		Topology
	}
	var grid []shape
	for n := 2; n <= 40; n++ {
		grid = append(grid, noc.Ring{N: n}, noc.Full{N: n})
	}
	for w := 1; w <= 9; w++ {
		for h := 1; h <= 9; h++ {
			if w*h > 1 {
				grid = append(grid, noc.Torus{W: w, H: h}, noc.Mesh{W: w, H: h})
			}
		}
	}
	clock := sim.MHz(500)
	for _, topo := range grid {
		want := probeHopLatency(t, topo, clock)
		if got := NewTopologyNetwork(topo, clock).HopLatency(); got != want {
			t.Errorf("%#v: hop latency %d, router probes measure %d", topo, got, want)
		}
	}
}

func TestTopologyNetworkCalibration(t *testing.T) {
	tn := NewTopologyNetwork(noc.Torus{W: 4, H: 4}, sim.MHz(500))
	if tn.HopLatency() <= 0 {
		t.Fatal("no hop latency calibrated")
	}
	// Neighbor vs opposite corner: 1 hop vs 4 hops on a 4x4 torus.
	near := tn.Send(0, 0, 1, ShortPacket, prioHigh)
	far := tn.Send(0, 0, 10, ShortPacket, prioHigh)
	if far <= near {
		t.Fatalf("distance should cost: near=%d far=%d", near, far)
	}
	if d := far - near; d < 3*tn.HopLatency()-sim.Nanosecond || d > 3*tn.HopLatency()+sim.Nanosecond {
		t.Fatalf("latency delta %d, want ~3 hops (%d)", d, 3*tn.HopLatency())
	}
	// Self-sends are free.
	if tn.Send(100, 3, 3, ShortPacket, prioLow) != 100 {
		t.Fatal("self-send should be immediate")
	}
}

func TestTopologyNetworkDrivesProtocol(t *testing.T) {
	// A 4-node ring fabric: reads to an adjacent home must be faster
	// than reads to the two-hop-distant home.
	tn := NewTopologyNetwork(noc.Ring{N: 4}, sim.MHz(500))
	f := NewFabric(DefaultConfig(4), tn)
	// Node 0 fetches lines homed at node 1 (1 hop) and node 2 (2 hops).
	line1 := lineHomed(f, 1)
	line2 := lineHomed(f, 2)
	d1, _, _ := f.Proto(0).Fetch(0, l2.Read, line1)
	d2, _, _ := f.Proto(0).Fetch(0, l2.Read, line2)
	if d2 <= d1 {
		t.Fatalf("2-hop home (%d) should be slower than 1-hop (%d)", d2, d1)
	}
	if tn.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

// lineHomed finds a line whose home is the given node.
func lineHomed(f *Fabric, n NodeID) cache.LineAddr {
	for page := uint64(0); ; page++ {
		cand := cache.LineAddr(page << 7) // 8 KB page = 128 lines
		if f.HomeOf(cand) == n {
			return cand
		}
	}
}
