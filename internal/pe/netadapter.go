package pe

import "piranha/internal/sim"

// Topology is the interconnect shape a TopologyNetwork charges distance
// over.
type Topology interface {
	Nodes() int
	// Neighbors returns the nodes reachable over n's channels; only its
	// length is used, as n's egress channel count.
	Neighbors(n int) []int
	// Distance returns the shortest-path hop count from a to b.
	Distance(a, b int) int
}

// TopologyNetwork backs the protocol fabric with a real interconnect
// topology: each message pays a fixed interface overhead, its
// shortest-path distance times a per-hop latency, and per-node egress
// occupancy. It models no link contention and no deflection. This is
// how multi-chip experiments see non-uniform distance effects on
// topologies like rings and tori instead of the flat one-way constant.
type TopologyNetwork struct {
	topo    Topology
	clock   sim.Clock
	hopLat  sim.Time // per-hop latency
	baseLat sim.Time // fixed wire/interface overhead per message
	egress  []*sim.Server

	Messages uint64
}

// calibrationProbes bounds how many destinations the per-hop latency
// averages over on large machines.
const calibrationProbes = 64

// shortCycles is the channel occupancy of a 128-bit packet in router
// cycles. It mirrors internal/noc.ShortCycles, which pe does not import;
// TestHopLatencyMatchesRouterProbes checks the two agree.
const shortCycles = 2

// NewTopologyNetwork returns the adapter over topo. The interconnect
// clock is the router clock.
//
// The per-hop latency is what internal/noc's router measures for short
// packets sent one at a time from node 0 to P = min(N-1, 64) evenly
// strided destinations dst_k = 1 + k(N-1)/P: an uncontended packet takes
// 1 + shortCycles x hops cycles, so total cycles over total hops H is
// shortCycles + P/H in integer division.
func NewTopologyNetwork(topo Topology, clock sim.Clock) *TopologyNetwork {
	nodes := topo.Nodes()
	probes := min(nodes-1, calibrationProbes)
	hops := 0
	for k := 0; k < probes; k++ {
		hops += topo.Distance(0, 1+k*(nodes-1)/probes)
	}
	cycles := int64(shortCycles)
	if hops > 0 { // a one-node topology has nothing to probe and never sends
		cycles += int64(probes / hops)
	}
	t := &TopologyNetwork{
		topo:    topo,
		clock:   clock,
		hopLat:  clock.Cycles(cycles),
		baseLat: 8 * sim.Nanosecond, // interface + synchronization
	}
	for i := 0; i < nodes; i++ {
		t.egress = append(t.egress, sim.NewServer(len(topo.Neighbors(i))))
	}
	return t
}

// HopLatency returns the per-hop latency.
func (t *TopologyNetwork) HopLatency() sim.Time { return t.hopLat }

// Send implements Network.
func (t *TopologyNetwork) Send(now sim.Time, from, to NodeID, bytes int, prio int) sim.Time {
	if from == to {
		return now
	}
	t.Messages++
	// Channel occupancy: 64 data bits per interconnect cycle.
	cycles := int64((bytes*8 + 63) / 64)
	sent := t.egress[from].Acquire(now, t.clock.Cycles(cycles))
	return sent + t.baseLat + sim.Time(t.topo.Distance(int(from), int(to)))*t.hopLat
}
