package noc

import (
	"fmt"
	"math/bits"

	"piranha/internal/sim"
)

// Packet kinds and sizes (paper §2.6.1).
const (
	// ShortCycles is the channel occupancy of a 128-bit packet.
	ShortCycles = 2
	// LongCycles is the occupancy of a header + 64-byte-data packet.
	LongCycles = 10
	// Priorities supported by the OQ and IQ.
	Priorities = 4
)

// Packet is one interconnect packet in flight.
type Packet struct {
	ID   uint64
	Src  int
	Dst  int
	Prio int // 0 (lowest) .. 3
	Long bool

	// Telemetry.
	InjectCycle  int64
	DeliverCycle int64
	Hops         int
	Deflections  int
	age          int
}

func (p *Packet) cycles() int64 {
	if p.Long {
		return LongCycles
	}
	return ShortCycles
}

// Config tunes the routers.
type Config struct {
	// BufferPool is the shared packet buffer capacity per router,
	// across all lanes and priorities (the S-Connect common pool).
	BufferPool int
	// OQDepth bounds locally-injected packets waiting for the router;
	// the fall-through path is a single cycle when the router is ready.
	OQDepth int
}

// DefaultConfig matches the prototype's modest buffering.
func DefaultConfig() Config { return Config{BufferPool: 16, OQDepth: 8} }

// router is one node's RT with its IQ and OQ.
type router struct {
	id int
	// neigh caches Topology.Neighbors(id): arbitration consults it every
	// cycle, and several Topology implementations build the slice fresh
	// per call.
	neigh []int
	pool  []*Packet // shared buffer pool (transit packets)
	oq    []*Packet // locally injected, waiting
	// linkFree[i] is the cycle at which channel i is next available.
	linkFree []int64

	// Arbitration scratch, reused every cycle so the steady-state
	// router loop performs no allocation.
	taken []bool
	order []int
	keep  []*Packet

	MaxPool uint64
	Refused uint64 // injections deferred because transit had priority
}

// wheelMask indexes the arrival wheel's 16 slots. A hop lands at most
// LongCycles (10) cycles ahead and Step drains every cycle's slot in
// turn, so a slot only ever holds arrivals for one cycle.
const wheelMask = 15

// Network is a cycle-driven simulation of the whole interconnect.
type Network struct {
	cfg   Config
	next  [][][]int
	rts   []*router
	rng   *sim.RNG
	cycle int64
	seq   uint64

	inFlight int
	// Hop completions wait in slot cycle&wheelMask, in the order they
	// were sent. Each slot's backing array is reused across laps, so
	// steady-state hop delivery allocates nothing.
	wheel [wheelMask + 1][]arrival

	// Sparse activation: bit i of active marks router i as holding
	// buffered or locally-queued work. Step's arbitration walks only set
	// bits — a quiescent router's arbitrate is a no-op that consumes no
	// RNG, so skipping it is byte-identical and the per-cycle cost is
	// O(active routers), not O(N).
	active []uint64

	Delivered []*Packet
}

// arrival is a packet completing a hop at router at.
type arrival struct {
	pkt *Packet
	at  int
}

// NewNetwork builds the interconnect over a topology.
func NewNetwork(cfg Config, topo Topology, seed uint64) (*Network, error) {
	next, _, err := routes(topo)
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:    cfg,
		next:   next,
		rng:    sim.NewRNG(seed),
		active: make([]uint64, (topo.Nodes()+63)/64),
	}
	for i := 0; i < topo.Nodes(); i++ {
		neigh := topo.Neighbors(i)
		n.rts = append(n.rts, &router{
			id:       i,
			neigh:    neigh,
			linkFree: make([]int64, len(neigh)),
			taken:    make([]bool, len(neigh)),
		})
	}
	return n, nil
}

// Cycle returns the current interconnect cycle.
func (n *Network) Cycle() int64 { return n.cycle }

// InFlight returns the number of undelivered packets.
func (n *Network) InFlight() int { return n.inFlight }

// Inject queues a packet for transmission from src.
func (n *Network) Inject(src, dst, prio int, long bool) *Packet {
	if src == dst {
		panic("noc: self-injection")
	}
	n.seq++
	p := &Packet{ID: n.seq, Src: src, Dst: dst, Prio: prio, Long: long, InjectCycle: n.cycle}
	rt := n.rts[src]
	rt.oq = append(rt.oq, p)
	n.inFlight++
	n.activate(src)
	return p
}

// activate marks router id as holding work so Step's sparse arbitration
// walk visits it.
//
//piranha:hotpath
func (n *Network) activate(id int) {
	n.active[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// schedule queues an arrival at router rcv for cycle at.
//
//piranha:hotpath
func (n *Network) schedule(at int64, pkt *Packet, rcv int) {
	slot := &n.wheel[at&wheelMask]
	*slot = append(*slot, arrival{pkt: pkt, at: rcv})
}

// Step advances the network one interconnect cycle.
func (n *Network) Step() {
	n.cycle++
	// 1. Hop completions land in the receiving router's pool or IQ.
	// Nothing is scheduled for this cycle while its slot is walked: sends
	// land at least ShortCycles ahead.
	slot := &n.wheel[n.cycle&wheelMask]
	for _, a := range *slot {
		p := a.pkt
		p.Hops++
		if a.at == p.Dst {
			p.DeliverCycle = n.cycle
			n.Delivered = append(n.Delivered, p)
			n.inFlight--
			continue
		}
		rt := n.rts[a.at]
		rt.pool = append(rt.pool, p)
		if u := uint64(len(rt.pool)); u > rt.MaxPool {
			rt.MaxPool = u
		}
		n.activate(a.at)
	}
	*slot = (*slot)[:0]

	// 2. Each active router arbitrates its output channels: transit
	// traffic first (by priority then age — the OQ accepts new packets
	// only when the router has room), then local injections. The walk
	// visits set bits in ascending id order — the same order as the old
	// dense 0..N-1 loop, so RNG consumption and packet outcomes are
	// byte-identical. Arbitration never activates another router within
	// the same cycle (sends land in the wheel for future cycles), so
	// clearing bits mid-walk is safe.
	for w := 0; w < len(n.active); w++ {
		set := n.active[w]
		for set != 0 {
			bit := set & -set
			set &^= bit
			rt := n.rts[w<<6+bits.TrailingZeros64(bit)]
			n.arbitrate(rt)
			if len(rt.pool) == 0 && len(rt.oq) == 0 {
				n.active[w] &^= bit
			}
		}
	}
}

// arbitrate assigns packets to free output channels of one router.
func (n *Network) arbitrate(rt *router) {
	neigh := rt.neigh
	taken := rt.taken
	for i, f := range rt.linkFree {
		taken[i] = f > n.cycle
	}

	// Order transit packets by (priority+age) descending, then age.
	order := rt.order[:0]
	for i := range rt.pool {
		order = append(order, i)
	}
	rt.order = order
	eff := func(p *Packet) int { return p.Prio + p.age }
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && eff(rt.pool[order[j]]) > eff(rt.pool[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	remaining := rt.keep[:0]
	channelOf := func(target int) int {
		for i, v := range neigh {
			if v == target {
				return i
			}
		}
		return -1
	}

	sendOut := func(p *Packet, ch int) {
		occ := p.cycles()
		rt.linkFree[ch] = n.cycle + occ
		n.schedule(n.cycle+occ, p, neigh[ch])
	}

	for _, idx := range order {
		p := rt.pool[idx]
		// Preferred: any shortest-path channel that is free. Start the
		// scan at a random offset so equal-cost paths share the load
		// (adaptive routing).
		sent := false
		pref := n.next[rt.id][p.Dst]
		off := 0
		if len(pref) > 1 {
			off = n.rng.Intn(len(pref))
		}
		for k := range pref {
			hop := pref[(k+off)%len(pref)]
			if ch := channelOf(hop); ch >= 0 && !taken[ch] {
				taken[ch] = true
				sendOut(p, ch)
				sent = true
				break
			}
		}
		if sent {
			continue
		}
		// Hot potato: deflect out of any free channel, aging the packet
		// so it wins arbitration downstream.
		if len(rt.pool) > n.cfg.BufferPool {
			for ch := range neigh {
				if !taken[ch] {
					taken[ch] = true
					p.age++
					p.Deflections++
					sendOut(p, ch)
					sent = true
					break
				}
			}
		}
		if !sent {
			// Waiting in the buffer also ages the packet, so starved
			// traffic eventually outranks everything else.
			p.age++
			remaining = append(remaining, p)
		}
	}
	// Swap the survivor list into pool; the old pool array becomes next
	// cycle's scratch.
	rt.keep = rt.pool[:0]
	rt.pool = remaining

	// 3. Local injections only when transit traffic left room (the OQ
	// gives priority to transit). Highest priority first; low priority
	// must not block high priority.
	for i := 1; i < len(rt.oq); i++ {
		for j := i; j > 0 && rt.oq[j].Prio > rt.oq[j-1].Prio; j-- {
			rt.oq[j], rt.oq[j-1] = rt.oq[j-1], rt.oq[j]
		}
	}
	// Compact refused injections in place: writes trail reads, so the
	// survivor prefix never clobbers an unvisited entry.
	oqLeft := rt.oq[:0]
	for _, p := range rt.oq {
		sent := false
		for _, hop := range n.next[rt.id][p.Dst] {
			if ch := channelOf(hop); ch >= 0 && !taken[ch] {
				taken[ch] = true
				sendOut(p, ch)
				sent = true
				break
			}
		}
		if !sent {
			rt.Refused++
			oqLeft = append(oqLeft, p)
		}
	}
	rt.oq = oqLeft
}

// Run steps until all injected packets are delivered or maxCycles pass.
func (n *Network) Run(maxCycles int64) error {
	for limit := n.cycle + maxCycles; n.inFlight > 0; {
		if n.cycle >= limit {
			return fmt.Errorf("noc: %d packets undelivered after %d cycles", n.inFlight, maxCycles)
		}
		n.Step()
	}
	return nil
}

// Stats summarizes delivered-packet telemetry.
type NetStats struct {
	Delivered    int
	AvgLatency   float64 // cycles
	MaxLatency   int64
	AvgHops      float64
	Deflections  uint64
	MaxPoolDepth uint64
}

// Stats computes summary statistics over delivered packets.
func (n *Network) Stats() NetStats {
	s := NetStats{Delivered: len(n.Delivered)}
	var totLat, totHops int64
	for _, p := range n.Delivered {
		lat := p.DeliverCycle - p.InjectCycle
		totLat += lat
		if lat > s.MaxLatency {
			s.MaxLatency = lat
		}
		totHops += int64(p.Hops)
		s.Deflections += uint64(p.Deflections)
	}
	if s.Delivered > 0 {
		s.AvgLatency = float64(totLat) / float64(s.Delivered)
		s.AvgHops = float64(totHops) / float64(s.Delivered)
	}
	for _, rt := range n.rts {
		if rt.MaxPool > s.MaxPoolDepth {
			s.MaxPoolDepth = rt.MaxPool
		}
	}
	return s
}
