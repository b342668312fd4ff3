// Package pe implements Piranha's protocol engines and the inter-node
// cache coherence protocol's timing (paper §2.5).
//
// Each processing node has two microprogrammable engines: the home engine
// (HE) exports memory whose home is the local node, the remote engine (RE)
// imports memory homed elsewhere. Each engine has a 16-entry transaction
// state register file (TSRF); a transaction occupies an entry for its
// duration, bounding concurrency.
//
// The protocol itself — clean-exclusive reads, reply forwarding with the
// directory updated at the forward point, eager exclusive replies, no
// NAKs — is internal/protocol's table, the one internal/mcheck verifies;
// exec.go executes it, charging each rule's actions as timing. Cruise-
// missile invalidates (CMI) route a write's invalidations: only a handful
// of messages are injected, each visits a predetermined subset of sharers
// serially and the last node in each subset acknowledges. The DASH-style
// baseline (Config.Baseline) runs the same rules with NAK-and-retry at a
// saturated home, an ownership-change confirmation, and strict waits for
// invalidation acks, for the §2.5.3 ablation.
//
// Directory state is stored in the spare ECC bits of the home node's
// memory (see internal/ecc and internal/directory); reading a line's
// directory costs a memory access at the home unless the home's L2 has
// the line on chip.
package pe

import (
	"fmt"

	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/fault"
	"piranha/internal/l2"
	"piranha/internal/linemap"
	"piranha/internal/protocol"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// NodeID identifies a node (processing or I/O chip).
type NodeID = directory.NodeID

// Network is the transport the engines send messages over. The fabric
// only needs point-to-point latency; detailed routing, deflection and
// buffering live in internal/noc, which can back this interface.
type Network interface {
	// Send delivers a message of size bytes from a to b, returning the
	// arrival time.
	Send(now sim.Time, from, to NodeID, bytes int, prio int) sim.Time
}

// Packet sizes (paper §2.6.1): short packets are 128 bits, long packets
// carry a 64-byte line as well.
const (
	ShortPacket = 16
	LongPacket  = 16 + cache.LineBytes
)

// FlatNetwork is a fixed-latency, per-node-egress-bandwidth network model
// used when the system has no topology; the latency is calibrated
// so end-to-end remote accesses match Table 1 (120 ns clean, 180 ns
// dirty). Egress pools are a slice indexed directly by NodeID — Send is
// on the critical path of every inter-node message, and the previous
// lazy map lookup (with its fmt.Sprintf pool naming) was its dominant
// cost.
type FlatNetwork struct {
	OneWay sim.Time
	// egress models each node's four outbound channels, indexed by NodeID.
	egress []*sim.Pool
	clock  sim.Clock
}

// NewFlatNetwork returns a flat network with the given one-way latency.
// Egress pools are created on first use; Presize avoids even that.
func NewFlatNetwork(oneWay sim.Time) *FlatNetwork {
	return &FlatNetwork{OneWay: oneWay, clock: sim.MHz(500)}
}

// NewFlatNetworkN returns a flat network with the given one-way latency
// and all egress pools for nodes [0, nodes) pre-allocated, so Send never
// takes its slow path.
func NewFlatNetworkN(oneWay sim.Time, nodes int) *FlatNetwork {
	n := NewFlatNetwork(oneWay)
	n.Presize(nodes)
	return n
}

// Presize ensures egress pools exist for all nodes in [0, nodes).
func (n *FlatNetwork) Presize(nodes int) {
	for len(n.egress) < nodes {
		id := NodeID(len(n.egress))
		n.egress = append(n.egress, sim.NewPool(fmt.Sprintf("node%d-out", id), 4))
	}
}

// growEgress is Send's slow path: it extends the egress slice through
// from, allocating the missing pools.
func (n *FlatNetwork) growEgress(from NodeID) *sim.Pool {
	n.Presize(int(from) + 1)
	return n.egress[from]
}

// Send implements Network.
//
//piranha:hotpath
func (n *FlatNetwork) Send(now sim.Time, from, to NodeID, bytes int, prio int) sim.Time {
	if from == to {
		return now
	}
	var p *sim.Pool
	if int(from) < len(n.egress) {
		p = n.egress[from]
	} else {
		p = n.growEgress(from)
	}
	// Channel occupancy: 64 data bits per interconnect cycle.
	cycles := int64((bytes*8 + 63) / 64)
	sent := p.Acquire(now, n.clock.Cycles(cycles))
	return sent + n.OneWay
}

// Config holds the protocol-engine and fabric parameters.
type Config struct {
	// Nodes is the number of nodes in the system.
	Nodes int
	// TSRFEntries per engine (16 in the prototype).
	TSRFEntries int
	// HomeOccupancy/RemoteOccupancy are the per-message processing
	// times of the microcoded engines (a handful of instructions at
	// 500 MHz dual-threaded: tens of nanoseconds).
	HomeOccupancy   sim.Time
	RemoteOccupancy sim.Time
	// MemLatency is the home memory access for data+directory.
	MemLatency sim.Time
	// UseCMI selects cruise-missile invalidates over home-broadcast.
	UseCMI bool
	// CMIFanout is the number of invalidation messages injected per
	// write (each visits ceil(sharers/fanout) nodes).
	CMIFanout int
	// Baseline switches to the DASH-style NAK+retry protocol with
	// ownership-change confirmations (ablation only).
	Baseline bool
	// RetryDelay is the baseline's NAK retry backoff.
	RetryDelay sim.Time
}

// DefaultConfig is calibrated to Table 1's remote latencies with the
// prototype's 16-entry TSRFs.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		TSRFEntries:     16,
		HomeOccupancy:   12 * sim.Nanosecond,
		RemoteOccupancy: 10 * sim.Nanosecond,
		MemLatency:      60 * sim.Nanosecond,
		UseCMI:          true,
		CMIFanout:       4,
		RetryDelay:      100 * sim.Nanosecond,
	}
}

// EngineStats counts one engine's activity.
type EngineStats struct {
	Transactions uint64
	Messages     uint64 // messages this engine emitted
	NAKs         uint64 // baseline only
	Retries      uint64 // baseline only
	Occupancy    sim.Time
	// Recoveries counts TSRF entries reclaimed by the timeout-based
	// error recovery (§2.7: failed transactions are detected via their
	// TSRF timers and handed to recovery software).
	Recoveries uint64
}

// Engine is one protocol engine (home or remote) of one node.
type Engine struct {
	Name  string
	tsrf  *sim.Pool
	occ   sim.Time
	Stats EngineStats
}

func newEngine(name string, entries int, occ sim.Time) *Engine {
	return &Engine{Name: name, tsrf: sim.NewPool(name, entries), occ: occ}
}

// process charges one message-handling step: a TSRF entry is (re)used for
// the engine occupancy. hold extends the entry's reservation (a thread in
// waiting state keeps its TSRF entry for the transaction's duration).
//
//piranha:hotpath
func (e *Engine) process(now sim.Time, hold sim.Time) sim.Time {
	d := e.occ
	if hold > d {
		d = hold
	}
	done := e.tsrf.Acquire(now, d)
	e.Stats.Transactions++
	e.Stats.Occupancy += e.occ
	return done - d + e.occ // processing completes after occupancy; entry stays held
}

// Recover scans the engine's TSRF for transactions outstanding longer
// than timeout (a lost reply, a failed node) and reclaims their entries,
// encapsulating the state for recovery software. Returns the number of
// transactions recovered.
func (e *Engine) Recover(now, timeout sim.Time) int {
	n := e.tsrf.RecoverStale(now, timeout)
	e.Stats.Recoveries += uint64(n)
	return n
}

// send emits one message and counts it.
func (e *Engine) send(n Network, now sim.Time, from, to NodeID, bytes, prio int) sim.Time {
	e.Stats.Messages++
	return n.Send(now, from, to, bytes, prio)
}

// node is the per-chip protocol state.
type node struct {
	id     NodeID
	l2     *l2.L2
	home   *Engine
	remote *Engine
	// dir holds the encoded 44-bit directory entries for this node's
	// home lines (absent means Uncached) in a dense per-home-node table
	// keyed by line address — the host-side analogue of Piranha storing
	// the directory in the home memory's spare ECC bits (§2.5.2): flat
	// index-addressed words, not pointer-boxed map values. The engines
	// read and update the words in place; only the fail-stop sweeps
	// decode them.
	dir *linemap.Map[directory.Word]
	// busy holds, per home line, when the home engine last released a
	// TSRF entry a forward held for it (q-defer waits that out), and
	// busyMax the latest of those times; shadow, for a node with no L2
	// bound, the line kinds the table left it.
	busy    *linemap.Map[sim.Time]
	busyMax sim.Time
	shadow  *linemap.Map[protocol.LineKind]
	// dead marks a fail-stopped node: it no longer sources requests, its
	// home lines are served by its RAS mirror, and the reconstruction
	// sweep has purged it from every surviving directory.
	dead bool
}

// Fabric is the multi-node coherence domain: all nodes' engines, the
// directory storage, and the interconnect.
type Fabric struct {
	cfg   Config
	dcfg  directory.Config
	net   Network
	nodes []*node
	tr    *trace.Tracer
	inj   *fault.Injector // nil when fault injection is off

	// anyDead short-circuits every fail-stop check: until the first
	// FailNode call the fault-free fast paths are untouched.
	anyDead bool
	// mirror maps each dead home to the surviving node serving its lines
	// (valid only where nodes[i].dead).
	mirror []NodeID

	// sharerScratch backs sharersExcept: fan-out enumeration is on the
	// write/invalidate hot path and must not allocate per invalidation.
	// The protocol runs on the single timing partition, so one scratch
	// slice per fabric is safe; each call fully overwrites it.
	sharerScratch []NodeID

	// fires counts protocol rule firings, indexed like the table.
	fires []uint64

	// Global protocol statistics.
	InvalsSent  uint64
	InvalMsgs   uint64 // invalidation messages injected (CMI collapses these)
	InvalAcks   uint64
	ThreeHop    uint64
	DirtyShares uint64
	// OverInvals counts invalidations delivered to nodes that held no
	// copy — the cost of the coarse vector's group-granular bookkeeping,
	// which grows with nodes-per-group when N is not a multiple of 42's
	// capacity (paper §2.5.2's representation trade-off, made visible).
	OverInvals uint64
}

// NewFabric builds an n-node coherence domain over the given network.
func NewFabric(cfg Config, net Network) *Fabric {
	if cfg.Nodes > directory.MaxNodes {
		panic(fmt.Sprintf("pe: %d nodes exceeds the directory's %d", cfg.Nodes, directory.MaxNodes))
	}
	f := &Fabric{cfg: cfg, dcfg: directory.Config{Nodes: cfg.Nodes}, net: net,
		fires: make([]uint64, len(piranhaRules.table.Rules))}
	// Per-home directory tables start at 1024 slots for small machines
	// (PR 5's warm steady state) but scale the initial capacity down as
	// the page-interleaved homes multiply: each home sees ~1/N of the
	// line universe, and 1024 nodes x 1024 pre-sized slots would burn
	// ~16 MB before a single line is cached. The tables still grow on
	// demand; only the starting footprint is O(active), not O(N^2).
	dirCap := 1024
	if cfg.Nodes > 64 {
		dirCap = 64
	}
	for i := 0; i < cfg.Nodes; i++ {
		f.nodes = append(f.nodes, &node{
			id:     NodeID(i),
			home:   newEngine(fmt.Sprintf("HE%d", i), cfg.TSRFEntries, cfg.HomeOccupancy),
			remote: newEngine(fmt.Sprintf("RE%d", i), cfg.TSRFEntries, cfg.RemoteOccupancy),
			dir:    linemap.New[directory.Word](dirCap),
		})
	}
	return f
}

// BindL2 attaches a chip's L2 to its node (two-phase init: the L2 needs
// the node's Remote adapter at construction, the fabric needs the L2).
func (f *Fabric) BindL2(id NodeID, l *l2.L2) { f.nodes[id].l2 = l }

// SetTracer attaches a tracer (nil is a no-op): transaction lifetimes
// record as pe spans and every inter-node message as a noc hop span.
func (f *Fabric) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	f.tr = tr
	f.net = tracedNet{inner: f.net, tr: tr}
}

// SetFaults attaches a fault injector. A disabled injector (nil plan or
// all-zero rates) leaves the fabric untouched so fault-free runs stay
// byte-identical. Call before SetTracer so hop spans include the fault
// latency.
func (f *Fabric) SetFaults(inj *fault.Injector) {
	if !inj.Enabled() {
		return
	}
	f.inj = inj
	f.net = faultNet{inner: f.net, inj: inj}
}

// faultNet wraps the fabric's network with the per-message fault model:
// link-level retransmit latency charged at the sender, transient stall
// latency at the receiver.
type faultNet struct {
	inner Network
	inj   *fault.Injector
}

// Send implements Network.
func (fn faultNet) Send(now sim.Time, from, to NodeID, bytes int, prio int) sim.Time {
	if from != to {
		now += fn.inj.LinkDelay(uint64(from), bytes)
	}
	done := fn.inner.Send(now, from, to, bytes, prio)
	if from != to {
		done += fn.inj.StallDelay(uint64(to))
	}
	return done
}

// ScheduleRecovery arms the periodic TSRF recovery sweep (paper §2.7) on
// the simulation engine: every plan SweepPeriod, each node's home and
// remote engines scan their TSRFs for transactions outstanding longer
// than the plan timeout and reclaim the entries. After any reclaim the
// node's L2 invariants are re-checked — recovery must never leave the
// coherence state inconsistent. The sweep consumes engine sequence
// numbers, so it is a no-op unless the injector is live; fault-free runs
// must not carry it.
func (f *Fabric) ScheduleRecovery(eng *sim.Engine) {
	if f.inj == nil {
		return
	}
	period := f.inj.Plan().SweepPeriod
	timeout := f.inj.Plan().Timeout
	var sweep func()
	sweep = func() {
		now := eng.Now()
		for _, nd := range f.nodes {
			n := nd.home.Recover(now, timeout) + nd.remote.Recover(now, timeout)
			f.inj.NoteSweep(n)
			if n > 0 && nd.l2 != nil {
				if err := nd.l2.CheckInvariants(); err != nil {
					panic(fmt.Sprintf("pe: recovery sweep on node %d broke coherence: %v", nd.id, err))
				}
			}
		}
		eng.After(period, sweep)
	}
	eng.After(period, sweep)
}

// loseAndRecover models one lost protocol message: the transaction's
// TSRF entry is reserved and never released (exactly what a lost reply
// leaves behind), stays occupied for the full timeout, and is reclaimed
// by the recovery sweep's staleness scan at the first sweep tick past
// the timeout — when the retry resumes. The scan runs here, on the
// synchronous transaction timeline, because the engines compute whole
// transactions ahead of the event clock: waiting for the scheduled sweep
// event would leave the abandoned mark in place long enough for
// concurrent losses to exhaust the 16-entry pool and wedge the machine.
// The periodic ScheduleRecovery sweep backstops anything left stranded.
func (f *Fabric) loseAndRecover(e *Engine, now sim.Time) sim.Time {
	start := e.tsrf.Reserve(now).Start() // the hold is intentionally abandoned
	e.Stats.Transactions++
	recoverAt := f.inj.RecoverTime(start)
	f.inj.NoteSweep(e.Recover(recoverAt, f.inj.Plan().Timeout))
	f.inj.NoteRecovery(now, recoverAt)
	return recoverAt
}

// tracedNet wraps the fabric's network, recording each message as a
// hop span on the sending node's timeline (Arg = destination node).
type tracedNet struct {
	inner Network
	tr    *trace.Tracer
}

// Send implements Network.
func (t tracedNet) Send(now sim.Time, from, to NodeID, bytes int, prio int) sim.Time {
	done := t.inner.Send(now, from, to, bytes, prio)
	if from != to {
		t.tr.Span(trace.NOC, trace.KHop, uint8(from), int16(prio), uint64(bytes), now, done, uint32(to))
	}
	return done
}

// Proto returns the l2.Remote adapter for the given node.
func (f *Fabric) Proto(id NodeID) *NodeProto { return &NodeProto{f: f, id: id} }

// HomeOf returns the node whose memory holds the line (8 KB page
// interleave across nodes). After a fail-stop, a dead home's lines are
// served by its RAS mirror; the redirect costs one predicated load on
// the fault-free path and nothing changes until a node actually dies.
func (f *Fabric) HomeOf(l cache.LineAddr) NodeID {
	page := uint64(l) >> (cache.PageShift - cache.LineShift)
	h := NodeID(page % uint64(f.cfg.Nodes))
	if f.anyDead && f.nodes[h].dead {
		h = f.mirror[h]
	}
	return h
}

// FailStopStats summarizes one fail-stop directory reconstruction.
type FailStopStats struct {
	// SharersDropped counts entries purged of the dead node's sharer bit.
	SharersDropped int
	// OwnerReclaims counts exclusive entries reclaimed from the dead
	// owner (the line's data is restored from the RAS mirror).
	OwnerReclaims int
	// HomesAdopted counts dead-homed entries rebuilt at the mirror.
	HomesAdopted int
}

// nextAlive returns the first surviving node after id in ring order —
// the RAS mirror that adopts id's home memory.
func (f *Fabric) nextAlive(id NodeID) NodeID {
	for i := 1; i < f.cfg.Nodes; i++ {
		c := NodeID((int(id) + i) % f.cfg.Nodes)
		if !f.nodes[c].dead {
			return c
		}
	}
	panic("pe: fail-stop killed every node")
}

// dropNode removes a fail-stopped node from one directory entry: a dead
// exclusive owner reclaims the whole entry (memory is restored from the
// mirror), a dead sharer is erased from the vector. Coarse vectors are
// rebuilt from the surviving members, so the re-encoded group bits stay
// a superset of the true sharers exactly as in normal operation.
func dropNode(e directory.Entry, id NodeID) (directory.Entry, FailStopStats) {
	var st FailStopStats
	switch e.State {
	case directory.Uncached:
	case directory.Exclusive:
		if e.Owner == id {
			st.OwnerReclaims++
			return directory.Clear(), st
		}
	case directory.Shared, directory.SharedCoarse:
		if e.Sharers.Has(id) {
			st.SharersDropped++
			e.Sharers.Remove(id)
			if e.Sharers.Empty() {
				return directory.Clear(), st
			}
		}
	}
	return e, st
}

// purgeDead walks one surviving home's directory in ascending line order
// and erases the dead node from every entry that names it. Each touched
// entry costs a TSRF-mediated home-engine step plus the memory rewrite
// (the directory lives in the home memory's ECC bits), serialized on the
// recovery timeline.
func (f *Fabric) purgeDead(done sim.Time, h *node, id NodeID, st *FailStopStats) sim.Time {
	for _, line := range h.dir.Keys() {
		e := f.dirEntry(h, line)
		ne, d := dropNode(e, id)
		if d.SharersDropped == 0 && d.OwnerReclaims == 0 {
			continue
		}
		st.SharersDropped += d.SharersDropped
		st.OwnerReclaims += d.OwnerReclaims
		done = h.home.process(done, 0)
		done += f.cfg.MemLatency
		f.setEntry(h, line, ne)
	}
	return done
}

// FailNode kills node id at time now (fail-stop). Recovery software,
// modeled as a TSRF-mediated sweep on the surviving protocol engines,
// reconstructs the directory: every surviving home is purged of the dead
// node's sharer/owner state, and the dead home's own entries are rebuilt
// at its RAS mirror — the mirrored memory carries the directory ECC bits
// too, so the entries survive verbatim (minus the dead node itself, and
// minus the mirror, now their home) and requests re-routed by HomeOf
// find them there. Returns when the sweep
// completes and what it touched. Surviving L2 invariants are re-checked
// afterwards; reconstruction must never leave coherence inconsistent.
func (f *Fabric) FailNode(now sim.Time, id NodeID) (sim.Time, FailStopStats) {
	var st FailStopStats
	dead := f.nodes[id]
	if dead.dead {
		panic(fmt.Sprintf("pe: node %d fail-stopped twice", id))
	}
	dead.dead = true
	f.anyDead = true
	if f.mirror == nil {
		f.mirror = make([]NodeID, f.cfg.Nodes)
	}
	m := f.nextAlive(id)
	f.mirror[id] = m
	// An earlier dead home whose mirror just died moves to ours: its
	// adopted entries live in id's directory and are swept below with it.
	for d := range f.mirror {
		if f.nodes[d].dead && f.mirror[d] == id {
			f.mirror[d] = m
		}
	}

	done := now
	for _, h := range f.nodes {
		if h.dead {
			continue
		}
		done = f.purgeDead(done, h, id, &st)
	}

	mn := f.nodes[m]
	for _, line := range dead.dir.Keys() {
		e := f.dirEntry(dead, line)
		e, d := dropNode(e, id)
		// The mirror is the line's home now, and a home's own copies
		// are never recorded in its directory (§2.5.2).
		e, _ = dropNode(e, m)
		st.SharersDropped += d.SharersDropped
		st.OwnerReclaims += d.OwnerReclaims
		st.HomesAdopted++
		done = mn.home.process(done, 0)
		done += f.cfg.MemLatency
		f.setEntry(mn, line, e)
	}
	dead.dir.Reset()

	for _, h := range f.nodes {
		if h.dead || h.l2 == nil {
			continue
		}
		if err := h.l2.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("pe: fail-stop reconstruction for node %d broke coherence on node %d: %v", id, h.id, err))
		}
	}
	return done, st
}

// mirrorExtra returns the extra memory latency when h serves line as an
// adopting mirror rather than its natural home: the read counts as a
// RAS failover and pays the mirror-read cost.
func (f *Fabric) mirrorExtra(now sim.Time, h *node, line cache.LineAddr) sim.Time {
	if !f.anyDead {
		return 0
	}
	page := uint64(line) >> (cache.PageShift - cache.LineShift)
	nat := NodeID(page % uint64(f.cfg.Nodes))
	if nat != h.id && f.nodes[nat].dead {
		return f.inj.FailoverPenalty(now)
	}
	return 0
}

// Engines returns a node's home and remote engines (stats inspection).
func (f *Fabric) Engines(id NodeID) (he, re *Engine) {
	return f.nodes[id].home, f.nodes[id].remote
}

// dirWord is a home line's directory word (Uncached when absent).
//
//piranha:hotpath
func (f *Fabric) dirWord(h *node, line cache.LineAddr) directory.Word {
	w, _ := h.dir.Get(line)
	return w
}

// setDir stores a directory word. A cleared entry frees its table slot
// (absent means Uncached), so the table tracks only the lines that are
// actually cached somewhere.
//
//piranha:hotpath
func (f *Fabric) setDir(h *node, line cache.LineAddr, w directory.Word) {
	if w == directory.UncachedWord {
		h.dir.Delete(line)
		return
	}
	h.dir.Put(line, w)
}

// dirEntry decodes a home line's directory entry for the fail-stop
// sweeps, which rebuild entries node by node.
func (f *Fabric) dirEntry(h *node, line cache.LineAddr) directory.Entry {
	return directory.Decode(f.dcfg, uint64(f.dirWord(h, line)))
}

// setEntry encodes and stores an entry the fail-stop sweeps rebuilt.
func (f *Fabric) setEntry(h *node, line cache.LineAddr, e directory.Entry) {
	w, err := directory.Encode(f.dcfg, e)
	if err != nil {
		panic("pe: " + err.Error())
	}
	f.setDir(h, line, directory.Word(w))
}
