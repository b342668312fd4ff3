package pe

import (
	"piranha/internal/cache"
	"piranha/internal/directory"
	"piranha/internal/l2"
	"piranha/internal/protocol"
	"piranha/internal/sim"
)

// Engine units for trace events: home engine 0, remote engine 1.
const (
	unitHE = int16(0)
	unitRE = int16(1)
)

// NodeProto adapts one node's protocol engines to the l2.Remote interface.
type NodeProto struct {
	f  *Fabric
	id NodeID
}

var _ l2.Remote = (*NodeProto)(nil)

// HomeIsLocal implements l2.Remote.
func (p *NodeProto) HomeIsLocal(line cache.LineAddr) bool {
	return p.f.HomeOf(line) == p.id
}

// LocalDirState implements l2.Remote: the partial interpretation of the
// 44-bit entry the L2 controller performs itself.
func (p *NodeProto) LocalDirState(line cache.LineAddr) l2.RemoteState {
	return remoteStates[p.f.dirWord(p.f.nodes[p.id], line).State()]
}

// remoteStates maps a directory state to the L2's partial view of it.
var remoteStates = [nDirs]l2.RemoteState{
	directory.Uncached:     l2.RemoteNone,
	directory.Shared:       l2.RemoteShared,
	directory.SharedCoarse: l2.RemoteShared,
	directory.Exclusive:    l2.RemoteExclusive,
}

// Fetch implements l2.Remote: the node misses or upgrades on a line it
// must obtain off-chip (a remote home, or a home-local line a remote
// node owns) and the transaction runs to completion.
func (p *NodeProto) Fetch(now sim.Time, kind l2.Kind, line cache.LineAddr) (sim.Time, l2.Svc, bool) {
	f := p.f
	x := txn{line: line, kind: kind, home: f.nodes[f.HomeOf(line)], req: f.nodes[p.id], svc: l2.SvcRemote}
	if x.req == x.home {
		x.svc = l2.SvcLocalMem
	}
	f.start(&x, now)
	return x.done, x.svc, x.excl
}

// Invalidate implements l2.Remote: a home-local write of the given kind
// (Upgrade when the chip already holds the line) must remove remote
// copies. With eager exclusive replies the write proceeds once the home
// engine has dispatched the invalidations; the acknowledgments gather
// at the home in the background.
func (p *NodeProto) Invalidate(now sim.Time, kind l2.Kind, line cache.LineAddr) sim.Time {
	f := p.f
	x := txn{line: line, kind: kind, home: f.nodes[p.id], req: f.nodes[p.id]}
	f.start(&x, now)
	return x.done
}

// Writeback implements l2.Remote: an exclusively held remote-homed line
// leaves the chip, clean or dirty. The writer holds its copy until the
// home acknowledges, which is what guarantees forwarded requests never
// NAK; the latency is off the critical path.
func (p *NodeProto) Writeback(now sim.Time, line cache.LineAddr) {
	f := p.f
	x := txn{line: line, evict: true, home: f.nodes[f.HomeOf(line)], req: f.nodes[p.id]}
	f.start(&x, now)
}

// Message priorities (virtual lanes L and H; I/O has its own lane).
const (
	prioLow  = 1
	prioHigh = 2
)

// sharersExcept lists a shared directory entry's nodes excluding skip
// (the table invalidates sharers only in the shared states). After a
// fail-stop, dead nodes are filtered out: the reconstruction sweep purges
// precise vectors, but a coarse vector's re-encoded group bits can still
// cover the dead node, and no message may ever target a dead chip.
// The returned slice is the fabric's reused scratch (valid until the
// next call) and the enumeration reads the directory word's pointers or
// set group bits, so the cost is O(sharers), not O(nodes) plus an
// allocation per invalidation.
func (f *Fabric) sharersExcept(w directory.Word, skip NodeID) []NodeID {
	out := w.AppendMembers(f.dcfg, f.sharerScratch[:0])
	kept := out[:0]
	for _, n := range out {
		if n != skip && !(f.anyDead && f.nodes[n].dead) {
			kept = append(kept, n)
		}
	}
	f.sharerScratch = kept
	return kept
}

// invalidate invalidates sharers of a line homed at h for requester req
// and returns when the last acknowledgment reaches req (or now).
func (f *Fabric) invalidate(now sim.Time, h *node, req NodeID, line cache.LineAddr, sharers []NodeID, coarse bool) sim.Time {
	x := txn{line: line, home: h, req: f.nodes[req], coarse: coarse, ackTime: now}
	f.fanOut(&x, now, sharers)
	return x.ackTime
}

// fanOut delivers the table's invalidations to the sharers and their
// acknowledgments to the requester, routed as the hardware routes them.
// With cruise-missile invalidates only ceil(k/fanout) messages are
// injected; each visits its subset of nodes serially and the last node
// of each route acknowledges. Without CMI the home injects one message
// per sharer (serialized at the home engine) and every sharer
// acknowledges. When x.coarse marks a coarse-vector entry, the
// invalidation's own firing counts each visited chip that held no copy
// as an over-invalidation.
func (f *Fabric) fanOut(x *txn, now sim.Time, sharers []NodeID) {
	if len(sharers) == 0 {
		return
	}
	f.InvalsSent += uint64(len(sharers))
	h, req := x.home, x.req

	visit := func(t sim.Time, n NodeID) sim.Time {
		return f.receive(x, protocol.MsgInval, f.nodes[n], h, t, false)
	}
	ack := func(t sim.Time, from NodeID) {
		t = f.net.Send(t, from, req.id, ShortPacket, prioHigh)
		f.InvalAcks++
		f.receive(x, protocol.MsgInvAck, req, f.nodes[from], t, false)
	}

	if f.cfg.UseCMI && !f.cfg.Baseline {
		fanout := f.cfg.CMIFanout
		if fanout < 1 {
			fanout = 1
		}
		missiles := (len(sharers) + fanout - 1) / fanout
		per := (len(sharers) + missiles - 1) / missiles
		for m := 0; m < missiles; m++ {
			route := sharers[m*per:]
			if len(route) > per {
				route = route[:per]
			}
			if len(route) == 0 {
				continue
			}
			f.InvalMsgs++
			t := h.home.send(f.net, now, h.id, route[0], ShortPacket, prioHigh)
			t = visit(t, route[0])
			for _, n := range route[1:] {
				t = f.net.Send(t, route[0], n, ShortPacket, prioHigh)
				t = visit(t, n)
			}
			// The final node on the route acknowledges the requester.
			ack(t, route[len(route)-1])
		}
		return
	}

	// Home-broadcast: one message per sharer, injected back-to-back from
	// the home engine, each acknowledged to the requester.
	inject := now
	for _, n := range sharers {
		inject += f.cfg.HomeOccupancy
		f.InvalMsgs++
		t := h.home.send(f.net, inject, h.id, n, ShortPacket, prioHigh)
		ack(visit(t, n), n)
	}
}
