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

// The executor. Every protocol message the fabric delivers — and every
// processor-side start — fires the first rule whose key matches and whose
// guard holds, and each of its opcodes is charged as timing: TSRF
// reservations, packets on the network, bank accesses on the chips the
// message reaches, directory updates. Transactions are atomic, as
// everywhere in this timing model: a miss runs to completion before the
// call returns, each message delivered at its arrival time once the rule
// that sent it has finished.

// Slot indexes the request dimension of the rule index. The first four
// slots are the l2 request kinds; processor-side evictions, keyed by
// ReqAny in the table, get their own slot.
const (
	evictSlot = 4
	nSlots    = 5
	nDirs     = 4 // directory.State values
)

// ruleIndex is the table, indexed once for allocation-free dispatch by
// (acting node is home) × message kind × directory state × line kind ×
// request slot. Each key lists its rules' positions in table order,
// which is the order guards are evaluated in; the index is a few
// kilobytes of inline arrays, so a lookup touches one cache line.
type ruleIndex struct {
	table *protocol.Table
	keys  [2][protocol.NMsgKinds][nDirs][protocol.NLineKinds][nSlots]ruleList
	// readsLine marks the (home, message) pairs whose rules depend on the
	// acting node's line kind; the others skip the chip lookup.
	readsLine [2][protocol.NMsgKinds]bool
}

// ruleList is one key's rules; no key of the table has more than four.
type ruleList struct {
	n   uint8
	idx [4]uint8
}

// piranhaRules is the shipped protocol's index.
var piranhaRules = newRuleIndex(protocol.Piranha())

func newRuleIndex(t *protocol.Table) *ruleIndex {
	if err := t.Validate(); err != nil {
		panic("pe: " + err.Error())
	}
	x := &ruleIndex{table: t}
	for home := 0; home < 2; home++ {
		for msg := protocol.MsgKind(0); msg < protocol.NMsgKinds; msg++ {
			for dir := 0; dir < nDirs; dir++ {
				for line := protocol.LineKind(0); line < protocol.NLineKinds; line++ {
					for slot := 0; slot < nSlots; slot++ {
						for i, r := range t.Rules {
							if indexed(r, home == 1, msg, directory.State(dir), line, slot) {
								k := &x.keys[home][msg][dir][line][slot]
								k.idx[k.n] = uint8(i)
								k.n++
								x.readsLine[home][msg] = x.readsLine[home][msg] || r.Line != protocol.LineAny
							}
						}
					}
				}
			}
		}
	}
	return x
}

// indexed reports whether rule r belongs under the key. Spontaneous
// rules split by what starts them: a miss or upgrade names its request
// kind exactly, and an eviction is a request-less rule that gives the
// acting node's copy up. Store hits (write-hit) never leave the chip,
// so they are not indexed.
func indexed(r protocol.Rule, home bool, msg protocol.MsgKind, dir directory.State, line protocol.LineKind, slot int) bool {
	if r.Msg != msg || (r.Role == protocol.RoleHome && !home) || (r.Role == protocol.RoleRemote && home) ||
		(r.Dir != protocol.DirAny && r.Dir != dir) || (r.Line != protocol.LineAny && r.Line != line) {
		return false
	}
	if msg != protocol.MsgNone {
		return slot != evictSlot && (r.Req == protocol.ReqAny || r.Req == l2.Kind(slot))
	}
	if slot != evictSlot || r.Req != protocol.ReqAny {
		return r.Req == l2.Kind(slot)
	}
	for _, op := range r.Do {
		if op == protocol.OpSendWB || op == protocol.OpInvalidateLine {
			return true
		}
	}
	return false
}

// txn is one atomic transaction's protocol state: the line, the node
// that started it, and what is outstanding.
type txn struct {
	line  cache.LineAddr
	kind  l2.Kind
	evict bool // an exclusive eviction rather than a miss or upgrade
	home  *node
	req   *node // the node whose miss, upgrade, write or eviction started it

	pendFill bool // req awaits its reply
	pendWB   bool // req awaits its writeback acknowledgment

	// issueRel holds the TSRF entry req reserved for the whole
	// transaction; homeRel the home handler's entry when a rule held it
	// past the handler (a read forward's, until the sharing writeback).
	issueRel, homeRel sim.Hold
	issueAt, homeAt   sim.Time // span starts

	// coarse marks invalidations fanned out from a coarse vector: a
	// visited chip with no copy counts as an over-invalidation.
	coarse bool

	ackTime sim.Time // last invalidation ack at req
	done    sim.Time
	svc     l2.Svc
	excl    bool
}

// act is one rule firing at one node.
type act struct {
	n     *node
	msg   protocol.MsgKind
	from  *node
	now   sim.Time
	entry directory.Word // the home's directory at the firing
	excl  bool           // a reply's exclusivity grant

	charged bool
	rel     sim.Hold // this firing's handler entry, if it took one
	held    bool     // OpReserveTSRF keeps rel past the handler
	end     sim.Time // when the handler's entry frees
	spanEnd sim.Time // a home reply's arrival (trace)

	chipServed bool // the home chip held the line and served the request
	chipReady  sim.Time
	cleanEx    bool

	out  [2]delivery
	nout int
}

// delivery is a message a firing sent, delivered after the firing.
type delivery struct {
	kind protocol.MsgKind
	to   *node
	at   sim.Time
	excl bool
}

func (a *act) emit(kind protocol.MsgKind, to *node, at sim.Time, excl bool) {
	a.out[a.nout] = delivery{kind: kind, to: to, at: at, excl: excl}
	a.nout++
}

// start fires x.req's processor-side rule: a miss or upgrade, a
// home-local write, or an exclusive eviction. Every spontaneous rule is
// guarded by no-pending; at the home that means the request waits until
// the engine holds no TSRF entry for the line.
func (f *Fabric) start(x *txn, now sim.Time) {
	if x.req == x.home {
		now = max(now, f.busyUntil(x.home, x.line, now))
	}
	f.receive(x, protocol.MsgNone, x.req, nil, now, false)
}

// receive delivers one message (MsgNone: a processor-side start) to node
// n at time at, fires its rule (again after each delay) and then the
// messages that rule sent, and returns when n finished handling it.
func (f *Fabric) receive(x *txn, kind protocol.MsgKind, n, from *node, at sim.Time, excl bool) sim.Time {
	var a act // assigned field by field: a composite literal is copied
	a.n, a.msg, a.from, a.now, a.excl = n, kind, from, at, excl
	for {
		if kind == protocol.MsgReq && f.cfg.Baseline {
			// DASH-style: a saturated home NAKs and the requester
			// retries after a backoff.
			for n.home.tsrf.InUse(a.now) >= n.home.tsrf.Size() {
				n.home.Stats.NAKs++
				n.home.Stats.Retries++
				back := f.net.Send(a.now, n.id, from.id, ShortPacket, prioHigh)
				a.now = f.net.Send(back+f.cfg.RetryDelay, from.id, n.id, ShortPacket, prioLow)
			}
		}
		if !f.fire(x, &a) {
			return f.finish(x, &a)
		}
	}
}

// fire runs the first enabled rule for the firing's key and reports
// whether it delayed the message. A key with no enabled rule is a
// declared hole or an unspecified reception; the verified table
// promises neither is reachable, so reaching one is a modeling bug.
func (f *Fabric) fire(x *txn, a *act) (delayed bool) {
	home, slot := 0, int(x.kind)
	if a.n == x.home {
		home = 1
	}
	if x.evict && a.msg == protocol.MsgNone {
		slot = evictSlot
	}
	if home == 1 {
		// Only the home reads the directory: rules elsewhere are keyed
		// DirAny and never consult it.
		a.entry = f.dirWord(x.home, x.line)
	}
	line := protocol.LineInvalid
	switch {
	case a.msg == protocol.MsgNone:
		line = x.startLine()
	case piranhaRules.readsLine[home][a.msg]:
		line = f.lineKind(a.n, x.line)
		if a.msg == protocol.MsgInval && x.coarse && line == protocol.LineInvalid && a.n.l2 != nil {
			// Group-granular bookkeeping named a chip with no copy.
			f.OverInvals++
		}
	}
	k := &piranhaRules.keys[home][a.msg][a.entry.State()][line][slot]
	for _, i := range k.idx[:k.n] {
		r := &piranhaRules.table.Rules[i]
		if f.guard(x, a, r.When) {
			f.fires[i]++
			return f.exec(x, a, r)
		}
	}
	f.hole(x, a, line)
	return false
}

// hole panics with the unreachable combination a firing reached.
func (f *Fabric) hole(x *txn, a *act, line protocol.LineKind) {
	if a.msg != protocol.MsgNone {
		line = f.lineKind(a.n, x.line) // the key may not have needed it
	}
	dir, req := f.dirWord(x.home, x.line).State(), x.kind
	if x.evict {
		req = protocol.ReqAny
	}
	reason, ok := piranhaRules.table.Unreachable(dir, line, a.msg, req)
	if !ok {
		reason = "no rule's guard holds (unspecified reception)"
	}
	panic(fmt.Sprintf("pe: node %d reached protocol hole (dir=%v, line=%v, msg=%v, req=%v) on line %#x: %s",
		a.n.id, dir, line, a.msg, req, x.line, reason))
}

// guard evaluates a rule's guard against the transaction.
func (f *Fabric) guard(x *txn, a *act, g protocol.Guard) bool {
	switch g {
	case protocol.GAlways:
		return true
	case protocol.GReqIsSharer:
		return a.entry.Has(f.dcfg, x.req.id)
	case protocol.GReqNotSharer:
		return !a.entry.Has(f.dcfg, x.req.id)
	case protocol.GOwnerNotReq:
		return a.entry.Owner() != x.req.id
	case protocol.GSenderIsOwner:
		return a.entry.State() == directory.Exclusive && a.entry.Owner() == a.from.id
	case protocol.GSenderNotOwner:
		return a.entry.State() != directory.Exclusive || a.entry.Owner() != a.from.id
	case protocol.GNoPending:
		return !(a.n == x.req && (x.pendFill || x.pendWB)) && !f.engineBusy(x, a)
	case protocol.GPendingFill:
		return a.n == x.req && x.pendFill
	case protocol.GPendingWB:
		return a.n == x.req && x.pendWB
	case protocol.GEngineBusy:
		return f.engineBusy(x, a)
	case protocol.GPendingShareFill:
		return a.n == x.req && x.pendFill && !protocol.WantsExclusive(x.kind)
	}
	panic(fmt.Sprintf("pe: unknown protocol guard %v", g))
}

// engineBusy: the acting node is the line's home and its engine holds
// a TSRF entry for the line at the firing time.
func (f *Fabric) engineBusy(x *txn, a *act) bool {
	return a.n == x.home && f.busyUntil(a.n, x.line, a.now) > 0
}

// busyUntil is when the home engine's last held TSRF entry for the line
// freed — the read-forward window q-defer waits out — if that is after
// now, else zero. Once now passes every window the home recorded, no
// lookup is needed.
func (f *Fabric) busyUntil(h *node, line cache.LineAddr, now sim.Time) sim.Time {
	if now >= h.busyMax {
		return 0
	}
	if t, _ := h.busy.Get(line); t > now {
		return t
	}
	return 0
}

// charge is the engine cost of receiving a message: a request's handler
// holds a home TSRF entry until its last action; forwards and
// invalidations are one remote-engine step, writebacks one home-engine
// step; replies and acks land on their transaction's entry. Spontaneous
// rules take entries on demand (OpReserveTSRF, OpInvalSharers).
func (f *Fabric) charge(x *txn, a *act) {
	a.charged = true
	switch a.msg {
	case protocol.MsgReq:
		x.homeAt = a.now
		a.now, a.rel = f.reserve(a.n.home, a.now)
	case protocol.MsgFwd, protocol.MsgInval:
		a.now = a.n.remote.process(a.now, 0)
	case protocol.MsgWB, protocol.MsgShareWB:
		a.now = a.n.home.process(a.now, 0)
	}
}

// reserve takes an engine TSRF entry at now and returns when the
// engine's occupancy for the message is over.
func (f *Fabric) reserve(e *Engine, now sim.Time) (sim.Time, sim.Hold) {
	h := e.tsrf.Reserve(now)
	e.Stats.Transactions++
	e.Stats.Occupancy += e.occ
	return h.Start() + e.occ, h
}

// engineFor is the engine a node runs the line's transactions on.
func (x *txn) engineFor(n *node) *Engine {
	if n == x.home {
		return n.home
	}
	return n.remote
}

// exec applies a rule's opcodes in order. It reports whether the rule
// delayed the message (OpDelay), in which case the firing re-dispatches
// at the new time.
func (f *Fabric) exec(x *txn, a *act, r *protocol.Rule) (delayed bool) {
	for _, op := range r.Do {
		if op != protocol.OpDelay && !a.charged {
			f.charge(x, a)
		}
		switch op {
		case protocol.OpSendReq:
			t := a.n.remote.send(f.net, a.now, a.n.id, x.home.id, ShortPacket, prioLow)
			x.pendFill = true
			a.emit(protocol.MsgReq, x.home, t, false)

		case protocol.OpReserveTSRF:
			if a.rel.Held() { // a request handler keeps its entry
				a.held = true
				break
			}
			// A transaction starts. A lost message strands its entry until
			// the recovery sweep reclaims it; the retry starts then.
			e := x.engineFor(a.n)
			for try := 0; try < fault.MaxLossRetries && f.inj.LoseMessage(); try++ {
				a.now = f.loseAndRecover(e, a.now)
			}
			x.issueAt = a.now
			a.now, x.issueRel = f.reserve(e, a.now)

		case protocol.OpReleaseTSRF:
			if a.n == x.req && x.issueRel.Held() {
				f.releaseIssue(x, a.now)
			} else {
				f.releaseHome(x, a.now)
			}

		case protocol.OpSupplyHome, protocol.OpAckRequester, protocol.OpUpdateMem, protocol.OpWriteLocal:
			// Timed elsewhere: the home's supply leaves with its reply
			// (homeReady), acknowledgments travel as the invalidation's
			// routing sends them, and home memory writes and stores are
			// off the protocol's critical path.

		case protocol.OpSupplyOwn:
			// One bank access on the owner chip supplies the line and
			// applies the request's ownership change, so the
			// OpDowngradeLine/OpInvalidateLine that follow find the chip
			// already updated.
			x.svc = l2.SvcRemoteDirty
			if a.n.l2 != nil {
				if onChip, _, t := a.n.l2.ServeRemote(a.now, x.line, protocol.WantsExclusive(x.kind)); onChip {
					a.now = t
				}
			}
			if f.cfg.Baseline && x.req != x.home {
				// DASH-style ownership-change confirmation, standing in
				// for the sharing writeback; the home's entry waits for it.
				f.releaseHome(x, a.n.remote.send(f.net, a.now, a.n.id, x.home.id, ShortPacket, prioHigh))
			}

		case protocol.OpReplyData, protocol.OpReplyGrant:
			size, excl := ShortPacket, true
			if op == protocol.OpReplyData {
				size, excl = LongPacket, protocol.WantsExclusive(x.kind) || a.cleanEx
			}
			at := a.now
			if a.msg == protocol.MsgReq {
				at = f.homeReady(x, a)
				if f.cfg.Baseline && x.ackTime > at {
					at = x.ackTime // strict request-reply: exclusivity waits for every ack
				}
			}
			t := x.engineFor(a.n).send(f.net, at, a.n.id, x.req.id, size, prioHigh)
			a.end, a.spanEnd = at, t
			a.emit(protocol.MsgReply, x.req, t, excl)

		case protocol.OpForwardReq:
			o := f.nodes[a.entry.Owner()]
			t := a.n.home.send(f.net, a.now, a.n.id, o.id, ShortPacket, prioHigh)
			f.ThreeHop++
			a.end = t
			if a.msg == protocol.MsgNone {
				x.pendFill = true // the home itself is the requester
			} else if f.cfg.Baseline {
				a.held = true // released by the confirmation
			}
			a.emit(protocol.MsgFwd, o, t, false)

		case protocol.OpInvalSharers:
			sharers := f.sharersExcept(a.entry, x.req.id)
			if len(sharers) == 0 {
				break
			}
			if !a.rel.Held() { // a home-local write engages the home engine
				a.now, a.rel = f.reserve(a.n.home, a.now)
			}
			x.coarse = a.entry.State() == directory.SharedCoarse
			f.fanOut(x, a.now, sharers)

		case protocol.OpInvalHome, protocol.OpDowngradeHome:
			if h := x.home.l2; h != nil {
				if onChip, _, t := h.ServeRemote(a.now, x.line, op == protocol.OpInvalHome); onChip {
					a.chipServed, a.chipReady = true, t
				}
			}

		case protocol.OpDirReadGrant:
			if a.entry.State() == directory.Uncached && !a.chipServed {
				// Clean-exclusive: no other copy exists.
				a.cleanEx = true
				f.setDir(x.home, x.line, directory.ExclusiveWord(x.req.id))
			} else {
				f.setDir(x.home, x.line, a.entry.AddSharer(f.dcfg, x.req.id))
			}

		case protocol.OpDirSetExclusiveReq:
			f.setDir(x.home, x.line, directory.ExclusiveWord(x.req.id))

		case protocol.OpDirShareOwnerReq:
			w := directory.UncachedWord.AddSharer(f.dcfg, a.entry.Owner())
			if x.req != x.home {
				w = w.AddSharer(f.dcfg, x.req.id)
			}
			f.setDir(x.home, x.line, w)
			f.DirtyShares++

		case protocol.OpDirClear:
			f.setDir(x.home, x.line, directory.UncachedWord)

		case protocol.OpFill:
			// The chip installs the line itself once the transaction
			// returns; the fill fixes when, and how exclusively.
			x.done = a.now
			if a.msg == protocol.MsgReply {
				x.excl = a.excl
				if a.excl {
					f.setShadow(a.n, x.line, protocol.LineExclusive)
				} else {
					f.setShadow(a.n, x.line, protocol.LineShared)
				}
			} else {
				// A home-local write is granted at dispatch (eager
				// exclusive replies), or after every ack in the baseline.
				if f.cfg.Baseline && x.ackTime > x.done {
					x.done = x.ackTime
				}
				a.end = x.done
			}

		case protocol.OpInvalidateLine:
			// Only an invalidation takes another node's copy from its
			// chip here: a forward's SupplyOwn already did, and an
			// evicting chip drops its own copy.
			if a.msg == protocol.MsgInval && a.n.l2 != nil {
				a.n.l2.ServeRemote(a.now, x.line, true)
			}
			f.setShadow(a.n, x.line, protocol.LineInvalid)

		case protocol.OpDowngradeLine:
			f.setShadow(a.n, x.line, protocol.LineShared)

		case protocol.OpGatherAck:
			if a.now > x.ackTime {
				x.ackTime = a.now
			}

		case protocol.OpSendWB:
			t := a.n.remote.send(f.net, a.now, a.n.id, x.home.id, LongPacket, prioHigh)
			x.pendWB = true
			a.emit(protocol.MsgWB, x.home, t, false)

		case protocol.OpSendShareWB:
			if !f.cfg.Baseline { // the baseline's confirmation stands in
				t := a.n.remote.send(f.net, a.now, a.n.id, x.home.id, LongPacket, prioHigh)
				a.emit(protocol.MsgShareWB, x.home, t, false)
			}

		case protocol.OpAckWB:
			t := a.n.home.send(f.net, a.now, a.n.id, a.from.id, ShortPacket, prioHigh)
			a.emit(protocol.MsgWBAck, a.from, t, false)

		case protocol.OpComplete:
			x.done = a.now
			x.pendFill, x.pendWB = false, false

		case protocol.OpDelay:
			t := f.busyUntil(a.n, x.line, a.now)
			if t == 0 {
				panic(fmt.Sprintf("pe: rule %s delays line %#x at node %d with nothing to wait for", r.Name, x.line, a.n.id))
			}
			a.now = t
			return true

		case protocol.OpPoisonFill:
			// A fill is never in flight when an invalidation lands:
			// transactions here are atomic.
			panic(fmt.Sprintf("pe: rule %s poisons a fill at node %d, but no fill is in flight", r.Name, a.n.id))

		default:
			panic(fmt.Sprintf("pe: unknown protocol op %v in rule %s", op, r.Name))
		}
	}
	return false
}

// finish closes a firing: the handler's TSRF entry frees unless the
// rule held it, and the messages the rule sent are delivered in order.
func (f *Fabric) finish(x *txn, a *act) sim.Time {
	if a.rel.Held() {
		if a.held {
			x.homeRel = a.rel
		} else {
			a.rel.Release(a.end)
			if a.msg == protocol.MsgReq {
				f.tr.Span(trace.PE, trace.KHomeTx, uint8(a.n.id), unitHE, uint64(x.line.Addr()), x.homeAt, max(a.end, a.spanEnd), uint32(x.kind))
			}
		}
	}
	for i := 0; i < a.nout; i++ {
		d := a.out[i]
		f.receive(x, d.kind, d.to, a.n, d.at, d.excl)
	}
	return a.now
}

// releaseHome frees the home handler's held entry at t; the line's
// read-forward window closes with it.
func (f *Fabric) releaseHome(x *txn, t sim.Time) {
	if !x.homeRel.Held() {
		return
	}
	x.homeRel.Release(t)
	x.homeRel = sim.Hold{}
	f.markBusy(x.home, x.line, t)
	f.tr.Span(trace.PE, trace.KHomeTx, uint8(x.home.id), unitHE, uint64(x.line.Addr()), x.homeAt, t, uint32(x.kind))
}

// markBusy records that the home engine held a TSRF entry for the line
// until t.
func (f *Fabric) markBusy(h *node, line cache.LineAddr, t sim.Time) {
	if h.busy == nil {
		h.busy = linemap.New[sim.Time](64)
	}
	h.busy.Put(line, t)
	h.busyMax = max(h.busyMax, t)
}

// homeReady is when the home's reply can leave: once its chip supplied
// the line, else once memory returned line and directory together.
func (f *Fabric) homeReady(x *txn, a *act) sim.Time {
	if a.chipServed {
		return a.chipReady
	}
	return a.now + f.cfg.MemLatency + f.mirrorExtra(a.now, x.home, x.line)
}

// releaseIssue frees the entry x.req reserved for the transaction at
// t and traces the transaction; at the home the line's engine is busy
// until then.
func (f *Fabric) releaseIssue(x *txn, t sim.Time) {
	x.issueRel.Release(t)
	x.issueRel = sim.Hold{}
	k, unit, arg := trace.KRemoteTx, unitRE, uint32(x.kind)
	if x.req == x.home {
		k, unit = trace.KHomeTx, unitHE
		f.markBusy(x.home, x.line, t)
	}
	if x.evict {
		arg = 0
	}
	f.tr.Span(trace.PE, k, uint8(x.req.id), unit, uint64(x.line.Addr()), x.issueAt, t, arg)
}

// startLine is the starting node's copy as its request implies it: the
// chips call into the fabric only for a miss (no copy), an upgrade or a
// home-local write to a held line (Upgrade: a shared copy), and an
// eviction (an exclusive copy).
func (x *txn) startLine() protocol.LineKind {
	switch {
	case x.evict:
		return protocol.LineExclusive
	case x.kind == l2.Upgrade:
		return protocol.LineShared
	}
	return protocol.LineInvalid
}

// lineKind is a node's copy of the line as the protocol sees it: the
// chip holds it exclusively when no other node may hold it. A node with
// no L2 bound (the protocol studies' synthetic nodes) holds what the
// table's fills, downgrades and invalidations left it.
func (f *Fabric) lineKind(n *node, line cache.LineAddr) protocol.LineKind {
	if n.l2 == nil {
		if n.shadow == nil {
			return protocol.LineInvalid
		}
		k, _ := n.shadow.Get(line)
		return k
	}
	held, excl := n.l2.Holding(line)
	switch {
	case !held:
		return protocol.LineInvalid
	case excl:
		return protocol.LineExclusive
	}
	return protocol.LineShared
}

// setShadow records a synthetic node's line kind (no-op for chips).
func (f *Fabric) setShadow(n *node, line cache.LineAddr, k protocol.LineKind) {
	if n.l2 != nil {
		return
	}
	if n.shadow == nil {
		n.shadow = linemap.New[protocol.LineKind](64)
	}
	n.shadow.Put(line, k)
}
