// Package mcheck is a bounded model checker for the protocol tables of
// internal/protocol: it exhaustively enumerates the
// reachable states of an N-node micro-system (2–4 nodes, one cache
// line, home at node 0) under all message interleavings and proves the
// §3.5 safety claims — NAK-freedom (every reception is specified),
// deadlock-freedom, no stale-data reads, and TSRF occupancy bounds —
// that the simulator's recovery sweep can only spot-check dynamically.
//
// The abstract machine follows the Guarded Action Language approach:
// protocol state is (directory entry, per-node line kind + abstract
// data version, in-flight messages, TSRF occupancy), and a rule firing
// is atomic. Data is a version counter: every store increments the
// global version, so "a reader always observes the last writer's
// value" becomes an equality check at each supply and fill. The
// directory entry is carried as the 44-bit directory.Word and read and
// updated with the same Word operations internal/pe executes, so the
// checker verifies the engines' directory code; every directory write
// it explores is also checked against the Entry codec (Encode of the
// Entry operation on the decoded word), the directory-codec invariant.
//
// Messages travel on per-(src,dst) FIFO channels, matching the fabric's
// ordered virtual lanes: messages between the same pair never reorder,
// while messages on different channels interleave arbitrarily. That is
// exactly the race surface the protocol's absorb rules (stale
// invalidations, stale writebacks, early forwards) exist for.
package mcheck

import (
	"fmt"
	"strings"

	"piranha/internal/directory"
	"piranha/internal/l2"
	"piranha/internal/protocol"
)

// maxNodes is the largest micro-system the checker explores. The state
// arrays are sized for it; Config.Nodes selects the live prefix.
const maxNodes = 4

// home is the node index holding the line's directory and memory.
const home = 0

// msg is one in-flight protocol message.
type msg struct {
	kind      protocol.MsgKind
	src, dst  uint8
	req       l2.Kind // request kind (MsgReq, MsgFwd only)
	requester uint8   // reply/ack target (MsgReq, MsgFwd, MsgInval)
	val       uint8   // data version carried (replies, writebacks)
	hasData   bool
	excl      bool // reply grants exclusivity
}

func (m msg) String() string {
	s := fmt.Sprintf("%v %d->%d", m.kind, m.src, m.dst)
	switch m.kind {
	case protocol.MsgReq, protocol.MsgFwd:
		s += fmt.Sprintf(" %s for n%d", protocol.KindSlug(m.req), m.requester)
	case protocol.MsgInval:
		s += fmt.Sprintf(" ack to n%d", m.requester)
	case protocol.MsgReply:
		if m.hasData {
			s += fmt.Sprintf(" data v%d", m.val)
		} else {
			s += " grant"
		}
		if m.excl {
			s += " excl"
		}
	case protocol.MsgWB, protocol.MsgShareWB:
		s += fmt.Sprintf(" v%d", m.val)
	}
	return s
}

// nodeState is one node's slice of the protocol state.
type nodeState struct {
	line    protocol.LineKind
	val     uint8 // data version held (meaningful when line != invalid)
	pend    l2.Kind
	hasPend bool  // a fill transaction is outstanding
	wb      bool  // a writeback awaits its ack
	inv     bool  // the pending shared fill was overtaken by an invalidation
	acks    uint8 // invalidation acks still owed to this node
	tsrf    uint8 // occupied TSRF entries
}

// state is one configuration of the micro-system. The directory entry
// is its encoded 44-bit word.
type state struct {
	dir   directory.Word
	mem   uint8 // memory's data version
	cur   uint8 // latest written version (abstract global clock)
	ops   uint8 // processor operations consumed (bounds the space)
	nodes [maxNodes]nodeState
	// chans[src][dst] is the FIFO channel between a node pair.
	chans [maxNodes][maxNodes][]msg
}

// clone deep-copies the state (channel slices included).
func (s *state) clone() state {
	out := *s
	for i := range s.chans {
		for j := range s.chans[i] {
			if len(s.chans[i][j]) > 0 {
				out.chans[i][j] = append([]msg(nil), s.chans[i][j]...)
			}
		}
	}
	return out
}

// key serializes the state into its canonical byte form. Field order is
// fixed, so equal states produce equal keys and the visited set is
// deterministic.
func (s *state) key(nodes int) string {
	var b []byte
	b = append(b,
		byte(s.dir), byte(s.dir>>8), byte(s.dir>>16), byte(s.dir>>24),
		byte(s.dir>>32), byte(s.dir>>40),
		s.mem, s.cur, s.ops)
	for n := 0; n < nodes; n++ {
		nd := &s.nodes[n]
		flags := byte(0)
		if nd.hasPend {
			flags |= 1
		}
		if nd.wb {
			flags |= 2
		}
		if nd.inv {
			flags |= 4
		}
		b = append(b, byte(nd.line), nd.val, byte(nd.pend), flags, nd.acks, nd.tsrf)
	}
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			ch := s.chans[src][dst]
			b = append(b, byte(len(ch)))
			for _, m := range ch {
				flags := byte(0)
				if m.hasData {
					flags |= 1
				}
				if m.excl {
					flags |= 2
				}
				b = append(b, byte(m.kind), m.src, m.dst, byte(m.req), m.requester, m.val, flags)
			}
		}
	}
	return string(b)
}

// quiescent reports whether no messages are in flight.
func (s *state) quiescent(nodes int) bool {
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			if len(s.chans[src][dst]) > 0 {
				return false
			}
		}
	}
	return true
}

// invalInFlightTo reports whether any channel carries an invalidation
// addressed to node n.
func (s *state) invalInFlightTo(nodes, n int) bool {
	for src := 0; src < nodes; src++ {
		for _, m := range s.chans[src][n] {
			if m.kind == protocol.MsgInval {
				return true
			}
		}
	}
	return false
}

// summary renders the state for counterexample steps.
func (s *state) summary(nodes int, dcfg directory.Config) string {
	var sb strings.Builder
	switch w := s.dir; w.State() {
	case directory.Exclusive:
		fmt.Fprintf(&sb, "dir=E(n%d)", w.Owner())
	case directory.Shared, directory.SharedCoarse:
		fmt.Fprintf(&sb, "dir=%v%v", w.State(), w.AppendMembers(dcfg, nil))
	default:
		sb.WriteString("dir=uncached")
	}
	fmt.Fprintf(&sb, " mem=v%d cur=v%d", s.mem, s.cur)
	for n := 0; n < nodes; n++ {
		nd := &s.nodes[n]
		fmt.Fprintf(&sb, " n%d=%v", n, nd.line)
		if nd.line != protocol.LineInvalid {
			fmt.Fprintf(&sb, "/v%d", nd.val)
		}
		if nd.hasPend {
			fmt.Fprintf(&sb, "+pend:%s", protocol.KindSlug(nd.pend))
		}
		if nd.wb {
			sb.WriteString("+wb")
		}
		if nd.inv {
			sb.WriteString("+poison")
		}
		if nd.acks > 0 {
			fmt.Fprintf(&sb, "+acks:%d", nd.acks)
		}
	}
	msgs := 0
	for src := 0; src < nodes; src++ {
		for dst := 0; dst < nodes; dst++ {
			msgs += len(s.chans[src][dst])
		}
	}
	if msgs > 0 {
		fmt.Fprintf(&sb, " msgs=%d", msgs)
	}
	return sb.String()
}

// violationErr carries an invariant violation out of the interpreter.
type violationErr struct {
	invariant string
	detail    string
}

func (v *violationErr) Error() string { return v.invariant + ": " + v.detail }

// Invariant identifiers, shared with the mutation self-test catalog in
// internal/protocol.
const (
	InvUnspecified  = "unspecified-reception"
	InvReachedHole  = "reached-hole"
	InvDeadlock     = "deadlock"
	InvStaleSupply  = "stale-supply"
	InvStaleFill    = "stale-fill"
	InvStaleSharer  = "stale-sharer"
	InvMultiWriter  = "multiple-writers"
	InvWriteGrant   = "write-not-granted"
	InvTSRFBound    = "tsrf-bound"
	InvTSRFLeak     = "tsrf-leak"
	InvAckAccount   = "ack-accounting"
	InvMemStale     = "mem-stale"
	InvCodec        = "directory-codec"
	InvLostTransact = "lost-transaction"
)

// interp applies one rule to a state copy. m is nil for spontaneous
// rules; actor is the node the rule fires at. It returns delayed=true
// when the rule elected to leave the message in place (OpDelay).
type interp struct {
	cfg  *Config
	st   *state
	rule protocol.Rule
	act  int
	m    *msg

	entry     directory.Word // directory at rule entry
	oldOwner  directory.NodeID
	requester uint8
	reqKind   l2.Kind
	data      uint8
	hasData   bool
	cleanEx   bool
}

func (in *interp) node() *nodeState { return &in.st.nodes[in.act] }

// decoded is the directory at rule entry as the Entry codec reads it.
func (in *interp) decoded() directory.Entry {
	return directory.Decode(in.cfg.dcfg, uint64(in.entry))
}

// setDir stores the word a directory op computed. want is the same op
// applied to the decoded Entry (the directory-codec invariant): the word
// must equal its encoding, which must decode to want's state.
func (in *interp) setDir(w directory.Word, want directory.Entry) error {
	cfg := in.cfg.dcfg
	bits, err := directory.Encode(cfg, want)
	if err != nil {
		return &violationErr{InvCodec, fmt.Sprintf("encoding %+v: %v", want, err)}
	}
	if w != directory.Word(bits) {
		return &violationErr{InvCodec, fmt.Sprintf("directory word %#x from %#x, Entry codec %#x", uint64(w), uint64(in.entry), bits)}
	}
	if back := directory.Decode(cfg, bits); back.State != want.State {
		return &violationErr{InvCodec, fmt.Sprintf("entry %+v decoded as state %v", want, back.State)}
	}
	in.st.dir = w
	return nil
}

func (in *interp) send(m msg) {
	in.st.chans[m.src][m.dst] = append(in.st.chans[m.src][m.dst], m)
}

// run applies the rule's opcodes in order. A returned violationErr
// aborts at the faulting opcode; the partially-applied state is the
// violation's final trace step.
func (in *interp) run() (delayed bool, err error) {
	s, nd := in.st, in.node()
	dcfg, req := in.cfg.dcfg, directory.NodeID(in.requester)
	for _, op := range in.rule.Do {
		switch op {
		case protocol.OpSendReq:
			in.send(msg{kind: protocol.MsgReq, src: uint8(in.act), dst: home,
				req: in.reqKind, requester: uint8(in.act)})
			nd.pend, nd.hasPend = in.reqKind, true

		case protocol.OpReserveTSRF:
			if int(nd.tsrf) >= in.cfg.TSRFEntries {
				return false, &violationErr{InvTSRFBound,
					fmt.Sprintf("node %d exceeds %d TSRF entries", in.act, in.cfg.TSRFEntries)}
			}
			nd.tsrf++

		case protocol.OpReleaseTSRF:
			if nd.tsrf == 0 {
				return false, &violationErr{InvTSRFBound,
					fmt.Sprintf("node %d releases an unreserved TSRF entry", in.act)}
			}
			nd.tsrf--

		case protocol.OpSupplyHome:
			if s.nodes[home].line != protocol.LineInvalid {
				in.data = s.nodes[home].val
			} else {
				in.data = s.mem
			}
			in.hasData = true
			if in.data != s.cur {
				return false, &violationErr{InvStaleSupply,
					fmt.Sprintf("home supplies v%d but the last write is v%d", in.data, s.cur)}
			}

		case protocol.OpSupplyOwn:
			in.data, in.hasData = nd.val, true
			if in.data != s.cur {
				return false, &violationErr{InvStaleSupply,
					fmt.Sprintf("owner n%d supplies v%d but the last write is v%d", in.act, in.data, s.cur)}
			}

		case protocol.OpReplyData:
			in.send(msg{kind: protocol.MsgReply, src: uint8(in.act), dst: in.requester,
				val: in.data, hasData: true,
				excl: protocol.WantsExclusive(in.reqKind) || in.cleanEx})

		case protocol.OpReplyGrant:
			in.send(msg{kind: protocol.MsgReply, src: uint8(in.act), dst: in.requester,
				excl: true})

		case protocol.OpForwardReq:
			in.send(msg{kind: protocol.MsgFwd, src: uint8(in.act), dst: uint8(in.oldOwner),
				req: in.reqKind, requester: in.requester})
			if in.m == nil {
				// The home itself is the requester (home-local miss on a
				// remotely-owned line): it waits for the owner's reply.
				nd.pend, nd.hasPend = in.reqKind, true
			}

		case protocol.OpInvalSharers:
			for _, sh := range in.sharersExceptRequester() {
				in.send(msg{kind: protocol.MsgInval, src: uint8(in.act), dst: uint8(sh),
					requester: in.requester})
				s.nodes[in.requester].acks++
			}

		case protocol.OpInvalHome:
			s.nodes[home].line = protocol.LineInvalid

		case protocol.OpDowngradeHome:
			if s.nodes[home].line == protocol.LineExclusive {
				// A dirty home copy writes through on downgrade: home data
				// and directory live in the same local DRAM line, so the
				// home chip's dirty share refreshes memory as it is read —
				// without this, a later silent eviction of the home's
				// shared copy would strand the only current value.
				s.mem = s.nodes[home].val
				s.nodes[home].line = protocol.LineShared
			}

		case protocol.OpDirReadGrant:
			var err error
			if in.entry.State() == directory.Uncached && s.nodes[home].line == protocol.LineInvalid {
				// Clean-exclusive optimization: no copy exists anywhere.
				err = in.setDir(directory.ExclusiveWord(req), directory.SetExclusive(in.decoded(), req))
				in.cleanEx = true
			} else {
				err = in.setDir(in.entry.AddSharer(dcfg, req), directory.AddSharer(dcfg, in.decoded(), req))
			}
			if err != nil {
				return false, err
			}

		case protocol.OpDirSetExclusiveReq:
			if err := in.setDir(directory.ExclusiveWord(req), directory.SetExclusive(in.decoded(), req)); err != nil {
				return false, err
			}

		case protocol.OpDirShareOwnerReq:
			w := directory.UncachedWord.AddSharer(dcfg, in.oldOwner)
			e := directory.AddSharer(dcfg, directory.Clear(), in.oldOwner)
			if in.requester != home {
				w, e = w.AddSharer(dcfg, req), directory.AddSharer(dcfg, e, req)
			}
			if err := in.setDir(w, e); err != nil {
				return false, err
			}

		case protocol.OpDirClear:
			if err := in.setDir(directory.UncachedWord, directory.Clear()); err != nil {
				return false, err
			}

		case protocol.OpFill:
			if err := in.fill(); err != nil {
				return false, err
			}

		case protocol.OpInvalidateLine:
			nd.line = protocol.LineInvalid

		case protocol.OpDowngradeLine:
			if nd.line == protocol.LineExclusive {
				nd.line = protocol.LineShared
			}

		case protocol.OpAckRequester:
			in.send(msg{kind: protocol.MsgInvAck, src: uint8(in.act), dst: in.requester})

		case protocol.OpGatherAck:
			if nd.acks == 0 {
				return false, &violationErr{InvAckAccount,
					fmt.Sprintf("node %d received an invalidation ack with none owed", in.act)}
			}
			nd.acks--

		case protocol.OpUpdateMem:
			if in.m != nil && (in.m.kind == protocol.MsgWB || in.m.kind == protocol.MsgShareWB) {
				s.mem = in.m.val
			} else {
				s.mem = nd.val
			}

		case protocol.OpSendWB:
			in.send(msg{kind: protocol.MsgWB, src: uint8(in.act), dst: home,
				val: nd.val, hasData: true})
			nd.wb = true

		case protocol.OpSendShareWB:
			in.send(msg{kind: protocol.MsgShareWB, src: uint8(in.act), dst: home,
				val: nd.val, hasData: true})

		case protocol.OpAckWB:
			in.send(msg{kind: protocol.MsgWBAck, src: uint8(in.act), dst: in.m.src})

		case protocol.OpWriteLocal:
			if nd.line != protocol.LineExclusive {
				return false, &violationErr{InvWriteGrant,
					fmt.Sprintf("node %d writes a %v line", in.act, nd.line)}
			}
			s.cur++
			nd.val = s.cur

		case protocol.OpComplete:
			if in.m != nil && in.m.kind == protocol.MsgWBAck {
				nd.wb = false
				break
			}
			pendK := nd.pend
			nd.hasPend, nd.pend = false, 0
			if protocol.WantsExclusive(pendK) {
				// The store that motivated the miss retires now.
				if nd.line != protocol.LineExclusive {
					return false, &violationErr{InvWriteGrant,
						fmt.Sprintf("node %d completes %s holding a %v line", in.act, protocol.KindSlug(pendK), nd.line)}
				}
				s.cur++
				nd.val = s.cur
			}

		case protocol.OpDelay:
			return true, nil

		case protocol.OpPoisonFill:
			nd.inv = true

		default:
			return false, &violationErr{InvUnspecified, fmt.Sprintf("unknown opcode %v", op)}
		}
	}
	return false, nil
}

// fill installs a grant or data at the acting node. Two contexts: a
// reply reception, or a home-local (spontaneous) miss service.
func (in *interp) fill() error {
	nd := in.node()
	if in.m != nil {
		// Reply reception: the pending kind says what the fill means.
		pendK := nd.pend
		if in.m.hasData {
			nd.val = in.m.val
			if in.m.excl {
				nd.line = protocol.LineExclusive
			} else {
				nd.line = protocol.LineShared
			}
			if nd.inv {
				// An invalidation overtook this fill: the data satisfies
				// the pending load once and is not cached.
				nd.line = protocol.LineInvalid
				nd.inv = false
			}
			return nil
		}
		// Header-only grant.
		switch pendK {
		case l2.Upgrade:
			if nd.line != protocol.LineShared {
				return &violationErr{InvStaleFill,
					fmt.Sprintf("node %d holds no copy but its upgrade was granted without data", in.act)}
			}
			if nd.val != in.st.cur {
				return &violationErr{InvStaleFill,
					fmt.Sprintf("node %d promotes a stale v%d copy to exclusive (last write v%d)", in.act, nd.val, in.st.cur)}
			}
			nd.line = protocol.LineExclusive
		case l2.ReadExNoData:
			// The requester overwrites the whole line; the completion
			// write supplies the value.
			nd.line = protocol.LineExclusive
		default:
			return &violationErr{InvStaleFill,
				fmt.Sprintf("node %d asked for data (%s) but was granted none", in.act, protocol.KindSlug(pendK))}
		}
		return nil
	}
	// Home-local miss service (no message): the directory state at rule
	// entry decides the local fill kind, as the L2's duplicate tags do.
	if in.hasData {
		nd.val = in.data
	}
	if in.reqKind == l2.Read {
		if in.entry.State() == directory.Uncached {
			nd.line = protocol.LineExclusive // local clean-exclusive
		} else {
			nd.line = protocol.LineShared
		}
		return nil
	}
	if in.reqKind == l2.Upgrade && nd.val != in.st.cur {
		return &violationErr{InvStaleFill,
			fmt.Sprintf("home promotes a stale v%d copy to exclusive (last write v%d)", nd.val, in.st.cur)}
	}
	nd.line = protocol.LineExclusive
	return nil
}

// sharersExceptRequester lists the directory's nodes minus the
// requester, in ascending order (invalidation fan-out order).
func (in *interp) sharersExceptRequester() []directory.NodeID {
	var out []directory.NodeID
	if in.entry.State() == directory.Exclusive {
		if in.entry.Owner() != directory.NodeID(in.requester) {
			out = append(out, in.entry.Owner())
		}
		return out
	}
	for _, n := range in.entry.AppendMembers(in.cfg.dcfg, nil) {
		if n != directory.NodeID(in.requester) {
			out = append(out, n)
		}
	}
	return out
}

// guardHolds evaluates a rule's guard against the current state.
func (in *interp) guardHolds() bool {
	nd := in.node()
	switch in.rule.When {
	case protocol.GAlways:
		return true
	case protocol.GReqIsSharer:
		return in.entry.Has(in.cfg.dcfg, directory.NodeID(in.requester))
	case protocol.GReqNotSharer:
		return !in.entry.Has(in.cfg.dcfg, directory.NodeID(in.requester))
	case protocol.GOwnerNotReq:
		return in.entry.Owner() != directory.NodeID(in.requester)
	case protocol.GSenderIsOwner:
		return in.entry.State() == directory.Exclusive && in.entry.Owner() == directory.NodeID(in.m.src)
	case protocol.GSenderNotOwner:
		return in.entry.State() != directory.Exclusive || in.entry.Owner() != directory.NodeID(in.m.src)
	case protocol.GNoPending:
		return !nd.hasPend && !nd.wb && nd.tsrf == 0
	case protocol.GPendingFill:
		return nd.hasPend
	case protocol.GPendingWB:
		return nd.wb
	case protocol.GEngineBusy:
		return nd.tsrf > 0
	case protocol.GPendingShareFill:
		return nd.hasPend && !protocol.WantsExclusive(nd.pend)
	}
	return false
}
