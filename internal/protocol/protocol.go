// Package protocol is Piranha's inter-node coherence protocol as a
// declarative transition table: a list of guarded actions keyed by
// directory state × L2 line kind × incoming message kind (refined by the
// request kind for request-bearing messages). The table is the one
// implementation of the protocol, and two interpreters give it meaning:
//
//   - internal/pe executes it: every protocol message the timing model
//     delivers fires the table's rule for its key, and each action
//     opcode is charged as timing (engine occupancy, packets on the
//     fabric, directory updates);
//   - internal/mcheck explores it as an abstract message-passing machine
//     and exhaustively checks the reachable state space of 2–4 node
//     micro-systems, proving the §3.5 invariants (NAK-freedom,
//     deadlock-freedom, no stale fills, TSRF bounds) and that no
//     declared hole is reachable.
//
// The table is *data*: rules name their guard and carry a flat list of
// action opcodes, so what the simulator runs is what the checker proved.
package protocol

import (
	"fmt"

	"piranha/internal/directory"
	"piranha/internal/l2"
)

// LineKind is the abstract per-node L2 state of a line as the protocol
// sees it: node granularity, with MESI's E and M collapsed (whether an
// exclusive copy has been dirtied is a property of the abstract data
// model, not of the protocol's dispatch).
type LineKind uint8

// Line kinds.
const (
	LineInvalid LineKind = iota
	LineShared
	LineExclusive
	NLineKinds
)

func (k LineKind) String() string {
	switch k {
	case LineInvalid:
		return "I"
	case LineShared:
		return "S"
	case LineExclusive:
		return "E"
	}
	return "?"
}

// MsgKind is a protocol message class on the inter-node fabric.
type MsgKind uint8

// Message kinds. MsgNone keys the spontaneous rules (processor-side
// issues and evictions) that start transactions rather than continue
// them.
const (
	MsgNone MsgKind = iota
	// MsgReq is a request travelling requester -> home on the low lane;
	// it carries an l2.Kind.
	MsgReq
	// MsgFwd is a request the home forwarded to the exclusive owner;
	// it carries the original l2.Kind and the requester's identity.
	MsgFwd
	// MsgInval invalidates a sharer's copy; the acknowledgment is owed
	// to the *requester* (eager exclusive replies gather acks there).
	MsgInval
	// MsgInvAck is a sharer's invalidation acknowledgment.
	MsgInvAck
	// MsgReply carries data (or a no-data exclusivity grant) to the
	// requester, from the home or from a forwarded-to owner.
	MsgReply
	// MsgWB is a replaced exclusive line returning to home memory; the
	// writer holds its copy until MsgWBAck so forwarded requests never
	// NAK (§3.5).
	MsgWB
	// MsgWBAck acknowledges a writeback; the writer's copy (and TSRF
	// entry) is released.
	MsgWBAck
	// MsgShareWB is the sharing writeback: when a forwarded read turns a
	// remote dirty line into a shared one, the owner refreshes home
	// memory with the dirty data. It closes the read-forward window the
	// home engine opened at the forward point (the home defers same-line
	// requests until it arrives) and needs no acknowledgment — the
	// owner's copy is already downgraded, not held.
	MsgShareWB
	NMsgKinds
)

func (k MsgKind) String() string {
	switch k {
	case MsgNone:
		return "none"
	case MsgReq:
		return "req"
	case MsgFwd:
		return "fwd"
	case MsgInval:
		return "inval"
	case MsgInvAck:
		return "inv-ack"
	case MsgReply:
		return "reply"
	case MsgWB:
		return "wb"
	case MsgWBAck:
		return "wb-ack"
	case MsgShareWB:
		return "share-wb"
	}
	return "?"
}

// Wildcards for rule keys.
const (
	// DirAny matches every directory state.
	DirAny directory.State = 0xff
	// LineAny matches every line kind.
	LineAny LineKind = 0xff
	// ReqAny matches every request kind (and request-less messages).
	ReqAny l2.Kind = 0xff
)

// Guard is an extra predicate a rule's key cannot express; guards are
// named so the table stays declarative and the interpreter supplies
// the semantics.
type Guard uint8

// Guards.
const (
	// GAlways enables the rule whenever its key matches.
	GAlways Guard = iota
	// GReqIsSharer: the requester appears in the directory sharer set.
	GReqIsSharer
	// GReqNotSharer: the requester does not appear in the sharer set.
	GReqNotSharer
	// GOwnerNotReq: the directory owner differs from the requester.
	GOwnerNotReq
	// GSenderIsOwner: the message sender is the directory owner
	// (writeback arriving before ownership moved).
	GSenderIsOwner
	// GSenderNotOwner: ownership moved while the message was in
	// flight (stale writeback).
	GSenderNotOwner
	// GNoPending: the acting node has no outstanding transaction.
	GNoPending
	// GPendingFill: the acting node has an outstanding fill.
	GPendingFill
	// GPendingWB: the acting node has a writeback awaiting its ack.
	GPendingWB
	// GEngineBusy: the acting node's protocol engine holds a TSRF entry
	// for the line. At the home this is the §3.5 deferral condition: a
	// forwarded transaction holds its entry until the owner's completion
	// (sharing writeback or reply), and same-line requests arriving in
	// that window are delayed in place, never NAKed.
	GEngineBusy
	// GPendingShareFill: the acting node awaits a *shared* data fill
	// (a read miss). An invalidation arriving in that window was
	// serialized after the read, so the fill may satisfy the one pending
	// load (the relaxed consistency model permits it) but must not be
	// cached. Exclusive fills never race a newer invalidation — writes
	// to an owned line are forwarded, not invalidated.
	GPendingShareFill
	NGuards
)

func (g Guard) String() string {
	switch g {
	case GAlways:
		return "always"
	case GReqIsSharer:
		return "req-is-sharer"
	case GReqNotSharer:
		return "req-not-sharer"
	case GOwnerNotReq:
		return "owner-not-req"
	case GSenderIsOwner:
		return "sender-is-owner"
	case GSenderNotOwner:
		return "sender-not-owner"
	case GNoPending:
		return "no-pending"
	case GPendingFill:
		return "pending-fill"
	case GPendingWB:
		return "pending-wb"
	case GEngineBusy:
		return "engine-busy"
	case GPendingShareFill:
		return "pending-share-fill"
	}
	return "?"
}

// Op is one declarative action opcode. The mcheck interpreter applies
// them in rule order against its abstract machine.
type Op uint8

// Action opcodes.
const (
	// OpSendReq emits the pending request to the home (issue rules).
	OpSendReq Op = iota
	// OpReserveTSRF / OpReleaseTSRF bracket a transaction's occupancy
	// of the acting node's engine TSRF.
	OpReserveTSRF
	OpReleaseTSRF
	// OpSupplyHome reads the home's data for a reply: from the home
	// chip's cached copy when one exists, else from home memory (where
	// data and directory share the DRAM line).
	// The model checker asserts the supplied value is current.
	OpSupplyHome
	// OpSupplyOwn replies from the acting (owner) node's copy.
	OpSupplyOwn
	// OpReplyData sends a data-carrying reply to the requester; the
	// exclusivity bit follows the request kind (WantsExclusive) or the
	// clean-exclusive optimization.
	OpReplyData
	// OpReplyGrant sends a no-data exclusivity grant (upgrade grants,
	// wh64 grants).
	OpReplyGrant
	// OpForwardReq forwards the request to the directory owner.
	OpForwardReq
	// OpInvalSharers sends invalidations to every directory sharer
	// except the requester; the acknowledgments are owed to the
	// requester (eager exclusive replies, §2.5).
	OpInvalSharers
	// OpInvalHome drops the home chip's own copy (no-op when absent).
	OpInvalHome
	// OpDowngradeHome downgrades an exclusive home-chip copy to shared,
	// writing a dirty copy through to home memory (the same DRAM line
	// holds the directory); no-op when the home holds no exclusive copy.
	OpDowngradeHome
	// OpDirReadGrant applies the read-service directory update: the
	// clean-exclusive optimization (dir Uncached and no home-chip
	// copy) records the requester as exclusive owner; otherwise the
	// requester is added as a sharer.
	OpDirReadGrant
	// OpDirSetExclusiveReq / OpDirShareOwnerReq / OpDirClear are the
	// remaining directory transitions the protocol uses. ShareOwnerReq
	// rebuilds the entry as {old owner, requester} — the requester is
	// omitted when it is the home (home sharers are not recorded,
	// §2.5.2).
	OpDirSetExclusiveReq
	OpDirShareOwnerReq
	OpDirClear
	// OpFill installs the incoming reply in the acting node's L2
	// (shared or exclusive per the reply).
	OpFill
	// OpInvalidateLine drops the acting node's copy.
	OpInvalidateLine
	// OpDowngradeLine downgrades the acting node's copy to shared.
	OpDowngradeLine
	// OpAckRequester sends an invalidation ack to the requester named
	// in the message.
	OpAckRequester
	// OpGatherAck consumes one invalidation ack at the requester.
	OpGatherAck
	// OpUpdateMem writes the acting node's (or the received writeback's)
	// data into home memory: a home-chip eviction, a writeback, or the
	// sharing writeback (OpSendShareWB) a dirty read forward sends.
	OpUpdateMem
	// OpSendWB emits a writeback carrying the line's data; the
	// writer's copy persists until MsgWBAck.
	OpSendWB
	// OpSendShareWB emits the sharing writeback to the home: the dirty
	// data a forwarded read just shared refreshes home memory and
	// releases the home engine's read-forward TSRF entry.
	OpSendShareWB
	// OpAckWB acknowledges a writeback to its sender.
	OpAckWB
	// OpWriteLocal performs a store on an exclusively-held line
	// (advances the abstract data version).
	OpWriteLocal
	// OpComplete finishes the acting node's outstanding transaction
	// (or writeback) and frees its bookkeeping.
	OpComplete
	// OpDelay leaves the message in its channel: an early forwarded
	// request is delayed at the owner until its fill arrives (§3.5),
	// not NAKed.
	OpDelay
	// OpPoisonFill marks the outstanding shared fill as overtaken by an
	// invalidation: when the data lands it satisfies the pending load
	// once and is not cached.
	OpPoisonFill
	NOps
)

var opNames = [NOps]string{
	"send-req", "reserve-tsrf", "release-tsrf",
	"supply-home", "supply-own",
	"reply-data", "reply-grant", "forward-req",
	"inval-sharers", "inval-home", "downgrade-home",
	"dir-read-grant", "dir-set-exclusive-req", "dir-share-owner-req", "dir-clear",
	"fill", "invalidate-line", "downgrade-line", "ack-requester", "gather-ack",
	"update-mem", "send-wb", "send-share-wb", "ack-wb", "write-local", "complete", "delay",
	"poison-fill",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// Role restricts where a rule executes: at the line's home node, at a
// non-home node, or anywhere. Receptions are implicitly placed by
// their message's destination; the role matters chiefly for the
// spontaneous (MsgNone) rules, where home-local operations bypass the
// fabric entirely.
type Role uint8

// Roles.
const (
	RoleAny Role = iota
	RoleHome
	RoleRemote
)

func (r Role) String() string {
	switch r {
	case RoleAny:
		return "any"
	case RoleHome:
		return "home"
	case RoleRemote:
		return "remote"
	}
	return "?"
}

// Rule is one guarded action: when a node whose line kind is Line
// receives a message of kind Msg (refined by Req) while the home's
// directory entry is in state Dir and the guard holds, the actions Do
// fire atomically.
//
// Dir is the directory state as observed at the serialization point:
// for home-side rules that is the home's own entry; for requester- and
// owner-side rules, which never read the directory, it is DirAny.
type Rule struct {
	Name string
	Role Role
	Dir  directory.State
	Line LineKind
	Msg  MsgKind
	Req  l2.Kind
	When Guard
	Do   []Op
}

// Hole is a (directory state × line kind × message kind) combination
// the protocol declares unreachable, with the reason. The model
// checker proves the declaration (reaching a declared hole is a
// violation), and internal/pe panics if its timing model ever reaches
// one.
type Hole struct {
	Dir    directory.State
	Line   LineKind
	Msg    MsgKind
	Req    l2.Kind
	Reason string
}

// Table is one protocol's full transition table.
type Table struct {
	Rules []Rule
	Holes []Hole
}

// RequestKinds enumerates the protocol's request kinds in declaration
// order.
var RequestKinds = []l2.Kind{l2.Read, l2.ReadEx, l2.Upgrade, l2.ReadExNoData}

// DirStates enumerates the directory states.
var DirStates = []directory.State{directory.Uncached, directory.Shared, directory.SharedCoarse, directory.Exclusive}

// matches reports whether the rule key covers (dir, line, msg, req).
func (r Rule) matches(dir directory.State, line LineKind, msg MsgKind, req l2.Kind) bool {
	return (r.Dir == DirAny || r.Dir == dir) &&
		(r.Line == LineAny || r.Line == line) && r.Msg == msg &&
		(r.Req == ReqAny || r.Req == req)
}

// covered reports whether a hole declaration covers the combination.
func (h Hole) covered(dir directory.State, line LineKind, msg MsgKind, req l2.Kind) bool {
	return (h.Dir == DirAny || h.Dir == dir) &&
		(h.Line == LineAny || h.Line == line) && h.Msg == msg &&
		(h.Req == ReqAny || h.Req == req)
}

// Match returns the rules enabled for a reception, in table order.
// Guards are not evaluated here (the interpreter owns their
// semantics); callers receive every key-matching rule.
func (t *Table) Match(dir directory.State, line LineKind, msg MsgKind, req l2.Kind) []Rule {
	var out []Rule
	for _, r := range t.Rules {
		if r.matches(dir, line, msg, req) {
			out = append(out, r)
		}
	}
	return out
}

// Unreachable reports whether the combination is a declared hole.
func (t *Table) Unreachable(dir directory.State, line LineKind, msg MsgKind, req l2.Kind) (string, bool) {
	for _, h := range t.Holes {
		if h.covered(dir, line, msg, req) {
			return h.Reason, true
		}
	}
	return "", false
}

// Validate checks the table's static completeness: every (directory
// state × line kind × reception kind × request kind) combination must
// be matched by at least one rule or declared as a hole, rule names
// must be unique, and every hole must excuse at least one otherwise
// uncovered combination (the semantic analogue of lint's "the ledger
// may not rot").
func (t *Table) Validate() error {
	names := map[string]bool{}
	for _, r := range t.Rules {
		if names[r.Name] {
			return fmt.Errorf("protocol: duplicate rule name %q", r.Name)
		}
		names[r.Name] = true
		if len(r.Do) == 0 {
			return fmt.Errorf("protocol: rule %q has no actions", r.Name)
		}
	}
	holeUsed := make([]bool, len(t.Holes))
	// Receptions that consult the key's full cross-product. MsgNone
	// (spontaneous) rules are driven by the processor, not a message,
	// so their coverage is "some rule exists per line kind", checked
	// below.
	receptions := []MsgKind{MsgReq, MsgFwd, MsgInval, MsgInvAck, MsgReply, MsgWB, MsgWBAck, MsgShareWB}
	for _, dir := range DirStates {
		for line := LineKind(0); line < NLineKinds; line++ {
			for _, msg := range receptions {
				for _, req := range RequestKinds {
					rules := t.Match(dir, line, msg, req)
					unconditional := false
					for _, r := range rules {
						if r.When == GAlways {
							unconditional = true
							break
						}
					}
					if unconditional {
						continue
					}
					// Only guarded rules (or none) cover this key: a hole
					// declaring the residual unreachable is live, and a key
					// with no rules at all must carry one. Keys covered
					// solely by guarded rules without a hole are left to the
					// model checker, which proves the guards exhaustive at
					// runtime or reports the reception as unspecified.
					excused := false
					for i, h := range t.Holes {
						if h.covered(dir, line, msg, req) {
							holeUsed[i] = true
							excused = true
						}
					}
					if len(rules) == 0 && !excused {
						return fmt.Errorf("protocol: no rule or hole for (dir=%v, line=%v, msg=%v, req=%v)",
							dir, line, msg, req)
					}
				}
			}
		}
	}
	for i, h := range t.Holes {
		if !holeUsed[i] {
			return fmt.Errorf("protocol: stale hole (dir=%v, line=%v, msg=%v, req=%v): every combination it covers has a rule",
				h.Dir, h.Line, h.Msg, h.Req)
		}
	}
	// Every line kind must be able to start something (issue or evict):
	// a protocol with no spontaneous rules is vacuously "safe".
	for line := LineKind(0); line < NLineKinds; line++ {
		found := false
		for _, r := range t.Rules {
			if r.Msg == MsgNone && r.Line == line {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("protocol: no spontaneous rule for line kind %v", line)
		}
	}
	return nil
}
