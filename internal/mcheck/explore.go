package mcheck

import (
	"fmt"
	"sort"

	"piranha/internal/directory"
	"piranha/internal/l2"
	"piranha/internal/protocol"
)

// Config bounds one exploration.
type Config struct {
	// Nodes is the micro-system size (2..4); node 0 is the home.
	Nodes int
	// MaxOps bounds the processor operations (issues and write hits)
	// any single trace may consume; evictions ride free, so the
	// reachable space is finite.
	MaxOps int
	// MaxDepth bounds the BFS depth; 0 explores to exhaustion.
	MaxDepth int
	// MaxStates is a safety valve on the visited set; 0 selects the
	// default.
	MaxStates int
	// TSRFEntries is the per-node occupancy bound the checker enforces.
	TSRFEntries int
	// MaxViolations stops the search after this many findings (default 1).
	MaxViolations int

	dcfg directory.Config
}

// Defaults for zero Config fields.
const (
	DefaultMaxOps      = 4
	DefaultMaxStates   = 4_000_000
	DefaultTSRFEntries = 4
)

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.MaxOps == 0 {
		c.MaxOps = DefaultMaxOps
	}
	if c.MaxStates == 0 {
		c.MaxStates = DefaultMaxStates
	}
	if c.TSRFEntries == 0 {
		c.TSRFEntries = DefaultTSRFEntries
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 1
	}
	c.dcfg = directory.Config{Nodes: c.Nodes}
	return c
}

// Step is one transition of a counterexample trace.
type Step struct {
	Actor int    `json:"actor"`
	Kind  string `json:"kind"` // "deliver" or "op"
	Rule  string `json:"rule"`
	Msg   string `json:"msg,omitempty"`
	State string `json:"state"`
}

// Violation is one invariant failure with its minimal (BFS-shortest)
// counterexample from the initial state.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
	Rule      string `json:"rule,omitempty"`
	Depth     int    `json:"depth"`
	Trace     []Step `json:"trace"`
}

// RuleCount reports how often a rule fired across the exploration.
type RuleCount struct {
	Rule  string `json:"rule"`
	Fires int    `json:"fires"`
}

// Result summarizes one exploration.
type Result struct {
	Protocol    string `json:"protocol"`
	Nodes       int    `json:"nodes"`
	MaxOps      int    `json:"max_ops"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
	Depth       int    `json:"depth"`
	// Exhausted is true when the frontier emptied within every bound:
	// the reported state count is the complete reachable space.
	Exhausted  bool        `json:"exhausted"`
	Violations []Violation `json:"violations"`
	// RuleFires counts firings per rule, sorted by rule name. Rules
	// with zero fires are listed too: a never-fired rule is dead table
	// weight worth knowing about.
	RuleFires []RuleCount `json:"rule_fires"`
}

// record is one visited state with its BFS parent for counterexample
// reconstruction.
type record struct {
	st     state
	parent int32
	depth  int32
	via    Step
}

// explorer runs one bounded BFS.
type explorer struct {
	cfg     Config
	table   *protocol.Table
	states  []record
	visited map[string]int32
	result  *Result
	fires   map[string]int
}

// Check explores the table's reachable state space under cfg and
// reports violations with counterexamples. Exploration is fully
// deterministic: successor enumeration, state hashing, and violation
// order depend only on the table and config.
func Check(table *protocol.Table, cfg Config) *Result {
	cfg = cfg.withDefaults()
	e := &explorer{
		cfg:     cfg,
		table:   table,
		visited: make(map[string]int32),
		result: &Result{
			Nodes:  cfg.Nodes,
			MaxOps: cfg.MaxOps,
		},
		fires: make(map[string]int),
	}
	for _, r := range table.Rules {
		e.fires[r.Name] = 0
	}
	e.run()
	e.result.States = len(e.states)
	names := make([]string, 0, len(e.fires))
	for _, r := range table.Rules {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		e.result.RuleFires = append(e.result.RuleFires, RuleCount{Rule: n, Fires: e.fires[n]})
	}
	return e.result
}

func (e *explorer) run() {
	init := state{} // the directory starts uncached
	e.states = append(e.states, record{st: init, parent: -1,
		via: Step{Kind: "init", State: init.summary(e.cfg.Nodes, e.cfg.dcfg)}})
	e.visited[init.key(e.cfg.Nodes)] = 0

	exhausted := true
	for head := 0; head < len(e.states); head++ {
		cur := int32(head)
		depth := e.states[head].depth
		if int(depth) > e.result.Depth {
			e.result.Depth = int(depth)
		}
		// State invariants hold at every reachable configuration.
		if v, ok := e.checkStateInvariants(&e.states[head].st); ok {
			e.report(cur, depth, v, Step{})
			if len(e.result.Violations) >= e.cfg.MaxViolations {
				return
			}
			continue
		}
		if e.cfg.MaxDepth > 0 && int(depth) >= e.cfg.MaxDepth {
			exhausted = false
			continue
		}
		enabled, stop := e.expand(cur, depth)
		if stop {
			return
		}
		if !enabled && !e.states[head].st.quiescent(e.cfg.Nodes) {
			e.report(cur, depth, &violationErr{InvDeadlock,
				"messages in flight but no rule is enabled at any node"}, Step{})
			if len(e.result.Violations) >= e.cfg.MaxViolations {
				return
			}
		}
		if len(e.states) >= e.cfg.MaxStates {
			exhausted = false
			break
		}
	}
	e.result.Exhausted = exhausted
}

// expand generates all successors of state cur in deterministic order:
// message deliveries (src-major, dst-minor), then spontaneous
// processor operations (node-major, table-order minor). It reports
// whether any transition was enabled and whether the search must stop.
func (e *explorer) expand(cur int32, depth int32) (enabled, stop bool) {
	n := e.cfg.Nodes
	// Deliveries.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst || len(e.states[cur].st.chans[src][dst]) == 0 {
				continue
			}
			m := e.states[cur].st.chans[src][dst][0]
			fired, delayed, stop := e.deliver(cur, depth, dst, m)
			if stop {
				return enabled, true
			}
			if fired && !delayed {
				enabled = true
			}
		}
	}
	// Spontaneous operations.
	for node := 0; node < n; node++ {
		for ri := range e.table.Rules {
			r := e.table.Rules[ri]
			if r.Msg != protocol.MsgNone {
				continue
			}
			if fired, stop := e.spontaneous(cur, depth, node, r); stop {
				return enabled, true
			} else if fired {
				enabled = true
			}
		}
	}
	return enabled, false
}

// deliver pops the head of channel (m.src → dst) and fires the first
// key- and guard-matching rule.
func (e *explorer) deliver(cur int32, depth int32, dst int, m msg) (fired, delayed, stop bool) {
	st := &e.states[cur].st
	entry := st.dir
	line := st.nodes[dst].line
	step := Step{Actor: dst, Kind: "deliver", Msg: m.String()}

	for ri := range e.table.Rules {
		r := e.table.Rules[ri]
		if r.Msg != m.kind || !e.roleOK(r, dst) || !keyMatches(r, entry.State(), line, m.req) {
			continue
		}
		probe := &interp{cfg: &e.cfg, st: st, rule: r, act: dst, m: &m,
			entry: entry, oldOwner: entry.Owner(),
			requester: receptionRequester(m), reqKind: m.req}
		if !probe.guardHolds() {
			continue
		}
		// First matching rule fires on a state copy.
		next := st.clone()
		next.chans[m.src][dst] = append([]msg(nil), next.chans[m.src][dst][1:]...)
		in := &interp{cfg: &e.cfg, st: &next, rule: r, act: dst, m: &m,
			entry: entry, oldOwner: entry.Owner(),
			requester: receptionRequester(m), reqKind: m.req}
		wasDelayed, err := in.run()
		step.Rule = r.Name
		e.fires[r.Name]++
		if wasDelayed {
			return true, true, false
		}
		if err != nil {
			step.State = next.summary(e.cfg.Nodes, e.cfg.dcfg)
			return true, false, e.reportErr(cur, depth+1, err, step)
		}
		step.State = next.summary(e.cfg.Nodes, e.cfg.dcfg)
		e.admit(cur, depth, next, step)
		return true, false, false
	}

	// No rule accepts the reception: either a declared hole was reached
	// (the table's unreachability promise is broken) or the reception is
	// wholly unspecified — the configuration a NAKing protocol would
	// bounce, which this protocol promises never to need.
	step.Rule = "(none)"
	step.State = st.summary(e.cfg.Nodes, e.cfg.dcfg)
	if reason, ok := e.table.Unreachable(entry.State(), line, m.kind, m.req); ok {
		return false, false, e.reportErr(cur, depth+1, &violationErr{InvReachedHole,
			fmt.Sprintf("declared-unreachable reception %v at node %d (dir=%v line=%v): %s",
				m.kind, dst, entry.State(), line, reason)}, step)
	}
	return false, false, e.reportErr(cur, depth+1, &violationErr{InvUnspecified,
		fmt.Sprintf("no rule for %v at node %d (dir=%v line=%v req=%v) — a NAK would be required",
			m.kind, dst, entry.State(), line, m.req)}, step)
}

// spontaneous fires one processor-side rule at a node if its key,
// guard, and operation budget allow.
func (e *explorer) spontaneous(cur int32, depth int32, node int, r protocol.Rule) (fired, stop bool) {
	st := &e.states[cur].st
	consuming := opConsuming(r)
	if consuming && int(st.ops) >= e.cfg.MaxOps {
		return false, false
	}
	entry := st.dir
	if !e.roleOK(r, node) || !keyMatches(r, entry.State(), st.nodes[node].line, r.Req) {
		return false, false
	}
	probe := &interp{cfg: &e.cfg, st: st, rule: r, act: node, m: nil,
		entry: entry, oldOwner: entry.Owner(),
		requester: uint8(node), reqKind: r.Req}
	if !probe.guardHolds() {
		return false, false
	}
	next := st.clone()
	if consuming {
		next.ops++
	}
	in := &interp{cfg: &e.cfg, st: &next, rule: r, act: node, m: nil,
		entry: entry, oldOwner: entry.Owner(),
		requester: uint8(node), reqKind: r.Req}
	_, err := in.run()
	e.fires[r.Name]++
	step := Step{Actor: node, Kind: "op", Rule: r.Name,
		State: next.summary(e.cfg.Nodes, e.cfg.dcfg)}
	if err != nil {
		return true, e.reportErr(cur, depth+1, err, step)
	}
	e.admit(cur, depth, next, step)
	return true, false
}

// admit records a successor state if it is new.
func (e *explorer) admit(parent int32, depth int32, next state, via Step) {
	e.result.Transitions++
	k := next.key(e.cfg.Nodes)
	if _, seen := e.visited[k]; seen {
		return
	}
	e.visited[k] = int32(len(e.states))
	e.states = append(e.states, record{st: next, parent: parent, depth: depth + 1, via: via})
}

// roleOK checks a rule's placement restriction against the acting node.
func (e *explorer) roleOK(r protocol.Rule, node int) bool {
	switch r.Role {
	case protocol.RoleHome:
		return node == home
	case protocol.RoleRemote:
		return node != home
	}
	return true
}

// keyMatches mirrors protocol.Rule key matching for a concrete triple.
func keyMatches(r protocol.Rule, dir directory.State, line protocol.LineKind, req l2.Kind) bool {
	return (r.Dir == protocol.DirAny || r.Dir == dir) &&
		(r.Line == protocol.LineAny || r.Line == line) &&
		(r.Req == protocol.ReqAny || r.Req == req)
}

// receptionRequester is the node a reply or ack must target.
func receptionRequester(m msg) uint8 {
	switch m.kind {
	case protocol.MsgReq, protocol.MsgFwd, protocol.MsgInval:
		return m.requester
	}
	return m.src
}

// opConsuming reports whether a spontaneous rule draws on the
// operation budget: issues (specific request kinds) and write hits do;
// evictions ride free, since each needs a preceding fill.
func opConsuming(r protocol.Rule) bool {
	if r.Req != protocol.ReqAny {
		return true
	}
	for _, op := range r.Do {
		if op == protocol.OpWriteLocal {
			return true
		}
	}
	return false
}

// checkStateInvariants verifies the properties every reachable state
// must satisfy, beyond the per-transition checks the interpreter makes.
func (e *explorer) checkStateInvariants(st *state) (*violationErr, bool) {
	n := e.cfg.Nodes
	// Single-writer: at most one exclusive copy systemwide, and the
	// exclusive copy is the last written version. A node with a
	// writeback in flight has relinquished ownership — its held copy
	// exists only to serve early forwards (§3.5) and OpSupplyOwn checks
	// currency at serve time — so it does not count as a writer.
	exclusives := 0
	for i := 0; i < n; i++ {
		nd := &st.nodes[i]
		if nd.line == protocol.LineExclusive && !nd.wb {
			exclusives++
			if nd.val != st.cur {
				return &violationErr{InvStaleSupply,
					fmt.Sprintf("node %d holds the line exclusively at v%d but the last write is v%d", i, nd.val, st.cur)}, true
			}
		}
		if int(nd.tsrf) > e.cfg.TSRFEntries {
			return &violationErr{InvTSRFBound,
				fmt.Sprintf("node %d occupies %d TSRF entries (bound %d)", i, nd.tsrf, e.cfg.TSRFEntries)}, true
		}
		// No stale readable copy: a shared holder lagging the last write
		// must have its invalidation already in flight (the bounded
		// window weak ordering permits); a stale copy nobody is coming
		// for is a read of lost data.
		if nd.line == protocol.LineShared && nd.val != st.cur && !st.invalInFlightTo(n, i) {
			return &violationErr{InvStaleSharer,
				fmt.Sprintf("node %d holds a readable v%d copy after write v%d with no invalidation in flight", i, nd.val, st.cur)}, true
		}
	}
	if exclusives > 1 {
		return &violationErr{InvMultiWriter,
			fmt.Sprintf("%d nodes hold the line exclusively", exclusives)}, true
	}
	if !st.quiescent(n) {
		return nil, false
	}
	// Quiescent-state invariants: with no message in flight, every
	// transaction is settled.
	for i := 0; i < n; i++ {
		nd := &st.nodes[i]
		if nd.hasPend || nd.wb {
			return &violationErr{InvLostTransact,
				fmt.Sprintf("node %d waits forever: nothing in flight can resolve its transaction", i)}, true
		}
		if nd.acks > 0 {
			return &violationErr{InvAckAccount,
				fmt.Sprintf("node %d is owed %d invalidation acks that can never arrive", i, nd.acks)}, true
		}
		if nd.tsrf > 0 {
			return &violationErr{InvTSRFLeak,
				fmt.Sprintf("node %d holds %d TSRF entries with no transaction outstanding", i, nd.tsrf)}, true
		}
	}
	if exclusives == 0 && st.mem != st.cur {
		return &violationErr{InvMemStale,
			fmt.Sprintf("memory holds v%d, last write is v%d, and no exclusive copy exists", st.mem, st.cur)}, true
	}
	return nil, false
}

// report records a violation found *at* state cur (state invariant).
func (e *explorer) report(cur int32, depth int32, v *violationErr, extra Step) {
	e.result.Violations = append(e.result.Violations, Violation{
		Invariant: v.invariant,
		Detail:    v.detail,
		Depth:     int(depth),
		Trace:     e.tracePath(cur, extra),
	})
}

// reportErr records a violation found on a transition out of cur and
// reports whether the search should stop.
func (e *explorer) reportErr(cur int32, depth int32, err error, step Step) bool {
	v, ok := err.(*violationErr)
	if !ok {
		v = &violationErr{InvUnspecified, err.Error()}
	}
	e.result.Violations = append(e.result.Violations, Violation{
		Invariant: v.invariant,
		Detail:    v.detail,
		Rule:      step.Rule,
		Depth:     int(depth),
		Trace:     e.tracePath(cur, step),
	})
	return len(e.result.Violations) >= e.cfg.MaxViolations
}

// tracePath reconstructs the shortest path from the initial state,
// appending the violating step when one exists.
func (e *explorer) tracePath(cur int32, extra Step) []Step {
	var rev []Step
	for i := cur; i >= 0; i = e.states[i].parent {
		rev = append(rev, e.states[i].via)
	}
	out := make([]Step, 0, len(rev)+1)
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	if extra.Kind != "" || extra.Rule != "" {
		out = append(out, extra)
	}
	return out
}
