package mcheck

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"piranha/internal/protocol"
)

// The headline claim: the shipped protocol's full 2-node state space is
// exhausted with zero violations. Every reachable interleaving of
// requests, forwards, invalidations, replies and writebacks at the
// default operation budget is visited.
func TestTwoNodeExhaustiveClean(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 2})
	if !res.Exhausted {
		t.Fatalf("2-node exploration not exhausted: %d states, depth %d", res.States, res.Depth)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("2-node exploration found violations: %+v", res.Violations)
	}
	if res.States < 1000 {
		t.Fatalf("suspiciously small state space (%d states): the explorer is not firing rules", res.States)
	}
}

// Larger micro-systems exercise the races a 2-node system cannot: a
// third party's invalidation overtaking an in-flight fill, forwards
// racing sharing writebacks, stale writebacks under forwarded
// ownership.
func TestThreeAndFourNodeExhaustiveClean(t *testing.T) {
	for _, n := range []int{3, 4} {
		res := Check(protocol.Piranha(), Config{Nodes: n})
		if !res.Exhausted {
			t.Fatalf("%d-node exploration not exhausted: %d states", n, res.States)
		}
		if len(res.Violations) != 0 {
			v := res.Violations[0]
			t.Fatalf("%d-node exploration: %s: %s\ntrace: %v", n, v.Invariant, v.Detail, v.Trace)
		}
	}
}

// Exploration is deterministic: two runs agree on every count and on
// the byte-level JSON encoding of the full result.
func TestDeterministicExploration(t *testing.T) {
	a := Check(protocol.Piranha(), Config{Nodes: 3})
	b := Check(protocol.Piranha(), Config{Nodes: 3})
	if a.States != b.States || a.Transitions != b.Transitions || a.Depth != b.Depth {
		t.Fatalf("runs disagree: %d/%d/%d vs %d/%d/%d",
			a.States, a.Transitions, a.Depth, b.States, b.Transitions, b.Depth)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatal("identical explorations produced different JSON")
	}
}

// The operation budget and depth bound are honored, and a bounded run
// says so instead of claiming exhaustion.
func TestBoundsReported(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 2, MaxDepth: 3})
	if res.Exhausted {
		t.Fatal("depth-bounded run claims exhaustion")
	}
	if res.Depth > 3 {
		t.Fatalf("depth bound ignored: reached %d", res.Depth)
	}
	// The state cap is checked between expansions, so it may overshoot
	// by one state's successors — it is a safety valve, not an exact
	// budget.
	res = Check(protocol.Piranha(), Config{Nodes: 2, MaxStates: 50})
	if res.Exhausted || res.States < 50 || res.States > 100 {
		t.Fatalf("state bound ignored: %d states, exhausted=%v", res.States, res.Exhausted)
	}
}

// Every rule that fires is counted; the count list is sorted and covers
// the whole table, and on an exhausted 2-node run the core service
// rules all fired.
func TestRuleFireAccounting(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 2})
	tab := protocol.Piranha()
	if len(res.RuleFires) != len(tab.Rules) {
		t.Fatalf("RuleFires covers %d rules, table has %d", len(res.RuleFires), len(tab.Rules))
	}
	fired := map[string]int{}
	for i, rc := range res.RuleFires {
		if i > 0 && res.RuleFires[i-1].Rule >= rc.Rule {
			t.Fatalf("RuleFires unsorted at %q", rc.Rule)
		}
		fired[rc.Rule] = rc.Fires
	}
	for _, core := range []string{"issue-read", "issue-write", "q-read-uncached", "q-write-uncached",
		"recv-reply", "w-owner", "wb-done", "i-shared", "a-gather", "h-write-shared"} {
		if fired[core] == 0 {
			t.Errorf("core rule %s never fired in an exhausted 2-node run", core)
		}
	}
}

// The mutation self-test: each cataloged protocol bug is detected with
// its documented invariant and a non-empty counterexample. This is the
// checker checking itself — a bug class it stops seeing is a
// regression in the checker, not a cleaner protocol.
func TestMutationsDetected(t *testing.T) {
	results := SelfTest(Config{Nodes: 2, MaxViolations: 4})
	if len(results) != len(protocol.Mutations()) {
		t.Fatalf("self-test ran %d mutations, catalog has %d", len(results), len(protocol.Mutations()))
	}
	for _, r := range results {
		if !r.Detected {
			t.Errorf("mutation %s: expected invariant %s not detected (found %v)",
				r.Mutation, r.Expect, r.Found)
			continue
		}
		if r.Depth == 0 {
			t.Errorf("mutation %s: counterexample has no steps", r.Mutation)
		}
	}
}

// A violation exports as a deterministic Chrome trace whose spans carry
// the rule names, so the counterexample is inspectable in Perfetto.
func TestCounterexampleExport(t *testing.T) {
	m, ok := protocol.MutationByName("wrong-reply-kind")
	if !ok {
		t.Fatal("mutation catalog lost wrong-reply-kind")
	}
	res := Check(m.Apply(), Config{Nodes: 2})
	if len(res.Violations) == 0 {
		t.Fatal("mutation produced no violation")
	}
	v := res.Violations[0]
	var a, b bytes.Buffer
	if err := WriteCounterexample(&a, "piranha", v); err != nil {
		t.Fatal(err)
	}
	if err := WriteCounterexample(&b, "piranha", v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("counterexample export is nondeterministic")
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var sawRule, sawViolation bool
	for _, e := range doc.TraceEvents {
		if strings.HasPrefix(e.Name, "violation:") {
			sawViolation = true
		}
		if e.Name == v.Trace[len(v.Trace)-1].Rule {
			sawRule = true
		}
	}
	if !sawViolation || !sawRule {
		t.Fatalf("export missing violation marker or rule spans (violation=%v rule=%v)", sawViolation, sawRule)
	}
}

// Violations surface in piranha-vet's diagnostic shape, anchored at the
// protocol's table file with the invariant as the analyzer name.
func TestDiagnostics(t *testing.T) {
	m, _ := protocol.MutationByName("missing-tsrf-release")
	res := Check(m.Apply(), Config{Nodes: 2})
	diags := res.Diagnostics()
	if len(diags) != len(res.Violations) {
		t.Fatalf("%d diagnostics for %d violations", len(diags), len(res.Violations))
	}
	d := diags[0]
	if d.File != TableFile {
		t.Errorf("diagnostic anchored at %q, want %q", d.File, TableFile)
	}
	if d.Analyzer != "mcheck/"+InvTSRFLeak {
		t.Errorf("analyzer = %q, want mcheck/%s", d.Analyzer, InvTSRFLeak)
	}
	if !strings.Contains(d.Message, "counterexample depth") {
		t.Errorf("message lacks counterexample depth: %q", d.Message)
	}
	// A clean result yields no diagnostics.
	clean := Check(protocol.Piranha(), Config{Nodes: 2})
	if diags := clean.Diagnostics(); len(diags) != 0 {
		t.Errorf("clean run produced diagnostics: %v", diags)
	}
}

// Every directory write during exploration runs the engines' Word op
// and checks it against the Entry codec: a 4-node run covers every
// sharer-set shape the protocol can produce.
func TestExplorationRoundTripsCodec(t *testing.T) {
	res := Check(protocol.Piranha(), Config{Nodes: 4, MaxOps: 3})
	for _, v := range res.Violations {
		if v.Invariant == InvCodec {
			t.Fatalf("directory codec violation: %s", v.Detail)
		}
	}
}
