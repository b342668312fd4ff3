package mcheck

import (
	"fmt"
	"io"

	"piranha/internal/lint"
	"piranha/internal/protocol"
	"piranha/internal/sim"
	"piranha/internal/trace"
)

// TableFile is the module-relative file holding the shipped protocol's
// rules; diagnostics anchor there.
const TableFile = "internal/protocol/piranha.go"

// Diagnostics renders a result's violations as piranha-vet diagnostics,
// anchored at TableFile: the table is the artifact being checked, and
// the finding should land where its rules are edited. One diagnostic
// per violation, in discovery order.
func (r *Result) Diagnostics() []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, v := range r.Violations {
		msg := fmt.Sprintf("%d-node exploration: %s", r.Nodes, v.Detail)
		if v.Rule != "" && v.Rule != "(none)" {
			msg += fmt.Sprintf(" (firing %s)", v.Rule)
		}
		msg += fmt.Sprintf("; counterexample depth %d", v.Depth)
		out = append(out, lint.Diagnostic{
			File:     TableFile,
			Line:     1,
			Analyzer: "mcheck/" + v.Invariant,
			Message:  msg,
		})
	}
	return out
}

// CounterexampleEvents lays a violation's trace out as named spans, one
// step per simulated nanosecond, so the Perfetto timeline reads top to
// bottom as the interleaving that breaks the invariant. Each step spans
// the acting node's row; the final instant marks the violation itself.
func CounterexampleEvents(v Violation) []trace.NamedEvent {
	const stride = sim.Time(1_000_000) // 1 ns per step, in picoseconds
	events := make([]trace.NamedEvent, 0, len(v.Trace)+1)
	var at sim.Time
	for _, s := range v.Trace {
		name := s.Rule
		if name == "" {
			name = s.Kind
		}
		detail := s.State
		if s.Msg != "" {
			detail = s.Msg + " | " + detail
		}
		events = append(events, trace.NamedEvent{
			Name: name, Cat: s.Kind, Detail: detail,
			Node: uint8(s.Actor), Unit: 0,
			Start: at, End: at + stride,
		})
		at += stride
	}
	events = append(events, trace.NamedEvent{
		Name: "violation:" + v.Invariant, Cat: "violation", Detail: v.Detail,
		Node: uint8(lastActor(v)), Unit: 0, Start: at, End: at,
	})
	return events
}

func lastActor(v Violation) int {
	if len(v.Trace) == 0 {
		return 0
	}
	return v.Trace[len(v.Trace)-1].Actor
}

// WriteCounterexample exports one violation as a Chrome/Perfetto trace.
// The output is deterministic for a given violation.
func WriteCounterexample(w io.Writer, protocolName string, v Violation) error {
	label := fmt.Sprintf("mcheck %s: %s", protocolName, v.Invariant)
	return trace.WriteChromeNamed(w, 1, label, CounterexampleEvents(v))
}

// SelfTestResult is one mutation's verdict.
type SelfTestResult struct {
	Mutation string `json:"mutation"`
	// Expect is the invariant the mutation is documented to break.
	Expect string `json:"expect"`
	// Found are the invariants the exploration actually reported.
	Found []string `json:"found"`
	// Detected is true when the expected invariant was among them with a
	// non-empty counterexample.
	Detected bool   `json:"detected"`
	States   int    `json:"states"`
	Depth    int    `json:"depth,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// SelfTest plants each cataloged protocol bug in a fresh copy of the
// shipped table and checks the exploration catches it: the checker's
// own regression suite. A mutation whose expected invariant is not
// reported — or is reported without a counterexample — is a finding
// about the *checker*, reported with Detected=false.
func SelfTest(cfg Config) []SelfTestResult {
	var out []SelfTestResult
	for _, m := range protocol.Mutations() {
		mutated := m.Apply()
		res := Check(mutated, cfg)
		r := SelfTestResult{Mutation: m.Name, Expect: m.Expect, States: res.States}
		for _, v := range res.Violations {
			r.Found = append(r.Found, v.Invariant)
			if v.Invariant == m.Expect && len(v.Trace) > 0 {
				r.Detected = true
				r.Depth = v.Depth
				r.Detail = v.Detail
			}
		}
		out = append(out, r)
	}
	return out
}
