// Command piranha-mc model-checks the Piranha coherence protocol: it
// exhaustively explores the reachable state space of an N-node
// micro-system (2–4 nodes, one line, home at node 0) and verifies the
// §3.5 safety claims — NAK-freedom, deadlock-freedom, no stale-data
// reads, TSRF bounds — reporting any violation with a minimal
// counterexample trace.
//
// Usage:
//
//	piranha-mc                          # piranha protocol, 2 nodes
//	piranha-mc -nodes 4 -ops 4         # larger micro-system
//	piranha-mc -json                    # result as JSON on stdout
//	piranha-mc -selftest                # mutation self-test (checker's
//	                                    # own regression: planted bugs
//	                                    # must be caught)
//	piranha-mc -cx-dir traces/          # write counterexample traces
//
// Exit status is 0 when the exploration (or self-test) is clean, 1 on
// a violation (or an undetected planted bug), 2 on a usage error.
// Output is deterministic: the same flags produce byte-identical
// output on every run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"piranha/internal/lint"
	"piranha/internal/mcheck"
	"piranha/internal/protocol"
)

func main() {
	var (
		nodes      = flag.Int("nodes", 2, "micro-system size (2-4; node 0 is the home)")
		ops        = flag.Int("ops", mcheck.DefaultMaxOps, "processor-operation budget per trace")
		depth      = flag.Int("depth", 0, "BFS depth bound (0 = explore to exhaustion)")
		maxStates  = flag.Int("max-states", mcheck.DefaultMaxStates, "state-count safety valve")
		tsrf       = flag.Int("tsrf", mcheck.DefaultTSRFEntries, "per-node TSRF occupancy bound")
		violations = flag.Int("max-violations", 1, "stop after this many violations")
		jsonOut    = flag.Bool("json", false, "emit the result as JSON on stdout")
		selftest   = flag.Bool("selftest", false, "run the mutation self-test instead of a plain check")
		mutate     = flag.String("mutate", "", "plant a cataloged bug (see protocol.Mutations) before checking")
		cxDir      = flag.String("cx-dir", "", "directory for counterexample Chrome traces (created if missing)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "piranha-mc: unexpected arguments; configuration is flag-driven")
		os.Exit(2)
	}
	if *nodes < 2 || *nodes > 4 {
		fmt.Fprintln(os.Stderr, "piranha-mc: -nodes must be 2, 3 or 4")
		os.Exit(2)
	}
	cfg := mcheck.Config{
		Nodes: *nodes, MaxOps: *ops, MaxDepth: *depth,
		MaxStates: *maxStates, TSRFEntries: *tsrf, MaxViolations: *violations,
	}

	if *selftest {
		os.Exit(runSelfTest(cfg, *jsonOut, *cxDir))
	}

	table, label := protocol.Piranha(), "piranha"
	if *mutate != "" {
		m, ok := protocol.MutationByName(*mutate)
		if !ok {
			fmt.Fprintf(os.Stderr, "piranha-mc: unknown mutation %q (cataloged:", *mutate)
			for _, m := range protocol.Mutations() {
				fmt.Fprintf(os.Stderr, " %s", m.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			os.Exit(2)
		}
		table, label = m.Apply(), "piranha+"+m.Name
	}

	res := mcheck.Check(table, cfg)
	res.Protocol = label
	if *cxDir != "" {
		if err := writeNamedCounterexamples(*cxDir, label, res.Violations); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-mc:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		if err := writeResultJSON(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-mc:", err)
			os.Exit(2)
		}
	} else {
		report(res)
	}
	if len(res.Violations) > 0 {
		os.Exit(1)
	}
}

// report prints the human-readable summary: the exploration's scale,
// then each violation as a piranha-vet-style diagnostic followed by its
// counterexample trace.
func report(res *mcheck.Result) {
	scope := "bounded"
	if res.Exhausted {
		scope = "exhausted"
	}
	fmt.Printf("piranha-mc: %s, %d nodes: %d states, %d transitions, depth %d (%s)\n",
		res.Protocol, res.Nodes, res.States, res.Transitions, res.Depth, scope)
	if len(res.Violations) == 0 {
		fmt.Println("piranha-mc: no violations")
		return
	}
	diags := res.Diagnostics()
	for i, v := range res.Violations {
		fmt.Println(diags[i])
		for _, s := range v.Trace {
			if s.Msg != "" {
				fmt.Printf("    n%d %s %s  [%s]\n        %s\n", s.Actor, s.Kind, s.Msg, s.Rule, s.State)
			} else {
				fmt.Printf("    n%d %s  [%s]\n        %s\n", s.Actor, s.Kind, s.Rule, s.State)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "piranha-mc: %d violation(s)\n", len(res.Violations))
}

// runSelfTest plants each cataloged bug and requires the checker to
// catch it. A clean self-test exits 0; an undetected mutation exits 1.
func runSelfTest(cfg mcheck.Config, jsonOut bool, cxDir string) int {
	if cfg.MaxViolations < 4 {
		// A planted bug may trip sibling invariants before its
		// documented one; give the expected invariant room to surface.
		cfg.MaxViolations = 4
	}
	results := mcheck.SelfTest(cfg)
	missed := 0
	for _, r := range results {
		if !r.Detected {
			missed++
		}
	}
	if cxDir != "" {
		for _, m := range protocol.Mutations() {
			res := mcheck.Check(m.Apply(), cfg)
			if err := writeNamedCounterexamples(cxDir, "piranha-"+m.Name, res.Violations); err != nil {
				fmt.Fprintln(os.Stderr, "piranha-mc:", err)
				return 2
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "piranha-mc:", err)
			return 2
		}
	} else {
		for _, r := range results {
			verdict := "DETECTED"
			if !r.Detected {
				verdict = "MISSED"
			}
			fmt.Printf("piranha-mc: selftest %-22s expect %-22s %s (%d states, depth %d)\n",
				r.Mutation, r.Expect, verdict, r.States, r.Depth)
		}
	}
	if missed > 0 {
		fmt.Fprintf(os.Stderr, "piranha-mc: %d planted bug(s) not detected\n", missed)
		return 1
	}
	return 0
}

// writeResultJSON emits the exploration result with its violations
// rendered in the same diagnostic wire shape piranha-vet -json uses, so
// downstream tooling parses findings from either command identically.
func writeResultJSON(w io.Writer, res *mcheck.Result) error {
	var diags bytes.Buffer
	if err := lint.WriteJSON(&diags, res.Diagnostics()); err != nil {
		return err
	}
	out := struct {
		*mcheck.Result
		Diagnostics json.RawMessage `json:"diagnostics"`
	}{Result: res, Diagnostics: bytes.TrimSpace(diags.Bytes())}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeNamedCounterexamples writes one Chrome trace per violation as
// <prefix>-cx<i>-<invariant>.json under dir.
func writeNamedCounterexamples(dir, prefix string, violations []mcheck.Violation) error {
	if len(violations) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, v := range violations {
		path := filepath.Join(dir, fmt.Sprintf("%s-cx%d-%s.json", prefix, i, v.Invariant))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := mcheck.WriteCounterexample(f, prefix, v); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "piranha-mc: counterexample written to %s\n", path)
	}
	return nil
}
