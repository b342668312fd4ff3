package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		s, ok := lookup(w.Name)
		if !ok {
			t.Errorf("workload %q is not in the benchmark", w.Name)
			continue
		}
		if s.Why != w.Why {
			t.Errorf("%s: why differs:\n  BENCHMARK.json %q\n  benchmark      %q", w.Name, w.Why, s.Why)
		}
	}
}

// inProcess measures --trace 0's share in this process instead of a
// fresh one.
func inProcess(b *bench, budget time.Duration) (childResult, error) {
	c := &bench{spec: b.spec, seed: b.seed, budget: budget}
	return c.child(), nil
}

// TestMetricsMatchBenchmarkJSON runs both modes briefly on the cheapest
// workload and checks they print exactly the metrics, with the units,
// that BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	b := readBenchmarkJSON(t)
	s, _ := lookup("dss-p8")
	for _, c := range []struct {
		profiled bool
		want     []struct{ Name, Unit string }
	}{{false, b.EndToEnd}, {true, b.PerLayer}} {
		bn := &bench{spec: s, seed: 1, budget: time.Second, spawn: inProcess}
		got := bn.run(c.profiled)
		if len(bn.errs) > 0 || bn.failed > 0 {
			t.Fatalf("profiled=%v: %d failed: %v", c.profiled, bn.failed, bn.errs)
		}
		want := map[string]string{}
		for _, m := range c.want {
			want[m.Name] = m.Unit
		}
		var missing, extra []string
		for name, unit := range want {
			m, ok := got[name]
			if !ok {
				missing = append(missing, name)
			} else if m.Unit != unit {
				t.Errorf("profiled=%v: %s has unit %q, BENCHMARK.json says %q", c.profiled, name, m.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing) > 0 || len(extra) > 0 {
			t.Errorf("profiled=%v: missing %v, not in BENCHMARK.json %v", c.profiled, missing, extra)
		}
	}
}
