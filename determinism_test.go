package piranha

import (
	"fmt"
	"testing"

	"piranha/internal/core"
)

// TestRunDeterministic is the bit-identical contract the parallel runner
// rests on: the same seeded experiment run twice yields byte-identical
// results, down to every counter.
func TestRunDeterministic(t *testing.T) {
	exp := Experiment{
		Name:      "det",
		Sys:       P4(),
		Work:      core.WorkloadSpec{Kind: core.OLTP},
		WarmTx:    tiny.Warm,
		MeasureTx: tiny.Measure,
		Seed:      99,
	}
	a, b := RunExperiment(exp), RunExperiment(exp)
	if a != b {
		t.Fatalf("same-seed runs differ:\n a=%+v\n b=%+v", a, b)
	}
	if fmt.Sprintf("%#v", a) != fmt.Sprintf("%#v", b) {
		t.Fatal("same-seed runs render differently")
	}
	// A different seed must actually change the simulation.
	exp.Seed = 100
	if c := RunExperiment(exp); c == a {
		t.Fatal("different seed produced an identical result")
	}
}

// TestRunBatchMatchesSerial checks the public batch API end to end:
// results come back in input order and bit-identical to a serial loop,
// whatever the worker bound.
func TestRunBatchMatchesSerial(t *testing.T) {
	exps := []Experiment{
		{Name: "P1", Sys: P1(), Work: core.WorkloadSpec{Kind: core.OLTP}, WarmTx: tiny.Warm, MeasureTx: tiny.Measure},
		{Name: "P4", Sys: P4(), Work: core.WorkloadSpec{Kind: core.OLTP}, WarmTx: tiny.Warm, MeasureTx: tiny.Measure},
		{Name: "OOO", Sys: OOO(), Work: core.WorkloadSpec{Kind: core.DSS}, WarmTx: tiny.Warm, MeasureTx: tiny.Measure},
		{Name: "P4x2", Sys: MultiChip(2, 4), Work: core.WorkloadSpec{Kind: core.OLTP}, WarmTx: tiny.Warm, MeasureTx: tiny.Measure},
	}
	want := make([]Result, len(exps))
	for i, e := range exps {
		want[i] = RunExperiment(e)
	}
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		got := RunBatch(exps)
		SetParallelism(0)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result %d (%s) differs from serial run:\n got %+v\nwant %+v",
					workers, i, exps[i].Name, got[i], want[i])
			}
		}
	}
}

// TestFigureHarnessDeterministic regenerates one parallel sweep twice and
// requires identical rendered text and metric maps — the property that
// lets cmd/figures fan out without changing any reported number.
func TestFigureHarnessDeterministic(t *testing.T) {
	SetParallelism(4)
	defer SetParallelism(0)
	a, b := Fig6(tiny), Fig6(tiny)
	if a.Text != b.Text {
		t.Fatalf("rendered text differs between runs:\n%s\n---\n%s", a.Text, b.Text)
	}
	if len(a.Metrics) != len(b.Metrics) {
		t.Fatalf("metric count differs: %d vs %d", len(a.Metrics), len(b.Metrics))
	}
	for k, v := range a.Metrics {
		if bv, ok := b.Metrics[k]; !ok || bv != v {
			t.Fatalf("metric %q differs: %v vs %v", k, v, bv)
		}
	}
}
