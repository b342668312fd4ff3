package core

import (
	"encoding/json"
	"testing"

	"piranha/internal/sim"
	"piranha/internal/workload"
)

// p4 returns a small multi-CPU system for open-loop tests.
func p4() SystemConfig { return SystemConfig{Chips: 1, Chip: PiranhaChip(4)} }

// openExp is a small P4/OLTP open-loop experiment at a rate a 4-CPU
// machine sustains comfortably.
func openExp(rate float64) Experiment {
	return Experiment{
		Name:      "open",
		Sys:       p4(),
		Work:      WorkloadSpec{Kind: OLTP, Arrivals: workload.ArrivalSpec{Rate: rate}},
		WarmTx:    20,
		MeasureTx: 40,
		Seed:      7,
	}
}

func TestOpenLoopRunProducesLatency(t *testing.T) {
	r := Run(openExp(3e5))
	if r.Lat == nil || r.Admission == nil {
		t.Fatal("open-loop run missing Lat/Admission blocks")
	}
	if r.Lat.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	if r.Admission.Completed != r.Lat.Count() {
		t.Fatalf("completed %d != latency samples %d", r.Admission.Completed, r.Lat.Count())
	}
	if r.Admission.Arrivals < r.Admission.Admitted {
		t.Fatalf("arrival conservation violated: %+v", r.Admission)
	}
	if r.Lat.Quantile(0.99) < r.Lat.Quantile(0.50) {
		t.Fatalf("p99 %d < p50 %d", r.Lat.Quantile(0.99), r.Lat.Quantile(0.50))
	}
	// A transaction takes > 1 µs of service on this machine.
	if r.Lat.Min() < int64(sim.Microsecond) {
		t.Fatalf("implausible min latency %d ps", r.Lat.Min())
	}
}

func TestClosedLoopHasNoLatencyBlocks(t *testing.T) {
	e := openExp(3e5)
	e.Work.Arrivals = workload.ArrivalSpec{}
	r := Run(e)
	if r.Lat != nil || r.Admission != nil {
		t.Fatal("closed-loop run grew open-loop blocks")
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["latency_percentiles"]; ok {
		t.Fatal("closed-loop JSON contains latency_percentiles")
	}
	if _, ok := doc["admission"]; ok {
		t.Fatal("closed-loop JSON contains admission")
	}
}

// TestOpenLoopByteIdentity reruns the same open-loop experiment and
// compares full JSON output — arrival streams, admission decisions, the
// latency sketch and (with Intervals set) the Series bins must be
// bit-reproducible.
func TestOpenLoopByteIdentity(t *testing.T) {
	cases := []struct {
		name      string
		proc      string
		capacity  int
		intervals sim.Time
	}{
		{name: "poisson", proc: workload.ArrivalPoisson, capacity: 64},
		{name: "mmpp", proc: workload.ArrivalMMPP, capacity: 64},
		{name: "diurnal", proc: workload.ArrivalDiurnal, capacity: 64},
		{name: "series", intervals: 20 * sim.Microsecond},
	}
	for _, c := range cases {
		e := openExp(2.5e5)
		e.Work.Arrivals.Process = c.proc
		e.Work.Arrivals.Capacity = c.capacity
		e.Intervals = c.intervals
		a, err := json.Marshal(Run(e))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(Run(e))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: open-loop rerun diverged:\n%s\n%s", c.name, a, b)
		}
	}
}

// TestOpenLoopZeroRateFaultPlan combines open-loop arrivals with a
// zero-rate fault plan: the plan must remain a byte-exact no-op.
func TestOpenLoopZeroRateFaultPlan(t *testing.T) {
	base := openExp(2.5e5)
	a, _ := json.Marshal(Run(base))
	withPlan := openExp(2.5e5)
	withPlan.Faults.SweepPeriod = 50 * sim.Microsecond // zero rates: disabled
	b, _ := json.Marshal(Run(withPlan))
	if string(a) != string(b) {
		t.Fatalf("zero-rate fault plan perturbed open-loop run:\n%s\n%s", a, b)
	}
}

// TestOpenLoopOverloadSheds drives the queue past saturation with a
// small capacity: shedding must kick in and tail latency must stay
// bounded by the queue bound (roughly capacity × service time).
func TestOpenLoopOverloadSheds(t *testing.T) {
	e := openExp(5e6) // far beyond a 4-CPU machine's capacity
	e.Work.Arrivals.Capacity = 16
	r := Run(e)
	if r.Admission.Shed == 0 {
		t.Fatalf("overload with capacity 16 shed nothing: %+v", r.Admission)
	}
	if r.Admission.MaxDepth > 16 {
		t.Fatalf("queue depth %d exceeded capacity 16", r.Admission.MaxDepth)
	}
	if r.Admission.Admitted+r.Admission.Shed != r.Admission.Arrivals {
		t.Fatalf("arrival conservation violated: %+v", r.Admission)
	}
}

// TestOpenLoopMultiTenantMix runs an OLTP+DSS mix on one system.
func TestOpenLoopMultiTenantMix(t *testing.T) {
	e := openExp(2.5e5)
	e.Work.Arrivals.Mix = []workload.TenantShare{
		{Kind: "oltp", Weight: 3},
		{Kind: "dss", Weight: 1},
	}
	r := Run(e)
	if r.Admission.Completed == 0 {
		t.Fatal("mixed-tenant run completed nothing")
	}
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(Run(e))
	if string(a) != string(b) {
		t.Fatal("mixed-tenant rerun diverged")
	}
}

// TestOpenLoopLatencyGrowsWithLoad is the hockey-stick in miniature:
// p99 at high utilization must exceed p99 at low utilization.
func TestOpenLoopLatencyGrowsWithLoad(t *testing.T) {
	low := Run(openExp(1e5))
	high := Run(openExp(8e5))
	if high.Lat.Quantile(0.99) <= low.Lat.Quantile(0.99) {
		t.Fatalf("p99 did not grow with load: low %d, high %d",
			low.Lat.Quantile(0.99), high.Lat.Quantile(0.99))
	}
}
