package piranha

import (
	"testing"

	"piranha/internal/core"
	"piranha/internal/noc"
)

func TestScaleOutTorusDims(t *testing.T) {
	cases := []struct{ n, w, h int }{
		{8, 2, 4}, {32, 4, 8}, {64, 8, 8}, {256, 16, 16}, {1024, 32, 32},
	}
	for _, c := range cases {
		w, h := torusDims(c.n)
		if w != c.w || h != c.h {
			t.Errorf("torusDims(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
		sys := ScaleOut(c.n, 1)
		if sys.Chips != c.n || sys.Topology.Nodes() != c.n {
			t.Errorf("ScaleOut(%d): %d chips, topology %d nodes", c.n, sys.Chips, sys.Topology.Nodes())
		}
	}
}

// TestScaleOut256ByteIdentity is the scale-out determinism contract: a
// 256-node torus run is byte-identical across the serial and parallel
// batch runners. At this machine size the fabric's O(active) fan-out
// paths and torus distances are exercised, so identity here certifies
// they preserve the simulation's event and RNG streams.
func TestScaleOut256ByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node run in -short mode")
	}
	sys := ScaleOut256()
	small := Scale{Warm: 4, Measure: 16}

	// Serial loop vs the bounded-pool batch runner on the same machine.
	exp := Experiment{
		Name: "scale256", Sys: sys, Work: core.WorkloadSpec{Kind: core.OLTP},
		WarmTx: small.Warm, MeasureTx: small.Measure, Seed: 11,
	}
	serial := RunExperiment(exp)
	SetParallelism(4)
	batch := RunBatch([]Experiment{exp})[0]
	SetParallelism(0)
	if serial != batch {
		t.Fatalf("serial vs RunBatch differ:\n serial=%+v\n batch=%+v", serial, batch)
	}
}

// TestScalingSweepDeterministic runs a small sweep twice and requires
// identical curves — the property that lets cmd/piranha's scaling mode
// and the CI smoke job cmp whole output files.
func TestScalingSweepDeterministic(t *testing.T) {
	cfg := ScalingSweep{Nodes: []int{8, 32}, PerNode: Scale{Warm: 1, Measure: 2}, Seed: 5}
	a := RunScalingSweep(OLTP(), cfg)
	b := RunScalingSweep(OLTP(), cfg)
	if a.String() != b.String() {
		t.Fatalf("scaling sweep not deterministic:\n%s\n---\n%s", a, b)
	}
	if len(a.Points) != 2 || a.Points[0].Nodes != 8 || a.Points[1].Nodes != 32 {
		t.Fatalf("unexpected points: %+v", a.Points)
	}
	if a.Points[0].Speedup != 1 || a.Points[1].Speedup <= 1 {
		t.Fatalf("speedup not increasing: %+v", a.Points)
	}
}

// TestNewSystemErrBadTopology pins the error path NewSystemErr adds: a
// topology whose node count disagrees with Chips, or whose dimensions
// are not positive, must come back as an error from Validate and
// NewSystemErr (and as a panic from NewSystem), not a mis-built machine.
func TestNewSystemErrBadTopology(t *testing.T) {
	bad := ScaleOut(64, 1)
	bad.Chips = 32 // topology still 8x8
	if _, err := core.NewSystemErr(bad); err == nil {
		t.Fatal("NewSystemErr accepted a 64-node topology on a 32-chip system")
	}
	// Both dimensions negative: the node count matches 8 chips.
	for _, topo := range []core.Topology{noc.Torus{W: -2, H: -4}, noc.Mesh{W: -2, H: -4}} {
		cfg := SystemConfig{Chips: 8, Chip: core.PiranhaChip(1), Topology: topo}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %#v", topo)
		}
		if _, err := core.NewSystemErr(cfg); err == nil {
			t.Errorf("NewSystemErr accepted %#v", topo)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem did not panic on bad topology")
		}
	}()
	core.NewSystem(bad)
}
