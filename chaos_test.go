package piranha

import (
	"encoding/json"
	"testing"
	"time"
)

// chaosPlan composes message-level faults with one fail-stop node death
// early in the measured window.
func chaosPlan() FaultPlan {
	p := testPlan()
	p.FailStop = []NodeFailure{{Node: 1, At: 10 * 1000 * 1000}} // 10 us in ps
	return p
}

func chaosCfg() ChaosSweep {
	return ChaosSweep{
		Multipliers: []float64{0.5, 1.1},
		FaultMults:  []float64{0, 1},
		Plan:        chaosPlan(),
		Arrivals:    Arrivals{Capacity: 256, RetryBudget: 2},
		Scale:       faultScale,
		Seed:        9,
		Intervals:   20 * time.Microsecond,
	}
}

func TestChaosSweepComposed(t *testing.T) {
	c := RunChaosSweep(MultiChip(2, 2), OLTP(), chaosCfg())
	if len(c.Cells) != 4 {
		t.Fatalf("grid size %d, want 4", len(c.Cells))
	}
	for li := range c.LoadMults {
		base, faulted := c.Cell(0, li), c.Cell(1, li)
		if base.MTTRNs != 0 || base.Result.Faults != nil {
			t.Fatalf("fault x0 column not fault-free: %+v", base)
		}
		if faulted.MTTRNs <= 0 {
			t.Fatalf("fail-stop cell has no MTTR: %+v", faulted)
		}
		if faulted.Result.Recovery == nil || faulted.Result.Recovery.CapacityFrac != 0.5 {
			t.Fatalf("fail-stop cell missing degraded capacity: %+v", faulted.Result.Recovery)
		}
	}
	for _, cell := range c.Cells {
		if cell.Result.SLO == nil {
			t.Fatalf("cell %g/%g missing SLO accounting", cell.LoadMult, cell.FaultMult)
		}
		if cell.AchievedTxS <= 0 {
			t.Fatalf("cell %g/%g achieved nothing", cell.LoadMult, cell.FaultMult)
		}
	}
	if c.SLOTargetNs <= 0 {
		t.Fatalf("SLO target not auto-derived: %+v", c.SLOTargetNs)
	}
}

// TestChaosSweepDeterministic reruns the composed campaign and compares
// the full JSON surface byte for byte.
func TestChaosSweepDeterministic(t *testing.T) {
	a, err := json.Marshal(RunChaosSweep(MultiChip(2, 2), OLTP(), chaosCfg()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(RunChaosSweep(MultiChip(2, 2), OLTP(), chaosCfg()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("chaos sweep rerun diverged")
	}
}
