package piranha

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"piranha/internal/ras"
	"piranha/internal/sim"
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

// TestFailStopDegradedThroughput is the fail-stop row: a two-chip P4
// open-loop OLTP machine offered 0.35x its calibrated capacity loses
// node 1 at 200 us. The run must rerun to identical JSON and record one
// well-formed recovery: positive MTTR, half the CPUs left, processes
// migrated, and the dead node's homes adopted, with the RAS failover
// target told of every adopted home through FaultAdopt. The surviving
// half-machine must keep at least half the pre-fault completion rate:
// it has the headroom, and the blackout backlog drains at full degraded
// capacity.
func TestFailStopDegradedThroughput(t *testing.T) {
	sys := MultiChip(2, 4)
	cal := RunExperiment(Experiment{
		Name: "chaos/calibrate", Sys: sys, Work: OLTP(),
		WarmTx: 30, MeasureTx: 120,
	})
	work := OLTP()
	work.Arrivals = Arrivals{Rate: 0.35 * 1e9 / cal.TimePerTx, Capacity: 256, RetryBudget: 2}
	exp := Experiment{
		Name: "chaos/failstop", Sys: sys, Work: work,
		WarmTx: 30, MeasureTx: 120,
		Intervals: 50 * sim.Microsecond,
		// 2x the closed-loop residence time (8 CPUs x 8 server procs,
		// Little's law), as RunChaosSweep derives it.
		SLOTarget: sim.Time(2*64*cal.TimePerTx) * sim.Nanosecond,
		Faults:    FaultPlan{FailStop: []NodeFailure{{Node: 1, At: 200 * sim.Microsecond}}},
	}
	run := func() (Result, *ras.Failover, []byte) {
		e := exp
		// A private failover target per run: runs share no mutable state.
		fo := ras.NewFailover(0)
		e.FaultAdopt = fo.Takeover
		r := RunExperiment(e)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return r, fo, b
	}
	r, fo, b1 := run()
	if _, _, b2 := run(); !bytes.Equal(b1, b2) {
		t.Fatal("fail-stop run JSON diverged across a same-seed rerun")
	}
	if r.Recovery == nil || len(r.Recovery.Events) != 1 {
		t.Fatalf("want exactly one fail-stop recovery event, got %+v", r.Recovery)
	}
	ev := r.Recovery.Events[0]
	if ev.Restored <= ev.Onset {
		t.Fatalf("MTTR not positive: onset %d restored %d", ev.Onset, ev.Restored)
	}
	if r.Recovery.CapacityFrac != 0.5 {
		t.Fatalf("capacity fraction %v, want 0.5", r.Recovery.CapacityFrac)
	}
	if ev.Migrated <= 0 || ev.HomesAdopted <= 0 {
		t.Fatalf("recovery moved nothing: migrated %d, homes adopted %d", ev.Migrated, ev.HomesAdopted)
	}
	if fo.Adopted != uint64(ev.HomesAdopted) {
		t.Fatalf("failover target adopted %d homes, recovery reports %d", fo.Adopted, ev.HomesAdopted)
	}

	// Completion rates over the whole bins strictly before onset and
	// strictly after restored; the final, possibly partial, bin is left
	// out. Bins are equally wide, so rates compare as tx per bin.
	s := r.Series
	var preTx, postTx uint64
	var preBins, postBins int
	for i, b := range s.Bins {
		lo := s.Origin + sim.Time(i)*s.Interval
		switch {
		case lo+s.Interval <= ev.Onset:
			preTx += b.Completions
			preBins++
		case lo >= ev.Restored && i < len(s.Bins)-1:
			postTx += b.Completions
			postBins++
		}
	}
	if preTx == 0 || postTx == 0 {
		t.Fatalf("degenerate windows: pre %d tx in %d bins, post %d tx in %d bins",
			preTx, preBins, postTx, postBins)
	}
	pre := float64(preTx) / float64(preBins)
	post := float64(postTx) / float64(postBins)
	t.Logf("migrated %d, homes adopted %d, pre/post completion rate %.2f", ev.Migrated, ev.HomesAdopted, pre/post)
	if pre > 2*post {
		t.Fatalf("post-recovery rate %.1f tx/bin is less than half the pre-fault %.1f tx/bin", post, pre)
	}
}
