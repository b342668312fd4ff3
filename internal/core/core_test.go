package core

import (
	"testing"

	"piranha/internal/noc"
	"piranha/internal/sim"
)

// quickOLTP runs a short OLTP measurement on the given chip config.
func quickOLTP(t testing.TB, chips int, chip ChipConfig, tx uint64) Result {
	t.Helper()
	return Run(Experiment{
		Name:      "test",
		Sys:       SystemConfig{Chips: chips, Chip: chip},
		Work:      WorkloadSpec{Kind: OLTP},
		WarmTx:    tx / 2,
		MeasureTx: tx,
	})
}

func TestP1RunsAndAccounts(t *testing.T) {
	r := quickOLTP(t, 1, PiranhaChip(1), 40)
	if r.Tx != 40 || r.Elapsed <= 0 {
		t.Fatalf("result %+v", r)
	}
	if r.Agg.CPUBusy <= 0 || r.Agg.L2HitStall <= 0 || r.Agg.L2Miss <= 0 {
		t.Fatalf("breakdown has empty buckets: %+v", r.Agg)
	}
	if r.Miss.Total() == 0 {
		t.Fatal("no L1 misses recorded")
	}
	if r.Instructions == 0 {
		t.Fatal("no instructions")
	}
	if r.PageHitRate < 0 || r.PageHitRate > 1 {
		t.Fatalf("page hit rate out of range: %v", r.PageHitRate)
	}
}

func TestP8FasterThanP1(t *testing.T) {
	p1 := quickOLTP(t, 1, PiranhaChip(1), 60)
	p8 := quickOLTP(t, 1, PiranhaChip(8), 60)
	speedup := p1.TimePerTx / p8.TimePerTx
	if speedup < 3 {
		t.Fatalf("P8 speedup over P1 = %.2f, want substantial", speedup)
	}
	t.Logf("P8/P1 OLTP speedup: %.2f", speedup)
}

func TestNonInclusionVisibleInMissBreakdown(t *testing.T) {
	p8 := quickOLTP(t, 1, PiranhaChip(8), 60)
	hit, fwd, miss := p8.Miss.Fractions()
	if fwd <= 0 {
		t.Fatal("no L2 forwards at 8 CPUs; sharing model broken")
	}
	t.Logf("P8 miss breakdown: hit=%.2f fwd=%.2f mem=%.2f", hit, fwd, miss)
	p1 := quickOLTP(t, 1, PiranhaChip(1), 60)
	hit1, _, _ := p1.Miss.Fractions()
	if hit1 <= hit {
		t.Fatalf("L2 hit fraction should fall with more CPUs: P1=%.2f P8=%.2f", hit1, hit)
	}
}

func TestOOOBeatsINO(t *testing.T) {
	ooo := quickOLTP(t, 1, OOOChip(), 40)
	ino := quickOLTP(t, 1, INOChip(), 40)
	if ooo.TimePerTx >= ino.TimePerTx {
		t.Fatalf("OOO (%f) must beat INO (%f)", ooo.TimePerTx, ino.TimePerTx)
	}
}

func TestMultiChipRuns(t *testing.T) {
	r := quickOLTP(t, 2, PiranhaChip(2), 40)
	if r.Chips != 2 || r.CPUs != 4 {
		t.Fatalf("topology %+v", r)
	}
	if r.Elapsed <= 0 {
		t.Fatal("no progress")
	}
}

func TestDSSNearLinearSpeedup(t *testing.T) {
	run := func(cpus int) Result {
		return Run(Experiment{
			Sys:       SystemConfig{Chips: 1, Chip: PiranhaChip(cpus)},
			Work:      WorkloadSpec{Kind: DSS},
			WarmTx:    20,
			MeasureTx: 80,
		})
	}
	p1 := run(1)
	p8 := run(8)
	speedup := p1.TimePerTx / p8.TimePerTx
	if speedup < 5.5 {
		t.Fatalf("DSS speedup %f, want near-linear", speedup)
	}
	t.Logf("DSS P8/P1 speedup: %.2f", speedup)
}

func TestDeterminism(t *testing.T) {
	a := quickOLTP(t, 1, PiranhaChip(2), 30)
	b := quickOLTP(t, 1, PiranhaChip(2), 30)
	if a.Elapsed != b.Elapsed || a.Instructions != b.Instructions {
		t.Fatalf("runs diverged: %v/%v vs %v/%v", a.Elapsed, a.Instructions, b.Elapsed, b.Instructions)
	}
}

func TestPresetsMatchTable1(t *testing.T) {
	p8 := PiranhaChip(8)
	if p8.Core.Clock.Freq() != 500 || p8.Core.IssueWidth != 1 {
		t.Fatal("P8 core wrong")
	}
	if p8.L2.SizeBytes != 1<<20 || p8.L2.Ways != 8 || p8.L2.HitLatency != 16*sim.Nanosecond {
		t.Fatal("P8 L2 wrong")
	}
	ooo := OOOChip()
	if ooo.Core.Clock.Freq() != 1000 || ooo.Core.IssueWidth != 4 || ooo.Core.WindowSize != 64 {
		t.Fatal("OOO core wrong")
	}
	if ooo.L2.SizeBytes != 1536<<10 || ooo.L2.Ways != 6 || ooo.L2.HitLatency != 12*sim.Nanosecond {
		t.Fatal("OOO L2 wrong")
	}
	pf := FullCustomChip(8)
	if pf.Core.Clock.Freq() != 1250 || pf.L2.HitLatency != 12*sim.Nanosecond || pf.L2.FwdLatency != 16*sim.Nanosecond {
		t.Fatal("P8F wrong")
	}
	pess := PessimisticPiranhaChip(8)
	if pess.Core.Clock.Freq() != 400 || pess.L1.SizeBytes != 32<<10 || pess.L1.Ways != 1 {
		t.Fatal("pessimistic wrong")
	}
}

func TestMultiChipOnTorusTopology(t *testing.T) {
	// Four chips on a 2x2 torus via the topology-distance fabric network:
	// the run must complete, scale, and keep coherence invariants.
	flat := Run(Experiment{
		Sys:       SystemConfig{Chips: 4, Chip: PiranhaChip(2)},
		Work:      WorkloadSpec{Kind: OLTP},
		WarmTx:    20,
		MeasureTx: 40,
	})
	torus := Run(Experiment{
		Sys: SystemConfig{
			Chips:    4,
			Chip:     PiranhaChip(2),
			Topology: noc.Torus{W: 2, H: 2},
		},
		Work:      WorkloadSpec{Kind: OLTP},
		WarmTx:    20,
		MeasureTx: 40,
	})
	if torus.Elapsed <= 0 || flat.Elapsed <= 0 {
		t.Fatal("no progress")
	}
	// Both transports must land in the same ballpark (the torus pays
	// real per-hop distances; the flat model a calibrated constant).
	ratio := torus.TimePerTx / flat.TimePerTx
	if ratio < 0.7 || ratio > 1.5 {
		t.Fatalf("topology-backed run diverged from flat model: ratio %v", ratio)
	}
}

func TestWebWorkloadKind(t *testing.T) {
	r := Run(Experiment{
		Sys:       SystemConfig{Chips: 1, Chip: PiranhaChip(2)},
		Work:      WorkloadSpec{Kind: WEB},
		WarmTx:    10,
		MeasureTx: 30,
	})
	if r.Tx != 30 || r.Agg.CPUBusy == 0 {
		t.Fatalf("web run: %+v", r)
	}
}

func TestChipStoreHintNonBlocking(t *testing.T) {
	chip := NewChip(PiranhaChip(1), localOnly())
	// wh64 on a cold line returns immediately (exclusivity arrives in
	// the background) but installs the line writable.
	done, svc := chip.Access(0, 0, cpuStoreHint, 0x4000)
	if done != 0 {
		t.Fatalf("wh64 blocked: %d", done)
	}
	_ = svc
	// A store right after hits the (now M) line.
	d2, svc2 := chip.Access(1000, 0, cpuStore, 0x4000)
	if svc2 != svcL1() {
		t.Fatalf("store after wh64 should hit: %v", svc2)
	}
	if d2 != 1000 {
		t.Fatalf("store after wh64 cost %d", d2-1000)
	}
}

func TestChipStoreBufferBackpressure(t *testing.T) {
	chip := NewChip(PiranhaChip(1), localOnly())
	// Fire more store misses than the 8-entry store buffer holds at
	// one instant: later stores must see back-pressure.
	var maxWait sim.Time
	for i := 0; i < 16; i++ {
		done, _ := chip.Access(0, 0, cpuStore, cacheAddr(uint64(i)<<20))
		if done > maxWait {
			maxWait = done
		}
	}
	if maxWait == 0 {
		t.Fatal("16 simultaneous store misses never back-pressured the CPU")
	}
}
