// Command piranha-bench measures the simulator's host-side performance
// and emits a versioned JSON report (BENCH_12.json) so the repository
// carries a committed benchmark trajectory. Five families of benchmarks
// run:
//
//   - End-to-end: full OLTP and DSS experiments at P1 and P8, reporting
//     host ns per simulated transaction — the number that tells you how
//     long a paper-scale figure run costs on this machine.
//   - Micro: the three memory-system hot paths the dense-state refactor
//     targets (L2 line lookup, protocol-engine directory dispatch, noc
//     hop delivery). These must be allocation-free in steady state; the
//     harness fails loudly if they are not.
//   - Load sweeps: open-loop throughput-vs-p99 hockey-stick curves for
//     P1/P8 OLTP and P8 DSS with the detected saturation multiplier.
//     These are simulated (host-independent) numbers, deterministic for
//     a given -seed.
//   - Chaos: a two-chip open-loop run with one fail-stop node death,
//     reporting MTTR and pre-fault vs post-recovery throughput from the
//     per-interval completion bins. The harness fails if the degraded
//     machine's post-recovery rate falls below half the pre-fault rate,
//     or if the run's JSON diverges across a same-seed rerun.
//   - Scaling: OLTP on the glueless 2-D torus at 8 through 1024 nodes
//     (quick: through 64) with a fixed per-node transaction budget, so
//     host ns per simulated transaction is the per-node simulation
//     rate. The harness fails if the 1024-node rate exceeds 10x the
//     64-node rate (the sparse-activation O(active) contract), or if
//     the anchor row's simulated JSON diverges across a rerun.
//
// With -baseline, the micro rows are compared against a previously
// committed report and the run fails on a >10% allocs/op regression
// (end-to-end rows are excluded: their allocation totals scale with the
// transaction count, which -quick changes).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"piranha"
	"piranha/internal/cache"
	"piranha/internal/core"
	"piranha/internal/fault"
	"piranha/internal/ics"
	"piranha/internal/l1"
	"piranha/internal/l2"
	"piranha/internal/noc"
	"piranha/internal/pe"
	"piranha/internal/ras"
	"piranha/internal/sim"
	"piranha/internal/workload"
)

// schemaVersion is the report format version; benchVersion is the PR
// trajectory index (BENCH_<benchVersion>.json).
const (
	schemaVersion = 1
	benchVersion  = 12
)

// Result is one benchmark row.
type Result struct {
	Name        string  `json:"name"`
	Kind        string  `json:"kind"` // "end-to-end" or "micro"
	Iters       int     `json:"iters"`
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// NsPerSimTx is host time per simulated transaction (end-to-end only).
	NsPerSimTx float64 `json:"ns_per_sim_tx,omitempty"`
}

// Report is the whole BENCH_<benchVersion>.json document.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	BenchVersion  int    `json:"bench_version"`
	Quick         bool   `json:"quick"`
	GoVersion     string `json:"go_version"`
	GoOS          string `json:"go_os"`
	GoArch        string `json:"go_arch"`
	// NumCPU is the host's logical CPU count (part of the host
	// fingerprint; every timed row runs one simulation at a time).
	NumCPU int      `json:"num_cpu"`
	Suite  []Result `json:"suite"`
	// Sweeps holds the open-loop load-sweep curves (simulated numbers,
	// deterministic for a given seed — unlike the host-time Suite rows).
	Sweeps []SweepSummary `json:"sweeps,omitempty"`
	// Chaos is the committed fail-stop robustness row (simulated,
	// deterministic per seed).
	Chaos *ChaosSummary `json:"chaos,omitempty"`
	// Scaling holds the N-node torus rows: per-node simulation rate and
	// the simulated throughput curve (the simulated numbers are
	// deterministic per seed; the host rates are not).
	Scaling []ScalingRow `json:"scaling,omitempty"`
}

// ScalingRow is one N-node point of the scaling section. Transactions
// scale with the node count, so NsPerSimTx (host ns per simulated
// transaction) is the per-node simulation rate and staying within 10x
// of the 64-node row at 1024 nodes means the hot paths grew with the
// active set, not the machine size.
type ScalingRow struct {
	Name       string  `json:"name"`
	Nodes      int     `json:"nodes"`
	MeasureTx  uint64  `json:"measure_tx"`
	NsPerSimTx float64 `json:"ns_per_sim_tx"`
	// SimNsPerTx is the simulated time per transaction (deterministic).
	SimNsPerTx float64 `json:"sim_ns_per_tx"`
}

// ChaosSummary is the fail-stop row: one node of a two-chip open-loop
// machine dies mid-measurement; the row records the recovery timeline
// and the throughput on either side of it.
type ChaosSummary struct {
	Name string `json:"name"`
	// MTTRNs is restored − onset for the single fail-stop event.
	MTTRNs float64 `json:"mttr_ns"`
	// CapacityFrac is the alive-CPU fraction after the death (0.5 here).
	CapacityFrac float64 `json:"capacity_frac"`
	Migrated     int     `json:"migrated"`
	HomesAdopted int     `json:"homes_adopted"`
	// PreFaultTxS and PostRecoveryTxS are completion rates over the
	// whole bins strictly before onset and strictly after restored.
	PreFaultTxS     float64 `json:"pre_fault_tx_s"`
	PostRecoveryTxS float64 `json:"post_recovery_tx_s"`
	// DegradedRatio is pre/post; the harness enforces <= 2 (the degraded
	// half-machine must keep at least half the pre-fault rate).
	DegradedRatio    float64 `json:"degraded_ratio"`
	ShedRate         float64 `json:"shed_rate"`
	SLOViolationRate float64 `json:"slo_violation_rate"`
}

// SweepSummary is one committed hockey-stick curve: throughput vs tail
// latency over offered load, with the detected saturation multiplier
// (-1 when the sweep never saturates).
type SweepSummary struct {
	Name                 string       `json:"name"`
	CapacityTxS          float64      `json:"capacity_tx_s"`
	SaturationMultiplier float64      `json:"saturation_multiplier"`
	Points               []SweepPoint `json:"points"`
}

// SweepPoint is one offered-load point of a SweepSummary.
type SweepPoint struct {
	Multiplier  float64 `json:"multiplier"`
	OfferedTxS  float64 `json:"offered_tx_s"`
	AchievedTxS float64 `json:"achieved_tx_s"`
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
}

// loadSweep runs one open-loop sweep and compresses it to the committed
// summary form (the full per-point Results would bloat the report).
func loadSweep(name string, kind core.WorkloadKind, cpus int, seed uint64, warmTx, measureTx uint64) SweepSummary {
	s := piranha.RunLoadSweep(
		piranha.SystemConfig{Chips: 1, Chip: core.PiranhaChip(cpus)},
		piranha.Workload{Kind: kind},
		piranha.LoadSweep{
			Multipliers: []float64{0.3, 0.7, 0.95, 1.2},
			Scale:       piranha.Scale{Warm: warmTx, Measure: measureTx},
			Seed:        seed,
		})
	sum := SweepSummary{Name: name, CapacityTxS: s.CapacityTxS, SaturationMultiplier: -1}
	if s.Saturation >= 0 {
		sum.SaturationMultiplier = s.Points[s.Saturation].Multiplier
	}
	for _, p := range s.Points {
		sum.Points = append(sum.Points, SweepPoint{
			Multiplier:  p.Multiplier,
			OfferedTxS:  p.OfferedTxS,
			AchievedTxS: p.AchievedTxS,
			P50Ns:       p.P50Ns,
			P99Ns:       p.P99Ns,
			P999Ns:      p.P999Ns,
		})
	}
	return sum
}

// failStopBench runs the chaos row: a two-chip open-loop OLTP machine
// offered 0.35x its calibrated capacity loses node 1 mid-measurement.
// The run repeats with the same seed and the harness fails unless the
// two JSON-serialized Results are byte-identical, the recovery event is
// well-formed, and the post-recovery completion rate stays within 2x of
// the pre-fault rate (the surviving half-machine has the headroom, and
// the blackout backlog drains at full degraded capacity).
func failStopBench(seed uint64) *ChaosSummary {
	sys := core.SystemConfig{Chips: 2, Chip: core.PiranhaChip(4)}
	cal := core.Run(core.Experiment{
		Name: "chaos/calibrate", Sys: sys,
		Work:   core.WorkloadSpec{Kind: core.OLTP},
		WarmTx: 30, MeasureTx: 120, Seed: seed,
	})
	exp := core.Experiment{
		Name: "chaos/failstop", Sys: sys,
		Work: core.WorkloadSpec{Kind: core.OLTP, Arrivals: workload.ArrivalSpec{
			Rate: 0.35 * 1e9 / cal.TimePerTx, Capacity: 256, RetryBudget: 2,
		}},
		WarmTx: 30, MeasureTx: 120, Seed: seed,
		Intervals: 50 * sim.Microsecond,
		// 2x the closed-loop residence time (8 CPUs x 8 server procs,
		// Little's law), mirroring RunChaosSweep's auto-derivation.
		SLOTarget: sim.Time(2*64*cal.TimePerTx) * sim.Nanosecond,
		Faults: fault.Plan{
			FailStop: []fault.NodeFailure{{Node: 1, At: 200 * sim.Microsecond}},
		},
	}
	run := func() (core.Result, []byte) {
		e := exp
		// Private failover target per run: never share mutable state.
		e.FaultAdopt = ras.NewFailover(0).Takeover
		res := core.Run(e)
		b, err := json.Marshal(res)
		if err != nil {
			fatalf("chaos row: marshal: %v", err)
		}
		return res, b
	}
	r, b1 := run()
	_, b2 := run()
	if !bytes.Equal(b1, b2) {
		fatalf("chaos row: JSON diverged across a same-seed rerun")
	}
	if r.Recovery == nil || len(r.Recovery.Events) != 1 {
		fatalf("chaos row: no fail-stop recovery event recorded")
	}
	ev := r.Recovery.Events[0]

	// Completion rates over whole bins strictly before onset and strictly
	// after restored; the final (possibly partial) bin is excluded.
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
	if preBins == 0 || postBins == 0 || preTx == 0 || postTx == 0 {
		fatalf("chaos row: degenerate windows (pre %d tx/%d bins, post %d tx/%d bins)",
			preTx, preBins, postTx, postBins)
	}
	binS := float64(s.Interval) / 1e12 // ps → s
	sum := &ChaosSummary{
		Name:            "chaos/failstop/2chip",
		MTTRNs:          float64(ev.Restored-ev.Onset) / float64(sim.Nanosecond),
		CapacityFrac:    r.Recovery.CapacityFrac,
		Migrated:        ev.Migrated,
		HomesAdopted:    ev.HomesAdopted,
		PreFaultTxS:     float64(preTx) / (float64(preBins) * binS),
		PostRecoveryTxS: float64(postTx) / (float64(postBins) * binS),
	}
	sum.DegradedRatio = sum.PreFaultTxS / sum.PostRecoveryTxS
	if r.Admission != nil && r.Admission.Arrivals > 0 {
		sum.ShedRate = float64(r.Admission.Shed) / float64(r.Admission.Arrivals)
	}
	if r.SLO != nil {
		sum.SLOViolationRate = r.SLO.ViolationRate()
	}
	if sum.DegradedRatio > 2 {
		fatalf("chaos row: post-recovery rate %.0f tx/s is less than half the pre-fault %.0f tx/s",
			sum.PostRecoveryTxS, sum.PreFaultTxS)
	}
	return sum
}

// scalingBench runs the N-node scaling suite: OLTP on ScaleOut torus
// machines with piranha.DefaultPerNodeScale transactions per node. The
// anchor row (64 nodes, or the quick list's midpoint) additionally
// reruns with the same seed; the harness fails unless both simulated
// Results serialize identically. After the sweep the
// per-node rate gate runs: at 1024 nodes, host ns per simulated
// transaction must stay within 10x of the 64-node row.
func scalingBench(seed uint64, quick bool) []ScalingRow {
	nodes := []int{8, 64, 256, 1024}
	anchor := 64
	if quick {
		nodes = []int{8, 32, 64}
		anchor = 32
	}
	per := piranha.DefaultPerNodeScale
	run := func(n int) (core.Result, float64) {
		exp := core.Experiment{
			Name:      fmt.Sprintf("scaling/oltp/%dn", n),
			Sys:       piranha.ScaleOut(n, 1),
			Work:      core.WorkloadSpec{Kind: core.OLTP},
			WarmTx:    per.Warm * uint64(n),
			MeasureTx: per.Measure * uint64(n),
			Seed:      seed,
		}
		//piranha:allow determinism host benchmark harness measures wall-clock by design
		t0 := time.Now()
		res := core.Run(exp)
		//piranha:allow determinism host benchmark harness measures wall-clock by design
		dt := time.Since(t0)
		if res.Tx != exp.MeasureTx {
			fatalf("%s: measured %d transactions, want %d", exp.Name, res.Tx, exp.MeasureTx)
		}
		return res, float64(dt.Nanoseconds()) / float64(exp.MeasureTx)
	}
	rows := make([]ScalingRow, 0, len(nodes))
	rates := map[int]float64{}
	for _, n := range nodes {
		res, nsPerTx := run(n)
		if n == anchor {
			b1, err := json.Marshal(res)
			if err != nil {
				fatalf("scaling row: marshal: %v", err)
			}
			rerun, _ := run(n)
			b2, _ := json.Marshal(rerun)
			if !bytes.Equal(b1, b2) {
				fatalf("scaling row %dn: JSON diverged across reruns", n)
			}
		}
		rows = append(rows, ScalingRow{
			Name:       fmt.Sprintf("scaling/oltp/%dn", n),
			Nodes:      n,
			MeasureTx:  per.Measure * uint64(n),
			NsPerSimTx: nsPerTx,
			SimNsPerTx: res.TimePerTx,
		})
		rates[n] = nsPerTx
	}
	if r64, r1024 := rates[64], rates[1024]; r64 > 0 && r1024 > 0 && r1024 > 10*r64 {
		fatalf("scaling: 1024-node per-node rate %.0f ns/sim-tx exceeds 10x the 64-node rate %.0f ns/sim-tx",
			r1024, r64)
	}
	return rows
}

// measure times iters calls of fn, each covering ops operations, after
// warm calls to reach steady state, and returns per-operation cost.
func measure(name, kind string, warm, iters, ops int, fn func()) Result {
	for i := 0; i < warm; i++ {
		fn()
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	//piranha:allow determinism host benchmark harness measures wall-clock by design
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	//piranha:allow determinism host benchmark harness measures wall-clock by design
	dt := time.Since(t0)
	runtime.ReadMemStats(&m1)
	total := float64(iters * ops)
	return Result{
		Name:        name,
		Kind:        kind,
		Iters:       iters,
		Ops:         ops,
		NsPerOp:     float64(dt.Nanoseconds()) / total,
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / total,
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / total,
	}
}

// endToEnd runs one full experiment per iteration and reports host ns
// per simulated transaction.
func endToEnd(name string, kind core.WorkloadKind, cpus int, seed, warmTx, measureTx uint64, iters int) Result {
	exp := core.Experiment{
		Name:      name,
		Sys:       core.SystemConfig{Chips: 1, Chip: core.PiranhaChip(cpus)},
		Work:      core.WorkloadSpec{Kind: kind},
		WarmTx:    warmTx,
		MeasureTx: measureTx,
		Seed:      seed,
	}
	r := measure(name, "end-to-end", 1, iters, 1, func() {
		if res := core.Run(exp); res.Tx != measureTx {
			fatalf("%s: measured %d transactions, want %d", name, res.Tx, measureTx)
		}
	})
	r.NsPerSimTx = r.NsPerOp / float64(measureTx)
	return r
}

// fakeMem is the fixed-latency memory stub behind the L2 micro rig.
type fakeMem struct{}

func (fakeMem) Read(now sim.Time, _ cache.Addr) (sim.Time, sim.Time) {
	return now + 60*sim.Nanosecond, now + 90*sim.Nanosecond
}
func (fakeMem) Write(now sim.Time, _ cache.Addr) sim.Time { return now + 40*sim.Nanosecond }

// l2LookupBench probes a warmed single-chip L2's line table: half the
// probes hit resident lines, half miss, exercising both probe-chain
// outcomes of the dense table.
func l2LookupBench(iters int) Result {
	clock := sim.MHz(500)
	var l1s []*l1.Cache
	var ds []*l1.Cache
	for cpu := 0; cpu < 8; cpu++ {
		d := l1.New(l1.Data, cpu, cpu*2, l1.DefaultConfig())
		i := l1.New(l1.Instruction, cpu, cpu*2+1, l1.DefaultConfig())
		ds = append(ds, d)
		l1s = append(l1s, d, i)
	}
	mems := make([]l2.Memory, 8)
	for b := range mems {
		mems[b] = fakeMem{}
	}
	cache2 := l2.New(l2.DefaultConfig(), clock, l1s, mems, ics.New(ics.DefaultConfig(clock)), l2.LocalOnly{})

	const lines = 4096
	now := sim.Time(0)
	for i := 0; i < lines; i++ {
		now += 50 * sim.Nanosecond
		cache2.Access(now, ds[i%8], l2.Read, cache.Addr(i)*cache.LineBytes)
	}
	probes := make([]cache.LineAddr, 2*lines)
	for i := range probes {
		probes[i] = cache.LineAddr(i)
	}
	var hits int
	r := measure("micro/l2_lookup", "micro", 2, iters, len(probes), func() {
		hits = 0
		for _, line := range probes {
			if cache2.HasLine(line) {
				hits++
			}
		}
	})
	if hits == 0 || hits == len(probes) {
		fatalf("l2_lookup: degenerate probe mix (%d/%d hits)", hits, len(probes))
	}
	return r
}

// peDirDispatchBench measures the directory half of a home-engine
// dispatch (decode, add sharer, re-encode, store) on a warmed dense
// directory table.
func peDirDispatchBench(iters int) Result {
	f := pe.NewFabric(pe.DefaultConfig(8), pe.NewFlatNetworkN(25*sim.Nanosecond, 8))
	lines := f.SeedDirectory(4096)
	var touched int
	r := measure("micro/pe_dirdispatch", "micro", 2, iters, len(lines), func() {
		touched = f.DirectoryDispatch(lines)
	})
	if touched != len(lines) {
		fatalf("pe_dirdispatch: touched %d entries, want %d", touched, len(lines))
	}
	return r
}

// nocHopBench delivers a recycled packet batch across an 8-node ring;
// per-op is per delivered packet.
func nocHopBench(iters int) Result {
	hb, err := noc.NewHopBench(noc.DefaultConfig(), noc.Ring{N: 8}, 1, 64)
	if err != nil {
		fatalf("noc bench: %v", err)
	}
	round := func() {
		n, err := hb.Round(1 << 20)
		if err != nil {
			fatalf("noc bench round: %v", err)
		}
		if n != hb.Packets() {
			fatalf("noc bench: delivered %d packets, want %d", n, hb.Packets())
		}
	}
	// The arrival wheel's buckets and the routers' queues grow their
	// backing arrays toward a high-water mark over the first few hundred
	// rounds (adaptive routing varies each round's arrival pattern);
	// beyond ~300 rounds every structure has peaked and rounds allocate
	// exactly nothing.
	return measure("micro/noc_hop", "micro", 512, iters, hb.Packets(), round)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "piranha-bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	quick := flag.Bool("quick", false, "smaller transaction counts and iteration budgets (CI smoke)")
	out := flag.String("o", fmt.Sprintf("BENCH_%d.json", benchVersion), "output report path")
	baseline := flag.String("baseline", "", "compare micro allocs/op against this committed report (fail on >10% regression)")
	seed := flag.Uint64("seed", 0, "workload seed for the end-to-end and sweep rows (0 = default)")
	flag.Parse()

	warmTx, measureTx := uint64(100), uint64(500)
	e2eIters, microIters := 3, 50
	if *quick {
		warmTx, measureTx = 20, 50
		e2eIters, microIters = 1, 10
	}

	rep := Report{
		SchemaVersion: schemaVersion,
		BenchVersion:  benchVersion,
		Quick:         *quick,
		GoVersion:     runtime.Version(),
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
	}
	add := func(r Result) {
		rep.Suite = append(rep.Suite, r)
		extra := ""
		if r.NsPerSimTx > 0 {
			extra = fmt.Sprintf("  %12.0f ns/sim-tx", r.NsPerSimTx)
		}
		fmt.Printf("%-22s %12.1f ns/op %10.3f allocs/op %12.1f B/op%s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, extra)
	}
	add(endToEnd("oltp/p1", core.OLTP, 1, *seed, warmTx, measureTx, e2eIters))
	add(endToEnd("oltp/p8", core.OLTP, 8, *seed, warmTx, measureTx, e2eIters))
	add(endToEnd("dss/p1", core.DSS, 1, *seed, warmTx, measureTx, e2eIters))
	add(endToEnd("dss/p8", core.DSS, 8, *seed, warmTx, measureTx, e2eIters))

	add(l2LookupBench(microIters))
	add(peDirDispatchBench(microIters))
	add(nocHopBench(microIters))

	// Open-loop load sweeps: the committed hockey-stick trajectory. These
	// are simulated numbers (deterministic per seed), so the curves are
	// comparable across hosts and PRs.
	for _, sw := range []struct {
		name string
		kind core.WorkloadKind
		cpus int
	}{
		{"sweep/oltp/p1", core.OLTP, 1},
		{"sweep/oltp/p8", core.OLTP, 8},
		{"sweep/dss/p8", core.DSS, 8},
	} {
		s := loadSweep(sw.name, sw.kind, sw.cpus, *seed, warmTx, measureTx)
		rep.Sweeps = append(rep.Sweeps, s)
		sat := "none"
		if s.SaturationMultiplier > 0 {
			sat = fmt.Sprintf("%gx", s.SaturationMultiplier)
		}
		last := s.Points[len(s.Points)-1]
		fmt.Printf("%-22s capacity %8.0f tx/s  saturates at %-5s p99@%gx %.0f ns\n",
			s.Name, s.CapacityTxS, sat, last.Multiplier, last.P99Ns)
	}

	// The chaos row: fail-stop recovery, degraded-mode throughput, and
	// the rerun byte-identity of the whole fault pipeline.
	ch := failStopBench(*seed)
	rep.Chaos = ch
	fmt.Printf("%-22s mttr %8.0f ns  pre %8.0f tx/s  post %8.0f tx/s  ratio %.2f  sloviol %.3f\n",
		ch.Name, ch.MTTRNs, ch.PreFaultTxS, ch.PostRecoveryTxS, ch.DegradedRatio, ch.SLOViolationRate)

	// The N-node scaling section: per-node simulation rate on the torus
	// machines, with the O(active) 10x gate and anchor-row byte-identity
	// enforced inside.
	rep.Scaling = scalingBench(*seed, *quick)
	for _, row := range rep.Scaling {
		fmt.Printf("%-22s %12.0f ns/sim-tx  sim %8.0f ns/tx  (%d nodes, %d tx)\n",
			row.Name, row.NsPerSimTx, row.SimNsPerTx, row.Nodes, row.MeasureTx)
	}

	// The refactor's contract: the three hot paths allocate nothing in
	// steady state. Enforce it on every run, not just under -baseline.
	failed := false
	for _, r := range rep.Suite {
		if r.Kind == "micro" && r.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "piranha-bench: %s allocates %.4f objects/op; hot paths must be allocation-free\n",
				r.Name, r.AllocsPerOp)
			failed = true
		}
	}

	if *baseline != "" {
		if err := compareBaseline(*baseline, rep); err != nil {
			fmt.Fprintf(os.Stderr, "piranha-bench: %v\n", err)
			failed = true
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	fmt.Printf("wrote %s\n", *out)
	if failed {
		os.Exit(1)
	}
}

// compareBaseline fails when a micro benchmark's allocs/op regressed
// more than 10% against the committed report (and any regression at all
// from an allocation-free baseline).
func compareBaseline(path string, cur Report) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.SchemaVersion != schemaVersion {
		return fmt.Errorf("baseline %s: schema_version %d, want %d", path, base.SchemaVersion, schemaVersion)
	}
	byName := make(map[string]Result)
	for _, r := range base.Suite {
		if r.Kind == "micro" {
			byName[r.Name] = r
		}
	}
	for _, r := range cur.Suite {
		if r.Kind != "micro" {
			continue
		}
		b, ok := byName[r.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		limit := b.AllocsPerOp * 1.10
		if r.AllocsPerOp > limit {
			return fmt.Errorf("%s: allocs/op %.4f exceeds baseline %.4f by >10%%",
				r.Name, r.AllocsPerOp, b.AllocsPerOp)
		}
	}
	return nil
}
