package core

import (
	"fmt"
	"os"
	"sync"

	"piranha/internal/fault"
	"piranha/internal/kernel"
	"piranha/internal/l2"
	"piranha/internal/sim"
	"piranha/internal/stats"
	"piranha/internal/trace"
	"piranha/internal/workload"
)

// WorkloadKind selects the workload family.
type WorkloadKind string

// Workload kinds.
const (
	OLTP WorkloadKind = "oltp"
	DSS  WorkloadKind = "dss"
	TPCC WorkloadKind = "tpcc"
	// WEB is the §6 AltaVista-style search workload (DSS-like scans
	// with web-server thread counts).
	WEB WorkloadKind = "web"
)

// WorkloadSpec names a workload and its configuration.
type WorkloadSpec struct {
	Kind WorkloadKind
	// OLTP config for OLTP/TPCC kinds (zero value takes defaults).
	OLTP workload.OLTPConfig
	// DSS config for the DSS kind (zero value takes defaults).
	DSS workload.DSSConfig
	// Arrivals switches the run to open-loop when enabled (Rate > 0):
	// transactions arrive on a deterministic seeded stochastic process
	// and queue at the kernel's admission layer, and the Result grows
	// latency-percentile and admission blocks. The zero value is the
	// classic closed-loop mode, byte-identical to a spec that never set
	// it — the same enable-by-value pattern as fault.Plan. A non-empty
	// Arrivals.Mix overrides Kind with one server-process pool per
	// tenant.
	Arrivals workload.ArrivalSpec
}

// Experiment is one simulation run.
type Experiment struct {
	Name      string
	Sys       SystemConfig
	Work      WorkloadSpec
	WarmTx    uint64
	MeasureTx uint64
	Seed      uint64
	// Trace, when non-nil, records component events for the measured
	// phase (the tracer is Reset at the warm/measure boundary).
	Trace *trace.Tracer
	// Intervals, when positive, samples machine-wide busy/stall/miss
	// activity per window of simulated time into Result.Series.
	Intervals sim.Time
	// Faults describes the fault-injection campaign; the zero value (or
	// any all-zero-rate plan) runs on perfect hardware, byte-identical
	// to a run that never set it.
	Faults fault.Plan
	// FaultEscalate, when non-nil, handles uncorrectable memory errors
	// (ras mirroring failover). Only consulted when Faults is enabled.
	FaultEscalate func(now sim.Time) (extra sim.Time, recovered bool)
	// FaultAdopt, when non-nil, notifies the RAS mirror that it adopted n
	// directory-resident lines of a fail-stopped home (ras.Failover.
	// Takeover — same hook pattern as FaultEscalate, since neither core
	// nor fault can import ras).
	FaultAdopt func(n int)
	// SLOTarget, when positive on an open-loop run, attaches a per-window
	// SLO accountant to the admission queue: completions slower than the
	// target (and final sheds) are violations, bucketed into windows of
	// Intervals width (50 µs when Intervals is unset). Result.SLO carries
	// the accounting. Zero disables it — closed-loop runs and open-loop
	// runs that never set it are byte-identical to pre-SLO builds.
	SLOTarget sim.Time
	// SLOBudget is the tolerated violation fraction (error budget) for
	// BudgetBurn; zero takes the 10% default.
	SLOBudget float64
}

// Result carries the measurements an experiment produces.
type Result struct {
	Name    string
	Chips   int
	CPUs    int
	Tx      uint64
	Elapsed sim.Time
	// TimePerTx is the headline metric (ns per transaction); speedups
	// and the paper's normalized execution times are ratios of it.
	TimePerTx float64
	// Agg sums the per-core execution-time breakdowns.
	Agg stats.Breakdown
	// Miss is the machine-wide L1-miss service breakdown (Fig. 6b).
	Miss stats.MissBreakdown
	// PageHitRate is the memory controllers' open-page hit rate.
	PageHitRate float64
	// Instructions retired during measurement.
	Instructions uint64
	// Idle is total CPU idle time.
	Idle sim.Time
	// CtxSwitches during the whole run.
	CtxSwitches uint64
	// L2 aggregates the chips' L2 controller counters.
	L2 l2.Stats
	// Svc counts core-side accesses by service class (index l2.Svc).
	Svc [6]uint64
	// Series holds the per-interval time series when the experiment ran
	// with Intervals set; nil otherwise. A pointer keeps Result values
	// comparable with == for determinism checks.
	Series *stats.Series
	// Faults holds the fault-injection counters when the experiment ran
	// with an enabled fault plan; nil otherwise (same pointer idiom as
	// Series).
	Faults *fault.Stats
	// Lat holds the arrival→completion latency sketch (queueing +
	// service, picoseconds) for open-loop runs; nil otherwise (same
	// pointer idiom as Series).
	Lat *stats.Quantile
	// Admission holds the admission-queue counters for open-loop runs;
	// nil otherwise.
	Admission *kernel.AdmissionStats
	// SLO holds the per-window SLO accounting for open-loop runs with
	// SLOTarget set; nil otherwise (same pointer idiom as Series).
	SLO *stats.SLO
	// Recovery holds the fail-stop recovery timeline (per-event MTTR and
	// the post-failure capacity fraction) for runs whose fault plan killed
	// a node; nil otherwise.
	Recovery *fault.Recovery
}

// String renders a one-line summary.
func (r Result) String() string {
	busy, hit, miss, other := r.Agg.Normalized(r.Agg.Total())
	return fmt.Sprintf("%-18s chips=%d cpus=%-2d tx=%-5d ns/tx=%-10.0f busy=%.2f l2stall=%.2f memstall=%.2f other=%.2f",
		r.Name, r.Chips, r.CPUs, r.Tx, r.TimePerTx, busy, hit, miss, other)
}

// forceTrace reports whether PIRANHA_FORCE_TRACE is set: every run then
// records into a throwaway tracer, exercising the instrumented paths
// (the CI force-traced suite).
var forceTrace = sync.OnceValue(func() bool {
	return os.Getenv("PIRANHA_FORCE_TRACE") != ""
})

// Run executes the experiment.
func Run(e Experiment) Result {
	r, _ := RunSystem(e)
	return r
}

// RunSystem executes the experiment and also returns the machine it ran
// on, for inspecting component state after the run.
func RunSystem(e Experiment) (Result, *System) {
	if e.MeasureTx == 0 {
		e.MeasureTx = 200
	}
	if e.Trace == nil && forceTrace() {
		e.Trace = trace.New(0)
	}
	if e.Work.Kind == "" {
		e.Work.Kind = OLTP
	}
	// The OOO core's sustained IPC depends on the workload's ILP.
	if e.Sys.Chip.Core.IssueWidth > 1 && e.Sys.Chip.Core.IPC == 0 {
		e.Sys.Chip.Core.IPC = workload.OOOIPC(string(e.Work.Kind))
	}
	sys := NewSystem(e.Sys)
	seed := e.Seed
	if seed == 0 {
		seed = 12345
	}
	// Fault wiring precedes tracer wiring so hop spans wrap the fault
	// latency. A zero-rate plan compiles to a disabled injector that
	// attaches nothing and schedules nothing: the run is byte-identical
	// to one with no fault plan at all.
	var inj *fault.Injector
	var wd *sim.Watchdog
	if e.Faults.Enabled() {
		inj = fault.New(e.Faults, seed)
		inj.Escalate = e.FaultEscalate
		inj.Adopt = e.FaultAdopt
		sys.AttachFaults(inj)
	}
	var series *stats.Series
	if e.Intervals > 0 {
		series = stats.NewSeries(e.Intervals)
	}
	if e.Trace != nil || series != nil {
		sys.Attach(e.Trace, series)
	}
	if inj != nil {
		inj.AttachSeries(series)
		if sys.Fabric != nil {
			sys.Fabric.ScheduleRecovery(sys.Engine)
		}
		// Watchdog: an injected fault must never hang a run. The sweep
		// heals lost transactions; if the machine nonetheless stops
		// retiring instructions, fail loudly with a diagnostic. Progress
		// is retired instructions plus committed transactions — not
		// transactions alone, which arrive in coarse round-robin waves
		// that can legitimately outlast several watchdog intervals.
		wd = sim.NewWatchdog(sys.Engine, 8*inj.Plan().SweepPeriod, 4,
			func() uint64 {
				n := sys.Kern.Tx
				for _, c := range sys.Cores {
					n += c.Instructions
				}
				return n
			}, nil)
		// Satellite diagnostic: a wedged fault campaign's panic message
		// includes the injected/recovered/pending-reclaim counters.
		wd.SetDiagnostic(inj.Diagnostic)
	}
	lay := workload.DefaultLayout()
	ncpu := sys.TotalCPUs()
	rng := sim.NewRNG(seed)

	// Tenant pools: closed-loop runs have exactly one (the experiment's
	// own kind); an open-loop mix hosts one server-process pool per
	// tenant. The pool table maps a global process id to its tenant and
	// tenant-local stream.
	arrivalsOn := e.Work.Arrivals.Enabled()
	if arrivalsOn {
		if err := e.Work.Arrivals.Validate(); err != nil {
			panic("core: " + err.Error())
		}
	}
	kinds := []WorkloadKind{e.Work.Kind}
	if arrivalsOn && len(e.Work.Arrivals.Mix) > 0 {
		kinds = kinds[:0]
		for _, t := range e.Work.Arrivals.Mix {
			kinds = append(kinds, WorkloadKind(t.Kind))
		}
	}
	pools := make([]tenantPool, len(kinds))
	procsPerCPU := 0
	for t, k := range kinds {
		perCPU, stream := buildWorkload(k, e.Work, lay, ncpu)
		pools[t] = tenantPool{perCPU: perCPU, base: procsPerCPU, stream: stream}
		procsPerCPU += perCPU
	}

	// Open-loop wiring: the admission queue, and the arrival driver's
	// dedicated RNG stream — split *before* the process seeds are drawn,
	// and only on open-loop runs, so closed-loop runs consume rng exactly
	// as before.
	var adm *kernel.Admission
	if arrivalsOn {
		adm = kernel.NewAdmission(len(pools), e.Work.Arrivals.Capacity)
		adm.Retry = kernel.RetryPolicy{
			Budget:  e.Work.Arrivals.RetryBudget,
			Backoff: e.Work.Arrivals.RetryBackoff,
			Factor:  e.Work.Arrivals.RetryFactor,
		}
		sys.Kern.SetAdmission(adm)
		adm.AttachSeries(series)
		if e.SLOTarget > 0 {
			adm.AttachSLO(stats.NewSLO(e.SLOTarget, e.Intervals, e.SLOBudget))
		}
		gen := workload.NewArrivalGen(e.Work.Arrivals, rng.Split(0x41525256)) // "ARRV"
		startArrivals(sys.Engine, sys.Kern, gen)
	}

	id := 0
	for c := 0; c < ncpu; c++ {
		for p := 0; p < procsPerCPU; p++ {
			t, local := locateProc(pools, procsPerCPU, id)
			s, procSeed := pools[t].stream(local), rng.Uint64()
			if adm != nil {
				sys.Kern.SpawnOpen(c, s, procSeed, t)
			} else {
				sys.Kern.Spawn(c, s, procSeed)
			}
			id++
		}
	}

	// Warm up the caches and steady-state the scheduler, then reset all
	// counters and measure (the paper: "500 transactions after a
	// warm-up period").
	if e.WarmTx > 0 {
		sys.Kern.RunTx(e.WarmTx)
	}
	sys.ResetStats()
	// The trace and series cover exactly the measured phase; Reset
	// reuses their storage rather than reallocating (warm-phase events
	// are discarded, the count set keeps its counters zeroed). The
	// injector's counters (including the link channels') reset too, so
	// warm-up corruption doesn't pollute measured statistics.
	e.Trace.Reset()
	series.Reset(sys.Engine.Now())
	inj.ResetStats()
	if adm != nil {
		adm.ResetStats(sys.Engine.Now())
	}
	// Fail-stop node deaths are armed at the warm/measure boundary:
	// NodeFailure.At is relative to the start of the measured window, the
	// only anchor a plan author can predict.
	if inj != nil && len(inj.Plan().FailStop) > 0 {
		scheduleFailStops(sys, inj, ncpu, e.Trace, wd)
	}
	elapsed := sys.Kern.RunTx(e.WarmTx + e.MeasureTx)
	if inj != nil && sys.Kern.Tx < e.WarmTx+e.MeasureTx {
		// RunTx returned with the queue drained short of the target: the
		// fault campaign wedged the machine in a way even the recovery
		// sweep + watchdog ticks couldn't surface (they keep the queue
		// alive, so this indicates both were stopped). Fail loudly.
		panic(fmt.Sprintf("core: fault campaign wedged the run at %d/%d transactions",
			sys.Kern.Tx, e.WarmTx+e.MeasureTx))
	}

	r := Result{
		Name:        e.Name,
		Chips:       len(sys.Chips),
		CPUs:        ncpu,
		Tx:          e.MeasureTx,
		Elapsed:     elapsed,
		TimePerTx:   float64(elapsed) / float64(e.MeasureTx) / float64(sim.Nanosecond),
		CtxSwitches: sys.Kern.Switches,
		Series:      series,
	}
	if inj != nil {
		fs := inj.Collect()
		r.Faults = &fs
		if rec := inj.Recovery(); len(rec.Events) > 0 {
			r.Recovery = &rec
		}
	}
	if adm != nil {
		adm.Finalize(sys.Engine.Now())
		st := adm.Stats
		r.Admission = &st
		lat := *adm.Lat
		r.Lat = &lat
		r.SLO = adm.SLO()
	}
	var pageHits, pageTotal uint64
	for _, chip := range sys.Chips {
		for _, core := range chip.Cores {
			r.Agg.Add(core.Breakdown)
			r.Instructions += core.Instructions
			for i, n := range core.SvcCounts {
				r.Svc[i] += n
			}
		}
		ls := chip.L2.Stats
		r.L2.Hits += ls.Hits
		r.L2.Fwds += ls.Fwds
		r.L2.LocalMem += ls.LocalMem
		r.L2.Remote += ls.Remote
		r.L2.RemoteDirty += ls.RemoteDirty
		r.L2.Upgrades += ls.Upgrades
		r.L2.WritebacksToL2 += ls.WritebacksToL2
		r.L2.WritebacksToMem += ls.WritebacksToMem
		r.L2.Invals += ls.Invals
		mb := chip.L2.MissBreakdown()
		r.Miss.L2Hit += mb.L2Hit
		r.Miss.L2Fwd += mb.L2Fwd
		r.Miss.L2Miss += mb.L2Miss
		_, _, ph, pm := chip.MemStats()
		pageHits += ph
		pageTotal += ph + pm
	}
	if pageTotal > 0 {
		r.PageHitRate = float64(pageHits) / float64(pageTotal)
	}
	for _, t := range sys.Kern.IdleTime {
		r.Idle += t
	}
	if err := sys.CheckInvariants(); err != nil {
		panic("core: post-run invariant violation: " + err.Error())
	}
	return r, sys
}

// DefaultKernel re-exports the kernel defaults for cmd-layer tuning.
func DefaultKernel() kernel.Config { return kernel.DefaultConfig() }
