// Package piranha is the public API of the Piranha simulator — a Go
// reproduction of "Piranha: A Scalable Architecture Based on Single-Chip
// Multiprocessing" (Barroso et al., ISCA 2000).
//
// The package exposes the paper's Table-1 machine configurations, the
// OLTP/DSS/TPC-C-style workloads, and an experiment runner producing the
// metrics the paper reports: per-transaction execution time with its
// CPU-busy / L2-hit-stall / L2-miss-stall breakdown (Figure 5), the
// L1-miss service breakdown (Figure 6b), and multi-chip scaling
// (Figure 7). Lower-level machinery lives in internal/: the event kernel
// (sim), caches (cache, l1, l2), memory controllers (memctl), protocol
// engines and inter-node coherence (pe, directory, ecc), interconnect
// (noc, link), processor models (cpu, isa), OS model (kernel), workload
// generators (workload), the microcode engine (useq), the I/O node
// (ionode) and the area model (area).
//
// Quick start:
//
//	res := piranha.Run(piranha.P8(), piranha.OLTP())
//	fmt.Println(res)
//
// Runs are configured with functional options:
//
//	var buf bytes.Buffer
//	res := piranha.Run(piranha.P8(), piranha.OLTP(),
//		piranha.WithScale(piranha.PaperScale),
//		piranha.WithSeed(7),
//		piranha.WithIntervals(2*time.Microsecond),  // Result.Series
//		piranha.WithTrace(&buf),                    // Chrome/Perfetto JSON
//	)
package piranha

import (
	"io"
	"time"

	"piranha/internal/core"
	"piranha/internal/fault"
	"piranha/internal/kernel"
	"piranha/internal/noc"
	"piranha/internal/ras"
	"piranha/internal/sim"
	"piranha/internal/trace"
	"piranha/internal/workload"
)

// Result is the outcome of one simulation (see core.Result).
type Result = core.Result

// Experiment re-exports the full experiment descriptor for advanced use.
type Experiment = core.Experiment

// SystemConfig describes a machine (chips x chip configuration).
type SystemConfig = core.SystemConfig

// Workload names a workload and its configuration knobs.
type Workload = core.WorkloadSpec

// FaultPlan describes a deterministic fault-injection campaign: per-class
// rates (link bit errors, protocol-message loss, memory bit flips,
// transient node stalls) plus the recovery parameters. The zero value is
// the perfect machine. See WithFaults.
type FaultPlan = fault.Plan

// FaultStats is the per-run fault counter block (Result.Faults).
type FaultStats = fault.Stats

// NodeFailure is one scheduled fail-stop node death in a FaultPlan: the
// chip dies At picoseconds into the measured window, and recovery runs
// the RAS-mirror takeover, directory reconstruction sweep, and kernel
// process migration. See FaultPlan.FailStop.
type NodeFailure = fault.NodeFailure

// Recovery is the fail-stop recovery block (Result.Recovery): per-node
// MTTR timelines and the degraded-mode capacity fraction.
type Recovery = fault.Recovery

// Arrivals describes an open-loop arrival stream: the process shape
// (Poisson, bursty MMPP, diurnal), the mean offered rate in transactions
// per second of simulated time, the admission-queue capacity, and an
// optional multi-tenant mix. The zero value is the classic closed-loop
// mode. See WithArrivals.
type Arrivals = workload.ArrivalSpec

// TenantShare is one entry of a multi-tenant Arrivals.Mix.
type TenantShare = workload.TenantShare

// AdmissionStats is the per-run admission-queue counter block
// (Result.Admission) for open-loop runs.
type AdmissionStats = kernel.AdmissionStats

// Arrival process names for Arrivals.Process.
const (
	ArrivalPoisson = workload.ArrivalPoisson
	ArrivalMMPP    = workload.ArrivalMMPP
	ArrivalDiurnal = workload.ArrivalDiurnal
)

// Workload constructors for the paper's four workload families.

// OLTP is the TPC-B-style transaction mix (§3.1).
func OLTP() Workload { return Workload{Kind: core.OLTP} }

// DSS is the TPC-D Query-6-style scan (§3.1).
func DSS() Workload { return Workload{Kind: core.DSS} }

// TPCC is the heavier TPC-C-style mix (§4).
func TPCC() Workload { return Workload{Kind: core.TPCC} }

// Web is the §6 AltaVista-style search workload.
func Web() Workload { return Workload{Kind: core.WEB} }

// Table-1 configurations (single-chip unless stated).

// P8 is the Piranha prototype: eight 500 MHz single-issue in-order cores,
// 64 KB 2-way L1s, 1 MB 8-way shared non-inclusive L2 (16/24 ns).
func P8() SystemConfig {
	return SystemConfig{Chips: 1, Chip: core.PiranhaChip(8)}
}

// P1, P2 and P4 are hypothetical Piranha chips with fewer cores.
func P1() SystemConfig { return SystemConfig{Chips: 1, Chip: core.PiranhaChip(1)} }

// P2 is the two-core Piranha point of Figure 6.
func P2() SystemConfig { return SystemConfig{Chips: 1, Chip: core.PiranhaChip(2)} }

// P4 is the four-core Piranha chip (also used per chip in Figure 7).
func P4() SystemConfig { return SystemConfig{Chips: 1, Chip: core.PiranhaChip(4)} }

// OOO is the aggressive next-generation processor: 1 GHz, 4-issue,
// 64-entry window, 1.5 MB 6-way L2 at 12 ns (Alpha 21364-like).
func OOO() SystemConfig { return SystemConfig{Chips: 1, Chip: core.OOOChip()} }

// INO is the OOO chip restricted to single-issue in-order (Table 1's
// intermediate design point).
func INO() SystemConfig { return SystemConfig{Chips: 1, Chip: core.INOChip()} }

// P8F is the full-custom Piranha: 1.25 GHz cores, 1.5 MB 6-way L2 at
// 12/16 ns.
func P8F() SystemConfig {
	return SystemConfig{Chips: 1, Chip: core.FullCustomChip(8)}
}

// Pessimistic is the §4 sensitivity point: 400 MHz cores, 32 KB
// direct-mapped L1s, 22/32 ns L2.
func Pessimistic() SystemConfig {
	return SystemConfig{Chips: 1, Chip: core.PessimisticPiranhaChip(8)}
}

// MultiChip returns n chips of cpusPerChip Piranha cores on the glueless
// interconnect.
func MultiChip(n, cpusPerChip int) SystemConfig {
	return SystemConfig{Chips: n, Chip: core.PiranhaChip(cpusPerChip)}
}

// MultiChipOOO returns n OOO chips on the same interconnect fabric.
func MultiChipOOO(n int) SystemConfig {
	return SystemConfig{Chips: n, Chip: core.OOOChip()}
}

// ScaleOut returns the glueless scale-out machine of paper Figure 3 /
// §2.6: n Piranha chips with cpusPerChip cores each on a 2-D torus
// (the most-square W x H factorization of n), so inter-node latency
// grows with torus distance instead of staying flat. The paper's design target is
// n up to 1024 nodes; ScaleOut64 through ScaleOut1024 are the preset
// points of the scaling suite.
func ScaleOut(n, cpusPerChip int) SystemConfig {
	w, h := torusDims(n)
	return SystemConfig{
		Chips:    n,
		Chip:     core.PiranhaChip(cpusPerChip),
		Topology: noc.Torus{W: w, H: h},
	}
}

// torusDims returns the most-square W x H factorization of n (W <= H).
func torusDims(n int) (w, h int) {
	if n < 1 {
		n = 1
	}
	for w = 1; (w+1)*(w+1) <= n; w++ {
	}
	for ; n%w != 0; w-- {
	}
	return w, n / w
}

// Scale-out presets: single-core Piranha chips on 2-D tori, the node
// counts of the paper's scaling argument (§2.6 targets up to 1024).
func ScaleOut8() SystemConfig    { return ScaleOut(8, 1) }
func ScaleOut32() SystemConfig   { return ScaleOut(32, 1) }
func ScaleOut64() SystemConfig   { return ScaleOut(64, 1) }
func ScaleOut256() SystemConfig  { return ScaleOut(256, 1) }
func ScaleOut1024() SystemConfig { return ScaleOut(1024, 1) }

// Option configures a Run.
type Option func(*runConfig)

// runConfig collects an experiment plus the run-scoped concerns that do
// not belong in the experiment descriptor (where the trace goes).
type runConfig struct {
	exp      core.Experiment
	traceW   io.Writer
	traceCap int
}

// WithName labels the run's Result (default: the workload kind).
func WithName(name string) Option {
	return func(rc *runConfig) { rc.exp.Name = name }
}

// WithSeed sets the workload RNG seed (0 selects the default).
func WithSeed(seed uint64) Option {
	return func(rc *runConfig) { rc.exp.Seed = seed }
}

// WithScale sets the warm-up and measured transaction counts.
func WithScale(s Scale) Option {
	return func(rc *runConfig) { rc.exp.WarmTx, rc.exp.MeasureTx = s.Warm, s.Measure }
}

// WithIntervals samples machine-wide busy/stall/miss activity per window
// of simulated time d into Result.Series.
func WithIntervals(d time.Duration) Option {
	return func(rc *runConfig) { rc.exp.Intervals = sim.Time(d.Nanoseconds()) * sim.Nanosecond }
}

// WithTrace records component events during the measured phase and
// writes them to w as Chrome trace-event JSON (loadable in Perfetto)
// when the run completes. Timestamps are simulated time only, so the
// bytes are identical no matter where or how concurrently the run
// executed.
func WithTrace(w io.Writer) Option {
	return func(rc *runConfig) { rc.traceW = w }
}

// WithTraceCapacity bounds the trace ring buffer to the most recent n
// events (0 selects the default; see trace.DefaultCapacity).
func WithTraceCapacity(n int) Option {
	return func(rc *runConfig) { rc.traceCap = n }
}

// WithFaults runs the simulation under a deterministic fault-injection
// plan: link words corrupt at the plan's bit-error rate (paying real
// retransmit latency through the link-layer CRC handshake), protocol
// messages are lost and healed by periodic TSRF timeout recovery, memory
// reads flip bits through the SECDED decode path, and nodes transiently
// stall. Counters land in Result.Faults. A mirrored plan escalates
// uncorrectable memory errors to ras mirroring failover. A zero-rate
// plan is inert: the run is byte-identical to one without this option.
func WithFaults(p FaultPlan) Option {
	return func(rc *runConfig) {
		rc.exp.Faults = p
		if p.Mirrored && rc.exp.FaultEscalate == nil {
			rc.exp.FaultEscalate = ras.NewFailover(p.MirrorLatency).Uncorrectable
		}
		if len(p.FailStop) > 0 && rc.exp.FaultAdopt == nil {
			// Fail-stop recovery always has a mirror: the dead home's
			// memory (and its in-memory directory) fails over to it.
			rc.exp.FaultAdopt = ras.NewFailover(p.MirrorLatency).Takeover
		}
	}
}

// WithArrivals switches the run to open-loop: transactions arrive on
// the described deterministic seeded stochastic process, wait in the
// kernel's bounded admission queue for a server process (shedding past
// the capacity bound), and Result grows Lat (an arrival→completion
// latency sketch reporting p50/p90/p99/p999) and Admission blocks.
// A zero-rate spec is inert: the run is byte-identical to one without
// this option — the same contract as WithFaults.
func WithArrivals(a Arrivals) Option {
	return func(rc *runConfig) { rc.exp.Work.Arrivals = a }
}

// WithOfferedLoad is shorthand for WithArrivals with a Poisson stream at
// rate transactions per second of simulated time and an unbounded
// admission queue.
func WithOfferedLoad(rate float64) Option {
	return func(rc *runConfig) { rc.exp.Work.Arrivals = Arrivals{Rate: rate} }
}

// Run simulates one workload on one machine configuration. Options
// configure scale, seed, naming, interval metrics and tracing; the
// zero-option call runs the library defaults (200 measured transactions,
// no warm-up, tracing off).
func Run(sys SystemConfig, w Workload, opts ...Option) Result {
	rc := runConfig{exp: core.Experiment{Sys: sys, Work: w}}
	for _, o := range opts {
		o(&rc)
	}
	if rc.exp.Name == "" {
		if w.Kind == "" {
			rc.exp.Name = string(core.OLTP)
		} else {
			rc.exp.Name = string(w.Kind)
		}
	}
	if rc.traceW != nil {
		rc.exp.Trace = trace.New(rc.traceCap)
	}
	r := core.Run(rc.exp)
	if rc.traceW != nil {
		if err := rc.exp.Trace.WriteChrome(rc.traceW, 0, rc.exp.Name); err != nil {
			panic("piranha: trace export: " + err.Error())
		}
	}
	return r
}

// RunExperiment executes a fully-specified experiment descriptor (the
// escape hatch under the option API; RunBatch consumes the same type).
func RunExperiment(e Experiment) Result { return core.Run(e) }

// RunBatch executes independent experiments concurrently on a bounded
// worker pool (see SetParallelism) and returns results in input order.
// Every experiment owns a private engine and seeded RNG, so the batch is
// deterministic: RunBatch yields exactly what a serial loop over Run
// would, only faster on multi-core hosts.
func RunBatch(exps []Experiment) []Result { return runBatch(exps) }

// Scale multiplies all transaction counts in the figure harnesses;
// useful to trade precision for speed.
type Scale struct {
	Warm, Measure uint64
}

// QuickScale is fast and noisy (tests); PaperScale approximates the
// paper's "500 transactions after a warm-up period".
var (
	QuickScale = Scale{Warm: 50, Measure: 100}
	PaperScale = Scale{Warm: 200, Measure: 500}
)

// OLTPConfig and DSSConfig re-export the workload knobs.
type OLTPConfig = workload.OLTPConfig

// DSSConfig re-exports the DSS scan parameters.
type DSSConfig = workload.DSSConfig

// Nanoseconds converts a simulated duration for reporting.
func Nanoseconds(t sim.Time) float64 { return float64(t) / float64(sim.Nanosecond) }

// Simulated-time units, for scheduling absolute instants like
// NodeFailure.At (sim.Time counts picoseconds).
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)
