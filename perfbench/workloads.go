package main

import (
	"piranha"
	"piranha/internal/core"
	"piranha/internal/kernel"
	"piranha/internal/workload"
)

// spec is one benchmark workload: a closed-loop experiment on the serial
// engine. The kernel model runs ProcsPerCPU server processes on each CPU
// and each starts its next transaction only after the previous commits.
type spec struct {
	Name string
	Why  string
	Sys  core.SystemConfig
	Kind core.WorkloadKind
	// Warm and Measure are the experiment's transaction counts; host time
	// per simulated transaction divides by their sum.
	Warm, Measure uint64
	// Caches says whether the modelled caches are warm when measurement
	// starts.
	Caches string
}

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed speed-up must also hold when the benchmark runs with it.
const heldOutSeed = 1000003

var specs = []spec{
	{
		Name:    "oltp-p8",
		Why:     "OLTP on one 8-CPU chip, the paper's headline setup: the on-chip memory walk (cache, linemap, l2) and Zipf op generation carry host time; no fabric, so pe/directory/noc idle",
		Sys:     piranha.P8(),
		Kind:    core.OLTP,
		Warm:    piranha.PaperScale.Warm,
		Measure: piranha.PaperScale.Measure,
		Caches:  "warm: 200 warm-up transactions on 8 CPUs fill the L1s and the 1 MB L2 before measuring",
	},
	{
		Name:    "dss-p8",
		Why:     "DSS scans on the same chip: every L2 access misses to local memory, so the line table inserts and evicts rather than looks up, and kernel dispatch and the event engine weigh more",
		Sys:     piranha.P8(),
		Kind:    core.DSS,
		Warm:    piranha.PaperScale.Warm,
		Measure: piranha.PaperScale.Measure,
		Caches:  "streaming: every L2 access misses to local memory (L2 hits are 0), so warming does not fill the caches with reused lines",
	},
	{
		Name:    "oltp-torus64",
		Why:     "OLTP on a 64-node 8x8 glueless torus (paper 2.6): most L2 misses go remote, so pe, directory and 64 per-node line tables work; largest set-up; caches start nearly cold",
		Sys:     piranha.ScaleOut(64, 1),
		Kind:    core.OLTP,
		Warm:    piranha.DefaultPerNodeScale.Warm * 64,
		Measure: piranha.DefaultPerNodeScale.Measure * 64,
		Caches: "nearly cold: 1 warm-up and 4 measured transactions per node (the scaling suite's per-node scale) " +
			"leave most of each node's L1 and L2 empty when measuring starts",
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) experiment(seed uint64) core.Experiment {
	return core.Experiment{
		Name:      s.Name,
		Sys:       s.Sys,
		Work:      core.WorkloadSpec{Kind: s.Kind},
		WarmTx:    s.Warm,
		MeasureTx: s.Measure,
		Seed:      seed,
	}
}

// cpus is the machine's CPU count.
func (s spec) cpus() int { return s.Sys.Chips * s.Sys.Chip.CPUs }

// streams builds the workload the way core.Run does for a closed-loop
// run with the default configuration: one generator shared by ProcsPerCPU
// processes on every CPU, each process with its own op stream.
func (s spec) streams() []kernel.Stream {
	lay := workload.DefaultLayout()
	switch s.Kind {
	case core.DSS:
		cfg := workload.DefaultDSS()
		n := s.cpus() * cfg.ProcsPerCPU
		w := workload.NewDSS(cfg, lay, n)
		out := make([]kernel.Stream, n)
		for id := range out {
			out[id] = w.Process(id)
		}
		return out
	default:
		cfg := workload.DefaultOLTP()
		n := s.cpus() * cfg.ProcsPerCPU
		w := workload.NewOLTP(cfg, lay, n)
		out := make([]kernel.Stream, n)
		for id := range out {
			out[id] = w.Process(id)
		}
		return out
	}
}
