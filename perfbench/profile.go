package main

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/pprof"
	"time"

	"piranha/internal/core"
	"piranha/internal/stats"
	"piranha/internal/trace"
)

// hostLayers are the layers reported as host.<layer>.self_ns_per_tx: the
// modules under internal/ that the workloads run, plus math, the runtime
// split into collection and the rest, and the tracer the profiled run
// switches on.
var hostLayers = []string{
	"workload", "kernel", "cpu", "cache", "l1", "ics", "l2", "linemap",
	"pe", "directory", "noc", "memctl", "sim", "core", "trace",
	layerMath, layerGC, layerRuntime,
}

var errNoSamples = errors.New("profile holds no samples")

// tracedOutcome is a traced experiment with its tracer's event counts.
type tracedOutcome struct {
	outcome
	counts *stats.Set
}

// profiled repeats the reference experiment with a tracer attached under
// one CPU profile until the budget is spent (at least once). It reports
// host self time per simulated transaction for every layer and returns
// the first traced outcome and the median traced host ns per simulated
// transaction.
func (b *bench) profiled(m map[string]metric, budget time.Duration) (first tracedOutcome, nsPerTx float64) {
	exp := b.spec.experiment(b.seed)
	var buf bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		b.fail("cpu profile: %v", err)
		return first, 0
	}
	var ns []float64
	start := time.Now()
	for len(ns) < 1 || time.Since(start) < budget {
		exp.Trace = trace.New(1 << 12)
		o := b.experiment(exp)
		if !o.ok {
			break
		}
		if first.json == nil {
			first = tracedOutcome{o, exp.Trace.Counts()}
		} else if string(o.json) != string(first.json) {
			b.fail("%s seed %d: traced rerun's simulated Result differs from the first traced run's", exp.Name, exp.Seed)
			break
		}
		ns = append(ns, o.ns)
	}
	pprof.StopCPUProfile()
	if len(ns) == 0 {
		return first, 0
	}
	layers, total, err := foldProfile(&buf)
	if err == nil && total == 0 {
		err = errNoSamples
	}
	if err != nil {
		b.fail("cpu profile: %v", err)
		return first, 0
	}
	tx := b.perTx() * float64(len(ns))
	b.layers = map[string]float64{}
	for l, v := range layers {
		b.layers[l] = float64(v) / tx
	}
	for _, l := range hostLayers {
		m["host."+l+".self_ns_per_tx"] = metric{b.layers[l], "ns/tx"}
	}
	return first, median(ns) / b.perTx()
}

// simCounts adds the simulated counts of one traced experiment. They
// are exact for a seed: a change that only speeds up the host must leave
// every one unchanged.
func simCounts(m map[string]metric, r core.Result, c *stats.Set) {
	tx := float64(r.Tx)
	per := func(n uint64) float64 { return float64(n) / tx }
	busy, l2stall, memstall, _ := r.Agg.Normalized(r.Agg.Total())
	idle := 0.0
	if r.Elapsed > 0 && r.CPUs > 0 {
		idle = float64(r.Idle) / (float64(r.Elapsed) * float64(r.CPUs))
	}
	for name, v := range map[string]metric{
		"sim.ns_per_tx":              {r.TimePerTx, "ns/tx"},
		"cpu.busy_frac":              {busy, "1"},
		"cpu.l2_stall_frac":          {l2stall, "1"},
		"cpu.mem_stall_frac":         {memstall, "1"},
		"kernel.idle_frac":           {idle, "1"},
		"kernel.ctx_switches_per_tx": {per(c.Value(trace.Name(trace.Kernel, trace.KCtxSwitch))), "1/tx"},
		"l1.fetch_miss_per_tx":       {per(c.Value(trace.Name(trace.L1, trace.KMissFetch))), "1/tx"},
		"l1.load_miss_per_tx":        {per(c.Value(trace.Name(trace.L1, trace.KMissLoad))), "1/tx"},
		"l1.store_miss_per_tx":       {per(c.Value(trace.Name(trace.L1, trace.KMissStore))), "1/tx"},
		"l2.hit_per_tx":              {per(r.L2.Hits), "1/tx"},
		"l2.fwd_per_tx":              {per(r.L2.Fwds), "1/tx"},
		"l2.miss_local_per_tx":       {per(r.L2.LocalMem), "1/tx"},
		"l2.miss_remote_per_tx":      {per(r.L2.Remote), "1/tx"},
		"l2.remote_dirty_per_tx":     {per(r.L2.RemoteDirty), "1/tx"},
		"l2.invals_per_tx":           {per(r.L2.Invals), "1/tx"},
		"ics.transfers_per_tx":       {per(c.Value(trace.Name(trace.NOC, trace.KICS))), "1/tx"},
		"pe.home_tx_per_tx":          {per(c.Value(trace.Name(trace.PE, trace.KHomeTx))), "1/tx"},
		"pe.remote_tx_per_tx":        {per(c.Value(trace.Name(trace.PE, trace.KRemoteTx))), "1/tx"},
		"noc.hops_per_tx":            {per(c.Value(trace.Name(trace.NOC, trace.KHop))), "1/tx"},
		"memctl.page_hit_rate":       {r.PageHitRate, "1"},
		"memctl.writes_per_tx":       {per(c.Value(trace.Name(trace.Mem, trace.KMemWrite))), "1/tx"},
	} {
		m[name] = v
	}
}
