package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"piranha/internal/core"
)

// processes is how many fresh processes --trace 0 measures in, one after
// another, each for an equal share of --seconds. Pooling them keeps one
// process's start-up state (memory placement, collector pacing) from
// setting the figures, makes peak RSS a median instead of one process's
// high-water mark, and checks that separate processes compute the same
// Result.
const processes = 5

// Set-up is built at least setupMinReps times, then until setupBudget
// (divided among the processes in --trace 0) is spent.
const (
	setupMinReps = 5
	setupBudget  = 2 * time.Second
)

// bench holds one invocation's state.
type bench struct {
	spec   spec
	seed   uint64
	budget time.Duration
	// spawn runs one measuring process of --trace 0.
	spawn func(b *bench, budget time.Duration) (childResult, error)

	attempted, failed int
	errs              []string
	samples           int
	raw               map[string]float64
	fingerprint       string
	layers            map[string]float64
	micro             map[string]microResult
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.errs = append(b.errs, fmt.Sprintf(format, args...))
}

// perTx is the number of simulated transactions one experiment runs.
func (b *bench) perTx() float64 { return float64(b.spec.Warm + b.spec.Measure) }

// outcome is one experiment.
type outcome struct {
	res  core.Result
	json []byte
	ns   float64 // host CPU ns of core.Run
	ok   bool
}

// experiment runs core.Run once, timing it and checking its outcome. A
// panic (core.Run's post-run invariant check panics) or a short run
// counts as a failed experiment, not a crash of the benchmark.
func (b *bench) experiment(exp core.Experiment) (o outcome) {
	b.attempted++
	defer func() {
		if p := recover(); p != nil {
			b.fail("%s seed %d: core.Run panicked: %v", exp.Name, exp.Seed, p)
			o = outcome{}
		}
	}()
	c0 := cpuTime()
	res := core.Run(exp)
	o.ns = float64(cpuTime() - c0)
	o.res = res
	if res.Tx != exp.MeasureTx {
		b.fail("%s seed %d: measured %d transactions, want %d", exp.Name, exp.Seed, res.Tx, exp.MeasureTx)
		return o
	}
	data, err := json.Marshal(res)
	if err != nil {
		b.fail("%s seed %d: marshal result: %v", exp.Name, exp.Seed, err)
		return o
	}
	o.json, o.ok = data, true
	return o
}

// setupTimes builds the machine (core.NewSystem) and the workload with
// its process streams at least setupMinReps times, then until budget is
// spent, and returns the host CPU seconds of each build. With a
// reference it also runs the reference before each build and returns its
// CPU ns.
func (b *bench) setupTimes(budget time.Duration, ref *refTables) (sys, wl, total, refNs []float64) {
	start := time.Now()
	for len(total) < setupMinReps || time.Since(start) < budget {
		runtime.GC()
		r := 0.0
		if ref != nil {
			r = ref.runNs()
		}
		t0 := cpuTime()
		m := core.NewSystem(b.spec.Sys)
		t1 := cpuTime()
		st := b.spec.streams()
		t2 := cpuTime()
		if len(m.Cores) != b.spec.cpus() || len(st) == 0 {
			b.fail("setup: built %d CPUs and %d streams", len(m.Cores), len(st))
			return nil, nil, nil, nil
		}
		sys = append(sys, float64(t1-t0)/1e9)
		wl = append(wl, float64(t2-t1)/1e9)
		total = append(total, float64(t2-t0)/1e9)
		refNs = append(refNs, r)
	}
	return sys, wl, total, refNs
}

// timed repeats the workload's experiment, after a collection each time,
// until the budget is spent (at least minRuns times). Every repeat's
// Result must equal the first's. It returns the host ns of each run and
// the first run; it stops at the first failure. With a reference it also
// runs the reference before each experiment and returns its CPU ns.
func (b *bench) timed(budget time.Duration, minRuns int, ref *refTables) (ns, refNs []float64, first outcome) {
	exp := b.spec.experiment(b.seed)
	start := time.Now()
	for len(ns) < minRuns || time.Since(start) < budget {
		runtime.GC()
		r := 0.0
		if ref != nil {
			r = ref.runNs()
		}
		o := b.experiment(exp)
		if !o.ok {
			break
		}
		if first.json == nil {
			first = o
		} else if !bytes.Equal(o.json, first.json) {
			b.fail("%s seed %d: a rerun's simulated Result differs from the first run's", exp.Name, exp.Seed)
			break
		}
		ns = append(ns, o.ns)
		refNs = append(refNs, r)
	}
	return ns, refNs, first
}

// run measures and returns the metrics of one mode.
func (b *bench) run(profiled bool) map[string]metric {
	if !profiled {
		return b.endToEnd()
	}
	m := map[string]metric{}
	sys, wl, _, _ := b.setupTimes(setupBudget, nil)
	m["setup.system_s"] = metric{median(sys), "s"}
	m["setup.workload_s"] = metric{median(wl), "s"}
	b.microMetrics(m)

	// A quarter of the budget times untraced runs: the baseline for the
	// tracing overhead, the allocation rate, and the Result the traced
	// runs must reproduce.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	ns, _, untraced := b.timed(b.budget/4, 2, nil)
	runtime.ReadMemStats(&ms1)
	b.setFingerprint(untraced)
	b.samples = len(ns)
	if len(ns) == 0 {
		return m
	}
	tx := b.perTx() * float64(len(ns))
	m["host.alloc_bytes_per_tx"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / tx, "B/tx"}
	m["host.gc_cycles_per_ktx"] = metric{float64(ms1.NumGC-ms0.NumGC) * 1000 / tx, "1/ktx"}

	traced, tracedNs := b.profiled(m, b.budget-b.budget/4)
	if !traced.ok {
		return m
	}
	m["trace.overhead_frac"] = metric{tracedNs/(median(ns)/b.perTx()) - 1, "1"}
	if !bytes.Equal(traced.json, untraced.json) {
		b.fail("%s seed %d: the traced run's simulated Result differs from the untraced run's", b.spec.Name, b.seed)
	}
	simCounts(m, traced.res, traced.counts)
	return m
}

// childResult is what one measuring process of --trace 0 reports: raw
// host CPU times, and the CPU ns of the reference run before each build
// and experiment.
type childResult struct {
	HostNs      []float64 `json:"host_ns"`
	SetupS      []float64 `json:"setup_s"`
	RefNs       []float64 `json:"ref_ns"`
	PeakRSSMB   float64   `json:"peak_rss_mb"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Errors      []string  `json:"errors"`
	Fingerprint string    `json:"fingerprint"`
}

// child measures set-up and the timed experiment in this process.
func (b *bench) child() childResult {
	var cr childResult
	ref, err := newRefTables()
	if err != nil {
		b.attempted++
		b.fail("reference tables: %v", err)
	} else {
		var setupRef, runRef []float64
		_, _, cr.SetupS, setupRef = b.setupTimes(setupBudget/processes, ref)
		var first outcome
		cr.HostNs, runRef, first = b.timed(b.budget, 1, ref)
		b.setFingerprint(first)
		cr.RefNs = append(setupRef, runRef...)
	}
	cr.PeakRSSMB = peakRSSMB()
	if ref != nil {
		cr.PeakRSSMB -= refBytes / (1 << 20)
	}
	cr.Attempted, cr.Failed, cr.Errors, cr.Fingerprint = b.attempted, b.failed, b.errs, b.fingerprint
	return cr
}

// spawnChild runs this program as one measuring process and waits for it.
func spawnChild(b *bench, budget time.Duration) (childResult, error) {
	var cr childResult
	exe, err := os.Executable()
	if err != nil {
		return cr, err
	}
	cmd := exec.Command(exe, "--workload", b.spec.Name, "--seed", strconv.FormatUint(b.seed, 10),
		"--trace", "0", "--child-ms", strconv.FormatInt(budget.Milliseconds(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return cr, fmt.Errorf("measuring process: %w", err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &cr); err != nil {
		return cr, fmt.Errorf("measuring process output: %w", err)
	}
	return cr, nil
}

// endToEnd measures in fresh processes one after another and pools
// their samples. All processes must compute the same Result. Host times
// are scaled by their process's speed index, the median of its
// reference runs: scaled = CPU time × sqrt(refNominalNs ÷ index). The
// square root is measured, not chosen: over five sets of ten runs per
// workload while other tenants slowed the reference 1.2x to 3x, the
// simulator's CPU time grew about as the square root of the
// reference's, and this exponent kept the sets' medians within 11% where
// a plain ratio moved them by up to 38%.
func (b *bench) endToEnd() map[string]metric {
	var scaled, setup, rss, raw, rawSetup, refs []float64
	share := b.budget / processes
	for i := 0; i < processes; i++ {
		cr, err := b.spawn(b, share)
		if err != nil {
			b.attempted++
			b.fail("%v", err)
			continue
		}
		b.attempted += cr.Attempted
		b.failed += cr.Failed
		b.errs = append(b.errs, cr.Errors...)
		k := math.Sqrt(refNominalNs / median(cr.RefNs))
		for _, ns := range cr.HostNs {
			scaled = append(scaled, ns*k)
		}
		for _, s := range cr.SetupS {
			setup = append(setup, s*k)
		}
		raw = append(raw, cr.HostNs...)
		refs = append(refs, cr.RefNs...)
		rawSetup = append(rawSetup, cr.SetupS...)
		rss = append(rss, cr.PeakRSSMB)
		switch {
		case cr.Fingerprint == "":
		case b.fingerprint == "":
			b.fingerprint = cr.Fingerprint
		case cr.Fingerprint != b.fingerprint:
			b.fail("%s seed %d: process %d's simulated Result differs from an earlier process's", b.spec.Name, b.seed, i)
		}
	}
	b.samples = len(scaled)
	b.raw = map[string]float64{
		"cpu_ns_per_sim_tx": median(raw) / b.perTx(),
		"cpu_setup_s":       median(rawSetup),
		"ref_run_ms":        median(refs) / 1e6,
	}
	ok := 0.0
	if b.attempted > 0 {
		ok = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	return map[string]metric{
		"host_ns_per_sim_tx": {median(scaled) / b.perTx(), "ns/tx"},
		"setup_s":            {median(setup), "s"},
		"peak_rss_mb":        {median(rss), "MB"},
		"ok_frac":            {ok, "1"},
	}
}

func (b *bench) setFingerprint(o outcome) {
	if !o.ok {
		return
	}
	sum := sha256.Sum256(o.json)
	b.fingerprint = "sha256:" + hex.EncodeToString(sum[:])
}

// microMetrics runs the per-call rigs. allocFree marks the paths whose
// steady state must not allocate.
func (b *bench) microMetrics(m map[string]metric) {
	rigs := []struct {
		metric    string
		allocFree bool
		run       func() (microResult, error)
	}{
		{"workload.ns_per_op", false, func() (microResult, error) { return workloadOps(b.spec, b.seed), nil }},
		{"sim.ns_per_event", true, func() (microResult, error) { return engineEvents(), nil }},
		{"l2.lookup_ns", true, l2Lookup},
		{"cache.lookup_ns", true, cacheLookup},
		{"directory.codec_ns", true, directoryCodec},
		{"pe.dirdispatch_ns", true, peDirDispatch},
		{"noc.hop_ns", true, nocHop},
	}
	b.micro = map[string]microResult{}
	for _, r := range rigs {
		b.attempted++
		res, err := r.run()
		// A stray runtime allocation can land in a block; a path that
		// allocates allocates in every operation.
		if err == nil && r.allocFree && res.Allocs >= microBlocks {
			err = fmt.Errorf("%s allocates %.4f objects per op; the path must be allocation-free", r.metric, res.AllocsPerOp)
		}
		if err != nil {
			b.fail("%v", err)
			continue
		}
		b.micro[r.metric] = res
		m[r.metric] = metric{res.NsPerOp, "ns"}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the CPU time all of the process's threads have used, in
// ns. Unlike wall-clock time it excludes time the host takes the CPU
// away (preemption, a hypervisor's steal time), and it includes the
// collector's work.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
