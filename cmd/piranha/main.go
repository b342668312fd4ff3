// Command piranha runs simulated machine configurations against
// workloads and prints the paper's metrics: time per transaction, the
// execution-time breakdown, the L1-miss breakdown, and memory statistics.
//
// Usage:
//
//	piranha -config p8 -workload oltp -chips 1 -warm 100 -tx 200
//	piranha -config p1,p8,ooo -workload oltp,dss   # a sweep: every
//	                                               # config x workload pair,
//	                                               # run in parallel
//
// Configurations: p1, p2, p4, p8 (Piranha prototype with N cores), ino,
// ooo (next-generation 1 GHz processor), p8f (full-custom Piranha), pess
// (pessimistic ASIC parameters), and the glueless scale-out machines
// scale8/scale32/scale64/scale256/scale1024 (single-core chips on a 2-D
// torus; -chips must be left alone or match). Workloads: oltp, dss,
// tpcc, web.
//
// -scaling-sweep runs the N-node scaling suite instead: per workload it
// runs ScaleOut machines at each node count ('default' = 8,64,256,1024)
// with a fixed per-node transaction budget and prints throughput,
// speedup vs the smallest machine, and parallel efficiency.
//
// Sweeps fan out across host CPUs (bounded by -parallel); each run is an
// isolated deterministic simulation, so results are printed in sweep
// order and are identical to running each pair alone.
//
// -trace out.json writes a Chrome trace-event file (open in Perfetto or
// chrome://tracing) covering every run in the sweep; -intervals samples
// per-window busy/stall/miss series; -json prints one versioned Result
// object per experiment instead of the text summary. Traces and JSON
// are byte-identical regardless of -parallel.
//
// -faults runs a fault-injection campaign: the flag takes a base plan
// ("default" or "ber=1e-5,loss=1e-4,memflip=1e-4,stall=1e-6,mirror") and
// -fault-grid a list of rate multipliers; every config x workload pair
// runs once per multiplier and a degradation table (throughput vs fault
// rate, with the fault counter block) prints per pair. Campaigns are
// deterministic: the same seed and grid reproduce identical counters and
// curves.
//
// -faults also accepts fail-stop node deaths ("failstop=1@10us", with
// optional "detect=" and "redispatch=" tunables): the node dies that
// long after the measured window starts, its processes migrate, the
// directory is reconstructed at the RAS mirror, and the run reports an
// MTTR and degraded-mode counters.
//
// Combining -load-sweep with -faults runs the composed chaos campaign:
// the load grid crossed with the fault grid, one degradation surface
// (p50/p99/p999, shed rate, SLO violations, MTTR per cell) per config x
// workload pair. See RunChaosSweep.
//
// -arrivals switches runs to open-loop: transactions arrive on a seeded
// stochastic process ("poisson,rate=2e5,cap=256", "mmpp,rate=1.5e5,
// burst=8", "diurnal,rate=2e5,depth=0.8", optionally "mix=oltp:3/dss:1")
// and queue for admission; results grow arrival→completion latency
// percentiles and admission counters. -load-sweep runs the open-loop
// hockey-stick campaign instead: per config x workload pair it
// calibrates closed-loop capacity, offers load at the listed capacity
// multipliers, and prints throughput vs tail latency with the detected
// saturation point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"piranha"
	"piranha/internal/core"
	"piranha/internal/fault"
	"piranha/internal/ras"
	"piranha/internal/runner"
	"piranha/internal/sim"
	"piranha/internal/stats"
	"piranha/internal/trace"
	"piranha/internal/workload"
)

// defaultFaultPlan is the campaign base when -faults=default: rates low
// enough that the machine limps rather than halts, high enough that a
// short smoke run exercises every fault class.
func defaultFaultPlan() fault.Plan {
	return fault.Plan{
		LinkBER:       1e-5,
		MsgLoss:       1e-4,
		MemFlip:       1e-4,
		MemDoubleFrac: 0.1,
		StallProb:     1e-6,
	}
}

// parseFaultPlan parses the -faults spec: "default", or comma-separated
// key=value pairs (ber, loss, memflip, double, stall), the bare "mirror"
// token, fail-stop deaths as "failstop=NODE@TIME" (repeatable; TIME is a
// duration after the measured window starts, e.g. "failstop=1@10us"),
// and the fail-stop tunables "detect=DURATION" / "redispatch=DURATION".
func parseFaultPlan(spec string) (fault.Plan, error) {
	if spec == "default" {
		return defaultFaultPlan(), nil
	}
	var p fault.Plan
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if tok == "mirror" {
			p.Mirrored = true
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return p, fmt.Errorf("bad -faults token %q (want key=value or mirror)", tok)
		}
		switch k {
		case "failstop":
			ns, at, ok := strings.Cut(v, "@")
			if !ok {
				return p, fmt.Errorf("bad -faults failstop %q (want NODE@TIME, e.g. 1@10us)", v)
			}
			node, err := strconv.Atoi(ns)
			if err != nil {
				return p, fmt.Errorf("bad -faults failstop node %q: %v", ns, err)
			}
			d, err := time.ParseDuration(at)
			if err != nil {
				return p, fmt.Errorf("bad -faults failstop time %q: %v", at, err)
			}
			p.FailStop = append(p.FailStop, fault.NodeFailure{
				Node: node, At: sim.Time(d.Nanoseconds()) * sim.Nanosecond,
			})
			continue
		case "detect", "redispatch":
			d, err := time.ParseDuration(v)
			if err != nil {
				return p, fmt.Errorf("bad -faults %s duration %q: %v", k, v, err)
			}
			if k == "detect" {
				p.DetectLatency = sim.Time(d.Nanoseconds()) * sim.Nanosecond
			} else {
				p.RedispatchPenalty = sim.Time(d.Nanoseconds()) * sim.Nanosecond
			}
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return p, fmt.Errorf("bad -faults value %q: %v", tok, err)
		}
		switch k {
		case "ber":
			p.LinkBER = x
		case "loss":
			p.MsgLoss = x
		case "memflip":
			p.MemFlip = x
		case "double":
			p.MemDoubleFrac = x
		case "stall":
			p.StallProb = x
		default:
			return p, fmt.Errorf("unknown -faults key %q (ber|loss|memflip|double|stall|failstop|detect|redispatch|mirror)", k)
		}
	}
	return p, nil
}

// parseGrid parses the -fault-grid multiplier list.
func parseGrid(spec string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		x, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-grid value %q: %v", tok, err)
		}
		out = append(out, x)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-fault-grid is empty")
	}
	return out, nil
}

// faultLine renders one grid row's counters compactly.
func faultLine(fs *piranha.FaultStats) string {
	if fs == nil {
		return "-"
	}
	return fmt.Sprintf("inj=%-6d retrans=%-5d lost=%-4d rec=%-4d mem=%d/%d/%d stalls=%d",
		fs.Injected, fs.Retransmits, fs.MessagesLost, fs.Recovered,
		fs.MemCorrected, fs.MemFailovers, fs.MemUnrecoverable, fs.Stalls)
}

func main() {
	var (
		config    = flag.String("config", "p8", "comma-separated configurations: p1|p2|p4|p8|ino|ooo|p8f|pess")
		work      = flag.String("workload", "oltp", "comma-separated workloads: oltp|dss|tpcc|web")
		chips     = flag.Int("chips", 1, "number of chips (glueless interconnect)")
		warm      = flag.Uint64("warm", 100, "warm-up transactions")
		tx        = flag.Uint64("tx", 200, "measured transactions")
		seed      = flag.Uint64("seed", 0, "workload seed (0 = default)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU, 1 = serial)")
		verbose   = flag.Bool("v", false, "print full statistics")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON file covering all runs")
		jsonOut   = flag.Bool("json", false, "print results as versioned JSON, one object per line")
		intervals = flag.Duration("intervals", 0, "sample interval metrics per window of simulated time (e.g. 2us)")
		faults    = flag.String("faults", "", "fault campaign base plan: 'default' or e.g. 'ber=1e-5,loss=1e-4,memflip=1e-4,stall=1e-6,mirror'")
		faultGrid = flag.String("fault-grid", "0,1,2,4,8", "comma-separated rate multipliers swept per config x workload pair")
		arrivals  = flag.String("arrivals", "", "open-loop arrival stream, e.g. 'poisson,rate=2e5,cap=256' or 'mmpp,rate=1.5e5,burst=8,mix=oltp:3/dss:1' (rate in tx/s of simulated time; with -load-sweep the rate is set per point and may be omitted)")
		loadSweep = flag.String("load-sweep", "", "load-sweep campaign: 'default' or comma-separated capacity multipliers (e.g. '0.3,0.7,0.95,1.2') run open-loop per config x workload pair")
		scaling   = flag.String("scaling-sweep", "", "N-node scaling sweep on the glueless 2-D torus: 'default' (8,64,256,1024) or comma-separated node counts (e.g. '8,64'); -warm/-tx become per-node budgets when set")
		scaleCPUs = flag.Int("scale-cpus", 1, "cores per chip for -scaling-sweep machines")
	)
	flag.Parse()

	var arrivalSpec piranha.Arrivals
	if *arrivals != "" {
		spec := *arrivals
		if *loadSweep != "" && !strings.Contains(spec, "rate=") {
			// Sweep mode overrides the rate per point; let the template
			// omit it.
			spec += ",rate=1"
		}
		var err error
		if arrivalSpec, err = workload.ParseArrivals(spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	var (
		basePlan fault.Plan
		grid     []float64
	)
	if *faults != "" {
		var err error
		if basePlan, err = parseFaultPlan(*faults); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if grid, err = parseGrid(*faultGrid); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	sysByName := map[string]piranha.SystemConfig{
		"p1": piranha.P1(), "p2": piranha.P2(), "p4": piranha.P4(),
		"p8": piranha.P8(), "ino": piranha.INO(), "ooo": piranha.OOO(),
		"p8f": piranha.P8F(), "pess": piranha.Pessimistic(),
		"scale8": piranha.ScaleOut8(), "scale32": piranha.ScaleOut32(),
		"scale64": piranha.ScaleOut64(), "scale256": piranha.ScaleOut256(),
		"scale1024": piranha.ScaleOut1024(),
	}
	// lookup resolves a -config name and applies -chips: flat-network
	// configs take the flag verbatim; scale-out configs carry their own
	// torus, so a conflicting -chips is a diagnostic, not a mis-built
	// machine (the Validate call is the NewSystemErr check run early).
	lookup := func(c string) piranha.SystemConfig {
		sys, ok := sysByName[c]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown config %q\n", c)
			os.Exit(2)
		}
		if sys.Topology == nil || *chips != 1 {
			sys.Chips = *chips
		}
		if err := sys.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "config %q: %v (drop -chips or pick the matching scale-out preset)\n", c, err)
			os.Exit(2)
		}
		return sys
	}
	kindByName := map[string]core.WorkloadKind{
		"oltp": core.OLTP, "dss": core.DSS, "tpcc": core.TPCC, "web": core.WEB,
	}

	workloads := strings.Split(*work, ",")

	if *scaling != "" {
		// N-node scaling suite: one weak-scaling sweep per workload over
		// ScaleOut machines (§2.6's 1024-node design target). -config is
		// ignored — the machine is derived from the node counts.
		cfg := piranha.ScalingSweep{
			CPUsPerChip: *scaleCPUs,
			Seed:        *seed,
		}
		if *scaling != "default" {
			for _, tok := range strings.Split(*scaling, ",") {
				n, err := strconv.Atoi(strings.TrimSpace(tok))
				if err != nil || n < 2 {
					fmt.Fprintf(os.Stderr, "bad -scaling-sweep node count %q\n", tok)
					os.Exit(2)
				}
				cfg.Nodes = append(cfg.Nodes, n)
			}
		}
		// -warm/-tx default to the sweep's per-node budget; honor them
		// only when the user set them (as per-node counts).
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "warm":
				cfg.PerNode.Warm = *warm
			case "tx":
				cfg.PerNode.Measure = *tx
			}
		})
		if cfg.PerNode.Warm > 0 || cfg.PerNode.Measure > 0 {
			if cfg.PerNode.Warm == 0 {
				cfg.PerNode.Warm = piranha.DefaultPerNodeScale.Warm
			}
			if cfg.PerNode.Measure == 0 {
				cfg.PerNode.Measure = piranha.DefaultPerNodeScale.Measure
			}
		}
		piranha.SetParallelism(*parallel)
		enc := json.NewEncoder(os.Stdout)
		for _, w := range workloads {
			kind, ok := kindByName[w]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q\n", w)
				os.Exit(2)
			}
			s := piranha.RunScalingSweep(piranha.Workload{Kind: kind}, cfg)
			if *jsonOut {
				if err := enc.Encode(s); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				continue
			}
			fmt.Println(s)
		}
		return
	}

	if *loadSweep != "" && *faults != "" {
		// Composed chaos campaign: the load sweep crossed with the fault
		// grid — one degradation surface per config x workload pair, each
		// cell a full open-loop run under the scaled plan (fail-stop
		// deaths kept verbatim at any multiplier > 0).
		mults := piranha.DefaultChaosLoadMultipliers
		if *loadSweep != "default" {
			var err error
			if mults, err = parseGrid(*loadSweep); err != nil {
				fmt.Fprintln(os.Stderr, strings.Replace(err.Error(), "-fault-grid", "-load-sweep", 1))
				os.Exit(2)
			}
		}
		piranha.SetParallelism(*parallel)
		enc := json.NewEncoder(os.Stdout)
		for _, c := range strings.Split(*config, ",") {
			sys := lookup(c)
			for _, w := range workloads {
				kind, ok := kindByName[w]
				if !ok {
					fmt.Fprintf(os.Stderr, "unknown workload %q\n", w)
					os.Exit(2)
				}
				s := piranha.RunChaosSweep(sys, piranha.Workload{Kind: kind}, piranha.ChaosSweep{
					Multipliers: mults,
					FaultMults:  grid,
					Plan:        basePlan,
					Arrivals:    arrivalSpec,
					Scale:       piranha.Scale{Warm: *warm, Measure: *tx},
					Seed:        *seed,
					Intervals:   *intervals,
				})
				s.Name = c + "/" + w
				if *jsonOut {
					if err := enc.Encode(s); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					continue
				}
				fmt.Println(s)
			}
		}
		return
	}

	if *loadSweep != "" {
		// Load-sweep campaign: one hockey-stick curve per config x
		// workload pair, each sweep fanning its points across the batch
		// pool. Output (text or JSON) is deterministic for a given seed.
		mults := piranha.DefaultSweepMultipliers
		if *loadSweep != "default" {
			var err error
			if mults, err = parseGrid(*loadSweep); err != nil {
				fmt.Fprintln(os.Stderr, strings.Replace(err.Error(), "-fault-grid", "-load-sweep", 1))
				os.Exit(2)
			}
		}
		piranha.SetParallelism(*parallel)
		enc := json.NewEncoder(os.Stdout)
		for _, c := range strings.Split(*config, ",") {
			sys := lookup(c)
			for _, w := range workloads {
				kind, ok := kindByName[w]
				if !ok {
					fmt.Fprintf(os.Stderr, "unknown workload %q\n", w)
					os.Exit(2)
				}
				s := piranha.RunLoadSweep(sys, piranha.Workload{Kind: kind}, piranha.LoadSweep{
					Multipliers: mults,
					Arrivals:    arrivalSpec,
					Scale:       piranha.Scale{Warm: *warm, Measure: *tx},
					Seed:        *seed,
					Intervals:   *intervals,
				})
				s.Name = c + "/" + w
				if *jsonOut {
					if err := enc.Encode(s); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					continue
				}
				fmt.Println(s)
			}
		}
		return
	}
	var exps []core.Experiment
	var pairs []string // campaign mode: config/workload group labels
	for _, c := range strings.Split(*config, ",") {
		sys := lookup(c)
		for _, w := range workloads {
			kind, ok := kindByName[w]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown workload %q\n", w)
				os.Exit(2)
			}
			name := c
			if len(workloads) > 1 {
				// Disambiguate sweep rows: the same config appears once
				// per workload.
				name = c + "/" + w
			}
			e := core.Experiment{
				Name:      name,
				Sys:       sys,
				Work:      core.WorkloadSpec{Kind: kind, Arrivals: arrivalSpec},
				WarmTx:    *warm,
				MeasureTx: *tx,
				Seed:      *seed,
				Intervals: sim.Time(intervals.Nanoseconds()) * sim.Nanosecond,
			}
			if *traceOut != "" {
				e.Trace = trace.New(0)
			}
			if *faults == "" {
				exps = append(exps, e)
				continue
			}
			// Campaign mode: one run per grid multiplier. Every run gets
			// a private failover target — experiments execute in parallel
			// and must not share mutable state.
			pairs = append(pairs, name)
			for _, m := range grid {
				ge := e
				ge.Name = fmt.Sprintf("%s x%g", name, m)
				ge.Faults = basePlan.Scaled(m)
				if ge.Faults.Mirrored {
					ge.FaultEscalate = ras.NewFailover(0).Uncorrectable
				}
				if len(ge.Faults.FailStop) > 0 {
					ge.FaultAdopt = ras.NewFailover(0).Takeover
				}
				exps = append(exps, ge)
			}
		}
	}

	failed := false
	enc := json.NewEncoder(os.Stdout)
	outs := runner.Run(context.Background(), exps, *parallel)

	if *faults != "" && !*jsonOut {
		// Degradation tables: one per config x workload pair, rows in
		// grid order (results arrive in input order, pair-major).
		for pi, pair := range pairs {
			fmt.Printf("fault campaign %s: plan ber=%g loss=%g memflip=%g(double=%g) stall=%g mirrored=%v seed=%d\n",
				pair, basePlan.LinkBER, basePlan.MsgLoss, basePlan.MemFlip,
				basePlan.MemDoubleFrac, basePlan.StallProb, basePlan.Mirrored, *seed)
			fmt.Printf("  %-8s %-10s %-8s %s\n", "xrate", "ns/tx", "rel-tput", "faults")
			var baseNs float64
			tputs := make([]float64, 0, len(grid))
			for gi, m := range grid {
				out := outs[pi*len(grid)+gi]
				if out.Err != nil {
					fmt.Fprintln(os.Stderr, out.Err)
					failed = true
					tputs = append(tputs, 0)
					continue
				}
				res := out.Result
				if baseNs == 0 {
					baseNs = res.TimePerTx
				}
				rel := 0.0
				if res.TimePerTx > 0 {
					rel = baseNs / res.TimePerTx
				}
				tputs = append(tputs, rel)
				fmt.Printf("  %-8g %-10.0f %-8.3f %s\n", m, res.TimePerTx, rel, faultLine(res.Faults))
				if res.Series.Len() > 0 && *verbose {
					fmt.Print(res.Series)
				}
			}
			fmt.Printf("  tput vs rate |%s|\n", stats.Sparkline(tputs))
		}
		if failed {
			os.Exit(1)
		}
		return
	}

	for _, out := range outs {
		if out.Err != nil {
			fmt.Fprintln(os.Stderr, out.Err)
			failed = true
			continue
		}
		res := out.Result
		if *jsonOut {
			if err := enc.Encode(res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			}
			continue
		}
		fmt.Println(res)
		if res.Lat != nil {
			fmt.Println(res.Lat)
		}
		if res.Admission != nil {
			a := res.Admission
			fmt.Printf("admission: arrivals=%d admitted=%d shed=%d completed=%d maxdepth=%d\n",
				a.Arrivals, a.Admitted, a.Shed, a.Completed, a.MaxDepth)
		}
		if res.Series.Len() > 0 {
			fmt.Print(res.Series)
		}
		if *verbose {
			busy, hit, miss, other := res.Agg.Normalized(res.Agg.Total())
			fmt.Printf("\nexecution time breakdown:\n")
			fmt.Printf("  CPU busy       %6.1f%%\n", busy*100)
			fmt.Printf("  L2 hit stall   %6.1f%%\n", hit*100)
			fmt.Printf("  L2 miss stall  %6.1f%%\n", miss*100)
			fmt.Printf("  other/idle     %6.1f%%\n", other*100)
			h, f, m := res.Miss.Fractions()
			fmt.Printf("\nL1 miss breakdown (total %d):\n", res.Miss.Total())
			fmt.Printf("  L2 hit  %6.1f%%\n  L2 fwd  %6.1f%%\n  L2 miss %6.1f%%\n", h*100, f*100, m*100)
			fmt.Printf("\nper-tx L2 controller events: hit=%.0f fwd=%.0f upgrade=%.0f mem=%.0f inval=%.0f wb2=%.0f wbmem=%.0f\n",
				float64(res.L2.Hits)/float64(res.Tx), float64(res.L2.Fwds)/float64(res.Tx),
				float64(res.L2.Upgrades)/float64(res.Tx), float64(res.L2.LocalMem+res.L2.Remote+res.L2.RemoteDirty)/float64(res.Tx),
				float64(res.L2.Invals)/float64(res.Tx), float64(res.L2.WritebacksToL2)/float64(res.Tx),
				float64(res.L2.WritebacksToMem)/float64(res.Tx))
			fmt.Printf("core svc counts per tx: L1=%.0f hit=%.0f fwd=%.0f mem=%.0f rem=%.0f dirty=%.0f\n",
				float64(res.Svc[0])/float64(res.Tx), float64(res.Svc[1])/float64(res.Tx),
				float64(res.Svc[2])/float64(res.Tx), float64(res.Svc[3])/float64(res.Tx),
				float64(res.Svc[4])/float64(res.Tx), float64(res.Svc[5])/float64(res.Tx))
			fmt.Printf("instructions retired: %d\n", res.Instructions)
			fmt.Printf("context switches:     %d\n", res.CtxSwitches)
			fmt.Printf("open-page hit rate:   %.1f%%\n", res.PageHitRate*100)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		traces := make([]*trace.Tracer, len(exps))
		labels := make([]string, len(exps))
		for i, e := range exps {
			traces[i], labels[i] = e.Trace, e.Name
		}
		if err := trace.WriteChromeMulti(f, traces, labels, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}
