// Command perfbench is the simulator's benchmark: host time per
// simulated transaction on three closed-loop workloads, with per-layer
// host self time and simulated counts. Run it through run.sh, which
// builds it from the checkout's sources:
//
//	bash perfbench/run.sh --workload oltp-p8 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times core.Run in several fresh processes and prints
// the end-to-end metrics; with --trace 1 it runs the per-call rigs and
// the same experiment traced under a CPU profile and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md lists
// every metric and what should move it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload: oltp-p8, dss-p8 or oltp-torus64")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "seconds to measure")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled, traced run")
	childMs := flag.Int("child-ms", 0, "internal: measure for this many ms as one of --trace 0's processes and print its samples")
	flag.Parse()
	s, ok := lookup(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *childMs < 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {oltp-p8|dss-p8|oltp-torus64} --seed N --seconds N>=1 --trace {0|1}\n")
		os.Exit(2)
	}
	// The engine is serial: one P keeps the collector's work on the
	// measured thread instead of in idle-time workers on another CPU.
	runtime.GOMAXPROCS(1)
	b := &bench{spec: s, seed: *seed, spawn: spawnChild}

	if *childMs > 0 {
		b.budget = time.Duration(*childMs) * time.Millisecond
		printJSON(b.child())
		return
	}

	b.budget = time.Duration(*seconds) * time.Second
	metrics := b.run(*traced == 1)
	mode := "timed"
	if *traced == 1 {
		mode = "profiled+traced"
	}
	printIndented(report{
		Workload:    s.Name,
		Why:         s.Why,
		Seed:        *seed,
		HeldOutSeed: heldOutSeed,
		Mode:        mode,
		Clock:       clockNote,
		Host:        hostInfo(),
		Scale:       scaleInfo{WarmTx: s.Warm, MeasureTx: s.Measure, Caches: s.Caches},
		Experiments: b.samples,
		Unscaled:    b.raw,
		Fingerprint: b.fingerprint,
		Layers:      b.layers,
		Micro:       b.micro,
		Errors:      b.errs,
		Metrics:     metrics,
	})
	for _, e := range b.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", e)
	}
	printJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.errs) == 0, b.attempted, b.failed, metrics})
}

func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func printIndented(v any) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// clockNote says how host time is measured.
const clockNote = "core.Run and set-up are timed in process CPU time (getrusage user+system: the collector's " +
	"work counts, time the host takes the CPU away does not) with GOMAXPROCS=1; the per-call rigs in wall-clock time"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the self-describing block printed before the result line.
type report struct {
	Workload    string                 `json:"workload"`
	Why         string                 `json:"why"`
	Seed        uint64                 `json:"seed"`
	HeldOutSeed uint64                 `json:"held_out_seed"`
	Mode        string                 `json:"mode"`
	Clock       string                 `json:"clock"`
	Host        host                   `json:"host"`
	Scale       scaleInfo              `json:"scale"`
	Experiments int                    `json:"timed_experiments"`
	Unscaled    map[string]float64     `json:"unscaled,omitempty"`
	Fingerprint string                 `json:"fingerprint,omitempty"`
	Layers      map[string]float64     `json:"host_self_ns_per_tx_all_layers,omitempty"`
	Micro       map[string]microResult `json:"micro,omitempty"`
	Errors      []string               `json:"errors,omitempty"`
	Metrics     map[string]metric      `json:"metrics"`
}

type scaleInfo struct {
	WarmTx    uint64 `json:"warm_tx"`
	MeasureTx uint64 `json:"measure_tx"`
	Caches    string `json:"caches"`
}

type host struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() host {
	h := host{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
