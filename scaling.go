package piranha

import (
	"fmt"
	"strings"

	"piranha/internal/core"
	"piranha/internal/stats"
)

// ScalingSweep configures RunScalingSweep: a weak-scaling sweep over
// node count on the glueless 2-D torus (ScaleOut machines), the
// simulator's reproduction of the paper's §2.6 scaling argument.
type ScalingSweep struct {
	// Nodes are the machine sizes to run. Empty selects
	// DefaultScalingNodes.
	Nodes []int
	// CPUsPerChip sets the cores per node (default 1 — the scaling
	// suite measures the interconnect and protocol, not the chip).
	CPUsPerChip int
	// PerNode is the per-node transaction budget: each point warms
	// PerNode.Warm x N and measures PerNode.Measure x N transactions,
	// so every node does the same work at every size (weak scaling).
	// The zero value selects DefaultPerNodeScale.
	PerNode Scale
	// Seed mirrors the Run option and applies to every point alike.
	Seed uint64
}

// DefaultScalingNodes are the paper-motivated sweep points: 8 through
// the 1024-node design target.
var DefaultScalingNodes = []int{8, 64, 256, 1024}

// DefaultPerNodeScale keeps the largest point tractable: 4 measured
// transactions per node is 4096 at 1024 nodes.
var DefaultPerNodeScale = Scale{Warm: 1, Measure: 4}

// ScalingPoint is one node-count point of a scaling sweep.
type ScalingPoint struct {
	Nodes      int     `json:"nodes"`
	CPUs       int     `json:"cpus"`
	NsPerTx    float64 `json:"ns_per_tx"`
	TxPerS     float64 `json:"tx_per_s"`
	Speedup    float64 `json:"speedup"`    // throughput vs the first point
	Efficiency float64 `json:"efficiency"` // Speedup / (Nodes/Nodes[0])
	Result     Result  `json:"result"`
}

// ScalingResult is a full scaling sweep.
type ScalingResult struct {
	Name   string         `json:"name"`
	Points []ScalingPoint `json:"points"`
}

// RunScalingSweep runs one workload across ScaleOut machines at each
// cfg.Nodes size and reports throughput, speedup relative to the
// smallest machine, and parallel efficiency — the simulator's version
// of the paper's OLTP/DSS scaling curves. Points run concurrently
// (SetParallelism) yet the result is deterministic: the same seed and
// config reproduce identical curves, byte for byte, at any worker count.
func RunScalingSweep(w Workload, cfg ScalingSweep) ScalingResult {
	nodes := cfg.Nodes
	if len(nodes) == 0 {
		nodes = DefaultScalingNodes
	}
	cpus := cfg.CPUsPerChip
	if cpus < 1 {
		cpus = 1
	}
	per := cfg.PerNode
	if per == (Scale{}) {
		per = DefaultPerNodeScale
	}
	name := string(w.Kind)
	if name == "" {
		name = string(core.OLTP)
	}

	exps := make([]Experiment, len(nodes))
	for i, n := range nodes {
		exps[i] = core.Experiment{
			Name:      fmt.Sprintf("%s@%dn", name, n),
			Sys:       ScaleOut(n, cpus),
			Work:      w,
			WarmTx:    per.Warm * uint64(n),
			MeasureTx: per.Measure * uint64(n),
			Seed:      cfg.Seed,
		}
	}
	results := RunBatch(exps)

	pts := make([]ScalingPoint, len(results))
	for i, r := range results {
		p := ScalingPoint{
			Nodes:   nodes[i],
			CPUs:    nodes[i] * cpus,
			NsPerTx: r.TimePerTx,
			Result:  r,
		}
		if r.TimePerTx > 0 {
			p.TxPerS = 1e9 / r.TimePerTx
		}
		if base := pts[0].TxPerS; i > 0 && base > 0 {
			p.Speedup = p.TxPerS / base
			p.Efficiency = p.Speedup * float64(nodes[0]) / float64(nodes[i])
		} else if i == 0 {
			p.Speedup = 1
			p.Efficiency = 1
		}
		pts[i] = p
	}
	return ScalingResult{Name: name, Points: pts}
}

// String renders the sweep as a table plus a speedup sparkline.
func (s ScalingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scaling sweep %s (weak scaling, 2-D torus)\n", s.Name)
	fmt.Fprintf(&b, "  %-7s %-6s %-12s %-12s %-9s %s\n",
		"nodes", "cpus", "ns/tx", "tx/s", "speedup", "efficiency")
	speed := make([]float64, len(s.Points))
	for i, p := range s.Points {
		fmt.Fprintf(&b, "  %-7d %-6d %-12.0f %-12.0f %-9.2f %.2f\n",
			p.Nodes, p.CPUs, p.NsPerTx, p.TxPerS, p.Speedup, p.Efficiency)
		speed[i] = p.Speedup
	}
	fmt.Fprintf(&b, "  speedup vs nodes |%s|", stats.Sparkline(speed))
	return b.String()
}
