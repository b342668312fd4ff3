// Command figures regenerates every table and figure of the paper's
// evaluation (plus the quantitative claims made in the text) and prints
// them as ASCII tables and bar charts. See EXPERIMENTS.md for the
// paper-vs-measured record these outputs feed.
//
// Usage:
//
//	figures             # paper-scale transaction counts (slower)
//	figures -quick      # reduced counts for a fast sanity pass
//	figures -parallel 4 # bound the simulation worker pool (0 = all CPUs)
//	figures -only fig5  # one artifact: table1, fig5, fig6, fig7, fig8,
//	                    # fig9, tpcc, pess, openpage, cmi, nonak,
//	                    # microcode, link, directory, scaling (opt-in:
//	                    # the N-node torus suite runs only when named)
//
// Every simulation is deterministic and self-contained, so artifacts are
// generated concurrently (and each config sweep fans out internally via
// piranha.RunBatch); the printed output is identical to a serial run.
//
// -intervals 2us appends per-run ASCII sparklines (busy, busy fraction,
// miss rate per window) to each report; -trace out.json additionally
// captures a Chrome trace-event file covering every simulated run;
// -json prints each report as a JSON object instead of text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"piranha"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced transaction counts")
	only := flag.String("only", "", "generate a single artifact")
	parallel := flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU, 1 = serial)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file covering all runs")
	jsonOut := flag.Bool("json", false, "print reports as JSON objects, one per line")
	intervals := flag.Duration("intervals", 0, "sample interval metrics per window of simulated time (e.g. 2us)")
	flag.Parse()

	piranha.SetParallelism(*parallel)
	if *intervals > 0 {
		piranha.SetIntervals(*intervals)
	}
	if *traceOut != "" {
		piranha.SetTraceCapture(0)
	}

	scale := piranha.PaperScale
	if *quick {
		scale = piranha.QuickScale
	}

	artifacts := []struct {
		name string
		gen  func() piranha.FigureReport
	}{
		{"table1", func() piranha.FigureReport { return piranha.Table1() }},
		{"fig5", func() piranha.FigureReport { return piranha.Fig5(scale) }},
		{"fig6", func() piranha.FigureReport { return piranha.Fig6(scale) }},
		{"fig7", func() piranha.FigureReport { return piranha.Fig7(scale) }},
		{"fig8", func() piranha.FigureReport { return piranha.Fig8(scale) }},
		{"tpcc", func() piranha.FigureReport { return piranha.TextTPCC(scale) }},
		{"tradeoff", func() piranha.FigureReport { return piranha.TextCacheTradeoff(scale) }},
		{"inclusion", func() piranha.FigureReport { return piranha.AblationInclusion(scale) }},
		{"pess", func() piranha.FigureReport { return piranha.TextPessimistic(scale) }},
		{"openpage", func() piranha.FigureReport { return piranha.Sec24OpenPage() }},
		{"cmi", func() piranha.FigureReport { return piranha.Sec253CMI() }},
		{"nonak", func() piranha.FigureReport { return piranha.Sec253NoNAK() }},
		{"microcode", func() piranha.FigureReport { return piranha.Sec251Microcode() }},
		{"link", func() piranha.FigureReport { return piranha.Sec261LinkCode() }},
		{"directory", func() piranha.FigureReport { return piranha.DirectoryNote() }},
		{"fig9", func() piranha.FigureReport { return piranha.Fig9Area() }},
		// Opt-in (see the selection loop): the N-node scaling suite
		// simulates up to 1024-node machines, so it runs only when named
		// by -only — the default figures_output.txt golden is unchanged.
		{"scaling", func() piranha.FigureReport { return piranha.ScalingSuite(scale) }},
	}

	var selected []struct {
		name string
		gen  func() piranha.FigureReport
	}
	for _, a := range artifacts {
		if a.name == *only || (*only == "" && a.name != "scaling") {
			selected = append(selected, a)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown artifact %q\n", *only)
		os.Exit(2)
	}

	// Artifacts are independent deterministic computations: generate them
	// concurrently (bounded by the same worker budget as the sweeps), but
	// print strictly in the canonical order. Trace capture accumulates
	// batches in submission order, so it needs the artifacts themselves
	// generated sequentially (each sweep still fans out internally).
	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	reports := make([]piranha.FigureReport, len(selected))
	if *traceOut != "" {
		for i, a := range selected {
			reports[i] = a.gen()
		}
	} else {
		sem := make(chan struct{}, workers)
		done := make(chan int)
		for i, a := range selected {
			i, a := i, a
			//piranha:allow determinism reports land in index-ordered slots and print serially after the barrier
			go func() {
				sem <- struct{}{}
				reports[i] = a.gen()
				<-sem
				done <- i
			}()
		}
		for range selected {
			<-done
		}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, r := range reports {
		if *jsonOut {
			if err := enc.Encode(reportJSON{ID: r.ID, Title: r.Title, Metrics: r.Metrics, Results: r.Results}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			continue
		}
		fmt.Println(r)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := piranha.WriteCapturedTraces(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// reportJSON is the -json wire form of one artifact; each result inside
// carries its own schema_version (see DESIGN.md).
type reportJSON struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
	Results []piranha.Result   `json:"results,omitempty"`
}
