// Command effbench regenerates the tables and figures of the paper's
// evaluation section (Duck & Yap, PLDI 2018, §6) from the reproduction's
// workloads:
//
//	effbench -experiment fig1    sanitizer capability matrix (Fig. 1)
//	effbench -experiment fig7    SPEC2006 summary: checks and issues (Fig. 7)
//	effbench -experiment fig8    SPEC2006 + progen timings, ten configurations (Fig. 8)
//	effbench -experiment fig9    peak memory (Fig. 9)
//	effbench -experiment fig10   browser workloads (relative time) and the
//	                             sharded multi-threaded SPEC scalability curve
//	effbench -experiment tools   §6.2 overhead comparison of baseline tools
//	effbench -experiment all     everything above
//
// Two extra experiments sit outside "all" (a correctness harness and a
// memory study, not paper figures):
//
//	effbench -experiment difftest   the differential-fuzz oracle loop —
//	                                progen libc programs swept through the
//	                                whole elision/cache/sharding
//	                                matrix, asserting byte-identical values
//	                                and report buckets; -seed picks the
//	                                base progen seed
//
//	effbench -experiment layoutmem  layout-table memory at scale — the
//	                                type-explosion workload under a sweep
//	                                of layout-cache capacities, reporting
//	                                resident bytes, intern hit rate,
//	                                rebuild rate and check throughput;
//	                                -layoutmem-n and -layoutmem-caps size
//	                                the sweep, -json-layoutmem emits it
//
// The fig10 scalability curve is governed by -threads (top of the thread
// curve) and -jobs (jobs per workload per point); see docs/BENCHMARKS.md
// for every flag, knob combination and the JSON schemas emitted by
// -json (Fig. 8 series) and -json-fig10 (Fig. 10 series).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"strconv"
	"strings"

	"repro/internal/difftest"
	"repro/internal/harness"
	"repro/internal/progen"
)

// fig8JSON is the machine-readable form of the Fig. 8 series, committed
// as BENCH_fig8.json so successive PRs have a perf trajectory.
type fig8JSON struct {
	Experiment string            `json:"experiment"`
	Rows       []harness.Fig8Row `json:"rows"`
	// GoMaxProcs records the measuring machine's parallelism. The bars
	// themselves are single-threaded, but the test suite (and CI) runs
	// them under contention, so cross-run comparisons should confirm the
	// parallelism matched before reading small deltas as regressions.
	GoMaxProcs      int                `json:"gomaxprocs"`
	GeomeanOverhead map[string]float64 `json:"geomean_overhead"`
	// Caveat flags measurement conditions that bias the bars — currently
	// set when GOMAXPROCS is 1, where timer resolution and run-to-run
	// scheduling noise dominate the cheap ablation gaps.
	Caveat string `json:"caveat,omitempty"`
}

// fig10JSON is the machine-readable form of the Fig. 10 series — the
// browser relative-time bars plus the sharded SPEC scalability curve —
// committed as BENCH_fig10.json.
type fig10JSON struct {
	Experiment string `json:"experiment"`
	Threads    []int  `json:"threads"`
	Jobs       int    `json:"jobs_per_workload"`
	// GoMaxProcs and NumCPU record the measuring machine's parallelism:
	// wall-clock speedup is bounded by them, so a flat curve from a
	// single-core CI box is expected, not a regression.
	GoMaxProcs int                       `json:"gomaxprocs"`
	NumCPU     int                       `json:"num_cpu"`
	Workloads  []string                  `json:"workloads"`
	Browser    []harness.Fig10Row        `json:"browser"`
	Scaling    []harness.Fig10ScalingRow `json:"scaling"`
	// AllocScaling is the allocation-bound row: the alloc-heavy progen
	// workload with per-worker heap magazines on vs off (empty when
	// -alloc-heavy=false).
	AllocScaling []harness.AllocHeavyRow `json:"alloc_scaling,omitempty"`
	// Caveat flags measurement conditions that make the scaling rows
	// unfit for speedup conclusions — currently set when GOMAXPROCS is 1,
	// where every thread count serializes onto one core and the curve is
	// flat by construction.
	Caveat string `json:"caveat,omitempty"`
}

// layoutmemJSON is the machine-readable form of the layout-memory
// sweep, committed as BENCH_layoutmem.json next to the fig8/fig10
// series.
type layoutmemJSON struct {
	Experiment string `json:"experiment"`
	// N is the type population of the workload (distinct struct shapes).
	N    int   `json:"n"`
	Caps []int `json:"caps"`
	// GoMaxProcs records the measuring machine's parallelism; the sweep
	// itself is single-threaded, but CI runs it under contention, so
	// wall-clock columns compare only within a run.
	GoMaxProcs int                    `json:"gomaxprocs"`
	Rows       []harness.LayoutMemRow `json:"rows"`
}

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: fig1, fig7, fig8, fig9, fig10, tools, all, "+
			"difftest (the differential oracle loop; not part of all), "+
			"or layoutmem (the layout-cache capacity sweep; not part of all)")
	seed := flag.Int64("seed", 1,
		"base progen seed for the difftest experiment's generated programs")
	repeat := flag.Int("repeat", 3, "timing repetitions (best-of) for fig8")
	threads := flag.Int("threads", 16,
		"top of the fig10 scalability thread curve (measures 1,2,4,... up to N)")
	jobs := flag.Int("jobs", 16,
		"jobs per workload per fig10 scalability point")
	allocHeavy := flag.Bool("alloc-heavy", true,
		"include the fig10 alloc-heavy row (per-worker heap magazines vs the locked central heap)")
	jsonPath := flag.String("json", "",
		"also write the fig8 series as JSON to this path (requires fig8 to run)")
	json10Path := flag.String("json-fig10", "",
		"also write the fig10 series as JSON to this path (requires fig10 to run)")
	layoutmemN := flag.Int("layoutmem-n", 2048,
		"type population (distinct struct shapes) for the layoutmem experiment")
	layoutmemCaps := flag.String("layoutmem-caps", "0,4096,256",
		"comma-separated layout-cache capacities for the layoutmem sweep (0 = unbounded)")
	jsonLayoutmemPath := flag.String("json-layoutmem", "",
		"also write the layoutmem sweep as JSON to this path (requires layoutmem to run)")
	flag.Parse()

	// The differential oracle loop is deliberately NOT part of
	// -experiment all: it is a pass/fail correctness harness over the
	// whole configuration matrix, not a figure, and "all" must keep
	// regenerating exactly the paper's evaluation artifacts.
	if *experiment == "difftest" {
		if err := runDifftest(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "effbench: difftest: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// The layout-memory sweep is likewise outside "all": it studies the
	// metadata subsystem under a synthetic type explosion, not a figure
	// from the paper's evaluation.
	if *experiment == "layoutmem" {
		if err := runLayoutMem(*layoutmemCaps, *layoutmemN, *jsonLayoutmemPath); err != nil {
			fmt.Fprintf(os.Stderr, "effbench: layoutmem: %v\n", err)
			os.Exit(1)
		}
		return
	}

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "effbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig1", func() error {
		_, err := harness.Fig1(os.Stdout)
		return err
	})
	run("fig7", func() error {
		_, err := harness.Fig7(os.Stdout)
		return err
	})
	run("fig8", func() error {
		rows, err := harness.Fig8(os.Stdout, *repeat)
		if err != nil || *jsonPath == "" {
			return err
		}
		out := fig8JSON{Experiment: "fig8", Rows: rows,
			GoMaxProcs: runtime.GOMAXPROCS(0), GeomeanOverhead: map[string]float64{}}
		if out.GoMaxProcs == 1 {
			out.Caveat = "bars measured with GOMAXPROCS=1: scheduling noise " +
				"and timer resolution dominate the cheap ablation gaps, so " +
				"read only the large-overhead orderings"
			fmt.Fprintf(os.Stderr, "effbench: warning: %s\n", out.Caveat)
		}
		// Derive the instrumented configurations from the rows themselves,
		// so added or renamed Fig. 8 bars flow into the JSON automatically.
		if len(rows) > 0 {
			for cfg := range rows[0].Seconds {
				if cfg != "Uninstrumented" {
					out.GeomeanOverhead[cfg] = harness.OverheadGeomean(rows, cfg)
				}
			}
		}
		return writeJSON(*jsonPath, out)
	})
	run("fig9", func() error {
		_, err := harness.Fig9(os.Stdout)
		return err
	})
	run("fig10", func() error {
		browser, err := harness.Fig10(os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		curve := harness.ThreadCurve(*threads)
		caveat := ""
		if runtime.GOMAXPROCS(0) == 1 {
			caveat = "scaling rows measured with GOMAXPROCS=1: all workers " +
				"share one core, so flat speedup curves are expected — in " +
				"the SPEC scaling rows and the alloc-heavy magazine rows " +
				"alike — and say nothing about the runtime's scalability"
			fmt.Fprintf(os.Stderr, "effbench: warning: %s\n", caveat)
		}
		workloads := harness.Fig10ScalingWorkloads()
		scaling, err := harness.Fig10Scaling(os.Stdout, curve, *jobs, workloads)
		if err != nil {
			return err
		}
		var alloc []harness.AllocHeavyRow
		if *allocHeavy {
			fmt.Println()
			if alloc, err = harness.Fig10AllocHeavy(os.Stdout, curve, *jobs); err != nil {
				return err
			}
		}
		if *json10Path == "" {
			return nil
		}
		return writeJSON(*json10Path, fig10JSON{
			Experiment: "fig10", Threads: curve, Jobs: *jobs,
			GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Workloads: workloads, Browser: browser, Scaling: scaling,
			AllocScaling: alloc, Caveat: caveat,
		})
	})
	run("tools", func() error {
		_, err := harness.ToolComparison(os.Stdout, nil)
		return err
	})
}

// runDifftest is the -experiment difftest entry: it sweeps progen libc
// programs (option byte exhausted twice over, seeds ascending from the
// -seed base) through the full differential matrix and fails on the
// first run if any configuration disagrees with the single-threaded
// precise oracle. Disagreements are shrunk and written as replayable
// fuzz-corpus files under internal/difftest/testdata/failures.
func runDifftest(seed int64) error {
	const programs = 512
	cfgs := difftest.Matrix()
	fmt.Printf("Differential oracle: %d progen libc programs x %d configurations (base seed %d)\n",
		programs, len(cfgs), seed)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "effbench: note: GOMAXPROCS=1 serializes the sharded "+
			"cells onto one core; agreement checking is unaffected, only slower")
	}
	mismatches := 0
	for i := 0; i < programs; i++ {
		in := difftest.EncodeInput(seed+int64(i), progen.Options{})
		in[8] = byte(i)
		s, opts, _ := difftest.DecodeInput(in)
		prog, err := difftest.Build(s, opts)
		if err != nil {
			return err
		}
		mm, err := difftest.Check(prog)
		if err != nil {
			return err
		}
		if mm != nil {
			mismatches++
			min := difftest.Shrink(s, opts)
			path, werr := difftest.WriteReproducer(
				filepath.Join("internal", "difftest", "testdata", "failures"), s, min)
			if werr != nil {
				path = fmt.Sprintf("(reproducer write failed: %v)", werr)
			}
			fmt.Printf("MISMATCH seed %d opts %+v:\n%s\nshrunk reproducer: %s\n", s, opts, mm, path)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d/%d programs disagreed with the oracle", mismatches, programs)
	}
	fmt.Printf("all %d programs agree byte-for-byte across all %d configurations\n",
		programs, len(cfgs))
	return nil
}

// runLayoutMem is the -experiment layoutmem entry: it parses the
// capacity list, runs the sweep and optionally writes the JSON series.
func runLayoutMem(capsSpec string, n int, jsonPath string) error {
	var caps []int
	for _, f := range strings.Split(capsSpec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return fmt.Errorf("bad -layoutmem-caps entry %q (want non-negative integers)", f)
		}
		caps = append(caps, v)
	}
	rows, err := harness.LayoutMem(os.Stdout, caps, n)
	if err != nil {
		return err
	}
	if jsonPath == "" {
		return nil
	}
	return writeJSON(jsonPath, layoutmemJSON{
		Experiment: "layoutmem", N: n, Caps: caps,
		GoMaxProcs: runtime.GOMAXPROCS(0), Rows: rows,
	})
}

// writeJSON marshals v indented and writes it with a trailing newline.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
