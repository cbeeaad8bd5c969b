// Command perfbench measures EffectiveSan from C source to verdict on
// three workloads and checks every verdict. Each pass compiles every
// program of the workload from source (cc.Compile), instruments it with
// the default options (instrument.Instrument), runs it in logging mode
// (core.NewRuntime, mir.New, Interp.Run) and runs the uninstrumented
// build of the same program for the baseline. Programs run one after
// another on one goroutine.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload spec --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced run with
// --trace 1. The lines before it are the detailed report: one row per
// program, then every metric by name with its unit. README.md gives the
// workloads' rationale and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// traceDir is where the traced run writes its spans, relative to the
// repository root.
var traceDir = filepath.Join(".bench_build", "traces")

// procStart approximates process start: setup_s counts from here.
var procStart = time.Now()

const (
	setupReps = 3 // set-ups per run; setup_s is their median
	minPasses = 3 // timed passes per run (per kind in trace mode), at least
)

// listedEndToEnd are the end-to-end metrics BENCHMARK.json lists, in
// report order. verdict_tail_s and failed_frac are reported but not
// listed (README.md says why).
var listedEndToEnd = []string{"setup_s", "verdict_s", "compile_s", "run_s", "overhead_x", "mem_overhead_x"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload: spec, instrument or metadata")
	seed := fs.Int64("seed", 1, "workload seed (spec has fixed sources and ignores it)")
	seconds := fs.Float64("seconds", 20, "nominal time of the timed passes; sets their count")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*wname)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload spec|instrument|metadata --seed N --seconds S --trace 0|1\n")
		return 2
	}

	m := measure(w, *seed, *seconds, *trace == 1)
	rep := newReport(m)
	rep.print(stdout)

	out := result{Correct: m.failed == 0 && rep.countsRepeat, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if *trace == 1 {
		path, err := m.tr.write(traceDir, w.name, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(m.tr.spans), path)
		for _, nm := range rep.layer {
			out.Metrics[nm.name] = metric{nm.value, nm.unit}
		}
	} else {
		for _, name := range listedEndToEnd {
			nm := rep.e2eByName(name)
			out.Metrics[name] = metric{nm.value, nm.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is everything one benchmark run observed.
type measurement struct {
	w        workload
	seed     int64
	progs    []program
	setups   []float64 // seconds per set-up: sources plus warm-up pass
	untraced [][]exec  // timed passes, tracing off
	traced   [][]exec  // timed passes, tracing on (trace mode only)
	tr       *tracer
	heapLive []uint64 // Go live heap before each timed pass (trace mode only)

	attempted, failed int
	failures          map[string]string // program -> first failure seen
}

// measure sets the workload up setupReps times, then runs the timed
// passes. The pass count is fixed by seconds and the workload's nominal
// pass time, not by the clock: passes slow down as the process ages
// (README.md, "Passes slow down"), so a clock-bounded count would make
// the medians depend on machine speed. In trace mode the passes
// alternate between untraced and traced, so the tracing overhead is
// measured in the same run.
func measure(w workload, seed int64, seconds float64, traceMode bool) *measurement {
	m := &measurement{w: w, seed: seed, failures: map[string]string{}}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		m.progs = w.gen(seed)
		m.tally(runPass(m.progs, nil))
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	n := max(minPasses, int(math.Round(seconds/w.passSeconds)))
	if traceMode {
		m.tr = newTracer()
		n = max(2*minPasses, n)
	}
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		if traceMode {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			m.heapLive = append(m.heapLive, ms.HeapAlloc)
		}
		if traceMode && i%2 == 1 {
			m.traced = append(m.traced, m.tally(runPass(m.progs, m.tr)))
		} else {
			m.untraced = append(m.untraced, m.tally(runPass(m.progs, nil)))
		}
	}
	return m
}

func (m *measurement) tally(pass []exec) []exec {
	for i := range pass {
		m.attempted++
		if x := &pass[i]; x.err != nil {
			m.failed++
			if _, seen := m.failures[x.prog.name]; !seen {
				m.failures[x.prog.name] = x.err.Error()
			}
		}
	}
	return pass
}

// named is one reported metric.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// report holds the computed metrics of a measurement.
type report struct {
	m            *measurement
	e2e          []named
	layer        []named // trace mode only
	counts       map[string]float64
	countsRepeat bool   // every timed pass repeated every count exactly
	countsDiff   string // the first count that did not repeat
}

func newReport(m *measurement) *report {
	r := &report{m: m, countsRepeat: true}
	all := append(append([][]exec(nil), m.untraced...), m.traced...)
	r.counts = counts(all[0])
	for _, p := range all[1:] {
		for k, v := range counts(p) {
			if v != r.counts[k] && r.countsRepeat {
				r.countsRepeat = false
				r.countsDiff = fmt.Sprintf("%s: %v then %v", k, r.counts[k], v)
			}
		}
	}
	r.e2e = endToEnd(m, r.counts)
	if m.tr != nil {
		r.layer = perLayer(m, r.counts)
	}
	return r
}

func (r *report) e2eByName(name string) named {
	for _, nm := range r.e2e {
		if nm.name == name {
			return nm
		}
	}
	panic("perfbench: no end-to-end metric " + name)
}

func verdictDur(x *exec) time.Duration    { return x.compile + x.instrument + x.newInterp + x.run }
func compileDur(x *exec) time.Duration    { return x.compile + x.instrument }
func ccDur(x *exec) time.Duration         { return x.compile }
func instrumentDur(x *exec) time.Duration { return x.instrument }
func newDur(x *exec) time.Duration        { return x.newInterp }
func runDur(x *exec) time.Duration        { return x.run }
func baseDur(x *exec) time.Duration       { return x.baseRun }

func endToEnd(m *measurement, counts map[string]float64) []named {
	passes := m.untraced
	verdicts := perPass(passes, sumSeconds(verdictDur))
	out := []named{
		{name: "setup_s", value: median(m.setups), unit: "s", note: fmt.Sprintf("median of %d set-ups", len(m.setups))},
		{name: "verdict_s", value: sumMedians(passes, verdictDur), unit: "s",
			note: fmt.Sprintf("sum over programs of the median of %d passes", len(passes))},
	}
	if v, pct, ok := tail(verdicts); ok {
		out = append(out, named{name: "verdict_tail_s", value: v, unit: "s",
			note: fmt.Sprintf("p%.0f of %d passes, 10 beyond it", pct, len(verdicts))})
	} else {
		out = append(out, named{name: "verdict_tail_s", value: 0, unit: "s",
			note: fmt.Sprintf("n/a: %d passes, needs 11 for ten beyond the percentile", len(verdicts))})
	}
	var ratios []float64
	for i := range m.progs {
		// A program whose runs failed has no times to compare.
		if run, base := programMedian(passes, i, runDur), programMedian(passes, i, baseDur); run > 0 && base > 0 {
			ratios = append(ratios, run/base)
		}
	}
	out = append(out,
		named{name: "compile_s", value: sumMedians(passes, compileDur), unit: "s", note: "cc.Compile + instrument.Instrument"},
		named{name: "run_s", value: sumMedians(passes, runDur), unit: "s", note: "instrumented Interp.Run"},
		named{name: "overhead_x", value: geomean(ratios), unit: "x", note: fmt.Sprintf("geomean over %d programs of run / uninstrumented run", len(ratios))},
		named{name: "mem_overhead_x", value: counts["mem_overhead_x"], unit: "x", note: "sum HeapPeak instrumented / uninstrumented"},
		named{name: "failed_frac", value: float64(m.failed) / float64(m.attempted), unit: "ratio",
			note: fmt.Sprintf("%d of %d executions failed", m.failed, m.attempted)},
	)
	return out
}

// counts are the deterministic per-pass counters: a pass over the same
// sources must repeat every one of them exactly.
func counts(pass []exec) map[string]float64 {
	c := map[string]float64{}
	var peak, basePeak float64
	for i := range pass {
		x := &pass[i]
		ist, st := &x.istats, &x.stats
		inserted := ist.TypeChecks + ist.BoundsGets + ist.Narrows + ist.BoundsChecks + ist.EscapeChecks
		c["cc.mir_instrs"] += float64(x.instrs)
		c["instrument.checks_inserted"] += float64(inserted)
		c["instrument.check_sites"] += float64(ist.CheckSites)
		// ElidedCrossBlock and ElidedPathSensitive are subsets of the
		// counters summed here, so they are left out.
		c["instrument.elided"] += float64(ist.ElidedUpcasts + ist.ElidedSubsume + ist.ElidedNarrows +
			ist.ElidedUnused + ist.ElidedRechecks + ist.ElidedStaticSafe + ist.ElidedStaticResidual +
			ist.ValueNumberedElisions)
		c["instrument.elided_static"] += float64(ist.ElidedStaticSafe)
		c["instrument.hoisted"] += float64(ist.HoistedChecks + ist.PREInsertions)
		c["core.type_checks"] += float64(st.TypeChecks)
		c["core.bounds_checks"] += float64(st.BoundsChecks)
		c["core.bounds_gets"] += float64(st.BoundsGets)
		c["core.narrows"] += float64(st.BoundsNarrows)
		c["core.fast_hits"] += float64(st.CheckFastPath)
		c["core.inline_hits"] += float64(st.InlineCacheHits)
		c["core.memo_hits"] += float64(st.CheckCacheHits)
		c["core.layout_walks"] += float64(st.LayoutMatches)
		c["layout.tables_built"] += float64(st.LayoutTablesBuilt)
		c["layout.tables_interned"] += float64(st.LayoutTablesInterned)
		c["layout.resident_bytes"] += float64(st.LayoutResidentBytes())
		c["lowfat.allocs"] += float64(x.heapAllocs)
		c["lowfat.frees"] += float64(x.heapFrees)
		c["mem.touched_bytes"] += float64(x.touched)
		peak += float64(x.heapPeak)
		basePeak += float64(x.basePeak)
	}
	c["lowfat.heap_peak_bytes"] = peak
	c["mem_overhead_x"] = ratio(peak, basePeak)
	c["instrument.elide_ratio"] = ratio(c["instrument.elided"], c["instrument.checks_inserted"])
	c["core.fast_ratio"] = ratio(c["core.fast_hits"], c["core.type_checks"])
	return c
}

// perLayer computes the traced run's per-layer metrics. Times are
// medians over traced passes of span sums; core.extra_s and the
// tracing overhead compare the untraced passes of the same run.
func perLayer(m *measurement, c map[string]float64) []named {
	lt := m.tr.layerTimes()
	span := func(name string) float64 {
		return median(perPass(lt, func(p map[string]time.Duration) float64 { return p[name].Seconds() }))
	}
	allocs := func(f func(*exec) uint64) float64 {
		return median(perPass(m.traced, func(p []exec) float64 {
			var n uint64
			for i := range p {
				n += f(&p[i])
			}
			return float64(n)
		}))
	}
	runS := sumMedians(m.untraced, runDur)
	baseS := sumMedians(m.untraced, baseDur)
	extra := runS - baseS
	out := []named{
		{"cc.compile_s", span("cc.Compile"), "s", ""},
		{"cc.go_allocs", allocs(func(x *exec) uint64 { return x.ccAllocs }), "count", ""},
		{"instrument.pass_s", span("instrument.Instrument"), "s", ""},
		{"instrument.go_allocs", allocs(func(x *exec) uint64 { return x.instrAllocs }), "count", ""},
		{"mir.new_s", span("mir.New"), "s", "core.NewRuntime + mir.New (validation)"},
		{"mir.base_run_s", span("Run.uninstrumented"), "s", "uninstrumented Run: the dispatch floor"},
		{"mir.run_self_s", span("Run.instrumented.self"), "s", "instrumented Run minus lowfat time"},
		{"mir.go_allocs", allocs(func(x *exec) uint64 { return x.runAllocs }), "count", "during the instrumented Run"},
		{"core.extra_s", extra, "s", "untraced run_s - uninstrumented run"},
		{"core.ns_per_check", ratio(extra*1e9, c["core.type_checks"]+c["core.bounds_checks"]), "ns", "core.extra_s / (type + bounds checks)"},
		{"lowfat.alloc_s", span("lowfat"), "s", "Malloc/Realloc/Free/LegacyAlloc inside the instrumented Run"},
		{"lowfat.allocs_per_run_s", ratio(c["lowfat.allocs"], runS), "1/s", "lowfat.allocs / untraced run_s"},
		{"proc.heap_growth_bytes", ratio(float64(m.heapLive[len(m.heapLive)-1])-float64(m.heapLive[0]), float64(len(m.heapLive)-1)),
			"bytes", "Go live heap growth per timed pass: state the process keeps across passes"},
		{"trace.overhead_x", ratio(span("Run.instrumented"), runS), "x", "traced run_s / untraced run_s"},
	}
	names := make([]string, 0, len(c))
	for k := range c {
		if k != "mem_overhead_x" {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		unit := "count"
		switch {
		case strings.HasSuffix(k, "_ratio"):
			unit = "ratio"
		case strings.HasSuffix(k, "_bytes"):
			unit = "bytes"
		}
		out = append(out, named{k, c[k], unit, "per pass"})
	}
	return out
}

func (r *report) print(w io.Writer) {
	m := r.m
	seedNote := ""
	if !m.w.seeded {
		seedNote = " (ignored: spec has fixed sources)"
	}
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d%s programs=%d untraced passes=%d traced passes=%d\n",
		m.w.name, m.seed, seedNote, len(m.progs), len(m.untraced), len(m.traced))
	passes := m.untraced
	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s %10s %10s %12s %8s  %s\n",
		"program", "cc_ms", "instr_ms", "new_ms", "run_ms", "base_ms", "type_chk", "bounds_chk", "issues", "verdict")
	last := passes[len(passes)-1]
	for i, p := range m.progs {
		x := &last[i]
		verdict := "ok"
		if f, bad := m.failures[p.name]; bad {
			verdict = "FAIL: " + f
		}
		issues := 0
		if x.rep != nil {
			issues = x.rep.NumIssues()
		}
		ms := func(d func(*exec) time.Duration) float64 { return 1e3 * programMedian(passes, i, d) }
		fmt.Fprintf(w, "%-22s %10.3f %10.3f %10.3f %10.3f %10.3f %10d %12d %4d/%-3d  %s\n",
			p.name, ms(ccDur), ms(instrumentDur), ms(newDur), ms(runDur), ms(baseDur),
			x.stats.TypeChecks, x.stats.BoundsChecks, issues, p.issues, verdict)
	}
	v := sumMedians(passes, verdictDur)
	share := func(d func(*exec) time.Duration) float64 {
		return 100 * sumMedians(passes, d) / v
	}
	fmt.Fprintf(w, "verdict_s per pass:")
	for _, p := range passes {
		fmt.Fprintf(w, " %.4f", sumSeconds(verdictDur)(p))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "verdict_s shares: cc %.1f%%  instrument %.1f%%  mir.New %.1f%%  run %.1f%%\n",
		share(ccDur), share(instrumentDur), share(newDur), share(runDur))
	if !r.countsRepeat {
		fmt.Fprintf(w, "NONDETERMINISTIC COUNT across passes: %s\n", r.countsDiff)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, nm := range r.e2e {
		fmt.Fprintf(w, "  %-26s %16.6g %-6s %s\n", nm.name, nm.value, nm.unit, nm.note)
	}
	if r.layer != nil {
		fmt.Fprintln(w, "per-layer metrics (traced run):")
		for _, nm := range r.layer {
			fmt.Fprintf(w, "  %-26s %16.6g %-6s %s\n", nm.name, nm.value, nm.unit, nm.note)
		}
	}
}
