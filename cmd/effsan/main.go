// Command effsan compiles a mini-C program and runs it under a chosen
// sanitizer configuration, reporting detected type and memory errors —
// the reproduction's equivalent of building a program with the
// EffectiveSan compiler wrapper.
//
// Usage:
//
//	effsan [-variant full|bounds|type|none] [-tool NAME] [-abort N] [-quarantine BYTES] [-stats] prog.c
//	effsan -warn-static prog.c
//
// With -variant (default full) the program is instrumented per the
// Fig. 3 schema and run on the EffectiveSan runtime. With -tool, one of
// the modelled baseline sanitizers (AddressSanitizer, SoftBound, CETS,
// TypeSan, ...) intercepts the uninstrumented program instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/sanitizers"
)

func main() {
	variant := flag.String("variant", "full",
		"EffectiveSan variant: full, bounds, type, or none (uninstrumented)")
	tool := flag.String("tool", "", "run under a modelled baseline sanitizer instead")
	abortAfter := flag.Uint64("abort", 0, "abort after N errors (0 = log all, the default)")
	quarantine := flag.Uint64("quarantine", 0, "heap quarantine bytes (delays reuse)")
	stats := flag.Bool("stats", false, "print runtime check statistics")
	entry := flag.String("entry", "main", "entry function")
	warnStatic := flag.Bool("warn-static", false,
		"compile only: print the static safety analysis' STATIC-UNSAFE diagnostics (checks proven to report on every execution that reaches them) and exit without running")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: effsan [flags] prog.c")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := cc.Compile(string(src), ctypes.NewTable())
	if err != nil {
		fatal(err)
	}

	if *warnStatic {
		os.Exit(runWarnStatic(prog, *entry, os.Stdout))
	}

	var cfg *sanitizers.Tool
	switch {
	case *tool != "":
		for _, t := range sanitizers.Baselines() {
			if t.Name == *tool {
				cfg = t
			}
		}
		if cfg == nil {
			fatal(fmt.Errorf("unknown tool %q (see sanitizers.Baselines)", *tool))
		}
	default:
		v := map[string]instrument.Variant{
			"full": instrument.Full, "bounds": instrument.BoundsOnly,
			"type": instrument.TypeOnly, "none": instrument.None,
		}
		var ok bool
		variantV, ok := v[*variant]
		if !ok {
			fatal(fmt.Errorf("unknown variant %q", *variant))
		}
		cfg = &sanitizers.Tool{Name: "EffectiveSan-" + *variant, Variant: variantV,
			Quarantine: *quarantine}
	}

	// Rebuild the EffectiveSan path by hand when abort-after is wanted,
	// since Tool.Exec always logs without stopping.
	if *abortAfter > 0 && *tool == "" {
		runWithAbort(prog, cfg, *entry, *abortAfter, *stats)
		return
	}

	res, err := cfg.Exec(prog, *entry, os.Stdout)
	if err != nil {
		fatal(err)
	}
	report(res.Reporter, res.Stats, res.Value, *stats)
}

// runWarnStatic is the -warn-static compile-only mode: instrument
// (running the interprocedural static safety pass) and print one
// diagnostic per STATIC-UNSAFE check site — a check proven to report an
// error on every execution that reaches it. The verdicts come from the
// same pass the full pipeline runs, so what is printed is exactly what
// a real run keeps and reports at runtime. Returns the process exit
// code: 1 when any site is flagged, 0 on a clean program.
func runWarnStatic(prog *mir.Program, entry string, w io.Writer) int {
	_, st := instrument.Instrument(prog, instrument.Options{
		Variant: instrument.Full, StaticEntry: entry,
	})
	if len(st.StaticDiags) == 0 {
		fmt.Fprintln(w, "no STATIC-UNSAFE check sites")
		return 0
	}
	for _, d := range st.StaticDiags {
		loc := d.Site
		if loc == "" {
			loc = "?"
		}
		fmt.Fprintf(w, "%s: warning: %s check always fails in %s: %s", loc, d.Kind, d.Func, d.Reason)
		if d.SiteID != 0 {
			fmt.Fprintf(w, " [site %d]", d.SiteID)
		}
		fmt.Fprintln(w)
	}
	return 1
}

func runWithAbort(prog *mir.Program, cfg *sanitizers.Tool, entry string, abortAfter uint64, stats bool) {
	ip, _ := instrument.Instrument(prog, cfg.InstrumentOptions(entry))
	opts := cfg.RuntimeOptions(prog.Types)
	opts.AbortAfter = abortAfter
	rt := core.NewRuntime(opts)
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt), Out: os.Stdout})
	if err != nil {
		fatal(err)
	}
	val, err := in.Run(entry)
	if err != nil {
		fmt.Fprintf(os.Stderr, "effsan: %v\n", err)
	}
	report(rt.Reporter, rt.Stats(), val, stats)
}

func report(rep *core.Reporter, st core.StatsSnapshot, val uint64, stats bool) {
	fmt.Printf("exit value: %d\n", int64(val))
	if n := rep.NumIssues(); n > 0 {
		fmt.Printf("--- %d distinct issue(s), %d error event(s) ---\n", n, rep.Total())
		fmt.Print(rep.Log())
	} else if rep.Total() > 0 {
		fmt.Printf("--- %d error event(s) (counting mode) ---\n", rep.Total())
	} else {
		fmt.Println("no type or memory errors detected")
	}
	if stats {
		fmt.Printf("type checks:    %d (legacy %.2f%%, null %d)\n",
			st.TypeChecks, st.LegacyRatio()*100, st.NullTypeChecks)
		fmt.Printf("bounds checks:  %d\n", st.BoundsChecks)
		fmt.Printf("bounds narrows: %d\n", st.BoundsNarrows)
		fmt.Printf("coercions:      char %d, void* %d\n", st.CharCoercions, st.VoidPtrCoercions)
		fmt.Printf("check cache:    fast-path %d, inline %d/%d (hit-rate %.1f%%), shared %d/%d (hit-rate %.1f%%), layout matches %d\n",
			st.CheckFastPath,
			st.InlineCacheHits, st.InlineCacheHits+st.InlineCacheMisses,
			st.InlineCacheHitRate()*100,
			st.CheckCacheHits, st.CheckCacheHits+st.CheckCacheMisses,
			st.CheckCacheHitRate()*100, st.LayoutMatches)
		fmt.Printf("allocations:    heap %d, stack %d, global %d; frees %d\n",
			st.HeapAllocs, st.StackAllocs, st.GlobalAllocs, st.Frees)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "effsan: %v\n", err)
	os.Exit(1)
}
