// Command effsan compiles a mini-C program and runs it under a chosen
// sanitizer configuration, reporting detected type and memory errors —
// the reproduction's equivalent of building a program with the
// EffectiveSan compiler wrapper.
//
// Usage:
//
//	effsan [-variant full|bounds|type|none] [-tool NAME] [-abort N] [-quarantine BYTES] [-stats] prog.c
//
// With -variant (default full) the program is instrumented per the
// Fig. 3 schema and run on the EffectiveSan runtime. With -tool, one of
// the modelled baseline sanitizers (AddressSanitizer, SoftBound, CETS,
// TypeSan, ...) intercepts the uninstrumented program instead.
//
// Exit status: 0 after a completed run (detected errors are reported,
// not fatal), 1 on a compile or run error, 2 on a usage error or an
// internal failure of the tool itself.
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, compiles and runs the
// program, writes the program's output and the report to stdout and
// diagnostics to stderr, and returns the exit status. A panic escaping
// compile or run is turned into an "effsan:" diagnostic and status 2,
// so no input makes the tool print a Go stack trace.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("effsan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	variant := fs.String("variant", "full",
		"EffectiveSan variant: full, bounds, type, or none (uninstrumented)")
	tool := fs.String("tool", "", "run under a modelled baseline sanitizer instead")
	abortAfter := fs.Uint64("abort", 0, "abort after N errors (0 = log all, the default)")
	quarantine := fs.Uint64("quarantine", 0, "heap quarantine bytes (delays reuse)")
	stats := fs.Bool("stats", false, "print runtime check statistics")
	entry := fs.String("entry", "main", "entry function")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: effsan [flags] prog.c")
		fs.PrintDefaults()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "effsan: %v\n", err)
		return 1
	}
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "effsan: internal error: %v\n", r)
			code = 2
		}
	}()

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	prog, err := cc.Compile(string(src), ctypes.NewTable())
	if err != nil {
		return fail(err)
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
			return fail(fmt.Errorf("unknown tool %q (see sanitizers.Baselines)", *tool))
		}
	default:
		v := map[string]instrument.Variant{
			"full": instrument.Full, "bounds": instrument.BoundsOnly,
			"type": instrument.TypeOnly, "none": instrument.None,
		}
		variantV, ok := v[*variant]
		if !ok {
			return fail(fmt.Errorf("unknown variant %q", *variant))
		}
		cfg = &sanitizers.Tool{Name: "EffectiveSan-" + *variant, Variant: variantV,
			Quarantine: *quarantine}
	}

	// Rebuild the EffectiveSan path by hand when abort-after is wanted,
	// since Tool.Exec always logs without stopping.
	if *abortAfter > 0 && *tool == "" {
		return runWithAbort(prog, cfg, *entry, *abortAfter, *stats, stdout, stderr)
	}

	res, err := cfg.Exec(prog, *entry, stdout)
	if err != nil {
		return fail(err)
	}
	report(stdout, res.Reporter, res.Stats, res.Value, *stats)
	return 0
}

func runWithAbort(prog *mir.Program, cfg *sanitizers.Tool, entry string, abortAfter uint64, stats bool, stdout, stderr io.Writer) int {
	ip, _ := instrument.Instrument(prog, cfg.InstrumentOptions())
	opts := cfg.RuntimeOptions(prog.Types)
	opts.AbortAfter = abortAfter
	rt := core.NewRuntime(opts)
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt), Out: stdout})
	if err != nil {
		fmt.Fprintf(stderr, "effsan: %v\n", err)
		return 1
	}
	val, err := in.Run(entry)
	if err != nil {
		fmt.Fprintf(stderr, "effsan: %v\n", err)
	}
	report(stdout, rt.Reporter, rt.Stats(), val, stats)
	return 0
}

func report(w io.Writer, rep *core.Reporter, st core.StatsSnapshot, val uint64, stats bool) {
	fmt.Fprintf(w, "exit value: %d\n", int64(val))
	if n := rep.NumIssues(); n > 0 {
		fmt.Fprintf(w, "--- %d distinct issue(s), %d error event(s) ---\n", n, rep.Total())
		fmt.Fprint(w, rep.Log())
	} else if rep.Total() > 0 {
		fmt.Fprintf(w, "--- %d error event(s) (counting mode) ---\n", rep.Total())
	} else {
		fmt.Fprintln(w, "no type or memory errors detected")
	}
	if stats {
		fmt.Fprintf(w, "type checks:    %d (legacy %.2f%%, null %d)\n",
			st.TypeChecks, st.LegacyRatio()*100, st.NullTypeChecks)
		fmt.Fprintf(w, "bounds checks:  %d\n", st.BoundsChecks)
		fmt.Fprintf(w, "bounds narrows: %d\n", st.BoundsNarrows)
		fmt.Fprintf(w, "coercions:      char %d, void* %d\n", st.CharCoercions, st.VoidPtrCoercions)
		fmt.Fprintf(w, "check cache:    fast-path %d, inline %d/%d (hit-rate %.1f%%), shared %d/%d (hit-rate %.1f%%), layout matches %d\n",
			st.CheckFastPath,
			st.InlineCacheHits, st.InlineCacheHits+st.InlineCacheMisses,
			st.InlineCacheHitRate()*100,
			st.CheckCacheHits, st.CheckCacheHits+st.CheckCacheMisses,
			st.CheckCacheHitRate()*100, st.LayoutMatches)
		fmt.Fprintf(w, "allocations:    heap %d, stack %d, global %d; frees %d\n",
			st.HeapAllocs, st.StackAllocs, st.GlobalAllocs, st.Frees)
	}
}
