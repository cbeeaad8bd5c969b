package instrument

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/mir"
	"repro/internal/progen"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const staticGoldenFile = "testdata/staticsafe_verdicts.golden"

// goldenProgram is one entry of the static-safety golden corpus.
type goldenProgram struct {
	name, src, entry string
}

// staticGoldenCorpus is the Fig. 7 kernels, the synthetic Fig. 8 rows
// and two seeds of each shape of the benchmark's instrument corpus
// (progen with three types, two functions per type, sixteen rounds).
func staticGoldenCorpus() []goldenProgram {
	var out []goldenProgram
	for _, b := range append(spec.Benchmarks(), spec.Synthetic()...) {
		out = append(out, goldenProgram{b.Name, b.Source, b.Entry})
	}
	base := progen.Options{Types: 3, Funcs: 2, Rounds: 16}
	shapes := []struct {
		name string
		set  func(*progen.Options)
	}{
		{"diamonds", func(o *progen.Options) { o.Diamonds = 4 }},
		{"loop-temp", func(o *progen.Options) { o.LoopHeavy, o.TempHeavy = true, true }},
		{"static-interior", func(o *progen.Options) { o.StaticSafe, o.Interior = true, true }},
		{"libcalls", func(o *progen.Options) { o.LibCalls = true }},
	}
	for _, s := range shapes {
		o := base
		s.set(&o)
		for _, seed := range []int64{1, 97} {
			out = append(out, goldenProgram{
				name:  fmt.Sprintf("%s-%d", s.name, seed),
				src:   progen.Generate(seed, o),
				entry: "main",
			})
		}
	}
	return out
}

// staticSafetyDump renders, for one program, the verdict list
// mir.AnalyzeSafety returns on the freshly inserted checks (the exact
// input of StaticDiagnostics) and the number of diagnostics
// StaticDiagnostics reports, both rooted at entry and unrooted.
func staticSafetyDump(t *testing.T, gp goldenProgram) string {
	t.Helper()
	prog, err := cc.Compile(gp.src, ctypes.NewTable())
	if err != nil {
		t.Fatalf("%s: compile: %v", gp.name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", gp.name)
	for _, roots := range [][]string{{gp.entry}, nil} {
		opts := Options{Variant: Full}
		if roots != nil {
			opts.StaticEntry = gp.entry
		}
		var st Stats
		res := mir.AnalyzeSafety(insertChecks(prog, opts, &st), roots)
		fmt.Fprintf(&b, "roots=%v unsafe=%d\n", roots, len(StaticDiagnostics(prog, opts)))
		names := make([]string, 0, len(res.Verdicts))
		for name := range res.Verdicts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "func %s\n", name)
			for _, v := range res.Verdicts[name] {
				fmt.Fprintf(&b, "  %d.%d %s %s\n", v.Block, v.Index, v.Verdict, v.Reason)
			}
		}
	}
	return b.String()
}

// TestStaticSafetyGolden pins every verdict, reason and diagnostic count
// of the static safety analysis over a fixed corpus. Representation
// changes inside mir.AnalyzeSafety must leave the file untouched;
// regenerate it only for an intended change of the analysis:
//
//	go test ./internal/instrument -run TestStaticSafetyGolden -update
func TestStaticSafetyGolden(t *testing.T) {
	var b strings.Builder
	for _, gp := range staticGoldenCorpus() {
		b.WriteString(staticSafetyDump(t, gp))
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(staticGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(staticGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(staticGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("verdicts differ from %s at line %d:\n got: %s\nwant: %s", staticGoldenFile, i+1, g, w)
		}
	}
}
