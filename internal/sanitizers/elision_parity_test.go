package sanitizers

import (
	"io"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/spec"
)

// elisionConfigs returns full EffectiveSan with the path-sensitive
// elision pass on (the default) and with every check-elision
// optimisation off. Elision is performance-only, so every detection
// result must be identical across them.
func elisionConfigs() []*Tool {
	return []*Tool{
		ToolEffectiveSan,
		ToolEffectiveSan.WithoutOptimizations().Named("EffectiveSan-noopt"),
	}
}

// TestElisionDetectionParityFig1 runs the Fig. 1 error-injection corpus
// with path-sensitive elision on and off: every case must report
// exactly the same issues — a check the dataflow pass removes is one
// whose outcome an earlier check already determined.
func TestElisionDetectionParityFig1(t *testing.T) {
	tools := elisionConfigs()
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := ""
		for i, tool := range tools {
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", c.Name, tool.Name, err)
			}
			got := issueSummary(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					c.Name, tool.Name, got, tools[0].Name, want)
			}
		}
	}
}

// TestElisionDetectionParityFig7 proves the same parity over ALL 19
// Fig. 7 SPEC workloads plus the synthetic progen rows: identical issue
// counts and identical program results with elision on and off, with
// the paper's issue column still exact on the Fig. 7 rows — and the
// elided program never executing more checks.
func TestElisionDetectionParityFig7(t *testing.T) {
	tools := elisionConfigs()
	for _, b := range append(spec.Benchmarks(), spec.Synthetic()...) {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		want := ""
		var wantVal uint64
		var psChecks, offChecks uint64
		for i, tool := range tools {
			res, err := tool.Exec(prog, b.Entry, io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", b.Name, tool.Name, err)
			}
			switch i {
			case 0:
				psChecks = res.Stats.TypeChecks + res.Stats.BoundsChecks
			case 1:
				offChecks = res.Stats.TypeChecks + res.Stats.BoundsChecks
			}
			if bm := spec.ByName(b.Name); bm != nil {
				if got := res.Reporter.NumIssues(); got != bm.PaperIssues {
					t.Errorf("%s under %s: issues = %d, want %d (paper Fig. 7)",
						b.Name, tool.Name, got, bm.PaperIssues)
				}
			}
			got := issueSummary(res)
			if i == 0 {
				want = got
				wantVal = res.Value
				continue
			}
			if got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					b.Name, tool.Name, got, tools[0].Name, want)
			}
			if res.Value != wantVal {
				t.Errorf("%s: %s result %d != %d (elision changed semantics)",
					b.Name, tool.Name, res.Value, wantVal)
			}
		}
		if psChecks > offChecks {
			t.Errorf("%s: path-sensitive executed %d checks, no-opt %d: elision must never check more",
				b.Name, psChecks, offChecks)
		}
	}
}

// TestDiamondStaticElisionGap pins the path-sensitive elision story in
// the counters rather than in wall-clock: on the branch-heavy progen
// workload, the dataflow statically elides checks at the diamond joins,
// and the win shows up again as fewer dynamically executed checks than
// with elision off, with identical detection.
func TestDiamondStaticElisionGap(t *testing.T) {
	b := spec.SyntheticByName("progen-diamond")
	if b == nil {
		t.Fatal("progen-diamond workload missing")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ToolEffectiveSan.WithoutOptimizations().Named("EffectiveSan-noopt").
		Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if got := ps.InstrStats.ElidedPathSensitive; got == 0 {
		t.Error("path-sensitive pass elided nothing on the diamond workload")
	}
	// It is visible dynamically, not just statically.
	psDyn := ps.Stats.TypeChecks + ps.Stats.BoundsChecks
	offDyn := off.Stats.TypeChecks + off.Stats.BoundsChecks
	if psDyn >= offDyn {
		t.Errorf("dynamic checks: path-sensitive %d >= no-opt %d; the elision win vanished at runtime",
			psDyn, offDyn)
	}
	if issueSummary(ps) != issueSummary(off) {
		t.Errorf("elision pass changed detection: %q vs %q", issueSummary(ps), issueSummary(off))
	}
}
