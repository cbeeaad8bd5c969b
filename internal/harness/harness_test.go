package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/bugsuite"
)

// TestFig1Shape asserts the capability matrix reproduces the paper's
// verdicts row by row.
func TestFig1Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig1(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]string{ // Types, Bounds, UAF
		"CaVer":            {"Partial", "✗", "✗"},
		"TypeSan":          {"Partial", "✗", "✗"},
		"UBSan":            {"Partial", "✗", "✗"},
		"HexType":          {"Partial", "✗", "✗"},
		"libcrunch":        {"Partial", "✗", "✗"},
		"BaggyBounds":      {"✗", "Partial", "✗"},
		"LowFat":           {"✗", "Partial", "✗"},
		"Intel MPX":        {"✗", "✓", "✗"},
		"SoftBound":        {"✗", "✓", "✗"},
		"CETS":             {"✗", "✗", "✓"},
		"AddressSanitizer": {"✗", "Partial", "Partial"},
		"SoftBound+CETS":   {"✗", "✓", "✓"},
		"EffectiveSan":     {"✓", "✓", "Partial"},
	}
	if len(rows) != len(want) {
		t.Fatalf("matrix has %d rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		w, ok := want[row.Tool]
		if !ok {
			t.Errorf("unexpected tool %q", row.Tool)
			continue
		}
		got := [3]string{
			row.Columns[bugsuite.TypeConfusion].Verdict(),
			row.Columns[bugsuite.BoundsOverflow].Verdict(),
			row.Columns[bugsuite.Temporal].Verdict(),
		}
		if got != w {
			t.Errorf("%s: %v, want %v (paper Fig. 1)", row.Tool, got, w)
		}
	}
	if !strings.Contains(buf.String(), "EffectiveSan") {
		t.Error("rendered table incomplete")
	}
}

// TestFig7Shape asserts the issue column matches the paper exactly and
// check counters are live.
func TestFig7Shape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig7(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("%d rows, want 19", len(rows))
	}
	for _, r := range rows {
		if r.Issues != r.PaperIssues {
			t.Errorf("%s: issues %d, want %d", r.Name, r.Issues, r.PaperIssues)
		}
		if r.TypeChecks == 0 || r.BoundsChecks == 0 {
			t.Errorf("%s: dead counters %+v", r.Name, r)
		}
	}
}

// TestFig8Ordering asserts the Fig. 8 cost ordering:
// full > bounds > type > uninstrumented (geomean).
func TestFig8Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	var buf bytes.Buffer
	rows, err := Fig8(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Every bar must be present with positive timings, on the 19 SPEC
	// rows and the five synthetic progen rows. The bar list comes from
	// the canonical Fig8BarNames, never hand-copied.
	wantBars := Fig8BarNames()
	if len(wantBars) != 7 {
		t.Fatalf("%d bars, want 7: %v", len(wantBars), wantBars)
	}
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24 (19 SPEC + 5 progen)", len(rows))
	}
	for _, r := range rows {
		if len(r.Seconds) != len(wantBars) {
			t.Fatalf("%s: %d bars, want %d: %v", r.Name, len(r.Seconds), len(wantBars), r.Seconds)
		}
		for _, bar := range wantBars {
			if r.Seconds[bar] <= 0 {
				t.Errorf("%s: bar %q missing or non-positive", r.Name, bar)
			}
		}
	}
	full := OverheadGeomean(rows, "EffectiveSan")
	bounds := OverheadGeomean(rows, "EffectiveSan-bounds")
	typ := OverheadGeomean(rows, "EffectiveSan-type")
	// The type variant's true overhead is near zero on these workloads,
	// so under parallel-test CPU contention it can measure slightly
	// negative; allow generous noise floors while still requiring the
	// full > bounds > type ordering to be visible.
	if !(full > bounds && bounds > typ && typ > -0.25) {
		t.Errorf("overhead ordering violated: full=%.2f bounds=%.2f type=%.2f",
			full, bounds, typ)
	}
	if full < 0.25 {
		t.Errorf("full overhead %.2f suspiciously low; instrumentation inert?", full)
	}
}

// TestFig9Overhead asserts the memory overhead is modest (the paper
// reports ~12%; the simulation must stay the same order of magnitude,
// not multiples like shadow-memory schemes).
func TestFig9Overhead(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig9(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var base, eff uint64
	for _, r := range rows {
		base += r.BaselineBytes
		eff += r.EffBytes
	}
	oh := float64(eff)/float64(base) - 1
	if oh < 0 || oh > 0.8 {
		t.Errorf("memory overhead %.2f out of plausible range [0, 0.8]", oh)
	}
}

// TestFig10Shape asserts the browser workloads run concurrently and the
// overhead exceeds parity (temporary-object effect).
func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	var buf bytes.Buffer
	rows, err := Fig10(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d rows, want 7", len(rows))
	}
	// Per-workload timings are noisy when the test suite itself runs in
	// parallel on few cores; the aggregate must still show overhead.
	logSum := 0.0
	for _, r := range rows {
		logSum += math.Log(r.Relative)
	}
	if geomean := math.Exp(logSum / float64(len(rows))); geomean < 1.05 {
		t.Errorf("browser geomean relative time %.2f; instrumentation overhead invisible", geomean)
	}
}

// TestToolComparison runs the §6.2 comparison on a small subset and
// checks structural expectations: every tool yields a row, and the
// metadata-heavy tools cost more than the cast checkers.
func TestToolComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	var buf bytes.Buffer
	rows, err := ToolComparison(&buf, []string{"mcf", "lbm"})
	if err != nil {
		t.Fatal(err)
	}
	oh := map[string]float64{}
	for _, r := range rows {
		oh[r.Name] = r.Overhead
	}
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15", len(rows))
	}
	if !(oh["SoftBound"] > oh["TypeSan"]) {
		t.Errorf("per-pointer metadata (%.2f) should cost more than cast checks (%.2f)",
			oh["SoftBound"], oh["TypeSan"])
	}
	if !strings.Contains(buf.String(), "SoftBound+CETS") {
		t.Error("rendered table incomplete")
	}
}
