package sanitizers

import (
	"io"
	"testing"

	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/spec"
)

// TestMotionDetectionParityFig7 pins that instrumentation only removes
// checks and never moves them. Over ALL 19 Fig. 7 SPEC workloads plus
// the synthetic progen rows, every configuration reports zero hoisted,
// partial-redundancy-inserted and value-numbered checks (the fields
// perfbench sums into instrument.hoisted), and the elided program never
// carries more static checks than the no-opt one — a pass that moved a
// check onto a loop preheader or entry edge would add one. On the two
// rows shaped for check motion (progen-loop, progen-temp) the elided and
// no-opt programs must also report the same issues and the same result.
func TestMotionDetectionParityFig7(t *testing.T) {
	motionShaped := map[string]bool{"progen-loop": true, "progen-temp": true}
	tools := elisionConfigs()
	for _, b := range append(spec.Benchmarks(), spec.Synthetic()...) {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var static [2]int
		for i, tool := range tools {
			ip, st := instrument.Instrument(prog, tool.InstrumentOptions())
			if st.HoistedChecks != 0 || st.PREInsertions != 0 || st.ValueNumberedElisions != 0 {
				t.Errorf("%s under %s: checks moved: %+v", b.Name, tool.Name, st)
			}
			static[i] = staticChecks(ip)
		}
		if static[0] > static[1] {
			t.Errorf("%s: %s inserted %d static checks, %s %d: elision must never add one",
				b.Name, tools[0].Name, static[0], tools[1].Name, static[1])
		}
		if !motionShaped[b.Name] {
			continue
		}
		want := ""
		var wantVal uint64
		for i, tool := range tools {
			res, err := tool.Exec(prog, b.Entry, io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", b.Name, tool.Name, err)
			}
			if i == 0 {
				want, wantVal = issueSummary(res), res.Value
				continue
			}
			if got := issueSummary(res); got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					b.Name, tool.Name, got, tools[0].Name, want)
			}
			if res.Value != wantVal {
				t.Errorf("%s: %s result %d != %d", b.Name, tool.Name, res.Value, wantVal)
			}
		}
	}
}

// staticChecks counts the check operations left in an instrumented
// program.
func staticChecks(p *mir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for _, ins := range b.Instrs {
				switch ins.Op {
				case mir.OpTypeCheck, mir.OpBoundsGet, mir.OpBoundsNarrow,
					mir.OpBoundsCheck, mir.OpEscapeCheck:
					n++
				}
			}
		}
	}
	return n
}
