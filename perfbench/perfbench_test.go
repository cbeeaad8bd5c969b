package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/sanitizers"
)

const (
	committedSeed = 1
	heldOutSeed   = 97
)

// sortedIssues returns the reporter's issue buckets in a canonical order.
func sortedIssues(r *core.Reporter) []core.Issue {
	var out []core.Issue
	for _, is := range r.Issues() {
		out = append(out, *is)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.StaticType != b.StaticType {
			return a.StaticType < b.StaticType
		}
		if a.DynamicType != b.DynamicType {
			return a.DynamicType < b.DynamicType
		}
		return a.Offset < b.Offset
	})
	return out
}

// TestParity checks that the benchmark's layer-by-layer pipeline, traced
// and untraced, reaches exactly the results of the product entry point
// sanitizers.ToolEffectiveSan.Exec on every corpus program.
func TestParity(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			progs := w.gen(committedSeed)
			for i := range progs {
				p := &progs[i]
				prog, err := cc.Compile(p.src, ctypes.NewTable())
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				want, err := sanitizers.ToolEffectiveSan.Exec(prog, p.entry, io.Discard)
				if err != nil {
					t.Fatalf("%s: Exec: %v", p.name, err)
				}
				for _, tr := range []*tracer{nil, newTracer()} {
					got := runProgram(p, tr, tr.begin("pass", -1))
					if got.err != nil {
						t.Fatalf("%s (traced %v): %v", p.name, tr != nil, got.err)
					}
					if got.value != want.Value {
						t.Errorf("%s: value %d, Exec %d", p.name, got.value, want.Value)
					}
					if got.stats != want.Stats {
						t.Errorf("%s: StatsSnapshot\n got %+v\nwant %+v", p.name, got.stats, want.Stats)
					}
					if !reflect.DeepEqual(got.istats, want.InstrStats) {
						t.Errorf("%s: InstrStats\n got %+v\nwant %+v", p.name, got.istats, want.InstrStats)
					}
					if g, w := sortedIssues(got.rep), sortedIssues(want.Reporter); !reflect.DeepEqual(g, w) {
						t.Errorf("%s: issues\n got %+v\nwant %+v", p.name, g, w)
					}
					if got.heapPeak != want.HeapPeak || got.touched != want.MemPages {
						t.Errorf("%s: heap peak/touched %d/%d, Exec %d/%d", p.name, got.heapPeak, got.touched, want.HeapPeak, want.MemPages)
					}
				}
			}
		})
	}
}

// TestDeterminism checks that two passes over separately generated
// corpora from the same seed repeat every count exactly, and that the
// held-out seed changes the progen sources while every verdict stays
// correct.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first := runPass(w.gen(committedSeed), newTracer())
			second := runPass(w.gen(committedSeed), nil)
			for _, pass := range [][]exec{first, second} {
				for _, x := range pass {
					if x.err != nil {
						t.Fatalf("seed %d: %s: %v", committedSeed, x.prog.name, x.err)
					}
				}
			}
			a, b := counts(first), counts(second)
			if !reflect.DeepEqual(a, b) {
				for k := range a {
					if a[k] != b[k] {
						t.Errorf("%s: %v then %v", k, a[k], b[k])
					}
				}
			}

			held := w.gen(heldOutSeed)
			for _, x := range runPass(held, nil) {
				if x.err != nil {
					t.Errorf("seed %d: %s: %v", heldOutSeed, x.prog.name, x.err)
				}
			}
			same := reflect.DeepEqual(held, w.gen(committedSeed))
			if w.seeded && same {
				t.Errorf("seed %d generated the same sources as seed %d", heldOutSeed, committedSeed)
			}
			if !w.seeded && !same {
				t.Errorf("fixed-source workload changed with the seed")
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// the benchmark prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, benchmark has %v", names, want)
	}

	w, _ := workloadByName("instrument")
	m := &measurement{w: w, progs: w.gen(committedSeed)[:2], setups: []float64{1}, heapLive: []uint64{0, 0}, tr: newTracer(), failures: map[string]string{}}
	m.untraced = [][]exec{m.tally(runPass(m.progs, nil))}
	m.traced = [][]exec{m.tally(runPass(m.progs, m.tr))}
	r := newReport(m)
	var e2e []entry
	for _, name := range listedEndToEnd {
		nm := r.e2eByName(name)
		e2e = append(e2e, entry{nm.name, nm.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end %v, benchmark prints %v", spec.EndToEnd, e2e)
	}
	var layer []entry
	for _, nm := range r.layer {
		layer = append(layer, entry{nm.name, nm.unit})
	}
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("per_layer %v, benchmark prints %v", spec.PerLayer, layer)
	}
}

// TestFailuresAreCounted checks that a bad program becomes a failed
// execution instead of stopping the benchmark: a compile error, a crash
// inside a layer (this source has panicked cc.Compile) and a wrong issue
// count.
func TestFailuresAreCounted(t *testing.T) {
	progs := []program{
		{name: "syntax", src: "int main( { return 0; }", entry: "main"},
		{name: "incomplete", src: "int A(){{new struct A;}} int main(){ return 0; }", entry: "main"},
		{name: "issues", src: "int main(){ return 0; }", entry: "main", issues: 1},
	}
	for _, x := range runPass(progs, newTracer()) {
		if x.err == nil {
			t.Errorf("%s: no failure recorded", x.prog.name)
		}
		t.Logf("%s: %v", x.prog.name, x.err)
	}
}
