package mir_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/progen"
)

var safetySink *mir.SafetyResult

// BenchmarkAnalyzeSafety times the interprocedural static safety
// analysis over instrument-shaped programs: progen sources with three
// types and two functions per type in the diamond, loop/temp,
// static-safe/interior and libcall shapes, two seeds each, carrying every
// inserted check (no optimiser has removed any).
func BenchmarkAnalyzeSafety(b *testing.B) {
	base := progen.Options{Types: 3, Funcs: 2, Rounds: 16}
	shapes := []func(*progen.Options){
		func(o *progen.Options) { o.Diamonds = 4 },
		func(o *progen.Options) { o.LoopHeavy, o.TempHeavy = true, true },
		func(o *progen.Options) { o.StaticSafe, o.Interior = true, true },
		func(o *progen.Options) { o.LibCalls = true },
	}
	var progs []*mir.Program
	for _, set := range shapes {
		o := base
		set(&o)
		for _, seed := range []int64{1, 97} {
			p, err := cc.Compile(progen.Generate(seed, o), ctypes.NewTable())
			if err != nil {
				b.Fatal(err)
			}
			ip, _ := instrument.Instrument(p, instrument.Options{Variant: instrument.Full, NoOptimize: true})
			progs = append(progs, ip)
		}
	}
	roots := []string{"main"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			safetySink = mir.AnalyzeSafety(p, roots)
		}
	}
}
