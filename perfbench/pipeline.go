package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
)

// exec is one program's trip from C source to verdict, plus the
// uninstrumented run of the same compiled program.
type exec struct {
	prog *program

	compile, instrument, newInterp, run, baseRun time.Duration

	value, baseValue uint64
	rep              *core.Reporter
	stats            core.StatsSnapshot
	istats           instrument.Stats
	heapPeak         uint64 // instrumented HeapPeak
	basePeak         uint64 // uninstrumented HeapPeak
	heapAllocs       uint64 // low-fat allocations, instrumented run
	heapFrees        uint64
	touched          int64 // simulated memory materialised, instrumented run
	instrs           int   // MIR instructions of the compiled program

	// Go heap allocations, counted only by traced executions.
	ccAllocs, instrAllocs, runAllocs uint64

	err error // nil when the verdict is correct
}

// runProgram takes p through the product's default path — cc.Compile,
// instrument.Instrument with default options, core.NewRuntime, mir.New
// and Interp.Run in logging mode — then runs the uninstrumented baseline
// on the same compiled program and checks the verdict. A panic in any
// layer is recovered here and recorded as the execution's failure. With
// a tracer every layer call gets a span under parent.
func runProgram(p *program, tr *tracer, parent int) (x exec) {
	x.prog = p
	defer func() {
		if r := recover(); r != nil {
			x.err = fmt.Errorf("panic: %v", r)
		}
	}()

	// The span sits inside the ReadMemStats calls, so it does not time
	// their stop-the-world pauses.
	m0 := tr.mallocs()
	sp := tr.begin("cc.Compile", parent)
	t := time.Now()
	prog, err := cc.Compile(p.src, ctypes.NewTable())
	x.compile = time.Since(t)
	tr.end(sp)
	x.ccAllocs = tr.mallocs() - m0
	if err != nil {
		x.err = fmt.Errorf("compile: %w", err)
		return x
	}
	for _, f := range prog.Funcs {
		x.instrs += f.NumInstrs()
	}

	m0 = tr.mallocs()
	sp = tr.begin("instrument.Instrument", parent)
	t = time.Now()
	ip, ist := instrument.Instrument(prog, instrument.Options{Variant: instrument.Full, StaticEntry: p.entry})
	x.instrument = time.Since(t)
	tr.end(sp)
	x.instrAllocs = tr.mallocs() - m0
	x.istats = ist

	sp = tr.begin("mir.New", parent)
	t = time.Now()
	rt := core.NewRuntime(core.Options{Types: prog.Types})
	var env mir.Env
	var timed *timedEnv
	if tr == nil {
		env = mir.NewEffEnv(rt)
	} else {
		timed = &timedEnv{EffEnv: mir.NewEffEnv(rt)}
		env = timed
	}
	in, err := mir.New(ip, mir.Options{Env: env, Eff: rt})
	x.newInterp = time.Since(t)
	tr.end(sp)
	if err != nil {
		x.err = fmt.Errorf("mir.New: %w", err)
		return x
	}

	m0 = tr.mallocs()
	sp = tr.begin("Run.instrumented", parent)
	t = time.Now()
	x.value, err = in.Run(p.entry)
	x.run = time.Since(t)
	if timed != nil {
		tr.aggregate(sp, "lowfat", timed.calls, timed.busy)
	}
	tr.end(sp)
	x.runAllocs = tr.mallocs() - m0
	x.rep = rt.Reporter
	x.stats = rt.Stats()
	hs := rt.Heap().Stats()
	x.heapPeak, x.heapAllocs, x.heapFrees = hs.Peak, hs.Allocs, hs.Frees
	x.touched = rt.Mem().TouchedBytes()
	if err != nil {
		x.err = fmt.Errorf("run: %w", err)
		return x
	}

	penv := mir.NewPlainEnv(nil)
	base, err := mir.New(prog, mir.Options{Env: penv})
	if err != nil {
		x.err = fmt.Errorf("mir.New (uninstrumented): %w", err)
		return x
	}
	sp = tr.begin("Run.uninstrumented", parent)
	t = time.Now()
	x.baseValue, err = base.Run(p.entry)
	x.baseRun = time.Since(t)
	tr.end(sp)
	x.basePeak = penv.Heap().Stats().Peak
	if err != nil {
		x.err = fmt.Errorf("uninstrumented run: %w", err)
		return x
	}

	switch {
	case x.value != x.baseValue:
		x.err = fmt.Errorf("value %d, uninstrumented %d", x.value, x.baseValue)
	case x.rep.NumIssues() != p.issues:
		x.err = fmt.Errorf("%d issues, expected %d", x.rep.NumIssues(), p.issues)
	}
	return x
}

// runPass runs every program once, in order, on the calling goroutine.
func runPass(progs []program, tr *tracer) []exec {
	runtime.GC()
	root := tr.begin("pass", -1)
	out := make([]exec, len(progs))
	for i := range progs {
		sp := tr.begin("program:"+progs[i].name, root)
		out[i] = runProgram(&progs[i], tr, sp)
		tr.end(sp)
	}
	tr.end(root)
	return out
}

// timedEnv is the EffectiveSan environment with its allocator calls
// counted and timed, for the traced run's lowfat layer.
type timedEnv struct {
	*mir.EffEnv
	calls uint64
	busy  time.Duration
}

// done charges one allocator call that began at start.
func (e *timedEnv) done(start time.Time) {
	e.calls++
	e.busy += time.Since(start)
}

func (e *timedEnv) Malloc(t *ctypes.Type, size uint64, kind core.AllocKind, site string) uint64 {
	defer e.done(time.Now())
	return e.EffEnv.Malloc(t, size, kind, site)
}

func (e *timedEnv) Free(p uint64, site string) {
	defer e.done(time.Now())
	e.EffEnv.Free(p, site)
}

func (e *timedEnv) Realloc(p uint64, size uint64, site string) uint64 {
	defer e.done(time.Now())
	return e.EffEnv.Realloc(p, size, site)
}

func (e *timedEnv) LegacyAlloc(size uint64) uint64 {
	defer e.done(time.Now())
	return e.EffEnv.LegacyAlloc(size)
}
