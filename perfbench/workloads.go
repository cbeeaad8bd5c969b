package main

import (
	"fmt"
	"math/rand"

	"repro/internal/progen"
	"repro/internal/spec"
)

// program is one corpus entry: C source, its entry function and the
// number of distinct issues (Reporter.NumIssues) its verdict must show.
type program struct {
	name   string
	src    string
	entry  string
	issues int
}

// workload is a named corpus. gen builds the sources from the workload
// seed; seeded is false when the sources are fixed and the seed is
// ignored. passSeconds is the nominal wall time of one pass on a 2-CPU
// x86-64 box at 2.1 GHz; a run times --seconds / passSeconds passes.
type workload struct {
	name        string
	seeded      bool
	gen         func(seed int64) []program
	passSeconds float64
}

var workloads = []workload{
	{name: "spec", seeded: false, gen: specCorpus, passSeconds: 2.1},
	{name: "instrument", seeded: true, gen: instrumentCorpus, passSeconds: 2.6},
	{name: "metadata", seeded: true, gen: metadataCorpus, passSeconds: 2.1},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// specCorpus is the 19 Fig. 7 kernels with the paper's issue counts.
func specCorpus(int64) []program {
	var out []program
	for _, b := range spec.Benchmarks() {
		out = append(out, program{name: b.Name, src: b.Source, entry: b.Entry, issues: b.PaperIssues})
	}
	return out
}

// shape is one progen configuration of a seeded corpus; n programs are
// drawn from it, each from its own seed.
type shape struct {
	name string
	n    int
	opts progen.Options
}

// instrumentCorpus mirrors the difftest oracle's traffic: several small
// functions per type, every check-optimiser shape, few rounds. The
// static safety analysis and elision passes dominate the verdict time.
func instrumentCorpus(seed int64) []program {
	base := progen.Options{Types: 3, Funcs: 2, Rounds: 16}
	with := func(f func(*progen.Options)) progen.Options {
		o := base
		f(&o)
		return o
	}
	return draw(seed, []shape{
		{"diamonds", 16, with(func(o *progen.Options) { o.Diamonds = 4 })},
		{"loop-temp", 16, with(func(o *progen.Options) { o.LoopHeavy, o.TempHeavy = true, true })},
		{"static-interior", 16, with(func(o *progen.Options) { o.StaticSafe, o.Interior = true, true })},
		{"libcalls", 16, with(func(o *progen.Options) { o.LibCalls = true })},
	})
}

// metadataCorpus is the metadata-bound mix: a type population that
// misses the exact-match fast path and builds layout tables, library
// and interior-pointer traffic served by the inline caches, and
// allocation churn that keeps writing META headers.
func metadataCorpus(seed int64) []program {
	return draw(seed, []shape{
		{"typeexplosion", 6, progen.Options{Types: 1, Funcs: 1, Rounds: 6, TypeExplosion: 512}},
		{"libcalls", 12, progen.Options{Types: 1, Funcs: 1, Rounds: 150, LibCalls: true}},
		{"interior", 12, progen.Options{Types: 1, Funcs: 1, Rounds: 150, Interior: true}},
		{"allocheavy", 12, progen.Options{Types: 2, Funcs: 1, Rounds: 250, AllocHeavy: true}},
	})
}

// draw generates every shape's programs, each from a seed drawn from
// the workload seed, so one seed fixes the whole corpus.
func draw(seed int64, shapes []shape) []program {
	r := rand.New(rand.NewSource(seed))
	var out []program
	for _, s := range shapes {
		for i := 0; i < s.n; i++ {
			ps := r.Int63()
			out = append(out, program{
				name:  fmt.Sprintf("%s-%d", s.name, i),
				src:   progen.Generate(ps, s.opts),
				entry: "main",
			})
		}
	}
	return out
}
