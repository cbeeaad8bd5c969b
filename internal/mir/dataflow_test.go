package mir

import (
	"strings"
	"testing"

	"repro/internal/ctypes"
)

// availProblem is a toy available-expressions instance for exercising
// the solver: the fact set is the set of block indices guaranteed to
// have executed on EVERY path to the current point; each block's
// transfer adds its own index; the meet is set intersection.
func availProblem() ForwardProblem[map[int]bool] {
	return ForwardProblem[map[int]bool]{
		Entry: func() map[int]bool { return map[int]bool{} },
		Transfer: func(b int, in map[int]bool) map[int]bool {
			out := make(map[int]bool, len(in)+1)
			for k := range in {
				out[k] = true
			}
			out[b] = true
			return out
		},
		Meet: func(a, b map[int]bool) map[int]bool {
			out := map[int]bool{}
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b map[int]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
}

func wantSet(t *testing.T, name string, got map[int]bool, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestSolveForwardDiamond: the join's in-state is the intersection of
// the arm out-states — only the entry is on every path.
func TestSolveForwardDiamond(t *testing.T) {
	f := buildDiamond(t)
	in, solved := SolveForward(NewCFG(f), availProblem())
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	wantSet(t, "in[entry]", in[0])
	wantSet(t, "in[left]", in[1], 0)
	wantSet(t, "in[right]", in[2], 0)
	wantSet(t, "in[join]", in[3], 0) // arms intersect away: {0,1} ∩ {0,2}
}

// TestSolveForwardLoop: the back edge refines the header's in-state to
// the greatest fixpoint — facts from the body survive only if on every
// path, which the entry edge denies.
func TestSolveForwardLoop(t *testing.T) {
	f := buildLoop(t) // entry(0) -> head(1); head -> {body(2), exit(3)}; body -> head
	in, solved := SolveForward(NewCFG(f), availProblem())
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	wantSet(t, "in[head]", in[1], 0) // {0} ∩ {0,1,2} from the back edge
	wantSet(t, "in[body]", in[2], 0, 1)
	wantSet(t, "in[exit]", in[3], 0, 1)
}

// TestSolveForwardUnreachable: blocks unreachable from the entry are
// reported unsolved, not given a fabricated state.
func TestSolveForwardUnreachable(t *testing.T) {
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "u", ctypes.Int)
	dead := b.Reserve("dead")
	b.Ret(b.Const(ctypes.Int, 0))
	b.SetBlock(dead)
	b.Ret(b.Const(ctypes.Int, 1))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	in, solved := SolveForward(NewCFG(b.F), availProblem())
	if !solved[0] || solved[dead] {
		t.Fatalf("solved = %v, want entry only", solved)
	}
	if in[dead] != nil {
		t.Fatalf("unreachable block got state %v", in[dead])
	}
}

// buildIrreducible builds a CFG with no single loop header:
//
//	entry(0) -> {a(1), b(2)}; a -> b; b -> {a, exit(3)}
//
// a and b form a loop enterable at either node — irreducible, so no
// dominator-based interval analysis applies, but the worklist solver
// must still converge to the meet-over-paths solution.
func buildIrreducible(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	fb := NewFunc(p, "irr", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	a, b, exit := fb.Reserve("a"), fb.Reserve("b"), fb.Reserve("exit")
	fb.Br(fb.Param(0), a, b)
	fb.SetBlock(a)
	fb.Jmp(b)
	fb.SetBlock(b)
	fb.Br(fb.Param(0), a, exit)
	fb.SetBlock(exit)
	fb.Ret(fb.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return fb.F
}

// TestSolveForwardIrreducible: convergence and precision on a CFG the
// dominator tree cannot describe — both loop entries see only the
// entry block as guaranteed.
func TestSolveForwardIrreducible(t *testing.T) {
	f := buildIrreducible(t)
	in, solved := SolveForward(NewCFG(f), availProblem())
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	// a's preds: entry {0} and b {0,2,...} — intersection {0}.
	wantSet(t, "in[a]", in[1], 0)
	// b's preds: entry {0} and a {0,1} — intersection {0}.
	wantSet(t, "in[b]", in[2], 0)
	wantSet(t, "in[exit]", in[3], 0, 2)
}

// ---------------------------------------------------------------------
// The MaxVisits backstop.

// counterProblem is the canonical infinite-ascending-chain instance: an
// unbounded int counter over buildLoop's CFG (entry(0) -> head(1);
// head -> {body(2), exit(3)}; body -> head) whose body increments it
// and whose meet is max — the head's in-state grows by one per trip
// around the loop and never stabilises.
func counterProblem() ForwardProblem[int] {
	return ForwardProblem[int]{
		Entry: func() int { return 0 },
		Transfer: func(b int, in int) int {
			if b == 2 { // body: i = i + 1
				return in + 1
			}
			return in
		},
		Meet:  func(a, b int) int { return max(a, b) },
		Equal: func(a, b int) bool { return a == b },
		// Fail fast instead of looping for 10000 visits.
		MaxVisits: 64,
	}
}

// TestSolveForwardUnwidenedPanics: a problem over an infinite-height
// lattice must be caught by the MaxVisits backstop — a loud panic, not
// an infinite loop (the ascending chain 0, 1, 2, ... never stabilises on
// its own).
func TestSolveForwardUnwidenedPanics(t *testing.T) {
	f := buildLoop(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("infinite-height problem did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "MaxVisits") {
			t.Fatalf("panic = %v, want the MaxVisits diagnostic", r)
		}
	}()
	SolveForward(NewCFG(f), counterProblem())
}

// TestSolveForwardNonMonotonePanics: a transfer function that
// oscillates between two states (non-monotone — a larger input maps to
// a smaller output) can never converge; the solver must detect the
// livelock via MaxVisits and panic rather than spin.
func TestSolveForwardNonMonotonePanics(t *testing.T) {
	f := buildLoop(t)
	flip := 0
	p := counterProblem()
	p.Transfer = func(b int, in int) int {
		if b == 2 {
			flip++
			if flip%2 == 0 {
				return 1
			}
			return 2
		}
		return in
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("non-monotone transfer did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "non-monotone") {
			t.Fatalf("panic = %v, want the non-monotone diagnostic", r)
		}
	}()
	SolveForward(NewCFG(f), p)
}
