package mir

import (
	"testing"

	"repro/internal/ctypes"
)

// buildDiamond builds:
//
//	entry(0) -> {left(1), right(2)}; left,right -> join(3); join -> ret
func buildDiamond(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "d", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	left, right, join := b.Reserve("left"), b.Reserve("right"), b.Reserve("join")
	b.Br(b.Param(0), left, right)
	b.SetBlock(left)
	b.Jmp(join)
	b.SetBlock(right)
	b.Jmp(join)
	b.SetBlock(join)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F
}

func TestCFGDiamond(t *testing.T) {
	f := buildDiamond(t)
	c := NewCFG(f)

	if got := c.Succs[0]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("entry succs = %v, want [1 2]", got)
	}
	if got := c.Preds[3]; len(got) != 2 {
		t.Fatalf("join preds = %v, want two", got)
	}
	if c.RPO[0] != 0 {
		t.Fatalf("RPO starts at %d, want entry", c.RPO[0])
	}
	// Acyclic: every edge goes forward in reverse postorder, so the join
	// comes after both arms.
	checkRPOForward(t, c, nil)
	if c.RPO[3] != 3 {
		t.Errorf("RPO = %v, want the join last", c.RPO)
	}
}

// checkRPOForward asserts that c.RPO lists every reachable block once
// and that every edge except the listed back edges goes forward in it.
func checkRPOForward(t *testing.T, c *CFG, back map[[2]int]bool) {
	t.Helper()
	pos := map[int]int{}
	for i, b := range c.RPO {
		if _, dup := pos[b]; dup {
			t.Fatalf("RPO %v lists block %d twice", c.RPO, b)
		}
		pos[b] = i
	}
	for from, ss := range c.Succs {
		if _, ok := pos[from]; !ok {
			continue
		}
		for _, to := range ss {
			if back[[2]int{from, to}] {
				if pos[to] > pos[from] {
					t.Errorf("back edge %d->%d goes forward in RPO %v", from, to, c.RPO)
				}
				continue
			}
			if pos[to] <= pos[from] {
				t.Errorf("edge %d->%d goes backward in RPO %v", from, to, c.RPO)
			}
		}
	}
}

// buildLoop builds entry(0) -> head(1); head -> {body(2), exit(3)};
// body -> head.
func buildLoop(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "l", ctypes.Int, Param{Name: "n", Type: ctypes.Int})
	head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	b.Br(b.Param(0), body, exit)
	b.SetBlock(body)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.F
}

func TestCFGLoop(t *testing.T) {
	f := buildLoop(t)
	c := NewCFG(f)

	if got := c.Preds[1]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("head preds = %v, want [0 2]", got)
	}
	if len(c.RPO) != 4 {
		t.Fatalf("RPO = %v, want all four blocks", c.RPO)
	}
	checkRPOForward(t, c, map[[2]int]bool{{2, 1}: true})
}

func TestCFGUnreachableBlock(t *testing.T) {
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
	c := NewCFG(b.F)
	if len(c.RPO) != 1 {
		t.Fatalf("RPO = %v, want entry only", c.RPO)
	}
	if len(c.Preds[dead]) != 0 {
		t.Errorf("unreachable block has preds %v", c.Preds[dead])
	}
}

// TestCFGNestedLoops checks the reverse postorder on a nested loop with
// an early exit from the inner loop.
func TestCFGNestedLoops(t *testing.T) {
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "n", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	outer := b.Reserve("outer")
	inner := b.Reserve("inner")
	innerBody := b.Reserve("innerBody")
	outerLatch := b.Reserve("outerLatch")
	exit := b.Reserve("exit")
	b.Jmp(outer)
	b.SetBlock(outer)
	b.Jmp(inner)
	b.SetBlock(inner)
	b.Br(b.Param(0), innerBody, outerLatch)
	b.SetBlock(innerBody)
	b.Br(b.Param(0), inner, exit) // early exit from the inner loop
	b.SetBlock(outerLatch)
	b.Br(b.Param(0), outer, exit)
	b.SetBlock(exit)
	b.Ret(b.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c := NewCFG(b.F)

	if len(c.RPO) != 6 {
		t.Fatalf("RPO = %v, want all six blocks", c.RPO)
	}
	// exit is reached from innerBody and outerLatch, so it comes after
	// both; only the two latches jump backward.
	checkRPOForward(t, c, map[[2]int]bool{{innerBody, inner}: true, {outerLatch, outer}: true})
}
