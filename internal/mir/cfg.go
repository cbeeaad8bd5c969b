package mir

// This file provides the control-flow graph the §5.3 check-elision pass
// runs on: block successors/predecessors derived from the terminators
// (OpJmp/OpBr/OpRet) and a reverse postorder.
//
// The paper's optimiser runs on LLVM IR with full CFG visibility; the
// reproduction's instrument pass previously reused checks within one
// basic block only. CFG gives it the same whole-function view.

// CFG is the control-flow graph of one function. It is a snapshot: the
// function must not be mutated structurally (blocks added/removed,
// terminators changed) while the CFG is in use. Instruction-level edits
// inside blocks are fine — the graph only depends on terminators.
type CFG struct {
	f *Func

	// Succs and Preds are the per-block successor and predecessor lists
	// (block indices). A block ending in OpRet has no successors; an
	// OpBr with identical targets contributes one edge.
	Succs [][]int
	Preds [][]int

	// RPO is a reverse postorder over the blocks reachable from the
	// entry block (index 0). RPO[0] == 0.
	RPO []int
}

// blockSuccs returns the successor block indices of b per its terminator.
// A block that is empty or not properly terminated (possible only on IR
// that would fail Validate) is treated as having no successors.
func blockSuccs(b *Block) []int {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := &b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case OpJmp:
		return []int{t.To}
	case OpBr:
		if t.To == t.Else {
			return []int{t.To}
		}
		return []int{t.To, t.Else}
	}
	return nil
}

// NewCFG builds the control-flow graph and reverse postorder of f.
func NewCFG(f *Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{
		f:     f,
		Succs: make([][]int, n),
		Preds: make([][]int, n),
	}
	for i, b := range f.Blocks {
		c.Succs[i] = blockSuccs(b)
	}
	for i, ss := range c.Succs {
		for _, s := range ss {
			c.Preds[s] = append(c.Preds[s], i)
		}
	}
	c.buildRPO()
	return c
}

// buildRPO computes a reverse postorder of the blocks reachable from
// block 0 (iterative DFS, postorder reversed).
func (c *CFG) buildRPO() {
	n := len(c.f.Blocks)
	if n == 0 {
		return
	}
	visited := make([]bool, n)
	var post []int
	type frame struct {
		b    int
		next int
	}
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(c.Succs[fr.b]) {
			s := c.Succs[fr.b][fr.next]
			fr.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, fr.b)
		stack = stack[:len(stack)-1]
	}
	c.RPO = make([]int, len(post))
	for i, b := range post {
		c.RPO[len(post)-1-i] = b
	}
}
