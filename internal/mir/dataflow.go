package mir

// This file provides a small generic forward dataflow framework over
// CFG. It exists for the §5.3 check-elision pass's available-check
// analysis (package instrument), but is deliberately problem-agnostic:
// a client supplies the lattice (Meet/Equal), the entry boundary value
// and the per-block transfer function, and SolveForward iterates to the
// greatest fixpoint with a worklist seeded in reverse postorder.
//
// The framework is optimistic: a block whose out-state has not been
// computed yet is treated as ⊤ (the identity of Meet), which is what
// makes the solution the GREATEST fixpoint — the precise form of
// available-expressions analysis. ⊤ never needs to be represented: a
// predecessor with no out-state is simply skipped during the meet, and
// every reachable non-entry block has at least one predecessor earlier
// in reverse postorder (its DFS-tree parent), so the first visit always
// has at least one computed input.

// ForwardProblem describes a forward dataflow problem over the blocks
// of one CFG. F is the fact-set (lattice element) type.
//
// Contract:
//
//   - Entry returns the in-state of the entry block (the boundary
//     condition; for available-check analysis, the empty fact set).
//   - Transfer returns the out-state of block b given its in-state. It
//     must not mutate in (copy first) and must be monotone: a larger
//     in-state may not produce a smaller out-state.
//   - Meet combines two predecessor out-states into one in-state (set
//     intersection for available-expressions). It must not mutate
//     either argument.
//   - Equal reports lattice-element equality; it gates re-queueing, so
//     it must be reflexive and agree with Meet (Equal(a, Meet(a, a))).
//
// Termination requires the usual conditions: Transfer monotone and the
// lattice of reachable values of finite height.
type ForwardProblem[F any] struct {
	Entry    func() F
	Transfer func(b int, in F) F
	Meet     func(a, b F) F
	Equal    func(a, b F) bool

	// MaxVisits caps how many times a single block may be processed; 0
	// means a default of 10000. Exceeding the cap panics: with a correct
	// (monotone, finite-height) problem the solver converges in far fewer
	// visits, so hitting the cap means a buggy transfer function, and a
	// loud stop beats an infinite loop.
	MaxVisits int
}

// SolveForward iterates the problem to fixpoint over the blocks
// reachable from the entry and returns the solved in-state of every
// block. solved[b] reports whether block b was reached; unreachable
// blocks keep the zero F and must be handled by the caller (the elision
// pass falls back to block-local analysis for them).
//
// The worklist is seeded in reverse postorder, so an acyclic CFG solves
// in one sweep and loops converge in O(loop-nesting) sweeps.
func SolveForward[F any](c *CFG, p ForwardProblem[F]) (in []F, solved []bool) {
	n := len(c.f.Blocks)
	in = make([]F, n)
	solved = make([]bool, n)
	out := make([]F, n)
	hasOut := make([]bool, n)
	inQueue := make([]bool, n)
	visits := make([]int, n)

	maxVisits := p.MaxVisits
	if maxVisits <= 0 {
		maxVisits = 10000
	}

	queue := make([]int, 0, len(c.RPO))
	for _, b := range c.RPO {
		queue = append(queue, b)
		inQueue[b] = true
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b] = false

		var newIn F
		if b == 0 {
			newIn = p.Entry()
		} else {
			first := true
			for _, pr := range c.Preds[b] {
				if !hasOut[pr] {
					continue // ⊤: identity of Meet
				}
				if first {
					newIn = out[pr]
					first = false
				} else {
					newIn = p.Meet(newIn, out[pr])
				}
			}
			if first {
				// Every predecessor is still ⊤. Cannot happen for a
				// reachable block (the DFS-tree parent precedes it in
				// RPO), so b leaked into the queue erroneously; skip.
				continue
			}
		}
		visits[b]++
		if visits[b] > maxVisits {
			panic("mir: SolveForward: block revisited beyond MaxVisits; " +
				"transfer function is non-monotone or the lattice has infinite height")
		}
		in[b] = newIn
		solved[b] = true

		newOut := p.Transfer(b, newIn)
		if hasOut[b] && p.Equal(out[b], newOut) {
			continue
		}
		out[b] = newOut
		hasOut[b] = true
		for _, s := range c.Succs[b] {
			if !inQueue[s] {
				queue = append(queue, s)
				inQueue[s] = true
			}
		}
	}
	return in, solved
}
