package milp

import (
	"context"
	"math"
	"time"
)

// lpEngine abstracts the per-node LP solver behind branch-and-bound. Two
// implementations exist: the sparse revised simplex (default — LU basis +
// eta file, snapshots are O(bounds)) and the historical dense tableau
// (EngineDense — the reference implementation, snapshots copy m·n
// cells). Branch-and-bound owns the tree policy; engines own warm-start
// state, snapshot budgets, and refactorization policy.
type lpEngine interface {
	// cold solves the node's materialized bounds from scratch; on
	// optimality the engine's state becomes the warm parent (seq advances).
	cold(lb, ub []float64) (lpStatus, float64, []float64)
	// warm solves node (a single bound delta against its parent state);
	// ok=false means the caller must fall back to cold. warm consumes
	// node.snap when present.
	warm(node *bbNode) (st lpStatus, obj float64, x []float64, ok bool)
	// seq names the engine's current solved optimal state (0 = none).
	seq() uint64
	// snap captures the current state for a far child; nil when warm
	// starting is off, no state is held, or the snapshot budget is spent.
	snap() nodeSnap
	// drop returns an unconsumed snapshot's memory to the budget.
	drop(sn nodeSnap)
	// iters reports cumulative simplex iterations across all node solves.
	iters() int
	// counters reports the sparse engine's factorization metrics
	// (zero for the dense engine).
	counters() (refactors, luFill, certInfeas int)
	// rcFix derives reduced-cost bound fixes for the given integer
	// variables right after an optimal solve; gap is the objective headroom
	// to the incumbent cutoff. Engines may return nil — the dense reference
	// engine always does, because its incrementally-maintained reduced
	// costs are not trusted for pruning.
	rcFix(intVars []int, gap float64) []boundFix
}

// nodeSnap is an engine-specific warm-start snapshot carried by a bbNode.
type nodeSnap any

// denseEngine wraps the dense-tableau simplex (simplex.go / dual.go) in
// the engine interface. Its refactorization policy is the historical one:
// a fixed counter of consecutive warm solves forces a cold rebuild.
type denseEngine struct {
	ctx      context.Context
	deadline time.Time
	c        []float64
	rows     []rowData
	useWarm  bool

	hot       *simplex
	curSeq    uint64
	nextSeq   uint64
	snapCells int
	warmSince int
	itersN    int
}

func (e *denseEngine) expired() bool {
	if e.ctx != nil && e.ctx.Err() != nil {
		return true
	}
	return !e.deadline.IsZero() && time.Now().After(e.deadline)
}

// cold rebuilds the tableau from scratch (the refactorization path). On
// optimality the fresh instance becomes the hot state so the node's
// children can warm-start; otherwise the previous hot state is left intact
// for other stack entries that still reference it.
func (e *denseEngine) cold(lb, ub []float64) (lpStatus, float64, []float64) {
	st, obj, x, s := solveLPKeep(e.ctx, e.c, lb, ub, e.rows, e.deadline)
	if s != nil {
		e.itersN += s.pivots
	}
	e.warmSince = 0
	if st == lpOptimal && s != nil && e.useWarm {
		e.hot = s
		e.nextSeq++
		e.curSeq = e.nextSeq
	}
	return st, obj, x
}

// warm solves node from its parent's basis. ok=false means the caller must
// fall back to cold: the periodic refactorization counter expired,
// dimensions changed under a snapshot, the pivot cap was hit without the
// budget expiring, the final primal verification failed, or the dual
// concluded infeasibility (which is re-proved cold rather than trusted on
// an incrementally-updated tableau).
func (e *denseEngine) warm(node *bbNode) (lpStatus, float64, []float64, bool) {
	if e.warmSince >= refactorEvery {
		return 0, 0, nil, false
	}
	if node.snap != nil {
		sn := node.snap.(*lpSnapshot)
		node.snap = nil
		e.snapCells -= sn.cells
		if e.hot == nil || !e.hot.restore(sn) {
			return 0, 0, nil, false
		}
	} else if e.curSeq == 0 || node.parentSeq != e.curSeq {
		return 0, 0, nil, false
	}
	e.curSeq = 0 // the hot basis mutates now; its previous identity is gone
	if !e.hot.applyBound(node.v, node.lo, node.hi) {
		return lpInfeasible, 0, nil, true // empty domain needs no proof
	}
	for _, f := range node.fixes {
		lo, hi := f.lo, f.hi
		if e.hot.lb[f.v] > lo {
			lo = e.hot.lb[f.v]
		}
		if e.hot.ub[f.v] < hi {
			hi = e.hot.ub[f.v]
		}
		if !e.hot.applyBound(f.v, lo, hi) {
			return lpInfeasible, 0, nil, true
		}
	}
	p0 := e.hot.pivots
	dst := e.hot.dualIterate(dualPivotCap(e.hot.m))
	if dst == lpOptimal {
		// Primal verification/polish: recomputes reduced costs from the
		// current tableau and pivots if anything is left on the table, so a
		// warm node ends exactly as optimal as a cold one.
		dst = e.hot.iterate(false)
	}
	e.itersN += e.hot.pivots - p0
	switch dst {
	case lpOptimal:
		e.warmSince++
		e.nextSeq++
		e.curSeq = e.nextSeq
		return lpOptimal, e.hot.objective(), e.hot.values(), true
	case lpIterLimit:
		if e.expired() {
			return lpIterLimit, 0, nil, true
		}
		return 0, 0, nil, false // pivot cap: numerical trouble
	default: // lpInfeasible (re-prove cold), lpUnbounded (drift)
		return 0, 0, nil, false
	}
}

func (e *denseEngine) seq() uint64 { return e.curSeq }

func (e *denseEngine) snap() nodeSnap {
	if !e.useWarm || e.curSeq == 0 || e.hot == nil {
		return nil
	}
	if e.hot.m*e.hot.n > warmCellBudget-e.snapCells {
		return nil
	}
	sn := e.hot.snapshot()
	e.snapCells += sn.cells
	return sn
}

func (e *denseEngine) drop(sn nodeSnap)          { e.snapCells -= sn.(*lpSnapshot).cells }
func (e *denseEngine) iters() int                { return e.itersN }
func (e *denseEngine) counters() (int, int, int) { return 0, 0, 0 }

// rcFix is a no-op for the dense engine: its reduced costs are maintained
// incrementally across pivots (with periodic recomputes), and pruning
// decisions must not ride on drifted values. The dense path stays the
// plain reference implementation.
func (e *denseEngine) rcFix([]int, float64) []boundFix { return nil }

// sparseEngine wraps the sparse revised simplex. One sparseLP instance is
// built per block and reused by every node: cold solves reset the crash
// basis in place, warm solves repair the current optimal state with dual
// pivots against the LU+eta factorization. Refactorization is triggered by
// eta-file length and stability inside sparseLP, not counted here.
type sparseEngine struct {
	ctx      context.Context
	deadline time.Time
	c        []float64
	rows     []rowData
	useWarm  bool
	devexOff bool

	lp        *sparseLP
	curSeq    uint64
	nextSeq   uint64
	snapCells int
	itersN    int
	// solvedOK marks the lp instance as holding the most recent node's
	// optimal state — the precondition for reading duals in rcFix. It is
	// false after the (effectively unreachable) dense fallback of cold and
	// after failed warm solves, independent of curSeq, which also goes to
	// zero under Options.coldLP where rcFix is still valid.
	solvedOK bool
}

func (e *sparseEngine) ensure() *sparseLP {
	if e.lp == nil {
		e.lp = newSparseLP(e.c, e.rows, e.devexOff)
		e.lp.ctx = e.ctx
		e.lp.deadline = e.deadline
	}
	return e.lp
}

func (e *sparseEngine) cold(lb, ub []float64) (lpStatus, float64, []float64) {
	s := e.ensure()
	p0 := s.pivots
	st := s.solveCold(lb, ub)
	e.itersN += s.pivots - p0
	e.curSeq = 0
	e.solvedOK = st == lpOptimal
	if st == lpNumeric {
		// The factorization failed beyond repair (effectively unreachable:
		// the crash basis is diagonal) — fall back to the dense reference
		// solver for this node, size permitting.
		st2, obj, x, ds := solveLPKeep(e.ctx, e.c, lb, ub, e.rows, e.deadline)
		if ds != nil {
			e.itersN += ds.pivots
		}
		return st2, obj, x
	}
	if st != lpOptimal {
		return st, 0, nil
	}
	if e.useWarm {
		e.nextSeq++
		e.curSeq = e.nextSeq
	}
	return lpOptimal, s.objective(), s.values()
}

// warm solves node from its parent's state. Unlike the dense path, a dual
// infeasibility verdict is returned as solved when dualIterate verified
// its Farkas certificate against the original constraint data — no cold
// re-proof.
func (e *sparseEngine) warm(node *bbNode) (lpStatus, float64, []float64, bool) {
	s := e.lp
	e.solvedOK = false
	if node.snap != nil {
		sn := node.snap.(*sparseSnap)
		node.snap = nil
		e.snapCells -= sn.cells
		if s == nil {
			return 0, 0, nil, false
		}
		s.restore(sn)
	} else if e.curSeq == 0 || node.parentSeq != e.curSeq {
		return 0, 0, nil, false
	}
	e.curSeq = 0
	if !s.applyBound(node.v, node.lo, node.hi) {
		return lpInfeasible, 0, nil, true // empty domain needs no proof
	}
	// Reduced-cost fixes intersect with the engine's current bounds (they
	// never relax what branching already imposed on the same variable).
	for _, f := range node.fixes {
		lo, hi := f.lo, f.hi
		if s.lb[f.v] > lo {
			lo = s.lb[f.v]
		}
		if s.ub[f.v] < hi {
			hi = s.ub[f.v]
		}
		if !s.applyBound(f.v, lo, hi) {
			return lpInfeasible, 0, nil, true
		}
	}
	p0 := s.pivots
	dst := s.dualIterate(dualPivotCap(s.m))
	if dst == lpOptimal {
		// Primal verification/polish with freshly priced reduced costs, so
		// a warm node ends exactly as optimal as a cold one.
		dst = s.primalIterate(false)
	}
	e.itersN += s.pivots - p0
	switch dst {
	case lpOptimal:
		e.nextSeq++
		e.curSeq = e.nextSeq
		e.solvedOK = true
		return lpOptimal, s.objective(), s.values(), true
	case lpInfeasible:
		return lpInfeasible, 0, nil, true // Farkas-certified
	case lpIterLimit:
		if s.expired() {
			return lpIterLimit, 0, nil, true
		}
		return 0, 0, nil, false // pivot cap: numerical trouble
	default: // lpNumeric, lpUnbounded (drift)
		return 0, 0, nil, false
	}
}

func (e *sparseEngine) seq() uint64 { return e.curSeq }

func (e *sparseEngine) snap() nodeSnap {
	if !e.useWarm || e.curSeq == 0 || e.lp == nil {
		return nil
	}
	if 3*e.lp.n+2*e.lp.m > warmCellBudget-e.snapCells {
		return nil
	}
	sn := e.lp.snapshot()
	e.snapCells += sn.cells
	return sn
}

func (e *sparseEngine) drop(sn nodeSnap) { e.snapCells -= sn.(*sparseSnap).cells }
func (e *sparseEngine) iters() int       { return e.itersN }

func (e *sparseEngine) counters() (int, int, int) {
	if e.lp == nil {
		return 0, 0, 0
	}
	return e.lp.refactors, e.lp.luFill, e.lp.certified
}

// rcFix scans the nonbasic integer variables of the just-solved node: one
// whose reduced cost times its smallest admissible integer step exceeds
// the objective gap cannot move off its bound in any improving solution,
// so the subtree pins it there. The duals come from the same BTRAN the
// pricing loop runs; reduced costs are recomputed fresh per column, never
// read from incremental state.
func (e *sparseEngine) rcFix(intVars []int, gap float64) []boundFix {
	s := e.lp
	if s == nil || !e.solvedOK || gap < 0 {
		return nil
	}
	var fixes []boundFix
	var y []float64
	for _, iv := range intVars {
		if s.ub[iv]-s.lb[iv] < feasTol {
			continue // already fixed
		}
		st := s.status[iv]
		if st == inBasis {
			continue
		}
		if y == nil {
			y = s.duals()
		}
		d := s.realCost[iv] - s.a.dotCol(y, iv)
		if st == atLower {
			// Smallest admissible move up: to the next integer above lb
			// (lb itself is usually integral, giving a step of 1).
			step := math.Floor(s.lb[iv]+1e-6) + 1 - s.lb[iv]
			if d*step > gap+rcFixTol {
				fixes = append(fixes, boundFix{v: iv, lo: s.lb[iv], hi: s.lb[iv]})
			}
		} else {
			step := s.ub[iv] - (math.Ceil(s.ub[iv]-1e-6) - 1)
			if -d*step > gap+rcFixTol {
				fixes = append(fixes, boundFix{v: iv, lo: s.ub[iv], hi: s.ub[iv]})
			}
		}
	}
	return fixes
}
