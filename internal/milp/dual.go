package milp

import "math"

// This file implements the warm-started bounded-variable dual simplex used
// by branch-and-bound. A child node differs from its parent by a single
// variable-bound change, so instead of rebuilding a dense tableau and
// re-running phase 1/phase 2 from scratch (solveLPKeep), the child starts from
// its parent's optimal basis, applies the bound delta, and restores primal
// feasibility with dual pivots — typically a handful instead of a full
// solve. Dual feasibility (the sign conditions on the reduced costs) is an
// invariant of the dual ratio test, so the moment every basic value is back
// inside its bounds the point is optimal again.
//
// The machinery is deliberately conservative about numerics: a dual solve
// that blows its pivot cap, concludes infeasibility, or fails the final
// primal verification falls back to the cold two-phase solve, and
// branch-and-bound forces a cold rebuild (refactorization) after
// refactorEvery consecutive warm solves to contain incremental tableau
// drift.

// warmCellBudget bounds the total tableau cells held by outstanding
// snapshots of one branch-and-bound search (2^21 float64 ≈ 16MB). Beyond
// it, far children are pushed without a snapshot and re-solve cold when
// popped.
const warmCellBudget = 2 << 20

// refactorEvery is how many consecutive warm solves may reuse the
// incrementally-updated tableau before branch-and-bound forces a cold
// rebuild of the next node, containing numerical drift.
const refactorEvery = 64

// dualPivotCap bounds one warm repair. Warm-started nodes typically need
// under ten pivots; hitting the cap signals degeneracy or numerical
// trouble, and the caller refactorizes via a cold solve.
func dualPivotCap(m int) int { return 200 + 4*m }

// lpSnapshot captures a solved simplex state so the second child of a
// branch can warm-start after the first child's dive has mutated the hot
// instance. Snapshots are single-use: restore adopts the buffers rather
// than copying them back.
type lpSnapshot struct {
	m, n, artStart int
	T              []float64 // m×n, row-major
	lb, ub, xB, d  []float64
	status         []varStatus
	basis          []int
	cells          int
}

// snapshot copies the current state. The caller accounts cells against the
// warm-start memory budget.
func (s *simplex) snapshot() *lpSnapshot {
	sn := &lpSnapshot{
		m: s.m, n: s.n, artStart: s.artStart,
		T:      make([]float64, s.m*s.n),
		lb:     append([]float64(nil), s.lb...),
		ub:     append([]float64(nil), s.ub...),
		xB:     append([]float64(nil), s.xB...),
		d:      append([]float64(nil), s.d...),
		status: append([]varStatus(nil), s.status...),
		basis:  append([]int(nil), s.basis...),
		cells:  s.m * s.n,
	}
	for i, row := range s.T {
		copy(sn.T[i*s.n:(i+1)*s.n], row)
	}
	return sn
}

// restore adopts a snapshot's buffers into s (zero-copy; the snapshot is
// dead afterwards). It fails when s was rebuilt with different dimensions
// since the snapshot was taken — the artificial-column count depends on
// node bounds — in which case the caller falls back to a cold solve.
func (s *simplex) restore(sn *lpSnapshot) bool {
	if sn.m != s.m || sn.n != s.n || sn.artStart != s.artStart {
		return false
	}
	for i := range s.T {
		s.T[i] = sn.T[i*s.n : (i+1)*s.n : (i+1)*s.n]
	}
	s.lb, s.ub, s.xB, s.d = sn.lb, sn.ub, sn.xB, sn.d
	s.status, s.basis = sn.status, sn.basis
	for j := range s.rowOf {
		s.rowOf[j] = -1
	}
	for i, b := range s.basis {
		s.rowOf[b] = i
	}
	// The snapshot was taken after phase 2; make sure the costs agree even
	// if s last ended mid-phase-1 (e.g. a cold solve that proved a node
	// infeasible).
	copy(s.cost, s.realCost)
	for j := s.nStruct; j < s.n; j++ {
		s.cost[j] = 0
	}
	return true
}

// applyBound replaces variable j's bounds, keeping basic values consistent:
// when j is nonbasic at a bound that moved, every basic value shifts by
// −T[·][j]·delta. A basic j whose value now violates a bound is left for
// the dual iterations to repair. Reports false when the new domain is
// empty (the node is trivially infeasible).
//
//lint:floatexact exact-zero test on a bound delta decides whether any update work exists at all
func (s *simplex) applyBound(j int, lo, hi float64) bool {
	if lo > hi+feasTol {
		return false
	}
	var delta float64
	switch s.status[j] {
	case atLower:
		delta = lo - s.lb[j]
	case atUpper:
		delta = hi - s.ub[j]
	}
	if delta != 0 {
		for i := 0; i < s.m; i++ {
			if t := s.T[i][j]; t != 0 {
				s.xB[i] -= t * delta
			}
		}
	}
	s.lb[j], s.ub[j] = lo, hi
	return true
}

// dualIterate runs dual simplex pivots until every basic value is back
// within its bounds (lpOptimal — dual feasibility is maintained
// throughout, so primal feasibility means optimality), the violated row
// proves the node infeasible (lpInfeasible), the context expires, or the
// pivot cap is hit (both lpIterLimit; the caller distinguishes via
// ctx.Err()).
func (s *simplex) dualIterate(maxPiv int) lpStatus {
	for iter := 0; iter < maxPiv; iter++ {
		if iter&63 == 63 && s.ctx.Err() != nil {
			return lpIterLimit
		}
		if iter&255 == 255 {
			s.computeReducedCosts() // contain incremental drift
		}
		// Leaving variable: the basic value with the largest bound
		// violation.
		r := -1
		below := false
		worst := feasTol
		for i := 0; i < s.m; i++ {
			k := s.basis[i]
			if v := s.lb[k] - s.xB[i]; v > worst {
				worst, r, below = v, i, true
			}
			if v := s.xB[i] - s.ub[k]; v > worst {
				worst, r, below = v, i, false
			}
		}
		if r < 0 {
			return lpOptimal
		}
		row := s.T[r]
		// Dual ratio test over admissible nonbasic columns: the pivot must
		// keep every reduced cost on the right side of zero. The dual step
		// is θ = d[q]/row[q]; for a violation below the lower bound θ ≤ 0
		// and the binding candidate has the largest ratio, above the upper
		// bound θ ≥ 0 and it has the smallest.
		enter := -1
		var best float64
		for j := 0; j < s.n; j++ {
			st := s.status[j]
			if st == inBasis || s.ub[j]-s.lb[j] < feasTol {
				continue // basic or fixed (artificials are pinned to 0)
			}
			t := row[j]
			var ok bool
			if below {
				ok = (st == atLower && t < -pivotTol) || (st == atUpper && t > pivotTol)
			} else {
				ok = (st == atLower && t > pivotTol) || (st == atUpper && t < -pivotTol)
			}
			if !ok {
				continue
			}
			ratio := s.d[j] / t
			switch {
			case enter < 0:
			case below && ratio > best+costTol:
			case !below && ratio < best-costTol:
			case math.Abs(ratio-best) <= costTol && math.Abs(t) > math.Abs(row[enter]):
				// Near-tie: the larger pivot magnitude is numerically safer.
			default:
				continue
			}
			enter, best = j, ratio
		}
		if enter < 0 {
			// No column can absorb the violation without breaking dual
			// feasibility: the row proves the node's LP infeasible.
			return lpInfeasible
		}
		k := s.basis[r]
		dir := 1.0
		if s.status[enter] == atUpper {
			dir = -1
		}
		target, leaveAt := s.ub[k], atUpper
		if below {
			target, leaveAt = s.lb[k], atLower
		}
		// The admissibility conditions make row[enter]·dir and
		// xB[r]−target share a sign, so the primal step is nonnegative.
		t := (s.xB[r] - target) / (row[enter] * dir)
		if t < 0 {
			t = 0 // numerical guard: never step backwards
		}
		s.applyStep(enter, dir, t)
		s.pivots++
		s.pivot(r, enter, dir, t, leaveAt)
	}
	return lpIterLimit
}
