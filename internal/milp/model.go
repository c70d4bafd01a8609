// Package milp is a self-contained mixed-integer linear programming solver:
// a bounded-variable two-phase primal simplex for linear relaxations and a
// branch-and-bound search for integrality. It stands in for the commercial
// solver (CPLEX) used by the paper. The solver performs block decomposition
// as a presolve step — independent sub-problems (connected components of
// the variable/constraint graph) are detected and solved separately — which
// mirrors what modern solvers do and keeps memory proportional to the
// largest block rather than the whole model.
package milp

import (
	"fmt"
	"math"
	"time"
)

// Sense is the optimization direction.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// VarType classifies a decision variable.
type VarType int

const (
	// Continuous variables take any value within bounds.
	Continuous VarType = iota
	// Integer variables must take integral values within bounds.
	Integer
	// Binary variables are integers restricted to {0, 1}.
	Binary
)

// ConstrSense is a constraint's relational operator.
type ConstrSense int

const (
	// LE is ≤.
	LE ConstrSense = iota
	// GE is ≥.
	GE
	// EQ is =.
	EQ
)

// Var identifies a variable within its model.
type Var int

// Term is one coefficient·variable entry of a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Inf is the bound used for "unbounded above".
var Inf = math.Inf(1)

type varData struct {
	name string
	lb   float64
	ub   float64
	vt   VarType
	obj  float64
	pri  int
}

type rowData struct {
	name  string
	terms []Term
	sense ConstrSense
	rhs   float64
}

// Model is a MILP under construction.
type Model struct {
	Name     string
	sense    Sense
	vars     []varData
	rows     []rowData
	objConst float64
}

// NewModel creates an empty model with the given optimization sense.
func NewModel(name string, sense Sense) *Model {
	return &Model{Name: name, sense: sense}
}

// AddVar declares a variable. Binary variables may pass any bounds; they
// are clamped to [0,1]. The lower bound must be finite (the encodings this
// solver serves always have one).
func (m *Model) AddVar(lb, ub float64, vt VarType, name string) Var {
	if vt == Binary {
		if lb < 0 {
			lb = 0
		}
		if ub > 1 {
			ub = 1
		}
	}
	m.vars = append(m.vars, varData{name: name, lb: lb, ub: ub, vt: vt})
	return Var(len(m.vars) - 1)
}

// NumVars returns the number of declared variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumRows returns the number of constraints.
func (m *Model) NumRows() int { return len(m.rows) }

// NumNonzeros returns the number of structural constraint coefficients —
// with NumVars and NumRows it gives benchmarks the block shape (density)
// the adaptive engine heuristic sees.
func (m *Model) NumNonzeros() int {
	nnz := 0
	for _, r := range m.rows {
		nnz += len(r.terms)
	}
	return nnz
}

// SetObjCoef adds c to the objective coefficient of v.
func (m *Model) SetObjCoef(v Var, c float64) { m.vars[v].obj += c }

// SetBranchPriority marks v as preferred for branching; among fractional
// integer variables, branch-and-bound picks the highest priority first
// (default 0), then the most fractional.
func (m *Model) SetBranchPriority(v Var, pri int) { m.vars[v].pri = pri }

// AddObjConst adds a constant to the objective.
func (m *Model) AddObjConst(c float64) { m.objConst += c }

// AddConstr appends a linear constraint Σ terms (sense) rhs. Terms on the
// same variable are merged.
func (m *Model) AddConstr(terms []Term, sense ConstrSense, rhs float64, name string) {
	merged := mergeTerms(terms)
	m.rows = append(m.rows, rowData{name: name, terms: merged, sense: sense, rhs: rhs})
}

//lint:floatexact coefficients that cancel to exact 0.0 drop the term; keeping near-zero terms is deliberate
func mergeTerms(terms []Term) []Term {
	if len(terms) <= 1 {
		return append([]Term(nil), terms...)
	}
	acc := make(map[Var]float64, len(terms))
	order := make([]Var, 0, len(terms))
	for _, t := range terms {
		if _, seen := acc[t.Var]; !seen {
			order = append(order, t.Var)
		}
		acc[t.Var] += t.Coef
	}
	out := make([]Term, 0, len(order))
	for _, v := range order {
		if acc[v] != 0 {
			out = append(out, Term{Var: v, Coef: acc[v]})
		}
	}
	return out
}

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means a provably optimal solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means no assignment satisfies the constraints.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded.
	StatusUnbounded
	// StatusLimit means a node or time budget expired; the solution is the
	// best incumbent found (feasible but possibly sub-optimal).
	StatusLimit
	// StatusNoSolution means a budget expired before any feasible point was
	// found.
	StatusNoSolution
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusLimit:
		return "limit"
	case StatusNoSolution:
		return "no-solution"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// EngineMode selects the LP engine branch-and-bound uses for node
// relaxations.
type EngineMode int

const (
	// EngineAdaptive (the default) picks dense vs sparse per block from the
	// block's shape: tableau cells, nonzero density, and the expected tree
	// size. Small dense blocks route to the dense tableau (cheap per-cell
	// pivots, no factorization overhead), everything else to the sparse
	// revised simplex.
	EngineAdaptive EngineMode = iota
	// EngineSparse forces the sparse revised simplex for every block.
	EngineSparse
	// EngineDense forces the dense tableau for every block. The dense
	// engine refuses relaxations above maxTableauCells.
	EngineDense
)

// Options tunes the solver.
type Options struct {
	// TimeLimit bounds wall-clock time (0 = unlimited). SolveContext
	// callers may instead (or additionally) put a deadline on the context;
	// the earlier bound wins.
	TimeLimit time.Duration
	// WarmStart optionally provides a feasible assignment used as the
	// initial incumbent (length must equal NumVars).
	WarmStart []float64
	// Engine picks the per-node LP engine. The zero value (EngineAdaptive)
	// chooses dense vs sparse per block from the block's shape; the forced
	// modes exist for benchmarks and differential tests, which assert all
	// engine choices agree on statuses and objectives.
	Engine EngineMode

	// The switches below are differential-test hooks, set only by this
	// package's tests; every setting returns identical statuses and
	// objectives.
	//
	// disableBlocks turns off block decomposition (solve as one problem).
	disableBlocks bool
	// coldLP disables the warm-started dual simplex: every branch-and-bound
	// node rebuilds its basis and solves phase 1/phase 2 from scratch.
	coldLP bool
	// noPresolve disables the per-node presolve (bound tightening at cold
	// solves, reduced-cost fixing of nonbasic integer variables).
	noPresolve bool
	// devexOff switches the sparse revised simplex from devex to full
	// Dantzig pricing.
	devexOff bool
}

const (
	// maxNodes bounds branch-and-bound nodes per block.
	maxNodes = 200000
	// intTol is the integrality tolerance.
	intTol = 1e-6
)

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	Nodes     int
	Blocks    int
	// Iters is the total number of simplex iterations (primal pivots,
	// bound flips, and dual pivots) across all branch-and-bound nodes —
	// the per-node effort metric the warm-started solver drives down.
	Iters int
	// Refactors counts basis LU factorizations performed by the sparse
	// revised simplex (crash factorizations plus eta-file-length and
	// stability-triggered rebuilds). Zero under EngineDense.
	Refactors int
	// LUFill totals the L+U nonzeros produced by those factorizations —
	// the solver's fill-in metric.
	LUFill int
	// CertInfeas counts warm dual-infeasible verdicts accepted via a
	// direct Farkas certificate check instead of a cold phase-1 re-proof.
	CertInfeas int
	// SparseBlocks/DenseBlocks count the blocks solved by each LP engine —
	// under EngineAdaptive they record the per-block choices the shape
	// heuristic made.
	SparseBlocks int
	DenseBlocks  int
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// BoolValue rounds a binary variable's value.
func (s *Solution) BoolValue(v Var) bool { return s.X[v] > 0.5 }

// validate checks model invariants before solving.
func (m *Model) validate() error {
	for i, v := range m.vars {
		if math.IsInf(v.lb, -1) || math.IsNaN(v.lb) {
			return fmt.Errorf("milp: variable %s (%d) must have a finite lower bound", v.name, i)
		}
		if v.ub < v.lb {
			return fmt.Errorf("milp: variable %s (%d) has empty domain [%g,%g]", v.name, i, v.lb, v.ub)
		}
	}
	for _, r := range m.rows {
		for _, t := range r.terms {
			if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
				return fmt.Errorf("milp: constraint %s references unknown variable %d", r.name, t.Var)
			}
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("milp: constraint %s has non-finite coefficient on variable %d", r.name, t.Var)
			}
		}
		if math.IsNaN(r.rhs) || math.IsInf(r.rhs, 0) {
			return fmt.Errorf("milp: constraint %s has non-finite right-hand side", r.name)
		}
	}
	return nil
}

// CheckFeasible verifies an assignment against bounds, integrality, and
// constraints within tol; it returns a descriptive error for the first
// violation. Used by tests and to vet warm starts.
func (m *Model) CheckFeasible(x []float64, tol float64) error {
	if len(x) != len(m.vars) {
		return fmt.Errorf("milp: assignment length %d != %d variables", len(x), len(m.vars))
	}
	for i, v := range m.vars {
		if x[i] < v.lb-tol || x[i] > v.ub+tol {
			return fmt.Errorf("milp: variable %s (%d) = %g outside [%g,%g]", v.name, i, x[i], v.lb, v.ub)
		}
		if v.vt != Continuous {
			if math.Abs(x[i]-math.Round(x[i])) > tol {
				return fmt.Errorf("milp: variable %s (%d) = %g is not integral", v.name, i, x[i])
			}
		}
	}
	for _, r := range m.rows {
		lhs := 0.0
		for _, t := range r.terms {
			lhs += t.Coef * x[t.Var]
		}
		switch r.sense {
		case LE:
			if lhs > r.rhs+tol {
				return fmt.Errorf("milp: constraint %s violated: %g > %g", r.name, lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-tol {
				return fmt.Errorf("milp: constraint %s violated: %g < %g", r.name, lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol {
				return fmt.Errorf("milp: constraint %s violated: %g != %g", r.name, lhs, r.rhs)
			}
		}
	}
	return nil
}

// objectiveOf evaluates the objective (including constant) at x.
func (m *Model) objectiveOf(x []float64) float64 {
	obj := m.objConst
	for i, v := range m.vars {
		obj += v.obj * x[i]
	}
	return obj
}
