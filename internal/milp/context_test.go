package milp

import (
	"context"
	"testing"
	"time"
)

// solve is SolveContext without a budget.
func solve(m *Model, opt Options) (*Solution, error) {
	return SolveContext(context.Background(), m, opt)
}

// knapsack builds a small non-trivial ILP for the cancellation tests.
func knapsack(t *testing.T) *Model {
	t.Helper()
	m := NewModel("ctx-knap", Maximize)
	weights := []float64{3, 5, 7, 4, 6, 2, 9, 8}
	values := []float64{4, 6, 9, 5, 7, 2, 11, 9}
	terms := make([]Term, len(weights))
	for i := range weights {
		v := m.AddVar(0, 1, Binary, "x")
		m.SetObjCoef(v, values[i])
		terms[i] = Term{Var: v, Coef: weights[i]}
	}
	m.AddConstr(terms, LE, 17, "cap")
	return m
}

func TestSolveContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveContext(ctx, knapsack(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusNoSolution {
		t.Fatalf("canceled context without warm start should yield no solution, got %v", sol.Status)
	}
}

func TestSolveContextCanceledKeepsWarmIncumbent(t *testing.T) {
	m := knapsack(t)
	// Feasible warm start: take only item 5 (weight 2).
	warm := make([]float64, m.NumVars())
	warm[5] = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveContext(ctx, m, Options{WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit {
		t.Fatalf("canceled context with warm start should return the incumbent, got %v", sol.Status)
	}
	if !almost(sol.Objective, 2) {
		t.Fatalf("incumbent objective = %v, want the warm start's 2", sol.Objective)
	}
}

func TestSolveContextUncanceledMatchesSolve(t *testing.T) {
	// A deadline that does not expire during the solve must not change the
	// answer of an unbudgeted solve.
	plain, err := solve(knapsack(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	ctxed, err := SolveContext(ctx, knapsack(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Status != StatusOptimal || ctxed.Status != StatusOptimal {
		t.Fatalf("statuses: plain %v, ctx %v", plain.Status, ctxed.Status)
	}
	if !almost(plain.Objective, ctxed.Objective) {
		t.Fatalf("objectives diverge: plain %v, ctx %v", plain.Objective, ctxed.Objective)
	}
}

func TestSolveContextDeadlineBeatsTimeLimit(t *testing.T) {
	// An already-passed context deadline stops the solve before any node.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sol, err := SolveContext(ctx, knapsack(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusNoSolution {
		t.Fatalf("expired context deadline should stop the solve, got %v", sol.Status)
	}
}
