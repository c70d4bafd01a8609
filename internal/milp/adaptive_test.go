package milp

import (
	"math"
	"math/rand"
	"testing"
)

// TestAdaptiveMatchesForcedEngines is the engine-selection differential:
// the adaptive default must return exactly the status and objective of
// both forced engines on every fixture and on random mixed models, while
// recording which engine it picked per block.
func TestAdaptiveMatchesForcedEngines(t *testing.T) {
	check := func(name string, m *Model) {
		t.Helper()
		adaptive, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("%s: adaptive solve: %v", name, err)
		}
		if adaptive.SparseBlocks+adaptive.DenseBlocks == 0 {
			t.Fatalf("%s: adaptive solve recorded no engine choices", name)
		}
		for _, forced := range []struct {
			label string
			opt   Options
		}{
			{"sparse", Options{Engine: EngineSparse}},
			{"dense", Options{Engine: EngineDense}},
		} {
			sol, err := Solve(m, forced.opt)
			if err != nil {
				t.Fatalf("%s: %s solve: %v", name, forced.label, err)
			}
			if sol.Status != adaptive.Status {
				t.Fatalf("%s: status adaptive=%v %s=%v", name, adaptive.Status, forced.label, sol.Status)
			}
			if adaptive.Status == StatusOptimal && !almost(sol.Objective, adaptive.Objective) {
				t.Fatalf("%s: objective adaptive=%v %s=%v", name, adaptive.Objective, forced.label, sol.Objective)
			}
		}
		if adaptive.Status == StatusOptimal {
			if err := m.CheckFeasible(adaptive.X, 1e-5); err != nil {
				t.Fatalf("%s: adaptive solution infeasible: %v", name, err)
			}
		}
	}
	for name, m := range fixtureModels() {
		check(name, m)
	}
	rng := rand.New(rand.NewSource(301))
	for trial := 0; trial < 40; trial++ {
		m, _ := randomBinaryModel(rng, 12)
		check("random-binary", m)
	}
}

// TestAdaptiveEngineRouting pins the heuristic's choices on the two
// workloads it was tuned on: a small dense knapsack block goes to the
// dense tableau, a large sparse path-cover LP to the revised simplex, and
// the forced modes override it in both directions.
func TestAdaptiveEngineRouting(t *testing.T) {
	knap := benchModel(26, 100)
	sol, err := Solve(knap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.DenseBlocks == 0 || sol.SparseBlocks != 0 {
		t.Fatalf("small dense block: sparse=%d dense=%d, want all dense", sol.SparseBlocks, sol.DenseBlocks)
	}
	forced, err := Solve(knap, Options{Engine: EngineSparse})
	if err != nil {
		t.Fatal(err)
	}
	if forced.SparseBlocks == 0 || forced.DenseBlocks != 0 {
		t.Fatalf("forced sparse: sparse=%d dense=%d", forced.SparseBlocks, forced.DenseBlocks)
	}
	if !almost(sol.Objective, forced.Objective) {
		t.Fatalf("objective adaptive=%v forced-sparse=%v", sol.Objective, forced.Objective)
	}

	path, want := pathCoverModel(120, 400)
	psol, err := Solve(path, Options{disableBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if psol.SparseBlocks != 1 || psol.DenseBlocks != 0 {
		t.Fatalf("large sparse block: sparse=%d dense=%d, want 1/0", psol.SparseBlocks, psol.DenseBlocks)
	}
	if !almost(psol.Objective, want) {
		t.Fatalf("path cover objective %v, DP ground truth %v", psol.Objective, want)
	}
}

// TestPresolveOnOffEquivalence is the presolve differential: bound
// tightening plus reduced-cost fixing must not change any verdict or
// optimal objective, on fixtures and on random mixed models, under both
// engines.
func TestPresolveOnOffEquivalence(t *testing.T) {
	check := func(name string, m *Model) {
		t.Helper()
		for _, eng := range []EngineMode{EngineAdaptive, EngineSparse, EngineDense} {
			on, err := Solve(m, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s: presolve-on solve: %v", name, err)
			}
			off, err := Solve(m, Options{Engine: eng, noPresolve: true})
			if err != nil {
				t.Fatalf("%s: presolve-off solve: %v", name, err)
			}
			if on.Status != off.Status {
				t.Fatalf("%s engine=%d: status on=%v off=%v", name, eng, on.Status, off.Status)
			}
			if on.Status == StatusOptimal {
				if !almost(on.Objective, off.Objective) {
					t.Fatalf("%s engine=%d: objective on=%v off=%v", name, eng, on.Objective, off.Objective)
				}
				if err := m.CheckFeasible(on.X, 1e-5); err != nil {
					t.Fatalf("%s engine=%d: presolve-on solution infeasible: %v", name, eng, err)
				}
			}
			if on.Nodes > off.Nodes {
				t.Logf("%s engine=%d: presolve grew the tree: on=%d off=%d nodes", name, eng, on.Nodes, off.Nodes)
			}
		}
	}
	for name, m := range fixtureModels() {
		check(name, m)
	}
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		m, n := randomBinaryModel(rng, 12)
		want := bruteForceBinary(m, n)
		sol, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(want) {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v", trial, sol.Status)
			}
		} else if sol.Status != StatusOptimal || !almost(sol.Objective, want) {
			t.Fatalf("trial %d: status=%v obj=%v, brute force %v", trial, sol.Status, sol.Objective, want)
		}
		check("random-binary", m)
	}
}

// TestPresolveTightenUnit exercises the bound-propagation pass directly on
// hand-built rows: singleton reduction with integer rounding, propagation
// through a two-variable row, redundancy detection, and infeasibility
// proofs on both empty domains and violated rows.
func TestPresolveTightenUnit(t *testing.T) {
	bounds := func(m *Model) ([]float64, []float64) {
		lb := make([]float64, len(m.vars))
		ub := make([]float64, len(m.vars))
		for i, v := range m.vars {
			lb[i], ub[i] = v.lb, v.ub
		}
		return lb, ub
	}

	t.Run("singleton integer rounding", func(t *testing.T) {
		m := NewModel("t", Minimize)
		x := m.AddVar(0, 10, Integer, "x")
		m.AddConstr([]Term{{x, 2}}, LE, 7, "r") // 2x ≤ 7 → x ≤ 3.5 → x ≤ 3
		m.AddConstr([]Term{{x, 3}}, GE, 4, "r") // 3x ≥ 4 → x ≥ 4/3 → x ≥ 2
		lb, ub := bounds(m)
		if !newPresolver(m).tighten(lb, ub) {
			t.Fatal("feasible model reported infeasible")
		}
		if lb[x] != 2 || ub[x] != 3 {
			t.Fatalf("bounds [%v, %v], want [2, 3]", lb[x], ub[x])
		}
	})

	t.Run("two-variable propagation", func(t *testing.T) {
		m := NewModel("t", Minimize)
		x := m.AddVar(0, 10, Continuous, "x")
		y := m.AddVar(0, 10, Continuous, "y")
		m.AddConstr([]Term{{x, 2}, {y, 3}}, LE, 6, "r")
		lb, ub := bounds(m)
		if !newPresolver(m).tighten(lb, ub) {
			t.Fatal("feasible model reported infeasible")
		}
		if ub[x] > 3+1e-6 || ub[y] > 2+1e-6 {
			t.Fatalf("ubs [%v, %v], want ≈[3, 2]", ub[x], ub[y])
		}
		if ub[x] < 3 || ub[y] < 2 {
			t.Fatalf("presolve cut into the feasible region: ubs [%v, %v]", ub[x], ub[y])
		}
	})

	t.Run("redundant row untouched", func(t *testing.T) {
		m := NewModel("t", Minimize)
		x := m.AddVar(0, 1, Continuous, "x")
		m.AddConstr([]Term{{x, 1}}, LE, 5, "r") // max activity 1 ≤ 5
		lb, ub := bounds(m)
		if !newPresolver(m).tighten(lb, ub) {
			t.Fatal("feasible model reported infeasible")
		}
		if lb[x] != 0 || ub[x] != 1 {
			t.Fatalf("redundant row changed bounds to [%v, %v]", lb[x], ub[x])
		}
	})

	t.Run("violated row infeasible", func(t *testing.T) {
		m := NewModel("t", Minimize)
		x := m.AddVar(0, 1, Continuous, "x")
		y := m.AddVar(0, 1, Continuous, "y")
		m.AddConstr([]Term{{x, 1}, {y, 1}}, GE, 5, "r") // max activity 2 < 5
		lb, ub := bounds(m)
		if newPresolver(m).tighten(lb, ub) {
			t.Fatal("violated row not detected")
		}
	})

	t.Run("empty integer domain infeasible", func(t *testing.T) {
		m := NewModel("t", Minimize)
		x := m.AddVar(0, 1, Integer, "x")
		// 3 ≤ 7x ≤ 4 admits no integer: x ≥ 3/7 rounds to 1, x ≤ 4/7 rounds to 0.
		m.AddConstr([]Term{{x, 7}}, GE, 3, "r")
		m.AddConstr([]Term{{x, 7}}, LE, 4, "r")
		lb, ub := bounds(m)
		if newPresolver(m).tighten(lb, ub) {
			t.Fatalf("empty integer domain not detected: [%v, %v]", lb[x], ub[x])
		}
	})

	t.Run("unbounded above propagates through GE", func(t *testing.T) {
		m := NewModel("t", Minimize)
		x := m.AddVar(0, Inf, Continuous, "x")
		y := m.AddVar(0, 4, Continuous, "y")
		m.AddConstr([]Term{{x, 1}, {y, 1}}, LE, 10, "r") // x ≤ 10
		m.AddConstr([]Term{{x, -1}, {y, 1}}, GE, 1, "r") // y ≥ 1 + x ≥ 1... and x ≤ y-1 ≤ 3
		lb, ub := bounds(m)
		if !newPresolver(m).tighten(lb, ub) {
			t.Fatal("feasible model reported infeasible")
		}
		if math.IsInf(ub[x], 1) || ub[x] > 3+1e-6 {
			t.Fatalf("x ub %v, want ≈3", ub[x])
		}
		if lb[y] < 1-1e-6 {
			t.Fatalf("y lb %v, want ≥ 1", lb[y])
		}
	})
}

// TestDevexReducesIterations is the pricing acceptance check: on the
// path-cover LP the devex candidate-list pricing must need strictly fewer
// simplex iterations than the Dantzig full-pricing baseline it replaced
// (toggled via Options.devexOff), at the same optimal objective.
func TestDevexReducesIterations(t *testing.T) {
	m, want := pathCoverModel(800, 800)
	opt := Options{Engine: EngineSparse, disableBlocks: true}

	devex, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.devexOff = true
	dantzig, err := Solve(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, sol := range []*Solution{devex, dantzig} {
		if sol.Status != StatusOptimal {
			t.Fatalf("status %v", sol.Status)
		}
		if !almost(sol.Objective, want) {
			t.Fatalf("objective %v, DP ground truth %v", sol.Objective, want)
		}
	}
	if devex.Iters >= dantzig.Iters {
		t.Fatalf("devex pricing spent %d iterations, Dantzig baseline %d — no reduction", devex.Iters, dantzig.Iters)
	}
	t.Logf("iterations: devex=%d dantzig=%d (%.1f%%)", devex.Iters, dantzig.Iters,
		100*float64(devex.Iters)/float64(dantzig.Iters))
}

// TestDevexOnOffEquivalence: pricing only changes the pivot order, never
// the verdict — devex and Dantzig agree on status and objective across
// random mixed models.
func TestDevexOnOffEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 40; trial++ {
		m, _ := randomBinaryModel(rng, 12)
		devex, err := Solve(m, Options{Engine: EngineSparse})
		if err != nil {
			t.Fatal(err)
		}
		dantzig, err := Solve(m, Options{Engine: EngineSparse, devexOff: true})
		if err != nil {
			t.Fatal(err)
		}
		if devex.Status != dantzig.Status {
			t.Fatalf("trial %d: status devex=%v dantzig=%v", trial, devex.Status, dantzig.Status)
		}
		if devex.Status == StatusOptimal && !almost(devex.Objective, dantzig.Objective) {
			t.Fatalf("trial %d: objective devex=%v dantzig=%v", trial, devex.Objective, dantzig.Objective)
		}
	}
}
