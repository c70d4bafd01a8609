package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// fixtureModels rebuilds the representative models used across the test
// suite so warm/cold equivalence can be asserted on all of them.
func fixtureModels() map[string]*Model {
	out := map[string]*Model{}

	lp := NewModel("lp", Maximize)
	x := lp.AddVar(0, Inf, Continuous, "x")
	y := lp.AddVar(0, Inf, Continuous, "y")
	lp.SetObjCoef(x, 3)
	lp.SetObjCoef(y, 2)
	lp.AddConstr([]Term{{x, 1}, {y, 1}}, LE, 4, "cap")
	lp.AddConstr([]Term{{x, 1}}, LE, 2, "xcap")
	out["lp"] = lp

	eq := NewModel("eq", Minimize)
	x = eq.AddVar(0, Inf, Continuous, "x")
	y = eq.AddVar(0, Inf, Continuous, "y")
	eq.SetObjCoef(x, 1)
	eq.SetObjCoef(y, 1)
	eq.AddConstr([]Term{{x, 1}, {y, 2}}, EQ, 6, "c1")
	eq.AddConstr([]Term{{x, 1}, {y, -1}}, EQ, 0, "c2")
	out["eq"] = eq

	knap := NewModel("knap", Maximize)
	a := knap.AddVar(0, 1, Binary, "a")
	b := knap.AddVar(0, 1, Binary, "b")
	cc := knap.AddVar(0, 1, Binary, "c")
	knap.SetObjCoef(a, 10)
	knap.SetObjCoef(b, 13)
	knap.SetObjCoef(cc, 7)
	knap.AddConstr([]Term{{a, 3}, {b, 4}, {cc, 2}}, LE, 6, "w")
	out["knap"] = knap

	big := NewModel("bigknap", Maximize)
	terms := make([]Term, 0, 18)
	for i := 0; i < 18; i++ {
		v := big.AddVar(0, 1, Binary, "v")
		big.SetObjCoef(v, float64(7+(i*5)%11))
		terms = append(terms, Term{v, float64(3 + (i*3)%7)})
	}
	big.AddConstr(terms, LE, 23, "w")
	out["bigknap"] = big

	intm := NewModel("int", Maximize)
	xi := intm.AddVar(0, 100, Integer, "x")
	intm.SetObjCoef(xi, 1)
	intm.AddConstr([]Term{{xi, 2}}, LE, 7, "c")
	out["int"] = intm

	neg := NewModel("neg", Minimize)
	xn := neg.AddVar(-5, 5, Continuous, "x")
	neg.SetObjCoef(xn, 1)
	neg.AddConstr([]Term{{xn, 1}}, GE, -3, "floor")
	out["neg"] = neg

	inf := NewModel("inf", Maximize)
	xf := inf.AddVar(0, 1, Continuous, "x")
	inf.AddConstr([]Term{{xf, 1}}, GE, 2, "impossible")
	out["inf"] = inf

	mix := NewModel("mix", Maximize)
	zb := mix.AddVar(0, 1, Binary, "z")
	vc := mix.AddVar(-2, 7, Continuous, "v")
	pw := mix.ProductBinaryCont(zb, vc, -2, 7, "p")
	mix.SetObjCoef(pw, 1)
	mix.AddConstr([]Term{{vc, 1}, {Var(zb), 3}}, LE, 6, "link")
	out["mix"] = mix

	return out
}

func TestWarmColdEquivalenceFixtures(t *testing.T) {
	for name, m := range fixtureModels() {
		warm, err := Solve(m, Options{})
		if err != nil {
			t.Fatalf("%s: warm solve: %v", name, err)
		}
		cold, err := Solve(m, Options{coldLP: true})
		if err != nil {
			t.Fatalf("%s: cold solve: %v", name, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("%s: status warm=%v cold=%v", name, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal {
			if !almost(warm.Objective, cold.Objective) {
				t.Fatalf("%s: objective warm=%v cold=%v", name, warm.Objective, cold.Objective)
			}
			if err := m.CheckFeasible(warm.X, 1e-5); err != nil {
				t.Fatalf("%s: warm solution infeasible: %v", name, err)
			}
		}
	}
}

// randomBinaryModel builds a random binary program with up to maxVars
// variables and a few random LE/GE/EQ rows.
func randomBinaryModel(rng *rand.Rand, maxVars int) (*Model, int) {
	n := 3 + rng.Intn(maxVars-2)
	m := NewModel("rand", Maximize)
	vars := make([]Var, n)
	for i := 0; i < n; i++ {
		vars[i] = m.AddVar(0, 1, Binary, "x")
		m.SetObjCoef(vars[i], float64(rng.Intn(21)-10))
	}
	rowsN := 1 + rng.Intn(5)
	for r := 0; r < rowsN; r++ {
		var terms []Term
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 {
				terms = append(terms, Term{vars[i], float64(rng.Intn(9) - 4)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		sense := []ConstrSense{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(9) - 4)
		m.AddConstr(terms, sense, rhs, "r")
	}
	return m, n
}

// Property test for the warm-started solver: on random binary programs of
// up to 12 variables, the warm-started branch-and-bound matches exhaustive
// enumeration exactly, and agrees with the cold solver on status and
// objective.
func TestWarmStartedSolverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 90; trial++ {
		m, n := randomBinaryModel(rng, 12)
		want := bruteForceBinary(m, n)
		warm, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(m, Options{coldLP: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: status warm=%v cold=%v", trial, warm.Status, cold.Status)
		}
		if math.IsNaN(want) {
			if warm.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj=%v", trial, warm.Status, warm.Objective)
			}
			continue
		}
		if warm.Status != StatusOptimal {
			t.Fatalf("trial %d: status = %v, want optimal (brute force %v)", trial, warm.Status, want)
		}
		if !almost(warm.Objective, want) {
			t.Fatalf("trial %d: warm obj = %v, brute force = %v", trial, warm.Objective, want)
		}
		if !almost(cold.Objective, want) {
			t.Fatalf("trial %d: cold obj = %v, brute force = %v", trial, cold.Objective, want)
		}
		if err := m.CheckFeasible(warm.X, 1e-5); err != nil {
			t.Fatalf("trial %d: warm solution infeasible: %v", trial, err)
		}
	}
}

// Equivalence on random mixed models: integer and continuous variables
// with general bounds. The two solvers may visit different trees (LP
// relaxations can have alternative optima), but statuses and objectives
// must agree.
func TestWarmColdEquivalenceRandomMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(6)
		m := NewModel("randmix", Minimize)
		vars := make([]Var, n)
		for i := 0; i < n; i++ {
			vt := []VarType{Binary, Integer, Continuous}[rng.Intn(3)]
			lb := float64(rng.Intn(4) - 2)
			ub := lb + float64(1+rng.Intn(6))
			if vt == Binary {
				lb, ub = 0, 1
			}
			vars[i] = m.AddVar(lb, ub, vt, "x")
			m.SetObjCoef(vars[i], float64(rng.Intn(13)-6))
		}
		for r := 0; r < 1+rng.Intn(4); r++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{vars[i], float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []ConstrSense{LE, GE}[rng.Intn(2)]
			m.AddConstr(terms, sense, float64(rng.Intn(11)-5), "r")
		}
		warm, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Solve(m, Options{coldLP: true})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: status warm=%v cold=%v", trial, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal && !almost(warm.Objective, cold.Objective) {
			t.Fatalf("trial %d: objective warm=%v cold=%v", trial, warm.Objective, cold.Objective)
		}
	}
}

// Unit test of the dual repair itself: solve an LP, snapshot, tighten a
// bound, repair with dual pivots, and compare against a from-scratch solve
// of the modified problem.
func TestDualRepairMatchesColdSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		c := make([]float64, n)
		lb := make([]float64, n)
		ub := make([]float64, n)
		for i := 0; i < n; i++ {
			c[i] = float64(rng.Intn(13) - 6)
			lb[i] = 0
			ub[i] = float64(2 + rng.Intn(5))
		}
		var rows []rowData
		for r := 0; r < 2+rng.Intn(3); r++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.7 {
					terms = append(terms, Term{Var(i), float64(rng.Intn(7) - 3)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []ConstrSense{LE, GE}[rng.Intn(2)]
			rows = append(rows, rowData{terms: terms, sense: sense, rhs: float64(rng.Intn(9) - 2)})
		}
		st, _, x, s := solveLPKeep(context.Background(), c, lb, ub, rows, time.Time{})
		if st != lpOptimal {
			continue // only warm-start from optimal parents, as B&B does
		}
		// Branch-like delta: tighten one variable's bound around its value.
		j := rng.Intn(n)
		newLB, newUB := lb[j], ub[j]
		if rng.Intn(2) == 0 {
			newUB = math.Max(lb[j], math.Floor(x[j]-0.5))
		} else {
			newLB = math.Min(ub[j], math.Floor(x[j])+1)
		}
		if !s.applyBound(j, newLB, newUB) {
			continue
		}
		dst := s.dualIterate(dualPivotCap(s.m))
		if dst == lpOptimal {
			dst = s.iterate(false)
		}
		lb2 := append([]float64(nil), lb...)
		ub2 := append([]float64(nil), ub...)
		lb2[j], ub2[j] = newLB, newUB
		st2, obj2, _ := solveLP(context.Background(), c, lb2, ub2, rows, time.Time{})
		if dst == lpInfeasible {
			if st2 != lpInfeasible {
				t.Fatalf("trial %d: dual says infeasible, cold says %v", trial, st2)
			}
			continue
		}
		if dst != lpOptimal {
			continue // pivot cap: B&B falls back cold, nothing to compare
		}
		if st2 != lpOptimal {
			t.Fatalf("trial %d: dual says optimal (%v), cold says %v", trial, s.objective(), st2)
		}
		if !almost(s.objective(), obj2) {
			t.Fatalf("trial %d: dual obj %v, cold obj %v", trial, s.objective(), obj2)
		}
	}
}

// The point of the tentpole: warm-started search spends strictly fewer
// simplex iterations per node than the cold solver on a tree of any size.
func TestWarmStartReducesItersPerNode(t *testing.T) {
	m := fixtureModels()["bigknap"]
	warm, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(m, Options{coldLP: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal || cold.Status != StatusOptimal {
		t.Fatalf("statuses: warm %v cold %v", warm.Status, cold.Status)
	}
	if !almost(warm.Objective, cold.Objective) {
		t.Fatalf("objectives: warm %v cold %v", warm.Objective, cold.Objective)
	}
	if warm.Nodes < 8 {
		t.Fatalf("workload too easy to be meaningful: %d nodes", warm.Nodes)
	}
	warmRate := float64(warm.Iters) / float64(warm.Nodes)
	coldRate := float64(cold.Iters) / float64(cold.Nodes)
	if warmRate >= coldRate {
		t.Fatalf("warm start did not reduce iterations per node: warm %.2f (%d iters / %d nodes), cold %.2f (%d iters / %d nodes)",
			warmRate, warm.Iters, warm.Nodes, coldRate, cold.Iters, cold.Nodes)
	}
	t.Logf("iters/node: warm %.2f (%d/%d), cold %.2f (%d/%d)",
		warmRate, warm.Iters, warm.Nodes, coldRate, cold.Iters, cold.Nodes)
}
