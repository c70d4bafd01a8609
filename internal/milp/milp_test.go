package milp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-5 }

func TestLPBasic(t *testing.T) {
	// max 3x + 2y  s.t. x + y <= 4, x <= 2  =>  (2,2) obj 10
	m := NewModel("lp", Maximize)
	x := m.AddVar(0, Inf, Continuous, "x")
	y := m.AddVar(0, Inf, Continuous, "y")
	m.SetObjCoef(x, 3)
	m.SetObjCoef(y, 2)
	m.AddConstr([]Term{{x, 1}, {y, 1}}, LE, 4, "cap")
	m.AddConstr([]Term{{x, 1}}, LE, 2, "xcap")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Objective, 10) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
	}
	if !almost(sol.Value(x), 2) || !almost(sol.Value(y), 2) {
		t.Fatalf("x=%v y=%v", sol.Value(x), sol.Value(y))
	}
}

func TestLPEquality(t *testing.T) {
	// min x + y  s.t. x + 2y = 6, x - y = 0  =>  x=y=2, obj 4
	m := NewModel("eq", Minimize)
	x := m.AddVar(0, Inf, Continuous, "x")
	y := m.AddVar(0, Inf, Continuous, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]Term{{x, 1}, {y, 2}}, EQ, 6, "c1")
	m.AddConstr([]Term{{x, 1}, {y, -1}}, EQ, 0, "c2")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Objective, 4) {
		t.Fatalf("status=%v obj=%v x=%v y=%v", sol.Status, sol.Objective, sol.Value(x), sol.Value(y))
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel("inf", Maximize)
	x := m.AddVar(0, 1, Continuous, "x")
	m.AddConstr([]Term{{x, 1}}, GE, 2, "impossible")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel("unb", Maximize)
	x := m.AddVar(0, Inf, Continuous, "x")
	m.SetObjCoef(x, 1)
	m.AddConstr([]Term{{x, -1}}, LE, 0, "x>=0 again")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestLPNegativeBounds(t *testing.T) {
	// min x  with  x in [-5, 5], x >= -3  =>  -3
	m := NewModel("neg", Minimize)
	x := m.AddVar(-5, 5, Continuous, "x")
	m.SetObjCoef(x, 1)
	m.AddConstr([]Term{{x, 1}}, GE, -3, "floor")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Value(x), -3) {
		t.Fatalf("status=%v x=%v", sol.Status, sol.Value(x))
	}
}

func TestKnapsackILP(t *testing.T) {
	// max 10a + 13b + 7c  s.t. 3a + 4b + 2c <= 6  (binaries)
	// best: a + c = 17? a+b=23 weight 7 no; b+c = 20 weight 6 yes.
	m := NewModel("knap", Maximize)
	a := m.AddVar(0, 1, Binary, "a")
	b := m.AddVar(0, 1, Binary, "b")
	c := m.AddVar(0, 1, Binary, "c")
	m.SetObjCoef(a, 10)
	m.SetObjCoef(b, 13)
	m.SetObjCoef(c, 7)
	m.AddConstr([]Term{{a, 3}, {b, 4}, {c, 2}}, LE, 6, "w")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Objective, 20) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
	}
	if sol.BoolValue(a) || !sol.BoolValue(b) || !sol.BoolValue(c) {
		t.Fatalf("selection = %v %v %v", sol.Value(a), sol.Value(b), sol.Value(c))
	}
}

func TestIntegerVariable(t *testing.T) {
	// max x  s.t. 2x <= 7, x integer  =>  3
	m := NewModel("int", Maximize)
	x := m.AddVar(0, 100, Integer, "x")
	m.SetObjCoef(x, 1)
	m.AddConstr([]Term{{x, 2}}, LE, 7, "c")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Value(x), 3) {
		t.Fatalf("x = %v, want 3", sol.Value(x))
	}
}

func TestBlockDecomposition(t *testing.T) {
	// Two independent knapsacks must be detected as two blocks.
	m := NewModel("blocks", Maximize)
	a := m.AddVar(0, 1, Binary, "a")
	b := m.AddVar(0, 1, Binary, "b")
	c := m.AddVar(0, 1, Binary, "c")
	d := m.AddVar(0, 1, Binary, "d")
	m.SetObjCoef(a, 5)
	m.SetObjCoef(b, 4)
	m.SetObjCoef(c, 3)
	m.SetObjCoef(d, 2)
	m.AddConstr([]Term{{a, 1}, {b, 1}}, LE, 1, "k1")
	m.AddConstr([]Term{{c, 1}, {d, 1}}, LE, 1, "k2")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Blocks != 2 {
		t.Fatalf("blocks = %d, want 2", sol.Blocks)
	}
	if !almost(sol.Objective, 8) {
		t.Fatalf("obj = %v, want 8", sol.Objective)
	}
	// Disabling blocks must give the same answer.
	sol2, err := Solve(m, Options{disableBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Blocks != 1 || !almost(sol2.Objective, 8) {
		t.Fatalf("noblocks: blocks=%d obj=%v", sol2.Blocks, sol2.Objective)
	}
}

func TestIsolatedVariableGetsBestBound(t *testing.T) {
	m := NewModel("iso", Maximize)
	x := m.AddVar(0, 3, Continuous, "x")
	y := m.AddVar(0, 1, Binary, "y")
	m.SetObjCoef(x, 2)
	m.SetObjCoef(y, -1)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Value(x), 3) || !almost(sol.Value(y), 0) {
		t.Fatalf("x=%v y=%v", sol.Value(x), sol.Value(y))
	}
	if !almost(sol.Objective, 6) {
		t.Fatalf("obj = %v", sol.Objective)
	}
}

func TestObjectiveConstant(t *testing.T) {
	m := NewModel("const", Maximize)
	x := m.AddVar(0, 1, Binary, "x")
	m.SetObjCoef(x, 1)
	m.AddObjConst(41)
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Objective, 42) {
		t.Fatalf("obj = %v, want 42", sol.Objective)
	}
}

func TestProductBinaryExact(t *testing.T) {
	for _, xv := range []float64{0, 1} {
		for _, yv := range []float64{0, 1} {
			m := NewModel("prod", Maximize)
			x := m.AddVar(0, 1, Binary, "x")
			y := m.AddVar(0, 1, Binary, "y")
			w := m.ProductBinary(x, y, "w")
			// Pin x and y, maximize w: w must equal x*y.
			m.AddConstr([]Term{{x, 1}}, EQ, xv, "pinx")
			m.AddConstr([]Term{{y, 1}}, EQ, yv, "piny")
			m.SetObjCoef(w, 1)
			sol, err := Solve(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !almost(sol.Value(w), xv*yv) {
				t.Fatalf("w(%v,%v) = %v", xv, yv, sol.Value(w))
			}
		}
	}
}

func TestProductBinaryContExact(t *testing.T) {
	for _, zv := range []float64{0, 1} {
		for _, vv := range []float64{-2, 0, 3.5, 7} {
			m := NewModel("pbc", Maximize)
			z := m.AddVar(0, 1, Binary, "z")
			v := m.AddVar(-2, 7, Continuous, "v")
			p := m.ProductBinaryCont(z, v, -2, 7, "p")
			m.AddConstr([]Term{{z, 1}}, EQ, zv, "pinz")
			m.AddConstr([]Term{{v, 1}}, EQ, vv, "pinv")
			m.SetObjCoef(p, 1)
			solMax, err := Solve(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !almost(solMax.Value(p), zv*vv) {
				t.Fatalf("max p(z=%v,v=%v) = %v, want %v", zv, vv, solMax.Value(p), zv*vv)
			}
		}
	}
}

func TestIndicatorEq(t *testing.T) {
	// y=1 forces v=5; maximizing v with y=1 gives 5, with y=0 gives ub.
	for _, yv := range []float64{0, 1} {
		m := NewModel("ind", Maximize)
		y := m.AddVar(0, 1, Binary, "y")
		v := m.AddVar(0, 10, Continuous, "v")
		m.IndicatorEq(y, v, 5, 0, 10, "ind")
		m.AddConstr([]Term{{y, 1}}, EQ, yv, "piny")
		m.SetObjCoef(v, 1)
		sol, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := 10.0
		if yv == 1 {
			want = 5
		}
		if !almost(sol.Value(v), want) {
			t.Fatalf("y=%v: v = %v, want %v", yv, sol.Value(v), want)
		}
	}
}

func TestWarmStartAccepted(t *testing.T) {
	m := NewModel("warm", Maximize)
	x := m.AddVar(0, 1, Binary, "x")
	y := m.AddVar(0, 1, Binary, "y")
	m.SetObjCoef(x, 1)
	m.SetObjCoef(y, 1)
	m.AddConstr([]Term{{x, 1}, {y, 1}}, LE, 1, "pick1")
	sol, err := Solve(m, Options{WarmStart: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almost(sol.Objective, 1) {
		t.Fatalf("status=%v obj=%v", sol.Status, sol.Objective)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A model with an immediate deadline and a warm start must return the
	// warm start as incumbent rather than failing.
	m := NewModel("limit", Maximize)
	vars := make([]Var, 14)
	terms := make([]Term, 14)
	for i := range vars {
		vars[i] = m.AddVar(0, 1, Binary, "v")
		m.SetObjCoef(vars[i], float64(7+i%5))
		terms[i] = Term{vars[i], float64(3 + i%4)}
	}
	m.AddConstr(terms, LE, 11, "w")
	warm := make([]float64, 14)
	sol, err := Solve(m, Options{TimeLimit: time.Nanosecond, WarmStart: warm})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit && sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	m := NewModel("bad", Maximize)
	x := m.AddVar(0, 1, Binary, "x")
	m.AddConstr([]Term{{x, math.NaN()}}, LE, 1, "nan")
	if _, err := Solve(m, Options{}); err == nil {
		t.Fatal("NaN coefficient should be rejected")
	}
	m2 := NewModel("bad2", Maximize)
	m2.AddVar(3, 1, Continuous, "empty")
	if _, err := Solve(m2, Options{}); err == nil {
		t.Fatal("empty domain should be rejected")
	}
	m3 := NewModel("bad3", Minimize)
	m3.AddVar(math.Inf(-1), 1, Continuous, "freelb")
	if _, err := Solve(m3, Options{}); err == nil {
		t.Fatal("infinite lower bound should be rejected")
	}
}

// bruteForceBinary enumerates all binary assignments and returns the best
// objective (maximization), or NaN when infeasible everywhere.
func bruteForceBinary(m *Model, n int) float64 {
	best := math.NaN()
	x := make([]float64, n)
	var rec func(int)
	rec = func(i int) {
		if i == n {
			if m.CheckFeasible(x, 1e-9) == nil {
				obj := m.objectiveOf(x)
				if math.IsNaN(best) || obj > best {
					best = obj
				}
			}
			return
		}
		x[i] = 0
		rec(i + 1)
		x[i] = 1
		rec(i + 1)
	}
	rec(0)
	return best
}

// Property test: on random small binary programs, branch-and-bound matches
// exhaustive enumeration.
func TestRandomBinaryProgramsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		n := 3 + rng.Intn(4) // 3..6 vars
		m := NewModel("rand", Maximize)
		vars := make([]Var, n)
		for i := 0; i < n; i++ {
			vars[i] = m.AddVar(0, 1, Binary, "x")
			m.SetObjCoef(vars[i], float64(rng.Intn(21)-10))
		}
		rowsN := 1 + rng.Intn(4)
		for r := 0; r < rowsN; r++ {
			var terms []Term
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.6 {
					terms = append(terms, Term{vars[i], float64(rng.Intn(9) - 4)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			sense := []ConstrSense{LE, GE, EQ}[rng.Intn(3)]
			rhs := float64(rng.Intn(7) - 3)
			m.AddConstr(terms, sense, rhs, "r")
		}
		want := bruteForceBinary(m, n)
		sol, err := Solve(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(want) {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: want infeasible, got %v obj=%v", trial, sol.Status, sol.Objective)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status = %v, want optimal (brute force obj %v)", trial, sol.Status, want)
		}
		if !almost(sol.Objective, want) {
			t.Fatalf("trial %d: obj = %v, brute force = %v", trial, sol.Objective, want)
		}
		if err := m.CheckFeasible(sol.X, 1e-5); err != nil {
			t.Fatalf("trial %d: solution infeasible: %v", trial, err)
		}
	}
}

// Property test: LP relaxation objective bounds the MILP objective.
func TestLPBoundDominatesMILP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(3)
		mMILP := NewModel("m", Maximize)
		mLP := NewModel("l", Maximize)
		for i := 0; i < n; i++ {
			obj := float64(rng.Intn(15))
			mMILP.SetObjCoef(mMILP.AddVar(0, 1, Binary, "x"), obj)
			mLP.SetObjCoef(mLP.AddVar(0, 1, Continuous, "x"), obj)
		}
		var terms []Term
		for i := 0; i < n; i++ {
			terms = append(terms, Term{Var(i), float64(1 + rng.Intn(5))})
		}
		rhs := float64(2 + rng.Intn(6))
		mMILP.AddConstr(terms, LE, rhs, "w")
		mLP.AddConstr(terms, LE, rhs, "w")
		sMILP, err := Solve(mMILP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sLP, err := Solve(mLP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sMILP.Status != StatusOptimal || sLP.Status != StatusOptimal {
			t.Fatalf("trial %d: statuses %v %v", trial, sMILP.Status, sLP.Status)
		}
		if sMILP.Objective > sLP.Objective+1e-6 {
			t.Fatalf("trial %d: MILP %v exceeds LP bound %v", trial, sMILP.Objective, sLP.Objective)
		}
	}
}

func TestMergeTerms(t *testing.T) {
	m := NewModel("merge", Maximize)
	x := m.AddVar(0, 10, Continuous, "x")
	m.SetObjCoef(x, 1)
	// x + x <= 10  =>  x <= 5
	m.AddConstr([]Term{{x, 1}, {x, 1}}, LE, 10, "dup")
	sol, err := Solve(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sol.Value(x), 5) {
		t.Fatalf("x = %v, want 5", sol.Value(x))
	}
}
