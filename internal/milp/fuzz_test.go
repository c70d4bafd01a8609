package milp

import (
	"math"
	"testing"
)

// decodeBinaryModel reads a maximization binary program of at most 12
// variables from fuzz bytes (missing bytes read as zero): the variable
// count, one objective coefficient per variable, then up to six rows of
// small integer coefficients, a sense, and a right-hand side.
func decodeBinaryModel(data []byte) (*Model, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%12
	m := NewModel("fuzz", Maximize)
	vars := make([]Var, n)
	for i := range vars {
		vars[i] = m.AddVar(0, 1, Binary, "x")
		m.SetObjCoef(vars[i], float64(next()%21-10))
	}
	rows := next() % 7
	for r := 0; r < rows; r++ {
		var terms []Term
		for _, v := range vars {
			if c := next()%9 - 4; c != 0 {
				terms = append(terms, Term{v, float64(c)})
			}
		}
		sense := []ConstrSense{LE, GE, EQ}[next()%3]
		rhs := float64(next()%9 - 4)
		if len(terms) > 0 {
			m.AddConstr(terms, sense, rhs, "r")
		}
	}
	return m, n
}

// FuzzSolveBinary checks every solver configuration — the default, the
// cold LP, presolve off, Dantzig pricing, and the dense engine — against
// exhaustive enumeration on small binary programs.
func FuzzSolveBinary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 3, 17, 9, 2, 20, 2, 8, 0, 5, 1, 7, 0, 6})
	f.Add([]byte{11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 6, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 3, 2, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 5})
	configs := []struct {
		name string
		opt  Options
	}{
		{"default", Options{}},
		{"coldLP", Options{coldLP: true}},
		{"noPresolve", Options{noPresolve: true}},
		{"devexOff", Options{Engine: EngineSparse, devexOff: true}},
		{"dense", Options{Engine: EngineDense}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n := decodeBinaryModel(data)
		want := bruteForceBinary(m, n)
		for _, c := range configs {
			sol, err := solve(m, c.opt)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if math.IsNaN(want) {
				if sol.Status != StatusInfeasible {
					t.Fatalf("%s: %v: status %v objective %v, want infeasible", c.name, m, sol.Status, sol.Objective)
				}
				continue
			}
			if sol.Status != StatusOptimal || !almost(sol.Objective, want) {
				t.Fatalf("%s: %v: status %v objective %v, want optimal %v", c.name, m, sol.Status, sol.Objective, want)
			}
		}
	})
}
