package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"explain3d/internal/linkage"
)

// bruteForceOptimal enumerates every valid evidence subset and returns the
// best achievable objective. For a fixed evidence set the optimal
// completion is forced: unmatched tuples are deleted (cost a), matched
// tuples kept (cost c), and every connected component with unequal side
// sums needs exactly one value correction (cost b−c extra). Match terms
// follow Equation 9.
func bruteForceOptimal(inst *Instance, p Params) float64 {
	a, b, c := logConsts(p)
	n := len(inst.Matches)
	best := math.Inf(-1)
	for mask := 0; mask < 1<<n; mask++ {
		var ev []Evidence
		degL := make(map[int]int)
		degR := make(map[int]int)
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				m := inst.Matches[i]
				ev = append(ev, Evidence{L: m.L, R: m.R, P: m.P})
				degL[m.L]++
				degR[m.R]++
			}
		}
		valid := true
		if inst.Card.LeftAtMostOne {
			for _, d := range degL {
				if d > 1 {
					valid = false
				}
			}
		}
		if inst.Card.RightAtMostOne {
			for _, d := range degR {
				if d > 1 {
					valid = false
				}
			}
		}
		if !valid {
			continue
		}
		score := 0.0
		for i := 0; i < n; i++ {
			prob := clampProb(inst.Matches[i].P)
			if mask&(1<<i) != 0 {
				score += math.Log(prob)
			} else {
				score += math.Log(1 - prob)
			}
		}
		// Tuple terms.
		for i := 0; i < inst.T1.Len(); i++ {
			if degL[i] == 0 {
				score += a
			} else {
				score += c
			}
		}
		for j := 0; j < inst.T2.Len(); j++ {
			if degR[j] == 0 {
				score += a
			} else {
				score += c
			}
		}
		// Components: union-find over selected matches.
		parent := map[int]int{}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		node := func(side Side, i int) int {
			if side == Left {
				return i
			}
			return inst.T1.Len() + i
		}
		for _, e := range ev {
			a1, b1 := node(Left, e.L), node(Right, e.R)
			if _, ok := parent[a1]; !ok {
				parent[a1] = a1
			}
			if _, ok := parent[b1]; !ok {
				parent[b1] = b1
			}
			ra, rb := find(a1), find(b1)
			if ra != rb {
				parent[ra] = rb
			}
		}
		sumL := map[int]float64{}
		sumR := map[int]float64{}
		for i := range degL {
			r := find(node(Left, i))
			sumL[r] += inst.T1.Impacts[i]
		}
		for j := range degR {
			r := find(node(Right, j))
			sumR[r] += inst.T2.Impacts[j]
		}
		roots := map[int]bool{}
		for r := range sumL {
			roots[r] = true
		}
		for r := range sumR {
			roots[r] = true
		}
		for r := range roots {
			if math.Abs(sumL[r]-sumR[r]) > impactTol {
				score += b - c // one value correction
			}
		}
		if score > best {
			best = score
		}
	}
	return best
}

// Property test: the MILP finds the brute-force optimum on random small
// instances, and its solution always satisfies completeness.
func TestMILPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		nl := 2 + rng.Intn(3)
		nr := 2 + rng.Intn(3)
		t1 := &Canonical{}
		for i := 0; i < nl; i++ {
			t1.Impacts = append(t1.Impacts, float64(1+rng.Intn(4)))
			t1.Keys = append(t1.Keys, "l")
		}
		t2 := &Canonical{}
		for j := 0; j < nr; j++ {
			t2.Impacts = append(t2.Impacts, float64(1+rng.Intn(4)))
			t2.Keys = append(t2.Keys, "r")
		}
		var matches []linkage.Match
		for i := 0; i < nl; i++ {
			for j := 0; j < nr; j++ {
				if rng.Float64() < 0.45 {
					matches = append(matches, linkage.Match{L: i, R: j, P: 0.05 + 0.9*rng.Float64()})
				}
			}
		}
		if len(matches) > 10 {
			matches = matches[:10]
		}
		card := Cardinality{LeftAtMostOne: true, RightAtMostOne: rng.Intn(2) == 0}
		inst := &Instance{T1: t1, T2: t2, Matches: matches, Card: card}
		p := DefaultParams()

		expl, _, err := SolveInstanceContext(context.Background(), inst, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := CheckComplete(inst, expl); err != nil {
			t.Fatalf("trial %d: incomplete MILP solution: %v", trial, err)
		}
		got := Score(inst, expl, p)
		want := bruteForceOptimal(inst, p)
		if math.Abs(got-want) > 1e-5 {
			t.Fatalf("trial %d: MILP score %v != brute force %v (nl=%d nr=%d m=%d card=%+v)",
				trial, got, want, nl, nr, len(matches), card)
		}
	}
}

// Property test: partitioned solving stays complete and close to optimal.
func TestPartitionedSolutionsComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		nl := 10 + rng.Intn(15)
		nr := 10 + rng.Intn(15)
		t1 := &Canonical{}
		for i := 0; i < nl; i++ {
			t1.Impacts = append(t1.Impacts, float64(1+rng.Intn(4)))
			t1.Keys = append(t1.Keys, "l")
		}
		t2 := &Canonical{}
		for j := 0; j < nr; j++ {
			t2.Impacts = append(t2.Impacts, float64(1+rng.Intn(4)))
			t2.Keys = append(t2.Keys, "r")
		}
		var matches []linkage.Match
		for i := 0; i < nl; i++ {
			j := rng.Intn(nr)
			matches = append(matches, linkage.Match{L: i, R: j, P: 0.6 + 0.39*rng.Float64()})
			if rng.Float64() < 0.4 {
				matches = append(matches, linkage.Match{L: i, R: rng.Intn(nr), P: 0.1 + 0.3*rng.Float64()})
			}
		}
		inst := &Instance{T1: t1, T2: t2, Matches: matches,
			Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: false}}
		p := DefaultParams()
		p.BatchSize = 8
		expl, stats, err := SolveInstanceContext(context.Background(), inst, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if stats.Partitions < 1 {
			t.Fatalf("trial %d: no partitions", trial)
		}
		if err := CheckComplete(inst, expl); err != nil {
			t.Fatalf("trial %d: incomplete partitioned solution: %v", trial, err)
		}
	}
}
