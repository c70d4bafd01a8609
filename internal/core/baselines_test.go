package core

import (
	"context"
	"testing"
	"time"

	"explain3d/internal/linkage"
)

// smallInstance: 3 left tuples, 3 right tuples; a/b true pairs, c missing
// on the right; b's right impact is wrong.
func smallInstance() *Instance {
	t1 := &Canonical{Impacts: []float64{1, 2, 1}, Keys: []string{"alpha", "beta", "gamma"}}
	t2 := &Canonical{Impacts: []float64{1, 1}, Keys: []string{"alpha", "beta"}}
	return &Instance{
		T1: t1, T2: t2,
		Matches: []linkage.Match{
			{L: 0, R: 0, P: 0.95},
			{L: 1, R: 1, P: 0.85},
			{L: 2, R: 1, P: 0.15}, // noise
		},
		Card: Cardinality{LeftAtMostOne: true, RightAtMostOne: true},
	}
}

func TestThresholdBaseline(t *testing.T) {
	inst := smallInstance()
	e := Threshold(inst, 0.9)
	// Only the 0.95 match survives; beta and gamma left tuples plus the
	// right beta become provenance explanations.
	if len(e.Evidence) != 1 || e.Evidence[0].L != 0 {
		t.Fatalf("evidence = %v", e.Evidence)
	}
	if len(e.Prov) != 3 {
		t.Fatalf("Δ = %v, want 3", e.Prov)
	}
	// Lower threshold keeps both strong matches and flags the beta value.
	e = Threshold(inst, 0.5)
	if len(e.Evidence) != 2 {
		t.Fatalf("evidence = %v", e.Evidence)
	}
	if len(e.Val) != 1 || e.Val[0].Side != Right || e.Val[0].Tuple != 1 {
		t.Fatalf("δ = %v", e.Val)
	}
}

func TestGreedyBaseline(t *testing.T) {
	inst := smallInstance()
	e := Greedy(inst, DefaultParams())
	// Greedy should pick the two strong matches and skip the noise match
	// (cardinality blocks it after beta↔beta).
	if len(e.Evidence) != 2 {
		t.Fatalf("evidence = %v", e.Evidence)
	}
	for _, ev := range e.Evidence {
		if ev.L == 2 {
			t.Fatalf("noise match selected: %v", e.Evidence)
		}
	}
	if len(e.Prov) != 1 || e.Prov[0].Side != Left || e.Prov[0].Tuple != 2 {
		t.Fatalf("Δ = %v, want gamma only", e.Prov)
	}
}

func TestGreedyRespectsCardinality(t *testing.T) {
	t1 := &Canonical{Impacts: []float64{1, 1}, Keys: []string{"a", "b"}}
	t2 := &Canonical{Impacts: []float64{2}, Keys: []string{"ab"}}
	inst := &Instance{T1: t1, T2: t2,
		Matches: []linkage.Match{{L: 0, R: 0, P: 0.9}, {L: 1, R: 0, P: 0.9}},
		Card:    Cardinality{LeftAtMostOne: true, RightAtMostOne: false}}
	e := Greedy(inst, DefaultParams())
	// Many-to-one allowed: both matches selected, impacts 1+1 = 2 agree.
	if len(e.Evidence) != 2 || len(e.Prov) != 0 || len(e.Val) != 0 {
		t.Fatalf("e = %+v", e)
	}
	// Under ≡ the second match must be rejected.
	inst.Card = Cardinality{LeftAtMostOne: true, RightAtMostOne: true}
	e = Greedy(inst, DefaultParams())
	if len(e.Evidence) != 1 {
		t.Fatalf("≡ evidence = %v", e.Evidence)
	}
}

func TestExactCoverBaseline(t *testing.T) {
	inst := smallInstance()
	e, err := ExactCover(context.Background(), inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Every right tuple (set) can be selected; alpha and beta elements are
	// coverable, gamma only via the noise edge — ExactCover takes it since
	// it ignores probabilities... but cardinality of cover (≤1 per
	// element) still applies.
	if len(e.Evidence) < 2 {
		t.Fatalf("evidence = %v", e.Evidence)
	}
	covered := map[int]bool{}
	for _, ev := range e.Evidence {
		if covered[ev.L] {
			t.Fatalf("element %d covered twice", ev.L)
		}
		covered[ev.L] = true
	}
}

// TestExactCoverBudgetExpiredFallsBack pins the no-incumbent path: a
// budget that runs out before the solver finds any cover must yield the
// delete-everything explanation, not read the empty solution vector.
func TestExactCoverBudgetExpiredFallsBack(t *testing.T) {
	inst := smallInstance()
	p := DefaultParams()
	p.SolverTimeLimit = time.Nanosecond
	e, err := ExactCover(context.Background(), inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Evidence) != 0 || len(e.Val) != 0 || len(e.Prov) != inst.T1.Len()+inst.T2.Len() {
		t.Fatalf("e = %+v, want every tuple deleted", e)
	}
}

func TestFormalExpBaseline(t *testing.T) {
	inst := smallInstance() // totals: left 4, right 2 → explain left-high
	e := FormalExp(inst, 2)
	if len(e.Evidence) != 0 {
		t.Fatal("FormalExp must not produce evidence")
	}
	if len(e.Prov) == 0 {
		t.Fatal("FormalExp should flag some tuples")
	}
	for _, pe := range e.Prov {
		if pe.Side != Left {
			t.Fatalf("should only flag the high side: %v", pe)
		}
	}
}

func TestBaselinesVersusOptimal(t *testing.T) {
	// The MILP solution must score at least as well as every baseline.
	inst := smallInstance()
	p := DefaultParams()
	opt, _, err := SolveInstanceContext(context.Background(), inst, p)
	if err != nil {
		t.Fatal(err)
	}
	optScore := Score(inst, opt, p)
	for name, e := range map[string]*Explanations{
		"greedy":    Greedy(inst, p),
		"threshold": Threshold(inst, 0.9),
	} {
		if s := Score(inst, e, p); s > optScore+1e-9 {
			t.Fatalf("%s scored %v > optimal %v", name, s, optScore)
		}
	}
}
