package linkage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"explain3d/internal/relation"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Computer-Science & Engineering 101")
	want := []string{"computer", "science", "engineering", "101"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestStringSim(t *testing.T) {
	if s := StringSim("computer science", "computer science"); s != 1 {
		t.Fatalf("identical = %v", s)
	}
	if s := StringSim("computer science", "science computer"); s != 1 {
		t.Fatalf("order must not matter: %v", s)
	}
	if s := StringSim("computer science", "electrical engineering"); s != 0 {
		t.Fatalf("disjoint = %v", s)
	}
	if s := StringSim("computer science", "computer engineering"); s != 1.0/3 {
		t.Fatalf("one shared of three = %v", s)
	}
	if s := StringSim("", "anything"); s != 0 {
		t.Fatalf("empty = %v", s)
	}
}

func TestNumericSim(t *testing.T) {
	if s := NumericSim(3, 3); s != 1 {
		t.Fatalf("equal = %v", s)
	}
	if s := NumericSim(3, 4); s != 0.5 {
		t.Fatalf("distance 1 = %v", s)
	}
}

// Property: similarities are symmetric and within [0,1].
func TestSimilarityProperties(t *testing.T) {
	f := func(a, b string) bool {
		s1, s2 := StringSim(a, b), StringSim(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b float64) bool {
		s := NumericSim(a, b)
		return s == NumericSim(b, a) && s >= 0 && s <= 1
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValueSim(t *testing.T) {
	if s := ValueSim(relation.Int(2), relation.Int(2)); s != 1 {
		t.Fatalf("int/int = %v", s)
	}
	if s := ValueSim(relation.Null(), relation.String("x")); s != 0 {
		t.Fatalf("null = %v", s)
	}
	if s := ValueSim(relation.String("alpha beta"), relation.String("beta gamma")); s != 1.0/3 {
		t.Fatalf("mixed = %v", s)
	}
}

func twoRelations() (*relation.Relation, *relation.Relation) {
	l := relation.New("L", "name", "I")
	l.Append("computer science", int64(2))
	l.Append("electrical engineering", int64(1))
	l.Append("design", int64(1))
	r := relation.New("R", "prog", "I")
	r.Append("computer science", int64(1))
	r.Append("electrical engineering", int64(1))
	r.Append("fine arts", int64(1))
	return l, r
}

func TestSimilaritiesBlocked(t *testing.T) {
	l, r := twoRelations()
	ms, err := similarities(l, r, []int{0}, []int{0}, DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Exact pairs plus nothing for design/fine arts (no shared tokens).
	var exact int
	for _, m := range ms {
		if m.Sim == 1 {
			exact++
		}
		if m.Sim < 0.05 {
			t.Fatalf("match below MinSim survived: %+v", m)
		}
	}
	if exact != 2 {
		t.Fatalf("exact pairs = %d, want 2 (%+v)", exact, ms)
	}
}

func TestSimilaritiesUnblockedEqualsBlockedOnStrings(t *testing.T) {
	l, r := twoRelations()
	blocked, err := similarities(l, r, []int{0}, []int{0}, PairOptions{MinSim: 0.05, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := similarities(l, r, []int{0}, []int{0}, PairOptions{MinSim: 0.05, Block: false})
	if err != nil {
		t.Fatal(err)
	}
	// Blocking only skips zero-overlap pairs, which score 0 on Jaccard and
	// fall below MinSim anyway.
	if len(blocked) != len(full) {
		t.Fatalf("blocked %d vs full %d", len(blocked), len(full))
	}
}

func TestSimilaritiesNumericFallback(t *testing.T) {
	l := relation.New("L", "v")
	l.Append(int64(10))
	l.Append(int64(20))
	r := relation.New("R", "v")
	r.Append(int64(10))
	ms, err := similarities(l, r, []int{0}, []int{0}, DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("numeric-only match attributes should fall back to cross product")
	}
}

func TestSimilaritiesErrors(t *testing.T) {
	l, r := twoRelations()
	if _, err := similarities(l, r, nil, nil, DefaultPairOptions()); err == nil {
		t.Fatal("empty attribute lists should fail")
	}
	if _, err := similarities(l, r, []int{0}, []int{0, 1}, DefaultPairOptions()); err == nil {
		t.Fatal("misaligned attribute lists should fail")
	}
}

func TestCalibrator(t *testing.T) {
	c := NewCalibrator(10)
	var sims []float64
	var truth []bool
	// High sims are mostly true, low mostly false.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := rng.Float64()
		sims = append(sims, s)
		truth = append(truth, rng.Float64() < s)
	}
	if err := c.Fit(sims, truth); err != nil {
		t.Fatal(err)
	}
	if p := c.Prob(0.95); p < 0.7 {
		t.Fatalf("Prob(0.95) = %v, want high", p)
	}
	if p := c.Prob(0.05); p > 0.3 {
		t.Fatalf("Prob(0.05) = %v, want low", p)
	}
}

func TestCalibratorGapFilling(t *testing.T) {
	c := NewCalibrator(10)
	// Only one bucket observed.
	if err := c.Fit([]float64{0.55, 0.55}, []bool{true, true}); err != nil {
		t.Fatal(err)
	}
	if p := c.Prob(0.95); p != 1 {
		t.Fatalf("gap fill above = %v", p)
	}
	if p := c.Prob(0.05); p != 1 {
		t.Fatalf("gap fill below = %v", p)
	}
}

func TestCalibratorUnfitted(t *testing.T) {
	c := NewCalibrator(50)
	if p := c.Prob(0.42); p != 0.42 {
		t.Fatalf("unfitted calibrator should be identity, got %v", p)
	}
}

func TestCalibratorErrors(t *testing.T) {
	c := NewCalibrator(10)
	if err := c.Fit([]float64{0.5}, []bool{true, false}); err == nil {
		t.Fatal("misaligned Fit should fail")
	}
}

func TestCalibrateDropsZeros(t *testing.T) {
	c := NewCalibrator(2)
	if err := c.Fit([]float64{0.1, 0.9}, []bool{false, true}); err != nil {
		t.Fatal(err)
	}
	ms := Calibrate([]Match{{L: 0, R: 0, Sim: 0.1}, {L: 0, R: 1, Sim: 0.9}}, c)
	if len(ms) != 1 || ms[0].R != 1 || ms[0].P != 1 {
		t.Fatalf("calibrated = %+v", ms)
	}
}

func TestRSwooshExactDuplicates(t *testing.T) {
	l, r := twoRelations()
	ms, err := RSwoosh(l, r, []int{0}, []int{0}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %+v, want 2", ms)
	}
	for _, m := range ms {
		if m.P != 1 {
			t.Fatalf("R-Swoosh match should have p=1: %+v", m)
		}
		if m.L == 2 || m.R == 2 {
			t.Fatalf("design/fine arts must not match: %+v", m)
		}
	}
}

func TestRSwooshTransitiveMerge(t *testing.T) {
	// a≈b and b≈c should merge all three even if a≉c directly.
	l := relation.New("L", "name")
	l.Append("alpha beta gamma delta")
	r := relation.New("R", "name")
	r.Append("alpha beta gamma epsilon") // 3/5 = 0.6 with left
	r.Append("zeta eta theta")
	ms, err := RSwoosh(l, r, []int{0}, []int{0}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].L != 0 || ms[0].R != 0 {
		t.Fatalf("matches = %+v", ms)
	}
}

func TestRSwooshThresholdExcludes(t *testing.T) {
	l := relation.New("L", "name")
	l.Append("computer science")
	r := relation.New("R", "name")
	r.Append("computer engineering")
	ms, err := RSwoosh(l, r, []int{0}, []int{0}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("1/3 Jaccard should not pass 0.75: %+v", ms)
	}
}

func TestRSwooshErrors(t *testing.T) {
	l, r := twoRelations()
	if _, err := RSwoosh(l, r, nil, nil, 0.75); err == nil {
		t.Fatal("empty indexes should fail")
	}
}

// Regression: turning blocking on for a mixed column must not lose
// numeric↔numeric matches within it — numeric rows are blocked by their
// canonical value string and scored with numeric similarity.
func TestMixedColumnKeepsNumericPairsUnderBlocking(t *testing.T) {
	left := relation.New("L", "v").
		Append(int64(123)).
		Append("acme corp")
	right := relation.New("R", "v").
		Append(int64(123)).
		Append("acme inc")
	ms, err := similarities(left, right, []int{0}, []int{0},
		PairOptions{MinSim: 0.05, Block: true, MinSharedTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	var numeric, str *Match
	for i := range ms {
		if ms[i].L == 0 && ms[i].R == 0 {
			numeric = &ms[i]
		}
		if ms[i].L == 1 && ms[i].R == 1 {
			str = &ms[i]
		}
	}
	if numeric == nil {
		t.Fatalf("blocking lost the exact numeric pair of a mixed column: %+v", ms)
	}
	if numeric.Sim != 1 {
		t.Fatalf("equal numeric values must score with numeric similarity 1, got %v", numeric.Sim)
	}
	if str == nil {
		t.Fatalf("string pair missing: %+v", ms)
	}
}
