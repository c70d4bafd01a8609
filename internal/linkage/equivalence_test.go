package linkage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/linkage"
	"explain3d/internal/linkage/linkagetest"
	"explain3d/internal/relation"
)

// TestSimilaritiesMatchesPairwiseReference is the acceptance property of
// the inverted-index rewrite: over random relations — shared or separate
// dictionaries, every blocking configuration, any worker count — the
// columnar Index.Similarities must return byte-identical output to the
// pairwise reference implementation.
func TestSimilaritiesMatchesPairwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		cols := 1 + rng.Intn(3)
		var d *relation.Dict
		if rng.Intn(2) == 0 {
			d = relation.NewDict() // shared-dictionary fast path
		}
		left := linkage.RandomRelation(rng, "L", 1+rng.Intn(60), cols, d)
		right := linkage.RandomRelation(rng, "R", 1+rng.Intn(60), cols, d)
		idx := make([]int, cols)
		for j := range idx {
			idx[j] = j
		}
		// MinSharedTokens up to 4 exercises the skipped-posting-list paths
		// (global stop-word pruning, per-row prefix filtering with skip
		// budgets up to 3, and exact candidate verification).
		minSim := []float64{0, 0.05, 0.3}[rng.Intn(3)]
		rng.Intn(4) // a retired draw, kept so every later trial's inputs stay the same
		opt := linkage.PairOptions{MinSim: minSim, MinSharedTokens: 1 + rng.Intn(4)}
		want, err := linkagetest.SimilaritiesPairwise(left, right, idx, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 7} {
			opt.Workers = workers
			got, err := linkage.IndexSimilarities(left, right, idx, idx, opt)
			if err != nil {
				t.Fatal(err)
			}
			linkage.MatchesEqual(t, fmt.Sprintf("trial %d workers %d (shared=%v)", trial, workers, d != nil), got, want)
		}
	}
}

// TestSimilaritiesStopWordPruning forces the skipped-posting-list path: a
// stop word appears in every row of both sides, so with MinSharedTokens > 1
// its posting list is dropped and borderline candidates (pairs that share
// only the stop word plus one more token) must survive through the exact
// shared-count verification — byte-identically to the pairwise reference.
func TestSimilaritiesStopWordPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	build := func(name string, rows int) *relation.Relation {
		r := relation.New(name, "c0")
		for i := 0; i < rows; i++ {
			s := "the " + vocab[rng.Intn(len(vocab))]
			if rng.Intn(3) == 0 {
				s += " " + vocab[rng.Intn(len(vocab))]
			}
			r.Append(s)
		}
		return r
	}
	left, right := build("L", 40), build("R", 40)
	for _, minShared := range []int{2, 3} {
		opt := linkage.PairOptions{MinSim: 0, MinSharedTokens: minShared}
		want, err := linkagetest.SimilaritiesPairwise(left, right, []int{0}, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("minShared=%d: degenerate workload, no reference matches", minShared)
		}
		for _, workers := range []int{1, 4} {
			opt.Workers = workers
			got, err := linkage.IndexSimilarities(left, right, []int{0}, []int{0}, opt)
			if err != nil {
				t.Fatal(err)
			}
			linkage.MatchesEqual(t, fmt.Sprintf("stop-word minShared=%d workers=%d", minShared, workers), got, want)
		}
	}
}

// TestSimilaritiesPerRowPrefixFilter forces the per-left-row prefix filter
// beyond the global stop-word prune: several tokens appear in most rows of
// both sides, so with the global skip budget exhausted on one of them each
// left row must still row-skip its own remaining long posting lists. Pairs
// whose shared tokens are exactly the skipped ones plus a tail token sit in
// the uncertain band and must survive only through the exact shared-count
// verification — byte-identically to the pairwise reference.
func TestSimilaritiesPerRowPrefixFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	common := []string{"the", "of", "and"}
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
	build := func(name string, rows int) *relation.Relation {
		r := relation.New(name, "c0")
		for i := 0; i < rows; i++ {
			// Each row carries one to three of the high-frequency tokens
			// plus one or two rare ones, so row-local posting lists differ
			// and the longest-surviving selection varies per row.
			s := ""
			for k := 0; k <= rng.Intn(3); k++ {
				s += common[rng.Intn(len(common))] + " "
			}
			s += vocab[rng.Intn(len(vocab))]
			if rng.Intn(2) == 0 {
				s += " " + vocab[rng.Intn(len(vocab))]
			}
			r.Append(s)
		}
		return r
	}
	left, right := build("L", 60), build("R", 60)
	for _, minShared := range []int{2, 3, 4} {
		opt := linkage.PairOptions{MinSim: 0, MinSharedTokens: minShared}
		want, err := linkagetest.SimilaritiesPairwise(left, right, []int{0}, []int{0}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if minShared < 4 && len(want) == 0 {
			t.Fatalf("minShared=%d: degenerate workload, no reference matches", minShared)
		}
		for _, workers := range []int{1, 4} {
			opt.Workers = workers
			got, err := linkage.IndexSimilarities(left, right, []int{0}, []int{0}, opt)
			if err != nil {
				t.Fatal(err)
			}
			linkage.MatchesEqual(t, fmt.Sprintf("prefix-filter minShared=%d workers=%d", minShared, workers), got, want)
			// The global-prune-only path (pre-filter behavior) must agree too.
			off, err := linkage.IndexSimilarities(left, right, []int{0}, []int{0}, linkage.NoRowPrefixFilter(opt))
			if err != nil {
				t.Fatal(err)
			}
			linkage.MatchesEqual(t, fmt.Sprintf("prefix-filter-off minShared=%d workers=%d", minShared, workers), off, want)
		}
	}
}

// TestSimilaritiesNumericOnlyColumns: with no tokenizable column, blocking
// is meaningless and both implementations must fall back to the scored
// cross product.
func TestSimilaritiesNumericOnlyColumns(t *testing.T) {
	left := relation.New("L", "a").Append(int64(1)).Append(2.5).Append(nil)
	right := relation.New("R", "a").Append(int64(1)).Append(2.0)
	opt := linkage.PairOptions{MinSim: 0.05, MinSharedTokens: 1}
	want, err := linkagetest.SimilaritiesPairwise(left, right, []int{0}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := linkage.IndexSimilarities(left, right, []int{0}, []int{0}, opt)
	if err != nil {
		t.Fatal(err)
	}
	linkage.MatchesEqual(t, "numeric-only", got, want)
	if len(got) == 0 {
		t.Fatal("numeric cross product should score at least the exact pair")
	}
}

// Regression: column sniffing must scan the whole column, not just the
// first non-NULL value. A mixed column whose first value is numeric (e.g.
// IDs, then "N/A") previously lost token similarity and blocking entirely.
func TestMixedColumnSniffsWholeColumn(t *testing.T) {
	left := relation.New("L", "v").
		Append(int64(123)).
		Append("acme corp")
	right := relation.New("R", "v").
		Append(int64(456)).
		Append("acme holdings")

	lTok := linkagetest.TokenTables(left, left.Tuples(), []int{0})
	if lTok[0] == nil {
		t.Fatal("mixed column treated as numeric-only: token table missing")
	}
	if _, ok := lTok[0][1]; !ok {
		t.Fatal("string row of a mixed column has no token set")
	}
	if _, ok := lTok[0][0]; !ok {
		t.Fatal("numeric row of a mixed column needs its value tokens for blocking")
	}

	// End to end: blocking stays on and the string rows still pair up
	// through their shared token.
	ms, err := linkage.IndexSimilarities(left, right, []int{0}, []int{0},
		linkage.PairOptions{MinSim: 0.05, MinSharedTokens: 1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.L == 1 && m.R == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("blocking lost the string pair of a mixed column: %+v", ms)
	}

	// A numeric-only column must still skip tokenization.
	num := relation.New("N", "v").Append(int64(1)).Append(int64(2))
	if tt := linkagetest.TokenTables(num, num.Tuples(), []int{0}); tt[0] != nil {
		t.Fatal("numeric-only column should have no token table")
	}
}
