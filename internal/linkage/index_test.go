package linkage_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"explain3d/internal/linkage"
	"explain3d/internal/linkage/linkagetest"
	"explain3d/internal/relation"
)

// indexTestRelations builds a left/right relation pair with overlapping
// token vocabulary, numeric columns, and NULLs — enough variety to reach
// every similarity dispatch path in the scan.
func indexTestRelations(seed int64, nLeft, nRight int) (*relation.Relation, *relation.Relation) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"computer", "science", "fine", "arts", "north", "campus",
		"intro", "advanced", "systems", "theory", "lab", "seminar"}
	phrase := func() string {
		k := 1 + rng.Intn(4)
		s := ""
		for i := 0; i < k; i++ {
			if i > 0 {
				s += " "
			}
			s += vocab[rng.Intn(len(vocab))]
		}
		return s
	}
	build := func(name string, n int) *relation.Relation {
		r := relation.NewWithDict(relation.NewDict(), name, "name", "year")
		for i := 0; i < n; i++ {
			v := phrase()
			if rng.Intn(10) == 0 {
				v = "" // empty cell: tokenless string
			}
			r.Append(v, int64(2000+rng.Intn(6)))
		}
		return r
	}
	return build("L", nLeft), build("R", nRight)
}

// TestIndexMatchesOneShot pins that a prebuilt Index produces output
// identical to the pairwise reference (SimilaritiesPairwise) for the same
// inputs, across blocking thresholds and worker counts.
func TestIndexMatchesOneShot(t *testing.T) {
	left, right := indexTestRelations(42, 120, 90)
	idx := []int{0, 1}
	for _, minShared := range []int{1, 2, 3, 4} {
		opt := linkage.DefaultPairOptions()
		opt.MinSharedTokens = minShared
		want, err := linkagetest.SimilaritiesPairwise(left, right, idx, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := linkage.BuildIndex(right, idx, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 7} {
			got, err := ix.Similarities(left, idx, workers)
			if err != nil {
				t.Fatal(err)
			}
			linkage.MatchesEqual(t, fmt.Sprintf("minShared=%d workers=%d", minShared, workers), got, want)
		}
	}
}

// TestIndexNoBlocking covers the unblocked cross-product path.
func TestIndexNoBlocking(t *testing.T) {
	left, right := indexTestRelations(7, 40, 30)
	idx := []int{0, 1}
	opt := linkage.DefaultPairOptions()
	opt.Block = false
	want, err := linkagetest.SimilaritiesPairwise(left, right, idx, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := linkage.BuildIndex(right, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Similarities(left, idx, 3)
	if err != nil {
		t.Fatal(err)
	}
	linkage.MatchesEqual(t, "no blocking", got, want)
}

// TestIndexConcurrentReuse fires many concurrent scans — different left
// relations against one shared Index — and checks each against its own
// pairwise reference run. Run under -race: this is the serving pattern, where one
// prebuilt index serves all requests.
func TestIndexConcurrentReuse(t *testing.T) {
	_, right := indexTestRelations(1, 10, 150)
	idx := []int{0, 1}
	opt := linkage.DefaultPairOptions()
	opt.MinSharedTokens = 2
	ix, err := linkage.BuildIndex(right, idx, opt)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			left, _ := indexTestRelations(int64(100+g), 60, 1)
			got, err := ix.Similarities(left, idx, 2)
			if err != nil {
				t.Error(err)
				return
			}
			want, err := linkagetest.SimilaritiesPairwise(left, right, idx, idx, opt)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) != len(want) {
				t.Errorf("goroutine %d: %d vs %d matches", g, len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("goroutine %d: match %d differs: %+v vs %+v", g, i, got[i], want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIndexErrors pins the argument validation of the prebuilt-index path.
func TestIndexErrors(t *testing.T) {
	_, right := indexTestRelations(3, 5, 5)
	if _, err := linkage.BuildIndex(right, nil, linkage.DefaultPairOptions()); err == nil {
		t.Fatal("linkage.BuildIndex with no attributes should fail")
	}
	ix, err := linkage.BuildIndex(right, []int{0, 1}, linkage.DefaultPairOptions())
	if err != nil {
		t.Fatal(err)
	}
	left, _ := indexTestRelations(4, 5, 1)
	if _, err := ix.Similarities(left, []int{0}, 1); err == nil {
		t.Fatal("mismatched attribute list length should fail")
	}
}
