package linkage

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
)

// The differential tests against the pairwise oracle live in package
// linkage_test: the oracle (linkagetest) imports linkage, so tests inside
// package linkage cannot import it. These exports hand them the helpers and
// the unexported prefix-filter switch.
var (
	IndexSimilarities = similarities
	RandomRelation    = randomRelation
	MatchesEqual      = matchesEqual
)

// NoRowPrefixFilter returns opt with the per-left-row prefix filter off.
func NoRowPrefixFilter(opt PairOptions) PairOptions {
	opt.noRowPrefixFilter = true
	return opt
}

// similarities scores left against a freshly built Index over right — the
// production candidate path — scanning with opt.Workers workers.
func similarities(left, right *relation.Relation, leftIdx, rightIdx []int, opt PairOptions) ([]Match, error) {
	ix, err := BuildIndex(right, rightIdx, opt)
	if err != nil {
		return nil, err
	}
	return ix.Similarities(left, leftIdx, opt.Workers)
}

// randomRelation builds a relation with a controllable mix of strings
// (drawn from a shared vocabulary so blocking has work to do), numbers,
// NULLs, and mixed columns — the adversarial surface of the columnar
// refactor.
func randomRelation(rng *rand.Rand, name string, rows, cols int, d *relation.Dict) *relation.Relation {
	vocab := []string{
		"computer science", "data science", "electrical engineering",
		"fine arts", "arts and crafts", "science of logic", "logic",
		"mech eng", "n/a", "---", "biology 2", "2", "true",
	}
	names := make([]string, cols)
	for j := range names {
		names[j] = fmt.Sprintf("c%d", j)
	}
	var r *relation.Relation
	if d != nil {
		r = relation.NewWithDict(d, name, names...)
	} else {
		r = relation.New(name, names...)
	}
	row := make(relation.Tuple, cols)
	for i := 0; i < rows; i++ {
		for j := range row {
			switch rng.Intn(10) {
			case 0:
				row[j] = relation.Null()
			case 1, 2:
				row[j] = relation.Int(int64(rng.Intn(6)))
			case 3:
				row[j] = relation.Float(float64(rng.Intn(4)) + 0.5)
			case 4:
				row[j] = relation.Bool(rng.Intn(2) == 0)
			default:
				row[j] = relation.String(vocab[rng.Intn(len(vocab))])
			}
		}
		r.AppendRow(row)
	}
	return r
}

func matchesEqual(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v (order and bits must be identical)", label, i, got[i], want[i])
		}
	}
}
