// Package linkagetest holds the pairwise reference implementation of
// linkage candidate generation. Only tests and benchmarks import it: it is
// the oracle the columnar linkage.Index is checked against, and it is
// never linked into the library or the commands.
package linkagetest

import (
	"fmt"
	"sort"

	"explain3d/internal/linkage"
	"explain3d/internal/relation"
)

// SimilaritiesPairwise is the pre-columnar reference implementation of
// linkage.Index.Similarities: per-row string-keyed token sets, a
// string-keyed inverted index, and a per-left-row candidate map probed
// pairwise. It is the ground truth for the equivalence property tests and
// the baseline side of the Stage-1 benchmarks — Index.Similarities must
// return the exact same match list.
func SimilaritiesPairwise(left, right *relation.Relation, leftIdx, rightIdx []int, opt linkage.PairOptions) ([]linkage.Match, error) {
	if len(leftIdx) != len(rightIdx) || len(leftIdx) == 0 {
		return nil, fmt.Errorf("linkage: need equal, non-empty attribute index lists (got %d and %d)", len(leftIdx), len(rightIdx))
	}
	if opt.MinSharedTokens < 1 {
		opt.MinSharedTokens = 1
	}
	lRows, rRows := left.Tuples(), right.Tuples()
	lTok := TokenTables(left, lRows, leftIdx)
	rTok := TokenTables(right, rRows, rightIdx)
	score := func(i, j int, out []linkage.Match) []linkage.Match {
		total := 0.0
		for k := range leftIdx {
			lv, rv := lRows[i][leftIdx[k]], rRows[j][rightIdx[k]]
			if lTok[k] != nil && rTok[k] != nil && !lv.IsNull() && !rv.IsNull() && !(lv.IsNumeric() && rv.IsNumeric()) {
				total += linkage.JaccardTokens(lTok[k][i], rTok[k][j])
			} else {
				total += linkage.ValueSim(lv, rv)
			}
		}
		s := total / float64(len(leftIdx))
		if s >= opt.MinSim && s > 0 {
			out = append(out, linkage.Match{L: i, R: j, Sim: s})
		}
		return out
	}
	blocked := false
	if opt.Block {
		for k := range lTok {
			if lTok[k] != nil || rTok[k] != nil {
				blocked = true
				break
			}
		}
	}
	var index map[string][]int
	if blocked {
		index = make(map[string][]int)
		for j, row := range rRows {
			seen := make(map[string]bool)
			for k, c := range rightIdx {
				if rTok[k] == nil || row[c].IsNull() {
					continue
				}
				for tok := range rTok[k][j] {
					if !seen[tok] {
						seen[tok] = true
						//lint:ignore mapiter each posting list receives j in ascending outer-loop order; token order only selects which list grows
						index[tok] = append(index[tok], j)
					}
				}
			}
		}
	}
	var out []linkage.Match
	for i := range lRows {
		if !blocked {
			for j := range rRows {
				out = score(i, j, out)
			}
			continue
		}
		row := lRows[i]
		cand := make(map[int]int)
		seen := make(map[string]bool)
		for k, c := range leftIdx {
			if lTok[k] == nil || row[c].IsNull() {
				continue
			}
			for tok := range lTok[k][i] {
				if seen[tok] {
					continue
				}
				seen[tok] = true
				for _, j := range index[tok] {
					cand[j]++
				}
			}
		}
		js := make([]int, 0, len(cand))
		for j, shared := range cand {
			if shared >= opt.MinSharedTokens {
				js = append(js, j)
			}
		}
		sort.Ints(js)
		for _, j := range js {
			out = score(i, j, out)
		}
	}
	return out, nil
}

// TokenTables precomputes string-keyed token sets per matched column;
// entry k is nil when column k is numeric-only (numeric similarity is used
// instead). The whole column is scanned: a mixed column whose first value
// happens to be numeric (e.g. IDs followed by "N/A") still gets token
// similarity for its string values. Numeric rows of a mixed column are
// tokenized by their canonical value string, so blocking can still surface
// numeric↔numeric candidates.
func TokenTables(r *relation.Relation, rows []relation.Tuple, idx []int) []map[int]map[string]bool {
	out := make([]map[int]map[string]bool, len(idx))
	for k, c := range idx {
		if r.NumericOnly(c) {
			continue
		}
		tbl := make(map[int]map[string]bool, len(rows))
		for i, row := range rows {
			v := row[c]
			if v.IsNull() {
				continue
			}
			tbl[i] = linkage.TokenSet(v.String())
		}
		out[k] = tbl
	}
	return out
}
