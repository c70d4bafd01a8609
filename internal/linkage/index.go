package linkage

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"explain3d/internal/relation"
)

// Index is a prebuilt candidate-generation index over one fixed right-side
// relation: the joint token space, the right rows' token lists and typed
// match columns, and the inverted posting lists (token id → right row ids)
// with the global stop-word prune already applied. Once built it can score
// any number of left relations against the same right side — the serving
// pattern, where one query of an explanation pair stays fixed while the
// user iterates on the other.
//
// Candidate generation merges, per left row, the posting lists of its
// tokens with a shared-token counter: a pair is scored when it shares at
// least MinSharedTokens distinct tokens — the exact match set of the
// pairwise reference implementation in package linkagetest, at
// O(Σ posting-list products) instead of O(|L|·|R|) blocking probes.
//
// An Index is immutable after BuildIndex returns except for the joint token
// intern map, which is mutex-guarded; concurrent Similarities calls against
// one Index are safe and produce identical output.
type Index struct {
	ts       *tokenSpace
	opt      PairOptions // blocking options baked in at build time
	rightIdx []int
	nRight   int
	rTok     [][][]uint32
	rCols    []matchCol
	rBlock   [][]uint32
	post     [][]int32
	// pruned retains the full posting lists of globally skipped stop-word
	// tokens (post[t] is nil there), so incremental maintenance can re-derive
	// and re-prune complete lists after a delta.
	pruned   map[uint32][]int32
	skipped  []bool
	anySkip  bool
	shards   int     // > 1: sharded posting lists and scan (see scanSharded)
	tokShard []uint8 // token id → owning shard, from the token string's hash
}

// maxShards bounds PairOptions.Shards so shard ids fit the per-token uint8.
const maxShards = 256

// Posting lists shorter than skipFloor are not worth a verify pass:
// skipping them saves almost no merge work but still lowers the exact
// counting threshold, pushing more candidates into verification.
const skipFloor = 4

// BuildIndex indexes the right side of a linkage run: per-row token lists
// for the matched columns rightIdx, typed match-column views, and — when
// blocking is enabled — the inverted posting lists with up to
// MinSharedTokens-1 stop-word lists pruned.
func BuildIndex(right *relation.Relation, rightIdx []int, opt PairOptions) (*Index, error) {
	if len(rightIdx) == 0 {
		return nil, fmt.Errorf("linkage: BuildIndex needs a non-empty attribute index list")
	}
	if opt.MinSharedTokens < 1 {
		opt.MinSharedTokens = 1
	}
	ix := &Index{ts: newTokenSpace(), opt: opt, rightIdx: rightIdx, nRight: right.Len()}
	ix.rTok = ix.ts.tokenColumns(right, rightIdx)
	ix.rCols = matchColumns(right, rightIdx)
	ix.finalize()
	return ix, nil
}

// finalize assembles the posting lists and applies the global stop-word
// prune. It runs once the right side has interned its tokens, so every
// right-side token has a posting slot.
func (ix *Index) finalize() {
	if !ix.opt.Block {
		return
	}
	ix.rBlock = unionRows(ix.rTok, ix.nRight)
	ix.post = make([][]int32, ix.ts.size())
	if s := ix.opt.Shards; s > 1 {
		if s > maxShards {
			s = maxShards
		}
		ix.shards = s
		ix.tokShard = ix.ts.shardMap(s)
		// Shard-parallel posting build: each shard goroutine appends only to
		// the lists of its own tokens, so writes to ix.post are disjoint.
		// Right-row order within each list matches the sequential build.
		var wg sync.WaitGroup
		for sh := 0; sh < s; sh++ {
			wg.Add(1)
			go func(sh uint8) {
				defer wg.Done()
				for j, toks := range ix.rBlock {
					for _, t := range toks {
						if ix.tokShard[t] == sh {
							ix.post[t] = append(ix.post[t], int32(j))
						}
					}
				}
			}(uint8(sh))
		}
		wg.Wait()
	} else {
		for j, toks := range ix.rBlock {
			for _, t := range toks {
				ix.post[t] = append(ix.post[t], int32(j))
			}
		}
	}
	ix.prune()
}

// prune applies the global stop-word prune: a single token cannot satisfy
// MinSharedTokens > 1 alone, so up to MinSharedTokens-1 posting lists — the
// longest, typically stop-word-frequency tokens that dominate candidate-
// merge cost — can be dropped entirely. Every qualifying pair still shares
// at least one surviving token, so candidate discovery stays complete;
// borderline candidates verify their exact shared-token count against the
// full per-row token lists during the scan. Pruned lists are retained in
// ix.pruned so ApplyDelta can maintain them. It expects ix.post to hold
// full (unpruned) lists and must run exactly once per Index.
func (ix *Index) prune() {
	if ix.opt.MinSharedTokens <= 1 {
		return
	}
	ix.skipped = make([]bool, len(ix.post))
	for s := 0; s < ix.opt.MinSharedTokens-1; s++ {
		best, bestLen := -1, skipFloor-1
		for t, p := range ix.post {
			if !ix.skipped[t] && len(p) > bestLen {
				best, bestLen = t, len(p)
			}
		}
		if best < 0 {
			break
		}
		ix.skipped[best] = true
		if ix.pruned == nil {
			ix.pruned = make(map[uint32][]int32)
		}
		ix.pruned[uint32(best)] = ix.post[best]
		ix.post[best] = nil
		ix.anySkip = true
	}
}

// postings returns the posting list of a joint token id. Tokens interned
// after the index was built (left-side tokens of a later query) have no
// right-side postings by construction.
func (ix *Index) postings(tok uint32) []int32 {
	if int(tok) < len(ix.post) {
		return ix.post[tok]
	}
	return nil
}

// globallySkipped reports whether the token's posting list was pruned.
func (ix *Index) globallySkipped(tok uint32) bool {
	return ix.skipped != nil && int(tok) < len(ix.skipped) && ix.skipped[tok]
}

// fullPostings returns the complete posting list of a token, including
// stop-word-pruned ones — the incremental-maintenance view of the index.
func (ix *Index) fullPostings(tok uint32) []int32 {
	if ix.globallySkipped(tok) {
		return ix.pruned[tok]
	}
	return ix.postings(tok)
}

// leftView is one left relation prepared for scanning against an Index:
// per-row token lists translated into the index's joint token space, typed
// match columns, and the per-row blocking token union.
type leftView struct {
	n     int
	tok   [][][]uint32
	cols  []matchCol
	block [][]uint32
}

func (ix *Index) buildLeftView(left *relation.Relation, leftIdx []int) *leftView {
	return &leftView{
		n:    left.Len(),
		tok:  ix.ts.tokenColumns(left, leftIdx),
		cols: matchColumns(left, leftIdx),
	}
}

// Similarities scores a left relation against the prebuilt right side over
// the aligned matching attribute indexes (leftIdx[i] ↔ the index's
// rightIdx[i]), with the PairOptions the index was built with. Left-row
// tokens are translated into the index's joint token space once per
// distinct string, and Jaccard runs on sorted token-id slices. workers
// splits the scan into
// contiguous left-row ranges (0 defaults to GOMAXPROCS); output is
// identical at any worker count. Safe for concurrent use.
func (ix *Index) Similarities(left *relation.Relation, leftIdx []int, workers int) ([]Match, error) {
	if len(leftIdx) != len(ix.rightIdx) || len(leftIdx) == 0 {
		return nil, fmt.Errorf("linkage: need equal, non-empty attribute index lists (got %d and %d)", len(leftIdx), len(ix.rightIdx))
	}
	return ix.scan(ix.buildLeftView(left, leftIdx), workers), nil
}

// scorer binds one left view's and the index's typed match columns into the
// pair-scoring closure shared by the unsharded and sharded scan paths.
func (ix *Index) scorer(lv *leftView) func(i, j int, out []Match) []Match {
	opt := ix.opt
	return func(i, j int, out []Match) []Match {
		total := 0.0
		for k := range lv.cols {
			lc, rc := &lv.cols[k], &ix.rCols[k]
			if lc.null[i] || rc.null[j] {
				continue // NULL has similarity 0 to everything
			}
			switch {
			case lc.num[i] && rc.num[j]:
				total += NumericSim(lc.f[i], rc.f[j])
			case lv.tok[k] != nil && ix.rTok[k] != nil:
				total += jaccardSorted(lv.tok[k][i], ix.rTok[k][j])
			default:
				// Asymmetric pair — a numeric-only column matched against
				// a tokenized one: the generic kind-dispatched similarity.
				total += ValueSim(lc.value(i), rc.value(j))
			}
		}
		s := total / float64(len(lv.cols))
		if s >= opt.MinSim && s > 0 {
			out = append(out, Match{L: i, R: j, Sim: s})
		}
		return out
	}
}

// blockedScan reports whether token blocking applies to this left view:
// some matched column has token lists on either side — the same
// whole-column sniff tokenColumns performed.
func (ix *Index) blockedScan(lv *leftView) bool {
	if !ix.opt.Block {
		return false
	}
	for k := range lv.tok {
		if lv.tok[k] != nil || ix.rTok[k] != nil {
			return true
		}
	}
	return false
}

// scan runs candidate generation and scoring of one left view against the
// index.
func (ix *Index) scan(lv *leftView, workers int) []Match {
	opt := ix.opt
	score := ix.scorer(lv)
	blocked := ix.blockedScan(lv)
	n, nRight := lv.n, ix.nRight
	if blocked {
		lv.block = unionRows(lv.tok, n)
		if ix.shards > 1 {
			return ix.scanSharded(lv, workers)
		}
	}
	minShared := int32(opt.MinSharedTokens)
	// scoreRange scans rows [lo, hi) with worker-local candidate state: a
	// dense shared-token counter indexed by right row id plus the list of
	// touched rows, reset between rows — no per-row map allocation. rowSkip
	// holds the positions (within lv.block[i]) of the current row's
	// prefix-filtered tokens.
	scoreRange := func(lo, hi int, cnt []int32, touched, rowSkip []int32, out []Match) ([]Match, []int32, []int32) {
		inRowSkip := func(rowSkip []int32, p int) bool {
			for _, q := range rowSkip {
				if int(q) == p {
					return true
				}
			}
			return false
		}
		for i := lo; i < hi; i++ {
			if !blocked {
				for j := 0; j < nRight; j++ {
					out = score(i, j, out)
				}
				continue
			}
			toks := lv.block[i]
			// Per-left-row prefix filter: a pair sharing at least minShared
			// distinct tokens with this row still shares one outside ANY
			// (minShared−1)-subset of the row's tokens, so each row can skip
			// merging its own longest minShared−1 posting lists — not just
			// the globally pruned stop words. Globally skipped tokens the
			// row carries count against the same budget (their postings are
			// gone for every row); the remaining budget goes to the longest
			// surviving lists, which dominate this row's merge cost.
			skippedHere := 0
			rowSkip = rowSkip[:0]
			if minShared > 1 {
				budget := int(minShared) - 1
				if ix.anySkip {
					for _, tok := range toks {
						if ix.globallySkipped(tok) {
							budget--
							skippedHere++
						}
					}
				}
				if opt.noRowPrefixFilter {
					budget = 0
				}
				for b := 0; b < budget; b++ {
					best, bestLen := -1, skipFloor-1
					for p, tok := range toks {
						if len(ix.postings(tok)) > bestLen && !inRowSkip(rowSkip, p) {
							best, bestLen = p, len(ix.postings(tok))
						}
					}
					if best < 0 {
						break
					}
					rowSkip = append(rowSkip, int32(best))
					skippedHere++
				}
			}
			touched = touched[:0]
			for p, tok := range toks {
				if len(rowSkip) > 0 && inRowSkip(rowSkip, p) {
					continue
				}
				for _, j := range ix.postings(tok) {
					if cnt[j] == 0 {
						touched = append(touched, j)
					}
					cnt[j]++
				}
			}
			// With skipped posting lists the counter undercounts by at most
			// the number of skipped tokens this row carries; candidates in
			// the uncertain band prove their real shared count by merging
			// the two full token lists.
			thresh := minShared - int32(skippedHere)
			if thresh < 1 {
				thresh = 1
			}
			// Ascending right-row order keeps output identical to the
			// sequential pairwise scan.
			sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
			for _, j := range touched {
				if cnt[j] >= thresh &&
					(cnt[j] >= minShared || sharedAtLeast(lv.block[i], ix.rBlock[j], int(minShared))) {
					out = score(i, int(j), out)
				}
				cnt[j] = 0
			}
		}
		return out, touched, rowSkip
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var out []Match
		out, _, _ = scoreRange(0, n, make([]int32, nRight), make([]int32, 0, 64), make([]int32, 0, 4), out)
		return out
	}
	// Contiguous row-range chunks scored in parallel: each chunk's matches
	// come out in the same (i, j) order the sequential scan produces, so
	// concatenating chunks in range order reproduces it exactly. The
	// shared token lists and inverted index are read-only here. Chunks
	// are much smaller than n/workers and pulled from a shared counter so
	// candidate-count skew (dense rows clustered together) cannot
	// serialize the scan on one worker.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	blocks := make([][]Match, nChunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cnt := make([]int32, nRight)
			touched := make([]int32, 0, 64)
			rowSkip := make([]int32, 0, 4)
			for {
				c := int(next.Add(1)) - 1
				if c >= nChunks {
					return
				}
				lo, hi := c*chunk, (c+1)*chunk
				if hi > n {
					hi = n
				}
				var out []Match
				out, touched, rowSkip = scoreRange(lo, hi, cnt, touched, rowSkip, out)
				blocks[c] = out
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	out := make([]Match, 0, total)
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}
