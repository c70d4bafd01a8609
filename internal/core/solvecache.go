package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"

	"explain3d/internal/milp"
	"sync"
)

// solvecache.go — the instance-hash → solution cache that makes unchanged
// partitions free under incremental maintenance.
//
// A sub-problem's MILP outcome is a pure function of its content: per-tuple
// impacts and objective constants, the match list with probabilities,
// and cardinality flags. The cache keys on a SHA-256 over
// exactly that serialization — in LOCAL coordinates (positions within the
// sub-problem), so the same partition content hits regardless of where its
// canonical ids landed after a delta. Cached values store the decoded
// explanation fragment in local coordinates too, remapped to global ids on
// every hit; only solves proven optimal are cached (budget-limited
// incumbents are timing-dependent and must not be replayed).

// SolveCache is an LRU of proven-optimal sub-problem solutions, safe for
// concurrent use by the solve worker pool.
type SolveCache struct {
	mu  sync.Mutex
	max int
	// guarded by mu
	items map[string]*list.Element
	// guarded by mu
	ll *list.List
	// guarded by mu
	hits, misses int64
}

// SolveCacheStats is a snapshot of cache effectiveness counters.
type SolveCacheStats struct {
	Entries      int
	Hits, Misses int64
}

type cachedSolution struct {
	key   string
	frag  localFrag
	stats Stats
}

// NewSolveCache creates a cache bounded to max entries (≤0 defaults to 4096).
func NewSolveCache(max int) *SolveCache {
	if max <= 0 {
		max = 4096
	}
	return &SolveCache{
		max: max,
		//lint:ignore guarded constructor: the fresh cache is not shared until returned
		items: make(map[string]*list.Element), ll: list.New(),
	}
}

// Stats snapshots the counters.
func (c *SolveCache) Stats() SolveCacheStats {
	if c == nil {
		return SolveCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SolveCacheStats{
		Entries: c.ll.Len(),
		Hits:    c.hits,
		Misses:  c.misses,
	}
}

func (c *SolveCache) lookup(key string) (*cachedSolution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cachedSolution), true
	}
	c.misses++
	return nil, false
}

func (c *SolveCache) store(key string, frag localFrag, stats Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value = &cachedSolution{key: key, frag: frag, stats: stats}
		return
	}
	el := c.ll.PushFront(&cachedSolution{key: key, frag: frag, stats: stats})
	c.items[key] = el
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cachedSolution).key)
	}
}

// localFrag is a decoded explanation fragment in sub-problem-local
// coordinates: tuple positions within sub.left/sub.right and match indexes
// within sub.matches.
type localFrag struct {
	prov []localProv
	val  []localVal
	evid []int32
}

type localProv struct {
	side Side
	pos  int32
}

type localVal struct {
	side      Side
	pos       int32
	newImpact float64
}

// localFragOf mirrors decode but records local positions, so the fragment
// can be replayed against any sub-problem with identical content.
func localFragOf(inst *Instance, enc *encoded, sol *milp.Solution) localFrag {
	var f localFrag
	readSide := func(side Side, ids []int, xs, ys, ivs []milp.Var, impacts []float64) {
		for k, id := range ids {
			if sol.BoolValue(xs[k]) {
				f.prov = append(f.prov, localProv{side: side, pos: int32(k)})
				continue
			}
			if !sol.BoolValue(ys[k]) {
				refined := sol.Value(ivs[k])
				if math.Abs(refined-impacts[id]) > impactTol {
					f.val = append(f.val, localVal{side: side, pos: int32(k), newImpact: refined})
				}
			}
		}
	}
	readSide(Left, enc.sub.left, enc.xL, enc.yL, enc.iL, inst.T1.Impacts)
	readSide(Right, enc.sub.right, enc.xR, enc.yR, enc.iR, inst.T2.Impacts)
	for mi, z := range enc.z {
		if sol.BoolValue(z) {
			f.evid = append(f.evid, int32(mi))
		}
	}
	return f
}

// globalize replays the fragment against a sub-problem, producing the exact
// Explanations decode would have returned for an identical solve.
func (f localFrag) globalize(sub *subProblem) *Explanations {
	out := &Explanations{}
	idOf := func(side Side, pos int32) int {
		if side == Left {
			return sub.left[pos]
		}
		return sub.right[pos]
	}
	for _, pe := range f.prov {
		out.Prov = append(out.Prov, ProvExpl{Side: pe.side, Tuple: idOf(pe.side, pe.pos)})
	}
	for _, ve := range f.val {
		out.Val = append(out.Val, ValExpl{Side: ve.side, Tuple: idOf(ve.side, ve.pos), NewImpact: ve.newImpact})
	}
	for _, mi := range f.evid {
		m := sub.matches[mi]
		out.Evidence = append(out.Evidence, Evidence{L: m.L, R: m.R, P: m.P})
	}
	return out
}

// subKey hashes everything the sub-problem's solve outcome depends on, in
// local coordinates: per-tuple impact and objective constants on each side
// (in sub order), the match list with local endpoints and probability bits,
// and cardinality flags. Iteration runs over slices only —
// fully deterministic.
func subKey(inst *Instance, sub *subProblem, p Params) string {
	h := sha256.New()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wFloat := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	wSide := func(side Side, ids []int, impacts []float64) {
		wInt(int64(len(ids)))
		for _, id := range ids {
			a, b, c := p.tupleConsts(side, id)
			wFloat(impacts[id])
			wFloat(a)
			wFloat(b)
			wFloat(c)
		}
	}
	wSide(Left, sub.left, inst.T1.Impacts)
	wSide(Right, sub.right, inst.T2.Impacts)
	posL := make(map[int]int32, len(sub.left))
	for k, id := range sub.left {
		posL[id] = int32(k)
	}
	posR := make(map[int]int32, len(sub.right))
	for k, id := range sub.right {
		posR[id] = int32(k)
	}
	wInt(int64(len(sub.matches)))
	for _, m := range sub.matches {
		wInt(int64(posL[m.L]))
		wInt(int64(posR[m.R]))
		wFloat(m.P)
	}
	flags := int64(0)
	if inst.Card.LeftAtMostOne {
		flags |= 1
	}
	if inst.Card.RightAtMostOne {
		flags |= 2
	}
	wInt(flags)
	return string(h.Sum(nil))
}
