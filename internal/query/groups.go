package query

import "explain3d/internal/relation"

// flatGroups is the group/distinct key table: it assigns dense ids 0, 1,
// 2, … to the distinct key rows it sees, in first-appearance order. at(keys,
// i) returns the id of row i's key and whether this call created it. Row i
// becomes the id's representative, so keys must keep position i valid for
// the table's lifetime (DISTINCT over computed rows passes tentatively
// appended keys for exactly this reason).
//
// It is the incremental counterpart of the hash join's joinIndex: a flat
// open-addressing table keyed on the 64-bit row-key hash with per-id next
// links chaining duplicates, grown by rehashing when load passes 50%. Slots
// hold the row-key hash of their chain (heads[s] < 0 = empty, linear
// probing, ≤50% load); ids chain through next in most-recent-first order —
// chain order is irrelevant to correctness because at most one entry of a
// chain can compare equal to any probe row.
type flatGroups struct {
	mask  uint64
	slotH []uint64 // slot → hash of its chain
	heads []int32  // slot → first id of the chain, -1 empty
	next  []int32  // id → next id with the same hash, -1 end
	idH   []uint64 // id → hash (for rehash on grow)
	reps  []int32  // id → representative row
}

func newFlatGroups(hint int) *flatGroups {
	size := 8
	for size < 2*groupSizeHint(hint) {
		size <<= 1
	}
	g := &flatGroups{
		mask:  uint64(size - 1),
		slotH: make([]uint64, size),
		heads: make([]int32, size),
	}
	for s := range g.heads {
		g.heads[s] = -1
	}
	return g
}

func (g *flatGroups) at(keys [][]relation.CellKey, i int) (int32, bool) {
	h := relation.HashRow(keys, i)
	s := h & g.mask
	for g.heads[s] >= 0 {
		if g.slotH[s] == h {
			for id := g.heads[s]; id >= 0; id = g.next[id] {
				if relation.RowKeysEqual(keys, i, keys, int(g.reps[id])) {
					return id, false
				}
			}
			break
		}
		s = (s + 1) & g.mask
	}
	id := int32(len(g.reps))
	g.reps = append(g.reps, int32(i))
	g.idH = append(g.idH, h)
	g.next = append(g.next, -1)
	if 2*len(g.reps) > len(g.heads) {
		g.grow() // re-slots every id, including the new one
		return id, true
	}
	// The probe above may have stopped mid-chain; re-locate the slot for h
	// (first empty or hash-matching slot — the same one the probe visited).
	s = h & g.mask
	for g.heads[s] >= 0 && g.slotH[s] != h {
		s = (s + 1) & g.mask
	}
	g.slotH[s] = h
	g.next[id] = g.heads[s]
	g.heads[s] = id
	return id, true
}

// grow doubles the slot array and re-chains every id from its stored hash.
func (g *flatGroups) grow() {
	size := 2 * len(g.heads)
	for size < 2*len(g.reps) {
		size <<= 1
	}
	g.mask = uint64(size - 1)
	g.slotH = make([]uint64, size)
	g.heads = make([]int32, size)
	for s := range g.heads {
		g.heads[s] = -1
	}
	for id := len(g.reps) - 1; id >= 0; id-- {
		h := g.idH[id]
		s := h & g.mask
		for g.heads[s] >= 0 && g.slotH[s] != h {
			s = (s + 1) & g.mask
		}
		g.slotH[s] = h
		g.next[id] = g.heads[s]
		g.heads[s] = int32(id)
	}
}
