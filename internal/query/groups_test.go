package query

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// mapGroups is the retired map-backed key table (the pre-flat structure of
// rowDeduper and groupProject's buckets, map[uint64][]int32 with one boxed
// chain slice per distinct hash), kept as the differential reference for
// flatGroups.
type mapGroups struct {
	buckets map[uint64][]int32 // hash → ids of its chain, in creation order
	reps    []int32
}

func newMapGroups(hint int) *mapGroups {
	return &mapGroups{buckets: make(map[uint64][]int32, groupSizeHint(hint))}
}

func (g *mapGroups) at(keys [][]relation.CellKey, i int) (int32, bool) {
	h := relation.HashRow(keys, i)
	for _, id := range g.buckets[h] {
		if relation.RowKeysEqual(keys, i, keys, int(g.reps[id])) {
			return id, false
		}
	}
	id := int32(len(g.reps))
	g.reps = append(g.reps, int32(i))
	g.buckets[h] = append(g.buckets[h], id)
	return id, true
}

// TestFlatGroupingMatchesMapGrouping is the flat≡map differential: the key
// columns of every DISTINCT and GROUP BY workload — fixture corpus plus
// random relations with NULL and mixed-kind keys — must get the identical
// (id, fresh) sequence from the flat open-addressing table and the retired
// map[uint64][]int32. Computed keys (b + 1) come from projecting the
// relation with Run; the end-to-end DISTINCT/GROUP BY results are checked
// against the reference engine by the TestCompiledEngineMatchesReference
// tests.
func TestFlatGroupingMatchesMapGrouping(t *testing.T) {
	// check feeds the key columns of sql's result to both tables; it returns
	// Run's error, under which there are no key rows to compare.
	check := func(label, sql string, db *relation.Database) error {
		t.Helper()
		rel, err := Run(sqlparse.MustParse(sql), db)
		if err != nil {
			return err
		}
		cols := make([]int, rel.Schema.Len())
		for j := range cols {
			cols[j] = j
		}
		keys := keyColumns(rel, cols, rel.Dict())
		flat, mp := newFlatGroups(rel.Len()), newMapGroups(rel.Len())
		for i := 0; i < rel.Len(); i++ {
			fid, ffresh := flat.at(keys, i)
			mid, mfresh := mp.at(keys, i)
			if fid != mid || ffresh != mfresh {
				t.Fatalf("%s: %q row %d: flat (%d, %v), map (%d, %v)", label, sql, i, fid, ffresh, mid, mfresh)
			}
		}
		return nil
	}

	db := corpusDB()
	for _, sql := range []string{
		"SELECT Program FROM D1",
		"SELECT Degree, Program FROM D1",
		"SELECT score FROM T",
		"SELECT name, score FROM T",
		"SELECT name FROM T",
	} {
		if err := check("corpus", sql, db); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(29))
	computed := 0
	for trial := 0; trial < 30; trial++ {
		rdb := randomDB(rng)
		for _, sql := range []string{
			"SELECT a FROM T1",
			"SELECT a, b, c FROM T1",
			"SELECT b, c FROM T1",
			"SELECT c FROM T1",
		} {
			if err := check(fmt.Sprintf("trial %d", trial), sql, rdb); err != nil {
				t.Fatal(err)
			}
		}
		// b + 1 fails on a non-numeric b; the engine differential pins that
		// error, so only the trials that project count here.
		if check(fmt.Sprintf("trial %d", trial), "SELECT b + 1, a FROM T1", rdb) == nil {
			computed++
		}
	}
	if computed == 0 {
		t.Fatal("no trial projected the computed key b + 1")
	}
}

// TestFlatGroupsGrowth drives the flat table far past its initial capacity
// (the size hint caps at 256 slots' worth of groups) with colliding
// duplicates interleaved, checking id assignment in first-appearance order
// and exact duplicate detection across rehashes.
func TestFlatGroupsGrowth(t *testing.T) {
	const distinct = 5000
	r := relation.New("R", "k")
	var want []int32
	for i := 0; i < distinct; i++ {
		r.Append(int64(i))
		r.Append(int64(i)) // immediate duplicate
		if i%3 == 0 {
			r.Append(int64(i / 2)) // duplicate of an earlier id
		}
	}
	keys := keyColumns(r, []int{0}, r.Dict())
	g := newFlatGroups(r.Len())
	next := int32(0)
	for i := 0; i < r.Len(); i++ {
		id, fresh := g.at(keys, i)
		v := r.At(i, 0).IntVal()
		if fresh {
			if id != next {
				t.Fatalf("row %d: fresh id %d, want %d (dense first-appearance order)", i, id, next)
			}
			want = append(want, int32(v))
			next++
		}
		if int64(want[id]) != v {
			t.Fatalf("row %d: key %d mapped to id %d, which represents %d", i, v, id, want[id])
		}
	}
	if int(next) != distinct {
		t.Fatalf("distinct ids = %d, want %d", next, distinct)
	}
}

// TestDistinctBuildSideAllocs pins the flat table's allocation profile on
// an all-distinct DISTINCT (the worst case for per-key boxing): a bounded
// handful of allocations from growth doubling, where the map table boxed
// one chain slice per distinct key.
func TestDistinctBuildSideAllocs(t *testing.T) {
	const rows = 2048
	r := relation.New("R", "k")
	for i := 0; i < rows; i++ {
		r.Append(int64(i))
	}
	keys := keyColumns(r, []int{0}, r.Dict())
	flat := testing.AllocsPerRun(10, func() {
		g := newFlatGroups(rows)
		for i := 0; i < rows; i++ {
			g.at(keys, i)
		}
	})
	mapped := testing.AllocsPerRun(10, func() {
		g := newMapGroups(rows)
		for i := 0; i < rows; i++ {
			g.at(keys, i)
		}
	})
	t.Logf("distinct build allocations over %d distinct keys: flat %.0f, map %.0f", rows, flat, mapped)
	if flat > 64 {
		t.Fatalf("flat group table allocations = %.0f for %d distinct keys; want a small growth-bounded constant", flat, rows)
	}
	if flat*4 > mapped {
		t.Fatalf("flat table allocates %.0f, map table %.0f — want at least 4x fewer", flat, mapped)
	}
}

// TestSpliceProjectionAllocs pins the mixed SELECT-list fast path: with two
// of three items plain column refs, only the computed item's column should
// be built — the compiled engine must allocate well under the
// tuple-materializing reference.
func TestSpliceProjectionAllocs(t *testing.T) {
	db := allocsDB(600)
	// Both engines append the computed column through amortized column
	// growth, so the plain projection only demands strictly fewer
	// allocations; DISTINCT over computed items is where the flat-table
	// dedup (vs the reference's per-row keying) dominates.
	minRatio := map[string]float64{
		"SELECT id, city, v + 1 AS w FROM A":      1,
		"SELECT DISTINCT city, v + 1 AS w FROM A": 2,
	}
	for _, sql := range []string{
		"SELECT id, city, v + 1 AS w FROM A",
		"SELECT DISTINCT city, v + 1 AS w FROM A",
	} {
		sel := sqlparse.MustParse(sql)
		if _, err := Run(sel, db); err != nil {
			t.Fatal(err)
		}
		if _, err := RunReference(sel, db); err != nil {
			t.Fatal(err)
		}
		compiled := testing.AllocsPerRun(5, func() {
			if _, err := Run(sel, db); err != nil {
				t.Fatal(err)
			}
		})
		reference := testing.AllocsPerRun(5, func() {
			if _, err := RunReference(sel, db); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: compiled %.0f, reference %.0f (%.1fx)", sql, compiled, reference, reference/compiled)
		if compiled*minRatio[sql] >= reference {
			t.Fatalf("%s: compiled allocates %.0f, reference %.0f — want over %.0fx fewer", sql, compiled, reference, minRatio[sql])
		}
	}
}

// TestGroupedTypedAccumulatorAllocs pins the column-major typed group
// accumulators: grouped COUNT/SUM/AVG over typed columns must not box a
// Value per row, so allocations stay a function of group count, not row
// count. Doubling the rows (same groups) must not meaningfully move the
// allocation count.
func TestGroupedTypedAccumulatorAllocs(t *testing.T) {
	sql := "SELECT city, COUNT(id) AS n, SUM(v) AS s, AVG(v) AS m FROM A GROUP BY city"
	measure := func(rows int) float64 {
		db := allocsDB(rows)
		sel := sqlparse.MustParse(sql)
		if _, err := Run(sel, db); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(sel, db); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(1000), measure(2000)
	t.Logf("grouped typed accumulators: %.0f allocs at 1000 rows, %.0f at 2000", small, large)
	// The key-column extraction allocates O(rows) *slices* but a constant
	// number of allocations; the per-row aggregation path must allocate
	// nothing, so the totals stay within a small additive band.
	if large > small+16 {
		t.Fatalf("grouped aggregation allocations scale with rows: %.0f at 1000 rows, %.0f at 2000", small, large)
	}
}
