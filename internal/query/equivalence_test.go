package query

import (
	"fmt"
	"math/rand"
	"testing"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// relationsIdentical demands byte-identical logical content: same name,
// same qualified schema, same row count, and per cell the same kind, the
// same canonical key, and the same rendering.
func relationsIdentical(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("%s: name %q, want %q", label, got.Name, want.Name)
	}
	gn, wn := got.Schema.Names(), want.Schema.Names()
	if fmt.Sprint(gn) != fmt.Sprint(wn) {
		t.Fatalf("%s: schema %v, want %v", label, gn, wn)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		for j := 0; j < got.Schema.Len(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if g.Kind() != w.Kind() || g.Key() != w.Key() || g.String() != w.String() {
				t.Fatalf("%s: cell (%d,%d) = %v (%v), want %v (%v)", label, i, j, g, g.Kind(), w, w.Kind())
			}
		}
	}
}

// checkQuery runs one SQL statement through both engines and demands
// identical outcomes: both error, or both succeed with byte-identical
// relations. Provenance extraction is compared whenever the query is in the
// paper's class (≤1 aggregate, no GROUP BY).
func checkQuery(t *testing.T, label, sql string, db *relation.Database) {
	t.Helper()
	sel := sqlparse.MustParse(sql)
	got, errGot := Run(sel, db)
	want, errWant := RunReference(sel, db)
	if (errGot != nil) != (errWant != nil) {
		t.Fatalf("%s: %q: compiled err = %v, reference err = %v", label, sql, errGot, errWant)
	}
	if errGot == nil {
		relationsIdentical(t, label+": "+sql, got, want)
	}

	if len(sel.GroupBy) > 0 {
		return
	}
	aggs := 0
	for _, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			aggs++
		}
	}
	if aggs > 1 {
		return
	}
	pGot, errGot := Extract(sel, db)
	pWant, errWant := ExtractReference(sel, db)
	if (errGot != nil) != (errWant != nil) {
		t.Fatalf("%s: Extract %q: compiled err = %v, reference err = %v", label, sql, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	relationsIdentical(t, label+": Extract "+sql, pGot.Rel, pWant.Rel)
	if pGot.Agg != pWant.Agg {
		t.Fatalf("%s: Extract %q: agg %v, want %v", label, sql, pGot.Agg, pWant.Agg)
	}
	if pGot.Result.Key() != pWant.Result.Key() {
		t.Fatalf("%s: Extract %q: result %v, want %v", label, sql, pGot.Result, pWant.Result)
	}
}

// corpusDB extends the Figure-1 schema with a NULL-bearing table for the
// LIKE / IS NULL / aggregate-over-NULL corpus entries.
func corpusDB() *relation.Database {
	db := fig1DB()
	r := relation.New("T", "name", "score")
	r.Append("alpha", int64(1))
	r.Append("beta", nil)
	r.Append("gamma", int64(3))
	r.Append(nil, 2.5)
	r.Append("alpha beta", "not a number")
	db.Add(r)
	for _, rel := range joinDB().Relations() {
		db.Add(rel)
	}
	return db
}

// TestCompiledEngineMatchesReferenceCorpus replays the full SQL corpus of
// query_test.go (plus NULL-heavy and mixed-column variants) through both
// engines.
func TestCompiledEngineMatchesReferenceCorpus(t *testing.T) {
	db := corpusDB()
	corpus := []string{
		"SELECT COUNT(Program) FROM D1",
		"SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'",
		"SELECT SUM(Num_bach) FROM D3",
		"SELECT SUM(Num_major) FROM D4",
		"SELECT COUNT(Major) FROM D2 WHERE Univ = 'Z'",
		"SELECT SUM(Num_bach) FROM D3 WHERE College = 'Z'",
		"SELECT AVG(Num_bach) FROM D3",
		"SELECT MAX(Num_bach) FROM D3",
		"SELECT MIN(Num_bach) FROM D3",
		"SELECT COUNT(*) FROM D3",
		"SELECT Program, COUNT(Degree) AS I FROM D1 GROUP BY Program",
		"SELECT DISTINCT Program FROM D1",
		"SELECT DISTINCT Degree, Program FROM D1",
		"SELECT Major FROM D2 WHERE Univ = 'A'",
		"SELECT COUNT(College) FROM D3 WHERE Num_bach * 2 >= 4",
		"SELECT COUNT(D3.College) FROM D3, D4 WHERE Num_bach > Num_major",
		"SELECT COUNT(Program) FROM D1 WHERE Program = 'CS' OR Degree = 'B.A.'",
		"SELECT COUNT(p) FROM (SELECT Program AS p FROM D1 WHERE Degree = 'B.S.') sub",
		`SELECT SUM(bach_degr) FROM School, Stats WHERE Univ_name = 'UMass-Amherst' AND School.ID = Stats.ID`,
		`SELECT COUNT(Program) FROM School s JOIN Stats st ON s.ID = st.ID WHERE s.Univ_name = 'OSU'`,
		`SELECT Program FROM Stats WHERE ID IN (SELECT ID FROM School WHERE City = 'Amherst')`,
		`SELECT Program FROM Stats WHERE ID NOT IN (SELECT ID FROM School WHERE City = 'Amherst')`,
		`SELECT COUNT(name) FROM T WHERE name LIKE '%a'`,
		`SELECT COUNT(name) FROM T WHERE name NOT LIKE '_eta'`,
		`SELECT COUNT(name) FROM T WHERE score IS NULL`,
		`SELECT COUNT(name) FROM T WHERE score IS NOT NULL`,
		"SELECT SUM(score) FROM T",
		"SELECT COUNT(score) FROM T",
		"SELECT name, score FROM T",
		"SELECT DISTINCT score FROM T",
		"SELECT DISTINCT name, score FROM T",
		"SELECT name, COUNT(score), SUM(score), MIN(score) FROM T GROUP BY name",
		"SELECT score, COUNT(*) FROM T GROUP BY score",
		"SELECT name FROM T WHERE score IN (1, 2.5)",
		"SELECT name FROM T WHERE name IN ('alpha', 'gamma', 'nope')",
		"SELECT COUNT(name) FROM T WHERE NOT score = 1",
		"SELECT COUNT(name) FROM T WHERE score >= 1 AND score <= 3",
		// Scalar aggregates: the single-group case over an empty selection,
		// the generic (compiled scalar) mode, and the typed count of a
		// string column.
		"SELECT MIN(Num_bach), MAX(Num_bach), AVG(Num_bach), COUNT(*) FROM D3 WHERE College = 'Z'",
		"SELECT SUM(Num_bach + 1) FROM D3",
		"SELECT COUNT(Program) FROM D1 WHERE Degree = 'B.S.'",
		// Error corpus: both engines must reject these.
		"SELECT SUM(Program) FROM D1",
		"SELECT SUM(name) FROM T",
		"SELECT Num_bach FROM D3 WHERE College = 5 + 'x'",
		"SELECT Program, COUNT(Degree) FROM D1",
		"SELECT MAX(name) FROM T",
	}
	for _, sql := range corpus {
		checkQuery(t, "corpus", sql, db)
	}
}

// vocab draws string cells from a small pool so joins, DISTINCT, and
// GROUP BY hit real collisions (including strings that parse as numbers).
var vocab = []string{"cs", "ece", "fine arts", "cs and math", "2", "2.0", "true", "", "north campus"}

// randomCell mixes kinds within one column: strings, small ints (colliding
// with integral floats), floats, bools, and NULLs.
func randomCell(rng *rand.Rand) relation.Value {
	switch rng.Intn(12) {
	case 0, 1:
		return relation.Null()
	case 2, 3, 4:
		return relation.Int(int64(rng.Intn(4)))
	case 5:
		return relation.Float(float64(rng.Intn(4)))
	case 6:
		return relation.Float(float64(rng.Intn(4)) + 0.5)
	case 7:
		return relation.Bool(rng.Intn(2) == 0)
	default:
		return relation.String(vocab[rng.Intn(len(vocab))])
	}
}

// randomDB builds T1 and T2 with three columns each: a leans string, b
// leans int (NULLable join/group keys), c is fully mixed. A coin flip
// shares one dictionary across both tables.
func randomDB(rng *rand.Rand) *relation.Database {
	db := relation.NewDatabase("rand")
	var d *relation.Dict
	if rng.Intn(2) == 0 {
		d = relation.NewDict()
	}
	for _, name := range []string{"T1", "T2"} {
		var r *relation.Relation
		if d != nil {
			r = relation.NewWithDict(d, name, "a", "b", "c")
		} else {
			r = relation.New(name, "a", "b", "c")
		}
		rows := 1 + rng.Intn(40)
		for i := 0; i < rows; i++ {
			var a relation.Value
			if rng.Intn(4) == 0 {
				a = randomCell(rng)
			} else if rng.Intn(8) == 0 {
				a = relation.Null()
			} else {
				a = relation.String(vocab[rng.Intn(len(vocab))])
			}
			var b relation.Value
			switch rng.Intn(6) {
			case 0:
				b = relation.Null()
			case 1:
				b = randomCell(rng)
			default:
				b = relation.Int(int64(rng.Intn(5)))
			}
			r.Append(a, b, randomCell(rng))
		}
		db.Add(r)
	}
	return db
}

// TestCompiledEngineMatchesReferenceProperty is the acceptance property of
// the compiled engine: over random relations — mixed kinds inside one
// column, NULL join and group keys, shared or separate dictionaries — every
// generated query (filters, equi- and cross joins, DISTINCT, GROUP BY,
// aggregates, IN lists and subqueries, LIKE) returns byte-identical
// relations and provenance under both engines.
func TestCompiledEngineMatchesReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pred := func() string { return propertyPreds[rng.Intn(len(propertyPreds))] }
	for trial := 0; trial < 60; trial++ {
		db := randomDB(rng)
		queries := []string{
			"SELECT a, b, c FROM T1",
			fmt.Sprintf("SELECT a, b FROM T1 WHERE %s", pred()),
			fmt.Sprintf("SELECT c FROM T1 WHERE %s AND %s", pred(), pred()),
			fmt.Sprintf("SELECT DISTINCT a, c FROM T1 WHERE %s", pred()),
			"SELECT DISTINCT b FROM T1",
			"SELECT DISTINCT b + 1 FROM T1",
			fmt.Sprintf("SELECT COUNT(a) FROM T1 WHERE %s", pred()),
			"SELECT SUM(b) FROM T1",
			"SELECT MIN(b), MAX(b), AVG(b), COUNT(*) FROM T1",
			"SELECT a, COUNT(b) AS n, SUM(b) AS s FROM T1 GROUP BY a",
			"SELECT b, COUNT(*) FROM T1 GROUP BY b",
			"SELECT a, b, MIN(c) FROM T1 GROUP BY a, b",
			"SELECT T1.a, T2.b FROM T1, T2 WHERE T1.a = T2.a",
			fmt.Sprintf("SELECT COUNT(T1.a) FROM T1, T2 WHERE T1.a = T2.a AND T1.b = T2.b AND %s",
				[]string{"T1.b >= 1", "T2.c IS NOT NULL", "T1.a LIKE '%c%'", "NOT T2.b = 1"}[rng.Intn(4)]),
			"SELECT SUM(T2.b) FROM T1 JOIN T2 ON T1.b = T2.b",
			"SELECT COUNT(T1.a) FROM T1, T2 WHERE T1.b > T2.b",
			"SELECT x.a FROM (SELECT a, b FROM T1 WHERE b IS NOT NULL) x WHERE x.b >= 1",
			"SELECT a FROM T1 WHERE a IN (SELECT a FROM T2)",
			fmt.Sprintf("SELECT a FROM T1 WHERE b NOT IN (SELECT b FROM T2 WHERE %s)", pred()),
			"SELECT c, COUNT(a) FROM T1 GROUP BY c",
			"SELECT DISTINCT a, b, c FROM T1",
			"SELECT DISTINCT b + 1, a FROM T1",
			"SELECT a, COUNT(b) AS n, SUM(b) AS s, AVG(b) AS m FROM T1 GROUP BY a",
			"SELECT b, c, MIN(a), MAX(a), COUNT(*) FROM T1 GROUP BY b, c",
			"SELECT MIN(b), MAX(b), AVG(b), COUNT(*) FROM T1 WHERE a = 'no such value'",
			"SELECT SUM(b + 1) FROM T1",
			"SELECT COUNT(a) FROM T1",
		}
		for _, sql := range queries {
			checkQuery(t, fmt.Sprintf("trial %d", trial), sql, db)
		}
	}
}

// propertyPreds are the WHERE predicates the property and fuzz
// differentials draw from.
var propertyPreds = []string{
	"a = 'cs'",
	"a = '2'",
	"a <> 'ece'",
	"b >= 2",
	"b < 3",
	"b = 2",
	"c IS NULL",
	"c IS NOT NULL",
	"a LIKE '%c%'",
	"a NOT LIKE 'c_'",
	"b IN (1, 2, '2')",
	"a IN ('cs', 'fine arts', 2)",
	"NOT b = 1",
	"b + 1 >= 2",
	"b > c",
	"a = c",
	"b = 1 OR c = 2",
}

// FuzzCompiledMatchesReference runs fuzzed queries over fuzzed randomDB
// instances through both engines: one aggregate function and argument,
// one of four shapes (scalar, GROUP BY one or two columns, two scalar
// aggregates), and an optional predicate — including one no row
// satisfies, so aggregates also run over empty selections.
func FuzzCompiledMatchesReference(f *testing.F) {
	f.Add(int64(17), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(29), uint8(1), uint8(1), uint8(3), uint8(1))
	f.Add(int64(5), uint8(3), uint8(4), uint8(17), uint8(0))
	f.Add(int64(11), uint8(2), uint8(2), uint8(18), uint8(3))
	fns := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	args := []string{"a", "b", "c", "b + 1", "*"}
	f.Fuzz(func(t *testing.T, seed int64, fn, arg, pred, shape uint8) {
		db := randomDB(rand.New(rand.NewSource(seed)))
		agg := fmt.Sprintf("%s(%s)", fns[int(fn)%len(fns)], args[int(arg)%len(args)])
		if args[int(arg)%len(args)] == "*" {
			agg = "COUNT(*)"
		}
		where := ""
		switch p := int(pred) % (len(propertyPreds) + 2); {
		case p < len(propertyPreds):
			where = " WHERE " + propertyPreds[p]
		case p == len(propertyPreds):
			where = " WHERE a = 'no such value'"
		}
		var sql string
		switch shape % 4 {
		case 0:
			sql = "SELECT " + agg + " FROM T1" + where
		case 1:
			sql = "SELECT a, " + agg + " FROM T1" + where + " GROUP BY a"
		case 2:
			sql = "SELECT b, c, " + agg + " FROM T1" + where + " GROUP BY b, c"
		default:
			sql = "SELECT " + agg + ", COUNT(*) FROM T1" + where
		}
		checkQuery(t, fmt.Sprintf("seed %d", seed), sql, db)
	})
}

// TestCrossJoinBatchedRestFilter sizes the inputs so the filtered cross
// product spans multiple filterPairs batches (300×300 pairs >
// joinBatchPairs), pinning the streamed path against the reference engine.
func TestCrossJoinBatchedRestFilter(t *testing.T) {
	if 300*300 <= joinBatchPairs {
		t.Fatal("test workload no longer spans two batches; grow it")
	}
	db := allocsDB(300)
	for _, sql := range []string{
		"SELECT COUNT(A.id) FROM A, B WHERE A.v > B.w",
		"SELECT SUM(B.w) FROM A, B WHERE A.v > B.w AND B.name LIKE '%u%'",
	} {
		checkQuery(t, "batched-cross", sql, db)
	}
}

// allocsDB builds the join workload for the allocation regression: two
// tables with shared integer keys (multiplicities on both sides), string
// payloads, and a filter column.
func allocsDB(rows int) *relation.Database {
	db := relation.NewDatabase("bench")
	cities := []string{"amherst", "columbus", "seattle", "boston", "austin", "portland"}
	a := relation.New("A", "id", "city", "v")
	for i := 0; i < rows; i++ {
		a.Append(int64(i%(rows/4+1)), cities[i%len(cities)], int64(i%97))
	}
	db.Add(a)
	b := relation.New("B", "id", "name", "w")
	for i := 0; i < rows; i++ {
		b.Append(int64(i%(rows/4+1)), cities[(i*7)%len(cities)]+" u", float64(i%13)+0.5)
	}
	db.Add(b)
	return db
}

const allocsJoinSQL = "SELECT SUM(A.v) FROM A, B WHERE A.id = B.id AND B.w >= 3"

// TestJoinAllocsRegression pins the headline claim of the compiled engine:
// the code-keyed join path must allocate at least 2× less than the
// string-keyed reference engine on the same workload.
func TestJoinAllocsRegression(t *testing.T) {
	db := allocsDB(600)
	sel := sqlparse.MustParse(allocsJoinSQL)
	// Warm both engines once (dictionary interning, LIKE caches).
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
	t.Logf("join allocations: compiled %.0f, reference %.0f (%.1fx)", compiled, reference, reference/compiled)
	if compiled*2 > reference {
		t.Fatalf("compiled join allocates %.0f, reference %.0f — want at least 2x fewer", compiled, reference)
	}
}

// TestJoinBuildSideAllocs pins the flat open-addressing build side: the
// whole index is a constant number of allocations however many distinct
// keys the build rows carry (the map build boxed one []int32 per key).
func TestJoinBuildSideAllocs(t *testing.T) {
	const rows = 2048
	r := relation.New("R", "k")
	for i := 0; i < rows; i++ {
		r.Append(int64(i)) // all-distinct keys: worst case for per-key boxing
	}
	keys := keyColumns(r, []int{0}, r.Dict())
	allocs := testing.AllocsPerRun(10, func() {
		buildJoinIndex(keys, rows)
	})
	if allocs > 4 {
		t.Fatalf("buildJoinIndex allocations = %.0f for %d distinct keys; want ≤ 4 (flat table)", allocs, rows)
	}
}

// TestJoinBuildSideChainOrder pins the byte-identical contract on the
// duplicate chains: probing must yield right rows in ascending id order —
// exactly the order the map build (ascending appends) produced — including
// under hash collisions and interleaved NULL keys.
func TestJoinBuildSideChainOrder(t *testing.T) {
	r := relation.New("R", "k")
	vals := []any{int64(7), nil, int64(3), int64(7), int64(3), int64(7), nil, int64(11)}
	for _, v := range vals {
		r.Append(v)
	}
	keys := keyColumns(r, []int{0}, r.Dict())
	ix := buildJoinIndex(keys, r.Len())
	want := map[int64][]int32{7: {0, 3, 5}, 3: {2, 4}, 11: {7}}
	for k, rows := range want {
		probe := relation.New("P", "k").Append(k)
		pk := keyColumns(probe, []int{0}, r.Dict())
		var got []int32
		for j := ix.probe(relation.HashRow(pk, 0)); j >= 0; j = ix.next[j] {
			got = append(got, j)
		}
		if len(got) != len(rows) {
			t.Fatalf("key %d: chain %v, want %v", k, got, rows)
		}
		for i := range rows {
			if got[i] != rows[i] {
				t.Fatalf("key %d: chain %v, want %v (ascending row order)", k, got, rows)
			}
		}
	}
	// NULL rows never enter any chain.
	for _, j := range []int32{1, 6} {
		if ix.next[j] != -1 {
			t.Fatalf("NULL row %d appears in a chain", j)
		}
	}
}

// TestGroupByAllocsRegression does the same for the packed-key GROUP BY.
func TestGroupByAllocsRegression(t *testing.T) {
	db := allocsDB(600)
	sel := sqlparse.MustParse("SELECT city, COUNT(id) AS n, SUM(v) AS s FROM A GROUP BY city")
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
	t.Logf("group-by allocations: compiled %.0f, reference %.0f (%.1fx)", compiled, reference, reference/compiled)
	if compiled*2 > reference {
		t.Fatalf("compiled group-by allocates %.0f, reference %.0f — want at least 2x fewer", compiled, reference)
	}
}
