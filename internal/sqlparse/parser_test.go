package sqlparse

import (
	"strings"
	"testing"
)

func TestParseSimpleCount(t *testing.T) {
	s, err := Parse("SELECT COUNT(Major) FROM Major;")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Items) != 1 || s.Items[0].Agg != AggCount {
		t.Fatalf("items = %+v", s.Items)
	}
	if s.From[0].Table != "Major" {
		t.Fatalf("from = %+v", s.From[0])
	}
	if s.Where != nil {
		t.Fatal("no WHERE expected")
	}
}

func TestParsePaperQ2(t *testing.T) {
	src := `SELECT SUM(bach_degr) FROM School, Stats
	        WHERE Univ_name = 'UMass-Amherst' AND School.ID = Stats.ID`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Items[0].Agg != AggSum {
		t.Fatalf("agg = %v", s.Items[0].Agg)
	}
	if len(s.From) != 2 {
		t.Fatalf("from = %d refs", len(s.From))
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != "AND" {
		t.Fatalf("where = %v", s.Where)
	}
}

func TestParseJoinOn(t *testing.T) {
	s, err := Parse(`SELECT m.title FROM Movie m JOIN MovieActor ma ON m.movie_id = ma.movie_id WHERE m.release_year = 1999`)
	if err != nil {
		t.Fatal(err)
	}
	if s.From[1].On == nil {
		t.Fatal("expected ON condition on second table ref")
	}
	if s.From[0].Alias != "m" || s.From[1].Alias != "ma" {
		t.Fatalf("aliases = %q %q", s.From[0].Alias, s.From[1].Alias)
	}
}

func TestParseNotInSubquery(t *testing.T) {
	src := `SELECT p.name FROM Person p WHERE p.p_id NOT IN
	        (SELECT mp.p_id FROM MoviePerson mp JOIN Movie m ON mp.m_id = m.m_id WHERE m.title LIKE '%war%')`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	in, ok := s.Where.(*InExpr)
	if !ok || !in.Negate || in.Sub == nil {
		t.Fatalf("where = %#v", s.Where)
	}
	if in.Sub.From[1].On == nil {
		t.Fatal("subquery join lost ON")
	}
}

func TestParseInList(t *testing.T) {
	s, err := Parse(`SELECT a FROM t WHERE a IN (1, 2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	in := s.Where.(*InExpr)
	if len(in.List) != 3 || in.Sub != nil {
		t.Fatalf("in = %#v", in)
	}
}

func TestParseGroupBy(t *testing.T) {
	s, err := Parse(`SELECT program, COUNT(I) AS I FROM P1 GROUP BY program`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Name != "program" {
		t.Fatalf("group by = %+v", s.GroupBy)
	}
	if s.Items[1].Alias != "I" {
		t.Fatalf("alias = %q", s.Items[1].Alias)
	}
}

func TestParseSubqueryInFrom(t *testing.T) {
	s, err := Parse(`SELECT x FROM (SELECT a AS x FROM t WHERE a > 3) sub WHERE x < 10`)
	if err != nil {
		t.Fatal(err)
	}
	if s.From[0].Sub == nil || s.From[0].Alias != "sub" {
		t.Fatalf("from = %+v", s.From[0])
	}
}

func TestParseSubqueryInFromNeedsAlias(t *testing.T) {
	if _, err := Parse(`SELECT x FROM (SELECT a FROM t)`); err == nil {
		t.Fatal("subquery in FROM without alias should fail")
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s, err := Parse(`SELECT a FROM t WHERE a + 2 * 3 = 7`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := s.Where.(*BinaryExpr)
	add := cmp.Left.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("expected + at top of lhs, got %s", add.Op)
	}
	mul := add.Right.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("expected * to bind tighter: %s", add.String())
	}
}

func TestParseIsNullAndLike(t *testing.T) {
	s, err := Parse(`SELECT a FROM t WHERE a IS NOT NULL AND b LIKE 'x%' AND c NOT LIKE '_y'`)
	if err != nil {
		t.Fatal(err)
	}
	str := s.Where.String()
	for _, want := range []string{"IS NOT NULL", "LIKE 'x%'", "NOT LIKE '_y'"} {
		if !strings.Contains(str, want) {
			t.Errorf("missing %q in %s", want, str)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	s, err := Parse(`SELECT a FROM t WHERE b = 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	lit := s.Where.(*BinaryExpr).Right.(*Literal)
	if lit.Val.(string) != "it's" {
		t.Fatalf("literal = %q", lit.Val)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a = ",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t extra garbage; SELECT",
		"SELECT a FROM t WHERE a LIKE 5",
		"SELECT a FROM t WHERE 'unterminated",
		"SELECT a FROM t WHERE a @ 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDistinct(t *testing.T) {
	s, err := Parse(`SELECT DISTINCT a, b FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Distinct || len(s.Items) != 2 {
		t.Fatalf("distinct=%v items=%d", s.Distinct, len(s.Items))
	}
}

func TestParseCountStar(t *testing.T) {
	s, err := Parse(`SELECT COUNT(*) FROM t WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Items[0].Star || s.Items[0].Agg != AggCount {
		t.Fatalf("item = %+v", s.Items[0])
	}
}

func TestAggregateHelper(t *testing.T) {
	s := MustParse(`SELECT SUM(v) FROM t`)
	if s.Aggregate() == nil || s.Aggregate().Agg != AggSum {
		t.Fatal("Aggregate() should find SUM")
	}
	s = MustParse(`SELECT a, COUNT(b) FROM t GROUP BY a`)
	if s.Aggregate() != nil {
		t.Fatal("grouped query is not a scalar aggregate")
	}
	s = MustParse(`SELECT a FROM t`)
	if s.Aggregate() != nil {
		t.Fatal("plain query has no aggregate")
	}
}

// roundTripSrcs are the render/re-parse fixpoint corpus; FuzzParse seeds
// from them too.
var roundTripSrcs = []string{
	"SELECT COUNT(Major) FROM Major",
	"SELECT SUM(bach_degr) FROM School, Stats WHERE (Univ_name = 'X' AND School.ID = Stats.ID)",
	"SELECT m.title FROM Movie m JOIN MovieInfo i ON m.m_id = i.m_id WHERE i.info = 'Comedy'",
	"SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)",
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range roundTripSrcs {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		s2, err := Parse(s1.String())
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", s1.String(), err)
		}
		if s1.String() != s2.String() {
			t.Errorf("not a fixpoint:\n  %s\n  %s", s1.String(), s2.String())
		}
	}
}

func TestLexerComments(t *testing.T) {
	s, err := Parse("SELECT a -- comment here\nFROM t")
	if err != nil {
		t.Fatal(err)
	}
	if s.From[0].Table != "t" {
		t.Fatalf("from = %+v", s.From[0])
	}
}

func TestUnaryMinus(t *testing.T) {
	s, err := Parse(`SELECT a FROM t WHERE a > -5`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := s.Where.(*BinaryExpr)
	if _, ok := cmp.Right.(*UnaryExpr); !ok {
		t.Fatalf("rhs = %#v", cmp.Right)
	}
}
