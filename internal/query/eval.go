// Package query evaluates parsed SQL against in-memory databases and
// extracts provenance relations (Definition 2.3 of the paper): for a query
// Q = π_o σ_c(X), the provenance relation P contains every tuple of σ_c(X)
// together with its impact I — the tuple's statistical contribution to Q's
// result (1 for non-aggregates and COUNT, the aggregated attribute's value
// for SUM/AVG/MAX/MIN).
package query

import (
	"fmt"
	"regexp"
	"strings"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// evaluator carries cross-expression state for the compiled engine: the
// database for subqueries, a packed-key cache so each uncorrelated
// IN-subquery runs once, and a LIKE regexp cache.
type evaluator struct {
	db      *relation.Database
	inCache map[*sqlparse.InExpr]*inSet
	likeRE  map[string]*regexp.Regexp
}

func newEvaluator(db *relation.Database) *evaluator {
	return &evaluator{
		db:      db,
		inCache: make(map[*sqlparse.InExpr]*inSet),
		likeRE:  make(map[string]*regexp.Regexp),
	}
}

// likePattern compiles a SQL LIKE pattern (% and _ wildcards, case
// insensitive) into an anchored regexp, caching compilations.
func (ev *evaluator) likePattern(pat string) (*regexp.Regexp, error) {
	if re, ok := ev.likeRE[pat]; ok {
		return re, nil
	}
	var b strings.Builder
	b.WriteString("(?i)^")
	for _, r := range pat {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, fmt.Errorf("query: bad LIKE pattern %q: %w", pat, err)
	}
	ev.likeRE[pat] = re
	return re, nil
}

// columnRefs collects every column reference in an expression.
func columnRefs(e sqlparse.Expr) []*sqlparse.ColumnRef {
	var out []*sqlparse.ColumnRef
	var walk func(sqlparse.Expr)
	walk = func(e sqlparse.Expr) {
		switch x := e.(type) {
		case *sqlparse.ColumnRef:
			out = append(out, x)
		case *sqlparse.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *sqlparse.UnaryExpr:
			walk(x.Expr)
		case *sqlparse.IsNullExpr:
			walk(x.Expr)
		case *sqlparse.LikeExpr:
			walk(x.Expr)
		case *sqlparse.InExpr:
			walk(x.Expr)
			// Subquery refs resolve against their own scope; list items are
			// constants in the supported dialect.
		}
	}
	walk(e)
	return out
}

// resolvable reports whether every column reference in e resolves against
// the schema.
func resolvable(e sqlparse.Expr, sch *relation.Schema) bool {
	for _, ref := range columnRefs(e) {
		if _, err := sch.Index(ref.String()); err != nil {
			return false
		}
	}
	return true
}

// splitConjuncts flattens a WHERE clause into AND-ed conjuncts.
func splitConjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparse.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []sqlparse.Expr{e}
}
