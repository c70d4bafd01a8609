package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SELECT statement (an optional trailing semicolon is
// allowed) and returns its AST.
func Parse(src string) (*Select, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, fmt.Errorf("sqlparse: unexpected trailing input at %s", p.peek())
	}
	return sel, nil
}

// MustParse is Parse but panics on error; for statically known queries in
// generators and tests.
func MustParse(src string) *Select {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

// next consumes one token; the final EOF token is never consumed, so any
// read past the end keeps seeing EOF.
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) back()       { p.i-- }

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("sqlparse: expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) peekSymbol(sym string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == sym
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peekSymbol(sym) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return fmt.Errorf("sqlparse: expected %q, got %s", sym, p.peek())
	}
	return nil
}

var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "group": true, "by": true,
	"and": true, "or": true, "not": true, "in": true, "like": true,
	"is": true, "null": true, "join": true, "on": true, "as": true,
	"distinct": true, "true": true, "false": true,
	"count": true, "sum": true, "avg": true, "max": true, "min": true,
}

func isReserved(s string) bool { return reservedWords[strings.ToLower(s)] }

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{}
	sel.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseFrom()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			ref, err := p.parseColumnRef()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, ref)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return sel, nil
}

func aggFuncFor(name string) AggFunc {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount
	case "SUM":
		return AggSum
	case "AVG", "AVERAGE":
		return AggAvg
	case "MAX":
		return AggMax
	case "MIN":
		return AggMin
	default:
		return AggNone
	}
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	t := p.peek()
	if t.kind == tokIdent {
		if agg := aggFuncFor(t.text); agg != AggNone {
			// Lookahead for '(' to distinguish aggregate from a column that
			// happens to be named like one.
			p.next()
			if p.acceptSymbol("(") {
				item := &SelectItem{Agg: agg}
				if p.acceptSymbol("*") {
					if agg != AggCount {
						return nil, fmt.Errorf("sqlparse: %s(*) is only valid for COUNT", agg)
					}
					item.Star = true
				} else {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Expr = e
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				var err error
				item.Alias, err = p.parseOptionalAlias()
				return item, err
			}
			p.back()
		}
	}
	if p.acceptSymbol("*") {
		return nil, fmt.Errorf("sqlparse: bare SELECT * is not supported; list columns explicitly")
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	item.Alias, err = p.parseOptionalAlias()
	return item, err
}

// parseOptionalAlias reads "AS name" or a bare name; after AS the name
// must be a non-reserved identifier, so the alias renders back unchanged.
func (p *parser) parseOptionalAlias() (string, error) {
	as := p.acceptKeyword("AS")
	t := p.peek()
	if t.kind == tokIdent && !isReserved(t.text) {
		p.next()
		return t.text, nil
	}
	if as {
		return "", fmt.Errorf("sqlparse: expected alias after AS, got %s", t)
	}
	return "", nil
}

func (p *parser) parseFrom() ([]*TableRef, error) {
	var refs []*TableRef
	first, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	refs = append(refs, first)
	for {
		switch {
		case p.acceptSymbol(","):
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
		case p.peekKeyword("JOIN") || p.peekKeyword("INNER"):
			p.acceptKeyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			r, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.On = on
			refs = append(refs, r)
		default:
			return refs, nil
		}
	}
}

func (p *parser) parseTableRef() (*TableRef, error) {
	if p.acceptSymbol("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		ref := &TableRef{Sub: sub}
		if ref.Alias, err = p.parseOptionalAlias(); err != nil {
			return nil, err
		}
		if ref.Alias == "" {
			return nil, fmt.Errorf("sqlparse: subquery in FROM requires an alias")
		}
		return ref, nil
	}
	t := p.next()
	if t.kind != tokIdent || isReserved(t.text) {
		return nil, fmt.Errorf("sqlparse: expected table name, got %s", t)
	}
	ref := &TableRef{Table: t.text}
	alias, err := p.parseOptionalAlias()
	if err != nil {
		return nil, err
	}
	ref.Alias = alias
	if ref.Alias == "" {
		ref.Alias = t.text
	}
	return ref, nil
}

// Expression grammar, lowest to highest precedence:
// OR, AND, NOT, comparison/IN/LIKE/IS, +-, */, unary minus, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Expr: left, Negate: neg}, nil
	}
	neg := false
	if p.peekKeyword("NOT") {
		// could be NOT IN / NOT LIKE
		p.next()
		if p.peekKeyword("IN") || p.peekKeyword("LIKE") {
			neg = true
		} else {
			p.back()
			return left, nil
		}
	}
	if p.acceptKeyword("IN") {
		return p.parseInTail(left, neg)
	}
	if p.acceptKeyword("LIKE") {
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("sqlparse: LIKE requires a string pattern, got %s", t)
		}
		return &LikeExpr{Expr: left, Pattern: t.text, Negate: neg}, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.acceptSymbol(op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseInTail(left Expr, neg bool) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.peekKeyword("SELECT") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{Expr: left, Sub: sub, Negate: neg}, nil
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &InExpr{Expr: left, List: list, Negate: neg}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "+", Left: left, Right: r}
		case p.acceptSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "-", Left: left, Right: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "*", Left: left, Right: r}
		case p.acceptSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: "/", Left: left, Right: r}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqlparse: bad number %q: %w", t.text, err)
			}
			return &Literal{Val: f}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlparse: bad number %q: %w", t.text, err)
		}
		return &Literal{Val: i}, nil
	case tokString:
		p.next()
		return &Literal{Val: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case tokIdent:
		switch strings.ToLower(t.text) {
		case "null":
			p.next()
			return &Literal{Val: nil}, nil
		case "true":
			p.next()
			return &Literal{Val: true}, nil
		case "false":
			p.next()
			return &Literal{Val: false}, nil
		}
		if !isReserved(t.text) {
			return p.parseColumnRefExpr()
		}
	}
	return nil, fmt.Errorf("sqlparse: unexpected token %s in expression", t)
}

func (p *parser) parseColumnRefExpr() (Expr, error) {
	ref, err := p.parseColumnRef()
	if err != nil {
		return nil, err
	}
	return ref, nil
}

func (p *parser) parseColumnRef() (*ColumnRef, error) {
	t := p.next()
	if t.kind != tokIdent || isReserved(t.text) {
		return nil, fmt.Errorf("sqlparse: expected column reference, got %s", t)
	}
	ref := &ColumnRef{Name: t.text}
	if p.acceptSymbol(".") {
		t2 := p.next()
		if t2.kind != tokIdent {
			return nil, fmt.Errorf("sqlparse: expected column after %q., got %s", t.text, t2)
		}
		ref.Qualifier = t.text
		ref.Name = t2.text
	}
	return ref, nil
}
