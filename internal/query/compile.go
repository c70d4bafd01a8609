package query

import (
	"fmt"
	"strings"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// Expression compilation: a one-time compile(expr, relation) pass that
// resolves every ColumnRef to a column index (binding the column's typed
// storage through relation.Accessor), every literal to a typed constant,
// every LIKE pattern to its cached regexp, and every IN list to
// pre-evaluated members. The result is a closure evaluated per row id —
// zero string lookups, zero Tuple materialization, zero fmt work on the
// per-row path. Comparisons against homogeneous typed columns compile to
// specialized closures over the raw arrays.

// scalarFn evaluates a compiled scalar expression at one row of the
// relation it was compiled against.
type scalarFn func(i int) (relation.Value, error)

// predFn evaluates a compiled predicate at one row.
type predFn func(i int) (bool, error)

// compileScalar compiles a scalar expression against r's schema and storage.
func (ev *evaluator) compileScalar(e sqlparse.Expr, r *relation.Relation) (scalarFn, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		var c relation.Value
		switch v := x.Val.(type) {
		case nil:
			c = relation.Null()
		case string:
			c = relation.String(v)
		case int64:
			c = relation.Int(v)
		case float64:
			c = relation.Float(v)
		case bool:
			c = relation.Bool(v)
		default:
			return nil, fmt.Errorf("query: unsupported literal %T", x.Val)
		}
		return func(int) (relation.Value, error) { return c, nil }, nil
	case *sqlparse.ColumnRef:
		j, err := r.Schema.Index(x.String())
		if err != nil {
			return nil, err
		}
		acc := r.Accessor(j)
		return func(i int) (relation.Value, error) { return acc(i), nil }, nil
	case *sqlparse.UnaryExpr:
		if x.Op == "-" {
			sub, err := ev.compileScalar(x.Expr, r)
			if err != nil {
				return nil, err
			}
			return func(i int) (relation.Value, error) {
				v, err := sub(i)
				if err != nil || v.IsNull() {
					return relation.Null(), err
				}
				f, ok := v.AsFloat()
				if !ok {
					return relation.Null(), fmt.Errorf("query: cannot negate %v", v)
				}
				if v.Kind() == relation.KindInt {
					return relation.Int(-v.IntVal()), nil
				}
				return relation.Float(-f), nil
			}, nil
		}
		// Boolean NOT used in scalar position.
		return ev.predAsScalar(x, r)
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return ev.compileArith(x, r)
		default:
			return ev.predAsScalar(x, r)
		}
	case *sqlparse.InExpr, *sqlparse.LikeExpr, *sqlparse.IsNullExpr:
		return ev.predAsScalar(e, r)
	default:
		return nil, fmt.Errorf("query: unsupported expression %T", e)
	}
}

// predAsScalar wraps a compiled predicate into a BOOL-valued scalar.
func (ev *evaluator) predAsScalar(e sqlparse.Expr, r *relation.Relation) (scalarFn, error) {
	p, err := ev.compilePred(e, r)
	if err != nil {
		return nil, err
	}
	return func(i int) (relation.Value, error) {
		b, err := p(i)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Bool(b), nil
	}, nil
}

func (ev *evaluator) compileArith(x *sqlparse.BinaryExpr, r *relation.Relation) (scalarFn, error) {
	lf, err := ev.compileScalar(x.Left, r)
	if err != nil {
		return nil, err
	}
	rf, err := ev.compileScalar(x.Right, r)
	if err != nil {
		return nil, err
	}
	op := x.Op
	return func(i int) (relation.Value, error) {
		l, err := lf(i)
		if err != nil {
			return relation.Null(), err
		}
		rv, err := rf(i)
		if err != nil {
			return relation.Null(), err
		}
		if l.IsNull() || rv.IsNull() {
			return relation.Null(), nil
		}
		la, lok := l.AsFloat()
		ra, rok := rv.AsFloat()
		if !lok || !rok {
			return relation.Null(), fmt.Errorf("query: non-numeric operands for %s: %v, %v", op, l, rv)
		}
		bothInt := l.Kind() == relation.KindInt && rv.Kind() == relation.KindInt
		switch op {
		case "+":
			if bothInt {
				return relation.Int(l.IntVal() + rv.IntVal()), nil
			}
			return relation.Float(la + ra), nil
		case "-":
			if bothInt {
				return relation.Int(l.IntVal() - rv.IntVal()), nil
			}
			return relation.Float(la - ra), nil
		case "*":
			if bothInt {
				return relation.Int(l.IntVal() * rv.IntVal()), nil
			}
			return relation.Float(la * ra), nil
		case "/":
			if ra == 0 {
				return relation.Null(), nil
			}
			return relation.Float(la / ra), nil
		}
		return relation.Null(), fmt.Errorf("query: unknown arithmetic op %q", op)
	}, nil
}

// cmpOK reports whether comparison outcome c satisfies op.
func cmpOK(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// compilePred compiles a predicate with the same SQL-ish semantics as the
// reference evaluator (NULL comparisons are false).
func (ev *evaluator) compilePred(e sqlparse.Expr, r *relation.Relation) (predFn, error) {
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND":
			l, err := ev.compilePred(x.Left, r)
			if err != nil {
				return nil, err
			}
			rp, err := ev.compilePred(x.Right, r)
			if err != nil {
				return nil, err
			}
			return func(i int) (bool, error) {
				b, err := l(i)
				if err != nil || !b {
					return false, err
				}
				return rp(i)
			}, nil
		case "OR":
			l, err := ev.compilePred(x.Left, r)
			if err != nil {
				return nil, err
			}
			rp, err := ev.compilePred(x.Right, r)
			if err != nil {
				return nil, err
			}
			return func(i int) (bool, error) {
				b, err := l(i)
				if err != nil || b {
					return b, err
				}
				return rp(i)
			}, nil
		case "=", "<>", "<", "<=", ">", ">=":
			if p, ok, err := ev.compileCmpFast(x, r); err != nil {
				return nil, err
			} else if ok {
				return p, nil
			}
			lf, err := ev.compileScalar(x.Left, r)
			if err != nil {
				return nil, err
			}
			rf, err := ev.compileScalar(x.Right, r)
			if err != nil {
				return nil, err
			}
			op := x.Op
			return func(i int) (bool, error) {
				l, err := lf(i)
				if err != nil {
					return false, err
				}
				rv, err := rf(i)
				if err != nil {
					return false, err
				}
				if l.IsNull() || rv.IsNull() {
					return false, nil
				}
				c, ok := l.Compare(rv)
				if !ok {
					// Incomparable values are unequal rather than an error:
					// heterogeneous columns are routine in dirty data.
					return op == "<>", nil
				}
				return cmpOK(op, c), nil
			}, nil
		}
		return nil, fmt.Errorf("query: unsupported boolean op %q", x.Op)
	case *sqlparse.UnaryExpr:
		if x.Op != "NOT" {
			return nil, fmt.Errorf("query: %q is not a predicate", x.Op)
		}
		p, err := ev.compilePred(x.Expr, r)
		if err != nil {
			return nil, err
		}
		return func(i int) (bool, error) {
			b, err := p(i)
			return !b, err
		}, nil
	case *sqlparse.IsNullExpr:
		s, err := ev.compileScalar(x.Expr, r)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return func(i int) (bool, error) {
			v, err := s(i)
			if err != nil {
				return false, err
			}
			return v.IsNull() != negate, nil
		}, nil
	case *sqlparse.LikeExpr:
		return ev.compileLike(x, r)
	case *sqlparse.InExpr:
		return ev.compileIn(x, r)
	case *sqlparse.Literal:
		if b, ok := x.Val.(bool); ok {
			return func(int) (bool, error) { return b, nil }, nil
		}
		return nil, fmt.Errorf("query: literal %v is not a predicate", x.Val)
	case *sqlparse.ColumnRef:
		s, err := ev.compileScalar(x, r)
		if err != nil {
			return nil, err
		}
		return func(i int) (bool, error) {
			v, err := s(i)
			if err != nil {
				return false, err
			}
			return v.Kind() == relation.KindBool && v.BoolVal(), nil
		}, nil
	default:
		return nil, fmt.Errorf("query: unsupported predicate %T", e)
	}
}

// litAndCol normalizes a comparison into (column ref, literal, op with the
// column on the left), when the expression has that shape.
func litAndCol(x *sqlparse.BinaryExpr) (*sqlparse.ColumnRef, *sqlparse.Literal, string, bool) {
	if ref, ok := x.Left.(*sqlparse.ColumnRef); ok {
		if lit, ok := x.Right.(*sqlparse.Literal); ok {
			return ref, lit, x.Op, true
		}
	}
	if ref, ok := x.Right.(*sqlparse.ColumnRef); ok {
		if lit, ok := x.Left.(*sqlparse.Literal); ok {
			// Flip the operator so the column reads as the left operand.
			flip := map[string]string{"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
			return ref, lit, flip[x.Op], true
		}
	}
	return nil, nil, "", false
}

// compileCmpFast specializes column-vs-literal comparisons over homogeneous
// typed columns: the closure reads the raw array, compares without boxing,
// and NULL bits short-circuit to false. Returns ok=false when the shape or
// storage does not qualify (the generic closure then applies).
func (ev *evaluator) compileCmpFast(x *sqlparse.BinaryExpr, r *relation.Relation) (predFn, bool, error) {
	ref, lit, op, ok := litAndCol(x)
	if !ok {
		return nil, false, nil
	}
	j, err := r.Schema.Index(ref.String())
	if err != nil {
		return nil, false, err
	}
	switch litV := lit.Val.(type) {
	case int64, float64:
		var f float64
		if iv, ok := litV.(int64); ok {
			f = float64(iv)
		} else {
			f = litV.(float64)
		}
		// Numeric columns compare through float64 exactly like Value.Compare.
		if ic, ok := bindIntCol(r, j); ok {
			return func(i int) (bool, error) {
				v, null := ic.at(i)
				if null {
					return false, nil
				}
				return cmpFloat(op, float64(v), f), nil
			}, true, nil
		}
		if fc, ok := bindFloatCol(r, j); ok {
			return func(i int) (bool, error) {
				v, null := fc.at(i)
				if null {
					return false, nil
				}
				return cmpFloat(op, v, f), nil
			}, true, nil
		}
	case string:
		sc, ok := bindStrCol(r, j)
		if !ok {
			return nil, false, nil
		}
		switch op {
		case "=", "<>":
			// String equality is code equality within one dictionary; a
			// literal absent from the dictionary matches no cell.
			code, present := r.Dict().Lookup(litV)
			neq := op == "<>"
			return func(i int) (bool, error) {
				c, null := sc.at(i)
				if null {
					return false, nil
				}
				return (present && c == code) != neq, nil
			}, true, nil
		default:
			strs := r.Dict().Strings()
			return func(i int) (bool, error) {
				c, null := sc.at(i)
				if null {
					return false, nil
				}
				return cmpOK(op, strings.Compare(strs[c], litV)), nil
			}, true, nil
		}
	}
	return nil, false, nil
}

func cmpFloat(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// compileLike compiles a LIKE predicate: the pattern regexp is built once
// (cached across compilations), and matches against a homogeneous string
// column are memoized per dictionary code — each distinct string is matched
// at most once per compiled predicate.
func (ev *evaluator) compileLike(x *sqlparse.LikeExpr, r *relation.Relation) (predFn, error) {
	re, err := ev.likePattern(x.Pattern)
	if err != nil {
		return nil, err
	}
	negate := x.Negate
	if ref, ok := x.Expr.(*sqlparse.ColumnRef); ok {
		if j, err := r.Schema.Index(ref.String()); err == nil {
			if sc, ok := bindStrCol(r, j); ok {
				strs := r.Dict().Strings()
				memo := make([]uint8, len(strs)) // 0 unknown, 1 match, 2 no match
				return func(i int) (bool, error) {
					code, null := sc.at(i)
					if null {
						return false, nil
					}
					m := memo[code]
					if m == 0 {
						if re.MatchString(strs[code]) {
							m = 1
						} else {
							m = 2
						}
						memo[code] = m
					}
					return (m == 1) != negate, nil
				}, nil
			}
		}
	}
	s, err := ev.compileScalar(x.Expr, r)
	if err != nil {
		return nil, err
	}
	return func(i int) (bool, error) {
		v, err := s(i)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		return re.MatchString(v.String()) != negate, nil
	}, nil
}

// inSet is a compiled, code-keyed IN-subquery member set: packed cell keys
// encoded against the subquery result's dictionary.
type inSet struct {
	dict *relation.Dict
	keys map[relation.CellKey]struct{}
}

// compileIn compiles IN over a literal list (per-row Equal against
// pre-compiled items, preserving the reference engine's numeric-coercion
// semantics) or a subquery (membership on packed cell keys; the subquery
// runs at most once per evaluator, on first probe).
func (ev *evaluator) compileIn(x *sqlparse.InExpr, r *relation.Relation) (predFn, error) {
	s, err := ev.compileScalar(x.Expr, r)
	if err != nil {
		return nil, err
	}
	negate := x.Negate
	if x.Sub != nil {
		return func(i int) (bool, error) {
			v, err := s(i)
			if err != nil {
				return false, err
			}
			if v.IsNull() {
				return false, nil
			}
			set, err := ev.inSubquerySet(x)
			if err != nil {
				return false, err
			}
			_, member := set.keys[relation.CellKeyOf(v, set.dict)]
			return member != negate, nil
		}, nil
	}
	items := make([]scalarFn, len(x.List))
	for k, item := range x.List {
		items[k], err = ev.compileScalar(item, r)
		if err != nil {
			return nil, err
		}
	}
	return func(i int) (bool, error) {
		v, err := s(i)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		member := false
		for _, item := range items {
			iv, err := item(i)
			if err != nil {
				return false, err
			}
			if v.Equal(iv) {
				member = true
				break
			}
		}
		return member != negate, nil
	}, nil
}

// inSubquerySet runs an uncorrelated IN-subquery once and caches its result
// as a packed-key set. Evaluation is lazy — a subquery under a filter that
// never probes it never runs, matching the reference engine.
func (ev *evaluator) inSubquerySet(x *sqlparse.InExpr) (*inSet, error) {
	if set, ok := ev.inCache[x]; ok {
		return set, nil
	}
	subRel, err := Run(x.Sub, ev.db)
	if err != nil {
		return nil, fmt.Errorf("query: evaluating IN subquery: %w", err)
	}
	if subRel.Schema.Len() != 1 {
		return nil, fmt.Errorf("query: IN subquery must return one column, got %d", subRel.Schema.Len())
	}
	set := &inSet{dict: subRel.Dict(), keys: make(map[relation.CellKey]struct{}, subRel.Len())}
	keys := subRel.ColumnCellKeys(nil, 0, set.dict)
	for _, k := range keys {
		if !k.IsNull() {
			set.keys[k] = struct{}{}
		}
	}
	ev.inCache[x] = set
	return set, nil
}
