package query

import (
	"fmt"

	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

// This file preserves the row-at-a-time evaluator the compiled engine
// replaced (the same role linkagetest.SimilaritiesPairwise plays for the
// linkage stage): every operator materializes Tuples, resolves column
// references by string per row, and hashes join / DISTINCT / GROUP BY keys
// through Tuple.Key strings. It is the ground truth the equivalence
// property tests compare the compiled, selection-vector engine against, and
// the baseline the query benchmarks measure speedups over. It lives in a
// test file so it never ships in the library.

// refEvaluator is the reference engine's evaluator: the compiled engine's
// evaluator (database and LIKE cache) plus a string-keyed cache so each
// uncorrelated IN-subquery runs once on the reference engine.
type refEvaluator struct {
	*evaluator
	subCache map[*sqlparse.InExpr]map[string]bool
}

func newRefEvaluator(db *relation.Database) *refEvaluator {
	return &refEvaluator{evaluator: newEvaluator(db), subCache: make(map[*sqlparse.InExpr]map[string]bool)}
}

// RunReference evaluates a SELECT with the row-at-a-time reference engine.
func RunReference(sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	ev := newRefEvaluator(db)
	src, err := refBuildSource(ev, sel, db)
	if err != nil {
		return nil, err
	}
	return refProject(ev, sel, src)
}

// ExtractReference computes the provenance relation of Definition 2.3 with
// the reference engine; see Extract.
func ExtractReference(sel *sqlparse.Select, db *relation.Database) (*Provenance, error) {
	if len(sel.GroupBy) > 0 {
		return nil, fmt.Errorf("query: provenance extraction does not support GROUP BY queries: %s", sel.String())
	}
	ev := newRefEvaluator(db)
	src, err := refBuildSource(ev, sel, db)
	if err != nil {
		return nil, err
	}
	agg, aggItem, err := provenanceAggregate(sel)
	if err != nil {
		return nil, err
	}

	p := relation.NewFromSchema("P", src.Schema.Concat(relation.NewSchema(ImpactColumn)), src.Dict())
	var row relation.Tuple
	rec := make(relation.Tuple, src.Schema.Len()+1)
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		var impact relation.Value
		switch {
		case aggItem == nil, aggItem.Star, agg == sqlparse.AggCount && aggItem.Star:
			impact = relation.Int(1)
		default:
			v, err := ev.evalScalar(aggItem.Expr, src.Schema, row)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue // contributes nothing to the aggregate
			}
			if agg == sqlparse.AggCount {
				impact = relation.Int(1)
			} else {
				if _, ok := v.AsFloat(); !ok {
					return nil, fmt.Errorf("query: impact of %s must be numeric, got %v", aggItem, v)
				}
				impact = v
			}
		}
		rec = rec[:0]
		rec = append(rec, row...)
		rec = append(rec, impact)
		p.AppendRow(rec)
	}

	prov := &Provenance{Query: sel, Agg: agg, Rel: p}
	if err := finishProvenance(prov, aggItem, db); err != nil {
		return nil, err
	}
	return prov, nil
}

// refBuildSource materializes σ_c(X) with row-at-a-time filters and joins.
func refBuildSource(ev *refEvaluator, sel *sqlparse.Select, db *relation.Database) (*relation.Relation, error) {
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("query: empty FROM clause")
	}
	pending := splitConjuncts(sel.Where)
	applied := make([]bool, len(pending))

	cur, err := refLoadRef(ev, sel.From[0], db)
	if err != nil {
		return nil, err
	}
	if cur, err = refApplyResolvable(ev, cur, pending, applied); err != nil {
		return nil, err
	}

	for _, ref := range sel.From[1:] {
		next, err := refLoadRef(ev, ref, db)
		if err != nil {
			return nil, err
		}
		if next, err = refApplyResolvable(ev, next, pending, applied); err != nil {
			return nil, err
		}
		joined := cur.Schema.Concat(next.Schema)
		var conds []sqlparse.Expr
		conds = append(conds, splitConjuncts(ref.On)...)
		for i, c := range pending {
			if applied[i] {
				continue
			}
			if !resolvable(c, cur.Schema) && !resolvable(c, next.Schema) && resolvable(c, joined) {
				conds = append(conds, c)
				applied[i] = true
			}
		}
		cur, err = refJoin(ev, cur, next, conds)
		if err != nil {
			return nil, err
		}
		if cur, err = refApplyResolvable(ev, cur, pending, applied); err != nil {
			return nil, err
		}
	}
	for i, c := range pending {
		if !applied[i] {
			return nil, fmt.Errorf("query: WHERE conjunct %s references unknown columns (schema %s)", c.String(), cur.Schema)
		}
	}
	return cur, nil
}

func refApplyResolvable(ev *refEvaluator, cur *relation.Relation, pending []sqlparse.Expr, applied []bool) (*relation.Relation, error) {
	for i, c := range pending {
		if applied[i] || !resolvable(c, cur.Schema) {
			continue
		}
		filtered, err := refFilter(ev, cur, c)
		if err != nil {
			return nil, err
		}
		cur = filtered
		applied[i] = true
	}
	return cur, nil
}

func refLoadRef(ev *refEvaluator, ref *sqlparse.TableRef, db *relation.Database) (*relation.Relation, error) {
	var rel *relation.Relation
	if ref.Sub != nil {
		sub, err := RunReference(ref.Sub, db)
		if err != nil {
			return nil, err
		}
		rel = sub
	} else {
		base, err := db.Relation(ref.Table)
		if err != nil {
			return nil, err
		}
		rel = base
	}
	return rel.WithSchema(ref.Alias, rel.Schema.WithQualifier(ref.Alias)), nil
}

func refFilter(ev *refEvaluator, r *relation.Relation, pred sqlparse.Expr) (*relation.Relation, error) {
	var keep []int
	var buf relation.Tuple
	for i := 0; i < r.Len(); i++ {
		buf = r.RowInto(buf, i)
		ok, err := ev.evalPred(pred, r.Schema, buf)
		if err != nil {
			return nil, err
		}
		if ok {
			keep = append(keep, i)
		}
	}
	return r.Select(keep), nil
}

// refJoin combines two relations row-at-a-time: right-side tuples are
// materialized and indexed by Tuple.Key strings, candidate pairs are boxed
// into combined Tuples and appended cell by cell.
func refJoin(ev *refEvaluator, left, right *relation.Relation, conds []sqlparse.Expr) (*relation.Relation, error) {
	out := relation.NewFromSchema(left.Name+"⋈"+right.Name, left.Schema.Concat(right.Schema), left.Dict())
	var hashL, hashR []int
	var rest []sqlparse.Expr
	for _, c := range conds {
		li, ri, ok := equiJoinCols(c, left.Schema, right.Schema)
		if ok {
			hashL = append(hashL, li)
			hashR = append(hashR, ri)
		} else {
			rest = append(rest, c)
		}
	}
	combined := func(l, r relation.Tuple) relation.Tuple {
		row := make(relation.Tuple, 0, len(l)+len(r))
		row = append(row, l...)
		row = append(row, r...)
		return row
	}
	emit := func(l, r relation.Tuple) (bool, error) {
		row := combined(l, r)
		for _, c := range rest {
			ok, err := ev.evalPred(c, out.Schema, row)
			if err != nil {
				return false, err
			}
			if !ok {
				return false, nil
			}
		}
		out.AppendRow(row)
		return true, nil
	}
	rightRows := right.Tuples()
	var l relation.Tuple
	if len(hashL) > 0 {
		// Hash join on the equality columns; NULL keys never match.
		index := make(map[string][]relation.Tuple, len(rightRows))
		for _, r := range rightRows {
			if hasNull(r, hashR) {
				continue
			}
			k := r.Key(hashR)
			index[k] = append(index[k], r)
		}
		for i := 0; i < left.Len(); i++ {
			l = left.RowInto(l, i)
			if hasNull(l, hashL) {
				continue
			}
			for _, r := range index[l.Key(hashL)] {
				if _, err := emit(l, r); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	// Cross product fallback.
	for i := 0; i < left.Len(); i++ {
		l = left.RowInto(l, i)
		for _, r := range rightRows {
			if _, err := emit(l, r); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func hasNull(row relation.Tuple, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

func refProject(ev *refEvaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	hasAgg := false
	for _, it := range sel.Items {
		if it.Agg != sqlparse.AggNone {
			hasAgg = true
		}
	}
	if len(sel.GroupBy) > 0 {
		return refGroupProject(ev, sel, src)
	}
	if hasAgg {
		return refAggregateProject(ev, sel, src)
	}
	return refPlainProject(ev, sel, src)
}

func refPlainProject(ev *refEvaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		names[i] = itemName(it, i)
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	seen := make(map[string]bool)
	keyIdx := make([]int, len(sel.Items))
	for i := range keyIdx {
		keyIdx[i] = i
	}
	var row relation.Tuple
	rec := make(relation.Tuple, len(sel.Items))
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		for i, it := range sel.Items {
			v, err := ev.evalScalar(it.Expr, src.Schema, row)
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		if sel.Distinct {
			k := rec.Key(keyIdx)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		out.AppendRow(rec)
	}
	return out, nil
}

func refAggregateProject(ev *refEvaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	names := make([]string, len(sel.Items))
	states := make([]*aggState, len(sel.Items))
	for i, it := range sel.Items {
		if it.Agg == sqlparse.AggNone {
			return nil, fmt.Errorf("query: mixing aggregates and plain columns requires GROUP BY: %s", it)
		}
		names[i] = itemName(it, i)
		states[i] = newAggState(it.Agg)
	}
	var row relation.Tuple
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		for i, it := range sel.Items {
			var v relation.Value
			if it.Star {
				v = relation.Int(1)
			} else {
				var err error
				v, err = ev.evalScalar(it.Expr, src.Schema, row)
				if err != nil {
					return nil, err
				}
			}
			if err := states[i].add(v); err != nil {
				return nil, err
			}
		}
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	rec := make(relation.Tuple, len(states))
	for i, st := range states {
		rec[i] = st.result()
	}
	out.AppendRow(rec)
	return out, nil
}

func refGroupProject(ev *refEvaluator, sel *sqlparse.Select, src *relation.Relation) (*relation.Relation, error) {
	gIdx, err := groupIndexes(sel, src)
	if err != nil {
		return nil, err
	}
	type group struct {
		first  relation.Tuple
		states []*aggState
	}
	groups := make(map[string]*group)
	var order []string
	var row relation.Tuple
	for r := 0; r < src.Len(); r++ {
		row = src.RowInto(row, r)
		k := row.Key(gIdx)
		g, ok := groups[k]
		if !ok {
			// Only each group's first row is retained — clone it out of the
			// reused buffer.
			g = &group{first: row.Clone(), states: make([]*aggState, len(sel.Items))}
			for i, it := range sel.Items {
				if it.Agg != sqlparse.AggNone {
					g.states[i] = newAggState(it.Agg)
				}
			}
			groups[k] = g
			order = append(order, k)
		}
		for i, it := range sel.Items {
			if it.Agg == sqlparse.AggNone {
				continue
			}
			var v relation.Value
			if it.Star {
				v = relation.Int(1)
			} else {
				var err error
				v, err = ev.evalScalar(it.Expr, src.Schema, row)
				if err != nil {
					return nil, err
				}
			}
			if err := g.states[i].add(v); err != nil {
				return nil, err
			}
		}
	}
	names := make([]string, len(sel.Items))
	for i, it := range sel.Items {
		names[i] = itemName(it, i)
	}
	out := relation.NewWithDict(src.Dict(), "", names...)
	rec := make(relation.Tuple, len(sel.Items))
	for _, k := range order {
		g := groups[k]
		for i, it := range sel.Items {
			if it.Agg != sqlparse.AggNone {
				rec[i] = g.states[i].result()
				continue
			}
			v, err := ev.evalScalar(it.Expr, src.Schema, g.first)
			if err != nil {
				return nil, err
			}
			rec[i] = v
		}
		out.AppendRow(rec)
	}
	return out, nil
}

// evalScalar evaluates a scalar expression against one row.
func (ev *refEvaluator) evalScalar(e sqlparse.Expr, sch *relation.Schema, row relation.Tuple) (relation.Value, error) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		switch v := x.Val.(type) {
		case nil:
			return relation.Null(), nil
		case string:
			return relation.String(v), nil
		case int64:
			return relation.Int(v), nil
		case float64:
			return relation.Float(v), nil
		case bool:
			return relation.Bool(v), nil
		default:
			return relation.Null(), fmt.Errorf("query: unsupported literal %T", x.Val)
		}
	case *sqlparse.ColumnRef:
		i, err := sch.Index(x.String())
		if err != nil {
			return relation.Null(), err
		}
		return row[i], nil
	case *sqlparse.UnaryExpr:
		if x.Op == "-" {
			v, err := ev.evalScalar(x.Expr, sch, row)
			if err != nil {
				return relation.Null(), err
			}
			if v.IsNull() {
				return relation.Null(), nil
			}
			f, ok := v.AsFloat()
			if !ok {
				return relation.Null(), fmt.Errorf("query: cannot negate %v", v)
			}
			if v.Kind() == relation.KindInt {
				return relation.Int(-v.IntVal()), nil
			}
			return relation.Float(-f), nil
		}
		// Boolean NOT used in scalar position.
		b, err := ev.evalPred(x, sch, row)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Bool(b), nil
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return ev.evalArith(x, sch, row)
		default:
			b, err := ev.evalPred(x, sch, row)
			if err != nil {
				return relation.Null(), err
			}
			return relation.Bool(b), nil
		}
	case *sqlparse.InExpr, *sqlparse.LikeExpr, *sqlparse.IsNullExpr:
		b, err := ev.evalPred(e, sch, row)
		if err != nil {
			return relation.Null(), err
		}
		return relation.Bool(b), nil
	default:
		return relation.Null(), fmt.Errorf("query: unsupported expression %T", e)
	}
}

func (ev *refEvaluator) evalArith(x *sqlparse.BinaryExpr, sch *relation.Schema, row relation.Tuple) (relation.Value, error) {
	l, err := ev.evalScalar(x.Left, sch, row)
	if err != nil {
		return relation.Null(), err
	}
	r, err := ev.evalScalar(x.Right, sch, row)
	if err != nil {
		return relation.Null(), err
	}
	if l.IsNull() || r.IsNull() {
		return relation.Null(), nil
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return relation.Null(), fmt.Errorf("query: non-numeric operands for %s: %v, %v", x.Op, l, r)
	}
	bothInt := l.Kind() == relation.KindInt && r.Kind() == relation.KindInt
	switch x.Op {
	case "+":
		if bothInt {
			return relation.Int(l.IntVal() + r.IntVal()), nil
		}
		return relation.Float(lf + rf), nil
	case "-":
		if bothInt {
			return relation.Int(l.IntVal() - r.IntVal()), nil
		}
		return relation.Float(lf - rf), nil
	case "*":
		if bothInt {
			return relation.Int(l.IntVal() * r.IntVal()), nil
		}
		return relation.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return relation.Null(), nil
		}
		return relation.Float(lf / rf), nil
	}
	return relation.Null(), fmt.Errorf("query: unknown arithmetic op %q", x.Op)
}

// evalPred evaluates a predicate with SQL-ish semantics where NULL
// comparisons are false.
func (ev *refEvaluator) evalPred(e sqlparse.Expr, sch *relation.Schema, row relation.Tuple) (bool, error) {
	switch x := e.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND":
			l, err := ev.evalPred(x.Left, sch, row)
			if err != nil {
				return false, err
			}
			if !l {
				return false, nil
			}
			return ev.evalPred(x.Right, sch, row)
		case "OR":
			l, err := ev.evalPred(x.Left, sch, row)
			if err != nil {
				return false, err
			}
			if l {
				return true, nil
			}
			return ev.evalPred(x.Right, sch, row)
		case "=", "<>", "<", "<=", ">", ">=":
			l, err := ev.evalScalar(x.Left, sch, row)
			if err != nil {
				return false, err
			}
			r, err := ev.evalScalar(x.Right, sch, row)
			if err != nil {
				return false, err
			}
			if l.IsNull() || r.IsNull() {
				return false, nil
			}
			c, ok := l.Compare(r)
			if !ok {
				// Incomparable values are unequal rather than an error:
				// heterogeneous columns are routine in dirty data.
				return x.Op == "<>", nil
			}
			switch x.Op {
			case "=":
				return c == 0, nil
			case "<>":
				return c != 0, nil
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			case ">=":
				return c >= 0, nil
			}
		}
		return false, fmt.Errorf("query: unsupported boolean op %q", x.Op)
	case *sqlparse.UnaryExpr:
		if x.Op != "NOT" {
			return false, fmt.Errorf("query: %q is not a predicate", x.Op)
		}
		b, err := ev.evalPred(x.Expr, sch, row)
		return !b, err
	case *sqlparse.IsNullExpr:
		v, err := ev.evalScalar(x.Expr, sch, row)
		if err != nil {
			return false, err
		}
		if x.Negate {
			return !v.IsNull(), nil
		}
		return v.IsNull(), nil
	case *sqlparse.LikeExpr:
		v, err := ev.evalScalar(x.Expr, sch, row)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return false, nil
		}
		re, err := ev.likePattern(x.Pattern)
		if err != nil {
			return false, err
		}
		m := re.MatchString(v.String())
		if x.Negate {
			return !m, nil
		}
		return m, nil
	case *sqlparse.InExpr:
		return ev.evalIn(x, sch, row)
	case *sqlparse.Literal:
		if b, ok := x.Val.(bool); ok {
			return b, nil
		}
		return false, fmt.Errorf("query: literal %v is not a predicate", x.Val)
	case *sqlparse.ColumnRef:
		v, err := ev.evalScalar(x, sch, row)
		if err != nil {
			return false, err
		}
		return v.Kind() == relation.KindBool && v.BoolVal(), nil
	default:
		return false, fmt.Errorf("query: unsupported predicate %T", e)
	}
}

func (ev *refEvaluator) evalIn(x *sqlparse.InExpr, sch *relation.Schema, row relation.Tuple) (bool, error) {
	v, err := ev.evalScalar(x.Expr, sch, row)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	var member bool
	if x.Sub != nil {
		set, ok := ev.subCache[x]
		if !ok {
			subRel, err := RunReference(x.Sub, ev.db)
			if err != nil {
				return false, fmt.Errorf("query: evaluating IN subquery: %w", err)
			}
			if subRel.Schema.Len() != 1 {
				return false, fmt.Errorf("query: IN subquery must return one column, got %d", subRel.Schema.Len())
			}
			set = make(map[string]bool, subRel.Len())
			for i := 0; i < subRel.Len(); i++ {
				if v := subRel.At(i, 0); !v.IsNull() {
					set[v.Key()] = true
				}
			}
			ev.subCache[x] = set
		}
		member = set[v.Key()]
	} else {
		for _, item := range x.List {
			iv, err := ev.evalScalar(item, sch, row)
			if err != nil {
				return false, err
			}
			if v.Equal(iv) {
				member = true
				break
			}
		}
	}
	if x.Negate {
		return !member, nil
	}
	return member, nil
}
