package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"explain3d/internal/linkage"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// Input bundles everything explain3d needs: two databases, two
// semantically similar queries, and the attribute matches between them.
type Input struct {
	DB1, DB2 *relation.Database
	Q1, Q2   *sqlparse.Select
	Mattr    schemamap.Matching
	// Calibrator optionally converts similarities to probabilities
	// (Section 5.1.2); nil treats similarity as probability.
	Calibrator *linkage.Calibrator
	// MinProb drops initial matches below this probability (default 0.02).
	MinProb float64
	// PairOpts overrides the candidate-generation options for stage 1
	// (nil uses linkage.DefaultPairOptions).
	PairOpts *linkage.PairOptions
}

// Result is the full framework output.
type Result struct {
	Prov1, Prov2 *query.Provenance
	T1, T2       *Canonical
	Instance     *Instance
	Expl         *Explanations
	Stats        Stats
	// Stage1Time covers provenance, canonicalization, and mapping
	// generation (the paper reports it dominates total runtime).
	Stage1Time time.Duration
}

// ExplainContext runs the 3-stage framework end to end (Stage 3
// summarization is exposed separately via the summarize package, as the
// paper delegates it to existing tools): it builds the Stage-1 prefix fresh
// (Input.BuildPrefix) and explains it with ExplainPrefixContext and no
// solution cache — the same path a server takes on a cache miss.
// Cancelling ctx aborts the Stage-2 solve cooperatively, returning the
// incumbent explanations with Stats.TimedOut set (the same graceful
// degradation as an expired solver budget) rather than an error.
func ExplainContext(ctx context.Context, in Input, p Params) (*Result, error) {
	if !in.Mattr.Comparable() {
		return nil, fmt.Errorf("core: queries are not comparable (no attribute matches)")
	}
	// Validate up front: Stage 1 dominates runtime, so a bad parameter
	// must fail before it, not after.
	if err := p.withDefaults().validate(); err != nil {
		return nil, err
	}
	stage1 := time.Now()
	pp, err := in.BuildPrefix(p.Workers)
	if err != nil {
		return nil, err
	}
	prefixTime := time.Since(stage1)
	res, err := ExplainPrefixContext(ctx, pp, in.Calibrator, in.MinProb, p, nil)
	if err != nil {
		return nil, err
	}
	res.Stage1Time += prefixTime
	return res, nil
}

// RawSimilarities scores candidate tuple matches between the two canonical
// relations and returns them uncalibrated (Sim set, P unset) — the
// cacheable half of the initial mapping: calibration and probability
// filtering are cheap and parameter-dependent, so they run per request.
func RawSimilarities(t1, t2 *Canonical, mattr schemamap.Matching, popt linkage.PairOptions) ([]linkage.Match, error) {
	pi, err := BuildPairIndex(t2, mattr, popt)
	if err != nil {
		return nil, err
	}
	return pi.match(t1, mattr, popt.Workers)
}

// VirtualColumns builds one comparison column per attribute match: the
// side's attribute value (preserving numerics) or the concatenation when
// the match covers several attributes. The initial mapping scores these
// columns; baselines (R-Swoosh) score the same ones.
func VirtualColumns(c *Canonical, mattr schemamap.Matching, left bool) (*relation.Relation, error) {
	names := make([]string, len(mattr))
	for i := range mattr {
		names[i] = fmt.Sprintf("m%d", i)
	}
	out := relation.NewWithDict(c.Rel.Dict(), "", names...)
	colIdx := make([][]int, len(mattr))
	for i, am := range mattr {
		attrs := am.Right
		if left {
			attrs = am.Left
		}
		for _, a := range attrs {
			j, err := c.Rel.Schema.Index(a)
			if err != nil {
				return nil, fmt.Errorf("core: attribute match references %q missing from canonical relation: %w", a, err)
			}
			colIdx[i] = append(colIdx[i], j)
		}
	}
	var row relation.Tuple
	rec := make(relation.Tuple, len(mattr))
	for r := 0; r < c.Rel.Len(); r++ {
		row = c.Rel.RowInto(row, r)
		for i, cols := range colIdx {
			if len(cols) == 1 {
				rec[i] = row[cols[0]]
				continue
			}
			parts := make([]string, 0, len(cols))
			for _, j := range cols {
				if !row[j].IsNull() {
					parts = append(parts, row[j].String())
				}
			}
			rec[i] = relation.String(strings.Join(parts, " "))
		}
		out.AppendRow(rec)
	}
	return out, nil
}

// Describe renders an explanation in terms of canonical tuple keys, for
// CLI and example output.
func (r *Result) Describe(e *Explanations) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Result of Q1: %v  |  Result of Q2: %v\n", r.Prov1.Result, r.Prov2.Result)
	fmt.Fprintf(&b, "Provenance-based explanations (%d):\n", len(e.Prov))
	for _, pe := range e.Prov {
		key := r.T1.Keys
		impacts := r.T1.Impacts
		if pe.Side == Right {
			key = r.T2.Keys
			impacts = r.T2.Impacts
		}
		fmt.Fprintf(&b, "  [%s] %s (impact %v) has no counterpart\n", pe.Side, key[pe.Tuple], impacts[pe.Tuple])
	}
	fmt.Fprintf(&b, "Value-based explanations (%d):\n", len(e.Val))
	for _, ve := range e.Val {
		key := r.T1.Keys
		impacts := r.T1.Impacts
		if ve.Side == Right {
			key = r.T2.Keys
			impacts = r.T2.Impacts
		}
		fmt.Fprintf(&b, "  [%s] %s: impact %v ↦ %v\n", ve.Side, key[ve.Tuple], impacts[ve.Tuple], ve.NewImpact)
	}
	fmt.Fprintf(&b, "Evidence mapping (%d matches):\n", len(e.Evidence))
	for _, ev := range e.Evidence {
		fmt.Fprintf(&b, "  %s ↔ %s (p=%.2f)\n", r.T1.Keys[ev.L], r.T2.Keys[ev.R], ev.P)
	}
	return b.String()
}
