package core

import (
	"context"
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/linkage/linkagetest"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// mustMatching parses an attribute matching or fails the test.
func mustMatching(t *testing.T, spec string) schemamap.Matching {
	t.Helper()
	m, err := schemamap.ParseAll(spec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runEquivalence runs the full pipeline on the same input with the columnar
// inverted-index Stage 1 at each worker count, and solves the tuple mapping
// produced by the pairwise reference implementation, demanding identical
// matches, explanations, and evidence.
func runEquivalence(t *testing.T, in Input, p Params) {
	t.Helper()
	// Reference Stage 1: pairwise candidate generation over the same
	// virtual columns the production path scores.
	pp, err := in.BuildPrefix(0)
	if err != nil {
		t.Fatal(err)
	}
	inst := pp.Stage1().Instance(in.Calibrator, in.MinProb)
	t1, t2 := inst.T1, inst.T2
	v1, err := VirtualColumns(t1, in.Mattr, true)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := VirtualColumns(t2, in.Mattr, false)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(in.Mattr))
	for i := range idx {
		idx[i] = i
	}
	popt := linkage.DefaultPairOptions()
	ref, err := linkagetest.SimilaritiesPairwise(v1, v2, idx, idx, popt)
	if err != nil {
		t.Fatal(err)
	}
	cal := in.Calibrator
	if cal == nil {
		cal = linkage.NewCalibrator(50)
	}
	refMatches := FilterMatches(linkage.Calibrate(ref, cal), 0.02)
	if !reflect.DeepEqual(inst.Matches, refMatches) {
		t.Fatalf("columnar Stage 1 diverged from the pairwise reference: %d vs %d matches",
			len(inst.Matches), len(refMatches))
	}

	var base *Explanations
	for _, workers := range []int{1, 2, 5} {
		p := p
		p.Workers = workers
		res, err := ExplainContext(context.Background(), in, p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res.Expl
			continue
		}
		if !reflect.DeepEqual(res.Expl, base) {
			t.Fatalf("workers=%d: explanations differ from workers=1", workers)
		}
	}

	// The reference mapping must also solve to the same explanations —
	// Stage 2 sees byte-identical input.
	refInst := &Instance{T1: t1, T2: t2, Matches: refMatches, Card: CardinalityOf(in.Mattr)}
	refExpl, _, err := SolveInstanceContext(context.Background(), refInst, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refExpl, base) {
		t.Fatal("explanations from the injected reference mapping differ")
	}
}

// TestColumnarEquivalenceQuickstart mirrors the README quick start: two
// tiny program catalogs counted two ways.
func TestColumnarEquivalenceQuickstart(t *testing.T) {
	db := fig1DB()
	in := Input{
		DB1:   db,
		DB2:   db,
		Q1:    sqlparse.MustParse("SELECT COUNT(Program) FROM D1"),
		Q2:    sqlparse.MustParse("SELECT COUNT(Major) FROM D2 WHERE Univ = 'A'"),
		Mattr: mustMatching(t, "D1.Program == D2.Major"),
	}
	runEquivalence(t, in, DefaultParams())
}

// TestColumnarEquivalenceAcademic runs an academic pair — the paper's
// Example 1 shape, with multi-token program names, mixed numeric columns,
// and real disagreements — through both Stage-1 implementations. The spec
// is a scaled-down UMassLike so the four full solves (three worker counts
// plus the injected reference mapping) stay fast in tier-1.
func TestColumnarEquivalenceAcademic(t *testing.T) {
	spec := datagen.AcademicSpec{
		Name:     "UMass",
		Matching: 30, MultiDegree: 10, TripleDegree: 3, MultiDegreeWrong: 6,
		MissingAssoc: 6, MissingOther: 5, AgencyOnly: 4,
		Renamed: 3, HardRenamed: 2, CorruptCounts: 3,
		Seed: 7,
	}
	pair := datagen.GenerateAcademic(spec)
	in := Input{
		DB1:   pair.DB1,
		DB2:   pair.DB2,
		Q1:    pair.Q1,
		Q2:    pair.Q2,
		Mattr: pair.Mattr,
	}
	p := DefaultParams()
	// Small batches keep every MILP sub-problem trivial: uncalibrated
	// similarities chain programs through shared words ("Science", ...)
	// into one large component, and this test is about Stage-1 equivalence,
	// not solver throughput.
	p.BatchSize = 16
	runEquivalence(t, in, p)
}
