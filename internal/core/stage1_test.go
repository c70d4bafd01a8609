package core

import (
	"context"
	"reflect"
	"testing"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/sqlparse"
)

func academicInput(t *testing.T) Input {
	t.Helper()
	spec := datagen.AcademicSpec{
		Name:     "UMass",
		Matching: 30, MultiDegree: 10, TripleDegree: 3, MultiDegreeWrong: 6,
		MissingAssoc: 6, MissingOther: 5, AgencyOnly: 4,
		Renamed: 3, HardRenamed: 2, CorruptCounts: 3,
		Seed: 7,
	}
	pair := datagen.GenerateAcademic(spec)
	return Input{DB1: pair.DB1, DB2: pair.DB2, Q1: pair.Q1, Q2: pair.Q2, Mattr: pair.Mattr}
}

// concatInput is a pair whose single attribute match covers two attributes
// per side, so the comparison columns are concatenations.
func concatInput(t *testing.T) Input {
	t.Helper()
	db := relation.NewDatabase("concat")
	d1 := relation.New("D1", "Program", "Degree")
	for _, r := range [][2]string{
		{"Computer Science", "B.S."}, {"Computer Science", "B.A."},
		{"Electrical Engineering", "B.S."}, {"Applied Mathematics", "B.S."},
		{"Art History", "B.A."}, {"Music Theory", "B.M."},
		{"Mechanical Engineering", "M.S."},
	} {
		d1.Append(r[0], r[1])
	}
	db.Add(d1)
	d2 := relation.New("D2", "Major", "Level")
	for _, r := range [][2]string{
		{"Computer Science", "B.S."}, {"Computer Sciences", "B.A."},
		{"Electrical and Computer Engineering", "B.S."}, {"Mathematics Applied", "B.S."},
		{"History of Art", "B.A."}, {"Mechanical Engineering", "M.S."},
		{"Theatre", "B.F.A."},
	} {
		d2.Append(r[0], r[1])
	}
	db.Add(d2)
	return Input{
		DB1: db, DB2: db,
		Q1:    sqlparse.MustParse("SELECT COUNT(Program) FROM D1"),
		Q2:    sqlparse.MustParse("SELECT COUNT(Major) FROM D2"),
		Mattr: mustMatching(t, "D1.Program, D1.Degree == D2.Major, D2.Level"),
	}
}

// TestPrebuiltStage1Equivalence pins the serving contract: explaining a
// prefix assembled from prebuilt sides and one shared right-side candidate
// index (BuildPairIndex + BuildPairPrefixFrom + ExplainPrefixContext)
// produces the same raw matches, instance, and explanations as the
// one-shot ExplainContext — over single- and multi-attribute (concatenated)
// matchings, unsharded and sharded indexes, and a raised blocking
// threshold.
func TestPrebuiltStage1Equivalence(t *testing.T) {
	inputs := map[string]Input{"academic": academicInput(t), "concatenated": concatInput(t)}
	sharded := linkage.DefaultPairOptions()
	sharded.Shards = 4
	sharded.MinSharedTokens = 2
	popts := map[string]linkage.PairOptions{"default": linkage.DefaultPairOptions(), "shards4-min2": sharded}
	for _, iname := range []string{"academic", "concatenated"} {
		for _, oname := range []string{"default", "shards4-min2"} {
			t.Run(iname+"/"+oname, func(t *testing.T) {
				in := inputs[iname]
				popt := popts[oname]
				in.PairOpts = &popt
				p := DefaultParams()
				p.BatchSize = 16
				want, err := ExplainContext(context.Background(), in, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Instance.Matches) == 0 {
					t.Fatal("no candidate matches: the case does not exercise Stage 1")
				}
				s1, err := BuildSide(in.Q1, in.DB1, in.Mattr.LeftAttrs(), "Q1")
				if err != nil {
					t.Fatal(err)
				}
				s2, err := BuildSide(in.Q2, in.DB2, in.Mattr.RightAttrs(), "Q2")
				if err != nil {
					t.Fatal(err)
				}
				raw, err := RawSimilarities(s1.Canon, s2.Canon, in.Mattr, popt)
				if err != nil {
					t.Fatal(err)
				}
				pi, err := BuildPairIndex(s2.Canon, in.Mattr, popt)
				if err != nil {
					t.Fatal(err)
				}
				// Two prefixes scan the one shared index: a scan must leave it
				// answering exactly what a fresh index would.
				for scan := 0; scan < 2; scan++ {
					pp, err := BuildPairPrefixFrom(s1, s2, in.Mattr, pi, p.Workers)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(pp.Raw, raw) {
						t.Fatalf("scan %d: shared-index raw matches diverged: %d vs %d", scan, len(pp.Raw), len(raw))
					}
					got, err := ExplainPrefixContext(context.Background(), pp, nil, 0, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Instance.Matches, want.Instance.Matches) {
						t.Fatalf("scan %d: instance diverged: %d vs %d matches",
							scan, len(got.Instance.Matches), len(want.Instance.Matches))
					}
					if !reflect.DeepEqual(got.T1.Keys, want.T1.Keys) || !reflect.DeepEqual(got.T2.Keys, want.T2.Keys) {
						t.Fatalf("scan %d: canonical keys differ", scan)
					}
					if !reflect.DeepEqual(got.Expl, want.Expl) {
						t.Fatalf("scan %d: explanations differ", scan)
					}
				}
			})
		}
	}
}

// TestStage1InstanceReuse derives instances with different thresholds from
// one Stage-1 prefix and checks the prefix is not consumed or mutated.
func TestStage1InstanceReuse(t *testing.T) {
	in := academicInput(t)
	pp, err := in.BuildPrefix(0)
	if err != nil {
		t.Fatal(err)
	}
	s := pp.Stage1()
	rawLen := len(s.RawMatches)
	loose := s.Instance(nil, 0.02)
	tight := s.Instance(nil, 0.5)
	if len(s.RawMatches) != rawLen {
		t.Fatal("Instance mutated the Stage-1 prefix")
	}
	if len(tight.Matches) > len(loose.Matches) {
		t.Fatalf("tighter threshold kept more matches: %d > %d", len(tight.Matches), len(loose.Matches))
	}
	for _, m := range tight.Matches {
		if m.P < 0.5 {
			t.Fatalf("minProb=0.5 instance kept match with P=%v", m.P)
		}
	}
	again := s.Instance(nil, 0.02)
	if !reflect.DeepEqual(loose.Matches, again.Matches) {
		t.Fatal("repeated Instance derivation is not deterministic")
	}
}

// TestSolveInstanceContextCancelled pins the graceful-abort contract: a
// cancelled caller context is not an error — the solve returns complete
// (fallback or incumbent) explanations with TimedOut set.
func TestSolveInstanceContextCancelled(t *testing.T) {
	inst := fig1Instance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	expl, stats, err := SolveInstanceContext(ctx, inst, DefaultParams())
	if err != nil {
		t.Fatalf("cancelled context must not error: %v", err)
	}
	if !stats.TimedOut {
		t.Fatal("cancelled solve must set Stats.TimedOut")
	}
	if expl == nil {
		t.Fatal("cancelled solve must still return explanations")
	}
}

// TestExplainContextCancelled checks the end-to-end context path.
func TestExplainContextCancelled(t *testing.T) {
	in := academicInput(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ExplainContext(ctx, in, DefaultParams())
	if err != nil {
		t.Fatalf("cancelled context must not error: %v", err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("cancelled explain must set Stats.TimedOut")
	}
}
