package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"explain3d/internal/core"
	"explain3d/internal/linkage"
	"explain3d/internal/metrics"
	"explain3d/internal/schemamap"
)

// Method names used throughout the evaluation.
const (
	MethodExplain3D = "Explain3D"
	MethodNoOpt     = "Explain3D-NoOpt"
	MethodGreedy    = "Greedy"
	MethodThreshold = "Threshold-0.9"
	MethodRSwoosh   = "RSwoosh"
	MethodExact     = "ExactCover"
	MethodFormal    = "FormalExp-Top15"
)

// AllMethods is the method lineup of Figures 6 and 7.
func AllMethods() []string {
	return []string{MethodExplain3D, MethodGreedy, MethodThreshold, MethodRSwoosh, MethodExact, MethodFormal}
}

// MethodResult is one row of an accuracy/efficiency comparison.
type MethodResult struct {
	Method   string
	Expl     metrics.PRF
	Evidence metrics.PRF
	Time     time.Duration
	Stats    core.Stats
}

// PreparedCase is a fully staged comparison: the calibrated instance, its
// gold standard, and everything baselines need.
type PreparedCase struct {
	Inst     *core.Instance
	Gold     *core.Explanations
	Mattr    schemamap.Matching
	RawSims  []linkage.Match
	MapTime  time.Duration // stage-1 mapping time, shared by all methods
	GoldKeys []string
	EvidKeys []string
}

// stage1Instance runs the one-shot Stage-1 step (Input.BuildPrefix) and
// derives the instance from it, with the Result fields Prepare and the
// statistics tables read.
func stage1Instance(in core.Input, workers int) (*core.Instance, *core.Result, error) {
	pp, err := in.BuildPrefix(workers)
	if err != nil {
		return nil, nil, err
	}
	st := pp.Stage1()
	inst := st.Instance(in.Calibrator, in.MinProb)
	return inst, &core.Result{Prov1: st.Prov1, Prov2: st.Prov2, T1: st.T1, T2: st.T2, Instance: inst}, nil
}

// Prepare stages a case from a built instance: compute gold from entity
// ids, fit the calibrator on the raw similarities, and recalibrate the
// instance's matches.
func Prepare(inst *core.Instance, res *core.Result, mattr schemamap.Matching, eid1, eid2 string, mapTime time.Duration) (*PreparedCase, error) {
	gold, err := GoldFromEIDs(inst, res.Prov1, res.Prov2, eid1, eid2)
	if err != nil {
		return nil, err
	}
	raw := inst.Matches // P == Sim at this point (identity calibration)
	cal, err := FitCalibrator(raw, gold)
	if err != nil {
		return nil, err
	}
	inst.Matches = core.FilterMatches(linkage.Calibrate(raw, cal), 0.02)
	return &PreparedCase{
		Inst: inst, Gold: gold, Mattr: mattr, RawSims: raw, MapTime: mapTime,
		GoldKeys: NormalizeExplKeys(gold, gold.Evidence),
		EvidKeys: gold.EvidenceKeys(),
	}, nil
}

// RunMethod executes one method on a prepared case. BatchSize applies to
// the Explain3D variants (0 = NoOpt).
//
//lint:ctxroot experiment entry point: each measured solve owns its root and is bounded by params.SolverTimeLimit
func (pc *PreparedCase) RunMethod(method string, params core.Params, batchSize int) (MethodResult, error) {
	out := MethodResult{Method: method}
	start := time.Now()
	var expl *core.Explanations
	var err error
	switch method {
	case MethodExplain3D, MethodNoOpt:
		params.BatchSize = batchSize
		var stats *core.Stats
		expl, stats, err = core.SolveInstanceContext(context.Background(), pc.Inst, params)
		if stats != nil {
			out.Stats = *stats
		}
	case MethodGreedy:
		expl = core.Greedy(pc.Inst, params)
	case MethodThreshold:
		expl = core.Threshold(pc.Inst, 0.9)
	case MethodRSwoosh:
		expl, err = pc.runRSwoosh()
	case MethodExact:
		expl, err = core.ExactCover(context.Background(), pc.Inst, params)
	case MethodFormal:
		expl = core.FormalExp(pc.Inst, 15)
	default:
		return out, fmt.Errorf("experiments: unknown method %q", method)
	}
	if err != nil {
		return out, fmt.Errorf("experiments: %s: %w", method, err)
	}
	// Total execution time includes the shared mapping generation, as in
	// the paper (FormalExp does not use the mapping).
	out.Time = time.Since(start)
	if method != MethodFormal {
		out.Time += pc.MapTime
	}
	out.Expl = metrics.Score(NormalizeExplKeys(expl, pc.Gold.Evidence), pc.GoldKeys)
	out.Evidence = metrics.Score(expl.EvidenceKeys(), pc.EvidKeys)
	return out, nil
}

func (pc *PreparedCase) runRSwoosh() (*core.Explanations, error) {
	v1, err := core.VirtualColumns(pc.Inst.T1, pc.Mattr, true)
	if err != nil {
		return nil, err
	}
	v2, err := core.VirtualColumns(pc.Inst.T2, pc.Mattr, false)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(pc.Mattr))
	for i := range idx {
		idx[i] = i
	}
	matches, err := linkage.RSwoosh(v1, v2, idx, idx, 0.75)
	if err != nil {
		return nil, err
	}
	return core.EvidenceExplanations(pc.Inst, matches), nil
}

// WriteMethodTable renders method results as an aligned text table.
func WriteMethodTable(w io.Writer, title string, rows []MethodResult) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "  %-18s %28s %28s %10s\n", "method", "explanations (P/R/F)", "evidence (P/R/F)", "time")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %8.3f %8.3f %9.3f %8.3f %8.3f %9.3f %9.3fs\n",
			r.Method,
			r.Expl.Precision, r.Expl.Recall, r.Expl.F1,
			r.Evidence.Precision, r.Evidence.Recall, r.Evidence.F1,
			r.Time.Seconds())
	}
}
