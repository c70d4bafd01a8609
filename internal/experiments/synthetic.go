package experiments

import (
	"context"
	"fmt"
	"time"

	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/metrics"
)

// SyntheticConfig is one Figure 8 configuration.
type SyntheticConfig struct {
	Spec datagen.SyntheticSpec
	// BatchSizes to evaluate; 0 means NoOpt.
	BatchSizes []int
	// Budget bounds each solve; solves that exceed it are reported with
	// DNF=true (the paper reports 1-hour DNFs the same way).
	Budget time.Duration
	// NoOptMaxN skips NoOpt configurations above this tuple count
	// entirely (emulating the paper's DNF entries without burning the
	// budget). 0 = never skip.
	NoOptMaxN int
}

// SyntheticPoint is one measured configuration.
type SyntheticPoint struct {
	N      int
	D      float64
	V      int
	Method string
	// SolveTime is stage-2 time only, matching Figure 8's "solve time".
	SolveTime time.Duration
	ExplF1    float64
	EvidF1    float64
	DNF       bool
	Stats     core.Stats
}

// methodName renders NoOpt/Batch-k.
func methodName(batch int) string {
	if batch == 0 {
		return "NoOpt"
	}
	return fmt.Sprintf("Batch-%d", batch)
}

// RunSyntheticPoint generates one synthetic pair and solves it with every
// requested batch size.
//
//lint:ctxroot experiment entry point: each measured solve owns its root and is bounded by the configured Budget
func RunSyntheticPoint(cfg SyntheticConfig, params core.Params) ([]SyntheticPoint, error) {
	s := datagen.GenerateSynthetic(cfg.Spec)
	popt := linkage.DefaultPairOptions()
	if cfg.Spec.N >= 5000 {
		popt.MinSharedTokens = 2 // keep candidate generation near-linear
	}
	start := time.Now()
	inst, res, err := stage1Instance(core.Input{
		DB1: s.DB1, DB2: s.DB2, Q1: s.Q1, Q2: s.Q2, Mattr: s.Mattr,
		MinProb: 1e-9, PairOpts: &popt,
	}, params.Workers)
	if err != nil {
		return nil, err
	}
	mapTime := time.Since(start)
	pc, err := Prepare(inst, res, s.Mattr, "Table1."+datagen.EIDColumn, "Table2."+datagen.EIDColumn, mapTime)
	if err != nil {
		return nil, err
	}
	var out []SyntheticPoint
	for _, batch := range cfg.BatchSizes {
		pt := SyntheticPoint{N: cfg.Spec.N, D: cfg.Spec.D, V: cfg.Spec.V, Method: methodName(batch)}
		if batch == 0 && cfg.NoOptMaxN > 0 && cfg.Spec.N > cfg.NoOptMaxN {
			pt.DNF = true
			out = append(out, pt)
			continue
		}
		p := params
		p.BatchSize = batch
		p.SolverTimeLimit = cfg.Budget
		expl, stats, err := core.SolveInstanceContext(context.Background(), pc.Inst, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: synthetic n=%d batch=%d: %w", cfg.Spec.N, batch, err)
		}
		pt.SolveTime = stats.SolveTime
		pt.Stats = *stats
		pt.DNF = stats.TimedOut
		pt.ExplF1 = metrics.Score(NormalizeExplKeys(expl, pc.Gold.Evidence), pc.GoldKeys).F1
		pt.EvidF1 = metrics.Score(expl.EvidenceKeys(), pc.EvidKeys).F1
		out = append(out, pt)
	}
	return out, nil
}

// SyntheticSweep varies one parameter (the others fixed) and returns all
// measured points — Figures 8a (N), 8b (D), and 8c (V).
type SyntheticSweep struct {
	Base       datagen.SyntheticSpec
	Ns         []int
	Ds         []float64
	Vs         []int
	BatchSizes []int
	Budget     time.Duration
	NoOptMaxN  int
}

// Run executes the sweep; exactly one of Ns, Ds, Vs should be non-empty.
func (sw SyntheticSweep) Run(params core.Params) ([]SyntheticPoint, error) {
	var out []SyntheticPoint
	add := func(spec datagen.SyntheticSpec) error {
		pts, err := RunSyntheticPoint(SyntheticConfig{
			Spec: spec, BatchSizes: sw.BatchSizes, Budget: sw.Budget, NoOptMaxN: sw.NoOptMaxN,
		}, params)
		if err != nil {
			return err
		}
		out = append(out, pts...)
		return nil
	}
	switch {
	case len(sw.Ns) > 0:
		for _, n := range sw.Ns {
			spec := sw.Base
			spec.N = n
			if err := add(spec); err != nil {
				return nil, err
			}
		}
	case len(sw.Ds) > 0:
		for _, d := range sw.Ds {
			spec := sw.Base
			spec.D = d
			if err := add(spec); err != nil {
				return nil, err
			}
		}
	case len(sw.Vs) > 0:
		for _, v := range sw.Vs {
			spec := sw.Base
			spec.V = v
			if err := add(spec); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("experiments: sweep varies nothing")
	}
	return out, nil
}

// TimePointsOf converts synthetic points into the printable series, using
// the requested x extractor.
func TimePointsOf(points []SyntheticPoint, x func(SyntheticPoint) int) []TimePoint {
	out := make([]TimePoint, len(points))
	for i, p := range points {
		out[i] = TimePoint{X: x(p), Method: p.Method, Time: p.SolveTime, DNF: p.DNF}
	}
	return out
}
