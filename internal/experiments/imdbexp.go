package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/metrics"
)

// IMDbOptions scales the Figure 7 experiment.
type IMDbOptions struct {
	Spec datagen.IMDbSpec
	// Instantiations per template (the paper uses 10).
	Instantiations int
	// BatchSize for the partitioned Explain3D runs.
	BatchSize int
	Seed      int64
}

// IMDbTemplateStats is one IMDb row of Figure 4, averaged over
// instantiations.
type IMDbTemplateStats struct {
	Template   int
	Name       string
	P1, P2     float64
	MTuple     float64
	MStar      float64
	E, ES      float64
	Agreements int // instantiations where the two queries agreed anyway
}

// IMDbReport bundles Figure 4's IMDb statistics with Figure 7a/7b.
type IMDbReport struct {
	Options  IMDbOptions
	Stats    []IMDbTemplateStats
	Averages []MethodResult
}

// RunIMDb generates the two views and evaluates all methods over random
// instantiations of the ten templates (Figures 7a and 7b).
func RunIMDb(opt IMDbOptions, params core.Params, methods []string) (*IMDbReport, error) {
	if opt.Instantiations == 0 {
		opt.Instantiations = 3
	}
	if opt.BatchSize == 0 {
		opt.BatchSize = 1000
	}
	im, err := datagen.GenerateIMDb(opt.Spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	report := &IMDbReport{Options: opt}
	perMethodExpl := make(map[string][]metrics.PRF)
	perMethodEvid := make(map[string][]metrics.PRF)
	perMethodTime := make(map[string]time.Duration)

	for _, tpl := range datagen.Templates() {
		st := IMDbTemplateStats{Template: tpl.ID, Name: tpl.Name}
		for k := 0; k < opt.Instantiations; k++ {
			pc, err := prepareIMDbCase(im, tpl, tpl.RandomParam(rng, opt.Spec), params.Workers)
			if err != nil {
				return nil, fmt.Errorf("template %d: %w", tpl.ID, err)
			}
			st.P1 += float64(pc.resP1)
			st.P2 += float64(pc.resP2)
			st.MTuple += float64(len(pc.RawSims))
			st.MStar += float64(len(pc.Gold.Evidence))
			st.E += float64(pc.Gold.Size())
			if pc.Gold.Size() == 0 {
				st.Agreements++
			}
			for _, m := range methods {
				r, err := pc.RunMethod(m, params, opt.BatchSize)
				if err != nil {
					return nil, fmt.Errorf("template %d, %s: %w", tpl.ID, m, err)
				}
				perMethodExpl[m] = append(perMethodExpl[m], r.Expl)
				perMethodEvid[m] = append(perMethodEvid[m], r.Evidence)
				perMethodTime[m] += r.Time
			}
		}
		inv := 1.0 / float64(opt.Instantiations)
		st.P1 *= inv
		st.P2 *= inv
		st.MTuple *= inv
		st.MStar *= inv
		st.E *= inv
		report.Stats = append(report.Stats, st)
	}
	n := len(datagen.Templates()) * opt.Instantiations
	for _, m := range methods {
		report.Averages = append(report.Averages, MethodResult{
			Method:   m,
			Expl:     metrics.Mean(perMethodExpl[m]),
			Evidence: metrics.Mean(perMethodEvid[m]),
			Time:     perMethodTime[m] / time.Duration(n),
		})
	}
	return report, nil
}

// imdbCase extends PreparedCase with provenance sizes for the stats table.
type imdbCase struct {
	*PreparedCase
	resP1, resP2 int
}

func prepareIMDbCase(im *datagen.IMDb, tpl datagen.Template, param string, workers int) (*imdbCase, error) {
	q1, q2, mattr, err := tpl.Instantiate(param)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	popt := linkage.DefaultPairOptions()
	popt.MinSharedTokens = 2 // titles/names share frequent tokens; require two
	inst, res, err := stage1Instance(core.Input{
		DB1: im.DB1, DB2: im.DB2, Q1: q1, Q2: q2, Mattr: mattr,
		MinProb: 1e-9, PairOpts: &popt,
	}, workers)
	if err != nil {
		return nil, err
	}
	mapTime := time.Since(start)
	pc, err := Prepare(inst, res, mattr, tpl.EID1, tpl.EID2, mapTime)
	if err != nil {
		return nil, err
	}
	return &imdbCase{PreparedCase: pc, resP1: res.Prov1.Rel.Len(), resP2: res.Prov2.Rel.Len()}, nil
}

// TimePoint is one Figure 7c / Figure 8 measurement.
type TimePoint struct {
	X      int // tuples (7c, 8a), or scaled parameter value (8b, 8c)
	Method string
	Time   time.Duration
	// Stats carries the Stage-2 solver effort (nodes, simplex iterations)
	// behind the measurement, so benchmarks can report per-node metrics.
	Stats core.Stats
	// DNF marks a configuration skipped or aborted under its budget, like
	// the paper's >1hr entries.
	DNF bool
}

// IMDbTimeSweep reproduces Figure 7c: total execution time as provenance
// grows from sizes[0] to sizes[len-1] tuples (split across the two sides),
// on the total-gross template with all movies in a single year. Methods
// whose known complexity exceeds the budget at a size are marked DNF, as
// in the paper (R-Swoosh and NoOpt beyond 10K tuples).
func IMDbTimeSweep(sizes []int, methods []string, params core.Params, batchSize int, budget time.Duration) ([]TimePoint, error) {
	if batchSize == 0 {
		batchSize = 1000
	}
	var out []TimePoint
	tpl := datagen.Templates()[4] // total-gross
	for _, size := range sizes {
		spec := datagen.IMDbSpec{
			Movies: size / 2, Persons: 100,
			StartYear: 2000, EndYear: 2000, Seed: int64(size),
		}
		im, err := datagen.GenerateIMDb(spec)
		if err != nil {
			return nil, err
		}
		pc, err := prepareIMDbCase(im, tpl, "2000", params.Workers)
		if err != nil {
			return nil, err
		}
		for _, m := range methods {
			bs := batchSize
			if m == MethodNoOpt {
				bs = 0
			}
			// Budget guard mirroring the paper's DNFs: quadratic methods
			// are skipped beyond 10K tuples.
			if budget > 0 && size > 10000 && (m == MethodRSwoosh || m == MethodNoOpt) {
				out = append(out, TimePoint{X: size, Method: m, DNF: true})
				continue
			}
			p := params
			p.SolverTimeLimit = budget
			r, err := pc.RunMethod(m, p, bs)
			if err != nil {
				return nil, fmt.Errorf("size %d, %s: %w", size, m, err)
			}
			out = append(out, TimePoint{X: size, Method: m, Time: r.Time, Stats: r.Stats, DNF: r.Stats.TimedOut})
		}
	}
	return out, nil
}

// WriteIMDbStats renders the IMDb half of Figure 4.
func WriteIMDbStats(w io.Writer, stats []IMDbTemplateStats) {
	fmt.Fprintf(w, "  %-3s %-26s %10s %10s %10s %8s %8s\n", "Q", "template", "|P1|", "|P2|", "|Mtuple|", "|M*|", "|E|")
	for _, st := range stats {
		fmt.Fprintf(w, "  Q%-2d %-26s %10.1f %10.1f %10.1f %8.1f %8.1f\n",
			st.Template, st.Name, st.P1, st.P2, st.MTuple, st.MStar, st.E)
	}
}

// WriteTimePoints renders a time series grouped by X.
func WriteTimePoints(w io.Writer, title string, points []TimePoint) {
	fmt.Fprintf(w, "%s\n", title)
	byX := map[int]map[string]TimePoint{}
	var xs []int
	var methods []string
	seenM := map[string]bool{}
	for _, p := range points {
		if byX[p.X] == nil {
			byX[p.X] = map[string]TimePoint{}
			xs = append(xs, p.X)
		}
		byX[p.X][p.Method] = p
		if !seenM[p.Method] {
			seenM[p.Method] = true
			methods = append(methods, p.Method)
		}
	}
	fmt.Fprintf(w, "  %-10s", "x")
	for _, m := range methods {
		fmt.Fprintf(w, " %16s", m)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "  %-10d", x)
		for _, m := range methods {
			p, ok := byX[x][m]
			switch {
			case !ok:
				fmt.Fprintf(w, " %16s", "-")
			case p.DNF && p.Time == 0:
				fmt.Fprintf(w, " %16s", "DNF")
			default:
				fmt.Fprintf(w, " %15ss", formatSeconds(p.Time.Seconds()))
			}
		}
		fmt.Fprintln(w)
	}
}
