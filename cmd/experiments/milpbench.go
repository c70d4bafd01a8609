package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"explain3d/internal/milp"
)

// milpbench runs a fixed set of solver workloads through the three LP engine
// modes (sparse revised simplex, dense tableau, adaptive per-block choice)
// and writes the measurements to a JSON baseline. The workloads are frozen —
// same models, same seeds — so a diff of BENCH_milp.json across PRs is a
// diff of solver performance, not of workload drift. The run doubles as a
// perf smoke: it fails if the engines disagree on any verdict or objective,
// or if the adaptive mode falls more than 10% behind the best fixed engine's
// pivot throughput on any workload.

// milpBenchResult is one (workload, engine) measurement. Rows/Cols/NNZ and
// the nonzero density describe the model's constraint-matrix shape — the
// signal the adaptive engine choice keys on.
type milpBenchResult struct {
	Workload   string  `json:"workload"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	NNZ        int     `json:"nnz"`
	Density    float64 `json:"nnzDensity"`
	Engine     string  `json:"engine"`
	Status     string  `json:"status"`
	Objective  float64 `json:"objective"`
	Nodes      int     `json:"nodes"`
	Iters      int     `json:"iters"`
	Seconds    float64 `json:"seconds"`
	PivotsPerS float64 `json:"pivotsPerSec"`
	Refactors  int     `json:"refactors"`
	LUFill     int     `json:"luFill"`
	CertInfeas int     `json:"certInfeas"`
	// Block engine split — meaningful for the adaptive row, where it records
	// the per-block choices the shape heuristic made.
	SparseBlocks int `json:"sparseBlocks"`
	DenseBlocks  int `json:"denseBlocks"`
}

// knapsackConflicts mirrors the milp package's benchmark model: binaries
// coupled by a capacity row plus pairwise conflicts — the shape of the
// paper's explanation encodings.
func knapsackConflicts(nVars int, seed int64) *milp.Model {
	rng := rand.New(rand.NewSource(seed))
	m := milp.NewModel("bench", milp.Maximize)
	vars := make([]milp.Var, nVars)
	terms := make([]milp.Term, nVars)
	for i := range vars {
		vars[i] = m.AddVar(0, 1, milp.Binary, "x")
		m.SetObjCoef(vars[i], float64(5+rng.Intn(17)))
		terms[i] = milp.Term{Var: vars[i], Coef: float64(2 + rng.Intn(9))}
	}
	m.AddConstr(terms, milp.LE, float64(3*nVars/2), "cap")
	for k := 0; k < nVars/2; k++ {
		a, b := rng.Intn(nVars), rng.Intn(nVars)
		if a == b {
			continue
		}
		m.AddConstr([]milp.Term{{Var: vars[a], Coef: 1}, {Var: vars[b], Coef: 1}}, milp.LE, 1, "conflict")
	}
	return m
}

// pathCoverLP is a single large LP block (minimum-weight vertex cover on a
// path): n continuous variables, n-1 GE rows, near-banded — the dense
// tableau costs (n-1)·(3n-2) cells per pivot, the sparse engine a few
// dozen nonzeros.
func pathCoverLP(n int) *milp.Model {
	m := milp.NewModel("pathcover", milp.Minimize)
	vars := make([]milp.Var, n)
	for i := range vars {
		vars[i] = m.AddVar(0, 1, milp.Continuous, "x")
		m.SetObjCoef(vars[i], float64(1+(i*7)%5))
	}
	for i := 0; i+1 < n; i++ {
		m.AddConstr([]milp.Term{{Var: vars[i], Coef: 1}, {Var: vars[i+1], Coef: 1}}, milp.GE, 1, "edge")
	}
	return m
}

// pigeonhole encodes holes+1 items into holes — infeasible overall, with a
// branch-and-bound tree made almost entirely of LP-infeasible nodes (the
// Farkas-certificate workload).
func pigeonhole(holes int) *milp.Model {
	items := holes + 1
	m := milp.NewModel("pigeonhole", milp.Maximize)
	x := make([][]milp.Var, items)
	for i := range x {
		x[i] = make([]milp.Var, holes)
		row := make([]milp.Term, holes)
		for h := range x[i] {
			x[i][h] = m.AddVar(0, 1, milp.Binary, "x")
			row[h] = milp.Term{Var: x[i][h], Coef: 1}
		}
		m.AddConstr(row, milp.EQ, 1, "placed")
	}
	for h := 0; h < holes; h++ {
		for i := 0; i < items; i++ {
			for k := i + 1; k < items; k++ {
				m.AddConstr([]milp.Term{{Var: x[i][h], Coef: 1}, {Var: x[k][h], Coef: 1}}, milp.LE, 1, "exclusive")
			}
		}
	}
	return m
}

// measureEngine times one (workload, engine) pair, repeating the solve on
// fresh models until enough wall time accumulates that the pivots/sec figure
// is timer-granularity-proof (the pigeonhole tree solves in microseconds).
func measureEngine(build func() *milp.Model, opt milp.Options) (milpBenchResult, error) {
	const (
		minWall = 100 * time.Millisecond
		maxReps = 50
	)
	var r milpBenchResult
	totalIters, totalSec := 0, 0.0
	for rep := 0; rep < maxReps; rep++ {
		model := build()
		start := time.Now()
		sol, err := milp.SolveContext(context.Background(), model, opt)
		if err != nil {
			return r, err
		}
		sec := time.Since(start).Seconds()
		totalIters += sol.Iters
		totalSec += sec
		if rep == 0 {
			r = milpBenchResult{
				Rows: model.NumRows(), Cols: model.NumVars(), NNZ: model.NumNonzeros(),
				Status:    sol.Status.String(),
				Objective: sol.Objective,
				Nodes:     sol.Nodes,
				Iters:     sol.Iters,
				Seconds:   sec,
				Refactors: sol.Refactors, LUFill: sol.LUFill, CertInfeas: sol.CertInfeas,
				SparseBlocks: sol.SparseBlocks, DenseBlocks: sol.DenseBlocks,
			}
			if r.Rows > 0 && r.Cols > 0 {
				r.Density = float64(r.NNZ) / (float64(r.Rows) * float64(r.Cols))
			}
		}
		if totalSec >= minWall.Seconds() {
			break
		}
	}
	if totalSec > 0 {
		r.PivotsPerS = float64(totalIters) / totalSec
	}
	return r, nil
}

func milpbench(outPath string) error {
	type workload struct {
		name  string
		build func() *milp.Model
	}
	workloads := []workload{
		{"knapsack-conflicts-26", func() *milp.Model { return knapsackConflicts(26, 100) }},
		{"pathcover-lp-800", func() *milp.Model { return pathCoverLP(800) }},
		{"pigeonhole-4", func() *milp.Model { return pigeonhole(4) }},
	}
	engines := []struct {
		name string
		opt  milp.Options
	}{
		{"sparse", milp.Options{Engine: milp.EngineSparse}},
		{"dense", milp.Options{Engine: milp.EngineDense}},
		{"adaptive", milp.Options{}}, // zero value = EngineAdaptive
	}
	var results []milpBenchResult
	for _, w := range workloads {
		perEngine := make([]milpBenchResult, len(engines))
		for ei, e := range engines {
			r, err := measureEngine(w.build, e.opt)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", w.name, e.name, err)
			}
			r.Workload, r.Engine = w.name, e.name
			perEngine[ei] = r
			results = append(results, r)
			fmt.Printf("  %-22s %-9s %-10s obj=%-8.6g nodes=%-6d iters=%-7d %8.0f pivots/s  blocks=%d/%d refactors=%d fill=%d cert=%d\n",
				w.name, e.name, r.Status, r.Objective, r.Nodes, r.Iters, r.PivotsPerS, r.SparseBlocks, r.DenseBlocks, r.Refactors, r.LUFill, r.CertInfeas)
		}
		// Baseline sanity: every engine mode must agree on the workload's
		// verdict and objective before the file is worth writing.
		base := perEngine[0]
		for _, r := range perEngine[1:] {
			if r.Status != base.Status || (base.Status == "optimal" && !floatsClose(r.Objective, base.Objective)) {
				return fmt.Errorf("%s: engines disagree: %s %s/%g, %s %s/%g",
					w.name, base.Engine, base.Status, base.Objective, r.Engine, r.Status, r.Objective)
			}
		}
		// Perf smoke: the adaptive mode must hold at least 90% of the best
		// fixed engine's pivot throughput on every workload — its per-block
		// choice is only worth having if it never loses badly to either
		// forced mode.
		sparse, dense, adaptive := perEngine[0], perEngine[1], perEngine[2]
		best := sparse.PivotsPerS
		if dense.PivotsPerS > best {
			best = dense.PivotsPerS
		}
		if adaptive.PivotsPerS < 0.9*best {
			return fmt.Errorf("%s: adaptive engine at %.0f pivots/s, best fixed engine %.0f — more than 10%% behind",
				w.name, adaptive.PivotsPerS, best)
		}
	}
	blob, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  baseline written to %s\n", outPath)
	return nil
}

func floatsClose(a, b float64) bool {
	d := a - b
	return d < 1e-5 && d > -1e-5
}
