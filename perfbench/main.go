// Command perfbench is explain3d's benchmark: one command that runs a named
// workload against the program's public entry points, checks that every
// output is correct, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload served-delta --seed 1 --seconds 50 --trace 0
//
// With --trace 0 it measures the end-to-end metrics over a window of
// --seconds: the one-shot explain (query text → core.ExplainContext →
// ConvertResult → json.Marshal) and an explaind server driven over
// loopback HTTP. With --trace 1 it replays the same work as the sequence of
// public calls the program makes, timing each call from outside, and
// prints the per-layer metrics; that run does a fixed amount of work
// instead of filling the window, so its counts repeat exactly for a seed.
// Nothing inside the program is instrumented.
//
// Every workload runs both a one-shot loop and a served delta cycle over
// the same generated data, so every workload reports every metric; the
// workloads differ only in data shape, which decides the layers each one
// stresses (see workloads below).
//
// The self-test (go test in this directory) runs every workload at minimal
// sizes and checks the printed names and units against BENCHMARK.json.
//
// The IMDb Fig 7c shape is left out on purpose: through the user-facing
// path (identity calibration, no gold-fitted calibrator as the experiments
// use) it hits the 60 s solver budget even at 200 movies, so it would time
// the budget rather than the program. All inputs come from the
// deterministic datagen.ScenarioSpec pair instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workload is one data shape.
type workload struct {
	name string
	// why records the layer the workload stresses and the one it bypasses.
	why   string
	rows  int // base tuples per side (datagen.ScenarioSpec.Rows)
	batch int // Options.BatchSize: 0 solves one whole model, >0 smart-partitions
	// traceCycles is the number of served cycles the traced run replays;
	// it does fixed work, so its counts repeat exactly for a seed.
	traceCycles int
}

// Every workload runs the same traffic: half the measured window (after
// set-ups) is the one-shot explain loop and half is served cycles of one
// delta POST, one re-explain and cycleHits cache hits.
const (
	oneshotShare = 0.5
	cycleHits    = 50
	// traceOneshot is the number of untraced/traced one-shot pairs in the
	// traced run.
	traceOneshot = 4
)

// workloads share the deltabench scenario shape (3 filler words per key,
// vocabulary rows/10, 1% disagreement, 5% typo noise, Zipf 1.5 impacts,
// MinSim 0.9) and run as a closed loop with one client and Workers 0.
var workloads = []workload{
	{
		// One model with thousands of connected blocks: Stage 2 (milp block
		// extraction and branch and bound) is over 90% of wall time and
		// Stage 1 under 5%. Block-extraction and B&B changes show here;
		// linkage and pool changes bypass it. Its served re-explains
		// re-solve the whole model on every delta, so partition reuse is
		// bypassed too.
		name: "oneshot-whole",
		why:  "3k rows, one whole model: stresses Stage-2 milp block extraction and B&B; bypasses linkage, the worker pool and partition reuse",
		rows: 3000, batch: 0,
		traceCycles: 2,
	},
	{
		// Writes beside reads on the same layers: each cycle POSTs a 1%-row
		// clustered update batch, re-explains once (a cache miss: prefix
		// advance, solution-cache replay, re-summarize, re-marshal) and then
		// reads 50 cache hits, which are transfer-bound at this body size.
		// A gain for reads that costs writes, or the reverse, shows here.
		// Its one-shot loop (40k rows, BatchSize 100) stresses Stage 1
		// linkage and the core worker pool, the op a separate
		// oneshot-batched workload would time.
		name: "served-delta",
		why:  "40k rows served over HTTP, cycles of delta + re-explain + 50 hits: stresses ApplyDelta, prefix advance, solution-cache replay and the hit path",
		rows: 40000, batch: 100,
		traceCycles: 10,
	},
}

// metricDef names one printed metric. BENCHMARK.json lists the same names;
// the self-test keeps the two in step.
type metricDef struct {
	name, unit string
	traced     bool // printed by the traced run (--trace 1)
}

var metricDefs = []metricDef{
	// End to end, untraced.
	{"setup_s", "s", false},
	{"explain_ms_p50", "ms", false},
	{"explains_per_s", "1/s", false},
	{"peak_heap_mib", "MiB", false},
	{"cold_ms", "ms", false},
	{"hit_ms_p50", "ms", false},
	{"reexplain_ms_p50", "ms", false},
	{"delta_ms_p50", "ms", false},
	{"ops_per_s", "1/s", false},

	// Per layer, traced: the one-shot decomposition.
	{"sqlparse.parse_ms", "ms", true},
	{"query.extract_ms", "ms", true},
	{"query.prov_rows", "count", true},
	{"core.canonicalize_ms", "ms", true},
	{"core.canon_tuples", "count", true},
	{"linkage.similarities_ms", "ms", true},
	{"linkage.candidates", "count", true},
	{"core.instance_ms", "ms", true},
	{"core.matches", "count", true},
	{"core.match_keep_ratio", "ratio", true},
	{"graph.partition_ms", "ms", true},
	{"graph.partitions", "count", true},
	{"core.solve_ms", "ms", true},
	{"milp.vars", "count", true},
	{"milp.rows", "count", true},
	{"milp.nodes", "count", true},
	{"milp.iters", "count", true},
	{"milp.iters_per_node", "ratio", true},
	{"milp.dense_blocks", "count", true},
	{"milp.sparse_blocks", "count", true},
	{"summarize.ms", "ms", true},
	{"explain3d.convert_ms", "ms", true},
	{"explain3d.marshal_ms", "ms", true},
	{"explain3d.body_bytes", "bytes", true},

	// Per layer, traced: the served replay.
	{"linkage.index_build_ms", "ms", true},
	{"linkage.scan_ms", "ms", true},
	{"relation.apply_delta_ms", "ms", true},
	{"relation.rows_changed", "count", true},
	{"core.build_side_ms", "ms", true},
	{"core.advance_ms", "ms", true},
	{"core.dirty_rows", "count", true},
	{"core.matches_rescored", "count", true},
	{"core.matches_kept", "count", true},
	{"core.prefix_solve_ms", "ms", true},
	{"core.solution_hit_ratio", "ratio", true},
	{"core.dirty_partitions", "count", true},
	{"serve.hit_server_ms_p50", "ms", true},
	// The client's hit p90 straddles the hits that overlap a collection
	// and those that do not, so it moves with host speed more than any
	// bound allows; it is reported here, unbounded, from the traced run.
	{"hit_ms_p90", "ms", true},
	{"serve.cache_hits", "count", true},
	{"serve.cache_misses", "count", true},
	{"serve.solves", "count", true},
	{"serve.side_builds", "count", true},
	{"serve.index_builds", "count", true},
	{"serve.prefix_advances", "count", true},
	{"serve.prefix_builds", "count", true},
	{"serve.invalidated", "count", true},
	{"serve.solution_hits", "count", true},
	{"serve.solution_misses", "count", true},
	{"serve.errors", "count", true},

	// Run health, traced: failures, trace overhead and coverage.
	{"failed_frac", "ratio", true},
	{"trace_overhead_frac", "ratio", true},
	{"trace.uncovered_frac", "ratio", true},
}

// countsDir holds each traced run's exact counts per (binary, workload,
// seed), so a later run of the same seed reports any drift.
const countsDir = ".bench_build/perfbench-counts"

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	r := &run{w: *w, seed: *seed, window: time.Duration(*seconds) * time.Second, log: os.Stdout}
	if *trace == 1 {
		r.countsDir = countsDir
	}
	rep, err := r.execute(context.Background(), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeReport(w io.Writer, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
