package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"explain3d/internal/core"
)

const (
	// setupReps: set-up runs this many times, spread over the window, and
	// each is followed by one cold explain; cold_ms is their median.
	setupReps = 7
	// setupTimes: each set-up (generate, New, Register) is timed this many
	// times back to back, keeping the last server; setup_s is the median
	// of all setupReps*setupTimes samples.
	setupTimes = 2
	// minOneshot and minCycles floor the sample counts when the window is
	// short.
	minOneshot = 3
	minCycles  = 2
)

// run is one invocation: a workload, a seed and a measured window.
type run struct {
	w      workload
	seed   int64
	window time.Duration
	log    io.Writer
	// countsDir keeps the traced run's counts for the drift check; "" skips it.
	countsDir string

	attempted, failed int
	vals              map[string]float64
}

// op accounts one operation and its outcome.
func (r *run) op(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// fail marks a correctness check on an operation already accounted.
func (r *run) fail(format string, args ...any) error {
	r.failed++
	return fmt.Errorf(format, args...)
}

func (r *run) execute(ctx context.Context, traced bool) (*report, error) {
	r.vals = map[string]float64{}
	fmt.Fprintf(r.log, "workload %s, seed %d, window %v, traced %t: %s\n", r.w.name, r.seed, r.window, traced, r.w.why)
	var err error
	if traced {
		err = r.traced(ctx)
	} else {
		heap := startHeapSampler()
		err = r.measured(ctx, heap)
		r.vals["peak_heap_mib"] = heap.Stop()
	}
	if err != nil && r.failed == 0 {
		return nil, err // set-up failed before any operation
	}
	if err != nil {
		fmt.Fprintf(r.log, "FAILED: %v\n", err)
	}
	rep := &report{Correct: err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	if traced {
		r.vals["failed_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	}
	for _, m := range metricDefs {
		if m.traced == traced {
			rep.Metrics[m.name] = metricValue{Value: r.vals[m.name], Unit: m.unit}
		}
	}
	return rep, nil
}

// measured is the untraced run. Its window interleaves three kinds of
// work — a set-up with a cold explain on the fresh server, one-shot
// explains, and served cycles on the first server — so the samples of
// every metric span the whole window: the host's speed drifts over tens of
// seconds, and a median taken from one stretch would follow the drift.
// heap is paused while an extra set-up holds a second dataset pair, so
// peak_heap_mib is the first server's and the one-shot loop's footprint.
//
// Each unit of work — a set-up with its cold explain, a one-shot explain,
// a served cycle — starts from a collected heap, outside the timed spans.
// Otherwise a collection started by one op's garbage would run on into the
// next, and a delta POST or a cold explain would pay for a one-shot
// explain that a server does not run: the ops' times would then depend on
// how the benchmark happened to interleave them. Within a cycle the
// collector runs as it would in the server: the re-explain and the hits
// pay for their own and the delta's garbage.
func (r *run) measured(ctx context.Context, heap *heapSampler) error {
	var setup, cold, explainMs, deltaMs, reMs, hitMs []float64
	var oneshotMs, servedMs float64
	var coldBody []byte
	// coldRep is one set-up plus the first explain on its fresh server;
	// every repeat must return the same body.
	coldRep := func() (*env, *server, error) {
		var e *env
		var s *server
		for i := 0; i < setupTimes; i++ {
			if s != nil {
				s.close()
			}
			t := time.Now()
			var err error
			if e, err = newEnv(r.w, r.seed); err != nil {
				return nil, nil, err
			}
			if s, err = startServer(e); err != nil {
				return nil, nil, err
			}
			setup = append(setup, time.Since(t).Seconds())
		}
		rp, err := s.explain("miss")
		if err := r.op(err); err != nil {
			s.close()
			return nil, nil, err
		}
		cold = append(cold, rp.ms)
		if coldBody == nil {
			coldBody = s.last
		} else if !bytes.Equal(s.last, coldBody) {
			s.close()
			return nil, nil, r.fail("cold body differs between set-ups of the same seed")
		}
		return e, s, nil
	}
	start := time.Now()
	e, s, err := coldRep()
	if err != nil {
		return err
	}
	defer s.close()

	// check compares a one-shot body on db1 with want, the served body for
	// the same data.
	check := func(body []byte, res *core.Result, what string, want []byte) error {
		if err := checkResult(res); err != nil {
			return r.fail("one-shot explain on %s data: %v", what, err)
		}
		if !bytes.Equal(body, want) {
			return r.fail("one-shot body on %s data differs from the served body", what)
		}
		return nil
	}
	oneshot := func() error {
		t := time.Now()
		body, res, err := e.explain(ctx, e.sc.DB1)
		if err := r.op(err); err != nil {
			return err
		}
		ms := msSince(t)
		explainMs = append(explainMs, ms)
		oneshotMs += ms
		return check(body, res, "initial", coldBody)
	}
	cycles := 0
	cycle := func() error {
		d, err := s.nextDelta()
		if err != nil {
			return err
		}
		rp, err := s.postDelta(d)
		if err := r.op(err); err != nil {
			return err
		}
		deltaMs = append(deltaMs, rp.ms)
		servedMs += rp.ms
		rp, err = s.explain("miss")
		if err := r.op(err); err != nil {
			return err
		}
		reMs = append(reMs, rp.ms)
		servedMs += rp.ms
		for h := 0; h < cycleHits; h++ {
			rp, err = s.explain("hit")
			if err := r.op(err); err != nil {
				return err
			}
			hitMs = append(hitMs, rp.ms)
			servedMs += rp.ms
		}
		cycles++
		return nil
	}

	end := start.Add(r.window)
	for {
		now := time.Now()
		done := len(cold) == setupReps && cycles >= minCycles && len(explainMs) >= minOneshot
		if done && !now.Before(end) {
			break
		}
		runtime.GC()
		var err error
		switch elapsed := float64(now.Sub(start)) / float64(r.window); {
		case len(cold) < setupReps && elapsed*setupReps >= float64(len(cold)):
			// Set-ups are spread evenly over the window; the extra servers
			// only take the cold explain.
			heap.pause()
			var extra *server
			if _, extra, err = coldRep(); err == nil {
				extra.close()
			}
			heap.resume()
		case oneshotMs <= oneshotShare*(oneshotMs+servedMs):
			err = oneshot()
		default:
			err = cycle()
		}
		if err != nil {
			return err
		}
	}
	// After the window: the served body after the last delta must equal a
	// fresh one-shot explain on the post-delta data.
	body, res, err := e.explain(ctx, s.db1)
	if err := r.op(err); err != nil {
		return err
	}
	if err := check(body, res, "post-delta", s.last); err != nil {
		return err
	}

	served := append(append(append([]float64{}, deltaMs...), reMs...), hitMs...)
	r.vals["setup_s"] = median(setup)
	r.vals["explain_ms_p50"] = median(explainMs)
	r.vals["explains_per_s"] = perSecond(explainMs)
	r.vals["cold_ms"] = median(cold)
	r.vals["hit_ms_p50"] = median(hitMs)
	r.vals["reexplain_ms_p50"] = median(reMs)
	r.vals["delta_ms_p50"] = median(deltaMs)
	r.vals["ops_per_s"] = perSecond(served)
	for _, o := range []struct {
		name string
		xs   []float64
	}{{"setup_s", setup}, {"cold_ms", cold}, {"explain_ms", explainMs}, {"delta_ms", deltaMs}, {"reexplain_ms", reMs}, {"hit_ms", hitMs}} {
		fmt.Fprintf(r.log, "samples %s: n %d, min %.4g, median %.4g, max %.4g\n", o.name, len(o.xs), slices.Min(o.xs), median(o.xs), slices.Max(o.xs))
	}
	return nil
}

// traced is the per-layer run. It does fixed work so its counts repeat
// exactly: untraced and traced one-shot explains on the initial data, then
// served delta cycles beside a library replay of the same path. Every
// traced body must equal its untraced counterpart byte for byte.
func (r *run) traced(ctx context.Context) error {
	e, err := newEnv(r.w, r.seed)
	if err != nil {
		return err
	}
	s, err := startServer(e)
	if err != nil {
		return err
	}
	defer s.close()

	// One-shot: untraced and traced explains alternate, so drift in the
	// host's speed falls on both alike.
	var untraced []float64
	var want []byte
	var ref map[string]float64 // milp counts of the untraced solve
	var ops []*spans
	probe := newSpans()
	for i := 0; i < traceOneshot; i++ {
		t := time.Now()
		body, res, err := e.explain(ctx, e.sc.DB1)
		if err := r.op(err); err != nil {
			return err
		}
		untraced = append(untraced, msSince(t))
		if err := checkResult(res); err != nil {
			return r.fail("one-shot explain: %v", err)
		}
		if want == nil {
			want = body
			sp := newSpans()
			milpCounts(sp, &res.Stats)
			ref = sp.counts
		} else if !bytes.Equal(body, want) {
			return r.fail("one-shot body differs between repeats")
		}

		sp := newSpans()
		body, res, err = e.tracedExplain(ctx, e.sc.DB1, sp)
		if err := r.op(err); err != nil {
			return err
		}
		if err := checkResult(res); err != nil {
			return r.fail("traced explain: %v", err)
		}
		if !bytes.Equal(body, want) {
			return r.fail("traced one-shot body differs from the untraced body")
		}
		for _, name := range sortedKeys(ref) {
			if sp.counts[name] != ref[name] {
				return r.fail("%s: traced solve counted %v, untraced %v", name, sp.counts[name], ref[name])
			}
		}
		if i > 0 {
			if err := sameCounts(ops[0], sp); err != nil {
				return r.fail("traced one-shot repeat: %v", err)
			}
		} else if err := probePartition(res.Instance, e.params(), probe); err != nil {
			return err
		}
		ops = append(ops, sp)
	}

	// Served: the server and the library replay in lockstep.
	stats0, err := s.stats()
	if err != nil {
		return err
	}
	if _, err := s.explain("miss"); r.op(err) != nil {
		return err
	}
	coldSp := newSpans()
	rpl, body, res, err := e.replayCold(ctx, coldSp)
	if err := r.op(err); err != nil {
		return err
	}
	if err := checkResult(res); err != nil {
		return r.fail("replayed cold explain: %v", err)
	}
	if !bytes.Equal(body, s.last) {
		return r.fail("replayed cold body differs from the served cold body")
	}
	var applies, cycles []*spans
	var serverRe, serverHit, clientHit []float64
	for c := 0; c < r.w.traceCycles; c++ {
		d, err := s.nextDelta()
		if err != nil {
			return err
		}
		if _, err := s.postDelta(d); r.op(err) != nil {
			return err
		}
		ap := newSpans()
		if err := r.op(rpl.apply(d, ap)); err != nil {
			return err
		}
		applies = append(applies, ap)
		rp, err := s.explain("miss")
		if err := r.op(err); err != nil {
			return err
		}
		serverRe = append(serverRe, rp.serverMs)
		for h := 0; h < cycleHits; h++ {
			rp, err := s.explain("hit")
			if err := r.op(err); err != nil {
				return err
			}
			serverHit = append(serverHit, rp.serverMs)
			clientHit = append(clientHit, rp.ms)
		}
		sp := newSpans()
		body, res, err := rpl.reexplain(ctx, sp)
		if err := r.op(err); err != nil {
			return err
		}
		if err := checkResult(res); err != nil {
			return r.fail("replayed re-explain: %v", err)
		}
		if !bytes.Equal(body, s.last) {
			return r.fail("replayed re-explain body differs from the served body after delta %d", c+1)
		}
		cycles = append(cycles, sp)
	}
	stats1, err := s.stats()
	if err != nil {
		return err
	}
	// The served body after the last delta must equal a fresh one-shot
	// explain on the post-delta data.
	body, res, err = e.explain(ctx, s.db1)
	if err := r.op(err); err != nil {
		return err
	}
	if err := checkResult(res); err != nil {
		return r.fail("one-shot explain on post-delta data: %v", err)
	}
	if !bytes.Equal(body, s.last) {
		return r.fail("served body after the last delta differs from a fresh one-shot explain")
	}

	// One-shot layers: medians over the traced explains; counts are exact.
	for _, name := range []string{"sqlparse.parse_ms", "query.extract_ms", "core.canonicalize_ms",
		"linkage.similarities_ms", "core.instance_ms", "core.solve_ms", "summarize.ms",
		"explain3d.convert_ms", "explain3d.marshal_ms"} {
		r.vals[name] = medianOf(ops, func(s *spans) float64 { return s.ms[name] })
	}
	for _, name := range sortedKeys(ops[0].counts) {
		r.vals[name] = ops[0].counts[name]
	}
	r.vals["core.match_keep_ratio"] = ratio(r.vals["core.matches"], r.vals["linkage.candidates"])
	r.vals["milp.iters_per_node"] = ratio(r.vals["milp.iters"], r.vals["milp.nodes"])
	r.vals["graph.partition_ms"] = probe.ms["graph.partition_ms"]
	r.vals["graph.partitions"] = probe.counts["graph.partitions"]

	// Served layers: the cold prefix, then medians and totals over cycles.
	r.vals["linkage.index_build_ms"] = coldSp.ms["linkage.index_build_ms"]
	r.vals["linkage.scan_ms"] = coldSp.ms["linkage.scan_ms"]
	r.vals["relation.apply_delta_ms"] = medianOf(applies, func(s *spans) float64 { return s.ms["relation.apply_delta_ms"] })
	r.vals["relation.rows_changed"] = totalOf(applies, "relation.rows_changed")
	for _, name := range []string{"core.build_side_ms", "core.advance_ms", "core.prefix_solve_ms"} {
		r.vals[name] = medianOf(cycles, func(s *spans) float64 { return s.ms[name] })
	}
	for _, name := range []string{"core.dirty_rows", "core.matches_rescored", "core.matches_kept"} {
		r.vals[name] = totalOf(cycles, name)
	}
	hits, misses := totalOf(cycles, "solution_hits"), totalOf(cycles, "solution_misses")
	r.vals["core.solution_hit_ratio"] = ratio(hits, hits+misses)
	r.vals["core.dirty_partitions"] = misses
	r.vals["serve.hit_server_ms_p50"] = median(serverHit)
	r.vals["hit_ms_p90"] = p90(clientHit)
	for _, c := range []struct {
		name   string
		before int64
		after  int64
	}{
		{"serve.cache_hits", stats0.CacheHits, stats1.CacheHits},
		{"serve.cache_misses", stats0.CacheMisses, stats1.CacheMisses},
		{"serve.solves", stats0.Solves, stats1.Solves},
		{"serve.side_builds", stats0.SideBuilds, stats1.SideBuilds},
		{"serve.index_builds", stats0.IndexBuilds, stats1.IndexBuilds},
		{"serve.prefix_advances", stats0.PrefixAdvances, stats1.PrefixAdvances},
		{"serve.prefix_builds", stats0.PrefixBuilds, stats1.PrefixBuilds},
		{"serve.invalidated", stats0.Invalidated, stats1.Invalidated},
		{"serve.solution_hits", stats0.SolutionHits, stats1.SolutionHits},
		{"serve.solution_misses", stats0.SolutionMisses, stats1.SolutionMisses},
		{"serve.errors", stats0.Errors, stats1.Errors},
	} {
		r.vals[c.name] = float64(c.after - c.before)
	}

	// Overhead and coverage: the metrics take the one-shot explain, whose
	// untraced twin runs in this process; the log adds the re-explain,
	// whose untraced time is the server's own X-Explaind-Elapsed-Ms.
	oneshotOver := ratio(medianOf(ops, wallOf), median(untraced)) - 1
	reOver := ratio(medianOf(cycles, wallOf), median(serverRe)) - 1
	oneshotUncov := medianOf(ops, uncoveredOf)
	reUncov := medianOf(cycles, uncoveredOf)
	fmt.Fprintf(r.log, "one-shot: untraced p50 %.1f ms (%d samples); traced wall p50 %.1f ms, layer calls %.1f ms; overhead %.3f, uncovered %.3f (the replay runs the two sides one after the other)\n",
		median(untraced), len(untraced), medianOf(ops, wallOf), medianOf(ops, (*spans).covered), oneshotOver, oneshotUncov)
	fmt.Fprintf(r.log, "re-explain: server p50 %.1f ms (%d samples); traced wall p50 %.1f ms, layer calls %.1f ms; overhead %.3f, uncovered %.3f; hit p90 from %d samples\n",
		median(serverRe), len(serverRe), medianOf(cycles, wallOf), medianOf(cycles, (*spans).covered), reOver, reUncov, len(clientHit))
	r.vals["trace_overhead_frac"], r.vals["trace.uncovered_frac"] = oneshotOver, oneshotUncov

	return r.drift()
}

// drift compares this run's exact counts with an earlier run of the seed.
func (r *run) drift() error {
	if r.countsDir == "" {
		return nil
	}
	counts := map[string]float64{}
	for _, m := range metricDefs {
		if m.traced && (m.unit == "count" || m.unit == "bytes") {
			counts[m.name] = r.vals[m.name]
		}
	}
	lines, err := checkDrift(r.countsDir, r.w.name, r.seed, counts)
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprintf(r.log, "drift: %s\n", l)
	}
	if len(lines) > 0 {
		return r.fail("%d counts drifted from an earlier run of seed %d", len(lines), r.seed)
	}
	return nil
}

func sameCounts(a, b *spans) error {
	for _, name := range sortedKeys(a.counts) {
		if a.counts[name] != b.counts[name] {
			return fmt.Errorf("%s: %v then %v", name, a.counts[name], b.counts[name])
		}
	}
	return nil
}

func medianOf(ss []*spans, f func(*spans) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

func totalOf(ss []*spans, count string) float64 {
	t := 0.0
	for _, s := range ss {
		t += s.counts[count]
	}
	return t
}

func wallOf(s *spans) float64 { return s.wall }

func uncoveredOf(s *spans) float64 { return ratio(s.wall-s.covered(), s.wall) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
