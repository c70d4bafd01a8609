package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/experiments"
	"explain3d/internal/graph"
	"explain3d/internal/linkage"
	"explain3d/internal/query"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/serve"
	"explain3d/internal/sqlparse"
)

const (
	// minSim is the blocking threshold: scenario keys embed a unique id
	// token, so true pairs sit near 1.0 and filler-word coincidences far
	// below (the threshold deltabench and the core prefix tests use).
	minSim  = 0.9
	dataset = "bench"
)

// env is one workload's generated input, as the program sees it: two
// databases plus the query and match text a user would send.
type env struct {
	w               workload
	seed            int64
	sc              *datagen.Scenario
	rel1            string
	q1, q2, matches string
	popt            linkage.PairOptions
	payload         []byte // the served /explain request
}

func newEnv(w workload, seed int64) (*env, error) {
	sc := datagen.GenerateScenario(datagen.ScenarioSpec{
		Rows: w.rows, Vocab: w.rows / 10, WordsPerKey: 3,
		Disagree: 0.01, Noise: 0.05, NoiseKind: "typo", Skew: 1.5,
		Seed: seed,
	})
	parts := make([]string, len(sc.Mattr))
	for i, am := range sc.Mattr {
		parts[i] = am.String()
	}
	e := &env{
		w: w, seed: seed, sc: sc, rel1: sc.Spec.Name + "1",
		q1: sc.Q1.String(), q2: sc.Q2.String(), matches: strings.Join(parts, "\n"),
		popt: linkage.DefaultPairOptions(),
	}
	e.popt.MinSim = minSim
	var err error
	e.payload, err = json.Marshal(serve.Request{
		Dataset: dataset, Q1: e.q1, Q2: e.q2, Matches: e.matches,
		BatchSize: w.batch, MinSim: minSim,
	})
	return e, err
}

func (e *env) params() core.Params {
	return explain3d.CoreParams(&explain3d.Options{BatchSize: e.w.batch})
}

func (e *env) parse() (q1, q2 *sqlparse.Select, mattr schemamap.Matching, err error) {
	if q1, err = sqlparse.Parse(e.q1); err != nil {
		return nil, nil, nil, err
	}
	if q2, err = sqlparse.Parse(e.q2); err != nil {
		return nil, nil, nil, err
	}
	if mattr, err = schemamap.ParseAll(e.matches); err != nil {
		return nil, nil, nil, err
	}
	if !mattr.Comparable() {
		return nil, nil, nil, fmt.Errorf("queries are not comparable")
	}
	return q1, q2, mattr, nil
}

// explain is the one-shot op: query text through core.ExplainContext,
// ConvertResult and json.Marshal, on db1 (the initial or a post-delta
// generation) against the scenario's db2.
func (e *env) explain(ctx context.Context, db1 *relation.Database) ([]byte, *core.Result, error) {
	q1, q2, mattr, err := e.parse()
	if err != nil {
		return nil, nil, err
	}
	res, err := core.ExplainContext(ctx, core.Input{
		DB1: db1, DB2: e.sc.DB2, Q1: q1, Q2: q2, Mattr: mattr, PairOpts: &e.popt,
	}, e.params())
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(explain3d.ConvertResult(res, true))
	return body, res, err
}

// checkResult is the check every explanation passes, outside the timed
// window: no solver budget expired, and the explanation is complete.
func checkResult(res *core.Result) error {
	if res.Stats.TimedOut {
		return fmt.Errorf("solver budget expired")
	}
	return core.CheckComplete(res.Instance, res.Expl)
}

// spans is one traced op: the time spent in each layer call and the
// counts seen at the layer boundaries.
type spans struct {
	ms     map[string]float64
	counts map[string]float64
	wall   float64 // the whole op, glue between the calls included
}

func newSpans() *spans {
	return &spans{ms: map[string]float64{}, counts: map[string]float64{}}
}

// time runs one layer call and adds its duration to the layer.
func (s *spans) time(layer string, f func() error) error {
	t := time.Now()
	err := f()
	s.ms[layer] += msSince(t)
	return err
}

// covered sums the layer times.
func (s *spans) covered() float64 {
	sum := 0.0
	for _, name := range sortedKeys(s.ms) {
		sum += s.ms[name]
	}
	return sum
}

// tracedExplain replays the one-shot op as the public calls the program
// makes, one layer at a time. core.BuildStage1 runs the two sides
// concurrently; this replay runs them one after the other, which is part
// of the trace overhead.
func (e *env) tracedExplain(ctx context.Context, db1 *relation.Database, s *spans) ([]byte, *core.Result, error) {
	start := time.Now()
	defer func() { s.wall = msSince(start) }()
	var (
		q1, q2 *sqlparse.Select
		mattr  schemamap.Matching
		p1, p2 *query.Provenance
		t1, t2 *core.Canonical
		raw    []linkage.Match
		inst   *core.Instance
		expl   *core.Explanations
		stats  *core.Stats
	)
	params := e.params()
	err := s.time("sqlparse.parse_ms", func() (err error) {
		q1, q2, mattr, err = e.parse()
		return err
	})
	if err == nil {
		err = s.time("query.extract_ms", func() (err error) {
			if p1, err = query.Extract(q1, db1); err != nil {
				return err
			}
			p2, err = query.Extract(q2, e.sc.DB2)
			return err
		})
	}
	if err == nil {
		s.counts["query.prov_rows"] = float64(p1.Rel.Len() + p2.Rel.Len())
		err = s.time("core.canonicalize_ms", func() (err error) {
			if t1, err = core.Canonicalize(p1, mattr.LeftAttrs()); err != nil {
				return err
			}
			t2, err = core.Canonicalize(p2, mattr.RightAttrs())
			return err
		})
	}
	if err == nil {
		s.counts["core.canon_tuples"] = float64(t1.Len() + t2.Len())
		err = s.time("linkage.similarities_ms", func() (err error) {
			raw, err = core.RawSimilarities(t1, t2, mattr, e.popt)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	s.counts["linkage.candidates"] = float64(len(raw))
	st := &core.Stage1{Prov1: p1, Prov2: p2, T1: t1, T2: t2, Mattr: mattr, RawMatches: raw}
	_ = s.time("core.instance_ms", func() error {
		inst = st.Instance(nil, 0)
		return nil
	})
	s.counts["core.matches"] = float64(len(inst.Matches))
	if err := s.time("core.solve_ms", func() (err error) {
		expl, stats, err = core.SolveInstanceContext(ctx, inst, params)
		return err
	}); err != nil {
		return nil, nil, err
	}
	milpCounts(s, stats)
	res := &core.Result{Prov1: p1, Prov2: p2, T1: t1, T2: t2, Instance: inst, Expl: expl, Stats: *stats}
	body, err := s.convert(res)
	return body, res, err
}

// convert is the back of every explain: ConvertResult without the
// summary, the Stage-3 summaries of both sides, and the marshal.
func (s *spans) convert(res *core.Result) ([]byte, error) {
	var out *explain3d.Result
	var body []byte
	_ = s.time("explain3d.convert_ms", func() error {
		out = explain3d.ConvertResult(res, false)
		return nil
	})
	_ = s.time("summarize.ms", func() error {
		out.Summary = summarize(res)
		return nil
	})
	err := s.time("explain3d.marshal_ms", func() (err error) {
		body, err = json.Marshal(out)
		return err
	})
	s.counts["explain3d.body_bytes"] = float64(len(body))
	return body, err
}

// summarize is Stage 3 as ConvertResult runs it, one side after the other
// (ConvertResult runs the two sides concurrently).
func summarize(res *core.Result) []string {
	var lines []string
	for si, side := range []core.Side{core.Left, core.Right} {
		for _, p := range experiments.SummarizeSide(res, res.Expl, side) {
			lines = append(lines, fmt.Sprintf("[Q%d] %s (%d tuples, %d false positives)", si+1, p, p.Covered, p.FalsePos))
		}
	}
	return lines
}

// probePartition times graph.SmartPartition on the instance's match graph,
// apart from the op. A whole-model workload (BatchSize 0) never
// partitions; its probe packs everything into one batch, which still runs
// the pre-partitioning pass.
func probePartition(inst *core.Instance, params core.Params, probe *spans) error {
	bip := graph.NewBipartite(inst.T1.Len(), inst.T2.Len())
	for _, m := range inst.Matches {
		bip.AddMatch(m.L, m.R, m.P)
	}
	opt := params.Smart
	opt.BatchSize = params.BatchSize
	if opt.BatchSize <= 0 {
		opt.BatchSize = bip.Size()
	}
	var parts [][]int
	err := probe.time("graph.partition_ms", func() (err error) {
		parts, err = graph.SmartPartition(bip, opt)
		return err
	})
	probe.counts["graph.partitions"] = float64(len(parts))
	return err
}

func milpCounts(s *spans, st *core.Stats) {
	s.counts["milp.vars"] = float64(st.MILPVars)
	s.counts["milp.rows"] = float64(st.MILPRows)
	s.counts["milp.nodes"] = float64(st.Nodes)
	s.counts["milp.iters"] = float64(st.Iters)
	s.counts["milp.dense_blocks"] = float64(st.DenseBlocks)
	s.counts["milp.sparse_blocks"] = float64(st.SparseBlocks)
}

// server is an explaind instance on loopback HTTP with one closed-loop
// client. db1 mirrors the server's current db1 generation: every delta
// the client posts is also applied locally, so the served body can be
// checked against a fresh one-shot explain on the same data.
type server struct {
	e      *env
	srv    *serve.Server
	ts     *httptest.Server
	hc     *http.Client
	db1    *relation.Database
	deltas int          // batches posted so far; seeds the next one
	last   []byte       // the latest explained body
	buf    bytes.Buffer // response buffer reused across requests
}

// startServer is the served set-up: New, Register and the listener.
func startServer(e *env) (*server, error) {
	srv := serve.New(serve.Options{})
	if err := srv.Register(dataset, e.sc.DB1, e.sc.DB2); err != nil {
		srv.Close()
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &server{e: e, srv: srv, ts: ts, hc: ts.Client(), db1: e.sc.DB1}, nil
}

func (s *server) close() {
	s.ts.Close()
	s.srv.Close()
}

// reply is one HTTP response as the client saw it. body aliases the
// client's response buffer and is valid until the next request.
type reply struct {
	body     []byte
	cache    string  // X-Explaind-Cache
	serverMs float64 // X-Explaind-Elapsed-Ms
	ms       float64 // client round trip
}

func (s *server) post(path string, payload []byte) (reply, error) {
	t := time.Now()
	resp, err := s.hc.Post(s.ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	// Reading into a reused buffer keeps the client from allocating a
	// 4 MB body per request, garbage that would slow the server's own
	// allocations through the shared collector.
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	body := s.buf.Bytes()
	rp := reply{body: body, cache: resp.Header.Get("X-Explaind-Cache"), ms: msSince(t)}
	if err != nil {
		return rp, fmt.Errorf("%s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return rp, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Explaind-Elapsed-Ms"); h != "" {
		if rp.serverMs, err = strconv.ParseFloat(h, 64); err != nil {
			return rp, fmt.Errorf("%s: elapsed header %q: %w", path, h, err)
		}
	}
	return rp, nil
}

// explain requests the workload's explanation and checks the cache
// disposition; a hit must repeat the latest body byte for byte.
func (s *server) explain(want string) (reply, error) {
	rp, err := s.post("/explain", s.e.payload)
	if err != nil {
		return rp, err
	}
	if rp.cache != want {
		return rp, fmt.Errorf("explain: X-Explaind-Cache %q, want %q", rp.cache, want)
	}
	if want == "hit" {
		if !bytes.Equal(rp.body, s.last) {
			return rp, fmt.Errorf("explain: cache hit body differs from the body it cached")
		}
		return rp, nil
	}
	s.last = bytes.Clone(rp.body)
	return rp, nil
}

func (s *server) stats() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := s.hc.Get(s.ts.URL + "/stats")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// nextDelta draws the next batch: 1% of the rows updated in one clustered
// range, seeded by the workload seed and the number of batches so far.
func (s *server) nextDelta() (relation.Delta, error) {
	r, err := s.db1.Relation(s.e.rel1)
	if err != nil {
		return relation.Delta{}, err
	}
	return s.e.sc.GenerateDelta(r, datagen.DeltaSpec{
		Updates: max(1, s.e.w.rows/100), Clustered: true,
		Seed: s.e.seed<<20 + int64(s.deltas),
	})
}

// postDelta sends a batch over the wire and mirrors it locally.
func (s *server) postDelta(d relation.Delta) (reply, error) {
	wd := serve.RelationDelta{Deletes: d.Deletes}
	for _, t := range d.Appends {
		wd.Appends = append(wd.Appends, tupleJSON(t))
	}
	for _, u := range d.Updates {
		wd.Updates = append(wd.Updates, serve.RowUpdate{Row: u.Row, Values: tupleJSON(u.Values)})
	}
	payload, err := json.Marshal(serve.DeltaRequest{DB1: map[string]serve.RelationDelta{s.e.rel1: wd}})
	if err != nil {
		return reply{}, err
	}
	rp, err := s.post("/datasets/"+dataset+"/delta", payload)
	if err != nil {
		return rp, err
	}
	s.deltas++
	s.db1, _, err = s.db1.ApplyDelta(relation.DBDelta{s.e.rel1: d})
	return rp, err
}

func tupleJSON(t relation.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case relation.KindString:
			out[i] = v.Str()
		case relation.KindInt:
			out[i] = v.IntVal()
		case relation.KindFloat:
			out[i] = v.FloatVal()
		case relation.KindBool:
			out[i] = v.BoolVal()
		}
	}
	return out
}

// replay is the served path as library calls, the sequence
// serve.buildPrefix and serve.solve run: build both sides, build the right
// side's candidate index, scan, then on each delta apply it, rebuild the
// changed side, advance the prefix and re-solve through a solution cache.
type replay struct {
	e     *env
	db1   *relation.Database
	mattr schemamap.Matching
	q1    *sqlparse.Select
	side2 *core.BuiltSide
	pp    *core.PairPrefix
	cache *core.SolveCache
}

// replayCold builds the prefix from scratch and solves it.
func (e *env) replayCold(ctx context.Context, s *spans) (*replay, []byte, *core.Result, error) {
	start := time.Now()
	q1, q2, mattr, err := e.parse()
	if err != nil {
		return nil, nil, nil, err
	}
	rp := &replay{e: e, db1: e.sc.DB1, mattr: mattr, q1: q1, cache: core.NewSolveCache(0)}
	var side1 *core.BuiltSide
	var pi *core.PairIndex
	err = s.time("core.build_side_ms", func() (err error) {
		if side1, err = core.BuildSide(q1, rp.db1, mattr.LeftAttrs(), "Q1"); err != nil {
			return err
		}
		rp.side2, err = core.BuildSide(q2, e.sc.DB2, mattr.RightAttrs(), "Q2")
		return err
	})
	if err == nil {
		err = s.time("linkage.index_build_ms", func() (err error) {
			pi, err = core.BuildPairIndex(rp.side2.Canon, mattr, e.popt)
			return err
		})
	}
	if err == nil {
		err = s.time("linkage.scan_ms", func() (err error) {
			rp.pp, err = core.BuildPairPrefixFrom(side1, rp.side2, mattr, pi, e.params().Workers)
			return err
		})
	}
	if err != nil {
		return nil, nil, nil, err
	}
	body, res, err := rp.solve(ctx, s)
	s.wall = msSince(start)
	return rp, body, res, err
}

// apply applies one delta to the replay's db1, as the server does on the
// delta POST.
func (rp *replay) apply(d relation.Delta, s *spans) error {
	var ndb *relation.Database
	var dres map[string]*relation.DeltaResult
	if err := s.time("relation.apply_delta_ms", func() (err error) {
		ndb, dres, err = rp.db1.ApplyDelta(relation.DBDelta{rp.e.rel1: d})
		if err == nil {
			ndb.FreezeDicts()
		}
		return err
	}); err != nil {
		return err
	}
	rp.db1 = ndb
	changed := 0
	for _, name := range sortedKeys(dres) {
		changed += dres[name].Appended + dres[name].Updated + dres[name].Deleted
	}
	s.counts["relation.rows_changed"] = float64(changed)
	return nil
}

// reexplain is the first explain after a delta: rebuild the changed side
// (side 2 read nothing the delta touched, so the server reuses it), advance
// the prefix and re-solve through the solution cache.
func (rp *replay) reexplain(ctx context.Context, s *spans) ([]byte, *core.Result, error) {
	start := time.Now()
	var side1 *core.BuiltSide
	var diff core.PairDiff
	err := s.time("core.build_side_ms", func() (err error) {
		side1, err = core.BuildSide(rp.q1, rp.db1, rp.mattr.LeftAttrs(), "Q1")
		return err
	})
	if err == nil {
		err = s.time("core.advance_ms", func() (err error) {
			rp.pp, diff, err = rp.pp.Advance(side1, rp.side2, rp.e.params().Workers)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	s.counts["core.dirty_rows"] = float64(diff.Dirty1 + diff.Dirty2)
	s.counts["core.matches_rescored"] = float64(diff.MatchesRescored)
	s.counts["core.matches_kept"] = float64(diff.MatchesKept)
	body, res, err := rp.solve(ctx, s)
	s.wall = msSince(start)
	return body, res, err
}

func (rp *replay) solve(ctx context.Context, s *spans) ([]byte, *core.Result, error) {
	var res *core.Result
	if err := s.time("core.prefix_solve_ms", func() (err error) {
		res, err = core.ExplainPrefixContext(ctx, rp.pp, nil, 0, rp.e.params(), rp.cache)
		return err
	}); err != nil {
		return nil, nil, err
	}
	s.counts["solution_hits"] = float64(res.Stats.SolveCacheHits)
	s.counts["solution_misses"] = float64(res.Stats.SolveCacheMisses)
	body, err := s.convert(res)
	return body, res, err
}
