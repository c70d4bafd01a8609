// Package serve implements explanation-as-a-service: a resident HTTP/JSON
// server that loads dataset pairs once into shared immutable state and
// answers explanation requests concurrently.
//
// The paper frames explanation as an interactive debugging loop — users
// iterate on query pairs over the same datasets — so the server is built
// around reuse across requests:
//
//   - datasets are registered once; their dictionaries are frozen
//     (relation.Dict.Freeze) so concurrent readers take the lock-free path;
//   - each side's Stage-1 prefix (provenance + canonicalization), the right
//     side's candidate index (core.PairIndex), and the full pair prefix
//     (core.PairPrefix) are built once per canonical (query, matches) and
//     shared;
//   - finished responses are cached in an LRU keyed on the canonicalized
//     (dataset-pair, query-pair, matches, params) tuple;
//   - concurrent identical requests share one solve (single-flight), and a
//     solve whose every client disconnected is cancelled through the
//     request-context machinery (core.ExplainContext → milp.SolveContext).
//
// Datasets are versioned: POST /datasets/{name}/delta applies a
// copy-on-write append/update/delete batch, atomically publishing a new
// immutable generation while in-flight requests keep reading the old one.
// Deltas invalidate only the result-cache entries whose queries read a
// touched relation; Stage-1 prefixes advance incrementally from the
// nearest cached ancestor generation (core.PairPrefix.Advance), and
// unchanged MILP partitions replay from a per-dataset solution cache.
//
// Response bodies are byte-identical to one-shot Explain output for the
// same inputs; cache disposition, timing, and the data version travel in
// headers (X-Explaind-Cache, X-Explaind-Elapsed-Ms, X-Explaind-Version),
// never in the body.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
	"explain3d/internal/schemamap"
	"explain3d/internal/sqlparse"
)

// Request is the POST /explain body. Zero-valued fields mean the library
// defaults (Options zero-value conventions), so a minimal request is just
// the dataset name, the two queries, and the attribute matches.
type Request struct {
	Dataset string `json:"dataset"`
	Q1      string `json:"q1"`
	Q2      string `json:"q2"`
	Matches string `json:"matches"`
	// Alpha/Beta are the coverage/correctness priors (0 = 0.9 default).
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	// BatchSize > 0 enables smart partitioning with that sub-problem bound.
	BatchSize int `json:"batch_size,omitempty"`
	// TimeoutMS bounds the solver (0 = 60s default). Negative values are
	// rejected with 400: a client cannot switch the solver budget off.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Workers is the per-request parallelism budget (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// MinSharedTokens raises the blocking threshold of the initial mapping.
	MinSharedTokens int `json:"min_shared_tokens,omitempty"`
	// MinSim drops candidate pairs below this similarity (0 = library
	// default).
	MinSim float64 `json:"min_sim,omitempty"`
	// Shards splits the candidate index into that many token-hash shards
	// (0 = library default, 1 = unsharded).
	Shards int `json:"shards,omitempty"`
	// MinProb drops initial matches below this probability (0 = 0.02).
	MinProb float64 `json:"min_prob,omitempty"`
	// NoSummary disables Stage-3 pattern summaries.
	NoSummary bool `json:"no_summary,omitempty"`
}

// Options tunes the server.
type Options struct {
	// CacheSize bounds the result cache (entries; default 128).
	CacheSize int
	// MaxWorkers caps the per-request Workers budget (0 = uncapped).
	MaxWorkers int
}

// ConflictError reports a Register against a name that is already taken.
// Callers distinguish it from other registration failures with errors.As.
type ConflictError struct {
	// Name is the dataset name that was already registered.
	Name string
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("serve: dataset %q already registered", e.Name)
}

// Metrics is a point-in-time snapshot of the server's counters.
type Metrics struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Evictions counts result-cache entries dropped by the LRU capacity
	// bound; a high rate relative to CacheHits means CacheSize is too small
	// for the working set.
	Evictions    int64 `json:"evictions"`
	FlightJoins  int64 `json:"flight_joins"`
	Solves       int64 `json:"solves"`
	SideBuilds   int64 `json:"side_builds"`
	IndexBuilds  int64 `json:"index_builds"`
	Cancelled    int64 `json:"cancelled"`
	Errors       int64 `json:"errors"`
	CachedBodies int64 `json:"cached_bodies"`
	Datasets     int64 `json:"datasets"`
	// DeltasApplied counts delta batches accepted; DeltaRows totals their
	// appended+updated+deleted rows.
	DeltasApplied int64 `json:"deltas_applied"`
	DeltaRows     int64 `json:"delta_rows"`
	// Invalidated counts result-cache entries dropped because a delta
	// touched a relation their queries read.
	Invalidated int64 `json:"invalidated"`
	// PrefixAdvances counts Stage-1 prefixes advanced incrementally from an
	// ancestor generation; PrefixBuilds counts prefixes built from scratch.
	PrefixAdvances int64 `json:"prefix_advances"`
	PrefixBuilds   int64 `json:"prefix_builds"`
	// DirtyPartitions totals solution-cache misses of solves that ran on an
	// incrementally advanced prefix — the partitions a delta actually
	// dirtied (per delta: DirtyPartitions / DeltasApplied).
	DirtyPartitions int64 `json:"dirty_partitions"`
	// SolutionHits/SolutionMisses aggregate the per-dataset solution caches;
	// the hit rate is the fraction of MILP sub-problems never re-solved.
	SolutionHits   int64 `json:"solution_hits"`
	SolutionMisses int64 `json:"solution_misses"`
}

// sideEntry / indexEntry build a cached prefix exactly once; concurrent
// requests for the same key share the build through the sync.Once. done
// flips after the Once completes so ancestor walks can check for a
// finished build without blocking behind an in-flight one.
type sideEntry struct {
	once sync.Once
	side *core.BuiltSide
	err  error
	done atomic.Bool
}

type indexEntry struct {
	once sync.Once
	ix   *core.PairIndex
	err  error
}

// prefixEntry is one pair prefix under construction or built; done closes
// when pp/diff/err are final, so ancestor walks can check completion
// without blocking.
type prefixEntry struct {
	done chan struct{}
	// pp/advanced/err are written by the builder before close(done).
	pp       *core.PairPrefix
	advanced bool
	err      error
}

// dataVersion is one immutable copy-on-write generation of a dataset pair,
// plus the per-(query, matches) Stage-1 caches built against it. In-flight
// requests hold the generation they started on; a delta publishes a new
// one without disturbing them.
type dataVersion struct {
	version  int64
	db1, db2 *relation.Database
	// parent links to the previous generation so prefixes can advance
	// incrementally; the chain is trimmed to maxVersionChain so retired
	// generations (and their caches) become collectable.
	parent atomic.Pointer[dataVersion]

	mu sync.Mutex
	// guarded by mu
	sides map[string]*sideEntry
	// guarded by mu
	indexes map[string]*indexEntry
	// guarded by mu
	prefixes map[string]*prefixEntry
}

// maxVersionChain bounds how many ancestor generations stay reachable for
// incremental prefix advance.
const maxVersionChain = 8

func newDataVersion(version int64, db1, db2 *relation.Database) *dataVersion {
	return &dataVersion{
		version: version, db1: db1, db2: db2,
		//lint:ignore guarded constructor: the fresh version is not shared until published
		sides: make(map[string]*sideEntry), indexes: make(map[string]*indexEntry), prefixes: make(map[string]*prefixEntry),
	}
}

func (v *dataVersion) side(key string, build func() (*core.BuiltSide, error)) (*core.BuiltSide, error) {
	v.mu.Lock()
	e, ok := v.sides[key]
	if !ok {
		e = &sideEntry{}
		v.sides[key] = e
	}
	v.mu.Unlock()
	e.once.Do(func() { e.side, e.err = build() })
	e.done.Store(true)
	return e.side, e.err
}

// completedSide returns the version's finished, successful side build for
// key, or nil — without blocking on an in-progress build.
func (v *dataVersion) completedSide(key string) *core.BuiltSide {
	v.mu.Lock()
	e := v.sides[key]
	v.mu.Unlock()
	if e != nil && e.done.Load() && e.err == nil {
		return e.side
	}
	return nil
}

// ancestorSide returns the nearest ancestor generation's built side for key
// when every relation the query reads is pointer-identical between the two
// generations. After a delta that touched only other tables — or only the
// opposite database — the copy-on-write chain shares the untouched
// relations, so the ancestor's canonicalized side is reusable verbatim.
func (v *dataVersion) ancestorSide(key string, q *sqlparse.Select, db func(*dataVersion) *relation.Database) *core.BuiltSide {
	for anc := v.parent.Load(); anc != nil; anc = anc.parent.Load() {
		if !sameReadSet(q, db(v), db(anc)) {
			return nil
		}
		if bs := anc.completedSide(key); bs != nil {
			return bs
		}
	}
	return nil
}

// sameReadSet reports whether every relation q reads is the same object in
// both databases.
func sameReadSet(q *sqlparse.Select, a, b *relation.Database) bool {
	for _, t := range q.Tables() {
		ra, errA := a.Relation(t)
		rb, errB := b.Relation(t)
		if errA != nil || errB != nil || ra != rb {
			return false
		}
	}
	return true
}

func (v *dataVersion) index(key string, build func() (*core.PairIndex, error)) (*core.PairIndex, error) {
	v.mu.Lock()
	e, ok := v.indexes[key]
	if !ok {
		e = &indexEntry{}
		v.indexes[key] = e
	}
	v.mu.Unlock()
	e.once.Do(func() { e.ix, e.err = build() })
	return e.ix, e.err
}

// completedPrefix returns the version's finished, successful prefix for
// key, or nil — without blocking on an in-progress build.
func (v *dataVersion) completedPrefix(key string) *core.PairPrefix {
	v.mu.Lock()
	e := v.prefixes[key]
	v.mu.Unlock()
	if e == nil {
		return nil
	}
	select {
	case <-e.done:
		if e.err == nil {
			return e.pp
		}
	default:
	}
	return nil
}

// Dataset is one registered dataset pair. Its data lives in an atomically
// swapped chain of immutable generations; the solution cache is shared
// across generations so unchanged MILP partitions replay for free.
type Dataset struct {
	Name string

	cur atomic.Pointer[dataVersion]
	// deltaMu serializes delta application so versions advance one at a
	// time; readers never take it.
	deltaMu sync.Mutex
	solve   *core.SolveCache
}

// current returns the generation new requests start on.
func (d *Dataset) current() *dataVersion { return d.cur.Load() }

// Version returns the dataset's current data version (0 until the first
// delta).
func (d *Dataset) Version() int64 { return d.current().version }

// SolveCacheStats snapshots the dataset's solution-cache counters.
func (d *Dataset) SolveCacheStats() core.SolveCacheStats { return d.solve.Stats() }

// Server answers explanation requests over registered dataset pairs.
type Server struct {
	opts Options

	mu sync.RWMutex
	// guarded by mu
	datasets map[string]*Dataset

	cache   *resultCache
	flights *flightGroup

	base       context.Context
	baseCancel context.CancelFunc

	requests, cacheHits, cacheMisses, flightJoins, solves atomic.Int64
	sideBuilds, indexBuilds, cancelled, errCount          atomic.Int64
	deltasApplied, deltaRows                              atomic.Int64
	prefixAdvances, prefixBuilds, dirtyPartitions         atomic.Int64

	// SolveHook, when set, runs at the start of every actual solve (after
	// single-flight deduplication). Tests use it to hold solves open while
	// concurrent requests pile onto the flight.
	SolveHook func()
}

// New creates a server.
//
//lint:ctxroot the server owns the base context its solve flights derive from; Close cancels it
func New(opts Options) *Server {
	if opts.CacheSize <= 0 {
		opts.CacheSize = 128
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts: opts,
		//lint:ignore guarded constructor: the fresh server is not shared until returned
		datasets:   make(map[string]*Dataset),
		cache:      newResultCache(opts.CacheSize),
		flights:    newFlightGroup(),
		base:       ctx,
		baseCancel: cancel,
	}
}

// Close cancels every in-flight solve. The server must not be used after.
func (s *Server) Close() { s.baseCancel() }

// Register adds a dataset pair under a name, freezing both databases'
// dictionaries so concurrent request handling reads them lock-free. The
// caller must not mutate the databases afterwards (apply deltas through
// the server instead). A name collision returns a *ConflictError and
// leaves the existing dataset untouched.
func (s *Server) Register(name string, db1, db2 *relation.Database) error {
	if name == "" {
		return fmt.Errorf("serve: dataset name must be non-empty")
	}
	db1.FreezeDicts()
	db2.FreezeDicts()
	ds := &Dataset{Name: name, solve: core.NewSolveCache(0)}
	ds.cur.Store(newDataVersion(0, db1, db2))
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return &ConflictError{Name: name}
	}
	s.datasets[name] = ds
	return nil
}

// Dataset looks a registered dataset up by name.
func (s *Server) Dataset(name string) (*Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.datasets[name]
	return ds, ok
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() Metrics {
	s.mu.RLock()
	n := len(s.datasets)
	var sol core.SolveCacheStats
	for _, ds := range s.datasets {
		st := ds.solve.Stats()
		sol.Hits += st.Hits
		sol.Misses += st.Misses
	}
	s.mu.RUnlock()
	return Metrics{
		Requests:        s.requests.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMisses.Load(),
		Evictions:       s.cache.evicted(),
		FlightJoins:     s.flightJoins.Load(),
		Solves:          s.solves.Load(),
		SideBuilds:      s.sideBuilds.Load(),
		IndexBuilds:     s.indexBuilds.Load(),
		Cancelled:       s.cancelled.Load(),
		Errors:          s.errCount.Load(),
		CachedBodies:    int64(s.cache.len()),
		Datasets:        int64(n),
		DeltasApplied:   s.deltasApplied.Load(),
		DeltaRows:       s.deltaRows.Load(),
		Invalidated:     s.cache.invalidated(),
		PrefixAdvances:  s.prefixAdvances.Load(),
		PrefixBuilds:    s.prefixBuilds.Load(),
		DirtyPartitions: s.dirtyPartitions.Load(),
		SolutionHits:    sol.Hits,
		SolutionMisses:  sol.Misses,
	}
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/datasets", s.handleDatasets)
	mux.HandleFunc("POST /datasets/{name}/delta", s.handleDelta)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	return mux
}

// maxBodyBytes bounds the /explain and delta request bodies. The largest
// bodies the repository's benchmarks send are about 27 KB (a 1%-row update
// batch over 40k rows); explain requests are a few hundred bytes.
const maxBodyBytes = 8 << 20

// limitedDecoder decodes r's body, reading at most maxBodyBytes of it.
func limitedDecoder(w http.ResponseWriter, r *http.Request) *json.Decoder {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
}

// bodyError answers a request whose body failed to decode: 413 when it
// exceeded maxBodyBytes, 400 for malformed JSON.
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	s.errCount.Add(1)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "invalid JSON: %v", err)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	w.Write(body)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	type dsInfo struct {
		Name    string `json:"name"`
		Rows1   int    `json:"rows1"`
		Rows2   int    `json:"rows2"`
		Version int64  `json:"version"`
	}
	s.mu.RLock()
	out := make([]dsInfo, 0, len(s.datasets))
	for _, ds := range s.datasets {
		dv := ds.current()
		out = append(out, dsInfo{Name: ds.Name, Rows1: dv.db1.TotalRows(), Rows2: dv.db2.TotalRows(), Version: dv.version})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics())
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.requests.Add(1)
	start := time.Now()
	var rq Request
	if err := limitedDecoder(w, r).Decode(&rq); err != nil {
		s.bodyError(w, err)
		return
	}
	if rq.TimeoutMS < 0 {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "timeout_ms must not be negative, got %d", rq.TimeoutMS)
		return
	}
	ds, ok := s.Dataset(rq.Dataset)
	if !ok {
		s.errCount.Add(1)
		httpError(w, http.StatusNotFound, "unknown dataset %q", rq.Dataset)
		return
	}
	q1c, q1, err := canonicalQuery(rq.Q1)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "query 1: %v", err)
		return
	}
	q2c, q2, err := canonicalQuery(rq.Q2)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "query 2: %v", err)
		return
	}
	mc, mattr, err := canonicalMatches(rq.Matches)
	if err != nil {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "attribute matches: %v", err)
		return
	}
	if !mattr.Comparable() {
		s.errCount.Add(1)
		httpError(w, http.StatusBadRequest, "queries are not comparable (no attribute matches)")
		return
	}
	if s.opts.MaxWorkers > 0 && (rq.Workers <= 0 || rq.Workers > s.opts.MaxWorkers) {
		rq.Workers = s.opts.MaxWorkers
	}
	key := cacheKey(ds.Name, q1c, q2c, mc, &rq)

	if body, ver, ok := s.cache.get(key); ok {
		s.cacheHits.Add(1)
		writeResult(w, body, "hit", ver, start)
		return
	}
	s.cacheMisses.Add(1)

	f, fctx, started := s.flights.join(key, s.base)
	disposition := "miss"
	if started {
		go s.runFlight(fctx, key, f, ds, &rq, q1, q2, mattr)
	} else {
		s.flightJoins.Add(1)
		disposition = "flight"
	}
	select {
	case <-f.done:
		if f.errMsg != "" {
			s.errCount.Add(1)
			httpError(w, f.status, "%s", f.errMsg)
			return
		}
		writeResult(w, f.body, disposition, f.version, start)
	case <-r.Context().Done():
		// Client gone: detach; the last detachment cancels the solve.
		s.cancelled.Add(1)
		s.flights.leave(key, f)
	}
}

// runFlight executes one deduplicated solve and publishes its result. The
// body enters the cache before the flight completes, so a request issued
// after any response to this flight is a cache hit, never a second solve.
// A panic inside the solve finishes the flight with a 500, which each
// waiter counts in errors; nothing is cached and the process keeps serving.
func (s *Server) runFlight(ctx context.Context, key string, f *flight, ds *Dataset, rq *Request, q1, q2 *sqlparse.Select, mattr schemamap.Matching) {
	defer func() {
		if p := recover(); p != nil {
			s.flights.finish(key, f, nil, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p), ds.current().version)
		}
	}()
	// A prior flight may have finished between this request's cache miss
	// and its flight registration; re-check before paying for a solve.
	if body, ver, ok := s.cache.get(key); ok {
		s.cacheHits.Add(1)
		s.flights.finish(key, f, body, http.StatusOK, "", ver)
		return
	}
	if s.SolveHook != nil {
		s.SolveHook()
	}
	s.solves.Add(1)
	// The whole solve runs against one generation snapshot; a delta landing
	// mid-solve does not disturb it.
	dv := ds.current()
	body, status, errMsg, tags := s.solve(ctx, ds, dv, rq, q1, q2, mattr)
	// An abandoned flight ran under a cancelled context: its output may be
	// a partial incumbent, which must not be served to future requests. A
	// completed solve whose last waiter left after it finished is whole
	// and safe to cache. A solve whose generation was superseded mid-flight
	// is stale: a delta's invalidation sweep already ran, so caching it
	// could resurrect an answer the delta changed.
	if errMsg == "" && !s.flights.wasAbandoned(f) && ds.current() == dv {
		s.cache.put(key, body, ds.Name, tags, dv.version)
	}
	s.flights.finish(key, f, body, status, errMsg, dv.version)
}

// solve runs the explanation on one generation's cached Stage-1 prefix.
func (s *Server) solve(ctx context.Context, ds *Dataset, dv *dataVersion, rq *Request, q1, q2 *sqlparse.Select, mattr schemamap.Matching) (body []byte, status int, errMsg string, tags []string) {
	popt := linkage.DefaultPairOptions()
	if rq.MinSharedTokens > 0 {
		popt.MinSharedTokens = rq.MinSharedTokens
	}
	if rq.MinSim > 0 {
		popt.MinSim = rq.MinSim
	}
	if rq.Shards > 0 {
		popt.Shards = rq.Shards
	}
	params := explain3d.CoreParams(&explain3d.Options{
		Alpha: rq.Alpha, Beta: rq.Beta, BatchSize: rq.BatchSize,
		SolverTimeout: time.Duration(rq.TimeoutMS) * time.Millisecond,
		NoSummary:     rq.NoSummary, Workers: rq.Workers,
	})
	pp, advanced, err := s.prefixFor(dv, q1, q2, mattr, popt, params.Workers)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err.Error(), nil
	}
	res, err := core.ExplainPrefixContext(ctx, pp, nil, rq.MinProb, params, ds.solve)
	if err != nil {
		return nil, http.StatusUnprocessableEntity, err.Error(), nil
	}
	if advanced {
		s.dirtyPartitions.Add(int64(res.Stats.SolveCacheMisses))
	}
	out := explain3d.ConvertResult(res, !rq.NoSummary)
	b, err := json.Marshal(out)
	if err != nil {
		return nil, http.StatusInternalServerError, err.Error(), nil
	}
	return b, http.StatusOK, "", queryTags(q1, q2)
}

// prefixFor returns the generation's pair prefix for the canonical
// (q1, q2, matches, options) tuple, building it at most once: fresh on a
// first-ever ask, or advanced incrementally from the nearest ancestor
// generation that already holds it. advanced reports which path built it.
func (s *Server) prefixFor(dv *dataVersion, q1, q2 *sqlparse.Select, mattr schemamap.Matching, popt linkage.PairOptions, workers int) (pp *core.PairPrefix, advanced bool, err error) {
	q1c, q2c, mc := q1.String(), q2.String(), matchingText(mattr)
	poptSig := fmt.Sprintf("%g|%t|%d|%d", popt.MinSim, popt.Block, popt.MinSharedTokens, popt.Shards)
	key := q1c + "\x1f" + q2c + "\x1f" + mc + "\x1f" + poptSig

	dv.mu.Lock()
	e, ok := dv.prefixes[key]
	if !ok {
		e = &prefixEntry{done: make(chan struct{})}
		dv.prefixes[key] = e
	}
	dv.mu.Unlock()
	if ok {
		<-e.done
		return e.pp, e.advanced, e.err
	}
	defer close(e.done)
	e.pp, e.advanced, e.err = s.buildPrefix(dv, key, q1c, q2c, mc, poptSig, q1, q2, mattr, popt, workers)
	return e.pp, e.advanced, e.err
}

func (s *Server) buildPrefix(dv *dataVersion, key, q1c, q2c, mc, poptSig string, q1, q2 *sqlparse.Select, mattr schemamap.Matching, popt linkage.PairOptions, workers int) (*core.PairPrefix, bool, error) {
	db1of := func(v *dataVersion) *relation.Database { return v.db1 }
	db2of := func(v *dataVersion) *relation.Database { return v.db2 }
	side1, err := dv.side("L\x1f"+q1c+"\x1f"+mc, func() (*core.BuiltSide, error) {
		if bs := dv.ancestorSide("L\x1f"+q1c+"\x1f"+mc, q1, db1of); bs != nil {
			return bs, nil
		}
		s.sideBuilds.Add(1)
		return core.BuildSide(q1, dv.db1, mattr.LeftAttrs(), "Q1")
	})
	if err != nil {
		return nil, false, err
	}
	side2, err := dv.side("R\x1f"+q2c+"\x1f"+mc, func() (*core.BuiltSide, error) {
		if bs := dv.ancestorSide("R\x1f"+q2c+"\x1f"+mc, q2, db2of); bs != nil {
			return bs, nil
		}
		s.sideBuilds.Add(1)
		return core.BuildSide(q2, dv.db2, mattr.RightAttrs(), "Q2")
	})
	if err != nil {
		return nil, false, err
	}
	// Nearest ancestor generation holding this prefix: advance it instead
	// of rebuilding — survivors keep their similarities, the candidate
	// index shares untouched posting lists, and the raw match list stays
	// byte-identical to a fresh build.
	for v := dv.parent.Load(); v != nil; v = v.parent.Load() {
		anc := v.completedPrefix(key)
		if anc == nil {
			continue
		}
		npp, _, err := anc.Advance(side1, side2, workers)
		if err != nil {
			return nil, false, err
		}
		s.prefixAdvances.Add(1)
		return npp, true, nil
	}
	ixKey := q2c + "\x1f" + mc + "\x1f" + poptSig
	pi, err := dv.index(ixKey, func() (*core.PairIndex, error) {
		s.indexBuilds.Add(1)
		return core.BuildPairIndex(side2.Canon, mattr, popt)
	})
	if err != nil {
		return nil, false, err
	}
	s.prefixBuilds.Add(1)
	pp, err := core.BuildPairPrefixFrom(side1, side2, mattr, pi, workers)
	return pp, false, err
}

// queryTags renders the relations the two queries read as side-prefixed
// lowercase tags — the result cache's invalidation scope.
func queryTags(q1, q2 *sqlparse.Select) []string {
	var tags []string
	for _, t := range q1.Tables() {
		tags = append(tags, "1:"+lowerName(t))
	}
	for _, t := range q2.Tables() {
		tags = append(tags, "2:"+lowerName(t))
	}
	return tags
}

// writeResult writes a finished body with cache/timing/version metadata in
// headers, keeping the body byte-identical to one-shot output.
func writeResult(w http.ResponseWriter, body []byte, disposition string, version int64, start time.Time) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Explaind-Cache", disposition)
	w.Header().Set("X-Explaind-Version", fmt.Sprintf("%d", version))
	w.Header().Set("X-Explaind-Elapsed-Ms", fmt.Sprintf("%.3f", float64(time.Since(start).Microseconds())/1000))
	w.Write(body)
}
