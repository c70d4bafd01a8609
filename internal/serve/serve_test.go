package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	explain3d "explain3d"
	"explain3d/internal/core"
	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/schemamap"
	"explain3d/internal/serve"
	"explain3d/internal/sqlparse"
)

func academicSpec() datagen.AcademicSpec {
	return datagen.AcademicSpec{
		Name:     "UMass",
		Matching: 30, MultiDegree: 10, TripleDegree: 3, MultiDegreeWrong: 6,
		MissingAssoc: 6, MissingOther: 5, AgencyOnly: 4,
		Renamed: 3, HardRenamed: 2, CorruptCounts: 3,
		Seed: 7,
	}
}

func matchText(m schemamap.Matching) string {
	parts := make([]string, len(m))
	for i, am := range m {
		parts[i] = am.String()
	}
	return strings.Join(parts, "\n")
}

// baseRequest renders the academic pair as a serve request with small
// batches so every MILP sub-problem stays trivial.
func baseRequest(pair *datagen.Academic) serve.Request {
	return serve.Request{
		Dataset:   "acad",
		Q1:        pair.Q1.String(),
		Q2:        pair.Q2.String(),
		Matches:   matchText(pair.Mattr),
		BatchSize: 16,
	}
}

func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server, *datagen.Academic) {
	t.Helper()
	pair := datagen.GenerateAcademic(academicSpec())
	s := serve.New(opts)
	if err := s.Register("acad", pair.DB1, pair.DB2); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, pair
}

func post(t *testing.T, url string, rq serve.Request) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/explain", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// oneShot computes the reference body for a request: a fresh one-shot
// Explain over an independently generated (deterministic) copy of the
// dataset pair, with the exact parameter resolution the server applies.
func oneShot(t *testing.T, rq serve.Request) []byte {
	t.Helper()
	pair := datagen.GenerateAcademic(academicSpec())
	q1, err := sqlparse.Parse(rq.Q1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := sqlparse.Parse(rq.Q2)
	if err != nil {
		t.Fatal(err)
	}
	mattr, err := schemamap.ParseAll(rq.Matches)
	if err != nil {
		t.Fatal(err)
	}
	popt := linkage.DefaultPairOptions()
	if rq.MinSharedTokens > 0 {
		popt.MinSharedTokens = rq.MinSharedTokens
	}
	params := explain3d.CoreParams(&explain3d.Options{
		Alpha: rq.Alpha, Beta: rq.Beta, BatchSize: rq.BatchSize,
		SolverTimeout: time.Duration(rq.TimeoutMS) * time.Millisecond,
		NoSummary:     rq.NoSummary, Workers: rq.Workers,
	})
	res, err := core.ExplainContext(context.Background(), core.Input{
		DB1: pair.DB1, DB2: pair.DB2, Q1: q1, Q2: q2, Mattr: mattr,
		MinProb: rq.MinProb, PairOpts: &popt,
	}, params)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(explain3d.ConvertResult(res, !rq.NoSummary))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServerMatchesOneShot is the differential acceptance test: server
// responses must be byte-identical to fresh one-shot Explain output for
// the same inputs, at every worker count, cold and cached.
func TestServerMatchesOneShot(t *testing.T) {
	_, ts, pair := newTestServer(t, serve.Options{})
	for _, workers := range []int{0, 1, 2} {
		rq := baseRequest(pair)
		rq.Workers = workers
		want := oneShot(t, rq)
		resp, got := post(t, ts.URL, rq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, got)
		}
		if d := resp.Header.Get("X-Explaind-Cache"); d != "miss" {
			t.Fatalf("workers=%d: first request disposition %q, want miss", workers, d)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: server body differs from one-shot Explain:\n%s\nvs\n%s", workers, got, want)
		}
		resp, again := post(t, ts.URL, rq)
		if d := resp.Header.Get("X-Explaind-Cache"); d != "hit" {
			t.Fatalf("workers=%d: repeat disposition %q, want hit", workers, d)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("workers=%d: cached body differs from one-shot Explain", workers)
		}
	}
}

// TestServerCanonicalizationCacheHit posts a textual variant of an
// already-answered query — extra whitespace, lowercase keywords — and
// expects a cache hit, not a second solve.
func TestServerCanonicalizationCacheHit(t *testing.T) {
	s, ts, pair := newTestServer(t, serve.Options{})
	rq := baseRequest(pair)
	resp, first := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	variant := rq
	variant.Q1 = "  " + strings.ReplaceAll(strings.Replace(rq.Q1, "SELECT", "select", 1), " ", "  ")
	variant.Matches = strings.ReplaceAll(rq.Matches, " == ", "   ==   ")
	resp, got := post(t, ts.URL, variant)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("variant status %d: %s", resp.StatusCode, got)
	}
	if d := resp.Header.Get("X-Explaind-Cache"); d != "hit" {
		t.Fatalf("variant disposition %q, want hit", d)
	}
	if !bytes.Equal(got, first) {
		t.Fatal("variant body differs from original")
	}
	if m := s.Metrics(); m.Solves != 1 {
		t.Fatalf("Solves = %d, want 1 (canonicalization must dedupe)", m.Solves)
	}
	if m := s.Metrics(); m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1 (cold miss, canonicalized hit)",
			m.CacheHits, m.CacheMisses)
	}
}

// TestSingleFlight fires concurrent identical requests while the solve is
// held open and asserts exactly one solve ran and every response is
// byte-identical.
func TestSingleFlight(t *testing.T) {
	s, ts, pair := newTestServer(t, serve.Options{})
	release := make(chan struct{})
	s.SolveHook = func() { <-release }
	rq := baseRequest(pair)

	const n = 6
	type reply struct {
		status      int
		disposition string
		body        []byte
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			payload, _ := json.Marshal(rq)
			resp, err := http.Post(ts.URL+"/explain", "application/json", bytes.NewReader(payload))
			if err != nil {
				replies <- reply{status: -1}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Explaind-Cache"), body}
		}()
	}
	// Wait for all but the starter to pile onto the flight, then let the
	// solve proceed.
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().FlightJoins < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d flight joins", s.Metrics().FlightJoins)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release)

	var first []byte
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("reply %d: status %d", i, r.status)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Fatal("concurrent identical requests got different bodies")
		}
	}
	if m := s.Metrics(); m.Solves != 1 {
		t.Fatalf("Solves = %d, want exactly 1", m.Solves)
	}
	// And the result is now cached.
	resp, body := post(t, ts.URL, rq)
	if d := resp.Header.Get("X-Explaind-Cache"); d != "hit" {
		t.Fatalf("follow-up disposition %q, want hit", d)
	}
	if !bytes.Equal(body, first) {
		t.Fatal("cached body differs")
	}
}

// TestEvictionResolve runs with a one-entry cache: a second distinct
// request evicts the first, whose repeat must re-solve to the identical
// body.
func TestEvictionResolve(t *testing.T) {
	s, ts, pair := newTestServer(t, serve.Options{CacheSize: 1})
	rqA := baseRequest(pair)
	rqB := baseRequest(pair)
	rqB.Alpha = 0.95

	_, bodyA := post(t, ts.URL, rqA)
	_, bodyB := post(t, ts.URL, rqB)
	if bytes.Equal(bodyA, bodyB) {
		t.Fatal("distinct parameters should give distinct results here")
	}
	resp, again := post(t, ts.URL, rqA)
	if d := resp.Header.Get("X-Explaind-Cache"); d != "miss" {
		t.Fatalf("evicted repeat disposition %q, want miss (re-solve)", d)
	}
	if !bytes.Equal(again, bodyA) {
		t.Fatal("re-solved body differs from the original solve")
	}
	if m := s.Metrics(); m.Solves != 3 {
		t.Fatalf("Solves = %d, want 3 (A, B, evicted A)", m.Solves)
	}
	if m := s.Metrics(); m.CachedBodies != 1 {
		t.Fatalf("CachedBodies = %d, want 1", m.CachedBodies)
	}
	// B's insert evicted A, re-solved A's insert evicted B.
	if m := s.Metrics(); m.Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", m.Evictions)
	}
	if m := s.Metrics(); m.CacheMisses != 3 || m.CacheHits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/3 (every request missed)",
			m.CacheHits, m.CacheMisses)
	}
}

// TestClientDisconnectCancelsSolve aborts the only client of an in-flight
// solve and checks the abandoned result is not cached: the repeat request
// re-solves from scratch and succeeds.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	s, ts, pair := newTestServer(t, serve.Options{})
	release := make(chan struct{})
	s.SolveHook = func() { <-release }
	rq := baseRequest(pair)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		payload, _ := json.Marshal(rq)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/explain", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/json")
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request register its flight
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled client request should error")
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Cancelled < 1 {
		if time.Now().After(deadline) {
			t.Fatal("server never observed the disconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(release) // the abandoned solve now runs under a cancelled context

	resp, body := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if d := resp.Header.Get("X-Explaind-Cache"); d != "miss" {
		t.Fatalf("post-abort disposition %q, want miss (abandoned result must not be cached)", d)
	}
	if !bytes.Equal(body, oneShot(t, rq)) {
		t.Fatal("post-abort body differs from one-shot Explain")
	}
}

// TestRequestValidation covers the error paths.
func TestRequestValidation(t *testing.T) {
	_, ts, pair := newTestServer(t, serve.Options{})
	cases := []struct {
		name   string
		mutate func(*serve.Request)
		status int
	}{
		{"unknown dataset", func(rq *serve.Request) { rq.Dataset = "nope" }, http.StatusNotFound},
		{"bad q1", func(rq *serve.Request) { rq.Q1 = "SELEC oops" }, http.StatusBadRequest},
		{"bad q2", func(rq *serve.Request) { rq.Q2 = "" }, http.StatusBadRequest},
		{"bad matches", func(rq *serve.Request) { rq.Matches = "garbage" }, http.StatusBadRequest},
		{"empty matches", func(rq *serve.Request) { rq.Matches = "" }, http.StatusBadRequest},
		{"negative timeout", func(rq *serve.Request) { rq.TimeoutMS = -1 }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		rq := baseRequest(pair)
		tc.mutate(&rq)
		resp, body := post(t, ts.URL, rq)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /explain: status %d", resp.StatusCode)
	}
}

// TestAuxEndpoints covers /datasets, /stats, and /healthz.
func TestAuxEndpoints(t *testing.T) {
	_, ts, pair := newTestServer(t, serve.Options{})
	resp, err := http.Get(ts.URL + "/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var infos []struct {
		Name  string `json:"name"`
		Rows1 int    `json:"rows1"`
		Rows2 int    `json:"rows2"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "acad" || infos[0].Rows1 != pair.DB1.TotalRows() {
		t.Fatalf("datasets = %+v", infos)
	}
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Datasets != 1 {
		t.Fatalf("stats datasets = %d", m.Datasets)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestOversizedBodyRejected: an /explain or delta body over the size bound
// is answered 413 and counted in errors, and the server keeps serving.
func TestOversizedBodyRejected(t *testing.T) {
	s, ts, pair := newTestServer(t, serve.Options{})
	huge := `{"dataset":"` + strings.Repeat("x", serve.MaxBodyBytes) + `"}`
	for _, path := range []string{"/explain", "/datasets/acad/delta"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413", path, resp.StatusCode)
		}
	}
	if m := s.Metrics(); m.Errors != 2 {
		t.Fatalf("errors = %d, want 2", m.Errors)
	}
	rq := baseRequest(pair)
	resp, body := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after 413: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, oneShot(t, rq)) {
		t.Fatal("request after 413: body differs from one-shot Explain")
	}
}

// TestSolvePanicRecovered: a panic inside a solve answers 500, counts in
// errors and caches nothing; the next identical request solves cleanly.
func TestSolvePanicRecovered(t *testing.T) {
	s, ts, pair := newTestServer(t, serve.Options{})
	var panicked atomic.Bool
	s.SolveHook = func() {
		if panicked.CompareAndSwap(false, true) {
			panic("injected solve failure")
		}
	}
	rq := baseRequest(pair)
	resp, body := post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, want 500 (%s)", resp.StatusCode, body)
	}
	if m := s.Metrics(); m.Errors != 1 || m.CachedBodies != 0 {
		t.Fatalf("after panic: errors = %d, cached bodies = %d, want 1 and 0", m.Errors, m.CachedBodies)
	}
	resp, body = post(t, ts.URL, rq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status %d: %s", resp.StatusCode, body)
	}
	if d := resp.Header.Get("X-Explaind-Cache"); d != "miss" {
		t.Fatalf("request after panic: disposition %q, want miss (the failed flight must not be cached)", d)
	}
	if !bytes.Equal(body, oneShot(t, rq)) {
		t.Fatal("request after panic: body differs from one-shot Explain")
	}
}
