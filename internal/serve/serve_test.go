package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// tinySpec is a sub-millisecond coding run: small population, short
// horizon, two replicates, no sweep.
const tinySpec = `{
  "name": "tiny",
  "substrate": "coding",
  "nodes": 24,
  "rounds": 8,
  "replicates": 2,
  "adversary": {"kind": "ideal", "fraction": 0.2, "satiateFraction": 0.5},
  "params": {"symbols": 4, "payload": 8}
}`

// tinySpecVariant is the same spec with reordered keys, extra whitespace,
// and the dead defaults spelled out — a different byte stream, the same
// canonical run.
const tinySpecVariant = `{
  "params": {"payload": 8, "symbols": 4},
  "substrate": "coding",
  "adversary": {"satiateFraction": 0.5, "kind": "ideal", "fraction": 0.2},
  "defense": {"kind": "none"},
  "rounds": 8,
  "nodes": 24,
  "replicates": 2,

  "name": "tiny"
}`

// mustNew builds a Server, failing the test on a construction error.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

func submit(t *testing.T, base, body string) submitResponse {
	t.Helper()
	code, data := postJSON(t, base+"/experiments", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST /experiments: status %d: %s", code, data)
	}
	var resp submitResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("submit response: %v\n%s", err, data)
	}
	return resp
}

// waitDone polls the status endpoint until the job reports done, asserting
// the progress matrix: done counters only ever move forward, and totals —
// exact for fixed runs, a shrinking cap estimate for adaptive ones — only
// ever move down.
func waitDone(t *testing.T, base, key string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	lastDone := -1
	lastTotal := 0
	for time.Now().Before(deadline) {
		code, _, data := getBody(t, base+"/jobs/"+key)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d: %s", key, code, data)
		}
		var st jobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("job status: %v\n%s", err, data)
		}
		if st.ReplicatesTotal > 0 {
			if lastTotal > 0 && st.ReplicatesTotal > lastTotal {
				t.Fatalf("replicatesTotal grew: %d after %d", st.ReplicatesTotal, lastTotal)
			}
			lastTotal = st.ReplicatesTotal
		}
		switch st.Status {
		case StateQueued, StateRunning:
			if st.ReplicatesDone < lastDone {
				t.Fatalf("progress went backwards: %d after %d", st.ReplicatesDone, lastDone)
			}
			lastDone = st.ReplicatesDone
		case StateDone:
			if st.ReplicatesTotal > 0 && st.ReplicatesDone != st.ReplicatesTotal {
				t.Fatalf("done with %d/%d replicates", st.ReplicatesDone, st.ReplicatesTotal)
			}
			return st
		case StateFailed:
			t.Fatalf("job failed: %s", st.Error)
		default:
			t.Fatalf("unknown job state %q", st.Status)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", key)
	return jobStatus{}
}

// TestServeCacheHit is the acceptance scenario: two identical POSTs produce
// one simulation and byte-identical artifacts; a canonicalization variant
// of the same spec is the same key; a differing seed misses.
func TestServeCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	body := fmt.Sprintf(`{"spec": %s, "seed": 5}`, tinySpec)
	first := submit(t, ts.URL, body)
	if first.Status != StateQueued {
		t.Fatalf("first submit status %q, want queued", first.Status)
	}
	waitDone(t, ts.URL, first.Key)

	code, hdr, art1 := getBody(t, ts.URL+"/results/"+first.Key)
	if code != http.StatusOK {
		t.Fatalf("GET result: status %d: %s", code, art1)
	}
	if etag := hdr.Get("ETag"); !strings.Contains(etag, "sha256:") {
		t.Fatalf("result ETag %q is not a content address", etag)
	}

	// Identical request: cache hit, no new simulation.
	second := submit(t, ts.URL, body)
	if !second.Cached || second.Status != StateDone {
		t.Fatalf("second submit: cached=%v status=%q, want a done cache hit", second.Cached, second.Status)
	}
	if second.Key != first.Key {
		t.Fatalf("identical requests keyed differently: %s vs %s", second.Key, first.Key)
	}
	if second.Address == "" {
		t.Fatal("cache hit carries no artifact address")
	}
	_, _, art2 := getBody(t, ts.URL+"/results/"+second.Key)
	if !bytes.Equal(art1, art2) {
		t.Fatalf("artifacts differ across the cache hit:\n%s\n%s", art1, art2)
	}

	// Key-order/whitespace/spelled-out-default variant: same key, still a
	// hit.
	variant := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 5}`, tinySpecVariant))
	if variant.Key != first.Key || !variant.Cached {
		t.Fatalf("canonicalization variant missed the cache: key %s vs %s, cached=%v", variant.Key, first.Key, variant.Cached)
	}

	if got := s.Runs(); got != 1 {
		t.Fatalf("3 equivalent submits ran %d simulations, want 1", got)
	}

	// A differing seed is a different run.
	other := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 6}`, tinySpec))
	if other.Key == first.Key {
		t.Fatal("different seed produced the same cache key")
	}
	if other.Cached {
		t.Fatal("different seed hit the cache")
	}
	waitDone(t, ts.URL, other.Key)
	if got := s.Runs(); got != 2 {
		t.Fatalf("differing seed should run once more: %d runs, want 2", got)
	}
}

// TestServeSingleflight: concurrent identical requests share one job and
// one simulation.
func TestServeSingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"spec": %s, "seed": 11, "replicates": 8}`, tinySpec)

	const clients = 8
	keys := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/experiments", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			var sr submitResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				t.Errorf("client %d: %v\n%s", i, err, data)
				return
			}
			keys[i] = sr.Key
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < clients; i++ {
		if keys[i] != keys[0] {
			t.Fatalf("client %d keyed %s, client 0 keyed %s", i, keys[i], keys[0])
		}
	}
	waitDone(t, ts.URL, keys[0])
	if got := s.Runs(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", clients, got)
	}
}

// TestServeProgress: a longer run's status advances through running
// replicate counts to done, and the result serves in all three formats.
func TestServeProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 3, "replicates": 64}`, tinySpec))
	st := waitDone(t, ts.URL, resp.Key)
	if st.ReplicatesTotal != 64 {
		t.Fatalf("replicatesTotal = %d, want 64", st.ReplicatesTotal)
	}

	code, _, jsonBody := getBody(t, ts.URL+"/results/"+resp.Key+"?format=json")
	if code != http.StatusOK || !json.Valid(jsonBody) {
		t.Fatalf("json result: status %d: %s", code, jsonBody)
	}
	code, hdr, text := getBody(t, ts.URL+"/results/"+resp.Key+"?format=text")
	if code != http.StatusOK || !bytes.Contains(text, []byte("## ")) {
		t.Fatalf("text result: status %d: %s", code, text)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type %q", ct)
	}
	code, _, csv := getBody(t, ts.URL+"/results/"+resp.Key+"?format=csv")
	if code != http.StatusOK || !bytes.Contains(csv, []byte(",")) {
		t.Fatalf("csv result: status %d: %s", code, csv)
	}
	code, _, bad := getBody(t, ts.URL+"/results/"+resp.Key+"?format=yaml")
	if code != http.StatusBadRequest {
		t.Fatalf("yaml format: status %d: %s", code, bad)
	}
}

// tinyAdaptiveSpec is a sweep under a loose adaptive plan: a bounded
// metric meets a 0.75 half-width by six replicates at the latest, so every
// point stops far below the 64-replicate cap.
const tinyAdaptiveSpec = `{
  "name": "tiny-auto",
  "substrate": "coding",
  "nodes": 24,
  "rounds": 8,
  "adversary": {"kind": "ideal", "fraction": 0.2},
  "sweep": {"axis": "adversary.satiateFraction", "from": 0, "to": 0.5, "points": 3},
  "precision": {"halfWidth": 0.75, "minReps": 2, "maxReps": 64, "batch": 4},
  "params": {"symbols": 4, "payload": 8}
}`

// TestServeAdaptiveProgress pins the fix for fixed-product totals: under
// an adaptive plan the job's ReplicatesTotal starts at the points x
// maxReps cap, only ever shrinks (waitDone asserts that on every poll),
// and lands exactly on the replicates actually run — plus the per-point
// reps-so-far/CI-so-far readout and the reps series in the artifact.
func TestServeAdaptiveProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 9}`, tinyAdaptiveSpec))
	st := waitDone(t, ts.URL, resp.Key)

	const cap = 3 * 64
	if st.ReplicatesTotal >= cap {
		t.Fatalf("final total %d never shrank from the %d cap — totals are still a fixed product", st.ReplicatesTotal, cap)
	}
	if st.ReplicatesDone != st.ReplicatesTotal {
		t.Fatalf("done %d != total %d after convergence", st.ReplicatesDone, st.ReplicatesTotal)
	}
	if st.Point == nil || st.PointHalfWidth == nil {
		t.Fatalf("adaptive job status missing the per-point readout: %+v", st)
	}
	if *st.Point != 2 {
		t.Fatalf("final point index %d, want the last sweep point 2", *st.Point)
	}
	if st.PointReplicates < 2 || *st.PointHalfWidth > 0.75 {
		t.Fatalf("per-point readout implausible: %d reps, half-width %g", st.PointReplicates, *st.PointHalfWidth)
	}

	// The artifact carries the per-point replicate counts, all below the cap.
	code, _, body := getBody(t, ts.URL+"/results/"+resp.Key)
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, body)
	}
	var art struct {
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				Y float64 `json:"y"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &art); err != nil {
		t.Fatal(err)
	}
	sum := 0
	found := false
	for _, s := range art.Series {
		if s.Name != "reps" {
			continue
		}
		found = true
		for i, p := range s.Points {
			if p.Y < 2 || p.Y >= 64 {
				t.Fatalf("point %d ran %g replicates, want an early stop in [2,64)", i, p.Y)
			}
			sum += int(p.Y)
		}
	}
	if !found {
		t.Fatalf("adaptive artifact has no reps series: %s", body)
	}
	if sum != st.ReplicatesDone {
		t.Fatalf("artifact reps sum %d != reported done %d", sum, st.ReplicatesDone)
	}

	// A fixed-run job must NOT grow the per-point readout.
	fixed := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 9}`, tinySpec))
	fst := waitDone(t, ts.URL, fixed.Key)
	if fst.Point != nil || fst.PointHalfWidth != nil {
		t.Fatalf("fixed run grew an adaptive readout: %+v", fst)
	}

	// A request-level replicates override beats an inert precision block
	// (halfWidth 0, maxReps just a spelling of the fixed count) instead of
	// being silently shadowed by it.
	inert := strings.Replace(tinyAdaptiveSpec, `"halfWidth": 0.75`, `"halfWidth": 0`, 1)
	over := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 9, "replicates": 5}`, inert))
	ost := waitDone(t, ts.URL, over.Key)
	if ost.ReplicatesTotal != 3*5 {
		t.Fatalf("replicates override shadowed by inert precision: total %d, want %d", ost.ReplicatesTotal, 3*5)
	}
}

// TestServeRegistryScenario: a registry name with -set-style overrides runs
// end to end, and /scenarios lists the catalogue.
func TestServeRegistryScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := submit(t, ts.URL, `{"scenario": "x/none-coding", "seed": 2,
		"set": ["replicates=1", "rounds=6", "nodes=16", "sweep.points=2"]}`)
	waitDone(t, ts.URL, resp.Key)
	code, _, body := getBody(t, ts.URL+"/results/"+resp.Key)
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, body)
	}

	code, _, list := getBody(t, ts.URL+"/scenarios")
	if code != http.StatusOK {
		t.Fatalf("scenarios: status %d", code)
	}
	var infos []scenarioInfo
	if err := json.Unmarshal(list, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) < 40 {
		t.Fatalf("catalogue lists %d scenarios, want the full registry", len(infos))
	}

	code, _, hz := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h health
	if err := json.Unmarshal(hz, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Runs < 1 || h.Cache.Entries < 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestServeBadRequests: hostile and malformed submissions fail with JSON
// errors, never crash.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"empty":             `{}`,
		"not json":          `{"spec": `,
		"both":              fmt.Sprintf(`{"scenario": "gossip-trade", "spec": %s}`, tinySpec),
		"unknown scenario":  `{"scenario": "no-such"}`,
		"unknown field":     `{"scenariox": "gossip-trade"}`,
		"bad substrate":     `{"spec": {"name": "x", "substrate": "quantum"}}`,
		"hostile targets":   `{"spec": {"name": "x", "substrate": "gossip", "nodes": 4, "adversary": {"targets": [9]}}}`,
		"bad override":      `{"scenario": "gossip-trade", "set": ["nodes=purple"]}`,
		"negative override": `{"scenario": "gossip-trade", "replicates": -1}`,
	} {
		code, data := postJSON(t, ts.URL+"/experiments", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, code, data)
		}
		var e map[string]string
		if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body is not {\"error\": ...}: %s", name, data)
		}
	}

	if code, _, data := getBody(t, ts.URL+"/jobs/sha256:nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d: %s", code, data)
	}
	if code, _, data := getBody(t, ts.URL+"/results/sha256:nope"); code != http.StatusNotFound {
		t.Fatalf("unknown result: status %d: %s", code, data)
	}
}

// TestServeRejectsHostileParams: params values that once crashed the
// process mid-replicate (a makeslice panic or the runtime running out of
// memory, after the POST had answered 202) are refused with 400 at submit,
// as are a sweep whose far endpoint is such a value and a spec whose
// simulator refuses its configuration, and the server keeps serving.
func TestServeRejectsHostileParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, probe := range []struct {
		scenario, key string // key: the params key the refusal names
		sets          []string
	}{
		{"x/none-token", "params.degree", []string{"params.degree=-3"}},
		{"x/none-coding", "params.degree", []string{"params.degree=-3"}},
		{"x/none-gossip", "params.lifetime", []string{"params.lifetime=1e12"}},
		{"x/none-gossip", "params.updates", []string{"params.updates=1e12"}},
		{"x/none-token", "params.tokens", []string{"params.tokens=1e12"}},
		{"x/none-swarm", "params.pieces", []string{"params.pieces=1e12"}},
		{"x/none-coding", "params.symbols", []string{"params.symbols=1e12"}},
		{"x/none-coding", "params.payload", []string{"params.payload=1e12"}},
		{"x/trade-token", "params.tokens", []string{"sweep.axis=params.tokens", "sweep.from=1", "sweep.to=1e12", "sweep.points=2"}},
		// Combinations: each value is in range, but together they fail a
		// gossip build, stop a sweep partway, or leave a scrip economy with
		// no requester (a job that would never finish).
		{"x/none-gossip", "params.lifetime", []string{"params.lifetime=1"}},
		{"x/trade-token", "params.graph", []string{"params.graph=2", "nodes=16", "sweep.axis=nodes", "sweep.from=16", "sweep.to=100", "sweep.points=3"}},
		{"x/trade-scrip", "params.special", []string{"params.special=100", "sweep.axis=nodes", "sweep.from=120", "sweep.to=60"}},
		{"x/trade-scrip", "adversary.fraction", []string{"sweep.axis=", "adversary.fraction=1"}},
		{"x/crash-scrip", "adversary.fraction", []string{"sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=1"}},
		// Each value is in range, but the simulator refuses the
		// configuration they make together, so every replicate would fail.
		{"gossip-trade", "rounds", []string{"rounds=10"}},
		{"gossip-trade", "nodes", []string{"nodes=5"}},
		{"gossip-trade", "nodes", []string{"nodes=1"}},
		{"gossip-trade", "params.copies", []string{"params.copies=1000"}},
		{"gossip-trade", "params.warmup", []string{"params.warmup=60"}},
		{"x/none-swarm", "nodes", []string{"nodes=1", "sweep.axis="}},
		{"x/none-scrip", "nodes", []string{"nodes=1", "sweep.axis="}},
		{"coding-zipf", "params.coded", []string{"params.coded=1"}},
		{"gossip-trade", "rounds", []string{"rounds=20"}},
		// A sweep whose far endpoint a spec-level range refuses.
		{"x/none-gossip", "adversary.fraction", []string{"sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=1.5"}},
	} {
		sets, err := json.Marshal(probe.sets)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"scenario": %q, "set": %s, "replicates": 1}`, probe.scenario, sets)
		code, data := postJSON(t, ts.URL+"/experiments", body)
		if code != http.StatusBadRequest || !strings.Contains(string(data), probe.key) {
			t.Errorf("%s %v: status %d, want 400 naming %s: %s", probe.scenario, probe.sets, code, probe.key, data)
		}
	}
	// Popularity weights have no -set key: 3 weights for the swarm's 128
	// pieces, in a spec body.
	weights := `{"spec": {"name": "weights", "substrate": "swarm", "adversary": {"kind": "none"},
		"population": {"popularity": {"kind": "weights", "weights": [1, 2, 3]}}}, "replicates": 1}`
	if code, data := postJSON(t, ts.URL+"/experiments", weights); code != http.StatusBadRequest ||
		!strings.Contains(string(data), "population.popularity.weights") {
		t.Errorf("swarm weights: status %d, want 400 naming population.popularity.weights: %s", code, data)
	}
	resp := submit(t, ts.URL, `{"scenario": "x/none-token", "seed": 3,
		"set": ["replicates=1", "rounds=6", "nodes=16", "sweep.points=2"]}`)
	waitDone(t, ts.URL, resp.Key)
	if code, _, body := getBody(t, ts.URL+"/results/"+resp.Key); code != http.StatusOK {
		t.Fatalf("result after the refused requests: status %d: %s", code, body)
	}
}

// TestServeQueueFull: with depth 1 and the executor busy, a second distinct
// request queues and a third is refused with 503.
func TestServeQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 1})

	// Occupy the executor with a run long enough to observe (tiny replicates
	// are ~tens of microseconds; tens of thousands of them hold the executor
	// for on the order of a second).
	busy := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 21, "replicates": 30000}`, tinySpec))
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, data := getBody(t, ts.URL+"/jobs/"+busy.Key)
		if code != http.StatusOK {
			t.Fatalf("busy job status %d: %s", code, data)
		}
		var st jobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Status == StateRunning {
			break
		}
		if st.Status != StateQueued {
			t.Fatalf("busy job reached %q before the queue test ran", st.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("busy job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	queued := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 22}`, tinySpec))
	if queued.Status != StateQueued {
		t.Fatalf("second request status %q, want queued", queued.Status)
	}
	code, data := postJSON(t, ts.URL+"/experiments", fmt.Sprintf(`{"spec": %s, "seed": 23}`, tinySpec))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("third request: status %d, want 503: %s", code, data)
	}
	waitDone(t, ts.URL, busy.Key)
	waitDone(t, ts.URL, queued.Key)
}
