package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/serve"
)

// tinyFixed is a sub-second coding sweep: three points, twelve replicates
// each — enough windows that two workers genuinely share a job.
const tinyFixed = `{
  "name": "tiny-fixed",
  "substrate": "coding",
  "nodes": 24,
  "rounds": 8,
  "replicates": 12,
  "adversary": {"kind": "ideal", "fraction": 0.2, "satiateFraction": 0.5},
  "sweep": {"axis": "adversary.fraction", "from": 0, "to": 0.4, "points": 3},
  "params": {"symbols": 4, "payload": 8}
}`

// tinyChurned is the fixed sweep with a population block: rate-driven
// churn plus Zipf demand, so lifecycle events and weighted picks cross the
// wire too — the cluster must replay them from the replicate streams
// exactly as a single process does.
const tinyChurned = `{
  "name": "tiny-churned",
  "substrate": "coding",
  "nodes": 24,
  "rounds": 8,
  "replicates": 12,
  "adversary": {"kind": "ideal", "fraction": 0.2, "satiateFraction": 0.5},
  "sweep": {"axis": "adversary.fraction", "from": 0, "to": 0.4, "points": 3},
  "population": {
    "churn": {"leaveRate": 0.03, "joinRate": 0.1},
    "popularity": {"kind": "zipf", "exponent": 1.1}
  },
  "params": {"symbols": 4, "payload": 8}
}`

// tinyAdaptive is the same sweep under a precision plan, so points draw
// waves until their CI target is met — the work-stealing path.
const tinyAdaptive = `{
  "name": "tiny-adaptive",
  "substrate": "coding",
  "nodes": 24,
  "rounds": 8,
  "adversary": {"kind": "ideal", "fraction": 0.2, "satiateFraction": 0.5},
  "sweep": {"axis": "adversary.fraction", "from": 0, "to": 0.4, "points": 3},
  "precision": {"halfWidth": 0.02, "minReps": 4, "maxReps": 20, "batch": 4},
  "params": {"symbols": 4, "payload": 8}
}`

func decodeSpec(t *testing.T, raw string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Decode([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// localArtifact runs the spec in-process and returns its canonical bytes —
// the reference every cluster run must reproduce byte for byte.
func localArtifact(t *testing.T, raw string, seed uint64) []byte {
	t.Helper()
	a, err := scenario.Run(decodeSpec(t, raw), seed, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := a.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// testCluster is a coordinator plus workers on loopback HTTP.
type testCluster struct {
	coord    *Coordinator
	coordTS  *httptest.Server
	workers  []*Worker
	workerTS []*httptest.Server
	closed   bool
}

// mustCoordinator builds a coordinator, failing the test on error.
func mustCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	return c
}

// startCluster boots a coordinator and n announced workers, waiting until
// the registry sees them all. nodeWorkers bounds each node's in-flight
// replicates on the shared pool.
func startCluster(t *testing.T, n, nodeWorkers int) *testCluster {
	t.Helper()
	coord := mustCoordinator(t, Config{
		Serve:        serve.Config{Workers: nodeWorkers},
		StallTimeout: 10 * time.Second,
	})
	tc := &testCluster{coord: coord, coordTS: httptest.NewServer(coord)}
	t.Cleanup(func() { tc.close(t) })
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Serve:            serve.Config{Workers: nodeWorkers},
			Coordinator:      tc.coordTS.URL,
			AnnounceInterval: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w)
		w.Announce(ts.URL)
		tc.workers = append(tc.workers, w)
		tc.workerTS = append(tc.workerTS, ts)
	}
	waitForWorkers(t, tc.coordTS.URL, n)
	return tc
}

func (tc *testCluster) close(t *testing.T) {
	t.Helper()
	if tc.closed {
		return
	}
	tc.closed = true
	for i, w := range tc.workers {
		tc.workerTS[i].Close()
		if err := w.Close(); err != nil {
			t.Errorf("worker %d close: %v", i, err)
		}
	}
	tc.coordTS.Close()
	if err := tc.coord.Close(); err != nil {
		t.Errorf("coordinator close: %v", err)
	}
}

func waitForWorkers(t *testing.T, coordURL string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st clusterStatus
		code, _, data := httpGet(t, coordURL+"/cluster/status")
		if code != http.StatusOK {
			t.Fatalf("GET /cluster/status: %d: %s", code, data)
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("status body: %v\n%s", err, data)
		}
		if len(st.Workers) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("coordinator never saw %d workers", n)
}

func httpGet(t *testing.T, url string) (int, http.Header, []byte) {
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

// submitResult mirrors serve's submit response shape.
type submitResult struct {
	Key     string `json:"key"`
	Status  string `json:"status"`
	Cached  bool   `json:"cached"`
	Address string `json:"address"`
}

func submitSpec(t *testing.T, base, rawSpec string, seed uint64) submitResult {
	t.Helper()
	body := fmt.Sprintf(`{"spec": %s, "seed": %d}`, rawSpec, seed)
	resp, err := http.Post(base+"/experiments", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /experiments: %d: %s", resp.StatusCode, data)
	}
	var out submitResult
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("submit response: %v\n%s", err, data)
	}
	return out
}

func waitJobDone(t *testing.T, base, key string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, _, data := httpGet(t, base+"/jobs/"+key)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d: %s", key, code, data)
		}
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("job status: %v\n%s", err, data)
		}
		switch st.Status {
		case "done":
			return
		case "failed":
			t.Fatalf("job %s failed: %s", key, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", key)
}

func fetchResult(t *testing.T, base, key string) ([]byte, string) {
	t.Helper()
	code, hdr, data := httpGet(t, base+"/results/"+key)
	if code != http.StatusOK {
		t.Fatalf("GET /results/%s: %d: %s", key, code, data)
	}
	return data, strings.Trim(hdr.Get("ETag"), `"`)
}

// TestClusterMatchesSingleProcess is the acceptance pin: a coordinator
// plus two loopback workers produce byte-identical artifacts (and hence
// identical content addresses) to a single-process run, for a fixed and an
// adaptive sweep, under per-node pool widths 1 and 8 — and a resubmission
// is a cache hit that runs nothing.
func TestClusterMatchesSingleProcess(t *testing.T) {
	// The registry's churn acceptance scenario rides along verbatim: the
	// same spec must answer identically local, through the serve cache, and
	// across a two-worker cluster.
	churnSpec, ok := scenario.Get("gossip-trade-churn")
	if !ok {
		t.Fatal("gossip-trade-churn missing from the registry")
	}
	churnSpec.Sweep.Points = 2
	churnSpec.Replicates = 2
	churnJSON, err := churnSpec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		spec string
		seed uint64
	}{
		{"fixed", tinyFixed, 5},
		{"churned", tinyChurned, 5},
		{"gossip-trade-churn", string(churnJSON), 5},
		{"adaptive", tinyAdaptive, 5},
	}
	for _, c := range cases {
		for _, nodeWorkers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/poolWidth=%d", c.name, nodeWorkers), func(t *testing.T) {
				want := localArtifact(t, c.spec, c.seed)
				wantAddr := metrics.AddressBytes(want)

				tc := startCluster(t, 2, nodeWorkers)
				first := submitSpec(t, tc.coordTS.URL, c.spec, c.seed)
				if first.Cached {
					t.Fatalf("fresh cluster reported a cache hit")
				}
				waitJobDone(t, tc.coordTS.URL, first.Key)
				got, etag := fetchResult(t, tc.coordTS.URL, first.Key)
				if string(got) != string(want) {
					t.Fatalf("cluster artifact differs from single-process run:\n%s\nvs\n%s", got, want)
				}
				if etag != wantAddr {
					t.Fatalf("cluster ETag %s, single-process address %s", etag, wantAddr)
				}

				again := submitSpec(t, tc.coordTS.URL, c.spec, c.seed)
				if !again.Cached || again.Address != wantAddr {
					t.Fatalf("resubmission missed the cache: %+v", again)
				}
				if runs := tc.coord.Server().Runs(); runs != 1 {
					t.Fatalf("coordinator executed %d runs, want exactly 1", runs)
				}
			})
		}
	}
}

// TestClusterSharedArtifactStore pins the federation: a result computed
// through the coordinator is a cache hit on any worker (remote lookup
// fills the local cache), and a result computed locally on a worker is
// published so the coordinator — and through it every other node — answers
// it without rerunning.
func TestClusterSharedArtifactStore(t *testing.T) {
	tc := startCluster(t, 2, 0)

	// Coordinator-side run, then hit from a worker.
	first := submitSpec(t, tc.coordTS.URL, tinyFixed, 5)
	waitJobDone(t, tc.coordTS.URL, first.Key)
	coordBody, _ := fetchResult(t, tc.coordTS.URL, first.Key)

	viaWorker := submitSpec(t, tc.workerTS[0].URL, tinyFixed, 5)
	if !viaWorker.Cached {
		t.Fatalf("worker submit missed the shared store: %+v", viaWorker)
	}
	if runs := tc.workers[0].Server().Runs(); runs != 0 {
		t.Fatalf("worker recomputed a stored result (%d runs)", runs)
	}
	workerBody, _ := fetchResult(t, tc.workerTS[0].URL, first.Key)
	if string(workerBody) != string(coordBody) {
		t.Fatalf("worker served different bytes than the coordinator")
	}

	// Worker-side local run publishes; the coordinator then has it.
	local := submitSpec(t, tc.workerTS[1].URL, tinyFixed, 6)
	waitJobDone(t, tc.workerTS[1].URL, local.Key)
	coordRuns := tc.coord.Server().Runs()
	viaCoord := submitSpec(t, tc.coordTS.URL, tinyFixed, 6)
	if !viaCoord.Cached {
		t.Fatalf("published artifact not in the coordinator store: %+v", viaCoord)
	}
	if got := tc.coord.Server().Runs(); got != coordRuns {
		t.Fatalf("coordinator reran a published result (%d -> %d runs)", coordRuns, got)
	}
}

// TestCoordinatorWithoutWorkersRunsLocally: an empty fleet degrades to a
// plain single-process server, bit-identically.
func TestCoordinatorWithoutWorkersRunsLocally(t *testing.T) {
	coord := mustCoordinator(t, Config{})
	ts := httptest.NewServer(coord)
	defer func() {
		ts.Close()
		coord.Close()
	}()
	want := localArtifact(t, tinyFixed, 7)
	resp := submitSpec(t, ts.URL, tinyFixed, 7)
	waitJobDone(t, ts.URL, resp.Key)
	got, _ := fetchResult(t, ts.URL, resp.Key)
	if string(got) != string(want) {
		t.Fatalf("workerless coordinator diverged from local run")
	}
}

// TestDrainingWorkerRefusesUnits: after Drain a worker answers units 503 —
// the transport-class signal that makes the coordinator reassign the unit
// rather than fail the job.
func TestDrainingWorkerRefusesUnits(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	defer ts.Close()
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/cluster/run", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining worker answered %d, want 503", resp.StatusCode)
	}
}

// TestWorkerDefaultClientTimeout: a worker given no client bounds every
// request to the coordinator with workerTimeout.
func TestWorkerDefaultClientTimeout(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.client.Timeout != workerTimeout {
		t.Fatalf("default client timeout %v, want %v", w.client.Timeout, workerTimeout)
	}
}

// TestWorkerSurvivesSilentCoordinator: against a coordinator that accepts
// connections and never answers, a worker whose client has a timeout still
// finishes a locally submitted job (its publish times out) and answers 404
// for an unknown result (its read-through times out).
func TestWorkerSurvivesSilentCoordinator(t *testing.T) {
	release := make(chan struct{})
	coord := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer coord.Close()
	defer close(release)
	w, err := NewWorker(WorkerConfig{
		Coordinator: coord.URL,
		Client:      &http.Client{Timeout: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	defer func() {
		ts.Close()
		w.Close()
	}()
	sub := submitSpec(t, ts.URL, tinyFixed, 3)
	waitJobDone(t, ts.URL, sub.Key)
	fetchResult(t, ts.URL, sub.Key)
	if code, _, data := httpGet(t, ts.URL+"/results/"+strings.Repeat("0", 64)); code != http.StatusNotFound {
		t.Fatalf("GET /results/{unknown}: %d: %s", code, data)
	}
}

// TestWorkerExecutionErrorFailsJob: a unit whose simulation itself errors
// (bad spec reaching the worker) is an execution failure — reported in
// band, job failed, no retry storm.
func TestWorkerExecutionErrorFailsJob(t *testing.T) {
	w, err := NewWorker(WorkerConfig{Coordinator: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	defer func() {
		ts.Close()
		w.Close()
	}()
	body := `{"pointSpec": {"name":"x","substrate":"no-such-substrate"}, "seed": 1, "start": 0, "n": 2}`
	resp, err := http.Post(ts.URL+"/cluster/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execution error answered %d, want 200 + Error field", resp.StatusCode)
	}
	var out unitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error == "" {
		t.Fatalf("bad unit produced no error")
	}
}
