package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/serve"
	"lotuseater/internal/simrng"
)

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Serve configures the embedded experiment service. Its Workers field
	// also bounds each unit's in-flight replicates on the shared pool —
	// results never depend on it. The Store hook is owned by the worker:
	// it is pointed at the coordinator's shared artifact store.
	Serve serve.Config
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// AnnounceInterval is how often the worker re-announces itself to the
	// coordinator while announces succeed (0 = 2s). Announces double as
	// heartbeats: a worker the coordinator dropped re-registers within one
	// interval of recovering.
	AnnounceInterval time.Duration
	// AnnounceBackoffMax caps the announce retry delay while the
	// coordinator is unreachable (0 = 30s). Consecutive failures back off
	// exponentially from AnnounceInterval toward this cap, with
	// deterministic per-worker jitter so a restarted coordinator is not
	// thundering-herded by its whole fleet on the same tick; one success
	// resets the cadence to AnnounceInterval.
	AnnounceBackoffMax time.Duration
	// JitterSeed seeds the announce jitter (0 = derived from the announced
	// URL, so distinct workers desynchronize while each stays
	// deterministic).
	JitterSeed uint64
	// After is the announce loop's timer (nil = time.After). Tests inject a
	// channel-driven fake to step the loop deterministically.
	After func(d time.Duration) <-chan time.Time
	// Client issues coordinator HTTP requests (nil = http.DefaultClient).
	Client *http.Client
}

// Worker is one cluster execution node: it serves the full experiment API
// (a submit here runs locally, and its `/results/{key}` consults the
// shared store on a local miss), executes units the coordinator posts to
// /cluster/run, and publishes every artifact it computes to the
// coordinator under its content-addressed cache key.
type Worker struct {
	cfg     WorkerConfig
	srv     *serve.Server
	mux     *http.ServeMux
	handler http.Handler // mux behind the embedded server's instrumentation
	client  *http.Client
	after   func(d time.Duration) <-chan time.Time

	draining     atomic.Bool
	stop         chan struct{}
	stopOnce     sync.Once
	announceMu   sync.Mutex
	announceDone chan struct{} // non-nil once the announce loop is running
}

// NewWorker builds a worker bound to a coordinator. It does not announce
// itself yet — call Announce once the worker's own listener is bound and
// its URL is known.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("cluster: worker needs a coordinator URL")
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.AnnounceInterval <= 0 {
		cfg.AnnounceInterval = 2 * time.Second
	}
	if cfg.AnnounceBackoffMax <= 0 {
		cfg.AnnounceBackoffMax = 30 * time.Second
	}
	if cfg.AnnounceBackoffMax < cfg.AnnounceInterval {
		cfg.AnnounceBackoffMax = cfg.AnnounceInterval
	}
	w := &Worker{
		cfg:    cfg,
		client: cfg.Client,
		after:  cfg.After,
		mux:    http.NewServeMux(),
		stop:   make(chan struct{}),
	}
	if w.client == nil {
		w.client = http.DefaultClient
	}
	if w.after == nil {
		w.after = time.After
	}
	scfg := cfg.Serve
	scfg.Store = &httpStore{base: cfg.Coordinator, client: w.client}
	srv, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	w.mux.HandleFunc("POST /cluster/run", w.handleRun)
	// Fall back to the embedded service's raw routes, then wrap the whole
	// tree in its instrumentation once — every request (cluster and
	// experiment alike) is counted exactly once.
	w.mux.Handle("/", w.srv.Routes())
	w.handler = w.srv.Observe(w.mux)
	return w, nil
}

// ServeHTTP dispatches to the unit-execution and experiment routes.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.handler.ServeHTTP(rw, r) }

// Server exposes the embedded experiment service.
func (w *Worker) Server() *serve.Server { return w.srv }

// Announce starts the join/heartbeat loop, registering selfURL — the base
// URL the coordinator can reach this worker at — immediately and then on
// every interval. Call at most once.
func (w *Worker) Announce(selfURL string) {
	w.announceMu.Lock()
	defer w.announceMu.Unlock()
	if w.announceDone != nil {
		return
	}
	w.announceDone = make(chan struct{})
	go w.announce(selfURL, w.announceDone)
}

func (w *Worker) announce(selfURL string, done chan struct{}) {
	defer close(done)
	seed := w.cfg.JitterSeed
	if seed == 0 {
		seed = simrng.LabelHash(selfURL)
	}
	failures := 0
	for {
		if err := w.join(selfURL); err != nil {
			failures++
			w.srv.Metrics().AnnounceFailed()
		} else {
			failures = 0
		}
		select {
		case <-w.stop:
			return
		case <-w.after(announceDelay(w.cfg.AnnounceInterval, w.cfg.AnnounceBackoffMax, failures, seed)):
		}
	}
}

// announceDelay computes the wait before the next announce given the count
// of consecutive failures so far. While announces succeed (failures == 0)
// the cadence is the steady base interval. Failures back off exponentially
// — base, 2·base, 4·base, ... capped at max — with deterministic jitter:
// the delay lands uniformly in [d/2, d), the fraction derived by mixing the
// worker's jitter seed with the failure count (splitmix64), so retries
// spread across a fleet while each worker's sequence is reproducible.
func announceDelay(base, max time.Duration, failures int, seed uint64) time.Duration {
	if failures <= 0 {
		return base
	}
	d := base
	for i := 1; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// The failures-th output of a SplitMix64 generator seeded with seed.
	x := simrng.SplitMix64(seed + 0x9e3779b97f4a7c15*uint64(failures-1))
	frac := float64(x>>11) / float64(1<<53)
	half := d / 2
	return half + time.Duration(float64(half)*frac)
}

// join posts one announcement. An error (transport failure or non-2xx
// status) feeds the caller's backoff; the coordinator may simply be
// restarting, and a later attempt re-registers.
func (w *Worker) join(selfURL string) error {
	body, err := json.Marshal(joinRequest{URL: selfURL})
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.cfg.Coordinator+"/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("cluster: announce rejected: %s", resp.Status)
	}
	return nil
}

// Close stops the announce loop and the embedded service. A unit in
// flight completes (and its response delivers) first. Idempotent.
func (w *Worker) Close() error {
	w.draining.Store(true)
	w.stopAnnounce()
	return w.srv.Close()
}

// Drain is the graceful SIGTERM path: stop announcing, answer new units
// 503 (the coordinator reassigns them elsewhere), finish the local job in
// flight, fail queued local jobs with a drain status.
func (w *Worker) Drain() error {
	w.draining.Store(true)
	w.stopAnnounce()
	return w.srv.Drain()
}

func (w *Worker) stopAnnounce() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.announceMu.Lock()
	done := w.announceDone
	w.announceMu.Unlock()
	if done != nil {
		<-done
	}
}

// handleRun executes one unit synchronously: decode the canonical point
// spec, fold replicates [start, start+n) on the shared pool, and return
// the ordered observations plus the partial accumulator state the
// coordinator cross-checks. Draining workers answer 503, which the
// coordinator reads as "reassign elsewhere".
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		http.Error(rw, `{"error":"cluster: worker draining"}`, http.StatusServiceUnavailable)
		return
	}
	var req unitRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		http.Error(rw, `{"error":"cluster: bad unit body"}`, http.StatusBadRequest)
		return
	}
	if req.Start < 0 || req.N <= 0 || req.N > 1<<20 {
		writeUnitError(rw, fmt.Errorf("cluster: bad unit window [%d,+%d)", req.Start, req.N))
		return
	}
	pt, err := scenario.Decode(req.PointSpec)
	if err != nil {
		writeUnitError(rw, err)
		return
	}
	obs := make([]float64, 0, req.N)
	var acc metrics.Accumulator
	err = scenario.FoldWindow(pt, req.Seed, req.Start, req.N, w.cfg.Serve.Workers, func(rep int, y float64) {
		obs = append(obs, y)
		acc.Add(y)
	})
	if err != nil {
		writeUnitError(rw, err)
		return
	}
	w.srv.Metrics().UnitExecuted()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(unitResponse{ObsBits: bitsOf(obs), Acc: acc.State()})
}

// writeUnitError reports an execution error (as opposed to a transport
// one): HTTP 200 with the Error field set, which the coordinator treats as
// "the unit itself is bad" and fails the job rather than retrying.
func writeUnitError(rw http.ResponseWriter, err error) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(unitResponse{Error: err.Error()})
}

// httpStore is the worker-side client of the coordinator's shared
// artifact store — the serve.ArtifactStore that federates every node's
// result cache through GET/PUT /cluster/artifacts/{key}.
type httpStore struct {
	base   string
	client *http.Client
}

func (st *httpStore) Lookup(key string) (body []byte, address string, ok bool) {
	resp, err := st.client.Get(st.base + "/cluster/artifacts/" + key)
	if err != nil {
		return nil, "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, "", false
	}
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxArtifactBytes))
	if err != nil || len(body) == 0 {
		return nil, "", false
	}
	// Recompute the address from the bytes rather than trusting the
	// header: content addressing means a store can never hand us a body
	// that disagrees with its ETag.
	return body, metrics.AddressBytes(body), true
}

func (st *httpStore) Publish(key string, body []byte, address string) {
	req, err := http.NewRequest(http.MethodPut, st.base+"/cluster/artifacts/"+key, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
