package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/serve"
)

// Config tunes a Coordinator. The zero value gets sensible defaults.
type Config struct {
	// Serve configures the embedded experiment service (cache bytes, queue
	// depth, version). Its Run hook is owned by the coordinator — the
	// distributed runner is installed over whatever is set here.
	Serve serve.Config
	// UnitReps is the fixed-run window size in replicates (0 = auto: the
	// per-point budget split ~4 ways per registered worker, clamped to
	// [1, 256]). Scheduling granularity only — artifact bytes never depend
	// on it.
	UnitReps int
	// MaxAttempts bounds how many times one unit may be dispatched before
	// the job fails (0 = 8). Retries absorb worker deaths; the cap stops a
	// unit that kills every worker it visits.
	MaxAttempts int
	// StallTimeout is how long a job may sit with work pending and no live
	// workers before it fails (0 = 30s). Workers joining (or re-joining)
	// within the window pick the job up.
	StallTimeout time.Duration
	// UnitTimeout bounds one unit's round trip (0 = 10m). A worker that
	// neither answers nor hangs up within it is treated as dead: the unit
	// reassigns and the worker is dropped until its next announce.
	UnitTimeout time.Duration
	// Client issues worker and join HTTP requests (nil =
	// http.DefaultClient). Unit execution can legitimately take minutes, so
	// prefer a client without a global timeout.
	Client *http.Client
}

// workerInfo is one registered worker.
type workerInfo struct {
	url      string
	units    int64
	lastSeen time.Time
}

// Coordinator is the cluster's front: a full experiment service (every
// serve route — submit, jobs, results, scenarios, healthz — answers here)
// whose runner shards work across registered workers, plus the cluster
// control surface (/cluster/join, /cluster/artifacts/{key},
// /cluster/status). With no workers registered it degrades to a plain
// single-process server: jobs run locally, bit-identically.
type Coordinator struct {
	cfg     Config
	srv     *serve.Server
	mux     *http.ServeMux
	handler http.Handler // mux behind the embedded server's instrumentation
	client  *http.Client

	mu      sync.Mutex
	workers map[string]*workerInfo
	active  *schedule // the job currently being dispatched, if any
}

// NewCoordinator builds a coordinator and starts its job executor. The only
// error source is the embedded service (an unusable -store-dir).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = 30 * time.Second
	}
	if cfg.UnitTimeout <= 0 {
		cfg.UnitTimeout = 10 * time.Minute
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		mux:     http.NewServeMux(),
		workers: make(map[string]*workerInfo),
	}
	if c.client == nil {
		c.client = http.DefaultClient
	}
	scfg := cfg.Serve
	scfg.Run = c.distributedRun
	srv, err := serve.New(scfg)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	c.mux.HandleFunc("POST /cluster/join", c.handleJoin)
	c.mux.HandleFunc("GET /cluster/artifacts/{key}", c.handleArtifactGet)
	c.mux.HandleFunc("PUT /cluster/artifacts/{key}", c.handleArtifactPut)
	c.mux.HandleFunc("GET /cluster/status", c.handleStatus)
	// Fall back to the embedded service's raw routes, then wrap the whole
	// tree in its instrumentation once — every request (cluster and
	// experiment alike) is counted exactly once.
	c.mux.Handle("/", c.srv.Routes())
	c.handler = c.srv.Observe(c.mux)
	return c, nil
}

// ServeHTTP dispatches to the cluster and experiment routes.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.handler.ServeHTTP(w, r) }

// Server exposes the embedded experiment service (tests and the CLI reach
// cache statistics and run counts through it).
func (c *Coordinator) Server() *serve.Server { return c.srv }

// Close stops the embedded service; a distributed run in flight completes
// first (its workers keep serving it). Idempotent.
func (c *Coordinator) Close() error { return c.srv.Close() }

// Drain is the graceful SIGTERM path: stop admitting, finish the running
// job, fail queued jobs with a drain status.
func (c *Coordinator) Drain() error { return c.srv.Drain() }

// WorkerURLs returns the registered workers' base URLs, sorted.
func (c *Coordinator) WorkerURLs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

// distributedRun is the serve.RunFunc installed on the embedded service:
// decompose, dispatch, reassemble. Workers execute windows; this side
// folds their observations in global replicate order and Assembles —
// byte-identical to scenario.Run on the same spec and seed.
func (c *Coordinator) distributedRun(spec *scenario.Spec, seed uint64, opts scenario.RunOptions) (*metrics.Artifact, error) {
	c.mu.Lock()
	nworkers := len(c.workers)
	c.mu.Unlock()
	if nworkers == 0 {
		// A coordinator with no fleet is just a server; run locally rather
		// than holding the job hostage to a worker that may never come.
		return scenario.Run(spec, seed, opts)
	}

	ep := scenario.PlanOf(spec, opts)
	points := make([]*pointState, len(ep.Xs))
	for i, x := range ep.Xs {
		pt, err := spec.PointSpec(x)
		if err != nil {
			return nil, err
		}
		canon, err := pt.CanonicalJSON()
		if err != nil {
			return nil, err
		}
		points[i] = &pointState{x: x, spec: canon, st: metrics.NewStream(), buffered: make(map[int][]float64)}
	}
	sc := newSchedule(ep, points, seed, opts, c.unitReps(ep, nworkers), c.cfg.MaxAttempts)
	sc.onSteal = c.srv.Metrics().UnitStolen

	c.mu.Lock()
	c.active = sc
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	c.mu.Unlock()
	sort.Strings(urls)
	for _, u := range urls {
		c.startLoop(u, sc)
	}
	stop := make(chan struct{})
	go c.monitor(sc, stop)

	err := sc.wait()
	close(stop)
	c.mu.Lock()
	c.active = nil
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return scenario.Assemble(spec, opts, sc.results())
}

// unitReps sizes fixed-run windows: explicit config, or the per-point
// budget split about four ways per worker so the queue stays deep enough
// to rebalance, clamped to [1, 256].
func (c *Coordinator) unitReps(ep scenario.ExecPlan, nworkers int) int {
	if c.cfg.UnitReps > 0 {
		return c.cfg.UnitReps
	}
	per := ep.Replicates / (4 * nworkers)
	if per < 1 {
		per = 1
	}
	if per > 256 {
		per = 256
	}
	return per
}

// startLoop attaches a dispatch loop for worker url to the schedule, if it
// doesn't have one already.
func (c *Coordinator) startLoop(url string, sc *schedule) {
	if sc.addLoop(url) {
		go c.workerLoop(url, sc)
	}
}

// workerLoop is one worker's dispatcher: pull the next unit (work-stealing
// happens inside next), execute it remotely, deliver the result. A
// transport failure requeues the unit for someone else, drops the worker
// from the registry (its announce loop re-adds it when it recovers), and
// exits. An execution error — the worker ran the unit and the simulation
// itself failed — fails the job: every worker would fail it the same way.
func (c *Coordinator) workerLoop(url string, sc *schedule) {
	defer sc.removeLoop(url)
	for {
		u, ok := sc.next()
		if !ok {
			return
		}
		c.srv.Metrics().UnitDispatched()
		resp, err := c.postUnit(url, sc, u)
		if err != nil {
			c.srv.Metrics().UnitRetried()
			sc.requeue(u, err)
			c.dropWorker(url)
			return
		}
		if resp.Error != "" {
			sc.failWith(fmt.Errorf("cluster: worker %s: %s", url, resp.Error))
			return
		}
		sc.complete(u, resp.observations(), resp.Acc.Accumulator())
		c.noteUnit(url)
	}
}

// postUnit sends one unit to a worker and decodes the outcome. Any
// transport-level problem — connection refused, mid-body death, a non-200
// status such as a draining worker's 503, a body past the unit's size
// bound — reports as an error, which the caller treats as "this worker is
// gone", never as a job failure. Reading stops at the bound, so a hostile
// or broken worker cannot make the coordinator buffer without limit.
func (c *Coordinator) postUnit(workerURL string, sc *schedule, u unit) (*unitResponse, error) {
	body, err := json.Marshal(unitRequest{
		PointSpec: sc.points[u.point].spec,
		Seed:      sc.seed,
		Start:     u.start,
		N:         u.n,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.UnitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/cluster/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A unit's answer holds at most 21 JSON bytes per observation (a
	// uint64's 20 digits and a comma); 64 KiB covers the field names, the
	// accumulator state and an execution error's text.
	limit := 21*int64(u.n) + 64<<10
	bounded := &io.LimitedReader{R: resp.Body, N: limit}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, bounded)
		return nil, fmt.Errorf("cluster: worker %s answered %s", workerURL, resp.Status)
	}
	var out unitResponse
	if err := json.NewDecoder(bounded).Decode(&out); err != nil {
		if bounded.N == 0 {
			return nil, fmt.Errorf("cluster: worker %s response exceeds the %d-byte bound for a %d-replicate unit", workerURL, limit, u.n)
		}
		return nil, fmt.Errorf("cluster: decoding worker %s response: %w", workerURL, err)
	}
	return &out, nil
}

func (c *Coordinator) dropWorker(url string) {
	c.mu.Lock()
	delete(c.workers, url)
	n := len(c.workers)
	c.mu.Unlock()
	c.srv.Metrics().SetWorkers(n)
}

func (c *Coordinator) noteUnit(url string) {
	c.mu.Lock()
	if w, ok := c.workers[url]; ok {
		w.units++
	}
	c.mu.Unlock()
}

// monitor fails a job that has sat with work pending and no live dispatch
// loops for the stall timeout — every worker died and none re-joined, so
// waiting longer only hides the outage from the client.
func (c *Coordinator) monitor(sc *schedule, stop <-chan struct{}) {
	poll := c.cfg.StallTimeout / 10
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	var stalled time.Duration
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if sc.working() && sc.loopCount() == 0 {
				stalled += poll
				if stalled >= c.cfg.StallTimeout {
					sc.failWith(fmt.Errorf("cluster: no live workers for %s; job abandoned (workers can re-join and the client can resubmit)", c.cfg.StallTimeout))
					return
				}
			} else {
				stalled = 0
			}
		}
	}
}

// handleJoin registers (or refreshes) a worker. Joins double as
// heartbeats; a worker announced mid-job is attached to the running
// schedule immediately — that is how a recovered worker resumes stealing.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	if err := dec.Decode(&req); err != nil || req.URL == "" {
		http.Error(w, `{"error":"cluster: join needs {\"url\":...}"}`, http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	info, ok := c.workers[req.URL]
	if !ok {
		info = &workerInfo{url: req.URL}
		c.workers[req.URL] = info
	}
	info.lastSeen = time.Now()
	n := len(c.workers)
	sc := c.active
	c.mu.Unlock()
	c.srv.Metrics().SetWorkers(n)
	if sc != nil {
		c.startLoop(req.URL, sc)
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxArtifactBytes bounds a published artifact body; canonical artifact
// JSON is kilobytes, hostile bodies are not.
const maxArtifactBytes = 64 << 20

func (c *Coordinator) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, address, ok := c.srv.CachedResult(key)
	if !ok {
		http.Error(w, `{"error":"artifact not stored"}`, http.StatusNotFound)
		return
	}
	w.Header().Set("X-Artifact-Address", address)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (c *Coordinator) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxArtifactBytes))
	if err != nil {
		http.Error(w, `{"error":"cluster: reading artifact body"}`, http.StatusBadRequest)
		return
	}
	if len(body) == 0 {
		http.Error(w, `{"error":"cluster: empty artifact body"}`, http.StatusBadRequest)
		return
	}
	c.srv.StoreResult(key, body)
	w.WriteHeader(http.StatusNoContent)
}

// statusWorker is one row of GET /cluster/status.
type statusWorker struct {
	URL       string    `json:"url"`
	UnitsDone int64     `json:"unitsDone"`
	LastSeen  time.Time `json:"lastSeen"`
}

// clusterStatus is the body of GET /cluster/status.
type clusterStatus struct {
	Workers   []statusWorker `json:"workers"`
	ActiveJob bool           `json:"activeJob"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	st := clusterStatus{ActiveJob: c.active != nil, Workers: make([]statusWorker, 0, len(c.workers))}
	for _, info := range c.workers {
		st.Workers = append(st.Workers, statusWorker{URL: info.url, UnitsDone: info.units, LastSeen: info.lastSeen})
	}
	c.mu.Unlock()
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].URL < st.Workers[j].URL })
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
