// Package serve is the long-running experiment service behind `lotus-sim
// serve`: the simulation kernel from internal/sim and the declarative
// scenario engine from internal/scenario, fronted by a JSON HTTP API whose
// hot path is a cache hit.
//
// A request names a registry scenario or carries a full JSON spec, plus
// -set-style overrides, a seed, and replicate/point overrides. The server
// folds the overrides into the spec, canonicalizes it
// (scenario.CanonicalJSON), and derives a deterministic cache key from the
// canonical bytes, the seed, and the code version. Repeat queries — however
// their JSON is ordered or their defaults spelled — answer from a bounded
// content-addressed result cache (LRU by bytes); concurrent identical
// requests singleflight onto one queued job; misses enqueue on a bounded
// job queue executed one run at a time on the shared worker pool (each run
// itself parallelizes across replicates), with progress visible while it
// folds.
//
// Routes:
//
//	POST /experiments        submit a run; 200 on cache hit, 202 when queued
//	GET  /jobs/{key}         job status: queued -> running (replicate counts) -> done|failed
//	GET  /results/{key}      cached artifact as ?format=json|csv|text (ETag = artifact address)
//	GET  /scenarios          the scenario catalogue
//	GET  /healthz            liveness + cache/queue/run statistics
//	GET  /metrics            Prometheus text exposition (internal/obs)
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// CacheBytes bounds the result cache by total artifact bytes
	// (default 64 MiB). The newest result always survives eviction.
	CacheBytes int64
	// QueueDepth bounds how many jobs may wait behind the executor
	// (default 64); an admitted-but-full queue answers 503.
	QueueDepth int
	// Workers bounds each run's in-flight replicates on the shared pool
	// (0 = pool width). Results never depend on it.
	Workers int
	// Version is folded into every cache key so results computed by a
	// different build are never served as current. Empty means the build's
	// VCS revision (module version, then "dev", as fallbacks).
	Version string
	// Run executes one resolved experiment (nil = scenario.Run in this
	// process). A cluster coordinator injects its distributed runner here;
	// everything else about the service — cache, singleflight, queue,
	// progress — is role-independent.
	Run RunFunc
	// Store, when non-nil, federates the result cache beyond this process:
	// lookups that miss locally consult it (and fill the local cache on a
	// hit), and finished artifacts are published to it. A cluster worker
	// points this at its coordinator, making every node's `/results/{key}`
	// answer from the fleet-wide store.
	Store ArtifactStore
	// StoreDir, when non-empty, persists finished artifacts to disk under
	// this directory so results survive a restart. Lookups that miss the
	// in-memory cache read through the disk store (re-hashing every body —
	// disk is never trusted) before consulting Store.
	StoreDir string
	// StoreMaxBytes bounds the disk store's unique blob bytes (<= 0 means
	// 1 GiB). Opening the store and every put evict oldest-stored entries
	// past the budget; the newest entry always survives.
	StoreMaxBytes int64
	// StoreMaxAge, when positive, expires disk entries stored longer ago
	// than this: at open, then on a tick of half the bound, clamped to
	// [1 s, 1 min]. Zero means no age bound.
	StoreMaxAge time.Duration
	// LogFormat selects structured request logging: "json" emits one JSON
	// line per request to LogWriter; "" or "off" disables logging.
	LogFormat string
	// LogWriter receives access log lines (nil = os.Stderr).
	LogWriter io.Writer
}

// RunFunc executes one resolved experiment and returns its artifact. The
// options carry the service's worker bound and the job's progress
// callbacks, exactly as the local runner receives them.
type RunFunc func(spec *scenario.Spec, seed uint64, opts scenario.RunOptions) (*metrics.Artifact, error)

// ArtifactStore is a remote content-addressed artifact store — the shared
// half of the cluster cache. Keys are the same deterministic cache keys the
// local LRU uses; bodies are canonical artifact JSON whose sha256 is the
// address, so a store answer is verifiable by either side.
type ArtifactStore interface {
	// Lookup returns the artifact stored under key, if any. It may do
	// network I/O; never call it while holding server locks.
	Lookup(key string) (body []byte, address string, ok bool)
	// Publish offers a finished artifact to the store. Best effort: the
	// local cache already holds the result, so a lost publish costs a
	// recompute, not correctness.
	Publish(key string, body []byte, address string)
}

// finishedCap bounds how many finished (done/failed) job records are kept
// for the status endpoint; beyond it the oldest are dropped. Completed keys
// still answer "done" for as long as their result stays cached.
const finishedCap = 1024

// Server is the experiment service. It implements http.Handler; wrap it in
// an http.Server (or httptest.Server) to listen. Close is idempotent.
type Server struct {
	cfg     Config
	version string
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in Observe; what ServeHTTP dispatches
	cache   *resultCache
	run     RunFunc
	store   ArtifactStore
	disk    *diskStore // nil without StoreDir
	met     *Metrics
	alog    *accessLog // nil unless LogFormat selects one

	mu       sync.Mutex
	jobs     map[string]*job // singleflight: live and recently finished jobs
	finished []*job          // finished-job retention ring, oldest first
	closed   bool
	closeErr error // what queued jobs fail with once closed

	queue     chan *job
	execDone  chan struct{}
	closeOnce sync.Once
	// commitSlot holds a token while no finished job waits on the disk
	// store's writer. The executor takes it before handing an artifact over
	// and the job's commit returns it, so a run overlaps one commit at most
	// and a slow disk fills the queue, whose bound refuses submits, rather
	// than memory.
	commitSlot chan struct{}

	runs atomic.Uint64 // simulations actually executed (the singleflight proof)
}

// New builds a Server and starts its executor (and, with StoreDir set, the
// disk store's writer and its GC ticks). The only error source is opening
// the disk store — an unusable store directory should fail startup loudly,
// not silently degrade to memory-only persistence.
func New(cfg Config) (*Server, error) {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	version := cfg.Version
	if version == "" {
		version = codeVersion()
	}
	s := &Server{
		cfg:      cfg,
		version:  version,
		mux:      http.NewServeMux(),
		cache:    newResultCache(cfg.CacheBytes),
		run:      cfg.Run,
		store:    cfg.Store,
		jobs:     make(map[string]*job),
		queue:    make(chan *job, cfg.QueueDepth),
		execDone: make(chan struct{}),
	}
	s.commitSlot = make(chan struct{}, 1)
	s.commitSlot <- struct{}{}
	if s.run == nil {
		s.run = func(spec *scenario.Spec, seed uint64, opts scenario.RunOptions) (*metrics.Artifact, error) {
			return scenario.Run(spec, seed, opts)
		}
	}
	if cfg.StoreDir != "" {
		disk, err := openDiskStore(cfg.StoreDir, cfg.StoreMaxBytes, cfg.StoreMaxAge)
		if err != nil {
			return nil, err
		}
		s.disk = disk
	}
	s.met = newMetrics(s)
	s.alog = newAccessLog(cfg.LogFormat, cfg.LogWriter)
	s.mux.HandleFunc("POST /experiments", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{key}", s.handleJob)
	s.mux.HandleFunc("GET /results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /scenarios", s.handleScenarios)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", s.met.Registry().Handler())
	s.handler = s.Observe(s.mux)
	go s.execute()
	return s, nil
}

// ServeHTTP dispatches to the service's routes through the request
// instrumentation (metrics, access log).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close stops the executor and fails any still-queued jobs with "server
// closed". A run already in flight completes first (simulations are not
// cancellable mid-replicate), and so does every artifact still being
// written to the disk store, so each job reported done is on disk when
// Close returns. Close is idempotent and safe to call
// concurrently; it does not stop an enclosing http.Server — shut that down
// first so no new jobs arrive.
func (s *Server) Close() error {
	return s.shutdown(errors.New("serve: server closed"))
}

// Drain is the graceful SIGTERM path: stop admitting, let the run in
// flight finish, and fail every still-queued job with a status that names
// the drain (clients see "failed: server draining" rather than a generic
// close, so they know to resubmit elsewhere). Like Close it is idempotent
// — whichever of the two runs first decides the message — and it does not
// stop an enclosing http.Server; shut that down first.
func (s *Server) Drain() error {
	return s.shutdown(errors.New("serve: server draining; job not started, resubmit"))
}

func (s *Server) shutdown(reason error) error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.closeErr = reason
		s.mu.Unlock()
		close(s.queue)
		<-s.execDone
		if s.disk != nil {
			s.disk.Close() // the writer finishes the jobs handed to it first
		}
	})
	return nil
}

// Version returns the code version folded into cache keys.
func (s *Server) Version() string { return s.version }

// Runs returns how many simulations the server has actually executed —
// cache hits and singleflighted joins don't count.
func (s *Server) Runs() uint64 { return s.runs.Load() }

// execute drains the job queue one run at a time. The run itself fans out
// across replicates on the shared pool, so a single executor already uses
// the whole machine; queueing runs rather than racing them keeps memory
// bounded and progress legible.
func (s *Server) execute() {
	defer close(s.execDone)
	for j := range s.queue {
		s.mu.Lock()
		closed, reason := s.closed, s.closeErr
		s.mu.Unlock()
		if closed {
			j.fail(reason)
			s.retire(j)
			continue
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.setRunning()
	s.runs.Add(1)
	start := time.Now()
	a, err := s.run(j.spec, j.seed, scenario.RunOptions{
		Workers:       s.cfg.Workers,
		Progress:      j.progress,
		PointProgress: j.pointProgress,
	})
	elapsed := time.Since(start)
	if err != nil {
		s.met.jobsFailed.Inc()
		j.fail(err)
		s.retire(j)
		return
	}
	body, encErr := a.CanonicalJSON()
	if encErr != nil {
		s.met.jobsFailed.Inc()
		j.fail(fmt.Errorf("serve: encoding artifact: %w", encErr))
		s.retire(j)
		return
	}
	s.met.jobsDone.Inc()
	s.met.jobDuration.Observe(elapsed.Seconds())
	if reps := j.totalReplicates(); reps > 0 {
		s.met.jobReplicates.Add(uint64(reps))
		if secs := elapsed.Seconds(); secs > 0 {
			s.met.jobRepsPerSec.Observe(float64(reps) / secs)
		}
	}
	address := metrics.AddressBytes(body)
	s.cache.Put(j.key, body, address)
	if s.store != nil {
		s.store.Publish(j.key, body, address) // may do network I/O: never on the disk store's writer
	}
	if s.disk == nil {
		j.finish()
		s.retire(j)
		return
	}
	// The disk store's writer reports the job done once its record is
	// durable, while the executor goes on to the next run.
	<-s.commitSlot
	s.disk.PutAsync(j.key, body, address, func() {
		j.finish()
		s.retire(j)
		s.commitSlot <- struct{}{}
	})
}

// retire moves a finished job into the bounded retention ring, dropping the
// oldest finished record once the ring is full (unless a newer live job has
// already taken its key).
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j)
	for len(s.finished) > finishedCap {
		old := s.finished[0]
		s.finished = s.finished[1:]
		if s.jobs[old.key] == old {
			delete(s.jobs, old.key)
		}
	}
}

// Request is the body of POST /experiments. Exactly one of Scenario and
// Spec selects the run; Set applies `-set key=value` overrides on top, and
// Replicates/Points override the spec's counts (the "quality" of the run)
// before the cache key is derived, so they are part of the run's identity.
type Request struct {
	// Scenario names a registry entry.
	Scenario string `json:"scenario,omitempty"`
	// Spec is a full JSON scenario.Spec, as `lotus-sim scenarios show`
	// prints.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Set holds key=value overrides, identical to the CLI's -set flag.
	Set []string `json:"set,omitempty"`
	// Seed is the run's random seed (0 is a valid seed and the default).
	Seed uint64 `json:"seed,omitempty"`
	// Replicates overrides replicates per sweep point when positive.
	Replicates int `json:"replicates,omitempty"`
	// Points overrides the sweep's point count when positive (ignored
	// without a sweep axis, exactly like the CLI flag).
	Points int `json:"points,omitempty"`
}

// submitResponse is the body of POST /experiments responses.
type submitResponse struct {
	Key       string `json:"key"`
	Status    string `json:"status"`
	Cached    bool   `json:"cached"`
	Address   string `json:"address,omitempty"` // artifact content address on cache hit
	StatusURL string `json:"statusUrl"`
	ResultURL string `json:"resultUrl"`
}

// resolveSpec turns a request into a validated, override-applied spec.
func resolveSpec(req *Request) (*scenario.Spec, error) {
	var spec *scenario.Spec
	switch {
	case req.Scenario != "" && len(req.Spec) > 0:
		return nil, errors.New("serve: give scenario or spec, not both")
	case req.Scenario != "":
		got, ok := scenario.Get(req.Scenario)
		if !ok {
			return nil, fmt.Errorf("serve: unknown scenario %q (GET /scenarios lists the catalogue)", req.Scenario)
		}
		spec = got
	case len(req.Spec) > 0:
		got, err := scenario.Decode(req.Spec)
		if err != nil {
			return nil, err
		}
		spec = got
	default:
		return nil, errors.New("serve: request needs a scenario name or a spec")
	}
	if err := spec.ApplySets(req.Set); err != nil {
		return nil, err
	}
	if req.Replicates < 0 || req.Points < 0 {
		return nil, errors.New("serve: replicates and points overrides must be non-negative")
	}
	if req.Replicates > 0 {
		spec.OverrideReplicates(req.Replicates)
	}
	if req.Points > 0 && spec.Sweep.Axis != "" {
		spec.Sweep.Points = req.Points
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// cacheKey derives the request's deterministic identity: code version, seed,
// and the spec's canonical bytes. Replicate/point overrides are already
// folded into the spec, so the canonical form carries the run's full
// quality.
func (s *Server) cacheKey(spec *scenario.Spec, seed uint64) (string, error) {
	canon, err := spec.CanonicalJSON()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", s.version, seed)
	h.Write(canon)
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}

// Cache-outcome labels for the access log: where a lookup was answered.
const (
	cacheHit    = "hit"    // in-memory cache
	cacheDisk   = "disk"   // disk store (read-through, refills memory)
	cacheRemote = "remote" // federated store (read-through, refills memory)
	cacheMiss   = "miss"   // nowhere; the caller recomputes
)

// lookup resolves a cache key through the read-through chain: the local LRU,
// then the disk store, then the federated store — each hit refills the
// layers above it so repeat queries stay local. The outcome names the layer
// that answered (for the access log). The store may do network I/O; callers
// must not hold s.mu.
func (s *Server) lookup(key string) (body []byte, address string, outcome string, ok bool) {
	if body, address, ok = s.cache.Get(key); ok {
		return body, address, cacheHit, true
	}
	if s.disk != nil {
		if body, address, ok = s.disk.Get(key); ok {
			s.cache.Put(key, body, address)
			return body, address, cacheDisk, true
		}
	}
	if s.store != nil {
		if body, address, ok = s.store.Lookup(key); ok {
			s.cache.Put(key, body, address)
			if s.disk != nil {
				s.disk.Put(key, body, address)
			}
			return body, address, cacheRemote, true
		}
	}
	return nil, "", cacheMiss, false
}

// CachedResult returns the artifact under key from this node's own layers —
// memory, then disk — with no remote consultation, so a store server can
// answer peers from it without recursing into the federation layer.
func (s *Server) CachedResult(key string) (body []byte, address string, ok bool) {
	if body, address, ok = s.cache.Get(key); ok {
		return body, address, true
	}
	if s.disk != nil {
		if body, address, ok = s.disk.Get(key); ok {
			s.cache.Put(key, body, address)
			return body, address, true
		}
	}
	return nil, "", false
}

// StoreResult inserts an artifact published by another node into this
// node's cache (and disk store) under its cache key. The address is
// recomputed from the bytes — content addressing makes a corrupt or
// mislabeled publish self-evident downstream, never silently served under a
// wrong ETag.
func (s *Server) StoreResult(key string, body []byte) {
	address := metrics.AddressBytes(body)
	s.cache.Put(key, body, address)
	if s.disk != nil {
		s.disk.Put(key, body, address)
	}
}

// maxRequestBytes bounds a submit body; specs are small, hostile bodies are
// not.
const maxRequestBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	spec, err := resolveSpec(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := s.cacheKey(spec, req.Seed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := submitResponse{
		Key:       key,
		StatusURL: "/jobs/" + key,
		ResultURL: "/results/" + key,
	}
	noteKey(r, key)

	// The federated lookup may do network I/O, so it runs before the lock;
	// the singleflight checks below re-consult the local cache (cheap) for
	// anything that landed in between.
	if _, address, outcome, ok := s.lookup(key); ok {
		noteCache(r, outcome)
		resp.Status = StateDone
		resp.Cached = true
		resp.Address = address
		writeJSON(w, http.StatusOK, resp)
		return
	}
	noteCache(r, cacheMiss)

	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok {
		st := j.status()
		if st.Status == StateQueued || st.Status == StateRunning {
			// Singleflight: join the in-flight job.
			resp.Status = st.Status
			writeJSON(w, http.StatusAccepted, resp)
			return
		}
		// The job finished between our cache check and here (runJob caches
		// and finishes without taking s.mu): its result is a hit now, not a
		// reason to run again.
		if _, address, ok := s.cache.Get(key); ok {
			resp.Status = StateDone
			resp.Cached = true
			resp.Address = address
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// A finished record whose result fell out of the cache (or failed):
		// fall through and run again.
	}
	if s.closed {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: server closed"))
		return
	}
	j := newJob(key, spec, req.Seed, scenario.TotalReplicates(spec, scenario.RunOptions{}))
	select {
	case s.queue <- j:
		s.jobs[key] = j
		resp.Status = StateQueued
		writeJSON(w, http.StatusAccepted, resp)
	default:
		writeError(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: job queue full (%d queued); retry later", cap(s.queue)))
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.mu.Lock()
	j, ok := s.jobs[key]
	s.mu.Unlock()
	if ok {
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	// The job record may have been retired while the result lives on.
	if _, _, ok := s.cache.Get(key); ok {
		writeJSON(w, http.StatusOK, jobStatus{Key: key, Status: StateDone})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", key))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	noteKey(r, key)
	body, address, outcome, ok := s.lookup(key)
	noteCache(r, outcome)
	if !ok {
		s.mu.Lock()
		j, live := s.jobs[key]
		s.mu.Unlock()
		if live {
			st := j.status()
			switch st.Status {
			case StateQueued, StateRunning:
				writeJSON(w, http.StatusAccepted, st)
			case StateFailed:
				writeJSON(w, http.StatusInternalServerError, st)
			default: // done but evicted
				writeError(w, http.StatusNotFound, fmt.Errorf("serve: result %q evicted; re-submit the request", key))
			}
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown result %q", key))
		return
	}

	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	etag := `"` + address + `"`
	w.Header().Set("ETag", etag)
	// Conditional request: a client revalidating the artifact it already
	// holds gets 304 and no body. Content addressing makes this exact — the
	// ETag is the body's hash, so a match guarantees byte identity.
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	switch format {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case "csv", "text":
		a, err := metrics.DecodeArtifact(body)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: decoding cached artifact: %w", err))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if format == "csv" {
			w.Header().Set("Content-Type", "text/csv")
			fmt.Fprint(w, a.CSV())
		} else {
			fmt.Fprint(w, a.Text())
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown format %q (want json|csv|text)", format))
	}
}

// scenarioInfo is one row of GET /scenarios.
type scenarioInfo struct {
	Name        string `json:"name"`
	Substrate   string `json:"substrate"`
	Description string `json:"description,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	all := scenario.All()
	out := make([]scenarioInfo, 0, len(all))
	for _, spec := range all {
		out = append(out, scenarioInfo{Name: spec.Name, Substrate: spec.Substrate, Description: spec.Description})
	}
	writeJSON(w, http.StatusOK, out)
}

// health is the body of GET /healthz.
type health struct {
	Status  string     `json:"status"`
	Version string     `json:"version"`
	Runs    uint64     `json:"runs"`
	Queued  int        `json:"queued"`
	Depth   int        `json:"queueDepth"`
	Cache   cacheStats `json:"cache"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, health{
		Status:  "ok",
		Version: s.version,
		Runs:    s.runs.Load(),
		Queued:  len(s.queue),
		Depth:   cap(s.queue),
		Cache:   s.cache.Stats(),
	})
}

// etagMatch implements If-None-Match (RFC 9110 §13.1.2): a comma-separated
// list of entity tags, each possibly weak (`W/"..."`), or the wildcard `*`.
// Comparison is weak — a weak client tag still matches our strong one,
// which is right for revalidation (304), the only place this is used.
func etagMatch(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		if candidate == "*" {
			return true
		}
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// codeVersion identifies the running build for cache keys: the VCS revision
// when the binary carries one, the module version otherwise, "dev" as the
// last resort (a dev process still caches consistently within itself).
func codeVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				return kv.Value
			}
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
	}
	return "dev"
}
