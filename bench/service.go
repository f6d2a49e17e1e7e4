package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotuseater/internal/scenario"
	"lotuseater/internal/serve"
)

// The service workload drives serve over loopback with a closed loop of
// serviceClients clients, each sending its next request only once the
// previous one completed. A pass has four phases:
//
//	miss     distinct tiny specs (x/trade-token, one replicate, distinct
//	         seeds) POSTed to a fresh in-memory server, each polled every
//	         pollEvery until done;
//	disk     a server on the store set-up wrote answers one GET
//	         /results/{key} per key from disk;
//	hit      Zipf-chosen GETs of the same keys, answered from memory;
//	cluster  the clusterbench spec submitted to a coordinator with
//	         clusterWorkers loopback workers (booted during set-up).
//
// Writing the store is set-up, not a pass: it fsyncs every artifact and
// the index, so its time is the disk's latency, which drifts with the
// host's other tenants far more than anything the program does.
const (
	serviceClients = 2
	clusterWorkers = 2
	pollEvery      = time.Millisecond
	missScenario   = "x/trade-token"
	// benchVersion is folded into every cache key, so keys do not depend
	// on the build's VCS stamp.
	benchVersion = "bench"
)

// warmupClusterReps sizes the set-up's cluster job: enough units for both
// workers to open their connections and run a few windows.
const warmupClusterReps = 100

// serviceSize is the request mix's shape.
type serviceSize struct{ misses, hits, clusterReps int }

func sizeOf(small bool) serviceSize {
	if small {
		return serviceSize{misses: 20, hits: 100, clusterReps: 10}
	}
	// 250 samples put twelve beyond each tier's p95, and keep a pass at
	// about 3 s on one core, so that a run holds about ten.
	return serviceSize{misses: 250, hits: 2500, clusterReps: 200}
}

type service struct {
	seed  uint64
	size  serviceSize
	dir   string
	tally *tally

	misses      []serve.Request
	bySeed      map[uint64]int // miss seed -> request index
	hits        []int          // hit phase: miss request indices
	clusterSpec *scenario.Spec
	clusterRaw  []byte
	clusterSeed uint64 // pass p submits clusterSeed+p

	store  string // the disk tier's store directory, written by set-up
	rig    *clusterRig
	passes []servicePass
}

// servicePass is what one pass measured.
type servicePass struct {
	miss, disk, hit []time.Duration
	addrs           []string // disk-phase ETags, by miss request
	clusterWall     time.Duration
	clusterAddr     string
	clusterReps     int
	logs            []accessRecord
	jobs            []jobTimes
	jobSpans        []int64
	runs            float64 // simulations the miss and disk servers ran
	cacheHits       float64
	storeHits       float64
	retries, steals float64
}

func newService(cfg runConfig, t *tally) *service {
	return &service{seed: cfg.seed, size: sizeOf(cfg.small), dir: cfg.dir, tally: t}
}

// setup makes the request mix from the seed, writes the disk tier's store
// by running every miss once on a server with a store directory, boots the
// cluster and warms it up with a small job.
func (s *service) setup() error {
	if s.rig != nil {
		s.rig.close()
		s.rig = nil
	}
	rng := rand.New(rand.NewPCG(s.seed, 0x6c6f747573))
	n := s.size.misses
	s.misses = make([]serve.Request, n)
	s.bySeed = make(map[uint64]int, n)
	base := rng.Uint64()
	for i := range s.misses {
		seed := base + uint64(i)
		s.misses[i] = serve.Request{Scenario: missScenario, Replicates: 1, Seed: seed}
		s.bySeed[seed] = i
	}
	rank := rng.Perm(n)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(n-1))
	s.hits = make([]int, s.size.hits)
	for j := range s.hits {
		s.hits[j] = rank[zipf.Uint64()]
	}
	spec, ok := scenario.Get("x/trade-gossip")
	if !ok {
		return fmt.Errorf("bench: unknown scenario x/trade-gossip")
	}
	sets := []string{"nodes=48", "rounds=30", "replicates=" + strconv.Itoa(s.size.clusterReps), "sweep.points=2"}
	if err := spec.ApplySets(sets); err != nil {
		return err
	}
	raw, err := spec.CanonicalJSON()
	if err != nil {
		return err
	}
	s.clusterSpec, s.clusterRaw, s.clusterSeed = spec, raw, rng.Uint64()

	s.store = filepath.Join(s.dir, "store")
	if err := os.RemoveAll(s.store); err != nil {
		return err
	}
	tl := &timeline{jobs: make([]jobTimes, n)}
	a, err := s.startNode(s.store, nil, tl)
	if err != nil {
		return err
	}
	c := newClient(a.url, nil)
	p := servicePass{jobSpans: make([]int64, n)}
	keys := make([]string, n)
	closedLoop(n, s.tally, func(i int) (time.Duration, error) {
		return s.missJob(c, i, keys, tl, &p, 0)
	})
	c.close()
	a.close()

	rig, err := bootCluster()
	if err != nil {
		return err
	}
	s.rig = rig
	c = newClient(rig.url, nil)
	defer c.close()
	_, _, err = s.clusterJob(c, nil, 0, "warm-up", s.clusterSeed-1, warmupClusterReps)
	return err
}

func (s *service) close() {
	if s.rig != nil {
		s.rig.close()
	}
	os.RemoveAll(s.dir)
}

func (s *service) pass(tr *tracer, root int64) {
	n := len(s.misses)
	pi := len(s.passes)
	p := servicePass{addrs: make([]string, n), jobs: make([]jobTimes, n), jobSpans: make([]int64, n)}
	defer func() { s.passes = append(s.passes, p) }()
	tl := &timeline{jobs: p.jobs}
	keys := make([]string, n)

	phase := tr.open("bench.miss", "miss", root)
	a, err := s.startNode("", tr, tl)
	if err != nil {
		s.tally.op(err)
		return
	}
	c := newClient(a.url, tr)
	p.miss = closedLoop(n, s.tally, func(i int) (time.Duration, error) {
		return s.missJob(c, i, keys, tl, &p, phase)
	})
	runs := a.srv.Runs()
	p.runs += float64(runs)
	s.tally.check(runs == uint64(n), "service: the miss phase ran %d simulations for %d distinct requests", runs, n)
	s.scrape(c, &p)
	c.close()
	a.close()
	p.logs = append(p.logs, a.log.records(s.tally)...)
	tr.close(phase)
	if tr != nil {
		for i, j := range tl.snapshot() {
			trace := "miss-" + strconv.Itoa(i)
			tr.add("serve.queue_wait", trace, p.jobSpans[i], j.posted, j.runStart)
			tr.add("scenario.run", trace, p.jobSpans[i], j.runStart, j.runEnd)
			tr.add("metrics.encode", trace, p.jobSpans[i], j.runEnd, j.encoded)
			tr.add("serve.finish", trace, p.jobSpans[i], j.encoded, j.done)
		}
	}
	p.jobs = tl.snapshot()

	phase = tr.open("bench.disk", "disk", root)
	b, err := s.startNode(s.store, tr, tl)
	if err != nil {
		s.tally.op(err)
		return
	}
	c = newClient(b.url, tr)
	p.disk = closedLoop(n, s.tally, func(i int) (time.Duration, error) {
		d, etag, err := c.result(keys[i], "disk-"+strconv.Itoa(i), phase)
		p.addrs[i] = etag
		return d, err
	})
	tr.close(phase)
	phase = tr.open("bench.hit", "hit", root)
	p.hit = closedLoop(len(s.hits), s.tally, func(j int) (time.Duration, error) {
		d, _, err := c.result(keys[s.hits[j]], "hit-"+strconv.Itoa(j), phase)
		return d, err
	})
	runs = b.srv.Runs()
	p.runs += float64(runs)
	s.tally.check(runs == 0, "service: the restarted server ran %d simulations serving stored results", runs)
	s.scrape(c, &p)
	c.close()
	b.close()
	logs := b.log.records(s.tally)
	p.logs = append(p.logs, logs...)
	tr.close(phase)
	tiers := map[string]int{}
	for _, r := range logs {
		if r.Route == "/results/{key}" {
			tiers[r.Cache]++
		}
	}
	s.tally.check(tiers["disk"] == n && tiers["hit"] == len(s.hits),
		"service: result tiers %v, want %d disk and %d hit", tiers, n, len(s.hits))

	before := s.rig.counters(s.tally)
	c = newClient(s.rig.url, tr)
	p.clusterWall, p.clusterAddr, err = s.clusterJob(c, tr, root, "cluster-"+strconv.Itoa(pi), s.clusterSeed+uint64(pi), 0)
	c.close()
	s.tally.op(err)
	after := s.rig.counters(s.tally)
	p.clusterReps = scenario.TotalReplicates(s.clusterSpec, scenario.RunOptions{})
	p.retries = after["lotus_cluster_unit_retries_total"] - before["lotus_cluster_unit_retries_total"]
	p.steals = after["lotus_cluster_unit_steals_total"] - before["lotus_cluster_unit_steals_total"]
}

// missJob submits miss request i and polls its job until done, returning
// the time from sending the POST to observing the job done.
func (s *service) missJob(c *client, i int, keys []string, tl *timeline, p *servicePass, phase int64) (time.Duration, error) {
	trace := "miss-" + strconv.Itoa(i)
	job := c.tr.open("bench.job", trace, phase)
	p.jobSpans[i] = job
	defer c.tr.close(job)
	body, err := json.Marshal(s.misses[i])
	if err != nil {
		return 0, err
	}
	start := time.Now()
	var sub struct {
		Key string `json:"key"`
	}
	if err := c.json(http.MethodPost, "/experiments", body, http.StatusAccepted, &sub, trace, job); err != nil {
		return 0, fmt.Errorf("service: miss %d: %w", i, err)
	}
	tl.set(i, func(j *jobTimes) { j.posted = time.Now() })
	keys[i] = sub.Key
	if err := c.await(sub.Key, trace, job); err != nil {
		return 0, fmt.Errorf("service: miss %d: %w", i, err)
	}
	done := time.Now()
	tl.set(i, func(j *jobTimes) { j.done = done })
	return done.Sub(start), nil
}

// clusterJob submits the cluster spec with the given seed (and replicate
// override when positive), waits for it, and fetches the artifact's
// address; the returned time runs from submit to the job observed done.
func (s *service) clusterJob(c *client, tr *tracer, root int64, trace string, seed uint64, reps int) (time.Duration, string, error) {
	job := tr.open("cluster.job", trace, root)
	if tr != nil {
		s.rig.cur.Store(&clusterTrace{tr: tr, trace: trace, parent: job})
		defer s.rig.cur.Store(nil)
	}
	body, err := json.Marshal(struct {
		Spec       json.RawMessage `json:"spec"`
		Seed       uint64          `json:"seed"`
		Replicates int             `json:"replicates,omitempty"`
	}{s.clusterRaw, seed, reps})
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	var sub struct {
		Key string `json:"key"`
	}
	if err := c.json(http.MethodPost, "/experiments", body, http.StatusAccepted, &sub, trace, job); err != nil {
		return 0, "", fmt.Errorf("service: cluster job: %w", err)
	}
	if err := c.await(sub.Key, trace, job); err != nil {
		return 0, "", fmt.Errorf("service: cluster job: %w", err)
	}
	wall := time.Since(start)
	tr.close(job)
	_, addr, err := c.result(sub.Key, trace, root)
	return wall, addr, err
}

// scrape reads the server's /metrics, checks the exposition, and adds its
// cache and store hit counters to the pass.
func (s *service) scrape(c *client, p *servicePass) {
	vals, err := c.scrape()
	s.tally.op(err)
	p.cacheHits += vals["lotus_cache_hits_total"]
	p.storeHits += vals["lotus_store_hits_total"]
}

// check verifies what the passes could not check alone: every pass served
// the same artifacts, and the cluster's artifact equals a local run's.
func (s *service) check() {
	first := s.passes[0]
	for pi, p := range s.passes[1:] {
		same := len(p.addrs) == len(first.addrs)
		for i := 0; same && i < len(p.addrs); i++ {
			same = p.addrs[i] == first.addrs[i]
		}
		s.tally.check(same, "service: pass %d served different artifacts than pass 0", pi+1)
	}
	a, err := scenario.Run(s.clusterSpec, s.clusterSeed, scenario.RunOptions{})
	s.tally.op(err)
	if err != nil {
		return
	}
	local, err := a.Address()
	s.tally.op(err)
	s.tally.check(`"`+local+`"` == first.clusterAddr, "service: cluster artifact %s differs from the local run's %s", first.clusterAddr, local)
}

// layers reports tier latency and cluster throughput from the untraced
// pass, and the server, queue, kernel and cluster breakdowns from the
// traced one.
func (s *service) layers(untraced, traced int, spans []span) map[string]float64 {
	u, t := s.passes[untraced], s.passes[traced]
	m := map[string]float64{}
	for tier, lat := range map[string][]time.Duration{"hit": u.hit, "disk": u.disk, "miss": u.miss} {
		ds := millis(lat)
		m["serve."+tier+"_ms.p50"] = percentile(ds, 0.5)
		m["serve."+tier+"_ms.p95"] = percentile(ds, 0.95)
	}
	if u.clusterWall > 0 {
		m["cluster.reps_per_s"] = float64(u.clusterReps) / u.clusterWall.Seconds()
	}

	byRoute := map[string][]float64{}
	for _, r := range t.logs {
		if d, err := time.ParseDuration(r.Dur); err == nil {
			byRoute[r.Route] = append(byRoute[r.Route], ms(d))
		}
	}
	for route, name := range map[string]string{"/experiments": "experiments", "/jobs/{key}": "jobs", "/results/{key}": "results"} {
		m["serve.server_ms."+name+".p50"] = percentile(byRoute[route], 0.5)
		m["serve.server_ms."+name+".p95"] = percentile(byRoute[route], 0.95)
	}

	byID := make(map[int64]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var transport, wire []float64
	for _, sp := range spans {
		parent, ok := byID[sp.Parent]
		switch {
		case !ok:
		case sp.Name == "serve.handler" && parent.Name == "http.request" &&
			(strings.HasPrefix(sp.Trace, "hit-") || strings.HasPrefix(sp.Trace, "disk-")):
			transport = append(transport, ms(parent.dur()-sp.dur()))
		case sp.Name == "cluster.exec" && parent.Name == "cluster.unit":
			wire = append(wire, ms(parent.dur()-sp.dur()))
		}
	}
	m["serve.transport_ms"] = median(transport)
	m["cluster.wire_ms"] = median(wire)

	var queue, compute, finish []float64
	for _, j := range t.jobs {
		queue = append(queue, ms(max(0, j.runStart.Sub(j.posted))))
		compute = append(compute, ms(j.runEnd.Sub(j.runStart)))
		finish = append(finish, ms(j.done.Sub(j.encoded)))
	}
	m["serve.queue_wait_ms"] = median(queue)
	m["serve.compute_ms"] = median(compute)
	m["serve.finish_ms"] = median(finish)
	m["metrics.encode_ms"] = ms(total(spans, "metrics.encode"))
	m["serve.runs"] = t.runs
	m["serve.cache_hits"] = t.cacheHits
	m["serve.store_hits"] = t.storeHits

	m["cluster.unit_rtt_ms"] = median(millis(durations(spans, "cluster.unit")))
	m["cluster.unit_exec_ms"] = median(millis(durations(spans, "cluster.exec")))
	m["cluster.units"] = float64(len(durations(spans, "cluster.unit")))
	m["cluster.retries"] = t.retries
	m["cluster.steals"] = t.steals
	for _, job := range spans {
		if job.Name != "cluster.job" {
			continue
		}
		var units [][2]int64
		for _, sp := range spans {
			if sp.Name == "cluster.unit" && sp.Trace == job.Trace {
				units = append(units, [2]int64{sp.Start, sp.End})
			}
		}
		m["cluster.coord_overhead_s"] = (job.dur() - time.Duration(covered(units, job.Start, job.End))).Seconds()
	}
	return m
}

// closedLoop runs operations 0..n-1 on serviceClients goroutines, each
// starting its next operation only when the previous one returned, and
// returns the latencies of those that succeeded.
func closedLoop(n int, t *tally, op func(i int) (time.Duration, error)) []time.Duration {
	lat := make([]time.Duration, n)
	ok := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range serviceClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				d, err := op(i)
				t.op(err)
				lat[i], ok[i] = d, err == nil
			}
		}()
	}
	wg.Wait()
	out := lat[:0]
	for i, d := range lat {
		if ok[i] {
			out = append(out, d)
		}
	}
	return out
}

// jobTimes is one miss job's timeline: the client saw the POST answered,
// the server's Run started and returned, the bench encoded the artifact
// (traced passes), and the client saw the job done.
type jobTimes struct{ posted, runStart, runEnd, encoded, done time.Time }

// timeline collects job times written by the clients and the server's
// executor.
type timeline struct {
	mu   sync.Mutex
	jobs []jobTimes
}

func (tl *timeline) set(i int, f func(*jobTimes)) {
	tl.mu.Lock()
	f(&tl.jobs[i])
	tl.mu.Unlock()
}

func (tl *timeline) snapshot() []jobTimes {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return append([]jobTimes(nil), tl.jobs...)
}
