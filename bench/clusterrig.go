package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lotuseater/internal/cluster"
	"lotuseater/internal/serve"
)

// clusterRig is a coordinator and its loopback workers. The coordinator's
// HTTP client times each unit's round trip, and each worker's handler
// times the unit's execution, while a traced pass has set cur.
type clusterRig struct {
	coord     *cluster.Coordinator
	workers   []*cluster.Worker
	coordL    *loopback
	workerLs  []*loopback
	url       string
	transport *http.Transport
	cur       atomic.Pointer[clusterTrace]
}

// clusterTrace is where a traced cluster job's unit spans go.
type clusterTrace struct {
	tr     *tracer
	trace  string
	parent int64
}

func bootCluster() (*clusterRig, error) {
	rig := &clusterRig{transport: http.DefaultTransport.(*http.Transport).Clone()}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Serve:        serve.Config{Workers: 1, Version: benchVersion},
		StallTimeout: 2 * time.Minute,
		Client:       &http.Client{Transport: &unitTransport{base: rig.transport, rig: rig}},
	})
	if err != nil {
		return nil, err
	}
	rig.coord = coord
	if rig.coordL, err = listen(coord); err != nil {
		coord.Close()
		return nil, err
	}
	rig.url = rig.coordL.url
	for range clusterWorkers {
		wk, err := cluster.NewWorker(cluster.WorkerConfig{
			Serve:            serve.Config{Workers: 1, Version: benchVersion},
			Coordinator:      rig.url,
			AnnounceInterval: time.Second,
		})
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.workers = append(rig.workers, wk)
		l, err := listen(&execHandler{next: wk, rig: rig})
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.workerLs = append(rig.workerLs, l)
		wk.Announce(l.url)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(coord.WorkerURLs()) < clusterWorkers {
		if time.Now().After(deadline) {
			rig.close()
			return nil, fmt.Errorf("bench: coordinator saw %d of %d workers join", len(coord.WorkerURLs()), clusterWorkers)
		}
		time.Sleep(time.Millisecond)
	}
	return rig, nil
}

// close stops the workers (and their announce loops) first, while the
// coordinator still answers, then every listener, then the coordinator.
func (r *clusterRig) close() {
	for _, wk := range r.workers {
		wk.Close()
	}
	for _, l := range r.workerLs {
		l.close()
	}
	if r.coordL != nil {
		r.coordL.close()
	}
	r.coord.Close()
	r.transport.CloseIdleConnections()
}

// counters scrapes the coordinator's /metrics.
func (r *clusterRig) counters(t *tally) map[string]float64 {
	c := newClient(r.url, nil)
	defer c.close()
	vals, err := c.scrape()
	t.op(err)
	return vals
}

// unitTransport times each unit the coordinator posts to a worker, from
// sending the request to the worker's response body being closed.
type unitTransport struct {
	base http.RoundTripper
	rig  *clusterRig
}

func (u *unitTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ct := u.rig.cur.Load()
	if ct == nil || req.URL.Path != "/cluster/run" {
		return u.base.RoundTrip(req)
	}
	id := ct.tr.open("cluster.unit", ct.trace, ct.parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	req.Header.Set(traceHeader, ct.trace)
	resp, err := u.base.RoundTrip(req)
	if err != nil {
		ct.tr.close(id)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { ct.tr.close(id) }}
	return resp, nil
}

// spanBody ends a span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// execHandler times a worker's execution of each unit.
type execHandler struct {
	next http.Handler
	rig  *clusterRig
}

func (h *execHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ct := h.rig.cur.Load()
	if ct == nil || r.URL.Path != "/cluster/run" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	ct.tr.add("cluster.exec", r.Header.Get(traceHeader), parent, start, time.Now())
}
