package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/obs"
	"lotuseater/internal/scenario"
	"lotuseater/internal/serve"
)

// The client headers that link a server-side span to the client request
// that caused it.
const (
	spanHeader  = "X-Bench-Span"
	traceHeader = "X-Bench-Trace"
)

// node is one experiment server on loopback, with its access log kept in
// memory.
type node struct {
	srv *serve.Server
	log *logBuffer
	*loopback
}

// startNode boots a server on the store directory, or in memory when dir is
// empty, whose Run records each miss job's compute window (and, traced, the
// artifact's encode time).
func (s *service) startNode(dir string, tr *tracer, tl *timeline) (*node, error) {
	run := func(spec *scenario.Spec, seed uint64, opts scenario.RunOptions) (*metrics.Artifact, error) {
		start := time.Now()
		a, err := scenario.Run(spec, seed, opts)
		end := time.Now()
		i, ok := s.bySeed[seed]
		if err != nil || !ok {
			return a, err
		}
		encoded := end
		if tr != nil {
			if _, err := a.CanonicalJSON(); err != nil {
				return nil, err
			}
			encoded = time.Now()
		}
		tl.set(i, func(j *jobTimes) { j.runStart, j.runEnd, j.encoded = start, end, encoded })
		return a, nil
	}
	log := &logBuffer{}
	srv, err := serve.New(serve.Config{StoreDir: dir, Version: benchVersion, LogFormat: "json", LogWriter: log, Run: run})
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = &spanHandler{next: srv, tr: tr}
	}
	l, err := listen(h)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &node{srv: srv, log: log, loopback: l}, nil
}

func (n *node) close() {
	n.loopback.close()
	n.srv.Close()
}

// accessRecord is the part of serve's JSON access log line the bench reads.
type accessRecord struct {
	Route string `json:"route"`
	Dur   string `json:"dur"`
	Cache string `json:"cache"`
}

// logBuffer is a server's access log, kept in memory.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) records(t *tally) []accessRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []accessRecord
	for _, line := range bytes.Split(l.buf.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var r accessRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.op(fmt.Errorf("service: access log line %q: %w", line, err))
			continue
		}
		out = append(out, r)
	}
	return out
}

// spanHandler records a serve.handler span for every request it serves,
// linked to the client's span through spanHeader.
type spanHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.tr.add("serve.handler", r.Header.Get(traceHeader), parent, start, time.Now())
}

// loopback serves a handler on an ephemeral loopback port.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

// close stops the listener and open connections and waits for Serve to
// return.
func (l *loopback) close() {
	l.srv.Close()
	<-l.done
}

// client is one closed-loop HTTP client of a server. With a tracer it
// records an http.request span per request and passes the span's id to
// the server.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxIdleConnsPerHost = serviceClients
	return &client{base: base, hc: &http.Client{Transport: tp, Timeout: time.Minute}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte, trace string, parent int64) (*http.Response, []byte, error) {
	id := c.tr.open("http.request", trace, parent)
	defer c.tr.close(id)
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		req.Header.Set(traceHeader, trace)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

// json sends a request that must answer want and decodes the body into v.
func (c *client) json(method, path string, body []byte, want int, v any, trace string, parent int64) error {
	resp, data, err := c.do(method, path, body, trace, parent)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// await polls a job every pollEvery until it is done.
func (c *client) await(key, trace string, parent int64) error {
	deadline := time.Now().Add(time.Minute)
	for {
		var st struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := c.json(http.MethodGet, "/jobs/"+key, nil, http.StatusOK, &st, trace, parent); err != nil {
			return err
		}
		switch st.Status {
		case serve.StateDone:
			return nil
		case serve.StateFailed:
			return fmt.Errorf("job %s failed: %s", key, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after a minute", key, st.Status)
		}
		time.Sleep(pollEvery)
	}
}

// result fetches a stored artifact and checks that its ETag is the body's
// content address; it returns the request latency and the ETag.
func (c *client) result(key, trace string, parent int64) (time.Duration, string, error) {
	start := time.Now()
	resp, body, err := c.do(http.MethodGet, "/results/"+key, nil, trace, parent)
	d := time.Since(start)
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("service: GET /results/%s: %s", key, resp.Status)
	}
	etag := resp.Header.Get("ETag")
	if want := `"` + metrics.AddressBytes(body) + `"`; etag != want {
		return 0, "", fmt.Errorf("service: GET /results/%s: ETag %s, body hashes to %s", key, etag, want)
	}
	return d, etag, nil
}

// scrape fetches /metrics, validates the exposition, and returns each
// sample's value keyed by its name and labels.
func (c *client) scrape() (map[string]float64, error) {
	resp, body, err := c.do(http.MethodGet, "/metrics", nil, "scrape", 0)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: GET /metrics: %s", resp.Status)
	}
	if _, err := obs.CheckText(body); err != nil {
		return nil, fmt.Errorf("service: /metrics: %w", err)
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
			vals[line[:cut]] = v
		}
	}
	return vals, nil
}
