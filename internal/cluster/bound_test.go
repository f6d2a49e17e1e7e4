package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// oversizeCap stops an oversize answer that nobody hangs up on, so a
// coordinator that ignored its bound would see a truncated body (a decode
// error) instead of an endless one.
const oversizeCap = 256 << 20

// oversizeHandler answers the first `failures` unit dispatches with 200 and
// an observation list that never closes — far past any unit's size bound —
// and serves normally afterwards. It records the most bytes it managed to
// write into one answer before the coordinator hung up.
type oversizeHandler struct {
	inner http.Handler

	mu         sync.Mutex
	failures   int
	answered   int
	maxWritten int64
}

func (o *oversizeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/cluster/run" {
		o.inner.ServeHTTP(w, r)
		return
	}
	o.mu.Lock()
	oversize := o.answered < o.failures
	if oversize {
		o.answered++
	}
	o.mu.Unlock()
	if !oversize {
		o.inner.ServeHTTP(w, r)
		return
	}
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	n, _ := io.WriteString(w, `{"obsBits":[`)
	written := int64(n)
	chunk := strings.Repeat("18446744073709551615,", 1024)
	for written < oversizeCap {
		n, err := io.WriteString(w, chunk)
		written += int64(n)
		if err != nil {
			break // the coordinator hung up
		}
	}
	o.mu.Lock()
	o.maxWritten = max(o.maxWritten, written)
	o.mu.Unlock()
}

// startOversizeWorker registers a worker behind an oversizeHandler that
// misbehaves on its first `failures` units.
func startOversizeWorker(t *testing.T, coordURL string, failures int) (*Worker, *httptest.Server, *oversizeHandler) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{Coordinator: coordURL, AnnounceInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	oh := &oversizeHandler{inner: w, failures: failures}
	ts := httptest.NewServer(oh)
	w.Announce(ts.URL)
	return w, ts, oh
}

// TestUnitResponseBound: a worker answering a unit with a body past the
// unit's size bound is treated as a transport failure. The coordinator
// stops reading at the bound and requeues the unit, which a healthy worker
// then completes: the job finishes with the artifact of a local run.
func TestUnitResponseBound(t *testing.T) {
	const seed = 43
	want := localArtifact(t, tinyFixed, seed)

	coord := mustCoordinator(t, Config{StallTimeout: 10 * time.Second})
	cts := httptest.NewServer(coord)
	defer func() {
		cts.Close()
		coord.Close()
	}()
	wBad, tsBad, oh := startOversizeWorker(t, cts.URL, 2)
	wGood, err := NewWorker(WorkerConfig{Coordinator: cts.URL, AnnounceInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tsGood := httptest.NewServer(wGood)
	wGood.Announce(tsGood.URL)
	waitForWorkers(t, cts.URL, 2)

	resp := submitSpec(t, cts.URL, tinyFixed, seed)
	waitJobDone(t, cts.URL, resp.Key)
	got, _ := fetchResult(t, cts.URL, resp.Key)
	if string(got) != string(want) {
		t.Fatal("artifact after an oversize unit response differs from the local run")
	}

	// Closing the servers waits for the oversize answers to return.
	tsBad.Close()
	tsGood.Close()
	wBad.Close()
	wGood.Close()
	oh.mu.Lock()
	answered, written := oh.answered, oh.maxWritten
	oh.mu.Unlock()
	if answered == 0 {
		t.Fatal("the oversize worker was never handed a unit; the bound went unexercised")
	}
	if written >= oversizeCap {
		t.Fatalf("the coordinator read a %d-byte answer to the end instead of stopping at its bound", written)
	}
}

// TestUnitResponseBoundFailsJob: with no healthy worker, every dispatch of
// the unit meets an oversize answer, and the job fails after the attempt
// cap with the error naming the bound.
func TestUnitResponseBoundFailsJob(t *testing.T) {
	coord := mustCoordinator(t, Config{MaxAttempts: 3, StallTimeout: 10 * time.Second})
	cts := httptest.NewServer(coord)
	defer func() {
		cts.Close()
		coord.Close()
	}()
	w, ts, _ := startOversizeWorker(t, cts.URL, 1<<30)
	defer func() {
		ts.Close()
		w.Close()
	}()
	waitForWorkers(t, cts.URL, 1)

	resp := submitSpec(t, cts.URL, tinyFixed, 47)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, _, data := httpGet(t, cts.URL+"/jobs/"+resp.Key)
		if code != http.StatusOK {
			t.Fatalf("job status %d: %s", code, data)
		}
		if strings.Contains(string(data), `"failed"`) {
			for _, want := range []string{"failed 3 dispatch attempts", "byte bound"} {
				if !strings.Contains(string(data), want) {
					t.Fatalf("job failed without %q: %s", want, data)
				}
			}
			return
		}
		if strings.Contains(string(data), `"done"`) {
			t.Fatal("job whose every unit answer is oversize reported done")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job with only an oversize worker never failed")
}
