package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one interval recorded at a layer boundary: its name (the layer is
// the part before the first dot), start and end relative to the tracer's
// epoch, the span that caused it, and the trace (one scenario, request or
// job) it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the module a span's name attributes its time to.
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. Every method is safe for
// concurrent use, and a nil *tracer records nothing, so untraced passes
// call the same code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span now and returns its id (0 when tracing is off).
func (t *tracer) open(name, trace string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now})
	return id
}

// close ends span id now.
func (t *tracer) close(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name, trace string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the durations of every span with the given name.
func total(spans []span, name string) time.Duration {
	var sum time.Duration
	for _, d := range durations(spans, name) {
		sum += d
	}
	return sum
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var sum, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			sum += iv[1] - a
			end = iv[1]
		}
	}
	return sum
}

// selfTimes returns each layer's self time: for every span, its duration
// minus the part of its interval its child spans cover, summed by layer.
// Where replicates run in parallel, the layers' sums exceed the wall time.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
		out[s.layer()] += time.Duration(self)
	}
	return out
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, t *tracer) error {
	data, err := json.Marshal(struct {
		Epoch string `json:"epoch"`
		Spans []span `json:"spans"`
	}{t.epoch.UTC().Format(time.RFC3339Nano), t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
