// Package obs is the observability kernel behind `GET /metrics`: counter,
// gauge, and histogram instruments that render in the Prometheus text
// exposition format (version 0.0.4), with zero dependencies beyond the
// standard library.
//
// The design rule is determinism: a Registry renders its families in first-
// registration order and each family's samples in sample-registration
// order, so two processes that register the same instruments in the same
// code path produce byte-identical scrape layouts. That is what lets a
// golden test pin the whole exposition and a fleet-wide scraper rely on a
// stable schema.
//
// Instruments come in two flavors. Owned instruments (Counter, Gauge,
// Histogram) hold their own state and are safe for concurrent use — Counter
// and Gauge are atomics, Histogram takes a short mutex per observation.
// Func-backed instruments (CounterFunc, GaugeFunc) read their value at
// scrape time from a callback, which is how existing stats structs (cache
// hit counts, queue depth) export without double bookkeeping.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a sample. Label values may
// contain any UTF-8; they are escaped on output.
type Label struct {
	Name, Value string
}

// Registry holds a fixed set of instruments and renders them as Prometheus
// text. Registration is not concurrency-safe and should finish before the
// first scrape; scraping and instrument updates are safe concurrently.
type Registry struct {
	families []*family
	byName   map[string]*family
}

// family is every sample sharing one metric name: one # HELP/# TYPE header,
// then the samples in registration order.
type family struct {
	name, help, typ string
	samples         []sampler
}

// sampler renders one sample's line(s).
type sampler interface {
	write(w io.Writer, name string)
	labelKey() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter is a monotonically increasing integer.
type Counter struct {
	labels []Label
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(c.labels), c.v.Load())
}

func (c *Counter) labelKey() string { return renderLabels(c.labels) }

// counterFunc reads an externally maintained monotone count at scrape time.
type counterFunc struct {
	labels []Label
	fn     func() uint64
}

func (c *counterFunc) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %d\n", name, renderLabels(c.labels), c.fn())
}

func (c *counterFunc) labelKey() string { return renderLabels(c.labels) }

// Gauge is a float that can go up and down.
type Gauge struct {
	labels []Label
	bits   atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(g.labels), formatValue(g.Value()))
}

func (g *Gauge) labelKey() string { return renderLabels(g.labels) }

// gaugeFunc reads an externally maintained value at scrape time.
type gaugeFunc struct {
	labels []Label
	fn     func() float64
}

func (g *gaugeFunc) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(g.labels), formatValue(g.fn()))
}

func (g *gaugeFunc) labelKey() string { return renderLabels(g.labels) }

// Histogram counts observations into cumulative buckets, Prometheus-style:
// one `_bucket{le="..."}` line per bound plus `le="+Inf"`, and `_sum` /
// `_count` lines. Buckets are fixed at registration.
type Histogram struct {
	labels  []Label
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	mu      sync.Mutex
	counts  []uint64 // per-bound, non-cumulative; cumulated on render
	infed   uint64   // observations above every bound
	sum     float64
	samples uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sum += v
	h.samples++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.infed++
}

// Count returns how many observations have been recorded.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.samples
}

func (h *Histogram) write(w io.Writer, name string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	infed, sum, samples := h.infed, h.sum, h.samples
	h.mu.Unlock()
	// Build the le-extended label set fresh — appending to h.labels could
	// share a backing array across concurrent scrapes.
	withLE := func(le string) []Label {
		ls := make([]Label, len(h.labels)+1)
		copy(ls, h.labels)
		ls[len(ls)-1] = Label{"le", le}
		return ls
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(withLE(formatValue(b))), cum)
	}
	cum += infed
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(withLE("+Inf")), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(h.labels), formatValue(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(h.labels), samples)
}

func (h *Histogram) labelKey() string { return renderLabels(h.labels) }

// Counter registers and returns an owned counter. Repeat registrations of
// one name must agree on help text and type and differ in label sets;
// violations panic — instrument registration is code, not input.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{labels: labels}
	r.register(name, help, "counter", c)
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be safe to call concurrently and monotone non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, "counter", &counterFunc{labels: labels, fn: fn})
}

// Gauge registers and returns an owned gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{labels: labels}
	r.register(name, help, "gauge", g)
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", &gaugeFunc{labels: labels, fn: fn})
}

// Histogram registers and returns a histogram with the given bucket upper
// bounds (strictly increasing; +Inf is implicit and must not be listed).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram " + name + " bounds must be strictly increasing")
		}
	}
	if math.IsInf(bounds[len(bounds)-1], 1) {
		panic("obs: histogram " + name + ": +Inf bound is implicit")
	}
	h := &Histogram{labels: labels, bounds: bounds, counts: make([]uint64, len(bounds))}
	r.register(name, help, "histogram", h)
	return h
}

func (r *Registry) register(name, help, typ string, s sampler) {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	fam, ok := r.byName[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	} else if fam.typ != typ || fam.help != help {
		panic("obs: metric " + name + " re-registered with a different type or help")
	}
	key := s.labelKey()
	for _, prev := range fam.samples {
		if prev.labelKey() == key {
			panic("obs: metric " + name + key + " registered twice")
		}
	}
	fam.samples = append(fam.samples, s)
}

// Render writes the whole registry in the Prometheus text format, in
// deterministic (registration) order.
func (r *Registry) Render(w io.Writer) {
	for _, fam := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(w, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, s := range fam.samples {
			s.write(w, fam.name)
		}
	}
}

// Handler returns the `GET /metrics` endpoint: the registry rendered with
// the standard text-format content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Render(w)
	})
}

// formatValue renders a float the way Prometheus expects: shortest exact
// decimal, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels renders a label set as {a="x",b="y"}, empty string for none.
// Label order is the registration order — part of the deterministic layout.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validLabelName(l.Name) {
			panic("obs: invalid label name " + strconv.Quote(l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// The exposition format's escapes, built once: a Replacer builds its
// lookup tables on first use, which is too costly to repeat per scrape.
var (
	labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper       = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabelValue(v string) string { return labelValueEscaper.Replace(v) }

func escapeHelp(h string) string { return helpEscaper.Replace(h) }

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" || strings.HasPrefix(name, "__") {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
