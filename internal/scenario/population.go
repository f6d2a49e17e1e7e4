package scenario

import (
	"fmt"
	"math"

	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

// PopulationSpec is the spec's `population` block: who is in the system,
// when, and what they want. It opens the three axes the paper holds fixed
// — a static, homogeneous, uniform-demand population — as declarative,
// validated, canonicalized knobs:
//
//   - Churn: nodes join and leave mid-run, as a rate-driven process
//     (synthesized deterministically per replicate) or an explicit trace
//     (replayed bit-identically; see examples/traces/).
//   - Classes: heterogeneous agent mixes — per-class altruism, capacity,
//     and patience mapped onto each substrate's existing knobs (the
//     paper's altruists/hoarders/differing-patience agent types).
//   - Popularity: Zipf or weighted content demand for the item-oriented
//     substrates (swarm pieces, gossip updates, coding symbols).
//
// Every degenerate form folds away in canonicalization — zero churn,
// a single trait-free class, uniform popularity — so a spec that spells
// out "no population model" hashes, caches, and replays byte-identically
// to one that omits the block (pinned by the invariant suite).
type PopulationSpec struct {
	// Churn describes arrivals and departures. Nil means a static
	// population.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Classes partitions the population into weighted agent classes.
	// Nil or a single default class means homogeneous.
	Classes []ClassSpec `json:"classes,omitempty"`
	// Popularity skews content demand. Nil or uniform means every item is
	// equally wanted.
	Popularity *PopularitySpec `json:"popularity,omitempty"`
}

// ChurnSpec drives node lifecycle. Either rates (a deterministic
// arrival/departure process synthesized from the replicate stream) or an
// explicit Trace (a recorded or synthesized schedule), never both.
type ChurnSpec struct {
	// LeaveRate is the expected fraction of present nodes departing per
	// round, in [0,1].
	LeaveRate float64 `json:"leaveRate,omitempty"`
	// JoinRate is the expected fraction of absent nodes (re)arriving per
	// round, in [0,1].
	JoinRate float64 `json:"joinRate,omitempty"`
	// Start is the first round lifecycle events may fire (e.g. after a
	// warmup), rate-driven processes only.
	Start int `json:"start,omitempty"`
	// Trace is an explicit event schedule, sorted by round. When set, the
	// rates must be zero. CLI: `scenarios run -trace file.json` loads one
	// from examples/traces/ format into this field.
	Trace []ChurnEvent `json:"trace,omitempty"`
}

// ChurnEvent is one trace entry: node leaves or (re)joins at the top of
// round Round, before any exchange.
type ChurnEvent struct {
	Round int    `json:"round"`
	Node  int    `json:"node"`
	Op    string `json:"op"` // "join" | "leave"
}

// ClassSpec is one agent class: a population share plus trait overrides
// mapped per substrate onto existing knobs. Nil traits inherit the
// substrate's scalar configuration.
type ClassSpec struct {
	// Name labels the class (required, unique within the spec).
	Name string `json:"name"`
	// Weight is the class's population share; weights must sum to 1.
	Weight float64 `json:"weight"`
	// Altruism overrides the probability of serving without compensation,
	// in [0,1] (gossip/token altruism knob, scrip altruist share).
	Altruism *float64 `json:"altruism,omitempty"`
	// Capacity scales the class's service capacity (token/coding contacts
	// per round, scrip starting balance); 1 is the configured baseline.
	Capacity *float64 `json:"capacity,omitempty"`
	// Patience scales how much service satiates the class (scrip
	// satiation threshold); 1 is the configured baseline.
	Patience *float64 `json:"patience,omitempty"`
}

// PopularitySpec skews which content is demanded.
type PopularitySpec struct {
	// Kind is "uniform", "zipf", or "weights".
	Kind string `json:"kind"`
	// Exponent is the Zipf exponent s > 0 (w_i ∝ (i+1)^-s), kind "zipf".
	Exponent float64 `json:"exponent,omitempty"`
	// Items sizes the Zipf catalog when the substrate has no native item
	// count (gossip); swarm and coding default to Pieces/Symbols.
	Items int `json:"items,omitempty"`
	// Weights is the explicit relative-demand vector, kind "weights". It
	// is normalized at compile time; for swarm/coding its length must
	// match the substrate's item count.
	Weights []float64 `json:"weights,omitempty"`
}

// classWeightEps is the tolerance for "class weights sum to 1": wide
// enough for decimal shares written by hand (0.1+0.2+0.7), tight enough
// to reject a forgotten class.
const classWeightEps = 1e-9

// Validate reports the first problem with the population block, or nil.
// nodes bounds trace node ids when positive (0 defers to the substrate
// default, the same contract as adversary target lists). Errors are
// deterministic: fixed check order, slices walked by index.
func (p *PopulationSpec) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	if c := p.Churn; c != nil {
		for _, f := range []struct {
			name string
			v    float64
		}{{"leaveRate", c.LeaveRate}, {"joinRate", c.JoinRate}} {
			if !isFinite(f.v) || f.v < 0 || f.v > 1 {
				return fmt.Errorf("scenario: population.churn.%s must be in [0,1], got %g", f.name, f.v)
			}
		}
		if c.Start < 0 {
			return fmt.Errorf("scenario: population.churn.start must be non-negative, got %d", c.Start)
		}
		if len(c.Trace) > 0 && (c.LeaveRate > 0 || c.JoinRate > 0) {
			return fmt.Errorf("scenario: population.churn cannot combine rates with an explicit trace")
		}
		prev := 0
		for i, ev := range c.Trace {
			if ev.Op != "join" && ev.Op != "leave" {
				return fmt.Errorf("scenario: population.churn.trace[%d]: unknown op %q (want join|leave)", i, ev.Op)
			}
			if ev.Round < 0 {
				return fmt.Errorf("scenario: population.churn.trace[%d]: negative round %d", i, ev.Round)
			}
			if ev.Round < prev {
				return fmt.Errorf("scenario: population.churn.trace[%d]: round %d before round %d (trace must be sorted)", i, ev.Round, prev)
			}
			prev = ev.Round
			if ev.Node < 0 || (nodes > 0 && ev.Node >= nodes) {
				return fmt.Errorf("scenario: population.churn.trace[%d]: node %d outside the population", i, ev.Node)
			}
		}
	}
	if p.Classes != nil && len(p.Classes) == 0 {
		return fmt.Errorf("scenario: population.classes must not be empty (omit the key for a homogeneous population)")
	}
	sum := 0.0
	for i, cl := range p.Classes {
		if cl.Name == "" {
			return fmt.Errorf("scenario: population.classes[%d]: class needs a name", i)
		}
		for j := 0; j < i; j++ {
			if p.Classes[j].Name == cl.Name {
				return fmt.Errorf("scenario: population.classes[%d]: duplicate class name %q", i, cl.Name)
			}
		}
		if !isFinite(cl.Weight) || cl.Weight <= 0 {
			return fmt.Errorf("scenario: population.classes[%d] (%s): weight must be positive, got %g", i, cl.Name, cl.Weight)
		}
		sum += cl.Weight
		if cl.Altruism != nil && (!isFinite(*cl.Altruism) || *cl.Altruism < 0 || *cl.Altruism > 1) {
			return fmt.Errorf("scenario: population.classes[%d] (%s): altruism must be in [0,1], got %g", i, cl.Name, *cl.Altruism)
		}
		if cl.Capacity != nil && (!isFinite(*cl.Capacity) || *cl.Capacity < 0) {
			return fmt.Errorf("scenario: population.classes[%d] (%s): capacity must be non-negative, got %g", i, cl.Name, *cl.Capacity)
		}
		if cl.Patience != nil && (!isFinite(*cl.Patience) || *cl.Patience <= 0) {
			return fmt.Errorf("scenario: population.classes[%d] (%s): patience must be positive, got %g", i, cl.Name, *cl.Patience)
		}
	}
	if len(p.Classes) > 0 && math.Abs(sum-1) > classWeightEps {
		return fmt.Errorf("scenario: population.classes weights must sum to 1, got %g", sum)
	}
	if pop := p.Popularity; pop != nil {
		switch pop.Kind {
		case "uniform":
		case "zipf":
			if !isFinite(pop.Exponent) || pop.Exponent <= 0 {
				return fmt.Errorf("scenario: population.popularity.exponent must be > 0 for zipf, got %g", pop.Exponent)
			}
			if pop.Items < 0 || pop.Items > maxItems {
				return fmt.Errorf("scenario: population.popularity.items must be in [0,%d], got %d", maxItems, pop.Items)
			}
			if len(pop.Weights) > 0 {
				return fmt.Errorf("scenario: population.popularity kind zipf takes an exponent, not weights")
			}
		case "weights":
			if len(pop.Weights) == 0 {
				return fmt.Errorf("scenario: population.popularity kind weights needs a non-empty weights vector")
			}
			wsum := 0.0
			for i, w := range pop.Weights {
				if !isFinite(w) || w < 0 {
					return fmt.Errorf("scenario: population.popularity.weights[%d] must be finite and non-negative, got %g", i, w)
				}
				wsum += w
			}
			if wsum <= 0 || !isFinite(wsum) {
				return fmt.Errorf("scenario: population.popularity.weights must have a positive finite sum, got %g", wsum)
			}
		default:
			return fmt.Errorf("scenario: population.popularity kind %q unknown (want uniform|zipf|weights)", pop.Kind)
		}
	}
	return nil
}

// clone deep-copies the block (Spec.Clone uses it).
func (p *PopulationSpec) clone() *PopulationSpec {
	if p == nil {
		return nil
	}
	out := *p
	if p.Churn != nil {
		c := *p.Churn
		c.Trace = append([]ChurnEvent(nil), p.Churn.Trace...)
		if len(c.Trace) == 0 {
			c.Trace = nil
		}
		out.Churn = &c
	}
	if p.Classes != nil {
		out.Classes = make([]ClassSpec, len(p.Classes))
		for i, cl := range p.Classes {
			out.Classes[i] = cl
			out.Classes[i].Altruism = cloneFloat(cl.Altruism)
			out.Classes[i].Capacity = cloneFloat(cl.Capacity)
			out.Classes[i].Patience = cloneFloat(cl.Patience)
		}
	}
	if p.Popularity != nil {
		pp := *p.Popularity
		pp.Weights = append([]float64(nil), p.Popularity.Weights...)
		if len(pp.Weights) == 0 {
			pp.Weights = nil
		}
		out.Popularity = &pp
	}
	return &out
}

func cloneFloat(v *float64) *float64 {
	if v == nil {
		return nil
	}
	c := *v
	return &c
}

// canonicalized folds the degenerate forms to nil so "no population
// model spelled out" and "no population block" are one canonical spec:
// zero-rate traceless churn, a single class with no trait overrides
// (weight normalized to 1 when traits are kept), uniform popularity
// (kind uniform, or an explicit numerically-uniform weight vector), and
// finally the whole block when all three axes folded away.
func (p *PopulationSpec) canonicalized() *PopulationSpec {
	if p == nil {
		return nil
	}
	c := p.clone()
	if c.Churn != nil && c.Churn.LeaveRate == 0 && c.Churn.JoinRate == 0 && len(c.Churn.Trace) == 0 {
		c.Churn = nil
	}
	if len(c.Classes) == 1 {
		cl := &c.Classes[0]
		if cl.Altruism == nil && cl.Capacity == nil && cl.Patience == nil {
			c.Classes = nil
		} else {
			cl.Weight = 1
		}
	}
	if c.Popularity != nil {
		if c.Popularity.Kind == "uniform" ||
			(c.Popularity.Kind == "weights" && population.Uniform(c.Popularity.Weights, 0)) {
			c.Popularity = nil
		}
	}
	if c.Churn == nil && c.Classes == nil && c.Popularity == nil {
		return nil
	}
	return c
}

// hasChurn reports whether the spec's population can produce lifecycle
// events.
func (p *PopulationSpec) hasChurn() bool {
	return p != nil && p.Churn != nil &&
		(p.Churn.LeaveRate > 0 || p.Churn.JoinRate > 0 || len(p.Churn.Trace) > 0)
}

// churnMinPresent keeps rate-driven synthesis from draining the system:
// at least two nodes (one exchange pair) or 10% of the population,
// whichever is larger.
func churnMinPresent(n int) int {
	min := n / 10
	if min < 2 {
		min = 2
	}
	return min
}

// churnEvents compiles the churn axis for one replicate over a resolved
// (n nodes, rounds horizon): an explicit trace converts directly (no
// draws); rates synthesize a schedule from rng's "pop-churn" child, so
// engine streams never see churn randomness. Nil without churn — the
// degenerate spec draws nothing and wires nothing.
func (s *Spec) churnEvents(n, rounds int, rng *simrng.Source) []population.Event {
	p := s.Population
	if !p.hasChurn() {
		return nil
	}
	c := p.Churn
	if len(c.Trace) > 0 {
		events := make([]population.Event, 0, len(c.Trace))
		for _, ev := range c.Trace {
			if ev.Node >= n || ev.Round >= rounds {
				// A trace recorded against a larger shape replays the part
				// that fits; validated specs with pinned nodes never get
				// here.
				continue
			}
			events = append(events, population.Event{Round: ev.Round, Node: ev.Node, Join: ev.Op == "join"})
		}
		return events
	}
	return population.Synthesize(
		population.Rates{LeaveRate: c.LeaveRate, JoinRate: c.JoinRate, Start: c.Start},
		n, rounds, churnMinPresent(n), rng.Child("pop-churn"))
}

// classAssignment compiles the class axis: with two or more classes it
// draws a class index per node from rng's "pop-class" child and returns
// the per-node assignment; with fewer it returns nil and draws nothing
// (the scalar fold below covers a single class). The assignment is
// shared by every trait lookup so one node is one agent, not a per-knob
// re-roll.
func (s *Spec) classAssignment(n int, rng *simrng.Source) []int {
	p := s.Population
	if p == nil || len(p.Classes) < 2 {
		return nil
	}
	weights := make([]float64, len(p.Classes))
	for i, cl := range p.Classes {
		weights[i] = cl.Weight
	}
	return population.Assign(n, population.Normalize(weights), rng.Child("pop-class"))
}

// classScalar returns the single class's trait overrides when the spec
// has exactly one class (the homogeneous-override case that folds into
// scalar knobs with zero per-node state), else nil.
func (s *Spec) classScalar() *ClassSpec {
	p := s.Population
	if p == nil || len(p.Classes) != 1 {
		return nil
	}
	return &p.Classes[0]
}

// Trait resolution over an assignment. def is the substrate's configured
// scalar; the helpers return def untouched for classes that don't
// override the trait.

// altruismByClass materializes per-node altruism from an assignment, or
// nil when no class overrides altruism (engines then keep their scalar
// path, bit-identically).
func (s *Spec) altruismByClass(assign []int, def float64) []float64 {
	p := s.Population
	if assign == nil || p == nil {
		return nil
	}
	any := false
	for _, cl := range p.Classes {
		if cl.Altruism != nil {
			any = true
		}
	}
	if !any {
		return nil
	}
	out := make([]float64, len(assign))
	for i, c := range assign {
		if a := p.Classes[c].Altruism; a != nil {
			out[i] = *a
		} else {
			out[i] = def
		}
	}
	return out
}

// intsByClass materializes a per-node integer knob (contacts, balance,
// threshold) by scaling base with the chosen per-class trait multiplier.
// pick selects the multiplier (capacity or patience) from a class; nil
// multipliers inherit base. Returns nil when no class overrides.
func (s *Spec) intsByClass(assign []int, base int, pick func(ClassSpec) *float64) []int {
	p := s.Population
	if assign == nil || p == nil {
		return nil
	}
	any := false
	for _, cl := range p.Classes {
		if pick(cl) != nil {
			any = true
		}
	}
	if !any {
		return nil
	}
	out := make([]int, len(assign))
	for i, c := range assign {
		out[i] = scaleInt(base, pick(p.Classes[c]))
	}
	return out
}

// scaleInt applies a trait multiplier to an integer knob, rounding to
// nearest; nil inherits the base.
func scaleInt(base int, mult *float64) int {
	if mult == nil {
		return base
	}
	v := int(math.Floor(float64(base)**mult + 0.5))
	if v < 0 {
		v = 0
	}
	return v
}

// capacityOf and patienceOf are the pick functions for intsByClass.
func capacityOf(cl ClassSpec) *float64 { return cl.Capacity }
func patienceOf(cl ClassSpec) *float64 { return cl.Patience }

// popularityWeights compiles the popularity axis into a normalized
// demand vector over the substrate's item catalog. items is the native
// catalog size (swarm Pieces, coding Symbols); pass 0 for substrates
// without one (gossip), which fall back to the spec's Items knob or
// defaultCatalog. Nil without (or with uniform) popularity. An explicit
// weights vector whose length disagrees with a native catalog is an
// error — a silent resize would skew demand unpredictably.
func (s *Spec) popularityWeights(items int) ([]float64, error) {
	p := s.Population
	if p == nil || p.Popularity == nil || p.Popularity.Kind == "uniform" {
		return nil, nil
	}
	pop := p.Popularity
	switch pop.Kind {
	case "zipf":
		k := items
		if k <= 0 {
			k = pop.Items
		}
		if k <= 0 {
			k = defaultCatalog
		}
		w := population.ZipfWeights(k, pop.Exponent)
		if population.Uniform(w, 0) {
			return nil, nil
		}
		return w, nil
	case "weights":
		if items > 0 && len(pop.Weights) != items {
			return nil, fmt.Errorf("scenario: population.popularity.weights has %d entries but the substrate has %d items", len(pop.Weights), items)
		}
		w := population.Normalize(pop.Weights)
		if population.Uniform(w, 0) {
			return nil, nil
		}
		return w, nil
	default:
		return nil, nil
	}
}

// defaultCatalog is the Zipf catalog size for substrates without a
// native item count (gossip models an open update stream; the catalog
// is the popularity ranking updates are drawn from).
const defaultCatalog = 64
