// Package scenario makes experiments declarative data instead of code: a
// Spec names a substrate (any of the five simulators), a population, an
// adversary strategy, a defense, and a sweep axis, all JSON-encodable. The
// engine compiles a Spec into replicated runs on the shared simulation
// kernel, folding every replicate into streaming accumulators
// (internal/metrics) so even 10k-replicate sweeps are constant-memory, and
// renders the per-point mean/spread statistics as a metrics.Artifact.
//
// Specs live in a registry (canned classics plus the generated
// attack x substrate x defense cross-product), can be loaded from JSON
// files, and accept key=value overrides — `lotus-sim scenarios run <name>
// -set adversary.fraction=0.3` re-parameterizes without recompiling.
// Adding a scenario is a data change, not a code change.
package scenario

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"lotuseater/internal/attack"
)

// sortedKeys returns m's keys in ascending order — the only map iteration
// order deterministic surfaces (errors, artifacts, canonical JSON) may use.
func sortedKeys(m map[string]float64) []string {
	return slices.Sorted(maps.Keys(m))
}

// Substrates accepted by Spec.Substrate, in canonical order.
var Substrates = []string{"gossip", "token", "scrip", "swarm", "coding"}

// AdversarySpec is the declarative form of an attack.Strategy.
type AdversarySpec struct {
	// Kind is the attack: none, crash, ideal, or trade.
	Kind string `json:"kind"`
	// Fraction of nodes the adversary controls.
	Fraction float64 `json:"fraction,omitempty"`
	// SatiateFraction of the system targeted for satiation (0.70 default
	// for ideal and trade when zero).
	SatiateFraction float64 `json:"satiateFraction,omitempty"`
	// RotatePeriod re-draws the satiated set every N rounds (0 = static).
	RotatePeriod int `json:"rotatePeriod,omitempty"`
	// Targets, when non-empty, satiates exactly these node ids (plus the
	// attacker's own nodes) instead of a pseudorandom SatiateFraction —
	// targeted attacks such as grid cuts and rare-resource holders. Ids must
	// be unique, non-negative, and within the population.
	Targets []int `json:"targets,omitempty"`
	// Start and Stop bound the campaign to rounds [Start, Stop) (Stop 0 =
	// never).
	Start int `json:"start,omitempty"`
	Stop  int `json:"stop,omitempty"`
	// Rank, when set (uploaders or rarest), satiates the model's best
	// round(SatiateFraction·n) live nodes instead of a uniform draw. Only
	// a substrate that ranks its nodes (swarm) accepts it.
	Rank string `json:"rank,omitempty"`
}

// Strategy compiles the spec into a fresh attack.Strategy for one replicate.
func (a AdversarySpec) Strategy() (*attack.Strategy, error) {
	kind := a.Kind
	if kind == "" {
		kind = "none"
	}
	k, err := attack.ParseKind(kind)
	if err != nil {
		return nil, err
	}
	// SatiateFraction 0 means exactly that — a sweep from 0 must satiate
	// nobody at its first point, so there is deliberately no hidden default
	// here; canned specs spell out the paper's 0.70.
	s := &attack.Strategy{
		Kind:            k,
		Fraction:        a.Fraction,
		SatiateFraction: a.SatiateFraction,
		RotatePeriod:    a.RotatePeriod,
		Start:           a.Start,
		Stop:            a.Stop,
		Rank:            attack.Rank(a.Rank),
	}
	if len(a.Targets) > 0 {
		s.TargetList = append([]int(nil), a.Targets...)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// DefenseSpec is the declarative form of a receiver-side defense.
type DefenseSpec struct {
	// Kind is "none" (or empty) or "ratelimit".
	Kind string `json:"kind,omitempty"`
	// RateLimit is the per-peer per-round acceptance cap for the ratelimit
	// kind.
	RateLimit int `json:"rateLimit,omitempty"`
}

// Validate reports the first problem with the defense spec, or nil.
func (d DefenseSpec) Validate() error {
	switch d.Kind {
	case "", "none":
		return nil
	case "ratelimit":
		if d.RateLimit < 0 {
			return fmt.Errorf("scenario: defense rateLimit must be non-negative, got %d", d.RateLimit)
		}
		return nil
	default:
		return fmt.Errorf("scenario: unknown defense kind %q (want none|ratelimit)", d.Kind)
	}
}

// enabled reports whether the defense actually limits anything.
func (d DefenseSpec) enabled() bool {
	return d.Kind == "ratelimit" && d.RateLimit > 0
}

// PrecisionSpec is the declarative form of an adaptive.Plan: per sweep
// point, run replicate waves until the Student-t confidence interval on the
// metric's mean is at most HalfWidth wide (half-width), or MaxReps is
// spent. HalfWidth 0 disables early stopping — the plan degenerates to a
// fixed run of MaxReps replicates and canonicalizes away entirely. Under an
// active plan (HalfWidth > 0) the spec's Replicates knob is dead: MinReps
// and MaxReps govern the budget.
type PrecisionSpec struct {
	// HalfWidth is the CI half-width target (0 = no early stopping).
	HalfWidth float64 `json:"halfWidth,omitempty"`
	// Confidence is the two-sided CI level (0 = 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// Relative reads HalfWidth as a fraction of the mean's magnitude.
	Relative bool `json:"relative,omitempty"`
	// MinReps is the opening wave, always run before the rule is consulted
	// (0 = 2; at least 2 so a variance estimate exists).
	MinReps int `json:"minReps,omitempty"`
	// MaxReps is the per-point budget (0 = 256).
	MaxReps int `json:"maxReps,omitempty"`
	// Batch is the wave size after the opening wave (0 = 8).
	Batch int `json:"batch,omitempty"`
}

// Validate reports the first problem with the precision block, or nil. A
// nil block is valid (fixed replication).
func (p *PrecisionSpec) Validate() error {
	if p == nil {
		return nil
	}
	switch {
	case !isFinite(p.HalfWidth) || p.HalfWidth < 0:
		return fmt.Errorf("scenario: precision.halfWidth must be finite and non-negative, got %g", p.HalfWidth)
	case !isFinite(p.Confidence) || p.Confidence < 0 || p.Confidence >= 1:
		return fmt.Errorf("scenario: precision.confidence must be in [0,1) (0 = 0.95), got %g", p.Confidence)
	case p.MinReps < 0 || p.MaxReps < 0 || p.Batch < 0:
		return fmt.Errorf("scenario: precision minReps, maxReps, and batch must be non-negative")
	case p.MaxReps > 0 && p.MinReps > p.MaxReps:
		return fmt.Errorf("scenario: precision.minReps %d exceeds precision.maxReps %d", p.MinReps, p.MaxReps)
	case p.HalfWidth > 0 && p.MaxReps == 1:
		return fmt.Errorf("scenario: an adaptive plan needs precision.maxReps >= 2 (one replicate has no variance estimate)")
	}
	return nil
}

// active reports whether the plan can stop points early at all.
func (p *PrecisionSpec) active() bool { return p != nil && p.HalfWidth > 0 }

// SweepSpec describes the x axis of a scenario: which knob to sweep and
// over what range. An empty Axis means a single point at x = 0.
type SweepSpec struct {
	// Axis names the swept knob: adversary.fraction,
	// adversary.satiateFraction, adversary.rotatePeriod, adversary.targets
	// (satiate nodes 0..x-1), defense.rateLimit, nodes, rounds,
	// population.churn.leaveRate, population.churn.joinRate,
	// population.popularity.exponent, or params.<key>.
	Axis string `json:"axis,omitempty"`
	// From and To bound the sweep inclusively.
	From float64 `json:"from,omitempty"`
	To   float64 `json:"to,omitempty"`
	// Points is the number of samples (2 minimum when an axis is set).
	Points int `json:"points,omitempty"`
}

// Spec is one declarative scenario.
type Spec struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Title is the artifact headline (Name when empty).
	Title string `json:"title,omitempty"`
	// Description is the one-liner shown by `lotus-sim scenarios list`.
	Description string `json:"description,omitempty"`
	// Substrate selects the simulator: gossip, token, scrip, swarm, coding.
	Substrate string `json:"substrate"`
	// Nodes is the population size (0 = substrate default).
	Nodes int `json:"nodes,omitempty"`
	// Rounds is the horizon in rounds/ticks/requests (0 = substrate
	// default).
	Rounds int `json:"rounds,omitempty"`
	// Replicates is the number of independently seeded runs folded per
	// sweep point (0 = 3).
	Replicates int `json:"replicates,omitempty"`
	// Adversary configures the attack strategy.
	Adversary AdversarySpec `json:"adversary"`
	// Defense configures the receiver-side defense.
	Defense DefenseSpec `json:"defense,omitempty"`
	// Sweep configures the x axis.
	Sweep SweepSpec `json:"sweep,omitempty"`
	// Precision, when present with a positive halfWidth, replaces the fixed
	// Replicates count with adaptive, CI-targeted replication per sweep
	// point (see PrecisionSpec).
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// Population configures churn, heterogeneous agent classes, and
	// content popularity; nil is the paper's static homogeneous
	// uniform-demand population (see PopulationSpec).
	Population *PopulationSpec `json:"population,omitempty"`
	// Metric names the per-run statistic folded into the accumulators; see
	// `lotus-sim scenarios show` output or substrate.go for the per-
	// substrate menu. Empty means the substrate default.
	Metric string `json:"metric,omitempty"`
	// Params holds substrate-specific knobs (push, tokens, threshold,
	// pieces, symbols, ...); see substrate.go for each substrate's menu.
	Params map[string]float64 `json:"params,omitempty"`
}

// Validate reports the first problem with the spec, or nil.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if sub(s.Substrate) == nil {
		return fmt.Errorf("scenario: unknown substrate %q (want %s)", s.Substrate, strings.Join(Substrates, "|"))
	}
	if _, err := s.Adversary.Strategy(); err != nil {
		return err
	}
	if s.Adversary.Rank != "" && s.Substrate != "swarm" {
		return fmt.Errorf("scenario: adversary.rank needs a substrate that ranks its nodes (swarm), not %s", s.Substrate)
	}
	// Hostile target lists fail here, not at node-indexing depth inside a
	// replicate: ids must be unique and non-negative always, and inside the
	// population whenever the spec pins one (Nodes == 0 defers the upper
	// bound to the substrate default; the targeter clamps regardless).
	if err := attack.ValidateTargetList(s.Nodes, s.Adversary.Targets); err != nil {
		return err
	}
	if err := s.Defense.Validate(); err != nil {
		return err
	}
	if err := s.Precision.Validate(); err != nil {
		return err
	}
	if err := s.Population.Validate(s.Nodes); err != nil {
		return err
	}
	if s.Nodes < 0 || s.Rounds < 0 || s.Replicates < 0 {
		return fmt.Errorf("scenario: nodes, rounds, and replicates must be non-negative")
	}
	// Specs must stay JSON-encodable (canonicalization, caching, `scenarios
	// show` all re-encode them), and JSON has no NaN or infinity — a
	// strconv-parsed "inf" override or a directly constructed spec could
	// smuggle one in where Decode never can. Checked in a fixed order (and
	// params in sorted-key order): Validate returns the *first* problem, so
	// iterating a map here made the error text itself order-dependent when
	// two fields were bad — exactly the nondeterminism class lotus-lint's
	// maprange rule exists to catch.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"adversary.fraction", s.Adversary.Fraction},
		{"adversary.satiateFraction", s.Adversary.SatiateFraction},
		{"sweep.from", s.Sweep.From},
		{"sweep.to", s.Sweep.To},
	} {
		if !isFinite(f.v) {
			return fmt.Errorf("scenario: %s must be finite, got %g", f.name, f.v)
		}
	}
	for _, k := range sortedKeys(s.Params) {
		if v := s.Params[k]; !isFinite(v) {
			return fmt.Errorf("scenario: params.%s must be finite, got %g", k, v)
		}
	}
	if err := s.validateParams(); err != nil {
		return err
	}
	if s.Sweep.Axis != "" {
		if s.Sweep.Points < 0 {
			return fmt.Errorf("scenario: sweep points must be non-negative, got %d", s.Sweep.Points)
		}
		// Every sweep runs both endpoints, so a value refused at either
		// fails here rather than after the first points have run. A swept
		// params key, node count or adversary fraction moves monotonically
		// between them, and every params check but one is monotone in each,
		// so checks that pass at both ends pass at every point. The one is
		// the token grid's square node count, so a nodes sweep of a grid is
		// checked at every point it visits.
		xs := []float64{s.Sweep.From, s.Sweep.To}
		if s.Sweep.Axis == "nodes" && s.Substrate == "token" && s.param("graph", 0) == 2 {
			_, points := resolveCounts(s, RunOptions{})
			xs = Range(s.Sweep.From, s.Sweep.To, points)
		}
		c := s.Clone()
		for _, x := range xs {
			if err := c.applyAxis(x); err != nil {
				return err
			}
			if err := c.validateParams(); err != nil {
				return fmt.Errorf("%w (at %s=%g)", err, s.Sweep.Axis, x)
			}
		}
	}
	if s.Metric != "" {
		if err := sub(s.Substrate).checkMetric(s, s.Metric); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the spec (params map included), so sweeps
// and overrides never mutate registry entries.
func (s *Spec) Clone() *Spec {
	out := *s
	out.Params = maps.Clone(s.Params)
	if s.Adversary.Targets != nil {
		out.Adversary.Targets = append([]int(nil), s.Adversary.Targets...)
	}
	if s.Precision != nil {
		p := *s.Precision
		out.Precision = &p
	}
	out.Population = s.Population.clone()
	return &out
}

// JSON encodes the spec, indented, with a trailing newline.
func (s *Spec) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses a JSON spec and validates it.
func Decode(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: bad spec JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// isFinite reports whether v is an ordinary number — not NaN, not ±Inf.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// param returns a substrate knob with a default. Reading a key the
// substrate does not declare is a bug: Validate would have let a spec set
// it to no effect.
func (s *Spec) param(key string, def float64) float64 {
	if !slices.Contains(declared[s.Substrate], key) {
		panic(fmt.Sprintf("scenario: substrate %s reads undeclared params.%s", s.Substrate, key))
	}
	if v, ok := s.Params[key]; ok {
		return v
	}
	return def
}

// OverrideReplicates replaces the spec's fixed replicate count with n,
// also displacing an inert precision block — whose maxReps is just another
// spelling of the fixed count and would otherwise silently shadow the
// override. An active plan is left untouched: its budget is
// minReps/maxReps, and a fixed-count override is dead under it, exactly
// like RunOptions.Replicates.
func (s *Spec) OverrideReplicates(n int) {
	s.Replicates = n
	if s.Precision != nil && !s.Precision.active() {
		s.Precision = nil
	}
}

// precision returns the precision block, allocating it on first use so
// `-set precision.halfWidth=0.01` works on specs without one.
func (s *Spec) precision() *PrecisionSpec {
	if s.Precision == nil {
		s.Precision = &PrecisionSpec{}
	}
	return s.Precision
}

// populationChurn and populationPopularity lazily allocate the nested
// population blocks for the `-set population.*` override path, mirroring
// precision(). Canonicalization folds untouched blocks back to nil.
func (s *Spec) populationChurn() *ChurnSpec {
	if s.Population == nil {
		s.Population = &PopulationSpec{}
	}
	if s.Population.Churn == nil {
		s.Population.Churn = &ChurnSpec{}
	}
	return s.Population.Churn
}

func (s *Spec) populationPopularity() *PopularitySpec {
	if s.Population == nil {
		s.Population = &PopulationSpec{}
	}
	if s.Population.Popularity == nil {
		s.Population.Popularity = &PopularitySpec{}
	}
	return s.Population.Popularity
}

// setParam sets a substrate knob, allocating the map on first use.
func (s *Spec) setParam(key string, v float64) {
	if s.Params == nil {
		s.Params = map[string]float64{}
	}
	s.Params[key] = v
}

// field reaches one spec field by its dotted key. set parses an override
// value by the field's type and writes the field only if the parse
// succeeds, so a rejected override leaves the spec untouched. sweep, nil
// unless the field is a sweep axis, writes a sweep's x value.
type field struct {
	set   func(s *Spec, key, value string) error
	sweep func(s *Spec, x float64)
}

// of makes the table entry of a field that no sweep moves.
func of[T string | int | float64 | bool | []int](write func(*Spec, T)) field {
	return field{set: func(s *Spec, key, value string) error {
		var v T
		if err := parse(key, value, &v); err != nil {
			return err
		}
		write(s, v)
		return nil
	}}
}

// axis makes the table entry of a field that is also a sweep axis: a
// float field takes x, an int field int(x).
func axis[T int | float64](write func(*Spec, T)) field {
	f := of(write)
	f.sweep = func(s *Spec, x float64) { write(s, T(x)) }
	return f
}

// parse reads an override value into *dst, by dst's type.
func parse(key, value string, dst any) error {
	var err error
	switch d := dst.(type) {
	case *string:
		*d = value
	case *int:
		if *d, err = strconv.Atoi(value); err != nil {
			return fmt.Errorf("scenario: %s needs an integer, got %q", key, value)
		}
	case *float64:
		// ParseFloat accepts "inf" and "nan"; a spec holding one can never
		// re-encode to JSON, so reject them here too.
		if *d, err = strconv.ParseFloat(value, 64); err != nil || !isFinite(*d) {
			return fmt.Errorf("scenario: %s needs a finite number, got %q", key, value)
		}
	case *bool:
		if *d, err = strconv.ParseBool(value); err != nil {
			return fmt.Errorf("scenario: %s needs a boolean, got %q", key, value)
		}
	case *[]int:
		if value == "" {
			return nil
		}
		for _, p := range strings.Split(value, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("scenario: %s needs comma-separated integers, got %q", key, value)
			}
			*d = append(*d, id)
		}
	}
	return nil
}

// fields maps each key Set accepts, besides params.<key>, to its spec
// field. The keys are the JSON paths `lotus-sim scenarios show` prints.
// Entries made with axis are sweep axes, as are adversary.targets and
// params.<key> (see applyAxis).
var fields = map[string]field{
	"title":                          of(func(s *Spec, v string) { s.Title = v }),
	"description":                    of(func(s *Spec, v string) { s.Description = v }),
	"substrate":                      of(func(s *Spec, v string) { s.Substrate = v }),
	"nodes":                          axis(func(s *Spec, v int) { s.Nodes = v }),
	"rounds":                         axis(func(s *Spec, v int) { s.Rounds = v }),
	"replicates":                     of(func(s *Spec, v int) { s.Replicates = v }),
	"metric":                         of(func(s *Spec, v string) { s.Metric = v }),
	"adversary.kind":                 of(func(s *Spec, v string) { s.Adversary.Kind = v }),
	"adversary.fraction":             axis(func(s *Spec, v float64) { s.Adversary.Fraction = v }),
	"adversary.satiateFraction":      axis(func(s *Spec, v float64) { s.Adversary.SatiateFraction = v }),
	"adversary.rotatePeriod":         axis(func(s *Spec, v int) { s.Adversary.RotatePeriod = v }),
	"adversary.targets":              of(func(s *Spec, v []int) { s.Adversary.Targets = v }),
	"adversary.start":                of(func(s *Spec, v int) { s.Adversary.Start = v }),
	"adversary.stop":                 of(func(s *Spec, v int) { s.Adversary.Stop = v }),
	"adversary.rank":                 of(func(s *Spec, v string) { s.Adversary.Rank = v }),
	"defense.kind":                   of(func(s *Spec, v string) { s.Defense.Kind = v }),
	"defense.rateLimit":              axis(func(s *Spec, v int) { s.Defense.RateLimit = v }),
	"precision.halfWidth":            of(func(s *Spec, v float64) { s.precision().HalfWidth = v }),
	"precision.confidence":           of(func(s *Spec, v float64) { s.precision().Confidence = v }),
	"precision.relative":             of(func(s *Spec, v bool) { s.precision().Relative = v }),
	"precision.minReps":              of(func(s *Spec, v int) { s.precision().MinReps = v }),
	"precision.maxReps":              of(func(s *Spec, v int) { s.precision().MaxReps = v }),
	"precision.batch":                of(func(s *Spec, v int) { s.precision().Batch = v }),
	"population.churn.leaveRate":     axis(func(s *Spec, v float64) { s.populationChurn().LeaveRate = v }),
	"population.churn.joinRate":      axis(func(s *Spec, v float64) { s.populationChurn().JoinRate = v }),
	"population.churn.start":         of(func(s *Spec, v int) { s.populationChurn().Start = v }),
	"population.popularity.kind":     of(func(s *Spec, v string) { s.populationPopularity().Kind = v }),
	"population.popularity.exponent": axis(func(s *Spec, v float64) { s.populationPopularity().Exponent = v }),
	"population.popularity.items":    of(func(s *Spec, v int) { s.populationPopularity().Items = v }),
	"sweep.axis":                     of(func(s *Spec, v string) { s.Sweep.Axis = v }),
	"sweep.from":                     of(func(s *Spec, v float64) { s.Sweep.From = v }),
	"sweep.to":                       of(func(s *Spec, v float64) { s.Sweep.To = v }),
	"sweep.points":                   of(func(s *Spec, v int) { s.Sweep.Points = v }),
}

// fieldOf returns the field a key names: its fields entry, or for
// params.<key> that substrate knob, a sweep axis that truncates x when the
// knob is an integer, as every other integer axis does.
func fieldOf(key string) (field, bool) {
	if f, ok := fields[key]; ok {
		return f, true
	}
	pkey, ok := strings.CutPrefix(key, "params.")
	if !ok || pkey == "" {
		return field{}, false
	}
	f := axis(func(s *Spec, v float64) { s.setParam(pkey, v) })
	if k := knobOf(pkey); k != nil && k.integer {
		f.sweep = func(s *Spec, x float64) { s.setParam(pkey, math.Trunc(x)) }
	}
	return f, true
}

// applyAxis sets the swept knob to x.
func (s *Spec) applyAxis(x float64) error {
	key := s.Sweep.Axis
	switch key {
	case "adversary.targets":
		// Satiate nodes 0..x-1: as an axis the target list grows from the
		// front, so sweeping it adds one targeted holder per step.
		if x < 0 || x > float64(s.population()) {
			return fmt.Errorf("scenario: adversary.targets axis value %g is outside [0,%d]", x, s.population())
		}
		s.Adversary.Targets = span(int(x))
		return nil
	case "defense.rateLimit":
		if s.Defense.Kind == "" || s.Defense.Kind == "none" {
			s.Defense.Kind = "ratelimit"
		}
	case "population.popularity.exponent":
		if p := s.populationPopularity(); p.Kind == "" {
			p.Kind = "zipf"
		}
	}
	f, ok := fieldOf(key)
	if !ok || f.sweep == nil {
		return fmt.Errorf("scenario: unknown sweep axis %q", key)
	}
	f.sweep(s, x)
	return nil
}

// Set applies one key=value override. The keys are those of the fields
// table and params.<key>: the dotted paths of the JSON spec, so overrides
// round-trip (Set then JSON yields a spec that parses back to the
// overridden value).
func (s *Spec) Set(key, value string) error {
	f, ok := fieldOf(key)
	if !ok {
		return fmt.Errorf("scenario: unknown override key %q (run `lotus-sim scenarios show <name>` for the spec layout)", key)
	}
	return f.set(s, key, value)
}

// ApplySets parses and applies a list of key=value overrides, then
// re-validates.
func (s *Spec) ApplySets(sets []string) error {
	for _, kv := range sets {
		key, value, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return fmt.Errorf("scenario: override %q is not key=value", kv)
		}
		if err := s.Set(key, value); err != nil {
			return err
		}
	}
	return s.Validate()
}

// Metrics lists the metric names the spec's substrate offers, default
// first.
func (s *Spec) Metrics() []string {
	b := sub(s.Substrate)
	if b == nil {
		return nil
	}
	names := slices.DeleteFunc(b.menu(s), func(n string) bool { return n == b.defaultMetric })
	return append([]string{b.defaultMetric}, names...)
}
