package scenario

import "encoding/json"

// Canonicalization gives every Spec a single byte representation so specs
// can be content-addressed: the experiment service keys its result cache on
// the canonical form, and two requests that mean the same run — whatever
// their key order, whitespace, or spelled-out defaults — hash to the same
// key and share one cached artifact.
//
// Canonical form is the compact JSON encoding of a normalized copy of the
// spec. encoding/json already makes the bytes deterministic (struct fields
// in declaration order, map keys sorted); normalization folds the aliases
// that JSON cannot see:
//
//   - adversary.kind "" and "none" are the same attack → "none";
//   - a defense that limits nothing (kind none, or ratelimit with a zero
//     cap) is no defense → the empty DefenseSpec;
//   - a precision block that can never stop early (halfWidth 0) is a fixed
//     run of its maxReps → replicates takes the cap, precision goes nil;
//     an active block gets its defaults spelled out (confidence 0.95,
//     minReps 2, maxReps 256, batch 8) and kills the now-dead replicates
//     knob → 0;
//   - replicates <= 0 runs as 3 → 3 (fixed replication only);
//   - with no sweep axis the from/to/points knobs are dead → zero SweepSpec;
//     with an axis, points below the 2-point minimum run as 2 → 2;
//   - metric "" is the substrate default → the default's name;
//   - empty params and target lists → nil;
//   - a population block that models nothing folds away piecewise: churn
//     with zero rates and no trace → nil, a single class with no trait
//     overrides → nil (a single class *with* overrides keeps them, weight
//     normalized to 1), uniform popularity (kind uniform, or an explicit
//     numerically-uniform weight vector) → nil, and the whole block → nil
//     once all three axes folded — so a degenerate population spec caches
//     and replays byte-identically to one without the block.
//
// Canonicalization is idempotent — the canonical form of a canonical spec
// is itself — which is what makes Spec → canonical JSON → Spec → canonical
// JSON byte-identical (pinned by tests). Population and horizon defaults
// (nodes or rounds 0) live inside each substrate's build function and are
// deliberately not expanded here; a spec that spells out the default
// population is a different canonical spec, at worst one redundant cache
// entry.

// canonicalized returns a semantically equivalent copy in canonical form.
func (s *Spec) canonicalized() *Spec {
	c := s.Clone()
	if c.Adversary.Kind == "" {
		c.Adversary.Kind = "none"
	}
	if len(c.Adversary.Targets) == 0 {
		c.Adversary.Targets = nil
	}
	if !c.Defense.enabled() {
		c.Defense = DefenseSpec{}
	}
	if c.Precision != nil && !c.Precision.active() {
		// A plan that can never stop early is a fixed run of its cap.
		if c.Precision.MaxReps > 0 {
			c.Replicates = c.Precision.MaxReps
		}
		c.Precision = nil
	}
	if c.Precision != nil {
		p := plan(c.Precision).WithDefaults()
		c.Precision = &PrecisionSpec{
			HalfWidth:  p.CI.HalfWidth,
			Confidence: p.CI.Confidence,
			Relative:   p.CI.Relative,
			MinReps:    p.MinReps,
			MaxReps:    p.MaxReps,
			Batch:      p.Batch,
		}
		// Under an active plan the fixed replicate count is dead.
		c.Replicates = 0
	} else if c.Replicates <= 0 {
		c.Replicates = 3
	}
	if c.Sweep.Axis == "" {
		c.Sweep = SweepSpec{}
	} else if c.Sweep.Points < 2 {
		c.Sweep.Points = 2
	}
	if c.Metric == "" {
		if b := sub(c.Substrate); b != nil {
			c.Metric = b.defaultMetric
		}
	}
	if len(c.Params) == 0 {
		c.Params = nil
	}
	c.Population = c.Population.canonicalized()
	return c
}

// CanonicalJSON encodes the spec in canonical form: compact JSON of the
// normalized spec, deterministic byte for byte. Decoding the result and
// canonicalizing again reproduces the same bytes.
func (s *Spec) CanonicalJSON() ([]byte, error) {
	return json.Marshal(s.canonicalized())
}
