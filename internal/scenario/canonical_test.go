package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCanonicalRoundTripStable: for every registered spec,
// Spec → canonical JSON → Spec → canonical JSON is byte-identical.
func TestCanonicalRoundTripStable(t *testing.T) {
	for _, spec := range All() {
		c1, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: canonical: %v", spec.Name, err)
		}
		back, err := Decode(c1)
		if err != nil {
			t.Fatalf("%s: canonical JSON does not decode: %v\n%s", spec.Name, err, c1)
		}
		c2, err := back.CanonicalJSON()
		if err != nil {
			t.Fatalf("%s: re-canonical: %v", spec.Name, err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("%s: canonical form is not a fixed point:\n first: %s\nsecond: %s", spec.Name, c1, c2)
		}
	}
}

// reorderAndIndent rewrites a JSON document through map[string]any (which
// re-sorts object keys alphabetically — a different order than the struct
// encoding) and indents it, producing a key-order + whitespace variant of
// the same spec.
func reorderAndIndent(t *testing.T, data []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("variant unmarshal: %v", err)
	}
	out, err := json.MarshalIndent(m, "  ", "\t")
	if err != nil {
		t.Fatalf("variant marshal: %v", err)
	}
	return append([]byte("  "), append(out, '\n', '\n')...)
}

// TestCanonicalVariantsHashEqual: key-order and whitespace variants of the
// same spec all canonicalize to the same bytes, so they share one content
// address and cache key.
func TestCanonicalVariantsHashEqual(t *testing.T) {
	for _, name := range []string{"gossip-trade", "gossip-ratelimit", "token-altruism", "x/trade-swarm+ratelimit"} {
		spec, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %s vanished from the registry", name)
		}
		want, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		data, err := spec.JSON() // indented encoding, another whitespace variant
		if err != nil {
			t.Fatal(err)
		}
		for i, variant := range [][]byte{data, reorderAndIndent(t, data)} {
			back, err := Decode(variant)
			if err != nil {
				t.Fatalf("%s variant %d: %v", name, i, err)
			}
			got, err := back.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s variant %d canonicalizes to %s, want %s", name, i, got, want)
			}
		}
	}
}

// TestCanonicalAliasesFold: the normalization rules — kind aliases, dead
// defense, replicate/point defaults, default metric — map spelled-out and
// implied forms of the same run to one canonical form.
func TestCanonicalAliasesFold(t *testing.T) {
	base := &Spec{Name: "alias", Substrate: "gossip", Adversary: AdversarySpec{Kind: "none"}, Replicates: 3, Metric: "isolated-delivery"}
	want, err := base.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	variants := []*Spec{
		{Name: "alias", Substrate: "gossip"}, // kind "", replicates 0, metric ""
		{Name: "alias", Substrate: "gossip", Defense: DefenseSpec{Kind: "none"}},
		{Name: "alias", Substrate: "gossip", Defense: DefenseSpec{Kind: "ratelimit", RateLimit: 0}},
		{Name: "alias", Substrate: "gossip", Sweep: SweepSpec{From: 1, To: 2, Points: 5}}, // dead knobs without an axis
		{Name: "alias", Substrate: "gossip", Params: map[string]float64{}},
	}
	for i, v := range variants {
		got, err := v.CanonicalJSON()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("variant %d canonicalizes to %s, want %s", i, got, want)
		}
	}
	// And the rules must not over-fold: a live defense, a real sweep, and a
	// different metric are different runs.
	distinct := []*Spec{
		{Name: "alias", Substrate: "gossip", Defense: DefenseSpec{Kind: "ratelimit", RateLimit: 4}},
		{Name: "alias", Substrate: "gossip", Sweep: SweepSpec{Axis: "nodes", From: 10, To: 20, Points: 2}},
		{Name: "alias", Substrate: "gossip", Metric: "evictions"},
		{Name: "alias2", Substrate: "gossip"},
	}
	for i, v := range distinct {
		got, err := v.CanonicalJSON()
		if err != nil {
			t.Fatalf("distinct %d: %v", i, err)
		}
		if bytes.Equal(got, want) {
			t.Fatalf("distinct spec %d collides with the base form %s", i, want)
		}
	}
}

// TestCanonicalPrecisionFolds: the precision normalization rules — an
// inert plan is a fixed run of its cap, an active plan spells out its
// defaults and kills the dead replicates knob — map alias spellings of the
// same run to one canonical form, without over-folding distinct plans.
func TestCanonicalPrecisionFolds(t *testing.T) {
	base := func() *Spec { return &Spec{Name: "p", Substrate: "gossip"} }
	canon := func(t *testing.T, s *Spec) string {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		c, err := s.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(c)
	}

	// Inert plan with a cap == the fixed run of that cap.
	inert := base()
	inert.Precision = &PrecisionSpec{MaxReps: 7}
	fixed := base()
	fixed.Replicates = 7
	if canon(t, inert) != canon(t, fixed) {
		t.Fatal("halfWidth=0 plan with maxReps 7 is not the 7-replicate fixed run")
	}
	// Inert plan without a cap == no plan at all.
	empty := base()
	empty.Precision = &PrecisionSpec{}
	if canon(t, empty) != canon(t, base()) {
		t.Fatal("empty precision block is not a no-op")
	}

	// Active plan: spelled-out defaults and an (ignored) replicates knob
	// fold onto the terse spelling.
	terse := base()
	terse.Precision = &PrecisionSpec{HalfWidth: 0.01}
	spelled := base()
	spelled.Replicates = 9 // dead under an active plan
	spelled.Precision = &PrecisionSpec{HalfWidth: 0.01, Confidence: 0.95, MinReps: 2, MaxReps: 256, Batch: 8}
	want := canon(t, terse)
	if got := canon(t, spelled); got != want {
		t.Fatalf("spelled-out active plan canonicalizes differently: %s vs %s", got, want)
	}

	// minReps 1 and 2 execute identically (the engine never stops on a
	// single sample), so they must share a cache key.
	one := base()
	one.Precision = &PrecisionSpec{HalfWidth: 0.01, MinReps: 1}
	if got := canon(t, one); got != want {
		t.Fatalf("minReps 1 canonicalizes differently from the 2-replicate floor: %s vs %s", got, want)
	}

	// No over-folding: a different target, confidence, budget, or a
	// relative reading are different runs — and so is no plan at all.
	distinct := []*PrecisionSpec{
		{HalfWidth: 0.02},
		{HalfWidth: 0.01, Confidence: 0.99},
		{HalfWidth: 0.01, MaxReps: 64},
		{HalfWidth: 0.01, Relative: true},
		nil,
	}
	for i, p := range distinct {
		s := base()
		s.Precision = p
		if got := canon(t, s); got == want {
			t.Fatalf("distinct plan %d collides with the active plan's canonical form", i)
		}
	}
}

// TestCanonicalDoesNotMutate: canonicalization works on a clone; the
// original spec keeps its short spellings.
func TestCanonicalDoesNotMutate(t *testing.T) {
	s := &Spec{Name: "keep", Substrate: "token", Defense: DefenseSpec{Kind: "none"}}
	if _, err := s.CanonicalJSON(); err != nil {
		t.Fatal(err)
	}
	if s.Adversary.Kind != "" || s.Replicates != 0 || s.Metric != "" || s.Defense.Kind != "none" {
		t.Fatalf("CanonicalJSON mutated its receiver: %+v", s)
	}
}
