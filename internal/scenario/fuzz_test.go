package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Specs now arrive over HTTP (lotus-sim serve), so hostile bytes must fail
// with an error, never panic or crash the process. The corpus seeds every
// registry entry, the checked-in example specs, and a menagerie of
// near-miss documents; the fuzzer mutates from there.

// FuzzDecode: arbitrary bytes through the full spec pipeline — decode,
// validate, canonicalize, hash, re-encode.
func FuzzDecode(f *testing.F) {
	for _, spec := range All() {
		data, err := spec.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		canon, err := spec.CanonicalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canon)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(examples) == 0 {
		f.Fatal("no example scenario specs found to seed the corpus")
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, hostile := range []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"name":"x"}`,
		`{"name":"x","substrate":"quantum"}`,
		`{"name":"x","substrate":"gossip","nodes":-1}`,
		`{"name":"x","substrate":"gossip","adversary":{"kind":"trade","fraction":1e308}}`,
		`{"name":"x","substrate":"gossip","adversary":{"targets":[-1,0,0]}}`,
		`{"name":"x","substrate":"gossip","nodes":4,"adversary":{"targets":[999999999]}}`,
		`{"name":"x","substrate":"gossip","sweep":{"axis":"params.","from":0,"to":1,"points":2}}`,
		`{"name":"x","substrate":"gossip","sweep":{"axis":"nodes","from":1e300,"to":-1e300,"points":-5}}`,
		`{"name":"x","substrate":"token","metric":"nope"}`,
		`{"name":"x","substrate":"swarm","params":{"pieces":1e100}}`,
		`{"name":"x","substrate":"coding","rounds":9223372036854775807}`,
		// Hostile precision plans: negative targets, impossible confidence,
		// inverted budgets, single-replicate adaptive runs.
		`{"name":"x","substrate":"gossip","precision":{"halfWidth":-0.01}}`,
		`{"name":"x","substrate":"gossip","precision":{"halfWidth":1e308,"confidence":1}}`,
		`{"name":"x","substrate":"gossip","precision":{"halfWidth":0.01,"confidence":1.5}}`,
		`{"name":"x","substrate":"gossip","precision":{"halfWidth":0.01,"minReps":50,"maxReps":5}}`,
		`{"name":"x","substrate":"gossip","precision":{"halfWidth":0.01,"maxReps":1}}`,
		`{"name":"x","substrate":"gossip","precision":{"halfWidth":0.01,"batch":-4}}`,
		`{"name":"x","substrate":"token","precision":{"halfWidth":0.01,"relative":true,"minReps":2,"maxReps":24,"batch":4}}`,
		`{"name":"x","substrate":"scrip","replicates":9,"precision":{"maxReps":7}}`,
		// Hostile population blocks: negative churn rates, schedules that
		// name nodes outside the population or run backwards in time,
		// degenerate class tables, and popularity models with impossible
		// exponents or weight vectors.
		`{"name":"x","substrate":"gossip","population":{"churn":{"leaveRate":-0.1}}}`,
		`{"name":"x","substrate":"gossip","population":{"churn":{"joinRate":1e308}}}`,
		`{"name":"x","substrate":"gossip","population":{"churn":{"start":-5}}}`,
		`{"name":"x","substrate":"gossip","nodes":4,"population":{"churn":{"trace":[{"round":0,"node":99,"op":"leave"}]}}}`,
		`{"name":"x","substrate":"gossip","population":{"churn":{"trace":[{"round":5,"node":0,"op":"leave"},{"round":2,"node":0,"op":"join"}]}}}`,
		`{"name":"x","substrate":"gossip","population":{"churn":{"trace":[{"round":0,"node":0,"op":"vanish"}]}}}`,
		`{"name":"x","substrate":"gossip","population":{"churn":{"trace":[{"round":-1,"node":0,"op":"leave"}]}}}`,
		`{"name":"x","substrate":"gossip","population":{"classes":[]}}`,
		`{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":0.3},{"name":"b","weight":0.3}]}}`,
		`{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":-1},{"name":"a","weight":2}]}}`,
		`{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":1,"altruism":1.5}]}}`,
		`{"name":"x","substrate":"token","population":{"classes":[{"name":"a","weight":1,"capacity":-2}]}}`,
		`{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"zipf","exponent":0}}}`,
		`{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"zipf","exponent":-1.1}}}`,
		`{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"weights","weights":[]}}}`,
		`{"name":"x","substrate":"coding","params":{"symbols":4},"population":{"popularity":{"kind":"weights","weights":[0.5,0.5]}}}`,
		`{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"weights","weights":[-1,2]}}}`,
		`{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"lognormal"}}}`,
		`{"name":"x","substrate":"swarm","population":{"popularity":{"kind":"zipf","exponent":1.1,"items":-3}}}`,
	} {
		f.Add([]byte(hostile))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Decode(data)
		if err != nil {
			return // hostile input rejected with an error: the contract
		}
		// Accepted specs must survive the rest of the pipeline the server
		// runs before simulating: canonicalization is a fixed point, the
		// hash is stable, and the canonical form re-validates.
		c1, err := spec.CanonicalJSON()
		if err != nil {
			t.Fatalf("valid spec failed to canonicalize: %v", err)
		}
		if _, err := spec.Hash(); err != nil {
			t.Fatalf("valid spec failed to hash: %v", err)
		}
		back, err := Decode(c1)
		if err != nil {
			t.Fatalf("canonical form of a valid spec does not decode: %v\n%s", err, c1)
		}
		c2, err := back.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonicalization is not a fixed point:\n%s\n%s", c1, c2)
		}
	})
}

// FuzzSet: arbitrary -set key=value overrides against registry specs must
// error or apply — never panic — and an applied override must leave a spec
// that still encodes and canonicalizes.
func FuzzSet(f *testing.F) {
	for _, seed := range [][2]string{
		{"nodes", "64"},
		{"rounds", "1000000000000000000"},
		{"replicates", "-3"},
		{"metric", "isolated-delivery"},
		{"substrate", "swarm"},
		{"adversary.kind", "trade"},
		{"adversary.fraction", "0.25"},
		{"adversary.fraction", "NaN"},
		{"adversary.satiateFraction", "-Inf"},
		{"adversary.rotatePeriod", "10"},
		{"adversary.targets", "1,2,3"},
		{"adversary.targets", ",,,"},
		{"adversary.targets", "-1"},
		{"defense.kind", "ratelimit"},
		{"defense.rateLimit", "4"},
		{"precision.halfWidth", "0.01"},
		{"precision.halfWidth", "-1"},
		{"precision.halfWidth", "inf"},
		{"precision.confidence", "0.99"},
		{"precision.confidence", "2"},
		{"precision.relative", "true"},
		{"precision.relative", "maybe"},
		{"precision.minReps", "50"},
		{"precision.maxReps", "5"},
		{"precision.batch", "-4"},
		{"sweep.axis", "params.push"},
		{"sweep.axis", "params."},
		{"sweep.from", "1e308"},
		{"sweep.points", "2147483647"},
		{"params.push", "10"},
		{"params.", "1"},
		{"title", "x\x00y"},
		{"", ""},
		{"unknown.key", "value"},
		{"population.churn.leaveRate", "0.02"},
		{"population.churn.leaveRate", "-0.5"},
		{"population.churn.joinRate", "inf"},
		{"population.churn.start", "-3"},
		{"population.popularity.kind", "zipf"},
		{"population.popularity.kind", "lognormal"},
		{"population.popularity.exponent", "0"},
		{"population.popularity.exponent", "NaN"},
		{"population.popularity.items", "-7"},
		{"params.report", "-1"},
		{"params.evict", "0"},
		{"params.epoch", "20"},
		{"params.graph", "2"},
		{"params.rare", "64"},
		{"params.rareCopies", "1e9"},
		{"params.budget", "-100"},
		{"params.uplink", "0"},
		{"params.special", "100000"},
		{"params.specialReq", "0.5"},
		{"params.altruistProviders", "3"},
		{"params.mint", "2.5"},
		{"adversary.start", "10"},
		{"adversary.stop", "-3"},
		{"adversary.rank", "uploaders"},
		{"adversary.rank", "rarest"},
		{"params.selection", "1.5"},
		{"sweep.axis", "adversary.targets"},
	} {
		f.Add(seed[0], seed[1])
	}
	names := Names()
	f.Fuzz(func(t *testing.T, key, value string) {
		// Spread the fuzz across substrates: pick the spec by key length.
		spec, ok := Get(names[len(key)%len(names)])
		if !ok {
			t.Fatal("registry lookup failed")
		}
		if err := spec.Set(key, value); err != nil {
			return // rejected cleanly
		}
		// An accepted override may still make the spec invalid (Set is
		// syntax; ApplySets re-validates). Either way: no panics.
		if err := spec.Validate(); err != nil {
			return
		}
		if _, err := spec.CanonicalJSON(); err != nil {
			t.Fatalf("Set(%q,%q): valid spec failed to canonicalize: %v", key, value, err)
		}
		if _, err := spec.Hash(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzApplySets: the CLI/HTTP override list path — split on '=', apply,
// re-validate — with adversarial list entries.
func FuzzApplySets(f *testing.F) {
	f.Add("nodes=64")
	f.Add("=")
	f.Add("nodes")
	f.Add("nodes=64=65")
	f.Add("adversary.targets=0,1,2")
	f.Add("params.push=inf")
	f.Fuzz(func(t *testing.T, kv string) {
		spec, ok := Get("gossip-trade")
		if !ok {
			t.Fatal("gossip-trade vanished")
		}
		if err := spec.ApplySets([]string{kv}); err != nil {
			return
		}
		if _, err := spec.CanonicalJSON(); err != nil {
			t.Fatalf("ApplySets(%q): %v", kv, err)
		}
	})
}
