package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPopulationValidateRejects: every hostile population block is
// rejected with an error — and the same error every time, because specs
// arrive over HTTP and a validator that flip-flops between messages would
// break the content-addressed error cache.
func TestPopulationValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"negative-leave-rate", `{"name":"x","substrate":"gossip","population":{"churn":{"leaveRate":-0.1}}}`},
		{"non-finite-join-rate", `{"name":"x","substrate":"gossip","population":{"churn":{"joinRate":1e308}}}`},
		{"negative-start", `{"name":"x","substrate":"gossip","population":{"churn":{"start":-5}}}`},
		{"trace-node-out-of-range", `{"name":"x","substrate":"gossip","nodes":4,"population":{"churn":{"trace":[{"round":0,"node":99,"op":"leave"}]}}}`},
		{"trace-rounds-backwards", `{"name":"x","substrate":"gossip","population":{"churn":{"trace":[{"round":5,"node":0,"op":"leave"},{"round":2,"node":0,"op":"join"}]}}}`},
		{"trace-unknown-op", `{"name":"x","substrate":"gossip","population":{"churn":{"trace":[{"round":0,"node":0,"op":"vanish"}]}}}`},
		{"trace-negative-round", `{"name":"x","substrate":"gossip","population":{"churn":{"trace":[{"round":-1,"node":0,"op":"leave"}]}}}`},
		{"empty-class-list", `{"name":"x","substrate":"gossip","population":{"classes":[]}}`},
		{"class-weights-dont-sum", `{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":0.3},{"name":"b","weight":0.3}]}}`},
		{"negative-class-weight", `{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":-1},{"name":"b","weight":2}]}}`},
		{"duplicate-class-name", `{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":0.5},{"name":"a","weight":0.5}]}}`},
		{"altruism-above-one", `{"name":"x","substrate":"gossip","population":{"classes":[{"name":"a","weight":1,"altruism":1.5}]}}`},
		{"negative-capacity", `{"name":"x","substrate":"token","population":{"classes":[{"name":"a","weight":1,"capacity":-2}]}}`},
		{"zipf-exponent-zero", `{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"zipf","exponent":0}}}`},
		{"zipf-exponent-negative", `{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"zipf","exponent":-1.1}}}`},
		{"empty-weight-vector", `{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"weights","weights":[]}}}`},
		{"negative-weight", `{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"weights","weights":[-1,2]}}}`},
		{"unknown-popularity-kind", `{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"lognormal"}}}`},
		{"negative-items", `{"name":"x","substrate":"swarm","population":{"popularity":{"kind":"zipf","exponent":1.1,"items":-3}}}`},
		{"huge-items", `{"name":"x","substrate":"gossip","population":{"popularity":{"kind":"zipf","exponent":1.1,"items":65537}}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err1 := Decode([]byte(c.json))
			if err1 == nil {
				t.Fatalf("hostile population block accepted:\n%s", c.json)
			}
			_, err2 := Decode([]byte(c.json))
			if err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("rejection is not deterministic:\n%v\nvs\n%v", err1, err2)
			}
		})
	}
}

// TestTraceParse: the churn trace format — strict decoding, deterministic
// first-offender errors, and the checked-in examples all parse.
func TestTraceParse(t *testing.T) {
	good := `{"version":1,"events":[{"round":0,"node":1,"op":"leave"},{"round":3,"node":1,"op":"join"}]}`
	tr, err := ParseTrace([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || tr.Events[1].Op != "join" {
		t.Fatalf("parsed trace wrong: %+v", tr)
	}

	bad := []struct {
		name string
		json string
		want string
	}{
		{"wrong-version", `{"version":2,"events":[{"round":0,"node":0,"op":"leave"}]}`, "version"},
		{"no-events", `{"version":1,"events":[]}`, "no events"},
		{"unknown-field", `{"version":1,"events":[{"round":0,"node":0,"op":"leave"}],"extra":true}`, "unknown"},
		{"bad-op", `{"version":1,"events":[{"round":0,"node":0,"op":"vanish"}]}`, `"vanish"`},
		{"unsorted", `{"version":1,"events":[{"round":5,"node":0,"op":"leave"},{"round":1,"node":0,"op":"join"}]}`, "sorted"},
		{"negative-node", `{"version":1,"events":[{"round":0,"node":-2,"op":"leave"}]}`, "node"},
		{"trailing-garbage", `{"version":1,"events":[{"round":0,"node":0,"op":"leave"}]} trailing`, "trailing"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseTrace([]byte(c.json))
			if err == nil {
				t.Fatalf("hostile trace accepted:\n%s", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}

	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "traces", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no example traces found")
	}
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseTrace(data); err != nil {
			t.Fatalf("%s does not parse: %v", path, err)
		}
	}
}

// TestTraceApplyTo: a trace lands as the spec's churn schedule, refuses to
// clobber an existing churn block, and the combined spec still validates.
func TestTraceApplyTo(t *testing.T) {
	tr, err := ParseTrace([]byte(`{"version":1,"events":[{"round":1,"node":2,"op":"leave"},{"round":4,"node":2,"op":"join"}]}`))
	if err != nil {
		t.Fatal(err)
	}

	spec, ok := Get("gossip-trade")
	if !ok {
		t.Fatal("gossip-trade vanished")
	}
	if err := tr.ApplyTo(spec); err != nil {
		t.Fatal(err)
	}
	if spec.Population == nil || spec.Population.Churn == nil || len(spec.Population.Churn.Trace) != 2 {
		t.Fatalf("trace not applied: %+v", spec.Population)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec with applied trace fails validation: %v", err)
	}
	if err := tr.ApplyTo(spec); err == nil {
		t.Fatal("applying a trace over existing churn should error")
	}

	rated, _ := Get("gossip-trade-churn")
	if err := tr.ApplyTo(rated); err == nil {
		t.Fatal("applying a trace over rate-driven churn should error")
	}
}
