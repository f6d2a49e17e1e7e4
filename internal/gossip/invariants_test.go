package gossip

import (
	"testing"

	"lotuseater/internal/attack"
)

// TestEngineInvariants drives engines step by step under every attack kind
// and checks internal invariants the statistics and the holdings matrix
// depend on:
//
//   - update conservation: an update's holder set only grows while live;
//   - expiry: after a Step, every live update is still useful in the next
//     round (deadline >= the engine's round);
//   - release order: live is sorted by release, so expiry drops a prefix
//     and the old/recent split is a prefix/suffix of the live indices;
//   - clean rows: no holdings bit is set past the end of live;
//   - monotone eviction: evicted nodes stay evicted;
//   - bounded live set: at most Lifetime rounds' worth of updates live.
func TestEngineInvariants(t *testing.T) {
	for _, kind := range []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade} {
		cfg := quickConfig()
		cfg.ObedientFraction = 0.5
		cfg.ReportThreshold = 1
		eng, err := New(cfg, 99, withAttack(kind, 0.2), withRateLimit(8))
		if err != nil {
			t.Fatal(err)
		}

		holderCount := map[UpdateID]int{}
		evictedBefore := map[int]bool{}
		for round := 0; round < cfg.Rounds; round++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
			if len(eng.live) > cfg.Lifetime*cfg.UpdatesPerRound {
				t.Fatalf("%v: %d live updates exceeds bound %d", kind, len(eng.live), cfg.Lifetime*cfg.UpdatesPerRound)
			}
			for b, u := range eng.live {
				if u.deadline < eng.round {
					t.Fatalf("%v: expired update %v still live at round %d", kind, u.id, eng.round)
				}
				if b > 0 && u.release < eng.live[b-1].release {
					t.Fatalf("%v: live out of release order at index %d: %d after %d", kind, b, u.release, eng.live[b-1].release)
				}
				count := 0
				for v := 0; v < cfg.Nodes; v++ {
					if eng.has(v, b) {
						count++
					}
				}
				if prev, seen := holderCount[u.id]; seen && count < prev {
					t.Fatalf("%v: update %v lost holders: %d -> %d", kind, u.id, prev, count)
				}
				holderCount[u.id] = count
				if count == 0 {
					t.Fatalf("%v: live update %v has no holders (seeding guarantees at least one)", kind, u.id)
				}
			}
			for v := 0; v < cfg.Nodes; v++ {
				for b := len(eng.live); b < eng.words*64; b++ {
					if eng.has(v, b) {
						t.Fatalf("%v: node %d holds bit %d past the %d live updates", kind, v, b, len(eng.live))
					}
				}
			}
			for v, st := range eng.status {
				ev := st&stEvicted != 0
				if evictedBefore[v] && !ev {
					t.Fatalf("%v: node %d un-evicted", kind, v)
				}
				if ev {
					evictedBefore[v] = true
				}
			}
		}
	}
}

// TestEngineSmallestSystem exercises the 2-node corner: one initiator, one
// partner, every round.
func TestEngineSmallestSystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.CopiesSeeded = 1
	cfg.Rounds = 25
	cfg.Warmup = 5
	res := mustRun(t, cfg, 1)
	// With 1 seed copy and 2 nodes, every update starts on one node and the
	// other must trade for it; balanced exchanges require mutual need, so
	// pushes carry the load. Delivery just needs to be sane, not perfect.
	if res.AllHonest.MeanDelivery <= 0 || res.AllHonest.MeanDelivery > 1 {
		t.Fatalf("two-node delivery %.4f", res.AllHonest.MeanDelivery)
	}
}

// TestEngineFullAttackerFraction: the whole system attacker-controlled must
// not panic or divide by zero — there are simply no honest nodes to measure.
func TestEngineFullAttackerFraction(t *testing.T) {
	res := mustRun(t, quickConfig(), 1, withAttack(attack.Trade, 1))
	if res.Isolated.Nodes != 0 || res.Satiated.Nodes != 0 || res.AllHonest.Nodes != 0 {
		t.Fatalf("groups non-empty with no honest nodes: %+v", res)
	}
}

// TestEngineNoPushes: PushSize 0 disables the push phase entirely; balanced
// exchanges alone deliver noticeably less.
func TestEngineNoPushes(t *testing.T) {
	withPush := quickConfig()
	withoutPush := quickConfig()
	withoutPush.PushSize = 0
	a := mustRun(t, withPush, 5)
	b := mustRun(t, withoutPush, 5)
	if b.AllHonest.MeanDelivery >= a.AllHonest.MeanDelivery {
		t.Fatalf("pushes did not matter: %.4f vs %.4f", b.AllHonest.MeanDelivery, a.AllHonest.MeanDelivery)
	}
	if b.Bandwidth.JunkSent != 0 {
		t.Fatal("junk uploaded without pushes")
	}
}

// TestEverySeededUpdateIsDeliverable: with CopiesSeeded = Nodes, everyone
// starts with everything — delivery is exactly 1 and no trades happen.
func TestEverySeededUpdateIsDeliverable(t *testing.T) {
	cfg := quickConfig()
	cfg.CopiesSeeded = cfg.Nodes
	res := mustRun(t, cfg, 2)
	if res.AllHonest.MeanDelivery != 1 {
		t.Fatalf("delivery %.4f with universal seeding", res.AllHonest.MeanDelivery)
	}
	if res.Bandwidth.UsefulSent != 0 {
		t.Fatalf("%d updates traded when nobody needed anything", res.Bandwidth.UsefulSent)
	}
}

// TestSatiationCompatibilityStructural: a node holding every live update
// initiates nothing — the protocol property the whole paper rests on,
// verified against the engine's own exchange phases: each phase runs with a
// recording exec in place of the exchange.
func TestSatiationCompatibilityStructural(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		cfg := quickConfig()
		eng, err := New(cfg, 3, WithEvalParallel(parallel))
		if err != nil {
			t.Fatal(err)
		}
		// Run a few rounds, then force-satiate node 0 by hand and verify
		// neither phase lets it initiate.
		for i := 0; i < 5; i++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for b := range eng.live {
			eng.set(0, b)
		}
		for _, phase := range []struct {
			label string
			end   int
		}{{"balanced", len(eng.live)}, {"push", eng.oldEnd}} {
			initiated := 0
			eng.exchangePhase(phase.label, phase.end, func(i, j int) {
				if i == 0 {
					t.Fatalf("parallel=%v: satiated node initiated a %s exchange", parallel, phase.label)
				}
				if i == j {
					t.Fatalf("parallel=%v: node %d paired with itself", parallel, i)
				}
				initiated++
			})
			if initiated == 0 {
				t.Fatalf("parallel=%v: nobody initiated a %s exchange", parallel, phase.label)
			}
		}
	}
}
