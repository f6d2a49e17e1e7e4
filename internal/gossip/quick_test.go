package gossip

import (
	"testing"
	"testing/quick"

	"lotuseater/internal/attack"
)

// TestReplayDeterminismQuick property-tests that any (attack, fraction,
// seed) triple replays identically — the foundation every sweep and every
// figure rests on.
func TestReplayDeterminismQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("many full simulations")
	}
	err := quick.Check(func(seed uint64, kindRaw, fracRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Nodes = 60
		cfg.Rounds = 25
		cfg.Warmup = 5
		kinds := []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade}
		kind, fraction := kinds[int(kindRaw)%len(kinds)], float64(fracRaw%80)/100
		run := func() Result {
			eng, err := New(cfg, seed, withAttack(kind, fraction))
			if err != nil {
				return Result{}
			}
			res, err := eng.Run()
			if err != nil {
				return Result{}
			}
			return res
		}
		a, b := run(), run()
		return a.Isolated == b.Isolated && a.Satiated == b.Satiated &&
			a.AllHonest == b.AllHonest && a.Bandwidth == b.Bandwidth &&
			a.MeasuredUpdates == b.MeasuredUpdates
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryBoundedQuick: whatever the configuration, group statistics
// stay in [0, 1] and bandwidth counters stay non-negative.
func TestDeliveryBoundedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("many full simulations")
	}
	err := quick.Check(func(seed uint64, kindRaw, fracRaw, pushRaw, slackRaw uint8) bool {
		cfg := DefaultConfig()
		cfg.Nodes = 60
		cfg.Rounds = 25
		cfg.Warmup = 5
		cfg.PushSize = int(pushRaw % 12)
		cfg.BalanceSlack = int(slackRaw % 3)
		kinds := []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade}
		kind, fraction := kinds[int(kindRaw)%len(kinds)], float64(fracRaw%90)/100
		eng, err := New(cfg, seed, withAttack(kind, fraction))
		if err != nil {
			return false
		}
		res, err := eng.Run()
		if err != nil {
			return false
		}
		for _, g := range []GroupStats{res.Isolated, res.Satiated, res.AllHonest} {
			if g.MeanDelivery < 0 || g.MeanDelivery > 1 ||
				g.UsableFraction < 0 || g.UsableFraction > 1 {
				return false
			}
			if g.Nodes > 0 && (g.MinDelivery < 0 || g.MinDelivery > g.MeanDelivery+1e-9) {
				return false
			}
		}
		return res.Bandwidth.UsefulSent >= 0 && res.Bandwidth.JunkSent >= 0 &&
			res.Bandwidth.AttackerSent >= 0
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}
