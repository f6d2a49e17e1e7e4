package gossip

import (
	"testing"

	"lotuseater/internal/attack"
)

// BenchmarkRound measures one full simulation round at Table 1 scale — the
// inner loop of every figure sweep.
func BenchmarkRound(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Rounds = 1 << 20 // effectively unbounded; we step manually
	cfg.Warmup = 0
	eng, err := New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundUnderTradeAttack measures the attacked round, whose
// exchanges move far more updates.
func BenchmarkRoundUnderTradeAttack(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Rounds = 1 << 20
	cfg.Warmup = 0
	eng, err := New(cfg, 1, withAttack(attack.Trade, 0.25))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRun measures a whole default-horizon simulation.
func BenchmarkFullRun(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		eng, err := New(cfg, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
