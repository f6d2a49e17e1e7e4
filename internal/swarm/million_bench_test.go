package swarm

import (
	"testing"

	"lotuseater/internal/attack"
)

// BenchmarkMillionTicks is the headline single-replicate measurement: one
// full swarm-1m-shaped run (10^6 leechers, 32 pieces, ideal adversary) per
// iteration, construction included. Opt-in via -bench; use
// `-benchtime 1x -count n` for wall-clock comparisons — the run is
// memory-latency-bound, so numbers are strongly hardware-dependent (see
// the README's Performance section for the measured trajectory).
func BenchmarkMillionTicks(b *testing.B) {
	cfg := bigSwarmConfig(1_000_000)
	cfg.Ticks = 30
	cfg.AttackerUplink = 4096
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.01, SatiateFraction: 0.10}
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, 11, WithAdversary(adv))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTickIdeal measures one tick at swarm-ideal's shape: the default
// 120 leechers and 128 rarest-first pieces, a 10 % ideal attacker with
// uplink 32 satiating 30 % of the leechers (the middle of that scenario's
// sweep). A finished run is rebuilt off the clock, so ns/op is the mean
// tick over whole runs.
func BenchmarkTickIdeal(b *testing.B) {
	cfg := DefaultConfig()
	cfg.AttackerUplink = 32
	build := func(seed uint64) *Sim {
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.10, SatiateFraction: 0.30}
		s, err := New(cfg, seed, WithAdversary(adv))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	seed := uint64(1)
	s := build(seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Finished() {
			b.StopTimer()
			seed++
			s = build(seed)
			b.StartTimer()
		}
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
