package swarm

import "time"

// phaseIx indexes the per-phase duration accumulators in PhaseProfile.
type phaseIx int

const (
	phaseAttack phaseIx = iota
	phaseUnchokeScore
	phaseUnchokeSelect
	phaseRarity
	phaseTransfer
	phaseEndgame
	phaseLifecycle
	phaseCount
)

// phaseNames are the keys used in BENCH_kernel.json phase breakdowns.
var phaseNames = [phaseCount]string{
	"attack",
	"unchoke-score",
	"unchoke-select",
	"rarity",
	"transfer",
	"endgame",
	"lifecycle",
}

// PhaseProfile accumulates wall time per phase of the swarm tick, installed
// with WithPhaseProfile. The taxonomy matches the tick structure: attack
// (Config attacker or instantly-satiating adversary fills), unchoke-score
// (the interested-scan and reciprocation ranking), unchoke-select
// (the RNG slot selection), rarity (per-receiver per-tick rarity
// snapshots), transfer (piece movement along unchoked links, excluding the
// rarity snapshots it triggers), endgame, and lifecycle.
//
// Profiling brackets each phase with a wall-clock read; the snapshot copies
// inside the transfer pass are additionally bracketed one by one, so
// enabling a profile adds a few timer reads per receiver per tick. That
// overhead lands in the rarity bucket and is acceptable for attribution,
// but leave prof nil for production runs.
type PhaseProfile struct {
	d [phaseCount]time.Duration
	// Ticks counts the simulated ticks the accumulators cover.
	Ticks int
}

// WithPhaseProfile installs p as the Sim's phase-attribution sink. Pass the
// same profile to several Sims to aggregate across replicates.
func WithPhaseProfile(p *PhaseProfile) Option {
	return func(s *Sim) { s.prof = p }
}

// Reset zeroes the accumulators, typically after warmup ticks.
func (p *PhaseProfile) Reset() { *p = PhaseProfile{} }

// Phases returns accumulated nanoseconds keyed by phase name. The rarity
// time is spent inside the transfer pass but reported separately; the
// transfer entry has it subtracted out, so entries sum to total phase time
// without double counting.
func (p *PhaseProfile) Phases() map[string]float64 {
	out := make(map[string]float64, phaseCount)
	for ix, name := range phaseNames {
		out[name] = float64(p.d[ix].Nanoseconds())
	}
	transfer := p.d[phaseTransfer] - p.d[phaseRarity]
	if transfer < 0 {
		transfer = 0
	}
	out[phaseNames[phaseTransfer]] = float64(transfer.Nanoseconds())
	return out
}

// PhaseOrder lists the phase names in tick order — the stable rendering
// order for the maps Phases returns.
func PhaseOrder() []string { return phaseNames[:] }

// runPhase executes fn, attributing its wall time to phase ix when a
// profile is installed.
//
//lotus:allocfree
func (s *Sim) runPhase(ix phaseIx, fn func()) {
	if s.prof == nil {
		fn()
		return
	}
	t := time.Now() //lotus:ignore detrand phase attribution feeds the bench profile, never simulation state
	fn()
	s.prof.d[ix] += time.Since(t) //lotus:ignore detrand phase attribution feeds the bench profile, never simulation state
}
