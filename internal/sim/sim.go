// Package sim is the common simulation kernel shared by every simulator in
// this repository (gossip, tokenmodel, scrip, swarm, coding).
//
// It defines the Model contract — construct from a config, advance with
// Step, stop when Finished, read a typed result via Snapshot — and provides
// the machinery for running many model instances fast and deterministically:
//
//   - a process-wide bounded worker pool (Go) shared by all concurrent
//     sweeps, so nested or parallel experiments never oversubscribe the
//     machine;
//   - a per-worker Workspace of reusable buffers (bool, int and word
//     slices, and pooled rate limiters), so replicated runs allocate no
//     per-replicate scratch on the hot path;
//   - a Runner that executes independently seeded replicates of any Model
//     and folds their snapshots in replicate order (FoldRange).
//
// Determinism: work is always keyed by index, never by completion order, and
// every replicate derives its random stream from (seed, index) alone, so
// results are identical for any worker count.
package sim

// Model is one simulation instance. Implementations are deterministic in
// (config, seed): gossip.Engine, tokenmodel.Sim, scrip.Sim, swarm.Sim, and
// coding.Dissemination all satisfy it.
//
// A Model is driven by calling Step until Finished reports true; Snapshot
// then returns the run's typed result (each implementation documents its
// concrete snapshot type, e.g. gossip.Result). Snapshot is safe to call
// mid-run for streaming observation; it never mutates the model.
type Model interface {
	// Step advances the simulation by one round/tick. Calling Step after
	// the horizon is exhausted is an error; implementations whose Finished
	// can trip early (the swarm, the token model) accept further Steps
	// until the horizon.
	Step() error
	// Finished reports whether the simulation has reached its horizon, or
	// a state from which no further Step can change its Snapshot: the
	// swarm once every leecher has resolved with no arrival due, the token
	// model once no token can move again. Each implementation states its
	// rule.
	Finished() bool
	// Snapshot returns the typed result summarizing the state so far.
	Snapshot() (any, error)
}

// Drive runs m to completion and returns its final snapshot.
func Drive(m Model) (any, error) {
	for !m.Finished() {
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.Snapshot()
}
