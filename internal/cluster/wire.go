// Package cluster scales `lotus-sim serve` from one process to a fleet: a
// coordinator decomposes each job into (sweep point × replicate window)
// units, shards them over HTTP to workers, and reassembles the artifact —
// byte-identical to a single-process run by construction.
//
// Determinism is inherited, not negotiated. Replicate i's random stream is
// a pure function of (seed, i) via sim.Runner.FoldRange, so a worker
// executing window [start, start+n) emits exactly the observations a
// sequential fold would have produced there, in order. Workers return the
// ordered observations (as IEEE-754 bit patterns — exact across the JSON
// boundary) plus their partial metrics.Accumulator state; the coordinator
// buffers out-of-order windows and folds every observation into the
// per-point stream in global replicate order. Folding — not merging — is
// what makes the artifact bit-identical: the P² quantile estimator is
// order-dependent and float addition is non-associative, so only the
// sequential fold order reproduces the local bytes. The partial
// accumulator states are still load-bearing: each is checked bit-for-bit
// against the coordinator's own re-fold of the same window, so a worker
// running skewed code or corrupting data fails the job loudly instead of
// poisoning the artifact.
//
// Adaptive precision plans distribute as work-stealing: wave boundaries
// are drawn exactly where adaptive.Fold would draw them (adaptive.Plan
// Wave), the stopping rule is consulted on the in-order
// stream after each wave (Plan.Met — same accumulator, same verdict), and
// an idle worker steals the next wave of whichever unresolved point
// currently has the widest confidence interval. Each point has at most one
// wave in flight, so its stream stays strictly ordered; parallelism comes
// from points, exactly as compute should chase variance.
//
// The content-addressed result cache federates into a shared artifact
// store: workers publish finished bodies to the coordinator under their
// cache key, lookups that miss locally consult the coordinator, and
// `/results/{key}` answers identically against either role.
//
// Wire protocol (all JSON over HTTP):
//
//	POST /cluster/join              worker -> coordinator: {url} (repeated as heartbeat)
//	POST /cluster/run               coordinator -> worker: one unit {pointSpec, seed, start, n}
//	GET  /cluster/artifacts/{key}   shared store lookup (200 body | 404)
//	PUT  /cluster/artifacts/{key}   shared store publish
//	GET  /cluster/status            coordinator: worker registry + scheduler counters
package cluster

import (
	"encoding/json"
	"math"

	"lotuseater/internal/metrics"
)

// joinRequest is the body of POST /cluster/join — a worker announcing the
// base URL the coordinator can reach it at. Workers re-announce on an
// interval, so a worker the coordinator dropped (crash, partition) re-adds
// itself as soon as it is back.
type joinRequest struct {
	URL string `json:"url"`
}

// unitRequest is one schedulable unit of a job: execute replicates
// [start, start+n) of a resolved sweep-point spec under a run seed. The
// spec travels in canonical form; the seed plus global replicate indices
// fully determine the randomness, so the same unit executes identically on
// any worker.
type unitRequest struct {
	PointSpec json.RawMessage `json:"pointSpec"`
	Seed      uint64          `json:"seed"`
	Start     int             `json:"start"`
	N         int             `json:"n"`
}

// unitResponse carries a unit's outcome back: the window's metric
// observations in replicate order (IEEE-754 bits, so the coordinator folds
// the exact floats the worker observed), and the worker's partial
// accumulator over them — redundant by construction, which is the point:
// the coordinator re-folds the observations and requires bit-equality with
// this state before accepting the window. Error reports an execution
// failure (bad spec, failing model); transport-level failures never reach
// this struct.
type unitResponse struct {
	ObsBits []uint64                 `json:"obsBits"`
	Acc     metrics.AccumulatorState `json:"acc"`
	Error   string                   `json:"error,omitempty"`
}

// observations converts the wire bits back to floats, in order.
func (r *unitResponse) observations() []float64 {
	obs := make([]float64, len(r.ObsBits))
	for i, b := range r.ObsBits {
		obs[i] = math.Float64frombits(b)
	}
	return obs
}

// bitsOf converts observations to wire form.
func bitsOf(obs []float64) []uint64 {
	bits := make([]uint64, len(obs))
	for i, y := range obs {
		bits[i] = math.Float64bits(y)
	}
	return bits
}
