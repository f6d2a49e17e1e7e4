package sim

import "lotuseater/internal/simrng"

// Build constructs a fresh model for one replicate. rep is the replicate
// index, rng is the replicate's private random stream (derived from the run
// seed and rep only), and ws is the executing worker's scratch arena —
// models that accept a workspace can draw their internal buffers from it
// and stay allocation-free across replicates.
type Build func(rep int, rng *simrng.Source, ws *Workspace) (Model, error)

// Runner executes replicated simulations on the shared worker pool.
type Runner struct {
	// Workers bounds this runner's in-flight tasks on the shared pool.
	// Zero means the full pool width. Results never depend on it.
	Workers int
	// Progress, when non-nil, is called by FoldRange after each replicate
	// clears the fold stage — folded, or skipped by a build/drive/fold
	// error — with the count completed so far and the total for the call.
	// Calls come from FoldRange's single folder goroutine in strict
	// replicate order (done is 1, 2, ..., total), so implementations need
	// no locking against each other; they do need to be safe against the
	// caller's own goroutine if state is shared. The experiment service
	// surfaces these as status updates. Results never depend on it.
	Progress func(done, total int)
}
