package sim

import "lotuseater/internal/defense"

// Workspace is a per-worker arena of reusable scratch buffers. Each pool
// worker owns exactly one Workspace and hands it to every task it runs; the
// pool calls Reset between tasks, after which previously returned buffers
// may be recycled. Buffers must therefore never outlive the task that
// requested them.
//
// All getters return zeroed storage. Repeatedly running same-shaped
// replicates on one worker allocates only on the first run — this is what
// keeps matrix- and buffer-heavy models allocation-free per replicate.
type Workspace struct {
	bools [][]bool
	ints  [][]int
	words [][]uint64

	boolsUsed, intsUsed, wordsUsed int

	limiters map[int]*defense.RateLimiter
}

// NewWorkspace returns an empty workspace. Most callers never construct one:
// the pool provisions a Workspace per worker.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles every buffer handed out since the previous Reset. Only the
// owner of the workspace (the pool) should call it.
func (w *Workspace) Reset() {
	w.boolsUsed, w.intsUsed, w.wordsUsed = 0, 0, 0
}

// take returns a zeroed slice of length n from the freelist, reusing the
// slot's storage when it is large enough.
func take[T any](list *[][]T, used *int, n int) []T {
	if *used < len(*list) && cap((*list)[*used]) >= n {
		buf := (*list)[*used][:n]
		*used++
		clear(buf)
		return buf
	}
	buf := make([]T, n)
	if *used < len(*list) {
		(*list)[*used] = buf
	} else {
		*list = append(*list, buf)
	}
	*used++
	return buf
}

// RateLimiter returns the worker's pooled rate limiter with the given
// per-peer per-round cap, constructing it on first use and Reset-ing it on
// every handout. A limiter accumulates a per-pair map that is expensive to
// reallocate per replicate; pooling one per worker and cap makes defended
// replicated runs allocation-free at steady state. Like all workspace
// resources, the returned limiter must not outlive the task.
func (w *Workspace) RateLimiter(perPeerPerRound int) *defense.RateLimiter {
	if w.limiters == nil {
		w.limiters = make(map[int]*defense.RateLimiter)
	}
	l, ok := w.limiters[perPeerPerRound]
	if !ok {
		l = defense.NewRateLimiter(perPeerPerRound)
		w.limiters[perPeerPerRound] = l
	}
	l.Reset()
	return l
}

// Bools returns a zeroed []bool of length n, reusing storage when possible.
func (w *Workspace) Bools(n int) []bool { return take(&w.bools, &w.boolsUsed, n) }

// Ints returns a zeroed []int of length n, reusing storage when possible.
func (w *Workspace) Ints(n int) []int { return take(&w.ints, &w.intsUsed, n) }

// Words returns a zeroed []uint64 of length n, reusing storage when
// possible: the backing store of a bit matrix.
func (w *Workspace) Words(n int) []uint64 { return take(&w.words, &w.wordsUsed, n) }
