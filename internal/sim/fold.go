package sim

import (
	"fmt"
	"sync"

	"lotuseater/internal/simrng"
)

// FoldFunc consumes one replicate's snapshot. Runner.Fold calls it from a
// single goroutine, in strict replicate order, so implementations need no
// locking and deterministic reductions (running sums, streaming
// accumulators) come out bit-identical for any worker count.
type FoldFunc func(rep int, snap any) error

// Fold builds and drives n independently seeded models, replicate r on
// the stream ChildN("replicate", r) from seed, and folds each snapshot into
// fold instead of materializing a []any of all of them. Replicates run
// concurrently on the shared pool; completed snapshots wait in a reorder
// buffer until their turn, and an admission window of about twice the pool
// width bounds how far ahead of the fold cursor workers may run, so a
// 10k-replicate run holds O(workers) snapshots at any moment rather than
// 10k.
//
// fold runs on a dedicated goroutine in strict replicate order. A build or
// drive error skips that replicate's fold call and is returned (first error
// by replicate order) after all replicates finish; a fold error stops
// folding (later snapshots are discarded) and is returned likewise.
func (r Runner) Fold(seed uint64, n int, build Build, fold FoldFunc) error {
	return r.FoldRange(seed, 0, n, build, fold)
}

// FoldRange is Fold over the replicate index window [start, start+n):
// build and fold see global replicate indices, and replicate start+i draws
// the stream ChildN("replicate", start+i) from seed — exactly the stream
// Fold(seed, start+n, ...) hands the same index. Replicate streams are a
// pure function of (seed, replicate index), never of how a run is split
// into ranges, so a run executed as consecutive waves (the adaptive
// precision engine's batched stopping rule) folds bit-identical models in
// bit-identical order to one fixed-count call covering the same indices.
//
// Progress, when set, reports this call's local completion (done in 1..n),
// not global indices; callers running waves translate. Error messages carry
// the global replicate index.
func (r Runner) FoldRange(seed uint64, start, n int, build Build, fold FoldFunc) error {
	if start < 0 {
		return fmt.Errorf("sim: FoldRange start must be non-negative, got %d", start)
	}
	if n <= 0 {
		return nil
	}
	root := simrng.New(seed)
	errs := make([]error, n)

	// Admission window: replicate rep may start only once the fold cursor
	// has passed rep-window, so at most `window` snapshots are in flight or
	// waiting to fold. The wait is keyed on the replicate's own index —
	// replicate `cursor` is always admissible — so the window cannot
	// deadlock no matter how pool workers interleave.
	window := 2 * PoolSize()
	if window < 2 {
		window = 2
	}
	var (
		mu     sync.Mutex
		cursor int // next replicate to fold (local index); owned by the folder
	)
	cond := sync.NewCond(&mu)

	type done struct {
		rep  int // local index
		snap any
	}
	results := make(chan done, window)

	var wg sync.WaitGroup
	wg.Add(1)
	var foldErr error
	foldErrAt := n
	go func() {
		defer wg.Done()
		pending := make(map[int]any, window)
		for d := range results {
			pending[d.rep] = d.snap
			mu.Lock()
			for {
				snap, ok := pending[cursor]
				if !ok {
					break
				}
				delete(pending, cursor)
				rep := cursor
				mu.Unlock()
				if errs[rep] == nil && foldErr == nil {
					if err := fold(start+rep, snap); err != nil {
						foldErr = fmt.Errorf("replicate %d: fold: %w", start+rep, err)
						foldErrAt = rep
					}
				}
				if r.Progress != nil {
					r.Progress(rep+1, n)
				}
				mu.Lock()
				cursor++
				cond.Broadcast()
			}
			mu.Unlock()
		}
	}()

	Go(n, r.Workers, func(rep int, ws *Workspace) {
		mu.Lock()
		for rep >= cursor+window {
			cond.Wait()
		}
		mu.Unlock()
		rng := root.ChildN("replicate", start+rep)
		m, err := build(start+rep, rng, ws)
		if err != nil {
			errs[rep] = fmt.Errorf("replicate %d: %w", start+rep, err)
			results <- done{rep: rep}
			return
		}
		snap, err := Drive(m)
		if err != nil {
			errs[rep] = fmt.Errorf("replicate %d: %w", start+rep, err)
			results <- done{rep: rep}
			return
		}
		results <- done{rep: rep, snap: snap}
	})
	close(results)
	wg.Wait()

	for rep, err := range errs {
		if err != nil && rep <= foldErrAt {
			return err
		}
	}
	return foldErr
}
