package sim

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

	defenses map[string]Defense
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

// Defense returns the worker's pooled Defense for key, constructing it with
// mk on first use and Reset-ing it on every handout. Defenses accumulate
// per-pair state maps that are expensive to reallocate per replicate;
// pooling them per worker (keyed by configuration, e.g. "ratelimit/8")
// makes defended replicated runs allocation-free at steady state. Like all
// workspace resources, the returned Defense must not outlive the task.
func (w *Workspace) Defense(key string, mk func() Defense) Defense {
	if w.defenses == nil {
		w.defenses = make(map[string]Defense)
	}
	d, ok := w.defenses[key]
	if !ok {
		d = mk()
		w.defenses[key] = d
	}
	d.Reset()
	return d
}

// Bools returns a zeroed []bool of length n, reusing storage when possible.
func (w *Workspace) Bools(n int) []bool { return take(&w.bools, &w.boolsUsed, n) }

// Ints returns a zeroed []int of length n, reusing storage when possible.
func (w *Workspace) Ints(n int) []int { return take(&w.ints, &w.intsUsed, n) }

// Words returns a zeroed []uint64 of length n, reusing storage when
// possible: the backing store of a bit matrix.
func (w *Workspace) Words(n int) []uint64 { return take(&w.words, &w.wordsUsed, n) }
