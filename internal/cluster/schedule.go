package cluster

import (
	"fmt"
	"math"
	"sync"

	"lotuseater/internal/adaptive"
	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// unit is one window: replicates [start, start+n) of sweep point `point`,
// sent to one worker. attempts counts dispatches; a unit whose worker dies
// is requeued with attempts+1 and reassigned, up to the schedule's cap.
type unit struct {
	point    int
	start, n int
	attempts int
}

// pointState is one sweep point's in-progress fold on the coordinator. Its
// open wave is [wave, wave+Plan.Wave(wave)): the replicates the stopping
// rule waits for before its next check.
type pointState struct {
	x    float64
	spec []byte // canonical point-spec JSON, what workers execute

	st       *metrics.Stream
	buffered map[int][]float64 // finished windows past reps, keyed by start
	reps     int               // replicates folded, in replicate order
	wave     int               // replicates folded at the last check: the open wave's start
	cut      int               // end of the windows handed out; past wave once the wave opens
	hw       float64           // Student-t half-width at the last check
	resolved bool
}

// schedule is one job's scheduler state: the retry queue, per-point fold
// state, and the worker dispatch loops attached to it. Every point folds
// under the job's plan — an adaptive precision plan, or for a fixed run
// one wave of all its replicates that never stops early — and every wave
// is cut into windows of at most `window` replicates. Worker loops pull
// windows with next, deliver results with complete, and return failed
// dispatches with requeue. Observations fold into per-point streams in
// global replicate order, whatever order windows arrive in, and the
// stopping rule is consulted at exactly adaptive.Fold's wave boundaries,
// which is what keeps the assembled artifact byte-identical to a local
// run.
type schedule struct {
	plan        adaptive.Plan // the ExecPlan's plan, defaults resolved
	seed        uint64
	opts        scenario.RunOptions
	window      int // most replicates per unit
	maxAttempts int
	onSteal     func() // metrics hook: one wave opened by the widest-CI rule (may be nil)

	mu          sync.Mutex
	cond        *sync.Cond
	points      []*pointState
	pending     []unit          // requeued windows
	loops       map[string]bool // worker URLs with a live dispatch loop
	resolvedPts int
	doneReps    int
	estimate    int // progress total: points x maxReps, shed as points stop early
	failed      error
	finished    bool
}

func newSchedule(ep scenario.ExecPlan, points []*pointState, seed uint64, opts scenario.RunOptions, window, maxAttempts int) *schedule {
	sc := &schedule{
		plan:        ep.Plan.WithDefaults(),
		seed:        seed,
		opts:        opts,
		window:      window,
		maxAttempts: maxAttempts,
		points:      points,
		loops:       make(map[string]bool),
		estimate:    len(points) * ep.Plan.MaxReps,
	}
	sc.cond = sync.NewCond(&sc.mu)
	return sc
}

// next blocks until a unit is available and returns it, or returns false
// when the job has finished or failed — the dispatch loop's exit signal.
func (sc *schedule) next() (unit, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for {
		if sc.finished || sc.failed != nil {
			return unit{}, false
		}
		if u, ok := sc.pickLocked(); ok {
			return u, true
		}
		sc.cond.Wait()
	}
}

// pickLocked chooses the next unit. Retries first: a requeued window is
// the critical path, since its point cannot fold past it. Then the next
// window of the wave being cut, so each wave goes out whole before another
// opens and a fixed job, one wave per point, goes out point by point in
// window order. Then the work-stealing rule opens a wave: that of the
// unresolved point with no wave out whose confidence interval is widest,
// counting points with no variance estimate yet as infinitely wide so
// every point gets its opening wave before any point gets a third. At most
// one wave per point is out at a time, so the stopping rule sees exactly
// the prefixes adaptive.Fold would.
func (sc *schedule) pickLocked() (unit, bool) {
	if len(sc.pending) > 0 {
		u := sc.pending[0]
		sc.pending = sc.pending[1:]
		return u, true
	}
	best, bestHW := -1, 0.0
	for pi, pt := range sc.points {
		if pt.cut > pt.wave {
			if pt.cut < sc.waveEnd(pt) {
				return sc.cutLocked(pi), true
			}
			continue
		}
		if pt.resolved {
			continue
		}
		hw := pt.hw
		if pt.reps < 2 {
			hw = math.Inf(1)
		}
		if best == -1 || hw > bestHW {
			best, bestHW = pi, hw
		}
	}
	if best == -1 {
		return unit{}, false
	}
	if sc.onSteal != nil {
		sc.onSteal()
	}
	return sc.cutLocked(best), true
}

// cutLocked hands out the next window of point pi's open wave.
func (sc *schedule) cutLocked(pi int) unit {
	pt := sc.points[pi]
	n := min(sc.window, sc.waveEnd(pt)-pt.cut)
	u := unit{point: pi, start: pt.cut, n: n}
	pt.cut += n
	return u
}

// waveEnd is the end of pt's open wave.
func (sc *schedule) waveEnd(pt *pointState) int { return pt.wave + sc.plan.Wave(pt.wave) }

// requeue returns a unit whose dispatch failed (worker died, transport
// error) to the queue for reassignment, failing the whole job once the
// unit has exhausted its attempts — a unit that kills every worker it
// visits is a poison pill, not bad luck.
func (sc *schedule) requeue(u unit, cause error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	defer sc.cond.Broadcast()
	u.attempts++
	if u.attempts >= sc.maxAttempts {
		sc.failLocked(fmt.Errorf("cluster: unit point %d replicates [%d,%d) failed %d dispatch attempts, last: %w",
			u.point, u.start, u.start+u.n, u.attempts, cause))
		return
	}
	sc.pending = append(sc.pending, u)
}

// complete delivers a finished unit. The worker's partial accumulator
// state must equal a re-fold of its own observations bit for bit — the
// cross-check that catches version skew or corruption before it can touch
// the artifact — and the window must lie inside its point's open wave.
// Observations fold into the point's stream only when contiguous with what
// has already folded; earlier-arriving later windows buffer until the gap
// fills. When the fold reaches the wave's end, the stopping rule is
// consulted at exactly the boundary adaptive.Fold would: same in-order
// accumulator, same half-width, same verdict — so the distributed run
// settles every point at the identical replicate count.
func (sc *schedule) complete(u unit, obs []float64, workerAcc metrics.Accumulator) {
	var check metrics.Accumulator
	for _, y := range obs {
		check.Add(y)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	defer sc.cond.Broadcast()
	if sc.finished || sc.failed != nil {
		return
	}
	if len(obs) != u.n || check.State() != workerAcc.State() {
		sc.failLocked(fmt.Errorf("cluster: unit point %d replicates [%d,%d): worker returned %d observations whose partial state disagrees with their re-fold — version skew or corruption",
			u.point, u.start, u.start+u.n, len(obs)))
		return
	}
	pt := sc.points[u.point]
	end := sc.waveEnd(pt)
	if pt.resolved || u.start < pt.reps || u.start+u.n > end {
		sc.failLocked(fmt.Errorf("cluster: point %d: window [%d,%d) lies outside the unfolded part [%d,%d) of its open wave — scheduler invariant broken",
			u.point, u.start, u.start+u.n, pt.reps, end))
		return
	}
	pt.buffered[u.start] = obs
	for {
		w, ok := pt.buffered[pt.reps]
		if !ok {
			break
		}
		delete(pt.buffered, pt.reps)
		for _, y := range w {
			pt.st.Add(y)
		}
		pt.reps += len(w)
		sc.doneReps += len(w)
	}
	if pt.reps == end {
		pt.wave = end
		pt.hw = pt.st.Acc.HalfWidth(sc.plan.CI.Confidence)
		met := sc.plan.Met(&pt.st.Acc, pt.hw)
		if sc.plan.Adaptive() && sc.opts.PointProgress != nil {
			sc.opts.PointProgress(u.point, pt.reps, pt.hw, met)
		}
		if met || pt.reps >= sc.plan.MaxReps {
			pt.resolved = true
			sc.resolvedPts++
			sc.estimate -= sc.plan.MaxReps - pt.reps
		}
	}
	if sc.opts.Progress != nil {
		sc.opts.Progress(sc.doneReps, sc.estimate)
	}
	if sc.resolvedPts == len(sc.points) {
		sc.finished = true
	}
}

// failWith aborts the job: pending units drop, dispatch loops exit at
// their next pull, and wait returns the first failure.
func (sc *schedule) failWith(err error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.failLocked(err)
	sc.cond.Broadcast()
}

func (sc *schedule) failLocked(err error) {
	if sc.failed == nil && !sc.finished {
		sc.failed = err
	}
}

// wait blocks until the job finishes or fails, then until every dispatch
// loop has detached (so a returning straggler can't touch a dead job), and
// returns the failure, if any.
func (sc *schedule) wait() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for !sc.finished && sc.failed == nil {
		sc.cond.Wait()
	}
	for len(sc.loops) > 0 {
		sc.cond.Wait()
	}
	return sc.failed
}

// addLoop registers a dispatch loop for a worker URL; false when the job
// is over or the worker already has one.
func (sc *schedule) addLoop(url string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.finished || sc.failed != nil || sc.loops[url] {
		return false
	}
	sc.loops[url] = true
	return true
}

func (sc *schedule) removeLoop(url string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	delete(sc.loops, url)
	sc.cond.Broadcast()
}

func (sc *schedule) loopCount() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.loops)
}

// working reports whether the job still needs workers.
func (sc *schedule) working() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return !sc.finished && sc.failed == nil
}

// results renders the finished schedule as per-point results for
// scenario.Assemble, in point order.
func (sc *schedule) results() []scenario.PointResult {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make([]scenario.PointResult, len(sc.points))
	for i, pt := range sc.points {
		out[i] = scenario.PointResult{X: pt.x, Stream: pt.st, Reps: pt.reps, HalfWidth: pt.hw}
	}
	return out
}
