package cluster

import (
	"fmt"
	"math"
	"sync"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// unit is one schedulable window: replicates [start, start+n) of sweep
// point `point`. attempts counts dispatches; a unit whose worker dies is
// requeued with attempts+1 and reassigned, up to the schedule's cap.
type unit struct {
	point    int
	start, n int
	attempts int
}

// pointState is one sweep point's in-progress fold on the coordinator.
type pointState struct {
	x    float64
	spec []byte // canonical point-spec JSON, what workers execute

	st       *metrics.Stream
	next     int               // next global replicate index to fold (fixed runs)
	buffered map[int][]float64 // out-of-order windows keyed by start (fixed runs)

	reps     int     // replicates folded (adaptive runs)
	hw       float64 // current Student-t half-width (adaptive runs)
	inflight bool    // a wave is dispatched or queued for retry (adaptive runs)
	resolved bool
}

// schedule is one job's scheduler state: the pending unit queue, per-point
// fold state, and the worker dispatch loops attached to it. Worker loops
// pull units with next (work-stealing — for adaptive plans pick hands out
// the next wave of the widest-CI point), deliver results with complete,
// and return failed dispatches with requeue. All observations fold into
// per-point streams in global replicate order, whatever order windows
// arrive in, which is what keeps the assembled artifact byte-identical to
// a local run.
type schedule struct {
	ep          scenario.ExecPlan
	seed        uint64
	opts        scenario.RunOptions
	maxAttempts int
	onSteal     func() // metrics hook: one adaptive wave handed out (may be nil)

	mu          sync.Mutex
	cond        *sync.Cond
	points      []*pointState
	pending     []unit          // fixed windows, and retried adaptive waves
	loops       map[string]bool // worker URLs with a live dispatch loop
	outstanding int             // units dispatched and not yet completed/requeued
	resolvedPts int
	doneReps    int
	estimate    int // progress total: exact for fixed, shrinking cap for adaptive
	failed      error
	finished    bool
}

func newSchedule(ep scenario.ExecPlan, points []*pointState, seed uint64, opts scenario.RunOptions, unitReps, maxAttempts int) *schedule {
	sc := &schedule{
		ep:          ep,
		seed:        seed,
		opts:        opts,
		maxAttempts: maxAttempts,
		points:      points,
		loops:       make(map[string]bool),
	}
	sc.cond = sync.NewCond(&sc.mu)
	if ep.Adaptive {
		sc.estimate = len(points) * ep.Plan.MaxReps
	} else {
		sc.estimate = len(points) * ep.Replicates
		for pi := range points {
			for start := 0; start < ep.Replicates; start += unitReps {
				n := unitReps
				if rest := ep.Replicates - start; n > rest {
					n = rest
				}
				sc.pending = append(sc.pending, unit{point: pi, start: start, n: n})
			}
		}
	}
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
			sc.outstanding++
			return u, true
		}
		sc.cond.Wait()
	}
}

// pickLocked chooses the next unit. Retries first (a requeued unit is the
// critical path — some point is blocked on it); then, under an adaptive
// plan, the work-stealing rule: open the next wave of the unresolved point
// with the widest current confidence interval, counting points with no
// variance estimate yet as infinitely wide so every point gets its opening
// wave before any point gets a third. At most one wave per point is open
// at a time, so each point's observations arrive — and fold — in order.
func (sc *schedule) pickLocked() (unit, bool) {
	if len(sc.pending) > 0 {
		u := sc.pending[0]
		sc.pending = sc.pending[1:]
		return u, true
	}
	if !sc.ep.Adaptive {
		return unit{}, false
	}
	best, bestHW := -1, 0.0
	for pi, pt := range sc.points {
		if pt.resolved || pt.inflight {
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
	pt := sc.points[best]
	wave := sc.ep.Plan.Wave(pt.reps)
	if wave <= 0 {
		return unit{}, false
	}
	pt.inflight = true
	if sc.onSteal != nil {
		sc.onSteal()
	}
	return unit{point: best, start: pt.reps, n: wave}, true
}

// requeue returns a unit whose dispatch failed (worker died, transport
// error) to the queue for reassignment, failing the whole job once the
// unit has exhausted its attempts — a unit that kills every worker it
// visits is a poison pill, not bad luck.
func (sc *schedule) requeue(u unit, cause error) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	defer sc.cond.Broadcast()
	sc.outstanding--
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
// the artifact. Observations fold into the point's stream only when
// contiguous with what has already folded; earlier-arriving later windows
// buffer until the gap fills.
func (sc *schedule) complete(u unit, obs []float64, workerAcc metrics.Accumulator) {
	var check metrics.Accumulator
	for _, y := range obs {
		check.Add(y)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	defer sc.cond.Broadcast()
	sc.outstanding--
	if sc.finished || sc.failed != nil {
		return
	}
	if len(obs) != u.n || check.State() != workerAcc.State() {
		sc.failLocked(fmt.Errorf("cluster: unit point %d replicates [%d,%d): worker returned %d observations whose partial state disagrees with their re-fold — version skew or corruption",
			u.point, u.start, u.start+u.n, len(obs)))
		return
	}
	pt := sc.points[u.point]
	if sc.ep.Adaptive {
		sc.completeWaveLocked(u, pt, obs)
	} else {
		sc.completeWindowLocked(u, pt, obs)
	}
	if sc.resolvedPts == len(sc.points) {
		sc.finished = true
	}
}

func (sc *schedule) completeWindowLocked(u unit, pt *pointState, obs []float64) {
	pt.buffered[u.start] = obs
	for {
		w, ok := pt.buffered[pt.next]
		if !ok {
			break
		}
		delete(pt.buffered, pt.next)
		for _, y := range w {
			pt.st.Add(y)
		}
		pt.next += len(w)
		sc.doneReps += len(w)
	}
	if sc.opts.Progress != nil {
		sc.opts.Progress(sc.doneReps, sc.estimate)
	}
	if pt.next >= sc.ep.Replicates && !pt.resolved {
		pt.resolved = true
		sc.resolvedPts++
	}
}

// completeWaveLocked folds an adaptive wave and consults the stopping rule
// at exactly the boundary adaptive.Fold would: same in-order accumulator,
// same half-width, same verdict — so the distributed run settles every
// point at the identical replicate count.
func (sc *schedule) completeWaveLocked(u unit, pt *pointState, obs []float64) {
	if u.start != pt.reps {
		sc.failLocked(fmt.Errorf("cluster: adaptive point %d: wave starts at %d, expected %d — scheduler invariant broken", u.point, u.start, pt.reps))
		return
	}
	for _, y := range obs {
		pt.st.Add(y)
	}
	pt.reps += u.n
	sc.doneReps += u.n
	pt.hw = pt.st.Acc.HalfWidth(sc.ep.Plan.CI.Confidence)
	met := sc.ep.Plan.Met(&pt.st.Acc, pt.hw)
	pt.inflight = false
	if sc.opts.PointProgress != nil {
		sc.opts.PointProgress(u.point, pt.reps, pt.hw, met)
	}
	if met || pt.reps >= sc.ep.Plan.MaxReps {
		pt.resolved = true
		sc.resolvedPts++
		sc.estimate -= sc.ep.Plan.MaxReps - pt.reps
	}
	if sc.opts.Progress != nil {
		sc.opts.Progress(sc.doneReps, sc.estimate)
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
