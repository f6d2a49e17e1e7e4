package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"lotuseater/internal/simrng"
)

// countModel finishes immediately and snapshots a value derived from its
// replicate stream.
type countModel struct {
	val  float64
	done bool
}

func (m *countModel) Step() error            { m.done = true; return nil }
func (m *countModel) Finished() bool         { return m.done }
func (m *countModel) Snapshot() (any, error) { return m.val, nil }

func buildCount(rep int, rng *simrng.Source, _ *Workspace) (Model, error) {
	return &countModel{val: float64(rep) + rng.Float64()}, nil
}

// Replicates builds and drives n independently seeded models and returns
// their snapshots in replicate order: the materialising twin of Fold, kept
// as its test oracle. Replicate r always sees the stream derived with
// ChildN("replicate", r) from seed, so the result is identical for any
// worker count. The first error (by replicate order) is returned.
func (r Runner) Replicates(seed uint64, n int, build Build) ([]any, error) {
	root := simrng.New(seed)
	out := make([]any, n)
	errs := make([]error, n)
	Go(n, r.Workers, func(rep int, ws *Workspace) {
		rng := root.ChildN("replicate", rep)
		m, err := build(rep, rng, ws)
		if err != nil {
			errs[rep] = fmt.Errorf("replicate %d: %w", rep, err)
			return
		}
		snap, err := Drive(m)
		if err != nil {
			errs[rep] = fmt.Errorf("replicate %d: %w", rep, err)
			return
		}
		out[rep] = snap
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestFoldMatchesReplicates: Fold must visit exactly the snapshots
// Replicates returns, in replicate order, for any worker bound.
func TestFoldMatchesReplicates(t *testing.T) {
	const n = 500
	want, err := Runner{}.Replicates(99, n, buildCount)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 0} {
		var got []any
		next := 0
		err := Runner{Workers: workers}.Fold(99, n, buildCount, func(rep int, snap any) error {
			if rep != next {
				t.Fatalf("workers=%d: fold saw replicate %d, want %d", workers, rep, next)
			}
			next++
			got = append(got, snap)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: folded %d snapshots, want %d", workers, len(got), n)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: snapshot %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestFoldRangeMatchesFold: splitting a run into consecutive ranges folds
// exactly the snapshots one Fold call covering the same indices folds —
// global indices, per-index streams, fold order — for any worker bound and
// any split. This is the wave contract the adaptive precision engine
// stands on.
func TestFoldRangeMatchesFold(t *testing.T) {
	const n = 60
	var want []any
	if err := (Runner{}).Fold(41, n, buildCount, func(rep int, snap any) error {
		want = append(want, snap)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, splits := range [][]int{{17, n - 17}, {1, 1, n - 2}, {n}, {30, 0, 30}} {
		for _, workers := range []int{1, 3, 0} {
			var got []any
			start := 0
			for _, size := range splits {
				err := Runner{Workers: workers}.FoldRange(41, start, size, buildCount, func(rep int, snap any) error {
					if rep != len(got) {
						t.Fatalf("splits=%v workers=%d: fold saw replicate %d, want %d", splits, workers, rep, len(got))
					}
					got = append(got, snap)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				start += size
			}
			if len(got) != n {
				t.Fatalf("splits=%v: folded %d snapshots, want %d", splits, len(got), n)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("splits=%v workers=%d: snapshot %d = %v, want %v", splits, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFoldRangeErrors: error messages carry the global replicate index,
// and a negative start is rejected before any model runs.
func TestFoldRangeErrors(t *testing.T) {
	boom := errors.New("boom")
	err := Runner{}.FoldRange(1, 40, 10, func(rep int, rng *simrng.Source, _ *Workspace) (Model, error) {
		if rep == 45 {
			return nil, boom
		}
		return &countModel{}, nil
	}, func(rep int, snap any) error { return nil })
	if err == nil || !errors.Is(err, boom) || err.Error() != "replicate 45: boom" {
		t.Fatalf("global index lost: %v", err)
	}
	ran := false
	err = Runner{}.FoldRange(1, -1, 5, func(rep int, rng *simrng.Source, _ *Workspace) (Model, error) {
		ran = true
		return &countModel{}, nil
	}, func(rep int, snap any) error { return nil })
	if err == nil || ran {
		t.Fatalf("negative start accepted (err=%v, ran=%v)", err, ran)
	}
}

// TestFoldBuildError: a failing replicate is skipped by fold and reported
// as the first error by replicate order.
func TestFoldBuildError(t *testing.T) {
	build := func(rep int, rng *simrng.Source, ws *Workspace) (Model, error) {
		if rep == 3 || rep == 7 {
			return nil, fmt.Errorf("boom %d", rep)
		}
		return buildCount(rep, rng, ws)
	}
	folded := 0
	err := Runner{}.Fold(1, 10, build, func(rep int, snap any) error {
		if rep == 3 || rep == 7 {
			t.Fatalf("fold saw failed replicate %d", rep)
		}
		folded++
		return nil
	})
	if err == nil || err.Error() != "replicate 3: boom 3" {
		t.Fatalf("err = %v, want replicate 3's", err)
	}
	if folded != 8 {
		t.Fatalf("folded %d snapshots, want 8", folded)
	}
}

// TestFoldFoldError: an error from the fold callback stops folding and is
// returned.
func TestFoldFoldError(t *testing.T) {
	sentinel := errors.New("stop")
	folded := 0
	err := Runner{}.Fold(1, 50, buildCount, func(rep int, snap any) error {
		if rep == 5 {
			return sentinel
		}
		folded++
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	if folded != 5 {
		t.Fatalf("folded %d snapshots before the error, want 5", folded)
	}
}

// TestFoldZero: n <= 0 is a no-op.
func TestFoldZero(t *testing.T) {
	err := Runner{}.Fold(1, 0, buildCount, func(int, any) error {
		t.Fatal("fold called for n = 0")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkspaceDefense: the pooled defense is constructed once per key and
// reset on every handout.
func TestWorkspaceDefense(t *testing.T) {
	ws := NewWorkspace()
	made := 0
	mk := func() Defense { made++; return &spyDefense{} }
	d1 := ws.Defense("k", mk).(*spyDefense)
	d2 := ws.Defense("k", mk).(*spyDefense)
	if d1 != d2 {
		t.Fatal("same key returned different defenses")
	}
	if made != 1 {
		t.Fatalf("constructor ran %d times, want 1", made)
	}
	if d1.resets != 2 {
		t.Fatalf("defense reset %d times, want 2 (one per handout)", d1.resets)
	}
	other := ws.Defense("other", mk)
	if other == Defense(d1) {
		t.Fatal("different keys shared a defense")
	}
	if made != 2 {
		t.Fatalf("constructor ran %d times, want 2", made)
	}
}

type spyDefense struct{ resets int }

func (d *spyDefense) Admit(round, from, to, requested int) int { return requested }
func (d *spyDefense) Reset()                                   { d.resets++ }

// TestFoldErrorPrecedence pins the first-error-by-replicate-order contract
// when both a per-replicate error and a fold error occur, in both relative
// orders: an error at a replicate before the fold error's index wins; an
// error at a replicate after it loses to the fold error. The outcome must
// not depend on worker count or scheduling.
func TestFoldErrorPrecedence(t *testing.T) {
	sentinel := errors.New("fold stop")
	cases := []struct {
		name     string
		buildAt  int // replicate whose build fails
		foldAt   int // replicate whose fold fails
		wantText string
		wantFold bool
	}{
		// Build error at 2 precedes a fold error at 6.
		{name: "build-before-fold", buildAt: 2, foldAt: 6, wantText: "replicate 2: boom 2"},
		// Build error at 9 comes after the fold error at 4: the fold error
		// is the first error in replicate order and must win.
		{name: "build-after-fold", buildAt: 9, foldAt: 4, wantFold: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 0} {
				build := func(rep int, rng *simrng.Source, ws *Workspace) (Model, error) {
					if rep == tc.buildAt {
						return nil, fmt.Errorf("boom %d", rep)
					}
					return buildCount(rep, rng, ws)
				}
				err := Runner{Workers: workers}.Fold(1, 12, build, func(rep int, snap any) error {
					if rep == tc.foldAt {
						return sentinel
					}
					return nil
				})
				if tc.wantFold {
					if !errors.Is(err, sentinel) {
						t.Fatalf("workers=%d: err = %v, want the fold error", workers, err)
					}
				} else if err == nil || err.Error() != tc.wantText {
					t.Fatalf("workers=%d: err = %v, want %q", workers, err, tc.wantText)
				}
			}
		})
	}
}

// TestParallelForMatchesSequential: sharded execution must produce exactly
// the sequential result for shard-private writes, for any grain, including
// grains that leave a ragged final shard.
func TestParallelForMatchesSequential(t *testing.T) {
	const n = 10_000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, grain := range []int{0, 1, 7, 100, n, 3 * n} {
		got := make([]int, n)
		shards := map[int][2]int{}
		var mu sync.Mutex
		ParallelFor(n, grain, func(shard, start, end int) {
			for i := start; i < end; i++ {
				got[i] = i * i
			}
			mu.Lock()
			shards[shard] = [2]int{start, end}
			mu.Unlock()
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("grain=%d: index %d not covered exactly once", grain, i)
			}
		}
		// Shard boundaries must be the fixed function of (n, grain): shard
		// k covers [k*grain, min((k+1)*grain, n)).
		g := grain
		if g <= 0 {
			g = DefaultGrain
		}
		wantShards := (n + g - 1) / g
		if wantShards <= 1 {
			wantShards = 1
		}
		if len(shards) != wantShards {
			t.Fatalf("grain=%d: %d shards, want %d", grain, len(shards), wantShards)
		}
		for k, se := range shards {
			wantStart, wantEnd := k*g, (k+1)*g
			if wantShards == 1 {
				wantStart, wantEnd = 0, n
			}
			if wantEnd > n {
				wantEnd = n
			}
			if se != [2]int{wantStart, wantEnd} {
				t.Fatalf("grain=%d: shard %d covered %v, want [%d,%d)", grain, k, se, wantStart, wantEnd)
			}
		}
	}
}

// TestParallelForNested: ParallelFor from inside a pool task (the in-
// replicate case) must not deadlock and must still cover the range.
func TestParallelForNested(t *testing.T) {
	results := make([][]int, 8)
	Go(8, 0, func(i int, _ *Workspace) {
		buf := make([]int, 5000)
		ParallelFor(len(buf), 512, func(_, start, end int) {
			for j := start; j < end; j++ {
				buf[j] = i
			}
		})
		results[i] = buf
	})
	for i, buf := range results {
		for j, v := range buf {
			if v != i {
				t.Fatalf("task %d index %d = %d", i, j, v)
			}
		}
	}
}

// TestFoldProgress: Progress fires once per replicate, in order, as
// done = 1..n out of n, for any worker bound — and error replicates still
// count as completed.
func TestFoldProgress(t *testing.T) {
	const n = 60
	for _, workers := range []int{1, 3, 0} {
		var calls [][2]int
		r := Runner{Workers: workers, Progress: func(done, total int) {
			calls = append(calls, [2]int{done, total})
		}}
		err := r.Fold(7, n, buildCount, func(rep int, snap any) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != n {
			t.Fatalf("workers=%d: %d progress calls, want %d", workers, len(calls), n)
		}
		for i, c := range calls {
			if c[0] != i+1 || c[1] != n {
				t.Fatalf("workers=%d: call %d = (%d,%d), want (%d,%d)", workers, i, c[0], c[1], i+1, n)
			}
		}
	}

	// A build error skips the fold but still advances progress to n.
	var last int
	r := Runner{Progress: func(done, total int) { last = done }}
	err := r.Fold(7, 10, func(rep int, rng *simrng.Source, ws *Workspace) (Model, error) {
		if rep == 4 {
			return nil, errors.New("boom")
		}
		return buildCount(rep, rng, ws)
	}, func(rep int, snap any) error { return nil })
	if err == nil {
		t.Fatal("want the replicate-4 build error")
	}
	if last != 10 {
		t.Fatalf("progress stopped at %d, want 10", last)
	}
}
