package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"lotuseater/internal/simrng"
)

var (
	errTestBuild = errors.New("poisoned build")
	errTestFold  = errors.New("poisoned fold")
)

// The process-wide pool starts exactly PoolSize worker goroutines on first
// use and never grows; everything else the kernel spawns — FoldRange's folder
// goroutine, Go's drainer offers — must be gone when the call returns.
// These tests pin that: after a warm-up, repeated heavy use settles back to
// the warm baseline.

// settle waits for the goroutine count to drop back to base, failing with
// a stack dump if it never does.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Fatalf("goroutines never settled back to %d (now %d):\n%s", base, runtime.NumGoroutine(), buf)
}

// TestPoolGoroutinesBounded: the shared pool's goroutines exist once,
// whatever the load — 50 fan-outs later the process has exactly the warm
// baseline again, and PoolSize never moved.
func TestPoolGoroutinesBounded(t *testing.T) {
	size := PoolSize() // warm the pool
	Go(64, 0, func(i int, ws *Workspace) {})
	base := runtime.NumGoroutine()

	for round := 0; round < 50; round++ {
		Go(128, 0, func(i int, ws *Workspace) {})
	}
	if PoolSize() != size {
		t.Fatalf("pool width changed under load: %d -> %d", size, PoolSize())
	}
	settle(t, base)
}

// TestFoldNoGoroutineLeak: FoldRange's folder goroutine and reorder machinery
// are per-call and fully reclaimed, on success and on error, for any
// worker bound.
func TestFoldNoGoroutineLeak(t *testing.T) {
	if err := (Runner{}).FoldRange(1, 0, 8, buildCount, func(int, any) error { return nil }); err != nil {
		t.Fatal(err) // warm
	}
	base := runtime.NumGoroutine()

	for round := 0; round < 30; round++ {
		workers := []int{1, 2, 0}[round%3]
		err := Runner{Workers: workers}.FoldRange(uint64(round), 0, 200, buildCount,
			func(rep int, snap any) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	settle(t, base)
}

// TestFoldErrorPathsNoGoroutineLeak: build failures and fold failures both
// abandon snapshots mid-stream; nothing may stay parked on the admission
// window or the reorder buffer.
func TestFoldErrorPathsNoGoroutineLeak(t *testing.T) {
	if err := (Runner{}).FoldRange(1, 0, 8, buildCount, func(int, any) error { return nil }); err != nil {
		t.Fatal(err) // warm
	}
	base := runtime.NumGoroutine()

	for round := 0; round < 20; round++ {
		err := Runner{}.FoldRange(uint64(round), 0, 100,
			func(rep int, rng *simrng.Source, ws *Workspace) (Model, error) {
				if rep%7 == 3 {
					return nil, errTestBuild
				}
				return buildCount(rep, rng, ws)
			},
			func(rep int, snap any) error {
				if rep == 10 {
					return errTestFold
				}
				return nil
			})
		if err == nil {
			t.Fatal("want an error from the poisoned replicates")
		}
	}
	settle(t, base)
}
