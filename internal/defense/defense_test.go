package defense

import (
	"errors"
	"sync"
	"testing"

	"lotuseater/internal/sign"
	"lotuseater/internal/simrng"
)

func newKeyring(t *testing.T) *sign.Keyring {
	t.Helper()
	k, err := sign.NewKeyring(8, simrng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func receipt(t *testing.T, k *sign.Keyring, round, from, to, count int) sign.Receipt {
	t.Helper()
	ups := make([]uint64, count)
	for i := range ups {
		ups[i] = uint64(i + 1)
	}
	r, err := k.SignReceipt(round, from, to, ups)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRateLimiterDisabled(t *testing.T) {
	l := NewRateLimiter(0)
	if got := l.Admit(0, 1, 2, 100); got != 100 {
		t.Fatalf("disabled limiter granted %d", got)
	}
	var nilLimiter *RateLimiter
	if got := nilLimiter.Admit(0, 1, 2, 5); got != 5 {
		t.Fatalf("nil limiter granted %d", got)
	}
}

func TestRateLimiterCapsPerPair(t *testing.T) {
	l := NewRateLimiter(3)
	if got := l.Admit(0, 1, 2, 2); got != 2 {
		t.Fatalf("first grant %d", got)
	}
	if got := l.Admit(0, 1, 2, 5); got != 1 {
		t.Fatalf("second grant %d, want remaining 1", got)
	}
	if got := l.Admit(0, 1, 2, 5); got != 0 {
		t.Fatalf("exhausted pair granted %d", got)
	}
	// Different sender: independent budget.
	if got := l.Admit(0, 3, 2, 5); got != 3 {
		t.Fatalf("other pair granted %d", got)
	}
	// A new round: the exhausted pair's budget is fresh.
	if got := l.Admit(1, 1, 2, 5); got != 3 {
		t.Fatalf("new round granted %d, want fresh cap 3", got)
	}
}

func TestRateLimiterResetsPerRound(t *testing.T) {
	l := NewRateLimiter(2)
	l.Admit(0, 1, 2, 2)
	if got := l.Admit(1, 1, 2, 2); got != 2 {
		t.Fatalf("new round granted %d, want fresh 2", got)
	}
}

func TestRateLimiterNegativeRequest(t *testing.T) {
	l := NewRateLimiter(2)
	if got := l.Admit(0, 1, 2, -5); got != 0 {
		t.Fatalf("negative request granted %d", got)
	}
}

func TestRateLimiterConcurrent(t *testing.T) {
	l := NewRateLimiter(1000)
	var wg sync.WaitGroup
	granted := make([]int, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				granted[g] += l.Admit(5, 1, 2, 1)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, v := range granted {
		total += v
	}
	if total != 1000 {
		t.Fatalf("concurrent grants total %d, want exactly the cap 1000", total)
	}
}

func TestBoardValidation(t *testing.T) {
	k := newKeyring(t)
	if _, err := NewBoard(nil, 1, 1); err == nil {
		t.Fatal("nil keyring accepted")
	}
	if _, err := NewBoard(k, -1, 1); err == nil {
		t.Fatal("negative threshold accepted")
	}
	b, err := NewBoard(k, 3, 0) // evictReports clamped to 1
	if err != nil {
		t.Fatal(err)
	}
	if b.Threshold() != 3 {
		t.Fatalf("Threshold = %d", b.Threshold())
	}
}

func TestBoardAcceptsValidReportAndEvicts(t *testing.T) {
	k := newKeyring(t)
	b, err := NewBoard(k, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct reporters against node 1.
	if err := b.File(5, Report{Reporter: 2, Accused: 1, Evidence: receipt(t, k, 5, 1, 2, 5)}); err != nil {
		t.Fatal(err)
	}
	if b.Evicted(1) {
		t.Fatal("evicted after a single report")
	}
	if err := b.File(6, Report{Reporter: 3, Accused: 1, Evidence: receipt(t, k, 6, 1, 3, 5)}); err != nil {
		t.Fatal(err)
	}
	if !b.Evicted(1) {
		t.Fatal("not evicted after two distinct reporters")
	}
	if b.EvictedCount() != 1 {
		t.Fatalf("EvictedCount = %d", b.EvictedCount())
	}
	if b.Evicted(5) {
		t.Fatal("a node nobody reported is evicted")
	}
}

func TestBoardDuplicateReporterDoesNotEvict(t *testing.T) {
	k := newKeyring(t)
	b, err := NewBoard(k, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if err := b.File(round, Report{Reporter: 2, Accused: 1, Evidence: receipt(t, k, round, 1, 2, 5)}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Evicted(1) {
		t.Fatal("single reporter filing repeatedly caused eviction")
	}
	if err := b.File(5, Report{Reporter: 3, Accused: 1, Evidence: receipt(t, k, 5, 1, 3, 5)}); err != nil {
		t.Fatal(err)
	}
	if !b.Evicted(1) {
		t.Fatal("not evicted once a second distinct reporter filed")
	}
}

func TestBoardRejectsBadEvidence(t *testing.T) {
	k := newKeyring(t)
	b, err := NewBoard(k, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := receipt(t, k, 0, 1, 2, 5)

	cases := []struct {
		name string
		rep  Report
	}{
		{"wrong accused", Report{Reporter: 2, Accused: 3, Evidence: good}},
		{"wrong reporter", Report{Reporter: 4, Accused: 1, Evidence: good}},
		{"within threshold", Report{Reporter: 2, Accused: 1, Evidence: receipt(t, k, 0, 1, 2, 3)}},
		{"forged signature", func() Report {
			r := receipt(t, k, 0, 1, 2, 5)
			r.Updates = append(r.Updates, 999)
			return Report{Reporter: 2, Accused: 1, Evidence: r}
		}()},
	}
	for _, c := range cases {
		err := b.File(0, c.rep)
		if !errors.Is(err, ErrBadEvidence) {
			t.Fatalf("%s: err = %v, want ErrBadEvidence", c.name, err)
		}
	}
	if b.EvictedCount() != 0 {
		t.Fatal("bad evidence caused eviction")
	}
}

// TestBoardFalseAccusationNeedsRealReceipt: a reporter cannot fabricate
// evidence against an honest node because it cannot forge that node's
// signature — the heart of why "signed messages generated by BAR Gossip"
// make the defense workable.
func TestBoardFalseAccusationNeedsRealReceipt(t *testing.T) {
	k := newKeyring(t)
	b, err := NewBoard(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reporter 2 signs a receipt itself and blames node 1 with it.
	selfSigned := receipt(t, k, 0, 2, 2, 10)
	err = b.File(0, Report{Reporter: 2, Accused: 1, Evidence: selfSigned})
	if !errors.Is(err, ErrBadEvidence) {
		t.Fatalf("self-signed accusation accepted: %v", err)
	}
}

func TestBoardConcurrentFiling(t *testing.T) {
	k := newKeyring(t)
	b, err := NewBoard(k, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for reporter := 2; reporter < 8; reporter++ {
		wg.Add(1)
		go func(reporter int) {
			defer wg.Done()
			_ = b.File(3, Report{
				Reporter: reporter,
				Accused:  1,
				Evidence: receipt(t, k, 3, 1, reporter, 5),
			})
		}(reporter)
	}
	wg.Wait()
	if !b.Evicted(1) || b.EvictedCount() != 1 {
		t.Fatal("six distinct reporters did not evict exactly node 1 at threshold 4")
	}
}

// TestRateLimiterRoundRegressionPanics: the in-place rollover assumes
// non-decreasing rounds; a stale round would silently wipe current counts,
// so it must panic instead.
func TestRateLimiterRoundRegressionPanics(t *testing.T) {
	l := NewRateLimiter(4)
	if got := l.Admit(5, 1, 2, 3); got != 3 {
		t.Fatalf("Admit = %d, want 3", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Admit with a stale round did not panic")
			}
		}()
		l.Admit(4, 1, 2, 1)
	}()
	// Reset restarts the clock: earlier rounds are valid again.
	l.Reset()
	if got := l.Admit(0, 1, 2, 2); got != 2 {
		t.Fatalf("post-Reset Admit = %d, want 2", got)
	}
	// The disabled limiter never tracks rounds and must not panic.
	free := NewRateLimiter(0)
	free.Admit(5, 1, 2, 3)
	if got := free.Admit(1, 1, 2, 3); got != 3 {
		t.Fatalf("disabled limiter Admit = %d, want 3", got)
	}
}

// TestLimitReset: Reset clears the pair budgets and the round cursor so a
// pooled limiter behaves like a fresh one.
func TestLimitReset(t *testing.T) {
	l := NewRateLimiter(2)
	l.Admit(5, 1, 2, 2)
	l.Reset()
	if got := l.Admit(0, 1, 2, 2); got != 2 {
		t.Fatalf("post-reset admit at round 0 = %d, want 2", got)
	}
}

// TestRateLimiterSteadyStateAllocs: after warmup, round rollover reuses the
// pair table in place — the hot path allocates nothing, for a small pair
// population and for one that grew the table several times.
func TestRateLimiterSteadyStateAllocs(t *testing.T) {
	for _, pairs := range []int{32, 4096} {
		l := NewRateLimiter(4)
		// Warm the table with the pair population.
		for round := 0; round < 3; round++ {
			for pair := 0; pair < pairs; pair++ {
				l.Admit(round, pair, pair+1, 3)
			}
		}
		if pairs > minSlots/2 && len(l.slots) <= minSlots {
			t.Fatalf("%d pairs did not grow the %d-slot table", pairs, minSlots)
		}
		round := 3
		allocs := testing.AllocsPerRun(100, func() {
			for pair := 0; pair < pairs; pair++ {
				l.Admit(round, pair, pair+1, 3)
			}
			round++
		})
		if allocs > 0 {
			t.Fatalf("steady-state Admit over %d pairs allocates %.1f per round, want 0", pairs, allocs)
		}
	}
}

// TestRateLimiterNilAndDisabled: a nil or disabled limiter admits
// everything non-negative.
func TestRateLimiterNilAndDisabled(t *testing.T) {
	var nilLimiter *RateLimiter
	if got := nilLimiter.Admit(0, 1, 2, 7); got != 7 {
		t.Fatalf("nil limiter = %d, want 7", got)
	}
	nilLimiter.Reset() // must not panic
	off := NewRateLimiter(0)
	if got := off.Admit(0, 1, 2, 7); got != 7 {
		t.Fatalf("disabled limiter = %d, want 7", got)
	}
	if got := off.Admit(0, 1, 2, -3); got != 0 {
		t.Fatalf("negative request = %d, want 0", got)
	}
}

// BenchmarkAdmit measures one round of Admit calls at gossip-ratelimit's
// pair mix: 250 nodes, an ideal attacker (sender 0) forwarding each of 7
// pool updates to 175 targets one unit at a time, and 100 exchange pairs
// asking for 2 units of excess each — 1,325 calls over 275 distinct pairs
// per round, at cap 4.
func BenchmarkAdmit(b *testing.B) {
	const nodes, pool, targets, exchanges = 250, 7, 175, 100
	l := NewRateLimiter(4)
	round := func(r int) {
		for u := 0; u < pool; u++ {
			for v := 25; v < 25+targets; v++ {
				l.Admit(r, 0, v, 1)
			}
		}
		for k := 0; k < exchanges; k++ {
			from := (k*37 + r) % nodes
			l.Admit(r, from, (from+1+k)%nodes, 2)
		}
	}
	round(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(i + 1)
	}
}
