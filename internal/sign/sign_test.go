package sign

import (
	"math"
	"testing"

	"lotuseater/internal/simrng"
)

func newKeyring(t *testing.T, n int) *Keyring {
	t.Helper()
	k, err := NewKeyring(n, simrng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyringDeterministic(t *testing.T) {
	a, err := NewKeyring(3, simrng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKeyring(3, simrng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pa, _ := a.Public(i)
		pb, _ := b.Public(i)
		if string(pa) != string(pb) {
			t.Fatalf("identity %d differs across same-seed keyrings", i)
		}
	}
}

func TestKeyringNegative(t *testing.T) {
	if _, err := NewKeyring(-1, simrng.New(1)); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestPublicOutOfRange(t *testing.T) {
	k := newKeyring(t, 2)
	if _, err := k.Public(2); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := k.Public(-1); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestSignVerifyRoundtrip(t *testing.T) {
	k := newKeyring(t, 4)
	r, err := k.SignReceipt(7, 1, 2, []uint64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if !k.VerifyReceipt(r) {
		t.Fatal("valid receipt failed verification")
	}
	if r.Round != 7 || r.From != 1 || r.To != 2 || len(r.Updates) != 3 {
		t.Fatalf("receipt fields corrupted: %+v", r)
	}
}

func TestSignReceiptCopiesUpdates(t *testing.T) {
	k := newKeyring(t, 2)
	ups := []uint64{1, 2}
	r, err := k.SignReceipt(0, 0, 1, ups)
	if err != nil {
		t.Fatal(err)
	}
	ups[0] = 99 // caller mutation must not affect the receipt
	if !k.VerifyReceipt(r) {
		t.Fatal("receipt invalidated by caller mutation")
	}
}

func TestTamperedReceiptRejected(t *testing.T) {
	k := newKeyring(t, 4)
	base, err := k.SignReceipt(7, 1, 2, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	mutations := []func(Receipt) Receipt{
		func(r Receipt) Receipt { r.Round = 8; return r },
		func(r Receipt) Receipt { r.To = 3; return r },
		func(r Receipt) Receipt { r.Updates = []uint64{10, 21}; return r },
		func(r Receipt) Receipt { r.Updates = []uint64{10}; return r },
		func(r Receipt) Receipt { r.Updates = []uint64{10, 20, 30}; return r },
		func(r Receipt) Receipt {
			sig := append([]byte(nil), r.Sig...)
			sig[0] ^= 1
			r.Sig = sig
			return r
		},
	}
	for i, mutate := range mutations {
		if k.VerifyReceipt(mutate(base)) {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestForgedSenderRejected(t *testing.T) {
	k := newKeyring(t, 4)
	r, err := k.SignReceipt(1, 1, 2, []uint64{5})
	if err != nil {
		t.Fatal(err)
	}
	r.From = 3 // claim node 3 signed it
	if k.VerifyReceipt(r) {
		t.Fatal("receipt with forged sender accepted")
	}
}

func TestSignUnknownIdentity(t *testing.T) {
	k := newKeyring(t, 2)
	if _, err := k.SignReceipt(0, 5, 1, nil); err == nil {
		t.Fatal("signing with unknown identity accepted")
	}
}

func TestPartnerDeterministicAndInRange(t *testing.T) {
	const n = 50
	for round := 0; round < 20; round++ {
		for init := 0; init < n; init++ {
			p1 := Partners(PartnerSeed(9), "balanced", round).Of(init, n)
			p2 := Partners(PartnerSeed(9), "balanced", round).Of(init, n)
			if p1 != p2 {
				t.Fatal("partner selection not deterministic")
			}
			if p1 == init {
				t.Fatalf("round %d: node %d partnered with itself", round, init)
			}
			if p1 < 0 || p1 >= n {
				t.Fatalf("partner %d out of range", p1)
			}
		}
	}
}

func TestPartnerVariesWithInputs(t *testing.T) {
	base := Partners(PartnerSeed(9), "balanced", 0).Of(0, 100)
	diffs := 0
	if Partners(PartnerSeed(10), "balanced", 0).Of(0, 100) != base {
		diffs++
	}
	if Partners(PartnerSeed(9), "push", 0).Of(0, 100) != base {
		diffs++
	}
	if Partners(PartnerSeed(9), "balanced", 1).Of(0, 100) != base {
		diffs++
	}
	if diffs == 0 {
		t.Fatal("partner ignores seed, label, and round")
	}
}

// TestPartnerVectors pins the partner schedule: each row lists the partners
// of initiators 0, 1, ... for one (seed, label, round, n). The values were
// computed by an independent implementation of the derivation.
func TestPartnerVectors(t *testing.T) {
	for _, tc := range []struct {
		seed  PartnerSeed
		label string
		round int
		n     int
		want  []int
	}{
		{1, "balanced", 0, 10, []int{9, 6, 1, 2, 1, 2, 9, 2, 2, 6}},
		{1, "push", 0, 10, []int{6, 7, 1, 8, 8, 7, 4, 9, 2, 4}},
		{1, "balanced", 1, 10, []int{6, 0, 1, 9, 0, 6, 9, 4, 7, 2}},
		{2, "balanced", 0, 10, []int{6, 6, 5, 0, 2, 8, 4, 0, 0, 1}},
		{0, "", 0, 3, []int{1, 0, 1}},
		{7, "balanced", 5, 2, []int{1, 0}},
		{math.MaxUint64, "balanced", 1 << 40, 250, []int{179, 145, 62, 43, 108, 13, 28, 128, 218, 80, 189, 125}},
		{42, "a sub-protocol label far longer than balanced or push", 3, 1_000_000, []int{681041, 139616, 432292, 105545, 998633, 900455, 171117, 387666}},
	} {
		for init, want := range tc.want {
			if got := Partners(tc.seed, tc.label, tc.round).Of(init, tc.n); got != want {
				t.Errorf("Partners(%d, %q, %d).Of(%d, %d) = %d, want %d", tc.seed, tc.label, tc.round, init, tc.n, got, want)
			}
		}
	}
}

// TestPartnerRoughlyUniform: every initiator's partner is uniform over the
// n-1 other nodes. The chi-square over all (initiator, partner) cells, 20
// expected draws each, must lie within five standard deviations of its
// n(n-2) degrees of freedom.
func TestPartnerRoughlyUniform(t *testing.T) {
	for _, n := range []int{2, 3, 7, 250} {
		rounds := 20 * (n - 1)
		counts := make([]int, n*n)
		for round := 0; round < rounds; round++ {
			for init := 0; init < n; init++ {
				counts[init*n+Partners(PartnerSeed(3), "balanced", round).Of(init, n)]++
			}
		}
		chi2 := 0.0
		for init := 0; init < n; init++ {
			if counts[init*n+init] != 0 {
				t.Fatalf("n=%d: initiator %d chosen as its own partner", n, init)
			}
			for v := 0; v < n; v++ {
				if v != init {
					d := float64(counts[init*n+v] - 20)
					chi2 += d * d / 20
				}
			}
		}
		df := float64(n * (n - 2))
		if slack := 5 * math.Sqrt(2*df); chi2 < df-slack || chi2 > df+slack {
			t.Fatalf("n=%d: chi-square %.1f over %.0f degrees of freedom; want within %.1f", n, chi2, df, slack)
		}
	}
}

// TestPartnerLabelsIndependent: the balanced and push schedules are drawn
// independently, so one initiator's two partners in a round coincide at
// rate 1/(n-1).
func TestPartnerLabelsIndependent(t *testing.T) {
	for _, n := range []int{3, 10, 250} {
		const rounds = 400
		same := 0
		for round := 0; round < rounds; round++ {
			for init := 0; init < n; init++ {
				if Partners(PartnerSeed(5), "balanced", round).Of(init, n) == Partners(PartnerSeed(5), "push", round).Of(init, n) {
					same++
				}
			}
		}
		draws := float64(rounds * n)
		p := 1 / float64(n-1)
		rate := float64(same) / draws
		if se := math.Sqrt(p * (1 - p) / draws); math.Abs(rate-p) > 5*se {
			t.Fatalf("n=%d: balanced and push partners coincide at %.4f; want %.4f ± %.4f", n, rate, p, 5*se)
		}
	}
}

// TestPartnerAllocFree: the gossip engine derives one schedule per phase and
// draws a partner once per initiator, so neither may allocate.
func TestPartnerAllocFree(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		_ = Partners(PartnerSeed(9), "balanced", 12).Of(345, 100000)
	}); allocs != 0 {
		t.Fatalf("a partner draw allocates %.0f times per call", allocs)
	}
}

func TestPartnerPanicsSmallN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a partner draw with n=1 did not panic")
		}
	}()
	Partners(PartnerSeed(1), "x", 0).Of(0, 1)
}

func TestKeyringN(t *testing.T) {
	if got := newKeyring(t, 4).N(); got != 4 {
		t.Fatalf("N = %d, want 4", got)
	}
}

func TestVerifyReceiptUnknownSender(t *testing.T) {
	k := newKeyring(t, 2)
	r, err := k.SignReceipt(0, 0, 1, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	r.From = 7 // no such identity
	if k.VerifyReceipt(r) {
		t.Fatal("receipt from unknown identity accepted")
	}
}

// BenchmarkPartner times one partner draw at a 10⁵-node population, the
// call the gossip engine makes once per initiator per phase, with the
// schedule derived once per 1024 draws.
func BenchmarkPartner(b *testing.B) {
	sink := 0
	var sched Schedule
	for i := 0; b.Loop(); i++ {
		if i&1023 == 0 {
			sched = Partners(PartnerSeed(9), "balanced", i>>10)
		}
		sink += sched.Of(i&1023, 100000)
	}
	if sink < 0 {
		b.Fatal(sink)
	}
}
