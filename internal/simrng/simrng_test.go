package simrng

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical draws", same)
	}
}

func TestChildIndependentOfConsumption(t *testing.T) {
	a := New(7)
	fresh := a.Child("stream").Uint64()

	b := New(7)
	for i := 0; i < 50; i++ {
		b.Uint64() // consume parent randomness
	}
	consumed := b.Child("stream").Uint64()

	if fresh != consumed {
		t.Fatalf("child stream depends on parent consumption: %d != %d", fresh, consumed)
	}
}

func TestChildLabelsDiffer(t *testing.T) {
	s := New(7)
	if s.Child("a").Uint64() == s.Child("b").Uint64() {
		t.Fatal("children with different labels produced the same first draw")
	}
}

func TestChildNDistinct(t *testing.T) {
	s := New(7)
	seen := make(map[uint64]int)
	for i := 0; i < 200; i++ {
		v := s.ChildN("node", i).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("ChildN %d and %d share first draw %d", prev, i, v)
		}
		seen[v] = i
	}
}

func TestSeedAccessor(t *testing.T) {
	if got := New(99).Seed(); got != 99 {
		t.Fatalf("Seed() = %d, want 99", got)
	}
}

func TestIntNRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.IntN(17)
		if v < 0 || v >= 17 {
			t.Fatalf("IntN(17) = %d out of range", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g out of range", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(11)
	const trials = 50000
	hits := 0
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency %g, want ~0.3", frac)
	}
}

func TestSampleIntsProperties(t *testing.T) {
	s := New(5)
	check := func(n, k int) {
		t.Helper()
		got := s.SampleInts(n, k)
		if len(got) != k {
			t.Fatalf("SampleInts(%d,%d) returned %d values", n, k, len(got))
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n {
				t.Fatalf("SampleInts(%d,%d) produced out-of-range %d", n, k, v)
			}
			if seen[v] {
				t.Fatalf("SampleInts(%d,%d) produced duplicate %d", n, k, v)
			}
			seen[v] = true
		}
	}
	// Exercise both the rejection-sampling and partial-shuffle paths.
	for _, tc := range []struct{ n, k int }{
		{10, 0}, {10, 1}, {10, 2}, {10, 5}, {10, 10},
		{1000, 3}, {1000, 250}, {1000, 999}, {1, 1}, {1, 0},
	} {
		check(tc.n, tc.k)
	}
}

// TestSampleIntsScanMatchesSet: deduplicating small samples by scanning
// must reject exactly what the set rejects, so the draws match the set
// implementation on both sides of sampleScanMax. SampleIntsInto must append
// exactly what SampleInts and the reference implementations draw after what
// the buffer already holds, on both sides of sampleScanMax and of the
// k·4 ≤ n split between rejection and the partial Fisher–Yates, and must
// reuse a buffer with room without allocating.
func TestSampleIntsScanMatchesSet(t *testing.T) {
	bySet := func(s *Source, n, k int) []int {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := s.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	for _, tc := range []struct{ n, k int }{
		{4, 1}, {48, 12}, {256, 63}, {256, 64}, {260, 65}, {1000, 128}, {100000, 64},
	} {
		for seed := uint64(0); seed < 20; seed++ {
			got, want := New(seed).SampleInts(tc.n, tc.k), bySet(New(seed), tc.n, tc.k)
			if !slices.Equal(got, want) {
				t.Fatalf("SampleInts(%d, %d) seed %d = %v, want %v", tc.n, tc.k, seed, got, want)
			}
		}
	}
	byShuffle := func(s *Source, n, k int) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + s.IntN(n-i)
			idx[i], idx[j] = idx[j], idx[i]
		}
		return idx[:k]
	}
	prefix := []int{-1, -2, -3}
	for _, tc := range []struct{ n, k int }{
		{4, 1}, {256, 64}, {260, 65}, {1000, 128}, // rejection: scan, then bitset
		{4, 2}, {7, 7}, {255, 64}, {259, 65}, {1000, 999}, // partial Fisher–Yates
		{5, 0},
	} {
		for seed := uint64(0); seed < 20; seed++ {
			want := bySet(New(seed), tc.n, tc.k)
			if tc.k*4 > tc.n {
				want = byShuffle(New(seed), tc.n, tc.k)
			}
			if got := New(seed).SampleInts(tc.n, tc.k); !slices.Equal(got, want) {
				t.Fatalf("SampleInts(%d, %d) seed %d = %v, want %v", tc.n, tc.k, seed, got, want)
			}
			buf := append(make([]int, 0, len(prefix)+tc.n), prefix...)
			got := New(seed).SampleIntsInto(buf, tc.n, tc.k)
			if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
				t.Fatalf("SampleIntsInto(%v, %d, %d) seed %d = %v, want the prefix then %v", prefix, tc.n, tc.k, seed, got, want)
			}
			if &got[0] != &buf[0] {
				t.Fatalf("SampleIntsInto(_, %d, %d) reallocated a buffer with room", tc.n, tc.k)
			}
		}
		if tc.k > sampleScanMax && tc.k*4 <= tc.n {
			continue // the bitset path allocates its bitset
		}
		src, buf := New(1), make([]int, 0, tc.n)
		if allocs := testing.AllocsPerRun(20, func() { buf = src.SampleIntsInto(buf[:0], tc.n, tc.k) }); allocs != 0 {
			t.Fatalf("SampleIntsInto(_, %d, %d) allocates %.0f times with a reused buffer", tc.n, tc.k, allocs)
		}
	}
}

func TestSampleIntsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInts(3, 4) did not panic")
		}
	}()
	New(1).SampleInts(3, 4)
}

func TestSampleIntsUniform(t *testing.T) {
	s := New(13)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.SampleInts(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Fatalf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestShufflepreservesMultiset(t *testing.T) {
	s := New(21)
	vals := []int{5, 5, 1, 2, 3, 9, 9, 9}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset sum: %d != %d", got, sum)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// The first output of a SplitMix64 generator seeded with 0 is the
	// finalizer applied to 0 (the generator adds the gamma first).
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64(0) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("SplitMix64 collides on 1, 2")
	}
}

// TestLabelHashIsFNV1a: the allocation-free loop must equal hash/fnv's
// FNV-1a, or every Child and ChildN seed would move.
func TestLabelHashIsFNV1a(t *testing.T) {
	for _, label := range []string{"", "a", "peers", "partner-seed", "order-balanced", "replicate"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(label))
		if got, want := LabelHash(label), h.Sum64(); got != want {
			t.Fatalf("LabelHash(%q) = %#x, want %#x", label, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = LabelHash("order-balanced") }); allocs != 0 {
		t.Fatalf("LabelHash allocates %.0f times per call", allocs)
	}
}

func TestNormFloat64Finite(t *testing.T) {
	s := New(8)
	for i := 0; i < 1000; i++ {
		if v := s.NormFloat64(); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("NormFloat64 produced %g", v)
		}
	}
}

// TestPermIntoMatchesPerm: the buffer-reusing permutation must draw exactly
// the permutation Perm draws from the same stream state, for any buffer
// capacity, so swapping it into hot loops changes no result.
func TestPermIntoMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000} {
		want := New(42).Perm(n)
		for _, buf := range [][]int{nil, make([]int, 0, n/2), make([]int, n+7)} {
			got := New(42).PermInto(buf, n)
			if len(got) != len(want) {
				t.Fatalf("n=%d: PermInto returned %d elements, want %d", n, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d: PermInto diverges from Perm at %d", n, i)
				}
			}
		}
		// A large-enough buffer must be reused, not reallocated.
		buf := make([]int, n)
		got := New(7).PermInto(buf, n)
		if n > 0 && &got[0] != &buf[0] {
			t.Fatalf("n=%d: PermInto reallocated despite sufficient capacity", n)
		}
	}
}

// TestChildNIntoMatchesChildN: reseeding one reused stream in place must
// draw exactly ChildN's stream, for many (seed, label, n), whatever the
// reused stream drew before, and must allocate nothing.
func TestChildNIntoMatchesChildN(t *testing.T) {
	labels := []string{"round", "seed", "order-push", "altruism", "unchoke", ""}
	junk := New(99)
	dst := New(1234)
	for seed := uint64(0); seed < 40; seed++ {
		parent := New(seed * 0x9e3779b97f4a7c15)
		for _, label := range labels {
			for _, n := range []int{0, 1, 2, 63, 64, 1 << 20, -1, int(SplitMix64(seed) >> 33)} {
				// Arbitrary earlier draws on the reused stream.
				for k := junk.IntN(9); k > 0; k-- {
					dst.Uint64()
					dst.IntN(k + 1)
				}
				want := parent.ChildN(label, n)
				got := parent.ChildNInto(dst, label, n)
				if got != dst {
					t.Fatal("ChildNInto returned a different Source than dst")
				}
				if got.Seed() != want.Seed() {
					t.Fatalf("seed %d label %q n %d: seed %d, want %d", seed, label, n, got.Seed(), want.Seed())
				}
				for i := 0; i < 12; i++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d label %q n %d: draw %d = %d, want %d", seed, label, n, i, g, w)
					}
					if g, w := got.IntN(1000), want.IntN(1000); g != w {
						t.Fatalf("seed %d label %q n %d: IntN draw %d = %d, want %d", seed, label, n, i, g, w)
					}
				}
			}
		}
	}
	parent := New(5)
	if allocs := testing.AllocsPerRun(100, func() { parent.ChildNInto(dst, "round", 3).Uint64() }); allocs != 0 {
		t.Fatalf("ChildNInto on a reused stream allocates %.0f objects, want 0", allocs)
	}
	if got, want := parent.ChildNInto(nil, "round", 3).Uint64(), parent.ChildN("round", 3).Uint64(); got != want {
		t.Fatalf("ChildNInto(nil) drew %d, ChildN %d", got, want)
	}
}
