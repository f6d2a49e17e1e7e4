package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 0 {
		t.Fatalf("new set has Len %d", s.Len())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
	}
	for i := 0; i < 100; i++ {
		if s.Has(i) {
			t.Fatalf("empty set Has(%d)", i)
		}
	}
}

func TestZeroCapacity(t *testing.T) {
	s := New(0)
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddRemove(t *testing.T) {
	s := New(130) // cross word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if !s.Add(i) {
			t.Fatalf("Add(%d) reported already present", i)
		}
		if s.Add(i) {
			t.Fatalf("second Add(%d) reported newly added", i)
		}
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	if !s.Remove(64) {
		t.Fatal("Remove(64) reported absent")
	}
	if s.Remove(64) {
		t.Fatal("second Remove(64) reported present")
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d after remove, want 7", s.Len())
	}
}

func TestHasOutOfRange(t *testing.T) {
	s := New(10)
	if s.Has(-1) || s.Has(10) || s.Has(1000) {
		t.Fatal("out-of-range Has returned true")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(10) on cap-10 set did not panic")
		}
	}()
	New(10).Add(10)
}

func TestFill(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130} {
		s := New(n)
		s.Fill()
		if s.Len() != n {
			t.Fatalf("cap %d: Len = %d after Fill", n, s.Len())
		}
		// The word padding must not leak phantom bits.
		count := 0
		s.ForEach(func(int) { count++ })
		if count != n {
			t.Fatalf("cap %d: ForEach visited %d bits", n, count)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(50)
	a.Add(7)
	b := a.Clone()
	b.Add(8)
	if a.Has(8) {
		t.Fatal("mutating clone affected original")
	}
	if !b.Has(7) {
		t.Fatal("clone lost bit 7")
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(200)
	want := []int{3, 64, 65, 150, 199}
	for _, v := range want {
		s.Add(v)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visited %v, want %v (ascending)", got, want)
		}
	}
}

func TestMissing(t *testing.T) {
	s := New(5)
	s.Add(1)
	s.Add(3)
	got := s.Missing()
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Missing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Missing = %v, want %v", got, want)
		}
	}
}

// TestLenMatchesCount is the core bookkeeping invariant: Len always equals
// the number of set bits, through any sequence of operations.
func TestLenMatchesCount(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		const n = 97
		s := New(n)
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op) % n
			switch (op / 97) % 3 {
			case 0:
				s.Add(i)
				ref[i] = true
			case 1:
				s.Remove(i)
				delete(ref, i)
			case 2:
				if s.Has(i) != ref[i] {
					return false
				}
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		count := 0
		s.ForEach(func(int) { count++ })
		return count == len(ref)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAppendMissing(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		s := New(n)
		for i := 0; i < n; i += 3 {
			s.Add(i)
		}
		got := s.AppendMissing(nil)
		var want []int
		for i := 0; i < n; i++ {
			if !s.Has(i) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d missing, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: missing[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		// Reuse: appending into a primed buffer keeps the prefix.
		buf := s.AppendMissing([]int{-1}[:1])
		if len(buf) != len(want)+1 || buf[0] != -1 {
			t.Fatalf("n=%d: AppendMissing ignored the buffer prefix", n)
		}
		// Agreement with the allocating form.
		m := s.Missing()
		if len(m) != len(want) {
			t.Fatalf("n=%d: Missing len %d, want %d", n, len(m), len(want))
		}
	}
}

// TestRankSelect checks Rank and Select against a plain scan over sets that
// are empty, full, sparse and dense, on and off 64-bit word boundaries.
func TestRankSelect(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130, 200} {
		for _, every := range []int{1, 2, 3, 7, 64, 1000} {
			s := New(n)
			var members []int
			for i := 0; i < n; i++ {
				if i%every == every-1 || (every == 1000 && i == n-1) {
					s.Add(i)
					members = append(members, i)
				}
			}
			for i := -1; i <= n+1; i++ {
				want := 0
				for _, m := range members {
					if m < i {
						want++
					}
				}
				if got := s.Rank(i); got != want {
					t.Fatalf("n=%d every=%d: Rank(%d) = %d, want %d", n, every, i, got, want)
				}
			}
			for k, m := range members {
				if got := s.Select(k); got != m {
					t.Fatalf("n=%d every=%d: Select(%d) = %d, want %d", n, every, k, got, m)
				}
			}
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	s := New(70)
	s.Add(3)
	for _, k := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Select(%d) on a one-member set did not panic", k)
				}
			}()
			s.Select(k)
		}()
	}
}
