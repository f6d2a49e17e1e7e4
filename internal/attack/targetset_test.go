package attack

import "testing"

// TestTargetSetBasics: membership, iteration order, and capacity agree with
// each other.
func TestTargetSetBasics(t *testing.T) {
	ts := NewTargetSet(10, []int{7, 2, 4, 4, -1, 99})
	if ts.Cap() != 10 || ts.Len() != 3 {
		t.Fatalf("Cap/Len = %d/%d, want 10/3", ts.Cap(), ts.Len())
	}
	if got := ts.Members(); len(got) != 3 || got[0] != 2 || got[1] != 4 || got[2] != 7 {
		t.Fatalf("Members = %v, want ascending [2 4 7]", got)
	}
	for v := -1; v <= 10; v++ {
		want := v == 2 || v == 4 || v == 7
		if ts.Has(v) != want {
			t.Fatalf("Has(%d) = %v, want %v", v, ts.Has(v), want)
		}
	}
}

// TestValidateTargetList: negatives and duplicates always fail; the upper
// bound applies only when the population is known.
func TestValidateTargetList(t *testing.T) {
	if err := ValidateTargetList(10, []int{0, 9, 5}); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	if err := ValidateTargetList(0, []int{1 << 40}); err != nil {
		t.Fatalf("unknown-population upper bound enforced: %v", err)
	}
	for name, tc := range map[string]struct {
		n     int
		nodes []int
	}{
		"negative":     {0, []int{-1}},
		"duplicate":    {0, []int{2, 2}},
		"out-of-range": {10, []int{10}},
	} {
		if err := ValidateTargetList(tc.n, tc.nodes); err == nil {
			t.Fatalf("%s accepted: %v", name, tc.nodes)
		}
	}
	// Strategy.Validate picks up list problems too.
	s := &Strategy{Kind: Ideal, TargetList: []int{3, 3}}
	if err := s.Validate(); err == nil {
		t.Fatal("Strategy.Validate accepted a duplicate target list")
	}
}
