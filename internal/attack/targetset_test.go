package attack

import (
	"testing"

	"lotuseater/internal/simrng"
)

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
	// A fresh set's journal reports everything added.
	if got := ts.Added(); len(got) != 3 {
		t.Fatalf("first-epoch Added = %v", got)
	}
	if len(ts.Removed()) != 0 || ts.Epoch() != 0 {
		t.Fatalf("first-epoch Removed/Epoch = %v/%d", ts.Removed(), ts.Epoch())
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

// TestRotatingJournalAcrossManyEpochs: applying each epoch's Added/Removed
// journal to a running membership set must reproduce the epoch's Members —
// the incremental-consumer contract (scrip's isTgt maintenance) in
// miniature.
func TestRotatingJournalAcrossManyEpochs(t *testing.T) {
	tg := NewRotatingTargeter(200, []int{0, 1}, 0.35, 3, simrng.New(17))
	have := map[int]bool{}
	for round := 0; round < 40; round++ {
		ts := tg.Satiated(round)
		if round%3 == 0 || round == 0 {
			for _, v := range ts.Removed() {
				delete(have, v)
			}
			for _, v := range ts.Added() {
				have[v] = true
			}
		}
		if len(have) != ts.Len() {
			t.Fatalf("round %d: journal-tracked size %d, set size %d", round, len(have), ts.Len())
		}
		for _, v := range ts.Members() {
			if !have[v] {
				t.Fatalf("round %d: member %d missing from journal-tracked set", round, v)
			}
		}
	}
}
