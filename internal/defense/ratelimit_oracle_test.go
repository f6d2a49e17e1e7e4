package defense

import (
	"math"
	"sync"
	"testing"

	"lotuseater/internal/simrng"
)

// mapRateLimiter is the map-based RateLimiter the generation-stamped table
// replaced, kept verbatim as the table's oracle.
type mapRateLimiter struct {
	perPeerPerRound int

	mu    sync.Mutex
	round int
	used  map[[2]int]int // {from, to} -> units accepted this round
}

func newMapRateLimiter(perPeerPerRound int) *mapRateLimiter {
	return &mapRateLimiter{
		perPeerPerRound: perPeerPerRound,
		used:            make(map[[2]int]int),
	}
}

func (l *mapRateLimiter) Admit(round, from, to, requested int) int {
	if l == nil || l.perPeerPerRound <= 0 || requested <= 0 {
		if requested < 0 {
			return 0
		}
		return requested
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if round < l.round {
		panic("defense: RateLimiter round went backwards")
	}
	if round != l.round {
		l.round = round
		clear(l.used)
	}
	key := [2]int{from, to}
	remaining := l.perPeerPerRound - l.used[key]
	if remaining <= 0 {
		return 0
	}
	granted := requested
	if granted > remaining {
		granted = remaining
	}
	l.used[key] += granted
	return granted
}

func (l *mapRateLimiter) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.round = 0
	clear(l.used)
}

// TestRateLimiterMatchesMapOracle drives the table and the map oracle with
// the same random Admit sequences and requires every grant to match. The
// sequences draw senders from -1 (the external attacker) up, skip rounds,
// Reset mid-run, and pass 4,096 distinct pairs in a round, so the table
// grows several times; one run starts with the generation stamp just
// short of wrapping and must wrap it.
func TestRateLimiterMatchesMapOracle(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cap   int
		nodes int // senders in [-1, nodes), receivers in [0, nodes)
		calls int // Admit calls per round
		gen   uint32
	}{
		{name: "cap1-small", cap: 1, nodes: 12, calls: 200},
		{name: "cap4-wide", cap: 4, nodes: 5000, calls: 20000},
		{name: "cap3-dense", cap: 3, nodes: 80, calls: 8000},
		{name: "cap2-wrap", cap: 2, nodes: 300, calls: 3000, gen: math.MaxUint32 - 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := simrng.New(uint64(tc.cap*7919 + tc.nodes))
			table := NewRateLimiter(tc.cap)
			if tc.gen != 0 {
				table.gen = tc.gen
			}
			oracle := newMapRateLimiter(tc.cap)
			pairs := map[[2]int]bool{}
			maxPairs := 0
			round := 0
			for step := 0; step < 24; step++ {
				switch k := rng.IntN(8); {
				case k == 0:
					table.Reset()
					oracle.Reset()
					round = 0
				case k <= 2:
					round += 1 + rng.IntN(5) // skipped rounds
				default:
					round++
				}
				clear(pairs)
				for c := 0; c < tc.calls; c++ {
					from := rng.IntN(tc.nodes+1) - 1
					to := rng.IntN(tc.nodes)
					req := rng.IntN(tc.cap+3) - 1
					want := oracle.Admit(round, from, to, req)
					if got := table.Admit(round, from, to, req); got != want {
						t.Fatalf("step %d round %d: Admit(%d, %d, %d) = %d, map oracle %d", step, round, from, to, req, got, want)
					}
					if req > 0 {
						pairs[[2]int{from, to}] = true
					}
				}
				maxPairs = max(maxPairs, len(pairs))
			}
			t.Logf("at most %d distinct pairs in a round, table of %d slots", maxPairs, len(table.slots))
			if tc.nodes >= 5000 && maxPairs < 4096 {
				t.Fatalf("the wide case reached only %d distinct pairs in a round, want at least 4096", maxPairs)
			}
			if tc.gen != 0 && table.gen >= tc.gen {
				t.Fatalf("the generation stamp did not wrap: %d", table.gen)
			}
		})
	}
}
