package swarm

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Leechers = 40
	cfg.Pieces = 48
	cfg.Ticks = 300
	return cfg
}

func mustRun(t *testing.T, cfg Config, seed uint64, opts ...Option) Result {
	t.Helper()
	sim, err := New(cfg, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// rankedStrategy is an attacker outside the swarm that satiates the k best
// of the given number of leechers under rule r during ticks [start, stop).
func rankedStrategy(leechers int, r attack.Rank, k, start, stop int) *attack.Strategy {
	return &attack.Strategy{
		Kind:            attack.Ideal,
		SatiateFraction: float64(k) / float64(leechers),
		Rank:            r,
		Start:           start,
		Stop:            stop,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few leechers", func(c *Config) { c.Leechers = 1 }},
		{"zero pieces", func(c *Config) { c.Pieces = 0 }},
		{"zero slots", func(c *Config) { c.UploadSlots = 0 }},
		{"zero rotate", func(c *Config) { c.RotateInterval = 0 }},
		{"tiny peer set", func(c *Config) { c.PeerSetSize = 1 }},
		{"zero ticks", func(c *Config) { c.Ticks = 0 }},
		{"bad selection", func(c *Config) { c.Selection = Selection(9) }},
		{"negative random-first", func(c *Config) { c.RandomFirstCount = -1 }},
		{"endgame threshold", func(c *Config) { c.Endgame = true; c.EndgameThreshold = 0 }},
		{"negative seed depart", func(c *Config) { c.SeedDepartTick = -1 }},
		{"zero uplink", func(c *Config) { c.AttackerUplink = 0 }},
	}
	for _, c := range cases {
		cfg := quickCfg()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrings(t *testing.T) {
	if SelectRandom.String() != "random" || SelectRarestFirst.String() != "rarest-first" {
		t.Fatal("selection names")
	}
	if !strings.Contains(Selection(7).String(), "7") {
		t.Fatal("unknown enum strings")
	}
}

func TestHealthySwarmCompletes(t *testing.T) {
	res := mustRun(t, quickCfg(), 1)
	if res.CompletedFraction != 1 {
		t.Fatalf("healthy swarm completed %.3f", res.CompletedFraction)
	}
	if res.LostPieces != 0 {
		t.Fatalf("healthy swarm lost %d pieces", res.LostPieces)
	}
	if res.MeanCompletionTick <= 0 || res.MeanCompletionTick >= float64(quickCfg().Ticks) {
		t.Fatalf("mean completion tick %.1f", res.MeanCompletionTick)
	}
}

func TestRandomSelectionAlsoCompletes(t *testing.T) {
	cfg := quickCfg()
	cfg.Selection = SelectRandom
	res := mustRun(t, cfg, 1)
	if res.CompletedFraction < 0.95 {
		t.Fatalf("random selection completed %.3f", res.CompletedFraction)
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := quickCfg()
	run := func() Result {
		return mustRun(t, cfg, 42, WithAdversary(rankedStrategy(cfg.Leechers, attack.RankUploaders, 4, 0, 0)))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed differs:\n%+v\n%+v", a, b)
	}
}

// TestTopUploaderAttackIsNetBenefit reproduces the paper's claim: satiating
// leechers (who then seed) does not hurt the torrent and generally helps.
func TestTopUploaderAttackIsNetBenefit(t *testing.T) {
	base := quickCfg()
	var meanBase, meanAtk float64
	const seeds = 3
	for s := uint64(0); s < seeds; s++ {
		meanBase += mustRun(t, base, 10+s).MeanCompletionTick
		adv := rankedStrategy(base.Leechers, attack.RankUploaders, 4, 0, 0)
		meanAtk += mustRun(t, base, 10+s, WithAdversary(adv)).MeanCompletionTick
	}
	if meanAtk > meanBase {
		t.Fatalf("top-uploader attack slowed the swarm: %.1f > %.1f", meanAtk/seeds, meanBase/seeds)
	}
}

func TestSeedDeparture(t *testing.T) {
	cfg := quickCfg()
	cfg.SeedDepartTick = 5 // before much has spread
	cfg.SeedAfterComplete = false
	cfg.Ticks = 200
	res := mustRun(t, cfg, 2)
	// With the seed gone after ~20 uploads, most pieces never entered the
	// swarm: completion must collapse and pieces must be lost.
	if res.CompletedFraction > 0.5 {
		t.Fatalf("swarm completed %.3f without a seed", res.CompletedFraction)
	}
	if res.LostPieces == 0 {
		t.Fatal("no pieces lost despite early seed departure")
	}
}

func TestAttackerUploadAccounting(t *testing.T) {
	cfg := quickCfg()
	cfg.AttackerUplink = 8
	res := mustRun(t, cfg, 3, WithAdversary(rankedStrategy(cfg.Leechers, attack.RankRarest, 2, 0, 0)))
	if res.AttackerUploaded == 0 {
		t.Fatal("attacker uploaded nothing")
	}
	if res.SatiatedByAttacker == 0 {
		t.Fatal("attacker satiated nobody despite dedicated uplink")
	}
}

func TestAttackWindowRespected(t *testing.T) {
	cfg := quickCfg()
	cfg.AttackerUplink = 1000
	// A single tick of attack on every leecher.
	res := mustRun(t, cfg, 4, WithAdversary(rankedStrategy(cfg.Leechers, attack.RankRarest, 40, 10, 11)))
	// One tick at uplink 1000 moves at most 1000 pieces.
	if res.AttackerUploaded > 1000 {
		t.Fatalf("attacker uploaded %d in a 1-tick window", res.AttackerUploaded)
	}
}

func TestEndgameHelpsTail(t *testing.T) {
	withEndgame := quickCfg()
	withoutEndgame := quickCfg()
	withoutEndgame.Endgame = false
	var on, off float64
	const seeds = 3
	for s := uint64(0); s < seeds; s++ {
		on += mustRun(t, withEndgame, 20+s).MeanCompletionTick
		off += mustRun(t, withoutEndgame, 20+s).MeanCompletionTick
	}
	if on > off {
		t.Fatalf("endgame slowed completion: %.1f > %.1f", on/seeds, off/seeds)
	}
}

func TestTickAccessor(t *testing.T) {
	sim, err := New(quickCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Tick() != 0 {
		t.Fatal("initial tick")
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if sim.Tick() != 1 {
		t.Fatal("tick after step")
	}
}

func TestStepPastHorizon(t *testing.T) {
	cfg := quickCfg()
	cfg.Ticks = 1
	sim, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err == nil {
		t.Fatal("stepped past horizon")
	}
}

// TestRunStopsEarlyWhenDone: Run exits once every leecher resolves, not at
// the full horizon, keeping sweeps cheap.
func TestRunStopsEarly(t *testing.T) {
	cfg := quickCfg()
	cfg.Ticks = 10000
	sim, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.Tick() >= 10000 {
		t.Fatal("Run did not stop early after completion")
	}
}

// TestPieceConservation: pieces only appear via the seed, transfers, or the
// attacker; a leecher can never hold more pieces than exist.
func TestPieceBoundsDuringRun(t *testing.T) {
	cfg := quickCfg()
	sim, err := New(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 50; tick++ {
		if err := sim.Step(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < cfg.Leechers; v++ {
			if n := sim.pieceLen(v); n > cfg.Pieces {
				t.Fatalf("node %d holds %d of %d pieces", v, n, cfg.Pieces)
			}
		}
	}
}

// TestUnchokeScoringMatchesBruteForce recomputes every node's interested
// list by brute force at every unchoke recompute and compares it with what
// the scoring pass left in interested/intCnt. The run covers every kind of
// node the scoring pass treats differently: leechers holding none, some and all
// pieces, rejoined nodes, the seed, trade attacker nodes and departed nodes.
// A leecher holding every piece only exists between an instant attacker's
// fill and the tick's completion check, so one is made by hand before each
// recompute.
func TestUnchokeScoringMatchesBruteForce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Leechers = 9000
	cfg.Pieces = 70 // two piece words
	cfg.PeerSetSize = 10
	cfg.RotateInterval = 3
	cfg.Ticks = 30
	cfg.SeedAfterComplete = false
	var events []population.Event
	for _, r := range []int{4, 10, 16} {
		for v := r; v < cfg.Leechers; v += 61 {
			events = append(events, population.Event{Round: r, Node: v})
		}
		for v := r + 30; v < cfg.Leechers; v += 122 {
			events = append(events, population.Event{Round: r + 2, Node: v - 30, Join: true})
		}
	}
	slices.SortStableFunc(events, func(a, b population.Event) int { return a.Round - b.Round })

	brute := func(s *Sim, v int) []int32 {
		if s.nodeState[v] == stateDeparted {
			return nil
		}
		var out []int32
		for k, pp := range s.adj(v) {
			p := int(pp)
			if s.nodeState[p] != stateLeeching {
				continue
			}
			if s.isAttacker[v] && !s.adv.OnExchange(s.tick, v, p) {
				continue
			}
			for piece := 0; piece < s.cfg.Pieces; piece++ {
				if s.hasPiece(v, piece) && !s.hasPiece(p, piece) {
					out = append(out, int32(k))
					break
				}
			}
		}
		if s.nodeState[v] == stateLeeching {
			recv := s.recvCnt[s.adjOff[v]:s.adjOff[v+1]]
			sort.SliceStable(out, func(a, b int) bool { return recv[out[a]] > recv[out[b]] })
		}
		return out
	}

	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.05, SatiateFraction: 0.3, RotatePeriod: 7}
	s, err := New(cfg, 5, WithAdversary(adv), WithChurn(events))
	if err != nil {
		t.Fatal(err)
	}
	rejoined := make([]bool, s.n)
	var empty, some, all, rejoin, seed, attackers, departed int
	for !s.Finished() {
		if s.tick%cfg.RotateInterval == 0 {
			for v := 0; v < cfg.Leechers; v++ {
				if s.nodeState[v] == stateLeeching && s.pieceCnt[v] > 0 {
					for _, p := range s.appendMissing(v, nil) {
						s.gainPiece(v, p)
					}
					break
				}
			}
			// Score as the tick's own recompute would, then put the
			// window's reciprocation counts back so the run goes on
			// unchanged.
			recv := slices.Clone(s.recvCnt)
			s.recomputeUnchokes()
			copy(s.recvCnt, recv)
			for v := 0; v < s.n; v++ {
				base := s.adjOff[v]
				got := slices.Clone(s.interested[base : base+int(s.intCnt[v])])
				want := brute(s, v)
				if s.nodeState[v] == stateSeeding {
					// Slot selection shuffles a seeding node's list in
					// place; scoring leaves it in peer-set order.
					slices.Sort(got)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("tick %d: node %d (state %d, %d pieces) interested %v, want %v",
						s.tick, v, s.nodeState[v], s.pieceCnt[v], got, want)
				}
				switch {
				case s.nodeState[v] == stateDeparted:
					departed++
				case v == s.seedID:
					seed++
				case s.isAttacker[v]:
					attackers++
				case rejoined[v]:
					rejoin++
				}
				if s.nodeState[v] == stateLeeching {
					switch int(s.pieceCnt[v]) {
					case 0:
						empty++
					case cfg.Pieces:
						all++
					default:
						some++
					}
				}
			}
		}
		for _, ev := range events {
			if ev.Join && ev.Round == s.tick && s.nodeState[ev.Node] == stateDeparted {
				rejoined[ev.Node] = true
			}
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range map[string]int{"empty leechers": empty, "partial leechers": some, "full leechers": all,
		"rejoined nodes": rejoin, "seed": seed, "attacker nodes": attackers, "departed nodes": departed} {
		if c == 0 {
			t.Errorf("no %s at any recompute", name)
		}
	}
}

// TestUnchokeTargetsUnderRotationAndChurn pins a trade attacker whose
// target set rotates every 3 ticks in a churning swarm. On some unchoke
// ticks no attacker node has a leecher to probe; recomputeUnchokes still
// resolves the tick's targets, so the departures recorded by then fold into
// the current epoch's set rather than into the next epoch's redrawn one.
// Without that call this run's mean completion tick reads
// 27.814814814814813.
func TestUnchokeTargetsUnderRotationAndChurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Leechers = 30
	cfg.Pieces = 16
	cfg.PeerSetSize = 4
	cfg.Ticks = 100
	events := population.Synthesize(population.Rates{LeaveRate: 0.05, JoinRate: 0.1},
		cfg.Leechers, cfg.Ticks, cfg.Leechers/10, simrng.New(12).Child("churn"))
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.1, SatiateFraction: 0.3, RotatePeriod: 3}
	s, err := New(cfg, 12, WithAdversary(adv), WithChurn(events))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := Result{CompletedFraction: 1, MeanCompletionTick: 27.77777777777778, MedianCompletionTick: 24}
	if res != want {
		t.Fatalf("result %+v, want %+v", res, want)
	}
}
