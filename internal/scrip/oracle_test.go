package scrip

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// oracleCases are the golden cases plus configurations the goldens leave
// out: rotation under churn (a redraw meeting departures), churn from the
// first round, and a campaign window under churn.
func oracleCases() []goldenCase {
	cases := goldenCases()
	churned := func(name string, seed uint64, adv attack.Strategy, churn func(agents, rounds int) []population.Event) {
		c := goldenCase{name: name, cfg: goldenBase(), adv: adv, seed: seed}
		c.cfg.Churn = churn(c.cfg.Agents, c.cfg.Rounds)
		cases = append(cases, c)
	}
	trade := attack.Strategy{Kind: attack.Trade, Fraction: 0.1, SatiateFraction: 0.5}
	rotating := trade
	rotating.RotatePeriod = 40
	windowed := attack.Strategy{Kind: attack.Ideal, Fraction: 0.1, SatiateFraction: 0.5, Start: 300, Stop: 1800}
	heavy := func(agents, rounds int) []population.Event {
		return population.Synthesize(population.Rates{LeaveRate: 0.02, JoinRate: 0.1}, agents, rounds, 2, simrng.New(5))
	}
	churned("trade-rotate-churn", 31, rotating, goldenChurn)
	churned("trade-rotate-heavy-churn", 32, rotating, heavy)
	churned("trade-heavy-churn", 33, trade, heavy)
	churned("ideal-window-churn", 34, windowed, heavy)
	return cases
}

// TestRoundMatchesOracle steps the candidate-set round beside the old
// scanning round, over every oracle case at its own seed and at four more,
// and requires the same balances, pool and Result after every round.
//
// The old round took its target flags from the strategy's change journal,
// which is relative to the targeter's previous set: it misses a redraw's
// changes when a departure is folded in, and every member when a departure
// precedes the first round's targeting. Once the old flags have disagreed
// with the new ones (which TestTargetFlagsFollowMembers checks against the
// set's members), the two runs may differ in NonTargetAvailability, which
// counts requests by flag, and nowhere else.
func TestRoundMatchesOracle(t *testing.T) {
	seeds := simrng.New(2024)
	misflagged := 0
	for _, c := range oracleCases() {
		for rep := 0; rep < 5; rep++ {
			seed := c.seed
			if rep > 0 {
				seed = seeds.Uint64()
			}
			got := c.build(t, seed)
			adv, def := c.hooks()
			want, err := newOracle(c.cfg, seed, adv, def)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, m := range c.mints {
				if err := want.Mint(m[0], m[1]); err != nil {
					t.Fatal(err)
				}
			}
			flagsDiffer := false
			for r := 0; r < c.cfg.Rounds; r++ {
				if err := got.Step(); err != nil {
					t.Fatalf("%s seed %d round %d: %v", c.name, seed, r, err)
				}
				if err := want.Step(); err != nil {
					t.Fatalf("%s seed %d round %d: oracle: %v", c.name, seed, r, err)
				}
				if !flagsDiffer && !slices.Equal(got.isTgt, want.isTgt) {
					flagsDiffer = true
					misflagged++
				}
				g, w := got.finish(), want.finish()
				if flagsDiffer {
					g.NonTargetAvailability, w.NonTargetAvailability = 0, 0
				}
				if got.pool != want.pool || !slices.Equal(got.balance, want.balance) || g != w {
					t.Fatalf("%s seed %d round %d: diverged from the oracle\n got pool %d %+v\nwant pool %d %+v",
						c.name, seed, r, got.pool, g, want.pool, w)
				}
			}
		}
	}
	t.Logf("%d runs saw the old journal-derived target flags go wrong", misflagged)
}

// TestTargetFlagsFollowMembers: after every round, an agent is flagged as a
// target exactly when it is a non-attacker member of the set the adversary
// returned, and the present targets and short targets are exactly the
// flagged agents that are present, and present and below threshold.
func TestTargetFlagsFollowMembers(t *testing.T) {
	for _, c := range oracleCases() {
		if c.adv.Kind == 0 {
			continue
		}
		s := c.build(t, c.seed)
		for r := 0; r < c.cfg.Rounds; r++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			set := s.lastTargets
			for v := 0; v < c.cfg.Agents; v++ {
				want := set != nil && set.Has(v) && s.kinds[v] != AttackerAgent
				if s.isTgt[v] != want {
					t.Fatalf("%s round %d: agent %d flagged %v, member %v", c.name, r, v, s.isTgt[v], want)
				}
				present := want && !s.gone(v)
				short := present && s.balance[v] < s.thresholdOf(v)
				if s.targets.Has(v) != present || s.short.Has(v) != short {
					t.Fatalf("%s round %d: agent %d present target %v short %v, want %v %v",
						c.name, r, v, s.targets.Has(v), s.short.Has(v), present, short)
				}
			}
		}
	}
}

// oracleSim is the scrip economy as it stood before its round kept
// candidate sets: Step scans every agent for volunteers and adversaryStep
// walks every target. The code is that version verbatim, renamed
// and with the options replaced by arguments; TestRoundMatchesOracle steps
// it beside Sim.
type oracleSim struct {
	cfg     Config
	rng     *simrng.Source
	kinds   []Kind
	balance []int
	utility []float64
	pool    int // attacker's scrip pool
	isTgt   []bool

	// Lifecycle state; both stay nil in a static (no-churn) economy so
	// that code path is byte-identical to a build without the model.
	// presentHonest counts present non-attacker agents, maintained so a
	// churned-empty round can idle instead of spinning in pickRequester.
	churn         population.Cursor
	departed      []bool
	presentHonest int

	// Strategy hooks (WithAdversary / WithDefense). The adversary places its
	// agents, names the balances to keep topped up each round, and its kind
	// decides the financing: trade attackers spend in-system earnings, ideal
	// attackers mint exogenous wealth, crash attackers merely withhold
	// service. The defense caps how much attacker scrip a target accepts per
	// round.
	adv        sim.Adversary
	def        sim.Defense
	advTrades  bool
	advInstant bool
	advRounds  int
	// lastTargets is the target set whose membership is currently reflected
	// in isTgt; adversaryStep applies the journal of a new epoch's set.
	lastTargets *attack.TargetSet

	round             int
	res               Result
	satSum            float64
	nonTargetServed   int
	nonTargetRequests int

	// volunteers and alts are Step's per-round candidate lists, kept so
	// steady-state rounds reuse their storage instead of regrowing it.
	volunteers, alts []int
}

func newOracle(cfg Config, seed uint64, adv sim.Adversary, def sim.Defense) (*oracleSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &oracleSim{
		cfg:     cfg,
		rng:     simrng.New(seed),
		kinds:   make([]Kind, cfg.Agents),
		balance: make([]int, cfg.Agents),
		utility: make([]float64, cfg.Agents),
		isTgt:   make([]bool, cfg.Agents),
	}
	s.adv, s.def = adv, def
	for i := range s.kinds {
		s.kinds[i] = Rational
		s.balance[i] = s.endowment(i)
	}
	nAlt := int(cfg.AltruistFraction*float64(cfg.Agents) + 0.5)
	perm := s.rng.Child("kinds").Perm(cfg.Agents)
	if cfg.NodeAltruist != nil {
		// Per-class altruism: each agent's kind is an independent draw
		// from its own probability, on a dedicated child stream so the
		// homogeneous perm path above it stays untouched.
		kindRNG := s.rng.Child("class-kinds")
		for i := range s.kinds {
			if kindRNG.Bool(cfg.NodeAltruist[i]) {
				s.kinds[i] = Altruist
			}
		}
	} else {
		for i := 0; i < nAlt && i < len(perm); i++ {
			s.kinds[perm[i]] = Altruist
		}
	}
	for i := 0; i < cfg.AltruistProviders; i++ {
		s.kinds[i] = Altruist
	}
	if s.adv != nil {
		s.advTrades = sim.TradesInProtocol(s.adv)
		s.advInstant = sim.SatiatesInstantly(s.adv)
		s.pool = cfg.AttackBudget
		for _, a := range s.adv.Place(cfg.Agents, s.rng.Child("adversary")) {
			if a < 0 || a >= cfg.Agents {
				return nil, fmt.Errorf("scrip: adversary placed agent %d outside [0,%d)", a, cfg.Agents)
			}
			s.kinds[a] = AttackerAgent
		}
	}
	if len(cfg.Churn) > 0 {
		s.churn = population.NewCursor(cfg.Churn)
		s.departed = make([]bool, cfg.Agents)
		for _, k := range s.kinds {
			if k != AttackerAgent {
				s.presentHonest++
			}
		}
	}
	return s, nil
}

func (s *oracleSim) Mint(i, amount int) error {
	if i < 0 || i >= s.cfg.Agents {
		return fmt.Errorf("scrip: agent %d out of range", i)
	}
	if amount < 0 {
		return fmt.Errorf("scrip: negative mint %d", amount)
	}
	s.balance[i] += amount
	return nil
}

func (s *oracleSim) MoneySupply() int {
	total := s.pool
	for _, b := range s.balance {
		total += b
	}
	return total
}

func (s *oracleSim) Step() error {
	if s.round >= s.cfg.Rounds {
		return errors.New("scrip: horizon exhausted")
	}
	rng := s.rng.ChildN("round", s.round)

	// 0. Lifecycle: departures and arrivals due this round take effect
	// before any request, so the adversary learns of a departure before
	// it would top the leaver up.
	for ev, ok := s.churn.Next(s.round); ok; ev, ok = s.churn.Next(s.round) {
		if s.kinds[ev.Node] == AttackerAgent {
			continue // adversary infrastructure does not churn
		}
		if ev.Join {
			s.joinAgent(ev.Node)
		} else {
			s.leaveAgent(ev.Node)
		}
	}

	// 1. The adversary tops its targets up to the threshold.
	if s.adv != nil {
		s.adversaryStep()
	}

	// 2. A uniformly random present non-attacker agent requests service.
	// With probability SpecialRequestFraction the request is a specialty
	// one that only special providers can serve. If churn has emptied the
	// honest population the round idles (arrivals may still be due).
	if s.departed != nil && s.presentHonest == 0 {
		s.round++
		return nil
	}
	requester := s.pickRequester(rng)
	s.res.Requests++
	targeted := s.isTgt[requester]
	special := s.cfg.SpecialRequestFraction > 0 && rng.Bool(s.cfg.SpecialRequestFraction)
	if special {
		s.res.SpecialRequests++
	}

	// 3. Volunteers: altruists always; rational agents while below
	// threshold; attacker agents always (they want earnings). Specialty
	// requests admit only special providers playing their usual strategy.
	volunteers := s.volunteers[:0]
	for i, k := range s.kinds {
		if i == requester || s.gone(i) {
			continue
		}
		if special && i >= s.cfg.SpecialProviders {
			continue
		}
		switch k {
		case Altruist:
			volunteers = append(volunteers, i)
		case AttackerAgent:
			// Trade attackers volunteer to earn scrip for the attack pool;
			// crash attackers withhold service and ideal attackers stay out
			// of protocol entirely.
			if s.advTrades {
				volunteers = append(volunteers, i)
			}
		case Rational:
			if s.balance[i] < s.thresholdOf(i) {
				volunteers = append(volunteers, i)
			}
		}
	}
	s.volunteers = volunteers
	if len(volunteers) == 0 {
		s.res.FailedNoProvider++
		s.round++
		return nil
	}
	provider := volunteers[rng.IntN(len(volunteers))]
	free := s.kinds[provider] == Altruist
	if !free && s.balance[requester] < 1 {
		// The requester cannot pay; only a free (altruistic) provider can
		// help. Retry among altruists.
		alts := s.alts[:0]
		for _, v := range volunteers {
			if s.kinds[v] == Altruist {
				alts = append(alts, v)
			}
		}
		s.alts = alts
		if len(alts) == 0 {
			s.res.FailedNoMoney++
			s.round++
			return nil
		}
		provider = alts[rng.IntN(len(alts))]
		free = true
	}

	// 4. Serve and settle.
	s.res.Served++
	if special {
		s.res.SpecialServed++
	}
	if free {
		s.res.ServedFree++
	} else {
		s.balance[requester]--
		s.balance[provider]++
		if s.kinds[provider] == AttackerAgent {
			s.res.AttackerEarned++
		}
	}
	s.utility[requester] += 1
	s.utility[provider] -= s.cfg.Cost
	if !targeted {
		s.nonTargetServed++
	}
	s.round++
	return nil
}

func (s *oracleSim) adversaryStep() {
	targets := s.adv.Targets(s.round)
	// Maintain the per-agent target flags incrementally from the set's
	// change journal: O(|changed|) on an epoch flip, O(1) on the (vastly
	// more common) rounds where the set pointer is unchanged. The journal
	// includes the first epoch (everything "added"), so this also covers
	// round 0.
	if targets != s.lastTargets {
		for _, t := range targets.Removed() {
			if t < s.cfg.Agents {
				s.isTgt[t] = false
			}
		}
		for _, t := range targets.Added() {
			if t < s.cfg.Agents && s.kinds[t] != AttackerAgent {
				s.isTgt[t] = true
			}
		}
		s.lastTargets = targets
	}
	if s.advTrades {
		for i, k := range s.kinds {
			if k == AttackerAgent && s.balance[i] > 0 {
				s.pool += s.balance[i]
				s.balance[i] = 0
			}
		}
	}
	live, sat := 0, 0
	for _, t := range targets.Members() {
		if t >= s.cfg.Agents || s.kinds[t] == AttackerAgent || s.gone(t) {
			continue
		}
		live++
		need := s.thresholdOf(t) - s.balance[t]
		if need > 0 && (s.advTrades || s.advInstant) {
			grant := need
			if s.def != nil {
				grant = s.def.Admit(s.round, -1, t, need)
			}
			if s.advTrades {
				if s.pool < need {
					s.res.AttackerShortfall++
				}
				if grant > s.pool {
					grant = s.pool
				}
				s.pool -= grant
			}
			s.balance[t] += grant
			s.res.AttackerSpent += grant
		}
		if s.balance[t] >= s.thresholdOf(t) {
			sat++
		}
	}
	if live > 0 {
		s.satSum += float64(sat) / float64(live)
		s.advRounds++
	}
}

func (s *oracleSim) pickRequester(rng *simrng.Source) int {
	for {
		i := rng.IntN(s.cfg.Agents)
		if s.kinds[i] != AttackerAgent && !s.gone(i) {
			if !s.isTgt[i] {
				s.nonTargetRequests++
			}
			return i
		}
	}
}

func (s *oracleSim) gone(v int) bool { return s.departed != nil && s.departed[v] }

func (s *oracleSim) thresholdOf(v int) int {
	if s.cfg.NodeThreshold != nil {
		return s.cfg.NodeThreshold[v]
	}
	return s.cfg.Threshold
}

func (s *oracleSim) endowment(v int) int {
	if s.cfg.NodeBalance != nil {
		return s.cfg.NodeBalance[v]
	}
	return s.cfg.MoneyPerCapita
}

func (s *oracleSim) leaveAgent(v int) {
	if s.gone(v) {
		return
	}
	s.departed[v] = true
	s.balance[v] = 0
	s.presentHonest--
	if s.adv != nil {
		sim.NotifyDeparture(s.adv, s.round, v)
	}
}

func (s *oracleSim) joinAgent(v int) {
	if !s.gone(v) {
		return
	}
	s.departed[v] = false
	s.balance[v] = s.endowment(v)
	s.presentHonest++
}

func (s *oracleSim) finish() Result {
	res := s.res
	if res.Requests > 0 {
		res.Availability = float64(res.Served) / float64(res.Requests)
	}
	if s.nonTargetRequests > 0 {
		res.NonTargetAvailability = float64(s.nonTargetServed) / float64(s.nonTargetRequests)
	}
	if res.SpecialRequests > 0 {
		res.SpecialAvailability = float64(res.SpecialServed) / float64(res.SpecialRequests)
	}
	if s.advRounds > 0 {
		res.SatiatedTargetFraction = s.satSum / float64(s.advRounds)
	}
	var util float64
	people := 0
	for i, k := range s.kinds {
		if k == AttackerAgent {
			continue
		}
		util += s.utility[i]
		people++
	}
	if people > 0 {
		res.MeanUtility = util / float64(people)
	}
	res.FinalMoneySupply = s.MoneySupply()
	return res
}
