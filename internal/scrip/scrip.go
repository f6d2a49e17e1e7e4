// Package scrip implements a scrip (system-issued currency) economy in the
// style of Kash, Friedman & Halpern, "Optimizing scrip systems" (EC 2007) —
// reference [14] of the paper — as a substrate for lotus-eater attacks on
// indirect-reciprocity systems.
//
// Agents earn one unit of scrip by providing service and pay one unit to
// receive it. Rational agents play a threshold strategy: volunteer to
// provide service only while holding less than Threshold units. That makes
// the system satiation-compatible in the paper's sense — an agent whose
// balance is pushed to the threshold stops providing — and therefore
// attackable: "if an attacker can ensure that an agent has a large amount
// of money ... the agent will stop providing service."
//
// The attack is bounded by the money supply: scrip is conserved, so keeping
// a fraction f of agents above threshold costs the attacker roughly
// f·n·(Threshold − average balance) up front plus the targets' spending
// rate forever after. Section 4 of the paper: "it is easy for an attacker
// to accumulate enough money to satiate a few nodes, [but] there may not
// even be enough money in the system to satiate a significant fraction."
package scrip

import (
	"errors"
	"fmt"

	"lotuseater/internal/attack"
	"lotuseater/internal/bitset"
	"lotuseater/internal/defense"
	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

// Kind is an agent's behavioral type.
type Kind int

const (
	// Rational agents play the threshold strategy.
	Rational Kind = iota + 1
	// Altruist agents always volunteer and serve without payment —
	// the destabilizing population of [14].
	Altruist
	// AttackerAgent agents are placed by the adversary and never request
	// service; trade attackers volunteer to earn scrip and funnel their
	// earnings into the attack pool.
	AttackerAgent
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Rational:
		return "rational"
	case Altruist:
		return "altruist"
	case AttackerAgent:
		return "attacker"
	default:
		return fmt.Sprintf("scrip.Kind(%d)", int(k))
	}
}

// Config parameterizes the economy.
type Config struct {
	// Agents is the population size.
	Agents int
	// Threshold is the rational strategy's satiation point: volunteer only
	// while balance < Threshold.
	Threshold int
	// MoneyPerCapita is the initial (and, absent attacker subsidy, eternal)
	// average balance.
	MoneyPerCapita int
	// Rounds is the number of service requests simulated (one per round).
	Rounds int
	// AltruistFraction of agents are altruists.
	AltruistFraction float64
	// Cost is the provider's utility cost of serving (0 < Cost < 1 makes
	// trade socially valuable against a benefit of 1).
	Cost float64
	// SpecialProviders designates agents 0..SpecialProviders-1 as the only
	// ones able to serve "specialty" requests — the paper's "users who
	// control important or rare resources". Zero disables specialties.
	SpecialProviders int
	// SpecialRequestFraction is the probability a request is a specialty
	// request, serviceable only by a special provider.
	SpecialRequestFraction float64
	// AltruistProviders forces agents 0..AltruistProviders-1 (a subset of
	// the special providers) to be altruists, so experiments on the
	// "encouraging altruism" defense are deterministic rather than subject
	// to the binomial luck of random kind assignment.
	AltruistProviders int
	// Churn is an optional round-sorted lifecycle schedule. A departed
	// agent neither requests nor volunteers, and its wallet leaves the
	// system with it; a (re)arrival on the same slot is a fresh agent of
	// the slot's kind carrying the initial endowment. Events naming
	// attacker-controlled slots are ignored — adversary infrastructure
	// does not churn. Nil means the static fixed-universe economy.
	Churn []population.Event
	// NodeThreshold optionally overrides Threshold per agent (population
	// classes map "patience" here: patient agents satiate later). Nil
	// means the scalar Threshold everywhere; otherwise length Agents.
	NodeThreshold []int
	// NodeBalance optionally overrides MoneyPerCapita per agent
	// ("capacity": the endowment an agent arrives with). Nil means the
	// scalar MoneyPerCapita everywhere; otherwise length Agents.
	NodeBalance []int
	// NodeAltruist optionally replaces AltruistFraction with a per-agent
	// altruist probability ("altruism" classes). When non-nil (length
	// Agents) each agent's kind is drawn independently from its own
	// probability instead of permuting a global altruist count.
	NodeAltruist []float64
	// AttackBudget is exogenous scrip the adversary (WithAdversary) starts
	// its pool with, on top of what its agents earn. It joins the money
	// supply, which the Result tracks.
	AttackBudget int
}

// DefaultConfig returns a small healthy economy.
func DefaultConfig() Config {
	return Config{
		Agents:         200,
		Threshold:      5,
		MoneyPerCapita: 2,
		Rounds:         20000,
		Cost:           0.1,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Agents < 2:
		return fmt.Errorf("scrip: need at least 2 agents, got %d", c.Agents)
	case c.Threshold < 1:
		return fmt.Errorf("scrip: Threshold must be positive, got %d", c.Threshold)
	case c.MoneyPerCapita < 0:
		return fmt.Errorf("scrip: MoneyPerCapita must be non-negative, got %d", c.MoneyPerCapita)
	case c.Rounds < 1:
		return fmt.Errorf("scrip: Rounds must be positive, got %d", c.Rounds)
	case c.AltruistFraction < 0 || c.AltruistFraction > 1:
		return fmt.Errorf("scrip: AltruistFraction must be in [0,1], got %g", c.AltruistFraction)
	case c.Cost < 0 || c.Cost >= 1:
		return fmt.Errorf("scrip: Cost must be in [0,1), got %g", c.Cost)
	case c.SpecialProviders < 0 || c.SpecialProviders > c.Agents:
		return fmt.Errorf("scrip: SpecialProviders must be in [0,%d], got %d", c.Agents, c.SpecialProviders)
	case c.SpecialRequestFraction < 0 || c.SpecialRequestFraction > 1:
		return fmt.Errorf("scrip: SpecialRequestFraction must be in [0,1], got %g", c.SpecialRequestFraction)
	case c.SpecialRequestFraction > 0 && c.SpecialProviders == 0:
		return fmt.Errorf("scrip: SpecialRequestFraction > 0 needs SpecialProviders > 0")
	case c.AltruistProviders < 0 || c.AltruistProviders > c.SpecialProviders:
		return fmt.Errorf("scrip: AltruistProviders must be in [0,%d], got %d", c.SpecialProviders, c.AltruistProviders)
	case c.AttackBudget < 0:
		return fmt.Errorf("scrip: AttackBudget must be non-negative, got %d", c.AttackBudget)
	case c.NodeThreshold != nil && len(c.NodeThreshold) != c.Agents:
		return fmt.Errorf("scrip: NodeThreshold has %d entries for %d agents", len(c.NodeThreshold), c.Agents)
	case c.NodeBalance != nil && len(c.NodeBalance) != c.Agents:
		return fmt.Errorf("scrip: NodeBalance has %d entries for %d agents", len(c.NodeBalance), c.Agents)
	case c.NodeAltruist != nil && len(c.NodeAltruist) != c.Agents:
		return fmt.Errorf("scrip: NodeAltruist has %d entries for %d agents", len(c.NodeAltruist), c.Agents)
	}
	for i, t := range c.NodeThreshold {
		if t < 1 {
			return fmt.Errorf("scrip: NodeThreshold[%d] must be positive, got %d", i, t)
		}
	}
	for i, b := range c.NodeBalance {
		if b < 0 {
			return fmt.Errorf("scrip: NodeBalance[%d] must be non-negative, got %d", i, b)
		}
	}
	for i, p := range c.NodeAltruist {
		if p < 0 || p > 1 {
			return fmt.Errorf("scrip: NodeAltruist[%d] must be in [0,1], got %g", i, p)
		}
	}
	if err := population.ValidateSchedule(c.Churn, c.Agents); err != nil {
		return fmt.Errorf("scrip: %w", err)
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// Requests is the number of rounds simulated.
	Requests int
	// Served counts requests that found a provider.
	Served int
	// ServedFree counts requests served by altruists (no payment).
	ServedFree int
	// FailedNoProvider counts requests with no willing provider.
	FailedNoProvider int
	// FailedNoMoney counts requests the requester could not pay for (and no
	// altruist was available).
	FailedNoMoney int
	// Availability is Served / Requests.
	Availability float64
	// NonTargetAvailability restricts availability to requests issued by
	// non-targeted agents — the population the attack harms.
	NonTargetAvailability float64
	// AttackerSpent is the scrip the attacker transferred to targets.
	AttackerSpent int
	// AttackerEarned is the scrip attacker agents earned by providing.
	AttackerEarned int
	// AttackerShortfall counts rounds where the attacker wanted to top up a
	// target but had no scrip left — the money-supply bound biting.
	AttackerShortfall int
	// SatiatedTargetFraction is the time-average fraction of targets held
	// at or above threshold.
	SatiatedTargetFraction float64
	// MeanUtility is the population's average accumulated utility
	// (benefit 1 per service received, minus Cost per service provided),
	// attacker agents excluded.
	MeanUtility float64
	// FinalMoneySupply is the closing total balance across agents plus the
	// attacker pool. Scrip is conserved, so it equals the opening supply
	// (AttackBudget included) plus whatever an ideal attacker minted, which
	// is exactly its AttackerSpent.
	FinalMoneySupply int
	// SpecialRequests counts specialty requests issued.
	SpecialRequests int
	// SpecialServed counts specialty requests that found a special
	// provider willing to serve.
	SpecialServed int
	// SpecialAvailability is SpecialServed / SpecialRequests.
	SpecialAvailability float64
}

// Sim is one scrip economy. Create with New (WithAdversary installs the
// attack), then Run.
type Sim struct {
	cfg Config
	rng *simrng.Source
	// roundRNG is the stream each round reseeds in place to
	// rng.ChildN("round", round), so a round allocates no generator.
	roundRNG *simrng.Source
	kinds    []Kind
	balance  []int
	utility  []float64
	pool     int // attacker's scrip pool
	isTgt    []bool
	// attackers lists the placed attacker agents in ascending order.
	attackers []int

	// The round's candidate sets: the agents that would volunteer (present
	// altruists, present rational agents below their threshold, and trade
	// attackers), the present altruists, the present targets, and the
	// present targets below their threshold. refresh keeps an agent's four
	// bits current whenever its balance, presence or target flag changes,
	// so a round costs what changed in it rather than a scan of the agents.
	volunteers, altruists, targets, short *bitset.Set

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
	adv        *attack.Strategy
	def        *defense.RateLimiter
	advTrades  bool
	advInstant bool
	advRounds  int
	// lastTargets is the target set whose membership is currently reflected
	// in isTgt; adversaryStep moves the flags to a new epoch's set.
	lastTargets *attack.TargetSet

	round             int
	res               Result
	satSum            float64
	nonTargetServed   int
	nonTargetRequests int
}

// Option customizes a Sim.
type Option func(*Sim)

// WithAdversary installs the adversary; see Sim for how its hooks map onto
// the scrip economy. Without it the economy runs unattacked.
func WithAdversary(a *attack.Strategy) Option {
	return func(s *Sim) { s.adv = a }
}

// WithDefense installs a receiver-side defense: a target accepts at most
// Admit(...) units of attacker top-up per round, throttling how fast the
// adversary can push balances to the threshold.
func WithDefense(d *defense.RateLimiter) Option {
	return func(s *Sim) { s.def = d }
}

// New builds a Sim, deterministic in (cfg, seed). Altruists are assigned
// pseudorandomly according to the configured fraction; an installed
// adversary's Place hook picks the attacker-controlled agents. An economy
// the adversary leaves without a non-attacker agent has nobody to request
// service, and is an error.
func New(cfg Config, seed uint64, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:        cfg,
		rng:        simrng.New(seed),
		kinds:      make([]Kind, cfg.Agents),
		balance:    make([]int, cfg.Agents),
		utility:    make([]float64, cfg.Agents),
		isTgt:      make([]bool, cfg.Agents),
		volunteers: bitset.New(cfg.Agents),
		altruists:  bitset.New(cfg.Agents),
		targets:    bitset.New(cfg.Agents),
		short:      bitset.New(cfg.Agents),
	}
	for _, opt := range opts {
		opt(s)
	}
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
		s.advTrades = s.adv.TradesInProtocol()
		s.advInstant = s.adv.SatiatesInstantly()
		s.pool = cfg.AttackBudget
		for _, a := range s.adv.Place(cfg.Agents, s.rng.Child("adversary")) {
			s.kinds[a] = AttackerAgent
		}
	}
	honest := 0
	for i, k := range s.kinds {
		if k == AttackerAgent {
			s.attackers = append(s.attackers, i)
		} else {
			honest++
		}
	}
	if honest == 0 {
		return nil, fmt.Errorf("scrip: the adversary holds all %d agents, so nobody requests service", cfg.Agents)
	}
	if len(cfg.Churn) > 0 {
		s.churn = population.NewCursor(cfg.Churn)
		s.departed = make([]bool, cfg.Agents)
		s.presentHonest = honest
	}
	for i := range s.kinds {
		s.refresh(i)
	}
	return s, nil
}

// Kind returns agent i's behavioral type.
func (s *Sim) Kind(i int) Kind { return s.kinds[i] }

// Mint adds amount scrip to agent i's balance out of thin air — the
// attacker's exogenous wealth delivered as an unconditional gift, as
// opposed to the adversary's threshold top-ups. Minting inflates the money
// supply permanently; MoneySupply and Result.FinalMoneySupply reflect it.
func (s *Sim) Mint(i, amount int) error {
	if i < 0 || i >= s.cfg.Agents {
		return fmt.Errorf("scrip: agent %d out of range", i)
	}
	if amount < 0 {
		return fmt.Errorf("scrip: negative mint %d", amount)
	}
	s.balance[i] += amount
	s.refresh(i)
	return nil
}

// Balance returns agent i's scrip balance.
func (s *Sim) Balance(i int) int { return s.balance[i] }

// MoneySupply returns the current total scrip including the attack pool.
func (s *Sim) MoneySupply() int {
	total := s.pool
	for _, b := range s.balance {
		total += b
	}
	return total
}

// Run simulates all rounds and returns the result.
func (s *Sim) Run() (Result, error) {
	for s.round < s.cfg.Rounds {
		if err := s.Step(); err != nil {
			return Result{}, err
		}
	}
	return s.finish(), nil
}

// Round returns the next round to simulate.
func (s *Sim) Round() int { return s.round }

// Finished reports whether the horizon has been reached.
func (s *Sim) Finished() bool { return s.round >= s.cfg.Rounds }

// Snapshot returns the Result summarizing the run so far.
func (s *Sim) Snapshot() (any, error) { return s.finish(), nil }

// Step simulates one request round: attacker top-ups, a random requester,
// volunteer selection, payment.
//
//lotus:allocfree
func (s *Sim) Step() error {
	if s.round >= s.cfg.Rounds {
		return errors.New("scrip: horizon exhausted")
	}
	s.roundRNG = s.rng.ChildNInto(s.roundRNG, "round", s.round)
	rng := s.roundRNG

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
	limit := s.cfg.Agents
	if special {
		s.res.SpecialRequests++
		limit = s.cfg.SpecialProviders
	}

	// 3. A provider drawn uniformly from the volunteers: altruists always;
	// rational agents while below threshold; trade attackers always (they
	// want earnings; crash attackers withhold service and ideal attackers
	// stay out of protocol entirely). Specialty requests admit only special
	// providers playing their usual strategy.
	provider, ok := pick(s.volunteers, limit, requester, rng)
	if !ok {
		s.res.FailedNoProvider++
		s.round++
		return nil
	}
	free := s.kinds[provider] == Altruist
	if !free && s.balance[requester] < 1 {
		// The requester cannot pay; only a free (altruistic) provider can
		// help. Retry among altruists.
		if provider, ok = pick(s.altruists, limit, requester, rng); !ok {
			s.res.FailedNoMoney++
			s.round++
			return nil
		}
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
		s.refresh(requester)
		s.refresh(provider)
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

// pick draws a member of set below limit other than skip, uniformly: the
// k-th such member in ascending order for k = rng.IntN(count). It reports
// false, drawing nothing, when there is no such member.
//
//lotus:allocfree
func pick(set *bitset.Set, limit, skip int, rng *simrng.Source) (int, bool) {
	count := set.Rank(limit)
	skipped := skip < limit && set.Has(skip)
	if skipped {
		count--
	}
	if count == 0 {
		return 0, false
	}
	k := rng.IntN(count)
	if skipped && k >= set.Rank(skip) {
		k++
	}
	return set.Select(k), true
}

// adversaryStep is the strategy adversary's round: trade attackers sweep
// in-system earnings into the pool, then (trade and ideal only) targets are
// topped up to the threshold — trade from the finite pool, ideal from
// exogenous minted wealth. The defense's Admit hook caps each target's
// per-round acceptance, so a rate limit stretches the satiation ramp even
// against the ideal attacker.
//
//lotus:allocfree
func (s *Sim) adversaryStep() {
	targets := s.adv.Targets(s.round)
	// The per-agent target flags change only when the set pointer does: at
	// an epoch flip, O(|old set| + |new set|), and not at all on the (vastly
	// more common) rounds in between.
	if targets != s.lastTargets {
		if s.lastTargets != nil {
			for _, t := range s.lastTargets.Members() {
				if !targets.Has(t) {
					s.setTarget(t, false)
				}
			}
		}
		for _, t := range targets.Members() {
			s.setTarget(t, true)
		}
		s.lastTargets = targets
	}
	if s.advTrades {
		// An attacker's balance decides none of its candidate bits, so the
		// sweep needs no refresh.
		for _, a := range s.attackers {
			s.pool += s.balance[a]
			s.balance[a] = 0
		}
	}
	switch {
	case !s.advTrades && !s.advInstant:
		// Crash attackers top nobody up.
	case s.advTrades && s.pool == 0 && s.def == nil:
		// A broke trader grants nothing: every short target is a shortfall.
		s.res.AttackerShortfall += s.short.Len()
	default:
		// Top-ups change only the visited target's bits, so the ascending
		// walk sees each target that was short at its start exactly once.
		s.short.ForEach(s.topUp)
	}
	if live := s.targets.Len(); live > 0 {
		s.satSum += float64(live-s.short.Len()) / float64(live)
		s.advRounds++
	}
}

// topUp grants short target t what the defense admits of its need, from the
// pool for a trade attacker (counting a shortfall when the pool cannot
// cover the need) or minted for an ideal one.
//
//lotus:allocfree
func (s *Sim) topUp(t int) {
	need := s.thresholdOf(t) - s.balance[t]
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
	s.refresh(t)
}

// setTarget records whether agent v is targeted; attacker agents and ids
// outside the economy never are.
//
//lotus:allocfree
func (s *Sim) setTarget(v int, on bool) {
	if v >= s.cfg.Agents {
		return
	}
	on = on && s.kinds[v] != AttackerAgent
	if s.isTgt[v] != on {
		s.isTgt[v] = on
		s.refresh(v)
	}
}

// refresh recomputes agent v's bits in the four candidate sets from its
// kind, presence, balance and target flag.
//
//lotus:allocfree
func (s *Sim) refresh(v int) {
	present := !s.gone(v)
	below := s.balance[v] < s.thresholdOf(v)
	k := s.kinds[v]
	put(s.volunteers, v, present && (k == Altruist || (k == Rational && below) || (k == AttackerAgent && s.advTrades)))
	put(s.altruists, v, present && k == Altruist)
	target := present && s.isTgt[v]
	put(s.targets, v, target)
	put(s.short, v, target && below)
}

// put sets or clears bit v of set.
//
//lotus:allocfree
func put(set *bitset.Set, v int, on bool) {
	if on {
		set.Add(v)
	} else {
		set.Remove(v)
	}
}

func (s *Sim) pickRequester(rng *simrng.Source) int {
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

// gone reports whether agent v is currently departed. Always false in a
// static economy, where departed stays nil.
func (s *Sim) gone(v int) bool { return s.departed != nil && s.departed[v] }

// thresholdOf returns agent v's satiation threshold: the per-class
// override when one is installed, the scalar config otherwise.
func (s *Sim) thresholdOf(v int) int {
	if s.cfg.NodeThreshold != nil {
		return s.cfg.NodeThreshold[v]
	}
	return s.cfg.Threshold
}

// endowment returns the scrip agent v starts (or re-arrives) with.
func (s *Sim) endowment(v int) int {
	if s.cfg.NodeBalance != nil {
		return s.cfg.NodeBalance[v]
	}
	return s.cfg.MoneyPerCapita
}

// leaveAgent removes agent v: its wallet leaves the system with it and
// the adversary is told, so a satiated slot that later re-arrives is
// treated as the fresh agent it is rather than a standing target.
func (s *Sim) leaveAgent(v int) {
	if s.gone(v) {
		return
	}
	s.departed[v] = true
	s.balance[v] = 0
	s.presentHonest--
	s.refresh(v)
	if s.adv != nil {
		s.adv.NodeDeparted(s.round, v)
	}
}

// joinAgent (re)admits agent v as a fresh agent of the slot's kind,
// carrying the initial endowment.
func (s *Sim) joinAgent(v int) {
	if !s.gone(v) {
		return
	}
	s.departed[v] = false
	s.balance[v] = s.endowment(v)
	s.presentHonest++
	s.refresh(v)
}

func (s *Sim) finish() Result {
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
