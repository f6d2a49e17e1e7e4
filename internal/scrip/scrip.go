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
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
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
	// AttackerAgent agents never request service, always volunteer (to
	// earn scrip), and funnel their earnings into the attack pool.
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
	// AttackerFraction of agents are attacker-controlled earners.
	AttackerFraction float64
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
	case c.AttackerFraction < 0 || c.AttackerFraction > 1:
		return fmt.Errorf("scrip: AttackerFraction must be in [0,1], got %g", c.AttackerFraction)
	case c.AltruistFraction+c.AttackerFraction > 1:
		return fmt.Errorf("scrip: AltruistFraction+AttackerFraction = %g exceeds 1", c.AltruistFraction+c.AttackerFraction)
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

// AttackPlan configures the lotus-eater attack: keep the target agents'
// balances at or above the threshold so they never volunteer.
type AttackPlan struct {
	// Targets are the agent ids to satiate.
	Targets []int
	// Budget is exogenous scrip the attacker starts with (on top of
	// whatever its agents earn in-system). Scrip it injects increases the
	// money supply, which the Result tracks.
	Budget int
	// StartRound is the first round the attack runs.
	StartRound int
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
	// attacker pool; it equals the opening supply plus injected Budget
	// (scrip is conserved).
	FinalMoneySupply int
	// SpecialRequests counts specialty requests issued.
	SpecialRequests int
	// SpecialServed counts specialty requests that found a special
	// provider willing to serve.
	SpecialServed int
	// SpecialAvailability is SpecialServed / SpecialRequests.
	SpecialAvailability float64
}

// Sim is one scrip economy. Create with New, optionally Attack, then Run.
type Sim struct {
	cfg     Config
	rng     *simrng.Source
	kinds   []Kind
	balance []int
	utility []float64
	plan    *AttackPlan
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

// Option customizes a Sim.
type Option func(*Sim)

// WithAdversary installs a substrate-independent adversary strategy; see
// Sim for how its hooks map onto the scrip economy. It replaces the
// AttackerFraction placement and the AttackPlan mechanism.
func WithAdversary(a sim.Adversary) Option {
	return func(s *Sim) { s.adv = a }
}

// WithDefense installs a receiver-side defense: a target accepts at most
// Admit(...) units of attacker top-up per round, throttling how fast the
// adversary can push balances to the threshold.
func WithDefense(d sim.Defense) Option {
	return func(s *Sim) { s.def = d }
}

// New builds a Sim, deterministic in (cfg, seed). Agent kinds are assigned
// pseudorandomly according to the configured fractions; an installed
// adversary's Place hook overrides the AttackerFraction assignment.
func New(cfg Config, seed uint64, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:     cfg,
		rng:     simrng.New(seed),
		kinds:   make([]Kind, cfg.Agents),
		balance: make([]int, cfg.Agents),
		utility: make([]float64, cfg.Agents),
		isTgt:   make([]bool, cfg.Agents),
	}
	for _, opt := range opts {
		opt(s)
	}
	for i := range s.kinds {
		s.kinds[i] = Rational
		s.balance[i] = s.endowment(i)
	}
	nAlt := int(cfg.AltruistFraction*float64(cfg.Agents) + 0.5)
	nAtt := int(cfg.AttackerFraction*float64(cfg.Agents) + 0.5)
	if s.adv != nil {
		nAtt = 0 // the adversary places its own agents
	}
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
	for i := nAlt; i < nAlt+nAtt && i < len(perm); i++ {
		s.kinds[perm[i]] = AttackerAgent
	}
	for i := 0; i < cfg.AltruistProviders; i++ {
		s.kinds[i] = Altruist
	}
	if s.adv != nil {
		s.advTrades = sim.TradesInProtocol(s.adv)
		s.advInstant = sim.SatiatesInstantly(s.adv)
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

// Attack installs an attack plan. It returns an error if any target is out
// of range or attacker-controlled (satiating your own nodes is a no-op), or
// if an adversary strategy is installed (the strategy owns targeting).
func (s *Sim) Attack(plan AttackPlan) error {
	if s.adv != nil {
		return errors.New("scrip: Attack conflicts with WithAdversary")
	}
	for _, t := range plan.Targets {
		if t < 0 || t >= s.cfg.Agents {
			return fmt.Errorf("scrip: target %d out of range", t)
		}
		if s.kinds[t] == AttackerAgent {
			return fmt.Errorf("scrip: target %d is attacker-controlled", t)
		}
	}
	targets := make([]int, len(plan.Targets))
	copy(targets, plan.Targets)
	plan.Targets = targets
	s.plan = &plan
	s.pool = plan.Budget
	for _, t := range targets {
		s.isTgt[t] = true
	}
	return nil
}

// Kind returns agent i's behavioral type.
func (s *Sim) Kind(i int) Kind { return s.kinds[i] }

// Mint adds amount scrip to agent i's balance out of thin air — the
// attacker's exogenous wealth delivered as an unconditional gift, as
// opposed to Attack's threshold top-ups. Minting inflates the money supply
// permanently; MoneySupply and Result.FinalMoneySupply reflect it.
func (s *Sim) Mint(i, amount int) error {
	if i < 0 || i >= s.cfg.Agents {
		return fmt.Errorf("scrip: agent %d out of range", i)
	}
	if amount < 0 {
		return fmt.Errorf("scrip: negative mint %d", amount)
	}
	s.balance[i] += amount
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
func (s *Sim) Step() error {
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

	// 1. Attacker tops targets up to the threshold while its pool lasts;
	// attacker agents sweep their in-system earnings into the pool first.
	if s.plan != nil && s.round >= s.plan.StartRound {
		for i, k := range s.kinds {
			if k == AttackerAgent && s.balance[i] > 0 {
				s.pool += s.balance[i]
				s.balance[i] = 0
			}
		}
		for _, t := range s.plan.Targets {
			if s.gone(t) {
				continue // no point topping up an absent agent
			}
			need := s.thresholdOf(t) - s.balance[t]
			if need <= 0 {
				continue
			}
			if s.pool < need {
				s.res.AttackerShortfall++
				continue
			}
			s.pool -= need
			s.balance[t] += need
			s.res.AttackerSpent += need
		}
		sat := 0
		for _, t := range s.plan.Targets {
			if !s.gone(t) && s.balance[t] >= s.thresholdOf(t) {
				sat++
			}
		}
		if len(s.plan.Targets) > 0 {
			s.satSum += float64(sat) / float64(len(s.plan.Targets))
		}
	}
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
			// Legacy and trade attackers volunteer to earn scrip for the
			// attack pool; crash attackers withhold service and ideal
			// attackers stay out of protocol entirely.
			if s.adv == nil || s.advTrades {
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

// adversaryStep is the strategy adversary's round: trade attackers sweep
// in-system earnings into the pool, then (trade and ideal only) targets are
// topped up to the threshold — trade from the finite pool, ideal from
// exogenous minted wealth. The defense's Admit hook caps each target's
// per-round acceptance, so a rate limit stretches the satiation ramp even
// against the ideal attacker.
func (s *Sim) adversaryStep() {
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
	if s.adv != nil {
		sim.NotifyDeparture(s.adv, s.round, v)
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
	if s.plan != nil && s.round > s.plan.StartRound {
		res.SatiatedTargetFraction = s.satSum / float64(s.round-s.plan.StartRound)
	} else if s.advRounds > 0 {
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
