package gossip

import (
	"fmt"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/population"
	"lotuseater/internal/sign"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// Engine runs one BAR Gossip simulation. Create it with New and drive it
// with Run (whole horizon) or Step (one round). An Engine is not safe for
// concurrent use; run one Engine per goroutine (see internal/sweep).
type Engine struct {
	cfg      Config
	rng      *simrng.Source
	pseed    sign.PartnerSeed
	targeter attack.Targeter

	// adv drives attacker placement, targeting, and in-protocol behavior.
	// The default is an attack.Strategy built from the Config; WithAdversary
	// installs a custom one, whose OnExchange hook then decides attacker
	// exchanges (customAdv). advTrades and advInstant cache the adversary's
	// capability probes for the hot path.
	adv        sim.Adversary
	customAdv  bool
	advTrades  bool
	advInstant bool

	keyring *sign.Keyring
	board   *defense.Board
	def     sim.Defense

	roles      []Role
	attackers  []int
	isAttacker []bool
	evicted    []bool

	// Population model (all nil/empty without one; every gate below keeps
	// the static-population code path byte-identical). churn replays the
	// compiled lifecycle schedule; departed/presentSince track presence.
	// nodeAltruism overrides cfg.Altruism per node (maxAltruism caches the
	// short-circuit guard); copiesFor maps a drawn popularity rank to the
	// seeding fan-out for that update.
	churn         population.Cursor
	departed      []bool
	presentSince  []int
	nodeAltruism  []float64
	maxAltruism   float64
	updateWeights []float64
	copiesFor     []int

	round          int
	targetsByRound []*attack.TargetSet

	// live holds the unexpired updates in release order; held is the
	// node-major holdings matrix: node v owns the words
	// held[v*words:(v+1)*words], and bit b of that row is set iff v holds
	// live[b]. Expiry always removes a prefix of live, so dropExpired keeps
	// bit index = live index by shifting every row. oldEnd is the length of
	// the "old, soon-to-expire" prefix (released at least RecentWindow
	// rounds ago), fixed for the round once seeding is done.
	live   []liveUpdate
	held   []uint64
	words  int
	oldEnd int

	// Pooled per-round scratch: the planning permutation, pairing list and
	// the two needs buffers are reused every round — steady-state rounds
	// allocate O(|satiated set|) on the satiation path and O(1) elsewhere,
	// independent of Nodes.
	permBuf     []int
	pairBuf     []pairing
	initFlags   []bool
	needScratch [2][]int

	// evalParallel > 0 forces the sharded per-node planning evaluation,
	// < 0 forces the sequential loop, 0 picks by population size.
	evalParallel int

	measStart, measEnd int // inclusive release-round measurement window

	measuredUpdates  int
	delivered, total []int // per node, over all measured updates
	deliveredIso     []int // per node, over updates released while isolated
	totalIso         []int
	deliveredSat     []int
	totalSat         []int
	perRoundHonest   []float64
	perRoundIsolated []float64
	nodeRound        [][]int // [node][release round] delivered count

	usefulSent   int64
	junkSent     int64
	attackerSent int64
}

// Option customizes an Engine.
type Option func(*Engine)

// WithTargeter overrides the satiation targeter derived from the Config.
// Use attack.ListTargeter for targeted attacks (grid cuts, rare resources).
func WithTargeter(t attack.Targeter) Option {
	return func(e *Engine) { e.targeter = t }
}

// WithAdversary replaces the Config-derived attack.Strategy with a custom
// adversary: it places the attacker's nodes, chooses the satiation targets
// each round, and its OnExchange hook decides which partners attacker nodes
// serve in protocol exchanges.
func WithAdversary(a sim.Adversary) Option {
	return func(e *Engine) { e.adv = a; e.customAdv = true }
}

// WithDefense replaces the Config-derived rate limiter with a custom
// receiver-side defense; obedient nodes route every accepted excess delivery
// through its Admit hook.
func WithDefense(d sim.Defense) Option {
	return func(e *Engine) { e.def = d }
}

// WithChurn installs a lifecycle schedule: each event's node leaves or
// (re)joins at the top of its round, before seeding and exchanges. The
// schedule must be sorted by round with nodes in [0, Nodes). A node's
// copies leave the network with it; an index that rejoins is a fresh node
// (empty holdings, measured only for updates released after its return).
func WithChurn(events []population.Event) Option {
	return func(e *Engine) { e.churn = population.NewCursor(events) }
}

// WithNodeAltruism overrides cfg.Altruism per node (len must be Nodes,
// values in [0,1]) — the heterogeneous-classes axis mapped onto the
// gossip substrate's one behavioral knob. Nil keeps the scalar config.
func WithNodeAltruism(a []float64) Option {
	return func(e *Engine) { e.nodeAltruism = a }
}

// WithUpdateWeights skews seeding by content popularity: each released
// update draws a rank from the weight vector (a normalized popularity
// catalog, e.g. Zipf) and is seeded to CopiesSeeded scaled by that rank's
// weight relative to uniform — popular content starts wide, niche content
// starts narrow. Nil keeps the uniform CopiesSeeded fan-out.
func WithUpdateWeights(w []float64) Option {
	return func(e *Engine) { e.updateWeights = w }
}

// evalParallelMinNodes is the population size at which the engine starts
// sharding per-node planning evaluation across the worker pool by default.
const evalParallelMinNodes = 1 << 15

// WithEvalParallel forces the round-planning evaluation — the O(Nodes)
// "does v initiate this phase?" scan — on or off the sharded sim.ParallelFor
// path. The evaluation is a pure read of round state, so results are
// bit-identical either way (the equivalence is tested); by default the
// sharded path engages for populations of evalParallelMinNodes and up,
// where the scan dominates round time.
func WithEvalParallel(on bool) Option {
	return func(e *Engine) {
		if on {
			e.evalParallel = 1
		} else {
			e.evalParallel = -1
		}
	}
}

// New builds an Engine for cfg, deterministic in (cfg, seed).
func New(cfg Config, seed uint64, opts ...Option) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		rng: simrng.New(seed),
	}
	n := cfg.Nodes
	e.pseed = sign.PartnerSeed(e.rng.Child("partner-seed").Uint64())

	// Options first: placement and targeting may come from a custom
	// adversary.
	for _, opt := range opts {
		opt(e)
	}
	if e.adv == nil {
		e.adv = &attack.Strategy{
			Kind:            cfg.Attack,
			Fraction:        cfg.AttackerFraction,
			SatiateFraction: cfg.SatiateFraction,
			RotatePeriod:    cfg.RotatePeriod,
		}
	}
	e.advTrades = sim.TradesInProtocol(e.adv)
	e.advInstant = sim.SatiatesInstantly(e.adv)

	// Population model wiring. Everything stays nil/scalar without one, so
	// the static-population engine is untouched byte for byte.
	if err := population.ValidateSchedule(e.churn.Events(), n); err != nil {
		return nil, fmt.Errorf("gossip: churn: %w", err)
	}
	e.maxAltruism = cfg.Altruism
	if e.nodeAltruism != nil {
		if len(e.nodeAltruism) != n {
			return nil, fmt.Errorf("gossip: node altruism has %d entries, want %d", len(e.nodeAltruism), n)
		}
		e.maxAltruism = 0
		for _, a := range e.nodeAltruism {
			if a < 0 || a > 1 {
				return nil, fmt.Errorf("gossip: node altruism %g outside [0,1]", a)
			}
			if a > e.maxAltruism {
				e.maxAltruism = a
			}
		}
	}
	if w := population.Normalize(e.updateWeights); w != nil {
		e.copiesFor = make([]int, len(w))
		for i, wi := range w {
			c := int(float64(cfg.CopiesSeeded)*wi*float64(len(w)) + 0.5)
			if c < 1 {
				c = 1
			}
			if c > n {
				c = n
			}
			e.copiesFor[i] = c
		}
	} else if e.updateWeights != nil {
		return nil, fmt.Errorf("gossip: update weights must be non-negative with a positive sum")
	}

	// Roles: the adversary places its nodes, then obedient nodes are chosen
	// among the rest.
	e.roles = make([]Role, n)
	for i := range e.roles {
		e.roles[i] = RoleHonest
	}
	e.isAttacker = make([]bool, n)
	e.attackers = e.adv.Place(n, e.rng)
	for _, a := range e.attackers {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("gossip: adversary placed node %d outside [0,%d)", a, n)
		}
		e.roles[a] = RoleAttacker
		e.isAttacker[a] = true
	}
	if cfg.ObedientFraction > 0 {
		honest := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if !e.isAttacker[v] {
				honest = append(honest, v)
			}
		}
		k := int(cfg.ObedientFraction*float64(len(honest)) + 0.5)
		for _, idx := range e.rng.Child("obedient").SampleInts(len(honest), k) {
			e.roles[honest[idx]] = RoleObedient
		}
	}

	e.evicted = make([]bool, n)
	e.departed = make([]bool, n)
	e.presentSince = make([]int, n)
	e.delivered = make([]int, n)
	e.total = make([]int, n)
	e.deliveredIso = make([]int, n)
	e.totalIso = make([]int, n)
	e.deliveredSat = make([]int, n)
	e.totalSat = make([]int, n)
	e.perRoundHonest = make([]float64, cfg.Rounds)
	e.perRoundIsolated = make([]float64, cfg.Rounds)
	for i := range e.perRoundHonest {
		e.perRoundHonest[i] = -1
		e.perRoundIsolated[i] = -1
	}
	e.targetsByRound = make([]*attack.TargetSet, cfg.Rounds)
	e.initFlags = make([]bool, n)
	e.live = make([]liveUpdate, 0, cfg.Lifetime*cfg.UpdatesPerRound)
	e.words = (cap(e.live) + 63) / 64
	e.held = make([]uint64, n*e.words)
	if cfg.TrackPerNode {
		e.nodeRound = make([][]int, n)
		for v := range e.nodeRound {
			e.nodeRound[v] = make([]int, cfg.Rounds)
		}
	}

	e.measStart = cfg.Warmup
	e.measEnd = cfg.Rounds - cfg.Lifetime
	if e.measEnd < e.measStart {
		return nil, fmt.Errorf("gossip: horizon too short: no update both released after warmup (%d) and expiring before round %d", cfg.Warmup, cfg.Rounds)
	}

	// Defenses.
	if e.def == nil && cfg.RateLimitPerPeer > 0 {
		e.def = defense.NewLimit(cfg.RateLimitPerPeer)
	}
	if cfg.ReportThreshold > 0 {
		kr, err := sign.NewKeyring(n, e.rng.Child("keys"))
		if err != nil {
			return nil, fmt.Errorf("gossip: keyring: %w", err)
		}
		e.keyring = kr
		board, err := defense.NewBoard(kr, cfg.ReportThreshold, cfg.EvictAfterReports)
		if err != nil {
			return nil, fmt.Errorf("gossip: board: %w", err)
		}
		e.board = board
	}

	if e.targeter == nil {
		// The adversary's Targets hook is the targeter; attack.Strategy
		// reproduces the pre-strategy defaults (static/rotating satiation
		// for ideal and trade, attacker-only for crash and none) from the
		// same "targets" child stream.
		e.targeter = attack.TargeterFrom(e.adv)
	}
	return e, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Round returns the next round to be simulated.
func (e *Engine) Round() int { return e.round }

// Roles returns a copy of the per-node roles.
func (e *Engine) Roles() []Role {
	out := make([]Role, len(e.roles))
	copy(out, e.roles)
	return out
}

// Run simulates the full horizon and returns the result.
func (e *Engine) Run() (Result, error) {
	for e.round < e.cfg.Rounds {
		if err := e.Step(); err != nil {
			return Result{}, err
		}
	}
	return e.result(), nil
}

// Finished reports whether the horizon has been reached.
func (e *Engine) Finished() bool { return e.round >= e.cfg.Rounds }

// Snapshot returns the delivery statistics so far; its concrete type is
// Result. Together with Step and Finished it makes Engine a sim.Model.
func (e *Engine) Snapshot() (any, error) { return e.result(), nil }

// Step simulates one round: broadcast seeding, the ideal attacker's instant
// forwarding, the balanced-exchange phase, the optimistic-push phase,
// defense bookkeeping, and expiry accounting.
//
//lotus:allocfree
func (e *Engine) Step() error {
	if e.round >= e.cfg.Rounds {
		return fmt.Errorf("gossip: horizon of %d rounds exhausted", e.cfg.Rounds) //lotus:ignore allocfree cold guard, never taken in a steady-state round
	}
	// Lifecycle first: this round's departures and arrivals precede every
	// exchange, and the adversary learns of departures before its Targets
	// call below (a departed target's satiation leaves with it).
	for ev, ok := e.churn.Next(e.round); ok; ev, ok = e.churn.Next(e.round) {
		if ev.Join {
			e.joinNode(ev.Node)
		} else {
			e.leaveNode(ev.Node)
		}
	}
	targets := e.targeter.Satiated(e.round)
	if targets.Cap() != e.cfg.Nodes {
		return fmt.Errorf("gossip: targeter returned a set over %d nodes, want %d", targets.Cap(), e.cfg.Nodes) //lotus:ignore allocfree cold guard against a misbehaving custom targeter
	}
	// Target sets are immutable per epoch, so storing the pointer per round
	// costs nothing: all rounds of one epoch share one set.
	e.targetsByRound[e.round] = targets

	e.seedUpdates()
	if e.advInstant {
		e.idealDeliver()
	}

	for _, p := range e.planBalanced() {
		e.execBalanced(p)
	}
	if e.cfg.PushSize > 0 {
		for _, p := range e.planPush() {
			e.execPush(p)
		}
	}

	e.applyEvictions()
	e.retireExpired()
	e.round++
	return nil
}

// leaveNode removes v from the population: its copies leave the network
// with it (its holdings row is cleared), it stops initiating and answering
// exchanges, and the adversary is told so a reused index cannot inherit its
// satiation. Leaving twice is a no-op, so arbitrary traces replay safely.
//
//lotus:allocfree
func (e *Engine) leaveNode(v int) {
	if e.departed[v] {
		return
	}
	e.departed[v] = true
	clear(e.row(v))
	sim.NotifyDeparture(e.adv, e.round, v)
}

// joinNode puts a fresh node on index v: empty holdings (leaveNode
// already cleared them), measured only against updates released from this
// round on. Joining while present is a no-op.
//
//lotus:allocfree
func (e *Engine) joinNode(v int) {
	if !e.departed[v] {
		return
	}
	e.departed[v] = false
	e.presentSince[v] = e.round
}

// seedUpdates releases this round's updates to random nodes, per Table 1,
// and fixes the round's old/recent boundary.
//
//lotus:allocfree
func (e *Engine) seedUpdates() {
	rng := e.rng.ChildN("seed", e.round)
	for k := 0; k < e.cfg.UpdatesPerRound; k++ {
		b := len(e.live)
		u := liveUpdate{
			id:       UpdateID{Round: e.round, Index: k},
			release:  e.round,
			deadline: e.round + e.cfg.Lifetime - 1,
			measured: e.round >= e.measStart && e.round <= e.measEnd,
		}
		// Uniform demand seeds a fixed fan-out; with a popularity catalog
		// the update first draws its rank and seeds the rank's fan-out —
		// popular content starts wide, niche content narrow.
		copies := e.cfg.CopiesSeeded
		if e.copiesFor != nil {
			copies = e.copiesFor[rng.IntN(len(e.copiesFor))]
		}
		for _, v := range rng.SampleInts(e.cfg.Nodes, copies) {
			if e.departed[v] {
				continue // the copy lands on an empty seat and is lost
			}
			e.set(v, b)
			if e.isAttacker[v] && !e.evicted[v] {
				u.pool = true
			}
		}
		e.live = append(e.live, u)
	}
	// Live is in release order and this round's releases are recent
	// (RecentWindow >= 1), so the scan stops inside the slice.
	e.oldEnd = 0
	for cutoff := e.round - e.cfg.RecentWindow; e.live[e.oldEnd].release <= cutoff; {
		e.oldEnd++
	}
}

// idealDeliver implements the ideal lotus-eater attack: every update seeded
// to at least one attacker node this round is forwarded instantly to all
// satiated targets, outside any exchange. Iterating the sparse member list
// makes this O(|satiated set|) per update, not O(Nodes).
//
//lotus:allocfree
func (e *Engine) idealDeliver() {
	targets := e.targetsByRound[e.round]
	sender := -1
	if len(e.attackers) > 0 {
		sender = e.attackers[0]
	}
	// This round's releases are the last UpdatesPerRound live records.
	for b := len(e.live) - e.cfg.UpdatesPerRound; b < len(e.live); b++ {
		if !e.live[b].pool {
			continue
		}
		for _, v := range targets.Members() {
			if e.isAttacker[v] || e.departed[v] || e.has(v, b) {
				continue
			}
			if e.roles[v] == RoleObedient && e.def != nil {
				if e.def.Admit(e.round, sender, v, 1) == 0 {
					continue
				}
			}
			e.set(v, b)
			e.attackerSent++
		}
	}
}

// pairing is one planned interaction: initiator contacts partner.
type pairing struct {
	initiator int
	partner   int
}

// planBalanced decides who initiates a balanced exchange this round and
// with whom. Rational nodes initiate only when unsatiated; trade attackers
// always initiate; crash and ideal attackers never do.
//
//lotus:allocfree
func (e *Engine) planBalanced() []pairing {
	return e.plan("balanced", func(v int) bool {
		if e.isAttacker[v] {
			return e.advTrades
		}
		return e.lacksAnyLive(v, len(e.live))
	})
}

// planPush decides who initiates an optimistic push: rational nodes that
// are missing old, soon-to-expire updates; trade attackers always.
//
//lotus:allocfree
func (e *Engine) planPush() []pairing {
	return e.plan("push", func(v int) bool {
		if e.isAttacker[v] {
			return e.advTrades
		}
		return e.lacksAnyLive(v, e.oldEnd)
	})
}

//lotus:allocfree
func (e *Engine) plan(label string, initiates func(v int) bool) []pairing {
	n := e.cfg.Nodes
	// Evaluate "does v initiate?" for every node up front. The predicate is
	// a pure read of round state (holdings rows, roles), so for large
	// populations the scan shards across the worker pool with bit-identical
	// results; plan order below is untouched either way.
	flags := e.initFlags
	if e.evalParallel > 0 || (e.evalParallel == 0 && n >= evalParallelMinNodes) {
		sim.ParallelFor(n, 0, func(_, start, end int) {
			for v := start; v < end; v++ {
				flags[v] = initiates(v)
			}
		})
	} else {
		for v := 0; v < n; v++ {
			flags[v] = initiates(v)
		}
	}
	order := e.rng.ChildN("order-"+label, e.round).PermInto(e.permBuf, n)
	e.permBuf = order
	pairs := e.pairBuf[:0]
	for _, v := range order {
		if e.evicted[v] || e.departed[v] || !flags[v] {
			continue
		}
		p := sign.Partner(e.pseed, label, e.round, v, e.cfg.Nodes)
		if e.evicted[p] || e.departed[p] {
			continue // the slot is wasted, like contacting a crashed node
		}
		pairs = append(pairs, pairing{initiator: v, partner: p})
	}
	e.pairBuf = pairs
	return pairs
}

// applyEvictions makes report-board evictions effective at round end, so
// eviction timing does not depend on intra-round execution order.
//
//lotus:allocfree
func (e *Engine) applyEvictions() {
	if e.board == nil {
		return
	}
	for v := 0; v < e.cfg.Nodes; v++ {
		if !e.evicted[v] && e.board.Evicted(v) {
			e.evicted[v] = true
		}
	}
}

// retireExpired removes updates whose deadline has passed and accumulates
// delivery statistics for measured ones. Live is in release order, so the
// expired updates are a prefix; every round retires its own release batch,
// so they share one release round and one measured flag.
//
//lotus:allocfree
func (e *Engine) retireExpired() {
	k := 0
	for k < len(e.live) && e.live[k].deadline <= e.round {
		k++
	}
	if k > 0 && e.live[0].measured {
		e.tally(e.live[0].release, k)
	}
	e.dropExpired(k)
}

// tally adds live[:k], all released in round rel, to the delivery
// statistics: each node's share is one popcount over the front of its row.
//
//lotus:allocfree
func (e *Engine) tally(rel, k int) {
	relTargets := e.targetsByRound[rel]
	e.measuredUpdates += k
	var delivered, total, isoDelivered, isoTotal int
	for v := 0; v < e.cfg.Nodes; v++ {
		// Attackers are not measured. Churn gates the denominator: a node
		// counts toward an update's delivery statistics only if it is still
		// present and was already present at release — nobody "misses" an
		// update that circulated while their seat was empty. All-false/zero
		// without churn, so the static path is untouched.
		if e.isAttacker[v] || e.departed[v] || e.presentSince[v] > rel {
			continue
		}
		got := e.heldOf(v, k)
		e.total[v] += k
		e.delivered[v] += got
		if e.nodeRound != nil {
			e.nodeRound[v][rel] += got
		}
		total += k
		delivered += got
		if relTargets.Has(v) {
			e.totalSat[v] += k
			e.deliveredSat[v] += got
		} else {
			e.totalIso[v] += k
			e.deliveredIso[v] += got
			isoTotal += k
			isoDelivered += got
		}
	}
	if total > 0 {
		e.perRoundHonest[rel] = float64(delivered) / float64(total)
	}
	if isoTotal > 0 {
		e.perRoundIsolated[rel] = float64(isoDelivered) / float64(isoTotal)
	}
}

func (e *Engine) result() Result {
	res := Result{
		Cfg:              e.cfg,
		MeasuredUpdates:  e.measuredUpdates,
		Isolated:         groupStats(e.deliveredIso, e.totalIso, e.cfg.UsableThreshold),
		Satiated:         groupStats(e.deliveredSat, e.totalSat, e.cfg.UsableThreshold),
		AllHonest:        groupStats(e.delivered, e.total, e.cfg.UsableThreshold),
		PerRoundHonest:   append([]float64(nil), e.perRoundHonest...),
		PerRoundIsolated: append([]float64(nil), e.perRoundIsolated...),
		Bandwidth: Bandwidth{
			UsefulSent:   e.usefulSent,
			JunkSent:     e.junkSent,
			AttackerSent: e.attackerSent,
		},
	}
	if e.board != nil {
		res.Evictions = e.board.EvictedCount()
	}
	if e.nodeRound != nil {
		res.NodeRoundDelivery = make([][]float64, e.cfg.Nodes)
		for v := range res.NodeRoundDelivery {
			fractions := make([]float64, e.cfg.Rounds)
			for r := range fractions {
				if e.isAttacker[v] || r < e.measStart || r > e.measEnd {
					fractions[r] = -1
					continue
				}
				fractions[r] = float64(e.nodeRound[v][r]) / float64(e.cfg.UpdatesPerRound)
			}
			res.NodeRoundDelivery[v] = fractions
		}
	}
	return res
}
