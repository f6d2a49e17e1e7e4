package coding

import (
	"errors"
	"fmt"
	"math/bits"

	"lotuseater/internal/attack"
	"lotuseater/internal/bitset"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

// DisseminationConfig parameterizes the coded-vs-plain gossip comparison of
// experiment E6. The setting mirrors the token model's rare-token attack:
// each node starts with one unit of information, nodes gossip with up to
// Contacts random neighbors per round, satiated nodes stop serving, and the
// attacker instantly satiates its targets each round. The only difference
// between the two modes is what a "unit of information" is:
//
//   - plain (Coded=false): node v starts with source symbol Allocation[v];
//     transfers move whole symbols; satiation = holding all K symbols.
//   - coded (Coded=true): node v starts with one random linear combination
//     of all K symbols; transfers move fresh recodings of the sender's
//     span; satiation = rank K.
type DisseminationConfig struct {
	// Graph is the communication graph.
	Graph *graph.Graph
	// Symbols is K, the number of source symbols.
	Symbols int
	// PayloadSize is the symbol payload in bytes.
	PayloadSize int
	// Contacts is the per-round contact budget.
	Contacts int
	// Rounds is the horizon.
	Rounds int
	// Coded selects RLNC mode.
	Coded bool
	// Allocation maps node -> initial source symbol (plain mode only).
	// Nil means node v starts with symbol v mod Symbols.
	Allocation []int
	// Churn is an optional round-sorted lifecycle schedule. A departed
	// node neither contacts nor responds; a (re)arrival is a fresh node
	// holding only its initial unit. Events naming attacker slots are
	// ignored. Nil means the static fixed universe.
	Churn []population.Event
	// NodeContacts optionally overrides Contacts per node (population
	// classes map "capacity" here). Nil means the scalar everywhere;
	// otherwise length Graph.N().
	NodeContacts []int
	// SymbolWeights optionally biases which symbol a plain-mode sender
	// picks among those the receiver lacks (Zipf/weighted content
	// popularity; length Symbols, non-negative, positive sum). Coded mode
	// recodes over the full span, so weights apply to plain mode only.
	SymbolWeights []float64
}

// Validate reports the first problem with the configuration, or nil.
func (c DisseminationConfig) Validate() error {
	switch {
	case c.Graph == nil:
		return errors.New("coding: nil graph")
	case c.Symbols < 1:
		return fmt.Errorf("coding: Symbols must be positive, got %d", c.Symbols)
	case c.PayloadSize < 1:
		return fmt.Errorf("coding: PayloadSize must be positive, got %d", c.PayloadSize)
	case c.Contacts < 0:
		return fmt.Errorf("coding: Contacts must be non-negative, got %d", c.Contacts)
	case c.Rounds < 1:
		return fmt.Errorf("coding: Rounds must be positive, got %d", c.Rounds)
	case c.Allocation != nil && len(c.Allocation) != c.Graph.N():
		return fmt.Errorf("coding: Allocation has %d entries for %d nodes", len(c.Allocation), c.Graph.N())
	case c.NodeContacts != nil && len(c.NodeContacts) != c.Graph.N():
		return fmt.Errorf("coding: NodeContacts has %d entries for %d nodes", len(c.NodeContacts), c.Graph.N())
	case c.SymbolWeights != nil && c.Coded:
		return errors.New("coding: SymbolWeights applies to plain mode only")
	case c.SymbolWeights != nil && len(c.SymbolWeights) != c.Symbols:
		return fmt.Errorf("coding: SymbolWeights has %d entries for %d symbols", len(c.SymbolWeights), c.Symbols)
	case c.SymbolWeights != nil && population.Normalize(c.SymbolWeights) == nil:
		return errors.New("coding: SymbolWeights must be non-negative with a positive finite sum")
	}
	for i, k := range c.NodeContacts {
		if k < 0 {
			return fmt.Errorf("coding: NodeContacts[%d] must be non-negative, got %d", i, k)
		}
	}
	if err := population.ValidateSchedule(c.Churn, c.Graph.N()); err != nil {
		return fmt.Errorf("coding: %w", err)
	}
	return nil
}

// DisseminationResult summarizes a run.
type DisseminationResult struct {
	// CompletedFraction is the fraction of nodes able to reconstruct all
	// information at the horizon.
	CompletedFraction float64
	// MeanProgress is the average normalized progress (symbols held or
	// rank, divided by K) at the horizon.
	MeanProgress float64
	// AllCompleteRound is the first round after which every node could
	// reconstruct, or -1.
	AllCompleteRound int
	// DecodeVerified is true when, in coded mode, a completed node's
	// decoded symbols were checked against the originals.
	DecodeVerified bool
}

// Dissemination is the E6 simulator.
type Dissemination struct {
	cfg DisseminationConfig
	rng *simrng.Source
	// roundRNG is the stream each round reseeds in place to
	// rng.ChildN("round", round), so a round allocates no generator.
	roundRNG *simrng.Source

	// Strategy hooks (WithAdversary / WithDefense): placed attacker nodes
	// hold the full information (encoder access) when the strategy trades or
	// satiates instantly, serve contacting partners per OnExchange, and
	// never collect for themselves; the defense's Admit hook gates every
	// unit accepted, the external attacker included (sender -1).
	adv        *attack.Strategy
	def        *defense.RateLimiter
	advTrades  bool
	advInstant bool
	isAttacker []bool

	enc     *Encoder
	decs    []*Decoder // coded mode
	sources [][]byte

	// Plain mode's holdings matrix, node-major: node v's symbols are the
	// bits of held[v*words : (v+1)*words], with the bits past Symbols
	// always clear, and count[v] is how many it holds.
	held  []uint64
	count []int
	words int

	// Lifecycle state: departed stays nil without churn so the static
	// path is byte-identical to a build without the model. symWeights is
	// the normalized SymbolWeights vector, nil when unbiased.
	churn      population.Cursor
	departed   []bool
	symWeights []float64

	round  int
	satBuf []bool // per-round start-of-round satiation snapshot, reused
	// Round scratch, reused: the queued transfers and one node's contact
	// sample.
	transfers []transfer
	sample    []int
	res       DisseminationResult
}

// transfer is one unit queued to flow from -> to this round: a coded
// packet, or a plain symbol.
type transfer struct {
	from int
	to   int
	pkt  Packet // coded mode
	sym  int    // plain mode
}

// DisseminationOption customizes a Dissemination.
type DisseminationOption func(*Dissemination)

// WithAdversary installs the attack: the adversary places its nodes, names
// the nodes it satiates each round, and decides whom its nodes serve.
// Without it the simulation runs unattacked.
func WithAdversary(a *attack.Strategy) DisseminationOption {
	return func(d *Dissemination) { d.adv = a }
}

// WithDefense installs a receiver-side defense rate-limiting how many
// information units (symbols or coded packets) a node accepts per partner
// per round.
func WithDefense(def *defense.RateLimiter) DisseminationOption {
	return func(d *Dissemination) { d.def = def }
}

// NewDissemination builds the simulator; deterministic in (cfg, seed).
func NewDissemination(cfg DisseminationConfig, seed uint64, opts ...DisseminationOption) (*Dissemination, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Dissemination{
		cfg: cfg,
		rng: simrng.New(seed),
	}
	for _, opt := range opts {
		opt(d)
	}
	d.res.AllCompleteRound = -1
	// Source symbols with recognizable deterministic payloads.
	d.sources = make([][]byte, cfg.Symbols)
	srcRNG := d.rng.Child("sources")
	for i := range d.sources {
		buf := make([]byte, cfg.PayloadSize)
		for j := range buf {
			buf[j] = byte(srcRNG.IntN(256))
		}
		d.sources[i] = buf
	}
	enc, err := NewEncoder(d.sources)
	if err != nil {
		return nil, err
	}
	d.enc = enc

	n := cfg.Graph.N()
	if cfg.Coded {
		d.decs = make([]*Decoder, n)
		initRNG := d.rng.Child("init")
		for v := 0; v < n; v++ {
			dec, err := NewDecoder(cfg.Symbols, cfg.PayloadSize)
			if err != nil {
				return nil, err
			}
			if _, err := dec.Add(enc.Encode(initRNG)); err != nil {
				return nil, err
			}
			d.decs[v] = dec
		}
	} else {
		d.words = (cfg.Symbols + 63) / 64
		d.held = make([]uint64, n*d.words)
		d.count = make([]int, n)
		for v := 0; v < n; v++ {
			if tok := d.initialSymbol(v); tok < 0 || tok >= cfg.Symbols {
				return nil, fmt.Errorf("coding: Allocation[%d] = %d out of range", v, tok)
			}
			d.resetPlain(v)
		}
	}
	if d.adv != nil {
		d.advTrades = d.adv.TradesInProtocol()
		d.advInstant = d.adv.SatiatesInstantly()
		d.isAttacker = make([]bool, n)
		for _, a := range d.adv.Place(n, d.rng.Child("adversary")) {
			d.isAttacker[a] = true
			if d.advTrades || d.advInstant {
				if err := d.satiateNode(a); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(cfg.Churn) > 0 {
		d.churn = population.NewCursor(cfg.Churn)
		d.departed = make([]bool, n)
	}
	if cfg.SymbolWeights != nil {
		d.symWeights = population.Normalize(cfg.SymbolWeights)
	}
	return d, nil
}

// initialSymbol is the source symbol plain-mode node v starts with.
func (d *Dissemination) initialSymbol(v int) int {
	if d.cfg.Allocation != nil {
		return d.cfg.Allocation[v]
	}
	return v % d.cfg.Symbols
}

// row is plain-mode node v's holdings words.
func (d *Dissemination) row(v int) []uint64 {
	return d.held[v*d.words : (v+1)*d.words]
}

// resetPlain makes plain-mode node v hold only its initial symbol.
func (d *Dissemination) resetPlain(v int) {
	row := d.row(v)
	clear(row)
	tok := d.initialSymbol(v)
	row[tok/64] = 1 << (tok % 64)
	d.count[v] = 1
}

// gone reports whether node v is currently departed. Always false in a
// static run, where departed stays nil.
func (d *Dissemination) gone(v int) bool { return d.departed != nil && d.departed[v] }

// contactsOf returns node v's per-round contact budget: the per-class
// override when one is installed, the scalar config otherwise.
func (d *Dissemination) contactsOf(v int) int {
	if d.cfg.NodeContacts != nil {
		return d.cfg.NodeContacts[v]
	}
	return d.cfg.Contacts
}

// leaveNode removes node v; its information state is frozen in place but
// unreachable, and the adversary is told so a satiated slot that later
// re-arrives is not inherited as a standing target.
func (d *Dissemination) leaveNode(v int) {
	if d.gone(v) {
		return
	}
	d.departed[v] = true
	if d.adv != nil {
		d.adv.NodeDeparted(d.round, v)
	}
}

// joinNode (re)admits node v as a fresh participant holding only its
// initial unit: the allocated source symbol in plain mode, the matching
// unit vector in coded mode (arrivals mid-run have no build-time random
// combination to draw from).
func (d *Dissemination) joinNode(v int) error {
	if !d.gone(v) {
		return nil
	}
	d.departed[v] = false
	if d.cfg.Coded {
		dec, err := NewDecoder(d.cfg.Symbols, d.cfg.PayloadSize)
		if err != nil {
			return err
		}
		if _, err := dec.Add(d.enc.Unit(v % d.cfg.Symbols)); err != nil {
			return err
		}
		d.decs[v] = dec
		return nil
	}
	d.resetPlain(v)
	return nil
}

// satiateNode gives v the full information unconditionally (attacker nodes,
// and targets when no defense throttles the delivery).
func (d *Dissemination) satiateNode(v int) error {
	if d.cfg.Coded {
		for i := 0; i < d.cfg.Symbols; i++ {
			if _, err := d.decs[v].Add(d.enc.Unit(i)); err != nil {
				return err
			}
		}
		return nil
	}
	row := d.row(v)
	for i := range row {
		row[i] = ^uint64(0)
	}
	if rem := d.cfg.Symbols % 64; rem != 0 {
		row[len(row)-1] = 1<<rem - 1
	}
	d.count[v] = d.cfg.Symbols
	return nil
}

// satiateLimited delivers the attacker's payload to v through the defense's
// Admit gate: at most the granted number of genuinely new units (rank
// increments or missing symbols, in deterministic order) land this round.
func (d *Dissemination) satiateLimited(v int) error {
	if d.def == nil {
		return d.satiateNode(v)
	}
	if d.cfg.Coded {
		need := d.cfg.Symbols - d.decs[v].Rank()
		granted := d.def.Admit(d.round, -1, v, need)
		for i := 0; i < d.cfg.Symbols && granted > 0; i++ {
			before := d.decs[v].Rank()
			if _, err := d.decs[v].Add(d.enc.Unit(i)); err != nil {
				return err
			}
			if d.decs[v].Rank() > before {
				granted--
			}
		}
		return nil
	}
	need := d.cfg.Symbols - d.count[v]
	granted := min(d.def.Admit(d.round, -1, v, need), need)
	d.count[v] += granted
	// The granted symbols are the first missing ones in ascending order.
	row := d.row(v)
	for i := 0; granted > 0; i++ {
		for miss := ^row[i]; granted > 0 && miss != 0; miss &= miss - 1 {
			row[i] |= miss & -miss
			granted--
		}
	}
	return nil
}

func (d *Dissemination) progress(v int) int {
	if d.cfg.Coded {
		return d.decs[v].Rank()
	}
	return d.count[v]
}

func (d *Dissemination) satiated(v int) bool { return d.progress(v) >= d.cfg.Symbols }

// Progress returns node v's normalized progress in [0, 1].
func (d *Dissemination) Progress(v int) float64 {
	return float64(d.progress(v)) / float64(d.cfg.Symbols)
}

// Run simulates the horizon.
func (d *Dissemination) Run() (DisseminationResult, error) {
	for !d.Finished() {
		if err := d.Step(); err != nil {
			return DisseminationResult{}, err
		}
	}
	return d.finish()
}

// Step simulates one round: attacker satiation, then contact exchanges, and
// finally the all-complete bookkeeping.
func (d *Dissemination) Step() error {
	if d.round >= d.cfg.Rounds {
		return fmt.Errorf("coding: horizon of %d rounds exhausted", d.cfg.Rounds)
	}
	if err := d.step(); err != nil {
		return err
	}
	if d.res.AllCompleteRound == -1 {
		n := d.cfg.Graph.N()
		all := true
		for v := 0; v < n; v++ {
			if !d.satiated(v) {
				all = false
				break
			}
		}
		if all {
			d.res.AllCompleteRound = d.round
		}
	}
	d.round++
	return nil
}

// Round returns the next round to simulate.
func (d *Dissemination) Round() int { return d.round }

// Finished reports whether the horizon has been reached.
func (d *Dissemination) Finished() bool { return d.round >= d.cfg.Rounds }

// Snapshot returns the DisseminationResult summarizing the run so far.
func (d *Dissemination) Snapshot() (any, error) {
	res, err := d.finish()
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (d *Dissemination) step() error {
	n := d.cfg.Graph.N()
	// 0. Lifecycle: departures and arrivals due this round take effect
	// before satiation, so the attacker never serves a node that just left.
	for ev, ok := d.churn.Next(d.round); ok; ev, ok = d.churn.Next(d.round) {
		if d.isAttacker != nil && d.isAttacker[ev.Node] {
			continue // adversary infrastructure does not churn
		}
		if ev.Join {
			if err := d.joinNode(ev.Node); err != nil {
				return err
			}
		} else {
			d.leaveNode(ev.Node)
		}
	}
	// 1. Attacker satiation: targets get the full information for free
	// when the adversary satiates out of protocol (ideal) — trade attackers
	// must work through contacts below. The defense throttles the delivery.
	if d.advInstant {
		targets := d.adv.Targets(d.round)
		if targets.Cap() != n {
			return fmt.Errorf("coding: adversary returned a target set over %d nodes, want %d", targets.Cap(), n)
		}
		// Sparse iteration: O(|satiated set|) per round, not O(n).
		for _, v := range targets.Members() {
			if d.gone(v) || d.satiated(v) || d.isAttacker[v] {
				continue
			}
			if err := d.satiateLimited(v); err != nil {
				return err
			}
		}
	}

	// 2. Gossip: unsatiated nodes contact up to c random neighbors;
	// satiated partners do not respond (a = 0 — the worst case the coding
	// defense must survive). Transfers read start-of-round state.
	d.roundRNG = d.rng.ChildNInto(d.roundRNG, "round", d.round)
	rng := d.roundRNG
	if d.satBuf == nil {
		d.satBuf = make([]bool, n)
	}
	sat := d.satBuf
	for v := 0; v < n; v++ {
		sat[v] = d.satiated(v)
	}
	d.transfers = d.transfers[:0]
	for v := 0; v < n; v++ {
		if d.gone(v) {
			continue
		}
		if d.isAttacker != nil && d.isAttacker[v] {
			// Attacker nodes never collect. Trade attackers initiate
			// contacts to serve their satiation targets; crash and ideal
			// attackers stay silent.
			if d.advTrades {
				d.attackerContacts(v, sat, rng)
			}
			continue
		}
		if sat[v] {
			continue
		}
		nb := d.cfg.Graph.Neighbors(v)
		if len(nb) == 0 {
			continue
		}
		c := min(d.contactsOf(v), len(nb))
		d.sample = rng.SampleIntsInto(d.sample[:0], len(nb), c)
		for _, idx := range d.sample {
			p := int(nb[idx])
			if d.gone(p) {
				continue
			}
			if d.isAttacker != nil && d.isAttacker[p] {
				// The contacted attacker serves per OnExchange, one-way.
				if d.adv.OnExchange(d.round, p, v) {
					d.queue(p, v, rng)
				}
				continue
			}
			if sat[p] {
				continue
			}
			// Bidirectional single-unit exchange.
			d.queue(p, v, rng)
			d.queue(v, p, rng)
		}
	}
	for _, t := range d.transfers {
		if d.def != nil && d.def.Admit(d.round, t.from, t.to, 1) == 0 {
			continue
		}
		if d.cfg.Coded {
			if _, err := d.decs[t.to].Add(t.pkt); err != nil {
				return err
			}
			continue
		}
		if row, bit := d.row(t.to), uint64(1)<<(t.sym%64); row[t.sym/64]&bit == 0 {
			row[t.sym/64] |= bit
			d.count[t.to]++
		}
	}
	return nil
}

// attackerContacts is a trade attacker's round: contact up to c random
// neighbors and queue one unit for each satiation target among them.
//
//lotus:allocfree
func (d *Dissemination) attackerContacts(v int, sat []bool, rng *simrng.Source) {
	nb := d.cfg.Graph.Neighbors(v)
	if len(nb) == 0 {
		return
	}
	c := min(d.contactsOf(v), len(nb))
	d.sample = rng.SampleIntsInto(d.sample[:0], len(nb), c)
	for _, idx := range d.sample {
		p := int(nb[idx])
		if d.gone(p) || d.isAttacker[p] || sat[p] || !d.adv.OnExchange(d.round, v, p) {
			continue
		}
		d.queue(v, p, rng)
	}
}

// queue adds one unit flowing src -> dst: a fresh recoding of the sender's
// span (coded) or a symbol the receiver lacks (plain). The plain path
// allocates nothing once the transfer list has grown; a recoding allocates
// its packet.
//
//lotus:allocfree
func (d *Dissemination) queue(src, dst int, rng *simrng.Source) {
	if d.cfg.Coded {
		if pkt, ok := d.decs[src].Recode(rng); ok {
			d.transfers = append(d.transfers, transfer{from: src, to: dst, pkt: pkt})
		}
		return
	}
	sr, dr := d.row(src), d.row(dst)
	if cands := bitset.CountDiff(sr, dr); cands > 0 {
		d.transfers = append(d.transfers, transfer{from: src, to: dst, sym: d.pickSymbol(sr, dr, cands, rng)})
	}
}

// pickSymbol chooses which of the cands symbols set in sr and clear in dr a
// plain-mode sender moves, walking them in ascending order: uniform (the
// historical single IntN draw) without popularity weights, otherwise one
// Float64 draw walked over the candidates' weight mass — popular symbols
// spread first, starving the tail the way a demand-driven system would.
//
//lotus:allocfree
func (d *Dissemination) pickSymbol(sr, dr []uint64, cands int, rng *simrng.Source) int {
	if d.symWeights == nil {
		return bitset.SelectDiff(sr, dr, rng.IntN(cands))
	}
	total := 0.0
	for i, w := range sr {
		for diff := w &^ dr[i]; diff != 0; diff &= diff - 1 {
			total += d.symWeights[i*64+bits.TrailingZeros64(diff)]
		}
	}
	if total <= 0 {
		// Every candidate has zero popularity; fall back to uniform.
		return bitset.SelectDiff(sr, dr, rng.IntN(cands))
	}
	x := rng.Float64() * total
	acc := 0.0
	last := -1
	for i, w := range sr {
		for diff := w &^ dr[i]; diff != 0; diff &= diff - 1 {
			last = i*64 + bits.TrailingZeros64(diff)
			acc += d.symWeights[last]
			if x < acc {
				return last
			}
		}
	}
	return last
}

func (d *Dissemination) finish() (DisseminationResult, error) {
	n := d.cfg.Graph.N()
	res := d.res
	done := 0
	sum := 0.0
	firstDone := -1
	for v := 0; v < n; v++ {
		if d.satiated(v) {
			done++
			if firstDone == -1 {
				firstDone = v
			}
		}
		sum += d.Progress(v)
	}
	res.CompletedFraction = float64(done) / float64(n)
	res.MeanProgress = sum / float64(n)

	// In coded mode, verify an actual reconstruction against the sources.
	if d.cfg.Coded && firstDone >= 0 {
		decoded, err := d.decs[firstDone].Decode()
		if err != nil {
			return DisseminationResult{}, fmt.Errorf("coding: node %d claims completion but cannot decode: %w", firstDone, err)
		}
		for i := range decoded {
			for j := range decoded[i] {
				if decoded[i][j] != d.sources[i][j] {
					return DisseminationResult{}, fmt.Errorf("coding: node %d decoded symbol %d incorrectly", firstDone, i)
				}
			}
		}
		res.DecodeVerified = true
	}
	return res, nil
}
