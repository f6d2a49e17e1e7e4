package coding

import (
	"fmt"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/bitset"
	"lotuseater/internal/defense"
	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

// plainOracle is the plain-mode half of the Dissemination that kept one
// bitset.Set per node and listed each sender's candidates in a fresh
// slice, kept verbatim as the oracle for the holdings-matrix kernel. The
// coded branches are dropped, and the Set methods Clear, Fill and Missing,
// which went with the old kernel, are spelled out with New, Add and Has.
type plainOracle struct {
	cfg      DisseminationConfig
	rng      *simrng.Source
	roundRNG *simrng.Source

	adv        *attack.Strategy
	def        *defense.RateLimiter
	advTrades  bool
	advInstant bool
	isAttacker []bool

	plain []*bitset.Set

	churn      population.Cursor
	departed   []bool
	symWeights []float64

	round  int
	satBuf []bool
}

func newPlainOracle(cfg DisseminationConfig, seed uint64, adv *attack.Strategy, def *defense.RateLimiter) (*plainOracle, error) {
	d := &plainOracle{cfg: cfg, rng: simrng.New(seed), adv: adv, def: def}
	n := cfg.Graph.N()
	d.plain = make([]*bitset.Set, n)
	for v := 0; v < n; v++ {
		d.plain[v] = bitset.New(cfg.Symbols)
		tok := v % cfg.Symbols
		if cfg.Allocation != nil {
			tok = cfg.Allocation[v]
		}
		if tok < 0 || tok >= cfg.Symbols {
			return nil, fmt.Errorf("coding: Allocation[%d] = %d out of range", v, tok)
		}
		d.plain[v].Add(tok)
	}
	if d.adv != nil {
		d.advTrades = d.adv.TradesInProtocol()
		d.advInstant = d.adv.SatiatesInstantly()
		d.isAttacker = make([]bool, n)
		for _, a := range d.adv.Place(n, d.rng.Child("adversary")) {
			d.isAttacker[a] = true
			if d.advTrades || d.advInstant {
				d.satiateNode(a)
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

func (d *plainOracle) gone(v int) bool { return d.departed != nil && d.departed[v] }

func (d *plainOracle) contactsOf(v int) int {
	if d.cfg.NodeContacts != nil {
		return d.cfg.NodeContacts[v]
	}
	return d.cfg.Contacts
}

func (d *plainOracle) leaveNode(v int) {
	if d.gone(v) {
		return
	}
	d.departed[v] = true
	if d.adv != nil {
		d.adv.NodeDeparted(d.round, v)
	}
}

func (d *plainOracle) joinNode(v int) {
	if !d.gone(v) {
		return
	}
	d.departed[v] = false
	d.plain[v] = bitset.New(d.cfg.Symbols)
	tok := v % d.cfg.Symbols
	if d.cfg.Allocation != nil {
		tok = d.cfg.Allocation[v]
	}
	d.plain[v].Add(tok)
}

func (d *plainOracle) satiateNode(v int) {
	for s := 0; s < d.cfg.Symbols; s++ {
		d.plain[v].Add(s)
	}
}

func (d *plainOracle) satiateLimited(v int) {
	if d.def == nil {
		d.satiateNode(v)
		return
	}
	var missing []int
	for s := 0; s < d.cfg.Symbols; s++ {
		if !d.plain[v].Has(s) {
			missing = append(missing, s)
		}
	}
	granted := d.def.Admit(d.round, -1, v, len(missing))
	if granted > len(missing) {
		granted = len(missing)
	}
	for _, t := range missing[:granted] {
		d.plain[v].Add(t)
	}
}

func (d *plainOracle) satiated(v int) bool { return d.plain[v].Len() >= d.cfg.Symbols }

// step is the parent's plain-mode step followed by Step's round advance.
func (d *plainOracle) step() error {
	n := d.cfg.Graph.N()
	for ev, ok := d.churn.Next(d.round); ok; ev, ok = d.churn.Next(d.round) {
		if d.isAttacker != nil && d.isAttacker[ev.Node] {
			continue
		}
		if ev.Join {
			d.joinNode(ev.Node)
		} else {
			d.leaveNode(ev.Node)
		}
	}
	if d.advInstant {
		targets := d.adv.Targets(d.round)
		if targets.Cap() != n {
			return fmt.Errorf("coding: adversary returned a target set over %d nodes, want %d", targets.Cap(), n)
		}
		for _, v := range targets.Members() {
			if d.gone(v) || d.satiated(v) || d.isAttacker[v] {
				continue
			}
			d.satiateLimited(v)
		}
	}
	d.roundRNG = d.rng.ChildNInto(d.roundRNG, "round", d.round)
	rng := d.roundRNG
	if d.satBuf == nil {
		d.satBuf = make([]bool, n)
	}
	sat := d.satBuf
	for v := 0; v < n; v++ {
		sat[v] = d.satiated(v)
	}
	type transfer struct {
		from int
		to   int
		sym  int
	}
	var transfers []transfer
	queue := func(src, dst int) {
		var cands []int
		d.plain[src].ForEach(func(s int) {
			if !d.plain[dst].Has(s) {
				cands = append(cands, s)
			}
		})
		if len(cands) > 0 {
			transfers = append(transfers, transfer{from: src, to: dst, sym: d.pickSymbol(cands, rng)})
		}
	}
	for v := 0; v < n; v++ {
		if d.gone(v) {
			continue
		}
		if d.isAttacker != nil && d.isAttacker[v] {
			if d.advTrades {
				d.attackerContacts(v, sat, rng, queue)
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
		for _, idx := range rng.SampleInts(len(nb), c) {
			p := int(nb[idx])
			if d.gone(p) {
				continue
			}
			if d.isAttacker != nil && d.isAttacker[p] {
				if d.adv.OnExchange(d.round, p, v) {
					queue(p, v)
				}
				continue
			}
			if sat[p] {
				continue
			}
			queue(p, v)
			queue(v, p)
		}
	}
	for _, t := range transfers {
		if d.def != nil && d.def.Admit(d.round, t.from, t.to, 1) == 0 {
			continue
		}
		d.plain[t.to].Add(t.sym)
	}
	d.round++
	return nil
}

func (d *plainOracle) attackerContacts(v int, sat []bool, rng *simrng.Source, queue func(src, dst int)) {
	nb := d.cfg.Graph.Neighbors(v)
	if len(nb) == 0 {
		return
	}
	c := min(d.contactsOf(v), len(nb))
	for _, idx := range rng.SampleInts(len(nb), c) {
		p := int(nb[idx])
		if d.gone(p) || d.isAttacker[p] || sat[p] || !d.adv.OnExchange(d.round, v, p) {
			continue
		}
		queue(v, p)
	}
}

func (d *plainOracle) pickSymbol(cands []int, rng *simrng.Source) int {
	if d.symWeights == nil {
		return cands[rng.IntN(len(cands))]
	}
	total := 0.0
	for _, s := range cands {
		total += d.symWeights[s]
	}
	if total <= 0 {
		return cands[rng.IntN(len(cands))]
	}
	x := rng.Float64() * total
	acc := 0.0
	for _, s := range cands {
		acc += d.symWeights[s]
		if x < acc {
			return s
		}
	}
	return cands[len(cands)-1]
}

// TestPlainStepMatchesOracle steps the holdings-matrix kernel beside the
// per-node bitset oracle over every plain golden case at four seeds, and
// requires every node to hold exactly the same symbols after every round.
func TestPlainStepMatchesOracle(t *testing.T) {
	for _, c := range goldenCases() {
		for _, seed := range []uint64{7, 8, 9, 10} {
			cfg := c.cfg(seed)
			if cfg.Coded {
				continue
			}
			var opts []DisseminationOption
			var oracleAdv *attack.Strategy
			var oracleDef *defense.RateLimiter
			if c.adv != nil {
				opts = append(opts, WithAdversary(c.adv()))
				oracleAdv = c.adv()
			}
			if c.def != nil {
				opts = append(opts, WithDefense(c.def()))
				oracleDef = c.def()
			}
			d, err := NewDissemination(cfg, seed, opts...)
			if err != nil {
				t.Fatal(err)
			}
			o, err := newPlainOracle(cfg, seed, oracleAdv, oracleDef)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; !d.Finished(); round++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
				if err := o.step(); err != nil {
					t.Fatal(err)
				}
				for v := range o.plain {
					if d.count[v] != o.plain[v].Len() {
						t.Fatalf("%s/seed%d round %d: node %d holds %d symbols, oracle %d", c.name, seed, round, v, d.count[v], o.plain[v].Len())
					}
					row := d.row(v)
					for s := 0; s < len(row)*64; s++ {
						if has := row[s/64]&(1<<(s%64)) != 0; has != o.plain[v].Has(s) {
							t.Fatalf("%s/seed%d round %d: node %d symbol %d held %v, oracle %v", c.name, seed, round, v, s, has, !has)
						}
					}
				}
			}
		}
	}
}
