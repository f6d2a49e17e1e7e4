package tokenmodel

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// refSet is the oracle's token set: one bool per token and a count, with
// the semantics of the per-node bit sets the model kept before it moved to
// one holdings matrix.
type refSet struct {
	has   []bool
	count int
}

func newRefSet(n int) *refSet { return &refSet{has: make([]bool, n)} }

func (s *refSet) Len() int   { return s.count }
func (s *refSet) Full() bool { return s.count == len(s.has) }

func (s *refSet) Has(i int) bool { return i >= 0 && i < len(s.has) && s.has[i] }

func (s *refSet) Add(i int) {
	if !s.has[i] {
		s.has[i] = true
		s.count++
	}
}

func (s *refSet) Fill() {
	for i := range s.has {
		s.has[i] = true
	}
	s.count = len(s.has)
}

func (s *refSet) Clear() {
	clear(s.has)
	s.count = 0
}

func (s *refSet) CopyFrom(o *refSet) {
	copy(s.has, o.has)
	s.count = o.count
}

// UnionWith merges o into s and returns how many members were new to s.
func (s *refSet) UnionWith(o *refSet) int {
	added := 0
	for i, h := range o.has {
		if h && !s.has[i] {
			s.has[i] = true
			added++
		}
	}
	s.count += added
	return added
}

// ForEach calls fn for every member in ascending order.
func (s *refSet) ForEach(fn func(int)) {
	for i, h := range s.has {
		if h {
			fn(i)
		}
	}
}

// pack writes the set as a holdings row: bit t of row[t/64] is set iff t is
// a member.
func (s *refSet) pack(row []uint64) {
	clear(row)
	for i, h := range s.has {
		if h {
			row[i/64] |= 1 << (i % 64)
		}
	}
}

// Missing returns the non-members in ascending order.
func (s *refSet) Missing() []int {
	var out []int
	for i, h := range s.has {
		if !h {
			out = append(out, i)
		}
	}
	return out
}

// oracle is the model's round logic as it stood on per-node sets: Step,
// transferInto, satiate and attackerContacts are kept as they were, with
// only the set type swapped for refSet.
type oracle struct {
	cfg Config
	rng *simrng.Source

	adv        *attack.Strategy
	def        *defense.RateLimiter
	isAttacker []bool
	touched    []bool
	advTrades  bool
	advInstant bool

	round     int
	held      []*refSet
	completed []int
	result    Result

	churn    population.Cursor
	departed []bool

	snapshot []*refSet
	gains    []*refSet
	sat      []bool
}

func newOracle(cfg Config, seed uint64, adv *attack.Strategy, def *defense.RateLimiter) (*oracle, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	s := &oracle{cfg: cfg, rng: simrng.New(seed), adv: adv, def: def}
	s.held = make([]*refSet, n)
	s.snapshot = make([]*refSet, n)
	s.gains = make([]*refSet, n)
	for v := 0; v < n; v++ {
		s.held[v] = newRefSet(cfg.Tokens)
		s.snapshot[v] = newRefSet(cfg.Tokens)
		s.gains[v] = newRefSet(cfg.Tokens)
	}
	s.sat = make([]bool, n)
	s.completed = make([]int, n)
	for v := 0; v < n; v++ {
		tok := v % cfg.Tokens
		if cfg.Allocation != nil {
			tok = cfg.Allocation[v]
		}
		s.held[v].Add(tok)
		s.completed[v] = -1
	}
	if s.adv != nil {
		s.advTrades = s.adv.TradesInProtocol()
		s.advInstant = s.adv.SatiatesInstantly()
		s.isAttacker = make([]bool, n)
		s.touched = make([]bool, n)
		for _, a := range s.adv.Place(n, s.rng.Child("adversary")) {
			s.isAttacker[a] = true
			if s.advTrades || s.advInstant {
				s.held[a].Fill()
			}
		}
	}
	for v := 0; v < n; v++ {
		if s.held[v].Full() {
			s.completed[v] = 0
		}
	}
	if len(cfg.Churn) > 0 {
		s.churn = population.NewCursor(cfg.Churn)
		s.departed = make([]bool, n)
	}
	return s, nil
}

func (s *oracle) gone(v int) bool { return s.departed != nil && s.departed[v] }

func (s *oracle) contactsOf(v int) int {
	if s.cfg.NodeContacts != nil {
		return s.cfg.NodeContacts[v]
	}
	return s.cfg.Contacts
}

func (s *oracle) altruismOf(v int) float64 {
	if s.cfg.NodeAltruism != nil {
		return s.cfg.NodeAltruism[v]
	}
	return s.cfg.Altruism
}

func (s *oracle) leaveNode(v int) {
	if s.departed[v] {
		return
	}
	s.departed[v] = true
	if s.adv != nil {
		s.adv.NodeDeparted(s.round, v)
	}
}

func (s *oracle) joinNode(v int) {
	if !s.departed[v] {
		return
	}
	s.departed[v] = false
	s.held[v].Clear()
	if s.isAttacker != nil && s.isAttacker[v] && (s.advTrades || s.advInstant) {
		s.held[v].Fill()
		s.completed[v] = s.round
		return
	}
	tok := v % s.cfg.Tokens
	if s.cfg.Allocation != nil {
		tok = s.cfg.Allocation[v]
	}
	s.held[v].Add(tok)
	s.completed[v] = -1
}

func (s *oracle) Step() error {
	if s.round >= s.cfg.Rounds {
		return fmt.Errorf("oracle: horizon of %d rounds exhausted", s.cfg.Rounds)
	}
	n := s.cfg.Graph.N()
	for ev, ok := s.churn.Next(s.round); ok; ev, ok = s.churn.Next(s.round) {
		if ev.Join {
			s.joinNode(ev.Node)
		} else {
			s.leaveNode(ev.Node)
		}
	}
	if s.advInstant {
		targets := s.adv.Targets(s.round)
		if targets.Cap() != n {
			return fmt.Errorf("oracle: target set over %d nodes, want %d", targets.Cap(), n)
		}
		for _, v := range targets.Members() {
			if s.held[v].Full() || s.gone(v) || s.isAttacker[v] {
				continue
			}
			s.satiate(v)
		}
	}
	snapshot, gains, sat := s.snapshot, s.gains, s.sat
	for v := 0; v < n; v++ {
		snapshot[v].CopyFrom(s.held[v])
		gains[v].Clear()
		sat[v] = snapshot[v].Full()
	}
	rng := s.rng.ChildN("round", s.round)
	for v := 0; v < n; v++ {
		if s.gone(v) {
			continue
		}
		if s.isAttacker != nil && s.isAttacker[v] {
			if s.advTrades {
				s.attackerContacts(v, sat, rng)
			}
			continue
		}
		if sat[v] {
			continue
		}
		nb := s.cfg.Graph.Neighbors(v)
		if len(nb) == 0 {
			continue
		}
		c := s.contactsOf(v)
		if c > len(nb) {
			c = len(nb)
		}
		for _, idx := range rng.SampleInts(len(nb), c) {
			p := int(nb[idx])
			if s.gone(p) {
				continue
			}
			if s.isAttacker != nil && s.isAttacker[p] {
				if s.adv.OnExchange(s.round, p, v) && s.transferInto(v, p) > 0 {
					s.touched[v] = true
				}
				continue
			}
			if sat[p] && !rng.Bool(s.altruismOf(p)) {
				continue
			}
			s.transferInto(v, p)
			s.transferInto(p, v)
		}
	}
	for v := 0; v < n; v++ {
		s.held[v].UnionWith(gains[v])
		if s.completed[v] == -1 && s.held[v].Full() {
			s.completed[v] = s.round
		}
	}
	count := 0
	for v := 0; v < n; v++ {
		if !s.gone(v) && s.held[v].Full() {
			count++
		}
	}
	s.result.SatiatedByRound = append(s.result.SatiatedByRound, count)
	s.round++
	return nil
}

func (s *oracle) satiate(v int) {
	if s.def == nil {
		s.held[v].Fill()
		if s.touched != nil {
			s.touched[v] = true
		}
		return
	}
	missing := s.held[v].Missing()
	granted := s.def.Admit(s.round, -1, v, len(missing))
	if granted > len(missing) {
		granted = len(missing)
	}
	for _, t := range missing[:granted] {
		s.held[v].Add(t)
	}
	if granted > 0 && s.touched != nil {
		s.touched[v] = true
	}
}

func (s *oracle) attackerContacts(v int, sat []bool, rng *simrng.Source) {
	nb := s.cfg.Graph.Neighbors(v)
	if len(nb) == 0 {
		return
	}
	c := s.contactsOf(v)
	if c > len(nb) {
		c = len(nb)
	}
	for _, idx := range rng.SampleInts(len(nb), c) {
		p := int(nb[idx])
		if s.gone(p) || s.isAttacker[p] || sat[p] || !s.adv.OnExchange(s.round, v, p) {
			continue
		}
		if s.transferInto(p, v) > 0 {
			s.touched[p] = true
		}
	}
}

func (s *oracle) transferInto(dst, src int) int {
	if s.def == nil {
		return s.gains[dst].UnionWith(s.snapshot[src])
	}
	need := 0
	s.snapshot[src].ForEach(func(t int) {
		if !s.snapshot[dst].Has(t) && !s.gains[dst].Has(t) {
			need++
		}
	})
	if need == 0 {
		return 0
	}
	granted := s.def.Admit(s.round, src, dst, need)
	if granted >= need {
		return s.gains[dst].UnionWith(s.snapshot[src])
	}
	taken := 0
	s.snapshot[src].ForEach(func(t int) {
		if taken >= granted {
			return
		}
		if !s.snapshot[dst].Has(t) && !s.gains[dst].Has(t) {
			s.gains[dst].Add(t)
			taken++
		}
	})
	return taken
}

func (s *oracle) finish() Result {
	n := s.cfg.Graph.N()
	res := s.result
	res.AllSatiatedRound = -1
	for r, c := range res.SatiatedByRound {
		if c == n {
			res.AllSatiatedRound = r
			break
		}
	}
	done := 0
	sum := 0.0
	for v := 0; v < n; v++ {
		if s.completed[v] >= 0 {
			done++
			sum += float64(s.completed[v])
		} else {
			sum += float64(s.cfg.Rounds)
		}
	}
	if n > 0 {
		res.CompletedFraction = float64(done) / float64(n)
		res.MeanCompletionRound = sum / float64(n)
	}
	organicDone, organicTotal := 0, 0
	for v := 0; v < n; v++ {
		if s.isAttacker != nil && s.isAttacker[v] {
			continue
		}
		if s.touched != nil && s.touched[v] {
			res.SatiatedByAttacker++
			continue
		}
		organicTotal++
		if s.completed[v] >= 0 {
			organicDone++
		}
	}
	if organicTotal > 0 {
		res.OrganicCompletedFraction = float64(organicDone) / float64(organicTotal)
	}
	res.TokenCoverage = make([]float64, s.cfg.Tokens)
	for t := 0; t < s.cfg.Tokens; t++ {
		holders := 0
		for v := 0; v < n; v++ {
			if s.held[v].Has(t) {
				holders++
			}
		}
		if n > 0 {
			res.TokenCoverage[t] = float64(holders) / float64(n)
		}
	}
	return res
}

// oracleGraph builds one of the grid's communication graphs over n nodes.
func oracleGraph(kind string, n int, rng *simrng.Source) *graph.Graph {
	switch kind {
	case "complete":
		return graph.Complete(n)
	case "random":
		return graph.Random(n, 0.2, rng)
	default: // two cliques with no bridge, plus an isolated node
		return twoCliques(n, (n-1)/2)
	}
}

// oracleChurn makes every node leave once and most of them rejoin later,
// so honest and attacker nodes both come back as fresh agents.
func oracleChurn(n, rounds int) []population.Event {
	var events []population.Event
	for r := 1; r < rounds; r++ {
		for v := 0; v < n; v++ {
			switch {
			case r == 1+v%5:
				events = append(events, population.Event{Round: r, Node: v})
			case r == 3+v%5+v%3 && v%4 != 3:
				events = append(events, population.Event{Round: r, Node: v, Join: true})
			}
		}
	}
	return events
}

// oracleAdversaries is the grid's adversaries: none, crash, and ideal and
// trade each with a target set redrawn every 5 rounds, a fixed one, and a
// fixed one whose campaign runs over rounds [3, 9) only.
func oracleAdversaries() []attack.Strategy {
	out := []attack.Strategy{{Kind: attack.None}, {Kind: attack.Crash, Fraction: 0.15, SatiateFraction: 0.4}}
	for _, kind := range []attack.Kind{attack.Ideal, attack.Trade} {
		base := attack.Strategy{Kind: kind, Fraction: 0.15, SatiateFraction: 0.4}
		rotating, window := base, base
		rotating.RotatePeriod = 5
		window.Start, window.Stop = 3, 9
		out = append(out, rotating, base, window)
	}
	return out
}

// TestMatrixMatchesOracle steps the holdings-matrix Sim next to the
// per-node-set oracle over a grid of token counts (one word, exactly one
// word, and rows spilling into a second and third word), graphs, contact
// budgets, altruism, churn, adversaries and defense caps, and requires the
// same observable state after every round and the same final Result. Each
// case runs without a workspace and on one workspace shared by every case,
// so it is also reused after shape changes.
func TestMatrixMatchesOracle(t *testing.T) {
	const n, rounds = 21, 14
	ws := sim.NewWorkspace()
	cases := 0
	for _, tokens := range []int{1, 5, 24, 63, 64, 65, 130} {
		for _, gk := range []string{"complete", "random", "disconnected"} {
			for _, contacts := range []int{0, 1, 3} {
				for ai, altruism := range []float64{0, 0.3, -1} {
					for _, churn := range []bool{false, true} {
						for _, adv := range oracleAdversaries() {
							for _, limit := range []int{0, 1, 4} {
								seed := uint64(cases)
								rng := simrng.New(seed)
								cfg := Config{
									Graph:    oracleGraph(gk, n, rng.Child("graph")),
									Tokens:   tokens,
									Contacts: contacts,
									Altruism: max(altruism, 0),
									Rounds:   rounds,
								}
								if altruism < 0 {
									// Per-node classes: every third node altruistic,
									// budgets cycling 0..contacts+1.
									cfg.NodeAltruism = make([]float64, n)
									cfg.NodeContacts = make([]int, n)
									for v := range cfg.NodeAltruism {
										if v%3 == 0 {
											cfg.NodeAltruism[v] = 0.5
										}
										cfg.NodeContacts[v] = v % (contacts + 2)
									}
								}
								if tokens > 1 && (ai+cases)%2 == 0 {
									cfg.Allocation = make([]int, n)
									for v := range cfg.Allocation {
										cfg.Allocation[v] = rng.IntN(tokens)
									}
								}
								if churn {
									cfg.Churn = oracleChurn(n, rounds)
								}
								name := fmt.Sprintf("tokens=%d/%s/c=%d/a=%g/churn=%v/%v/rotate=%d/window=[%d,%d)/limit=%d",
									tokens, gk, contacts, altruism, churn, adv.Kind, adv.RotatePeriod, adv.Start, adv.Stop, limit)
								ws.Reset()
								compareWithOracle(t, name, cfg, seed, adv, limit, ws)
								cases++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases matched the oracle", cases)
}

// compareWithOracle runs one case on the oracle and on two Sims, one
// without and one with the workspace, checking them after every round, and
// on a third Sim driven only until Finished, whose final Result must be
// the oracle's too. Each round packs the oracle's sets into rows once and
// compares every Sim row with its row word for word; Has is checked only
// just outside [0, Tokens), where the rows say nothing.
func compareWithOracle(t *testing.T, name string, cfg Config, seed uint64, adv attack.Strategy, limit int, ws *sim.Workspace) {
	t.Helper()
	adversary := func() *attack.Strategy {
		if adv.Kind == attack.None {
			return nil
		}
		a := adv
		return &a
	}
	guard := func() *defense.RateLimiter {
		if limit == 0 {
			return nil
		}
		return defense.NewRateLimiter(limit)
	}
	build := func(ws *sim.Workspace) *Sim {
		var opts []Option
		if adv := adversary(); adv != nil {
			opts = append(opts, WithAdversary(adv))
		}
		if def := guard(); def != nil {
			opts = append(opts, WithDefense(def))
		}
		if ws != nil {
			opts = append(opts, WithWorkspace(ws))
		}
		s, err := New(cfg, seed, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	ref, err := newOracle(cfg, seed, adversary(), guard())
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	sims := []*Sim{build(nil), build(ws)}
	early, err := sim.Drive(build(nil))
	if err != nil {
		t.Fatalf("%s: Drive: %v", name, err)
	}
	n := cfg.Graph.N()
	words := (cfg.Tokens + 63) / 64
	rows := make([]uint64, n*words)
	for r := 0; r < cfg.Rounds; r++ {
		if err := ref.Step(); err != nil {
			t.Fatalf("%s: oracle round %d: %v", name, r, err)
		}
		for v := 0; v < n; v++ {
			ref.held[v].pack(rows[v*words : (v+1)*words])
		}
		for k, s := range sims {
			if err := s.Step(); err != nil {
				t.Fatalf("%s: sim %d round %d: %v", name, k, r, err)
			}
			if !reflect.DeepEqual(s.result.SatiatedByRound, ref.result.SatiatedByRound) {
				t.Fatalf("%s: sim %d round %d: SatiatedByRound %v, oracle %v",
					name, k, r, s.result.SatiatedByRound, ref.result.SatiatedByRound)
			}
			for v := 0; v < n; v++ {
				if got, want := s.HeldCount(v), ref.held[v].Len(); got != want {
					t.Fatalf("%s: sim %d round %d: HeldCount(%d) = %d, oracle %d", name, k, r, v, got, want)
				}
				if got, want := s.Satiated(v), ref.held[v].Full(); got != want {
					t.Fatalf("%s: sim %d round %d: Satiated(%d) = %v, oracle %v", name, k, r, v, got, want)
				}
				if got, want := s.row(s.held, v), rows[v*words:(v+1)*words]; !slices.Equal(got, want) {
					t.Fatalf("%s: sim %d round %d: row %d = %x, oracle %x", name, k, r, v, got, want)
				}
				for _, tok := range []int{-1, cfg.Tokens} {
					if got, want := s.Has(v, tok), ref.held[v].Has(tok); got != want {
						t.Fatalf("%s: sim %d round %d: Has(%d, %d) = %v, oracle %v", name, k, r, v, tok, got, want)
					}
				}
				if got, want := s.CompletionRound(v), ref.completed[v]; got != want {
					t.Fatalf("%s: sim %d round %d: CompletionRound(%d) = %d, oracle %d", name, k, r, v, got, want)
				}
			}
		}
	}
	want := ref.finish()
	for k, s := range sims {
		got, err := s.Snapshot()
		if err != nil {
			t.Fatalf("%s: sim %d: %v", name, k, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: sim %d: Result\n%+v\noracle\n%+v", name, k, got, want)
		}
	}
	if !reflect.DeepEqual(early, want) {
		t.Fatalf("%s: driven until Finished: Result\n%+v\noracle\n%+v", name, early, want)
	}
}
