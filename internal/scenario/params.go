package scenario

import (
	"fmt"
	"math"
	"slices"

	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/scrip"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
)

// knob bounds a substrate parameter the paper's figures set (figures.go),
// so no -set can hand a simulator a value it would choke on mid-replicate.
type knob struct {
	key        string
	substrates []string
	min, max   float64
	integer    bool
}

const maxKnob = math.MaxInt32

// knobs lists the bounded parameters, in the order Validate checks them.
var knobs = []knob{
	{"report", []string{"gossip"}, 0, maxKnob, true},              // report deliveries larger than this (0 = off)
	{"evict", []string{"gossip"}, 1, maxKnob, true},               // distinct accusers that evict a node
	{"epoch", []string{"gossip"}, 0, maxKnob, true},               // outage window in rounds (0 = off)
	{"graph", []string{"token"}, 0, 2, true},                      // 0 random, 1 complete, 2 square grid
	{"rare", []string{"token", "coding"}, 0, maxKnob, true},       // tokens (symbols) held by few nodes
	{"rareCopies", []string{"token", "coding"}, 1, maxKnob, true}, // holders of each rare token
	{"budget", []string{"scrip"}, 0, maxKnob, true},               // exogenous attack scrip
	{"start", []string{"scrip"}, 0, maxKnob, true},                // first attack round
	{"special", []string{"scrip"}, 0, maxKnob, true},              // specialty providers (agents 0..n-1)
	{"specialReq", []string{"scrip"}, 0, 1, false},                // fraction of specialty requests
	{"altruistProviders", []string{"scrip"}, 0, maxKnob, true},    // altruists among the providers
	{"mint", []string{"scrip"}, 0, maxKnob, false},                // scrip gifted per capita at the start
	{"attack", []string{"swarm"}, 1, 3, true},                     // swarm.AttackKind: 1 off, 2 top uploaders, 3 rare-piece holders
	{"targets", []string{"swarm"}, 0, maxKnob, true},              // concurrent targets of the swarm attack
	{"astart", []string{"swarm"}, 0, maxKnob, true},               // attack start tick
	{"astop", []string{"swarm"}, 0, maxKnob, true},                // attack stop tick (0 = never)
	{"selection", []string{"swarm"}, 1, 2, true},                  // swarm.Selection: 1 random, 2 rarest-first
}

// validateKnobs reports the first bounded parameter out of range, then the
// first inconsistent combination, or nil.
func (s *Spec) validateKnobs() error {
	for _, k := range knobs {
		v, ok := s.Params[k.key]
		if !ok || !slices.Contains(k.substrates, s.Substrate) {
			continue
		}
		if v < k.min || v > k.max || (k.integer && v != math.Trunc(v)) {
			kind := "a number"
			if k.integer {
				kind = "an integer"
			}
			return fmt.Errorf("scenario: params.%s must be %s in [%g,%g], got %g", k.key, kind, k.min, k.max, v)
		}
	}
	n := s.population()
	switch s.Substrate {
	case "token", "coding":
		items := int(s.param("tokens", 32))
		if s.Substrate == "coding" {
			items = int(s.param("symbols", 24))
		}
		rare, copies := int(s.param("rare", 0)), int(s.param("rareCopies", 1))
		if rare > 0 && rare >= items {
			return fmt.Errorf("scenario: params.rare=%d leaves no common token among %d", rare, items)
		}
		if rare > 0 && rare > n/copies {
			return fmt.Errorf("scenario: params.rare=%d with params.rareCopies=%d needs at least %d nodes, got %d", rare, copies, rare*copies, n)
		}
		if s.param("graph", 0) == 2 {
			if side := int(math.Sqrt(float64(n))); side*side != n {
				return fmt.Errorf("scenario: params.graph=2 (grid) needs a square node count, got %d", n)
			}
		}
	case "scrip":
		special := int(s.param("special", 0))
		switch {
		case special > n:
			return fmt.Errorf("scenario: params.special=%d exceeds the %d agents", special, n)
		case s.param("specialReq", 0) > 0 && special == 0:
			return fmt.Errorf("scenario: params.specialReq needs params.special > 0")
		case int(s.param("altruistProviders", 0)) > special:
			return fmt.Errorf("scenario: params.altruistProviders exceeds params.special=%d", special)
		}
	case "swarm":
		start, stop := s.param("astart", 0), s.param("astop", 0)
		if stop > 0 && stop <= start {
			return fmt.Errorf("scenario: params.astop=%g must exceed params.astart=%g", stop, start)
		}
		if swarm.AttackKind(s.param("attack", 1)) != swarm.AttackOff {
			if kind := s.Adversary.Kind; kind != "" && kind != "none" {
				return fmt.Errorf("scenario: params.attack replaces the adversary; set adversary.kind none, got %q", kind)
			}
			if s.param("targets", 0) < 1 {
				return fmt.Errorf("scenario: params.attack needs params.targets >= 1")
			}
		}
	}
	return nil
}

// population returns the node count a spec runs at: Nodes, or the
// substrate default.
func (s *Spec) population() int {
	if s.Nodes > 0 {
		return s.Nodes
	}
	switch s.Substrate {
	case "gossip":
		return gossip.DefaultConfig().Nodes
	case "scrip":
		return scrip.DefaultConfig().Agents
	case "swarm":
		return swarm.DefaultConfig().Leechers
	case "coding":
		return 96
	default:
		return 128
	}
}

// tokenGraph builds the token model's communication graph: params.graph 0
// is a random graph of params.degree neighbours per node, 1 the complete
// graph, 2 a square grid.
func (s *Spec) tokenGraph(n int, rng *simrng.Source) *graph.Graph {
	switch int(s.param("graph", 0)) {
	case 1:
		return graph.Complete(n)
	case 2:
		side := int(math.Sqrt(float64(n)))
		return graph.Grid(side, side)
	default:
		return graph.RandomRegularish(n, int(s.param("degree", 4)), rng.Child("graph"))
	}
}

// rareAllocation gives each of the first params.rare tokens (or symbols)
// params.rareCopies evenly spaced holders — copy c of token t on node
// t + c·n/copies — and every other node one common token drawn uniformly
// (from the replicate's "alloc" stream). Nil, the substrate's
// node-mod-items default, when nothing is rare.
func (s *Spec) rareAllocation(n, items int, rng *simrng.Source) []int {
	rare := int(s.param("rare", 0))
	if rare <= 0 {
		return nil
	}
	alloc := make([]int, n)
	draw := rng.Child("alloc")
	for v := range alloc {
		alloc[v] = rare + draw.IntN(items-rare)
	}
	copies := int(s.param("rareCopies", 1))
	stride := n / copies
	for t := 0; t < rare; t++ {
		for c := 0; c < copies; c++ {
			alloc[t+c*stride] = t
		}
	}
	return alloc
}

// gift mints perCapita scrip per agent as unconditional gifts before the
// first round — satiation by inflation, with no one targeted. A fractional
// amount hands the remainder out one unit at a time from agent 0.
func gift(m *scrip.Sim, agents int, perCapita float64) error {
	total := int(perCapita * float64(agents))
	each, rem := total/agents, total%agents
	for i := 0; i < agents && total > 0; i++ {
		amount := each
		if i < rem {
			amount++
		}
		if err := m.Mint(i, amount); err != nil {
			return err
		}
	}
	return nil
}
