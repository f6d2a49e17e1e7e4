package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/scrip"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
)

// declared lists the params keys each substrate's builder reads, sorted.
// Validate rejects any other key, and reading an undeclared one panics.
var declared = map[string][]string{
	"gossip": {"altruism", "copies", "epoch", "evict", "lifetime", "obedient", "push", "report", "slack", "updates", "warmup"},
	"token":  {"altruism", "contacts", "degree", "graph", "rare", "rareCopies", "tokens"},
	"scrip":  {"altruistProviders", "altruists", "budget", "cost", "mint", "money", "special", "specialReq", "threshold"},
	"swarm":  {"peerset", "pieces", "seedAfter", "seedDepart", "selection", "slots", "uplink"},
	"coding": {"coded", "contacts", "degree", "payload", "rare", "rareCopies", "symbols"},
}

// knob bounds a substrate parameter at the trust boundary, before any
// config step reads it: its error names the params key, an integer knob
// refuses the fraction a builder would silently truncate, and the upper
// bounds (maxItems, maxKnob) cap what no simulator caps. Many lower bounds
// repeat a rule of the simulator's own Validate, which runs next on the
// whole configuration (substrate.check); the rest guard keys no Config
// holds, such as degree, graph and rareCopies. It applies on every
// substrate that declares the key.
type knob struct {
	key      string
	min, max float64
	integer  bool
}

const maxKnob = math.MaxInt32

// maxItems bounds the keys that size per-node state: every node keeps a
// row, bit set or buffer of tokens, pieces, symbols or payload bytes, and
// gossip a holdings row of lifetime × updates live updates. It also bounds
// gossip's Zipf catalog (population.popularity.items), whose weights
// validation computes.
const maxItems = 1 << 16

// knobs lists the bounded parameters, in the order Validate checks them.
// Every integer key of every substrate is here.
var knobs = []knob{
	{"report", 0, maxKnob, true},             // gossip: report deliveries larger than this (0 = off)
	{"evict", 1, maxKnob, true},              // gossip: distinct accusers that evict a node
	{"epoch", 0, maxKnob, true},              // gossip: outage window in rounds (0 = off)
	{"updates", 1, maxItems, true},           // gossip: updates released per round
	{"lifetime", 1, maxItems, true},          // gossip: rounds an update stays live
	{"copies", 1, maxKnob, true},             // gossip: nodes seeded with each update (at most nodes)
	{"push", 0, maxKnob, true},               // gossip: optimistic push size (0 = off)
	{"slack", 0, maxKnob, true},              // gossip: extra updates a balanced exchange gives
	{"warmup", 0, maxKnob, true},             // gossip: unmeasured rounds (fewer than rounds)
	{"obedient", 0, 1, false},                // gossip: fraction of obedient nodes
	{"altruism", 0, 1, false},                // gossip, token: chance a satiated node serves anyway
	{"tokens", 1, maxItems, true},            // token: |T|
	{"graph", 0, 2, true},                    // token: 0 random, 1 complete, 2 square grid
	{"degree", 0, maxKnob, true},             // token, coding: random-graph degree (capped at nodes-1)
	{"contacts", 0, maxKnob, true},           // token, coding: contacts per node per round
	{"symbols", 1, maxItems, true},           // coding: source symbols
	{"payload", 1, maxItems, true},           // coding: bytes per symbol
	{"coded", 0, 1, true},                    // coding: 1 recodes (RLNC), 0 forwards plain symbols
	{"rare", 0, maxKnob, true},               // token, coding: tokens (symbols) held by few nodes
	{"rareCopies", 1, maxKnob, true},         // token, coding: holders of each rare token
	{"threshold", 1, maxKnob, true},          // scrip: balance at which a rational agent stops volunteering
	{"money", 0, maxKnob, true},              // scrip: scrip per capita
	{"altruists", 0, 1, false},               // scrip: fraction of altruists
	{"cost", 0, math.Nextafter(1, 0), false}, // scrip: a provider's cost of serving, below the benefit of 1
	{"budget", 0, maxKnob, true},             // scrip: exogenous attack scrip
	{"special", 0, maxKnob, true},            // scrip: specialty providers (agents 0..n-1)
	{"specialReq", 0, 1, false},              // scrip: fraction of specialty requests
	{"altruistProviders", 0, maxKnob, true},  // scrip: altruists among the providers
	{"mint", 0, maxKnob, false},              // scrip: scrip gifted per capita at the start
	{"pieces", 1, maxItems, true},            // swarm: pieces in the file
	{"slots", 1, maxKnob, true},              // swarm: upload slots per node
	{"peerset", 2, maxKnob, true},            // swarm: neighbours per node
	{"seedDepart", 0, maxKnob, true},         // swarm: tick the initial seed leaves (0 = never)
	{"seedAfter", 0, 1, true},                // swarm: 1 completed leechers keep seeding, 0 leave
	{"uplink", 1, maxKnob, true},             // swarm: attacker upload pieces per tick
	{"selection", 1, 2, true},                // swarm: 1 random, 2 rarest-first
}

// knobOf returns the bound on params key, or nil when the key has none.
func knobOf(key string) *knob {
	if i := slices.IndexFunc(knobs, func(k knob) bool { return k.key == key }); i >= 0 {
		return &knobs[i]
	}
	return nil
}

// validateParams reports the first params key (or params.<key> sweep axis)
// the spec's substrate does not read, then the first bounded parameter out
// of range, then what the substrate's config step or its simulator's own
// Validate refuses in the configuration the spec derives, or nil.
func (s *Spec) validateParams() error {
	keys := sortedKeys(s.Params)
	if axis, ok := strings.CutPrefix(s.Sweep.Axis, "params."); ok {
		keys = append(keys, axis)
	}
	for _, k := range keys {
		if !slices.Contains(declared[s.Substrate], k) {
			return fmt.Errorf("scenario: substrate %s has no params.%s (want %s)", s.Substrate, k, strings.Join(declared[s.Substrate], "|"))
		}
	}
	for _, k := range knobs {
		v, ok := s.Params[k.key]
		if !ok {
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
	return sub(s.Substrate).check(s)
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
		return graph.Regularish(n, int(s.param("degree", 4)), rng.Child("graph"))
	}
}

// rareAllocation gives each of the first params.rare tokens (or symbols)
// params.rareCopies evenly spaced holders — copy c of token t on node
// t + c·n/copies — and every other node one common token drawn uniformly
// (from the replicate's "alloc" stream). Nil, the substrate's
// node-mod-items default, when nothing is rare.
//
// A common token the uniform draw gave to nobody would make completion
// impossible, so a repair pass hands each such token to a node drawn
// uniformly (from the "alloc-repair" stream) among those whose common token
// has another holder. The pass draws nothing when every common token
// already has a holder, so those allocations stay exactly as drawn.
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
	if n-rare*copies < items-rare {
		return alloc // too few nodes to hold every common token
	}
	// With at least as many common-token nodes as common tokens, a token
	// with no holder means another token has two, so a donor always exists.
	holders := make([]int, items)
	for _, t := range alloc {
		holders[t]++
	}
	var fix *simrng.Source
	for t := rare; t < items; t++ {
		if holders[t] > 0 {
			continue
		}
		if fix == nil {
			fix = rng.Child("alloc-repair")
		}
		for {
			v := fix.IntN(n)
			if u := alloc[v]; u >= rare && holders[u] > 1 {
				holders[u]--
				alloc[v], holders[t] = t, 1
				break
			}
		}
	}
	return alloc
}

// checkRare refuses a rare allocation the nodes cannot hold: params.rare
// tokens (or symbols) must leave a common one, and each needs
// params.rareCopies evenly spaced holders among n nodes.
func (s *Spec) checkRare(n, items int) error {
	rare, copies := int(s.param("rare", 0)), int(s.param("rareCopies", 1))
	switch {
	case rare > 0 && rare >= items:
		return fmt.Errorf("scenario: params.rare=%d leaves no common token among %d", rare, items)
	case rare > 0 && rare > n/copies:
		return fmt.Errorf("scenario: params.rare=%d with params.rareCopies=%d needs at least %d nodes, got %d", rare, copies, rare*copies, n)
	}
	return nil
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
