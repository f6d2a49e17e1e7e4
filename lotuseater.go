// Package lotuseater is a reproduction of "The Lotus-Eater Attack" (Kash,
// Friedman, Halpern; PODC 2008). It provides, behind one import:
//
//   - the paper's adversary as one substrate-independent Strategy: the
//     crash, ideal lotus-eater and trade lotus-eater attacks, with static,
//     rotating, explicitly listed or (swarm only) state-ranked satiation
//     targets and an optional campaign window;
//   - a BAR Gossip simulator with those attacks and the paper's protocol
//     defenses (larger optimistic pushes, slightly unbalanced exchanges,
//     obedient reporting) — see NewGossip;
//   - the abstract token-collecting model (G, T, sat, f, c, a) of Section 3
//     — see NewTokenModel;
//   - a scrip economy with threshold strategies — see NewScrip;
//   - a BitTorrent-like swarm — see NewSwarm;
//   - random linear network coding over GF(2^8) and the coded-dissemination
//     defense — see NewDissemination;
//   - every table and figure of the paper plus the extension experiments,
//     as scenario data run by the scenario engine — see Figures and
//     RunFigure (or `lotus-sim list` / `lotus-sim run <name>`).
//
// Every simulator constructor takes its attack as a *Strategy (nil for
// none). Receiver-side rate limiting is a scenario's defense block,
// installed by the scenario engine.
//
// All five simulators implement the sim.Model interface of the shared
// simulation kernel (internal/sim) — Step / Finished / Snapshot — and
// figures run on the kernel's bounded worker pool with common random
// numbers, so results are deterministic in (configuration, seed) for any
// worker count. Everything uses only the standard library.
package lotuseater

import (
	"fmt"

	"lotuseater/internal/attack"
	"lotuseater/internal/coding"
	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/scrip"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
	"lotuseater/internal/tokenmodel"
)

// Artifact is a figure's output (series or table) with text, CSV, and
// JSON encoders.
type Artifact = metrics.Artifact

// RunOptions scales a figure run: sweep points and replicates per point
// (zero keeps the figure's full-quality defaults).
type RunOptions = scenario.RunOptions

// Figure is one of the paper's tables or figures: a named list of
// scenario specs (see internal/scenario).
type Figure = scenario.Figure

// Figures returns every registered figure sorted by name.
func Figures() []*Figure { return scenario.Figures() }

// RunFigure regenerates the named figure, e.g. "figure1".
func RunFigure(name string, seed uint64, opts RunOptions) (*Artifact, error) {
	return scenario.RunFigure(name, seed, opts)
}

// Re-exported configuration and result types. The facade keeps downstream
// callers to a single import; the implementations live in internal packages.
type (
	// GossipConfig configures the BAR Gossip simulator (Table 1 defaults
	// via DefaultGossipConfig).
	GossipConfig = gossip.Config
	// GossipResult is a BAR Gossip run's outcome.
	GossipResult = gossip.Result
	// GossipEngine is a single BAR Gossip simulation.
	GossipEngine = gossip.Engine

	// TokenModelConfig configures the Section 3 token-collecting model.
	TokenModelConfig = tokenmodel.Config
	// TokenModelResult is a token-model run's outcome.
	TokenModelResult = tokenmodel.Result

	// ScripConfig configures the scrip economy.
	ScripConfig = scrip.Config
	// ScripResult is a scrip run's outcome.
	ScripResult = scrip.Result

	// SwarmConfig configures the BitTorrent-like swarm.
	SwarmConfig = swarm.Config
	// SwarmResult is a swarm run's outcome.
	SwarmResult = swarm.Result

	// DisseminationConfig configures the coded-vs-plain gossip comparison.
	DisseminationConfig = coding.DisseminationConfig
	// DisseminationResult is its outcome.
	DisseminationResult = coding.DisseminationResult

	// Graph is an undirected communication graph.
	Graph = graph.Graph

	// Strategy is the paper's adversary. It carries one run's state: pass a
	// fresh value to every constructor call.
	Strategy = attack.Strategy
)

// Attack kinds, re-exported for configuration literals.
const (
	AttackNone  = attack.None
	AttackCrash = attack.Crash
	AttackIdeal = attack.Ideal
	AttackTrade = attack.Trade
)

// Scrip agent kinds, re-exported for inspecting Sim.Kind results.
const (
	ScripRational      = scrip.Rational
	ScripAltruist      = scrip.Altruist
	ScripAttackerAgent = scrip.AttackerAgent
)

// Swarm piece-selection policies, re-exported for configuration literals.
const (
	SwarmSelectRandom      = swarm.SelectRandom
	SwarmSelectRarestFirst = swarm.SelectRarestFirst
)

// DefaultGossipConfig returns Table 1 of the paper plus this reproduction's
// measurement settings.
func DefaultGossipConfig() GossipConfig { return gossip.DefaultConfig() }

// withAdversary checks adv against a population of n nodes and returns the
// option that installs it; a nil adv is no attack and installs nothing.
// Only a model that ranks its nodes accepts a ranked adv.
func withAdversary[O any](adv *Strategy, n int, ranks bool, with func(*Strategy) O) ([]O, error) {
	if adv == nil {
		return nil, nil
	}
	if err := adv.Validate(); err != nil {
		return nil, err
	}
	if adv.Rank != "" && !ranks {
		return nil, fmt.Errorf("lotuseater: Strategy.Rank %q needs a model that ranks its nodes (NewSwarm)", adv.Rank)
	}
	if err := attack.ValidateTargetList(n, adv.TargetList); err != nil {
		return nil, err
	}
	return []O{with(adv)}, nil
}

// NewGossip builds a BAR Gossip simulation under attack adv (nil for
// none); deterministic in (cfg, seed).
func NewGossip(cfg GossipConfig, seed uint64, adv *Strategy) (*gossip.Engine, error) {
	opts, err := withAdversary(adv, cfg.Nodes, false, gossip.WithAdversary)
	if err != nil {
		return nil, err
	}
	return gossip.New(cfg, seed, opts...)
}

// NewTokenModel builds a Section 3 token-collecting simulation under attack
// adv (nil for none); an ideal attack satiates its targets every round.
func NewTokenModel(cfg TokenModelConfig, seed uint64, adv *Strategy) (*tokenmodel.Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts, err := withAdversary(adv, cfg.Graph.N(), false, tokenmodel.WithAdversary)
	if err != nil {
		return nil, err
	}
	return tokenmodel.New(cfg, seed, opts...)
}

// DefaultScripConfig returns a small healthy scrip economy.
func DefaultScripConfig() ScripConfig { return scrip.DefaultConfig() }

// NewScrip builds a scrip economy simulation under attack adv (nil for
// none), funded by cfg.AttackBudget; adv.Start delays the campaign so the
// attacker's agents can earn first.
func NewScrip(cfg ScripConfig, seed uint64, adv *Strategy) (*scrip.Sim, error) {
	opts, err := withAdversary(adv, cfg.Agents, false, scrip.WithAdversary)
	if err != nil {
		return nil, err
	}
	return scrip.New(cfg, seed, opts...)
}

// DefaultSwarmConfig returns a modest healthy swarm.
func DefaultSwarmConfig() SwarmConfig { return swarm.DefaultConfig() }

// NewSwarm builds a BitTorrent-like swarm simulation under attack adv (nil
// for none). A ranked adv (Rank "uploaders" or "rarest") satiates the
// swarm's top uploaders or rarest-piece holders from outside, best first, up
// to cfg.AttackerUplink pieces per tick.
func NewSwarm(cfg SwarmConfig, seed uint64, adv *Strategy) (*swarm.Sim, error) {
	opts, err := withAdversary(adv, cfg.Leechers, true, swarm.WithAdversary)
	if err != nil {
		return nil, err
	}
	return swarm.New(cfg, seed, opts...)
}

// NewDissemination builds the coded-vs-plain dissemination simulation under
// attack adv (nil for none).
func NewDissemination(cfg DisseminationConfig, seed uint64, adv *Strategy) (*coding.Dissemination, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opts, err := withAdversary(adv, cfg.Graph.N(), false, coding.WithAdversary)
	if err != nil {
		return nil, err
	}
	return coding.NewDissemination(cfg, seed, opts...)
}

// CompleteGraph returns the complete graph K_n.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// GridGraph returns a rows x cols 4-connected grid.
func GridGraph(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// RandomGraph returns an Erdős–Rényi G(n, p) graph drawn from seed.
func RandomGraph(n int, p float64, seed uint64) *Graph {
	return graph.Random(n, p, simrng.New(seed))
}

// RegularishGraph returns a graph where every node has at least deg random
// neighbors; it is connected with high probability for deg >= 3.
func RegularishGraph(n, deg int, seed uint64) *Graph {
	return graph.Regularish(n, deg, simrng.New(seed))
}
