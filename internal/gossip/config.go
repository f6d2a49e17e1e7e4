// Package gossip implements a BAR Gossip simulator, the evaluation
// substrate of Section 2 of the paper.
//
// A broadcaster releases a batch of updates each round and seeds each update
// to a few random nodes. Nodes then gossip through two sub-protocols, each
// initiated once per round with a verifiable pseudorandomly chosen partner:
//
//   - Balanced exchange: partners swap as many updates as possible on a
//     strict one-for-one basis (optionally one extra — the obedient
//     "slightly unbalanced" variant of Figure 3).
//   - Optimistic push: a node missing old, soon-to-expire updates offers
//     recently released updates it holds; the partner takes a bounded number
//     of them and returns old updates the initiator needs, padding with junk
//     when it has none.
//
// Updates are time-sensitive: an update released in round r is useful only
// until round r+Lifetime-1. The stream is usable for a node only if it
// receives more than UsableThreshold of the updates in time.
//
// The protocol is satiation-compatible: a node holding every live update
// gains nothing from a balanced exchange (the one-for-one count is zero) and
// never initiates an optimistic push, so it provides no service — exactly
// the property the lotus-eater attack exploits.
package gossip

import "fmt"

// Config holds every parameter of a simulation run. The zero value is not
// usable; start from DefaultConfig (Table 1 of the paper).
type Config struct {
	// Nodes is the total number of nodes, attacker-controlled included.
	Nodes int
	// UpdatesPerRound is how many updates the broadcaster releases per round.
	UpdatesPerRound int
	// Lifetime is the number of rounds an update stays useful, counting its
	// release round.
	Lifetime int
	// CopiesSeeded is how many random nodes receive each update directly
	// from the broadcaster.
	CopiesSeeded int
	// PushSize is the maximum number of recent updates transferred in one
	// optimistic push (2 in Figure 1, 10 in Figure 2, 4 in Figure 3).
	PushSize int
	// BalanceSlack is how many extra updates a node is willing to give
	// beyond what it receives in a balanced exchange, provided it receives
	// at least one (0 = strictly balanced; 1 = the obedient variant of
	// Figure 3).
	BalanceSlack int
	// RecentWindow is how many trailing rounds count as "recently released"
	// for optimistic pushes; older live updates count as "expiring soon".
	RecentWindow int

	// Rounds is the horizon of the simulation.
	Rounds int
	// Warmup is the number of initial rounds excluded from measurement, so
	// statistics reflect steady state.
	Warmup int
	// UsableThreshold is the minimum delivered fraction for the stream to
	// be usable (0.93 in the paper).
	UsableThreshold float64

	// Altruism is the probability that a satiated honest node nevertheless
	// answers a balanced exchange with up to AltruisticGive updates, asking
	// nothing in return — the parameter a of Section 3's model, transplanted
	// into the gossip substrate. Zero for all paper figures.
	Altruism float64
	// AltruisticGive caps the updates given altruistically per exchange.
	AltruisticGive int

	// ObedientFraction is the fraction of honest nodes that follow the
	// protocol even against self-interest: they enforce the rate limit of
	// an installed defense (WithDefense) and report excessive service
	// (Section 4's "leveraging obedience").
	ObedientFraction float64
	// ReportThreshold marks a single delivery of more than this many
	// updates as excessive; obedient receivers report it with the signed
	// receipt (0 disables reporting).
	ReportThreshold int
	// EvictAfterReports is how many distinct accusers evict a node.
	EvictAfterReports int

	// TrackPerNode records each node's per-release-round delivery fraction
	// in Result.NodeRoundDelivery. Off by default (sweeps do not need the
	// memory); the scenario engine's outage-window metrics (params.epoch)
	// turn it on.
	TrackPerNode bool
}

// DefaultConfig returns Table 1 of the paper plus the measurement settings
// used throughout this reproduction.
func DefaultConfig() Config {
	return Config{
		Nodes:             250,
		UpdatesPerRound:   10,
		Lifetime:          10,
		CopiesSeeded:      12,
		PushSize:          2,
		BalanceSlack:      0,
		RecentWindow:      2,
		Rounds:            60,
		Warmup:            15,
		UsableThreshold:   0.93,
		AltruisticGive:    2,
		EvictAfterReports: 3,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("gossip: need at least 2 nodes, got %d", c.Nodes)
	case c.UpdatesPerRound < 1:
		return fmt.Errorf("gossip: UpdatesPerRound must be positive, got %d", c.UpdatesPerRound)
	case c.Lifetime < 1:
		return fmt.Errorf("gossip: Lifetime must be positive, got %d", c.Lifetime)
	case c.CopiesSeeded < 1 || c.CopiesSeeded > c.Nodes:
		return fmt.Errorf("gossip: CopiesSeeded must be in [1,%d], got %d", c.Nodes, c.CopiesSeeded)
	case c.PushSize < 0:
		return fmt.Errorf("gossip: PushSize must be non-negative, got %d", c.PushSize)
	case c.BalanceSlack < 0:
		return fmt.Errorf("gossip: BalanceSlack must be non-negative, got %d", c.BalanceSlack)
	case c.RecentWindow < 1 || c.RecentWindow > c.Lifetime:
		return fmt.Errorf("gossip: RecentWindow must be in [1,%d], got %d", c.Lifetime, c.RecentWindow)
	case c.Rounds < 1:
		return fmt.Errorf("gossip: Rounds must be positive, got %d", c.Rounds)
	case c.Warmup < 0 || c.Warmup >= c.Rounds:
		return fmt.Errorf("gossip: Warmup must be in [0,%d), got %d", c.Rounds, c.Warmup)
	case c.Warmup+c.Lifetime > c.Rounds:
		return fmt.Errorf("gossip: horizon too short: no update both released after warmup (%d) and expiring before round %d", c.Warmup, c.Rounds)
	case c.UsableThreshold < 0 || c.UsableThreshold > 1:
		return fmt.Errorf("gossip: UsableThreshold must be in [0,1], got %g", c.UsableThreshold)
	case c.Altruism < 0 || c.Altruism > 1:
		return fmt.Errorf("gossip: Altruism must be in [0,1], got %g", c.Altruism)
	case c.AltruisticGive < 0:
		return fmt.Errorf("gossip: AltruisticGive must be non-negative, got %d", c.AltruisticGive)
	case c.ObedientFraction < 0 || c.ObedientFraction > 1:
		return fmt.Errorf("gossip: ObedientFraction must be in [0,1], got %g", c.ObedientFraction)
	case c.ReportThreshold < 0:
		return fmt.Errorf("gossip: ReportThreshold must be non-negative, got %d", c.ReportThreshold)
	case c.EvictAfterReports < 1:
		return fmt.Errorf("gossip: EvictAfterReports must be positive, got %d", c.EvictAfterReports)
	}
	return nil
}

// Role describes how a node behaves.
type Role int

const (
	// RoleHonest nodes follow the protocol rationally: they trade when and
	// only when they stand to gain.
	RoleHonest Role = iota + 1
	// RoleObedient nodes follow the protocol even when deviating would pay:
	// they additionally enforce rate limits and report excessive service.
	RoleObedient
	// RoleAttacker nodes are controlled by the adversary; their behavior is
	// set by the attack kind.
	RoleAttacker
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleHonest:
		return "honest"
	case RoleObedient:
		return "obedient"
	case RoleAttacker:
		return "attacker"
	default:
		return fmt.Sprintf("gossip.Role(%d)", int(r))
	}
}
