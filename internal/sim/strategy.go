package sim

import (
	"lotuseater/internal/attack"
	"lotuseater/internal/simrng"
)

// Adversary is a substrate-independent attacker strategy. The paper's core
// claim is that lotus-eater attacks work against any satiation-compatible
// system; this interface is that claim as code. A simulator hosts an
// adversary through three round hooks and maps each answer onto its own
// mechanics (token fills, scrip top-ups, piece uploads, update deliveries):
//
//   - Place picks the nodes the adversary controls, once, at model build.
//   - Targets names the nodes the adversary tries to satiate each round.
//   - OnExchange decides, inside a protocol exchange, whether an attacker
//     node serves the partner (the trade lotus-eater serves satiation
//     targets and stonewalls everyone else; crash and ideal attackers never
//     serve in protocol).
//
// Implementations are stateful per run — Place must be called exactly once
// before the other hooks, and rounds must be non-decreasing — so a fresh
// value (or a Reset, where offered) is needed per replicate. The canonical
// implementation is attack.Strategy.
type Adversary interface {
	// Place returns the node ids the adversary controls out of n. It derives
	// any randomness (placement, target selection) from children of rng, so
	// a model passes its root stream and stays deterministic in its seed.
	Place(n int, rng *simrng.Source) []int
	// Targets returns the satiation targets for the round as a sparse,
	// immutable set: O(1) membership and O(|set|) iteration. The same
	// pointer comes back for every round of one epoch, so callers may hold
	// it across rounds and key incremental per-node state on pointer
	// change.
	Targets(round int) *attack.TargetSet
	// OnExchange reports whether attacker-controlled node `attacker` serves
	// node `partner` within a protocol exchange in the given round.
	OnExchange(round, attacker, partner int) bool
}

// Defense is a substrate-independent receiver-side defense. Admit is the
// rate-limiting hook of Section 5: it decides how much of an offered service
// delivery the receiver accepts, and charges the accepted amount against the
// (sender, receiver, round) budget. Reset clears all per-run state so one
// Defense value can be pooled across replicates (see Workspace.Defense).
// The canonical implementation is defense.RateLimiter.
type Defense interface {
	// Admit reports how many of the requested service units receiver `to`
	// accepts from sender `from` in the given round, recording the grant.
	// Rounds must be non-decreasing across calls. Out-of-protocol senders
	// (the external attacker) use from = -1.
	Admit(round, from, to, requested int) int
	// Reset clears all accumulated state for reuse in a fresh run.
	Reset()
}

// ProtocolTrader is optionally implemented by adversaries whose attacker
// nodes stay inside the protocol — initiating exchanges like honest nodes
// and serving per OnExchange (the trade lotus-eater).
type ProtocolTrader interface {
	TradesInProtocol() bool
}

// InstantSatiator is optionally implemented by adversaries that deliver
// satiation to their targets outside the protocol at the start of every
// round (the ideal lotus-eater).
type InstantSatiator interface {
	SatiatesInstantly() bool
}

// DepartureAware is optionally implemented by adversaries that track node
// lifecycle: under churn, a satiated target that departs takes its
// satiation with it, and a later arrival reusing the same index is a fresh
// node the adversary has not satiated. Engines call NodeDeparted for every
// departure (attacker or honest) before any exchange in the round; the
// adversary excludes the node from its effective target set until its
// targeter legitimately re-evaluates (e.g. a rotation redraw).
type DepartureAware interface {
	NodeDeparted(round, node int)
}

// NotifyDeparture forwards a departure to a, if a tracks lifecycle.
// Adversaries that do not implement DepartureAware keep their fixed-universe
// behavior (safe for static populations; churned scenarios use
// attack.Strategy, which implements it).
func NotifyDeparture(a Adversary, round, node int) {
	if d, ok := a.(DepartureAware); ok {
		d.NodeDeparted(round, node)
	}
}

// TradesInProtocol reports whether a's attacker nodes participate in
// protocol exchanges. Adversaries that do not implement ProtocolTrader are
// assumed to stay out of protocol.
func TradesInProtocol(a Adversary) bool {
	if t, ok := a.(ProtocolTrader); ok {
		return t.TradesInProtocol()
	}
	return false
}

// SatiatesInstantly reports whether a delivers satiation out of protocol at
// round start. Adversaries that do not implement InstantSatiator are assumed
// not to.
func SatiatesInstantly(a Adversary) bool {
	if s, ok := a.(InstantSatiator); ok {
		return s.SatiatesInstantly()
	}
	return false
}
