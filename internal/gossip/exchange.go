package gossip

import (
	"lotuseater/internal/defense"
)

// attackerServes decides whether attacker node att serves peer inside a
// protocol exchange this round: a custom adversary's OnExchange hook rules
// when one is installed; the default Config-derived strategy serves exactly
// the round's satiation targets (which also honors WithTargeter overrides,
// since targetsByRound comes from the effective targeter).
//
//lotus:allocfree
func (e *Engine) attackerServes(att, peer int) bool {
	if e.customAdv {
		return e.adv.OnExchange(e.round, att, peer)
	}
	return e.targetsByRound[e.round].Has(peer)
}

// execBalanced performs one balanced exchange between the planned pair.
//
// Honest semantics: each side offers what the other lacks; the exchange size
// is the one-for-one minimum k of the two need counts, plus up to
// BalanceSlack extra from the side with more to give (Figure 3's obedient
// variant), provided k >= 1. Updates closest to expiry transfer first.
//
// A trade attacker gives a satiated target every update it holds that the
// target lacks — "more updates than a normal node would" — and keeps the
// target's one-for-one reciprocation as inventory. It gives isolated nodes
// nothing.
//
//lotus:allocfree
func (e *Engine) execBalanced(p pairing) {
	i, j := p.initiator, p.partner
	if e.evicted[i] || e.evicted[j] || e.departed[i] || e.departed[j] {
		return
	}
	ai, aj := e.isAttacker[i], e.isAttacker[j]
	switch {
	case ai && aj:
		return // attacker nodes have nothing to gain from each other
	case ai || aj:
		if !e.advTrades {
			return // crash and ideal attackers never trade
		}
		att, peer := i, j
		if aj {
			att, peer = j, i
		}
		e.attackerBalanced(att, peer)
	default:
		e.honestBalanced(i, j)
	}
}

//lotus:allocfree
func (e *Engine) honestBalanced(i, j int) {
	needI := e.needsFrom(i, j, 0)
	needJ := e.needsFrom(j, i, 1)
	k := min(len(needI), len(needJ))
	if k == 0 {
		e.maybeAltruistic(i, j, needI, needJ)
		return
	}
	giveToI := min(len(needI), k+e.cfg.BalanceSlack)
	giveToJ := min(len(needJ), k+e.cfg.BalanceSlack)
	e.deliver(j, i, needI[:giveToI], giveToJ, false)
	e.deliver(i, j, needJ[:giveToJ], giveToI, false)
}

// maybeAltruistic implements the paper's parameter a in the gossip
// substrate: when a one-for-one exchange is impossible (k = 0) but one side
// still needs updates, the other side gives up to AltruisticGive updates for
// nothing with probability Altruism.
//
//lotus:allocfree
func (e *Engine) maybeAltruistic(i, j int, needI, needJ []int) {
	if e.maxAltruism <= 0 || e.cfg.AltruisticGive <= 0 {
		return
	}
	// The giver's altruism decides each gift: j gives to i in the first
	// branch, i gives to j in the second. altruismOf is cfg.Altruism for
	// every node without per-class overrides, so the homogeneous draw
	// sequence is unchanged.
	rng := e.rng.ChildN("altruism", e.round*e.cfg.Nodes+i)
	if len(needI) > 0 && len(needJ) == 0 && rng.Bool(e.altruismOf(j)) {
		e.deliver(j, i, needI[:min(len(needI), e.cfg.AltruisticGive)], 0, false)
	}
	if len(needJ) > 0 && len(needI) == 0 && rng.Bool(e.altruismOf(i)) {
		e.deliver(i, j, needJ[:min(len(needJ), e.cfg.AltruisticGive)], 0, false)
	}
}

// altruismOf returns node v's altruism: the per-class override when the
// population model installed one, the scalar config otherwise.
//
//lotus:allocfree
func (e *Engine) altruismOf(v int) float64 {
	if e.nodeAltruism != nil {
		return e.nodeAltruism[v]
	}
	return e.cfg.Altruism
}

// attackerBalanced is a trade attacker's balanced exchange. The attacker
// stays within the protocol: it can only move updates it actually holds,
// but it violates the one-for-one rule upward, giving a satiated target
// every update it holds that the target lacks. The target reciprocates the
// ordinary one-for-one count, which the attacker keeps (it needs inventory
// to keep satiating). Isolated nodes get nothing.
//
//lotus:allocfree
func (e *Engine) attackerBalanced(att, peer int) {
	if !e.attackerServes(att, peer) {
		return // isolated nodes get nothing from the attacker
	}
	needPeer := e.needsFrom(peer, att, 0)
	if len(needPeer) == 0 {
		return // nothing to give this target
	}
	needAtt := e.needsFrom(att, peer, 1)
	recip := min(len(needAtt), len(needPeer))
	e.deliver(att, peer, needPeer, recip, true)
	e.give(needAtt[:recip], att)
	e.usefulSent += int64(recip)
}

// deliver transfers the updates at the given live indices from node `from`
// to node `to`. reciprocated is how many units the receiver returns in the
// same interaction (junk included — nonproductive work is still payment);
// the difference offered − reciprocated is the *excess* service that the
// receiver-side defenses act on. One-for-one exchanges have zero excess no
// matter their size, so obedient receivers never report or throttle honest
// trades; lotus-eater gifts are almost pure excess. attacker marks the
// upload as attacker bandwidth.
//
//lotus:allocfree
func (e *Engine) deliver(from, to int, indices []int, reciprocated int, attacker bool) {
	if len(indices) == 0 {
		return
	}
	offered := len(indices)
	excess := offered - reciprocated
	if excess < 0 {
		excess = 0
	}
	obedient := e.roles[to] == RoleObedient

	if obedient && excess > 0 && e.board != nil && e.board.Excessive(excess) {
		e.fileReport(from, to, indices)
	}
	granted := offered
	if obedient && excess > 0 && e.def != nil {
		allowed := e.def.Admit(e.round, from, to, excess)
		granted = offered - (excess - allowed)
	}
	got := e.give(indices[:granted], to)
	if attacker {
		e.attackerSent += int64(got)
	} else {
		e.usefulSent += int64(got)
	}
}

func (e *Engine) fileReport(from, to int, indices []int) {
	receipt, err := e.keyring.SignReceipt(e.round, from, to, e.updateKeys(indices))
	if err != nil {
		return // out-of-range ids cannot occur for planned pairs
	}
	// Filing errors mean the evidence did not hold up; the board already
	// rejected it, nothing further to do.
	_ = e.board.File(e.round, defense.Report{
		Reporter: to,
		Accused:  from,
		Evidence: receipt,
	})
}

// execPush performs one optimistic push. The initiator offers recently
// released updates it holds; the responder takes up to PushSize of those it
// lacks and returns an equal count drawn from the old, soon-to-expire
// updates the initiator is missing, padded with junk when it has none.
//
//lotus:allocfree
func (e *Engine) execPush(p pairing) {
	i, j := p.initiator, p.partner
	if e.evicted[i] || e.evicted[j] || e.departed[i] || e.departed[j] {
		return
	}
	ai, aj := e.isAttacker[i], e.isAttacker[j]
	switch {
	case ai && aj:
		return
	case ai:
		if !e.advTrades {
			return
		}
		e.attackerPushInit(i, j)
	case aj:
		if !e.advTrades {
			return
		}
		e.attackerPushRespond(i, j)
	default:
		e.honestPush(i, j)
	}
}

//lotus:allocfree
func (e *Engine) honestPush(i, j int) {
	wants := e.recentOffer(j, i, 0)
	k := min(len(wants), e.cfg.PushSize)
	if k == 0 {
		return
	}
	// Responder takes k recent updates...
	e.deliver(i, j, wants[:k], k, false)
	// ...and returns k units: old updates the initiator needs when it has
	// them, junk otherwise.
	back := e.oldNeeds(i, j, 1)
	r := min(len(back), k)
	e.deliver(j, i, back[:r], k, false)
	e.junkSent += int64(k - r)
}

// attackerPushInit is a trade attacker initiating a push: it offers the
// recent updates it holds to a satiated target; the target takes up to
// PushSize and reciprocates per protocol, growing the attacker's inventory.
//
//lotus:allocfree
func (e *Engine) attackerPushInit(att, peer int) {
	if !e.attackerServes(att, peer) {
		return
	}
	wants := e.recentOffer(peer, att, 0)
	k := min(len(wants), e.cfg.PushSize)
	if k == 0 {
		return
	}
	e.deliver(att, peer, wants[:k], k, true)
	back := e.oldNeeds(att, peer, 1)
	r := min(len(back), k)
	e.give(back[:r], att)
	e.usefulSent += int64(r)
	e.junkSent += int64(k - r)
}

// attackerPushRespond is a trade attacker answering an honest push: it takes
// the offered recent updates it lacks (inventory for later satiation), then
// returns every old update a satiated target needs — excessive service — or
// pure junk to an isolated initiator.
//
//lotus:allocfree
func (e *Engine) attackerPushRespond(i, att int) {
	fresh := e.recentOffer(att, i, 0)
	k := min(len(fresh), e.cfg.PushSize)
	e.give(fresh[:k], att)

	if e.attackerServes(att, i) {
		back := e.oldNeeds(i, att, 1)
		e.deliver(att, i, back, k, true)
		if k > len(back) {
			e.junkSent += int64(k - len(back))
		}
		return
	}
	e.junkSent += int64(k)
}
