package gossip

import (
	"math/bits"

	"lotuseater/internal/defense"
)

// attackerServes decides whether attacker node att serves peer inside a
// protocol exchange this round: the adversary's OnExchange hook rules.
//
//lotus:allocfree
func (e *Engine) attackerServes(att, peer int) bool {
	return e.adv.OnExchange(e.round, att, peer)
}

// execBalanced performs one balanced exchange: initiator i contacted its
// partner j.
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
func (e *Engine) execBalanced(i, j int) {
	ai, aj := e.status[i]&stAttacker != 0, e.status[j]&stAttacker != 0
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
	needI := e.need(i, j, spanLive)
	needJ := e.need(j, i, spanLive)
	k := min(needI, needJ)
	if k == 0 {
		e.maybeAltruistic(i, j, needI, needJ)
		return
	}
	giveToI := min(needI, k+e.cfg.BalanceSlack)
	giveToJ := min(needJ, k+e.cfg.BalanceSlack)
	// The first delivery adds to i only updates j holds, so it leaves
	// what j lacks of i's unchanged.
	e.deliver(j, i, spanLive, giveToI, giveToJ, false)
	e.deliver(i, j, spanLive, giveToJ, giveToI, false)
}

// maybeAltruistic implements the paper's parameter a in the gossip
// substrate: when a one-for-one exchange is impossible (k = 0) but one side
// still needs updates, the other side gives up to AltruisticGive updates for
// nothing with probability Altruism. needI and needJ count what each side
// lacks of the other's updates.
//
//lotus:allocfree
func (e *Engine) maybeAltruistic(i, j, needI, needJ int) {
	if e.maxAltruism <= 0 || e.cfg.AltruisticGive <= 0 {
		return
	}
	// The giver's altruism decides each gift: j gives to i in the first
	// branch, i gives to j in the second. altruismOf is cfg.Altruism for
	// every node without per-class overrides, so the homogeneous draw
	// sequence is unchanged.
	e.roundRNG = e.rng.ChildNInto(e.roundRNG, "altruism", e.round*e.cfg.Nodes+i)
	rng := e.roundRNG
	if needI > 0 && needJ == 0 && rng.Bool(e.altruismOf(j)) {
		e.deliver(j, i, spanLive, min(needI, e.cfg.AltruisticGive), 0, false)
	}
	if needJ > 0 && needI == 0 && rng.Bool(e.altruismOf(i)) {
		e.deliver(i, j, spanLive, min(needJ, e.cfg.AltruisticGive), 0, false)
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
	needPeer := e.need(peer, att, spanLive)
	if needPeer == 0 {
		return // nothing to give this target
	}
	recip := min(e.need(att, peer, spanLive), needPeer)
	e.deliver(att, peer, spanLive, needPeer, recip, true)
	e.take(att, peer, spanLive, recip)
	e.usefulSent += int64(recip)
}

// deliver offers node `to` the lowest `offered` updates of span sp that
// node `from` holds and `to` lacks (offered must not exceed that need),
// and transfers those the receiver admits. reciprocated is how many units
// the receiver returns in the same interaction (junk included —
// nonproductive work is still payment); the difference offered −
// reciprocated is the *excess* service that the receiver-side defenses act
// on. One-for-one exchanges have zero excess no matter their size, so
// obedient receivers never report or throttle honest trades; lotus-eater
// gifts are almost pure excess. attacker marks the upload as attacker
// bandwidth.
//
//lotus:allocfree
func (e *Engine) deliver(from, to int, sp span, offered, reciprocated int, attacker bool) {
	if offered == 0 {
		return
	}
	excess := offered - reciprocated
	if excess < 0 {
		excess = 0
	}
	obedient := e.status[to]&stObedient != 0

	if obedient && excess > 0 && e.board != nil && e.board.Excessive(excess) {
		e.fileReport(from, to, sp, offered)
	}
	granted := offered
	if obedient && excess > 0 && e.def != nil {
		allowed := e.def.Admit(e.round, from, to, excess)
		granted = offered - (excess - allowed)
	}
	e.take(to, from, sp, granted)
	if attacker {
		e.attackerSent += int64(granted)
	} else {
		e.usefulSent += int64(granted)
	}
}

// fileReport is an obedient receiver's report of an excessive delivery:
// its signed receipt lists the ids of the offered updates, the lowest
// `offered` of span sp that `from` holds and `to` lacks. It runs only with
// a report board, so it alone still lists indices.
func (e *Engine) fileReport(from, to int, sp span, offered int) {
	keys := make([]uint64, 0, offered)
	d, s := e.row(to), e.row(from)
	for w := 0; len(keys) < offered; w++ {
		for x := e.diff(d, s, w, sp); x != 0 && len(keys) < offered; x &= x - 1 {
			keys = append(keys, e.live[w<<6+bits.TrailingZeros64(x)].id.Key())
		}
	}
	receipt, err := e.keyring.SignReceipt(e.round, from, to, keys)
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

// execPush performs one optimistic push from initiator i to its partner j.
// The initiator offers recently released updates it holds; the responder
// takes up to PushSize of those it lacks and returns an equal count drawn
// from the old, soon-to-expire updates the initiator is missing, padded with
// junk when it has none.
//
//lotus:allocfree
func (e *Engine) execPush(i, j int) {
	ai, aj := e.status[i]&stAttacker != 0, e.status[j]&stAttacker != 0
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
	k := min(e.need(j, i, spanRecent), e.cfg.PushSize)
	if k == 0 {
		return
	}
	// Responder takes k recent updates...
	e.deliver(i, j, spanRecent, k, k, false)
	// ...and returns k units: old updates the initiator needs when it has
	// them, junk otherwise.
	r := min(e.need(i, j, spanOld), k)
	e.deliver(j, i, spanOld, r, k, false)
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
	k := min(e.need(peer, att, spanRecent), e.cfg.PushSize)
	if k == 0 {
		return
	}
	e.deliver(att, peer, spanRecent, k, k, true)
	r := min(e.need(att, peer, spanOld), k)
	e.take(att, peer, spanOld, r)
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
	k := min(e.need(att, i, spanRecent), e.cfg.PushSize)
	e.take(att, i, spanRecent, k)

	if e.attackerServes(att, i) {
		back := e.need(i, att, spanOld)
		e.deliver(att, i, spanOld, back, k, true)
		if k > back {
			e.junkSent += int64(k - back)
		}
		return
	}
	e.junkSent += int64(k)
}
