package gossip

import (
	"math/bits"
	"slices"
	"testing"

	"lotuseater/internal/defense"
)

// listingExchange is the index-list exchange the word kernels replaced,
// kept verbatim as their oracle: every exchange lists the live indices one
// side lacks into a pooled buffer and gives them one index at a time. Only
// give changed: Engine.set no longer reports whether a bit is new, so give
// asks has first. It embeds an Engine of its own, whose methods outside
// the exchange it shares; its methods shadow the exchange bodies, so step
// runs the round with the listing exchanges in place of the kernels.
type listingExchange struct {
	*Engine
	needScratch [2][]int
}

// step is Engine.Step with the listing exchanges.
func (e *listingExchange) step() {
	for ev, ok := e.churn.Next(e.round); ok; ev, ok = e.churn.Next(e.round) {
		if ev.Join {
			e.joinNode(ev.Node)
		} else {
			e.leaveNode(ev.Node)
		}
	}
	e.targetsByRound[e.round] = e.adv.Targets(e.round)
	e.seedUpdates()
	if e.advInstant {
		e.idealDeliver()
	}
	e.exchangePhase("balanced", len(e.live), e.execBalanced)
	if e.cfg.PushSize > 0 {
		e.exchangePhase("push", e.oldEnd, e.execPush)
	}
	e.applyEvictions()
	e.retireExpired()
	e.round++
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
func (e *listingExchange) execBalanced(i, j int) {
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
func (e *listingExchange) honestBalanced(i, j int) {
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
func (e *listingExchange) maybeAltruistic(i, j int, needI, needJ []int) {
	if e.maxAltruism <= 0 || e.cfg.AltruisticGive <= 0 {
		return
	}
	// The giver's altruism decides each gift: j gives to i in the first
	// branch, i gives to j in the second. altruismOf is cfg.Altruism for
	// every node without per-class overrides, so the homogeneous draw
	// sequence is unchanged.
	e.roundRNG = e.rng.ChildNInto(e.roundRNG, "altruism", e.round*e.cfg.Nodes+i)
	rng := e.roundRNG
	if len(needI) > 0 && len(needJ) == 0 && rng.Bool(e.altruismOf(j)) {
		e.deliver(j, i, needI[:min(len(needI), e.cfg.AltruisticGive)], 0, false)
	}
	if len(needJ) > 0 && len(needI) == 0 && rng.Bool(e.altruismOf(i)) {
		e.deliver(i, j, needJ[:min(len(needJ), e.cfg.AltruisticGive)], 0, false)
	}
}

// attackerBalanced is a trade attacker's balanced exchange. The attacker
// stays within the protocol: it can only move updates it actually holds,
// but it violates the one-for-one rule upward, giving a satiated target
// every update it holds that the target lacks. The target reciprocates the
// ordinary one-for-one count, which the attacker keeps (it needs inventory
// to keep satiating). Isolated nodes get nothing.
//
//lotus:allocfree
func (e *listingExchange) attackerBalanced(att, peer int) {
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
func (e *listingExchange) deliver(from, to int, indices []int, reciprocated int, attacker bool) {
	if len(indices) == 0 {
		return
	}
	offered := len(indices)
	excess := offered - reciprocated
	if excess < 0 {
		excess = 0
	}
	obedient := e.status[to]&stObedient != 0

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

func (e *listingExchange) fileReport(from, to int, indices []int) {
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

// execPush performs one optimistic push from initiator i to its partner j.
// The initiator offers recently released updates it holds; the responder
// takes up to PushSize of those it lacks and returns an equal count drawn
// from the old, soon-to-expire updates the initiator is missing, padded with
// junk when it has none.
//
//lotus:allocfree
func (e *listingExchange) execPush(i, j int) {
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
func (e *listingExchange) honestPush(i, j int) {
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
func (e *listingExchange) attackerPushInit(att, peer int) {
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
func (e *listingExchange) attackerPushRespond(i, att int) {
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

// missing lists, ascending, the live indices in [lo, hi) that src holds and
// dst lacks: src &^ dst over one bit range of two rows. It is the hot inner
// loop of the simulator, so it appends into the slot-th pooled buffer; each
// exchange uses at most two such lists at once, hence two slots.
//
//lotus:allocfree
func (e *listingExchange) missing(dst, src, lo, hi, slot int) []int {
	out := e.needScratch[slot][:0]
	d, s := e.row(dst), e.row(src)
	for w := lo >> 6; w<<6 < hi; w++ {
		for x := s[w] &^ d[w] & rangeMask(w, lo, hi); x != 0; x &= x - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(x))
		}
	}
	e.needScratch[slot] = out
	return out
}

// needsFrom lists the live updates dst lacks that src holds.
//
//lotus:allocfree
func (e *listingExchange) needsFrom(dst, src, slot int) []int {
	return e.missing(dst, src, 0, len(e.live), slot)
}

// recentOffer lists the recently released updates src holds and `to` lacks.
//
//lotus:allocfree
func (e *listingExchange) recentOffer(to, src, slot int) []int {
	return e.missing(to, src, e.oldEnd, len(e.live), slot)
}

// oldNeeds lists the old, soon-to-expire updates `who` lacks that src holds.
//
//lotus:allocfree
func (e *listingExchange) oldNeeds(who, src, slot int) []int {
	return e.missing(who, src, 0, e.oldEnd, slot)
}

// give transfers the updates at the given live indices to node dst,
// returning how many were newly received.
//
//lotus:allocfree
func (e *listingExchange) give(indices []int, dst int) int {
	got := 0
	for _, b := range indices {
		if !e.has(dst, b) {
			e.set(dst, b)
			got++
		}
	}
	return got
}

// updateKeys maps live indices to UpdateID keys (for signed receipts).
func (e *listingExchange) updateKeys(indices []int) []uint64 {
	out := make([]uint64, len(indices))
	for k, idx := range indices {
		out[k] = e.live[idx].id.Key()
	}
	return out
}

// TestExchangeMatchesOracle steps the word kernels beside the listing
// exchange over every golden case at four seeds, and requires the same
// holdings, live set, node status and bandwidth counters after every round.
func TestExchangeMatchesOracle(t *testing.T) {
	for _, c := range goldenCases() {
		for _, seed := range []uint64{7, 8, 9, 10} {
			e, err := New(c.cfg, seed, goldenOptions(c)...)
			if err != nil {
				t.Fatal(err)
			}
			oe, err := New(c.cfg, seed, goldenOptions(c)...)
			if err != nil {
				t.Fatal(err)
			}
			o := &listingExchange{Engine: oe}
			for round := 0; !e.Finished(); round++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				o.step()
				switch {
				case !slices.Equal(e.held, o.held):
					t.Fatalf("%s/seed%d round %d: holdings differ from the oracle's", c.name, seed, round)
				case !slices.Equal(e.live, o.live):
					t.Fatalf("%s/seed%d round %d: live set differs from the oracle's", c.name, seed, round)
				case !slices.Equal(e.status, o.status):
					t.Fatalf("%s/seed%d round %d: node status differs from the oracle's", c.name, seed, round)
				case e.usefulSent != o.usefulSent || e.junkSent != o.junkSent || e.attackerSent != o.attackerSent:
					t.Fatalf("%s/seed%d round %d: sent useful/junk/attacker %d/%d/%d, oracle %d/%d/%d", c.name, seed, round,
						e.usefulSent, e.junkSent, e.attackerSent, o.usefulSent, o.junkSent, o.attackerSent)
				}
			}
		}
	}
}
