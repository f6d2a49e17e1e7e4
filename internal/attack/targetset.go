package attack

import (
	"sort"

	"lotuseater/internal/bitset"
)

// TargetSet is the satiated set for one targeting epoch: a bitset-backed
// membership index plus a materialized ascending member list, so consumers
// get O(1) membership queries and O(|set|) iteration instead of scanning a
// dense length-n []bool every round. A TargetSet also carries a change
// journal — the node ids added and removed relative to the previous epoch of
// the same targeter — so incremental consumers (per-node flags, defense
// state) can apply O(|changed|) updates instead of rebuilding.
//
// A TargetSet is immutable once returned by a targeter and stays valid for
// the rest of the run: simulators may hold the pointer across rounds (the
// gossip engine keeps the release-round set of every live update). Targeters
// whose set is static return the same pointer every round, so steady-state
// rounds allocate nothing on the targeting path.
type TargetSet struct {
	bits    *bitset.Set
	members []int
	epoch   int
	added   []int
	removed []int
}

// NewTargetSet builds the set containing the given node ids over a universe
// of n nodes. Out-of-range ids are clamped away (dropped) and duplicates
// collapse; this is the documented hostile-input behavior of ListTargeter.
// The set's epoch is 0 and its change journal reports every member as added.
func NewTargetSet(n int, nodes []int) *TargetSet {
	bits := bitset.New(n)
	for _, v := range nodes {
		if v >= 0 && v < n {
			bits.Add(v)
		}
	}
	return fromBits(bits)
}

// fromBits wraps an already-populated bitset, materializing the member list
// in ascending order. The journal marks everything added (epoch 0).
func fromBits(bits *bitset.Set) *TargetSet {
	members := make([]int, 0, bits.Len())
	bits.ForEach(func(i int) { members = append(members, i) })
	return &TargetSet{bits: bits, members: members, added: members}
}

// Cap returns the universe size n the set was built over.
func (t *TargetSet) Cap() int { return t.bits.Cap() }

// Len returns the number of targeted nodes.
func (t *TargetSet) Len() int { return len(t.members) }

// Has reports whether node v is targeted. Out-of-range ids read as false.
func (t *TargetSet) Has(v int) bool { return t.bits.Has(v) }

// Members returns the targeted node ids in ascending order, except that a
// ranked strategy's sets list them in rank order, best first. Callers must
// treat the slice as read-only; it is shared by every caller for the epoch.
func (t *TargetSet) Members() []int { return t.members }

// Epoch identifies the targeting epoch this set belongs to. Two sets from
// the same targeter with equal epochs are the same set; consumers caching
// per-node state keyed on the target set should invalidate when the epoch
// (or the pointer) changes.
func (t *TargetSet) Epoch() int { return t.epoch }

// Added returns the node ids targeted in this epoch that were not targeted
// in the previous one, ascending. For a targeter's first epoch, and for the
// set that opens a campaign window, it is Members itself. Read-only, like
// Members.
func (t *TargetSet) Added() []int { return t.added }

// Removed returns the node ids targeted in the previous epoch but not in
// this one, ascending. Read-only, like Members.
func (t *TargetSet) Removed() []int { return t.removed }

// asFirst returns a copy of t whose journal adds every member and removes
// nothing, as a targeter's first epoch does.
func (t *TargetSet) asFirst() *TargetSet {
	c := *t
	c.added, c.removed = c.members, nil
	return &c
}

// diffFrom fills t's change journal with the symmetric difference against
// prev (word-wise, O(n/64 + |changed|)) and stamps the successor epoch.
// A nil prev leaves the epoch-0 "everything added" journal in place. Both
// sets come from one targeter, so they share a universe size.
func (t *TargetSet) diffFrom(prev *TargetSet) {
	if prev == nil {
		return
	}
	t.epoch = prev.epoch + 1
	var added, removed []int
	t.bits.DiffEach(prev.bits, func(v int) { added = append(added, v) })
	prev.bits.DiffEach(t.bits, func(v int) { removed = append(removed, v) })
	t.added, t.removed = added, removed
}

// Without returns the successor set with the given nodes removed: same
// universe, epoch+1, and a change journal whose Removed lists exactly the
// nodes that were present (Added is empty). Nodes already absent or out of
// range are ignored; if nothing changes, t itself is returned (no epoch
// bump), so callers keying on pointer identity see no spurious new epoch.
// This is the lifecycle-correctness primitive: under churn a departed
// node's satiation leaves with it, and journal consumers (per-node target
// flags) apply the removal in O(|removed|) like any other epoch change.
func (t *TargetSet) Without(nodes ...int) *TargetSet {
	removed := make([]int, 0, len(nodes))
	for _, v := range nodes {
		if t.bits.Has(v) {
			removed = append(removed, v)
		}
	}
	if len(removed) == 0 {
		return t
	}
	sort.Ints(removed)
	bits := t.bits.Clone()
	for _, v := range removed {
		bits.Remove(v)
	}
	members := make([]int, 0, bits.Len())
	bits.ForEach(func(i int) { members = append(members, i) })
	return &TargetSet{
		bits:    bits,
		members: members,
		epoch:   t.epoch + 1,
		removed: removed,
	}
}
