package attack

import "lotuseater/internal/bitset"

// TargetSet is the satiated set for one targeting epoch: a bitset-backed
// membership index plus a materialized ascending member list, so consumers
// get O(1) membership queries and O(|set|) iteration instead of scanning a
// dense length-n []bool every round.
//
// A TargetSet is immutable once Strategy.Targets returns it and stays valid
// for the rest of the run: simulators may hold the pointer across rounds
// (the gossip engine keeps the release-round set of every live update). A
// fixed set comes back as the same pointer every round, so steady-state
// rounds allocate nothing on the targeting path.
type TargetSet struct {
	bits    *bitset.Set
	members []int
}

// NewTargetSet builds the set containing the given node ids over a universe
// of n nodes. Out-of-range ids are clamped away (dropped) and duplicates
// collapse; this is how a Strategy clamps a hostile TargetList.
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
// in ascending order.
func fromBits(bits *bitset.Set) *TargetSet {
	members := make([]int, 0, bits.Len())
	bits.ForEach(func(i int) { members = append(members, i) })
	return &TargetSet{bits: bits, members: members}
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

// Without returns the successor set with the given nodes removed, over the
// same universe. Nodes already absent or out of range are ignored; if
// nothing changes, t itself is returned, so callers keying on pointer
// identity see no spurious new set. This is the lifecycle-correctness
// primitive: under churn a departed node's satiation leaves with it.
func (t *TargetSet) Without(nodes ...int) *TargetSet {
	var bits *bitset.Set
	for _, v := range nodes {
		if t.bits.Has(v) {
			if bits == nil {
				bits = t.bits.Clone()
			}
			bits.Remove(v)
		}
	}
	if bits == nil {
		return t
	}
	return fromBits(bits)
}
