// Package sign provides the cryptographic machinery BAR Gossip relies on:
// per-node ed25519 identities, signed exchange receipts, and verifiable
// pseudorandom partner selection.
//
// Two properties of BAR Gossip matter for the paper:
//
//   - Partner selection is pseudorandom and verifiable — "each node can
//     initiate once with a pseudorandomly chosen partner (nodes have no
//     control over who their partner will be)". The partner is a
//     deterministic function of (shared seed, label, round, initiator id),
//     none of which a node controls, so any third party can check an
//     initiator contacted the right node.
//
//   - Exchanges generate signed messages — "a node can use the signed
//     messages generated by BAR Gossip to prove that excessive service
//     occurred". Receipts here are the evidence objects consumed by the
//     obedient-reporting defense in internal/defense.
package sign

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"lotuseater/internal/simrng"
)

// Identity is a node's signing identity.
type Identity struct {
	ID   int
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// Keyring holds the identities of all nodes in a deployment and exposes
// public-key lookup for verification.
type Keyring struct {
	ids []Identity
}

// NewKeyring deterministically generates n identities from rng. Determinism
// keeps whole-simulation replay exact; ed25519 key generation from a seeded
// stream is safe here because the keys guard a simulation, not production
// traffic.
func NewKeyring(n int, rng *simrng.Source) (*Keyring, error) {
	if n < 0 {
		return nil, errors.New("sign: negative keyring size")
	}
	ids := make([]Identity, n)
	for i := range ids {
		var seed [ed25519.SeedSize]byte
		for off := 0; off < len(seed); off += 8 {
			binary.LittleEndian.PutUint64(seed[off:], rng.Uint64())
		}
		priv := ed25519.NewKeyFromSeed(seed[:])
		pub, ok := priv.Public().(ed25519.PublicKey)
		if !ok {
			return nil, errors.New("sign: unexpected public key type")
		}
		ids[i] = Identity{ID: i, priv: priv, pub: pub}
	}
	return &Keyring{ids: ids}, nil
}

// N returns the number of identities.
func (k *Keyring) N() int { return len(k.ids) }

// Public returns node id's public key, or an error for out-of-range ids.
func (k *Keyring) Public(id int) (ed25519.PublicKey, error) {
	if id < 0 || id >= len(k.ids) {
		return nil, fmt.Errorf("sign: no identity %d", id)
	}
	return k.ids[id].pub, nil
}

// Receipt is a signed record of service delivered in one interaction: sender
// From gave Updates update-identifiers to To during Round. The receiving
// node keeps receipts; obedient nodes surface them to the reporting defense
// when the service received is excessive.
type Receipt struct {
	Round   int
	From    int
	To      int
	Updates []uint64
	Sig     []byte
}

func receiptDigest(round, from, to int, updates []uint64) []byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		// sha256.Write never returns an error.
		_, _ = h.Write(buf[:])
	}
	put(uint64(round))
	put(uint64(from))
	put(uint64(to))
	put(uint64(len(updates)))
	for _, u := range updates {
		put(u)
	}
	return h.Sum(nil)
}

// SignReceipt produces a receipt signed by the sender (node from).
func (k *Keyring) SignReceipt(round, from, to int, updates []uint64) (Receipt, error) {
	if from < 0 || from >= len(k.ids) {
		return Receipt{}, fmt.Errorf("sign: no identity %d", from)
	}
	ups := make([]uint64, len(updates))
	copy(ups, updates)
	sig := ed25519.Sign(k.ids[from].priv, receiptDigest(round, from, to, ups))
	return Receipt{Round: round, From: from, To: to, Updates: ups, Sig: sig}, nil
}

// VerifyReceipt reports whether r carries a valid signature from r.From.
func (k *Keyring) VerifyReceipt(r Receipt) bool {
	pub, err := k.Public(r.From)
	if err != nil {
		return false
	}
	return ed25519.Verify(pub, receiptDigest(r.Round, r.From, r.To, r.Updates), r.Sig)
}

// PartnerSeed is the shared randomness that fixes the partner schedule for a
// deployment (in real BAR Gossip this comes from signed broadcaster state).
type PartnerSeed uint64

// Schedule is one round's partner schedule for one sub-protocol: the part
// of the derivation fixed by (seed, label, round), hoisted out of the
// per-initiator draw so a phase pays it once. Make one with Partners.
type Schedule struct{ x uint64 }

// Partners returns the partner schedule of the given sub-protocol label in
// round round under seed.
//
// A partner is a counter-based draw: the SplitMix64 finalizer chained over
// seed^FNV-1a(label), then round, then initiator, reduced into the n-1
// other nodes by a multiply-high. Every input is public, so any third party
// can recompute the partner.
func Partners(seed PartnerSeed, label string, round int) Schedule {
	x := simrng.SplitMix64(uint64(seed) ^ simrng.LabelHash(label))
	return Schedule{x: simrng.SplitMix64(x ^ uint64(round))}
}

// Of returns the verifiable pseudorandom partner of initiator among n
// nodes. The result is never the initiator itself. It panics if n < 2.
func (s Schedule) Of(initiator, n int) int {
	if n < 2 {
		panic("sign: a partner needs n >= 2")
	}
	x := simrng.SplitMix64(s.x ^ uint64(initiator))
	hi, _ := bits.Mul64(x, uint64(n-1))
	v := int(hi)
	if v >= initiator {
		v++
	}
	return v
}
