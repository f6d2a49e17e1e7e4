// Package simrng provides deterministic, splittable random number streams
// for simulations.
//
// Every experiment in this repository is a pure function of a configuration
// and a 64-bit seed. To keep subsystems (broadcaster seeding, partner
// selection, attacker choices, ...) statistically independent while remaining
// reproducible, simrng derives child streams from a parent seed using a
// SplitMix64 finalizer over the parent seed and a label hash. Child streams
// are backed by the PCG generator from math/rand/v2.
package simrng

import (
	"math/rand/v2"
	"slices"
)

// SplitMix64 is the SplitMix64 finalizer. It is used to decorrelate derived
// seeds; see Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LabelHash maps a textual label to a 64-bit value with FNV-1a, without
// allocating.
func LabelHash(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h
}

// Source is a deterministic random stream. It wraps *rand.Rand and adds
// derivation of independent child streams. A Source must not be shared
// between goroutines without external synchronization; derive one child per
// goroutine instead.
type Source struct {
	seed uint64
	pcg  *rand.PCG
	rng  *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return reseed(nil, seed) }

// reseed points dst at the stream New(seed) draws, in place, and returns
// it; a nil dst is allocated. rand.Rand keeps no state besides its source,
// so reseeding the PCG under it restarts the stream exactly.
//
//lotus:allocfree
func reseed(dst *Source, seed uint64) *Source {
	hi, lo := SplitMix64(seed), SplitMix64(seed^0xda3e39cb94b95bdb)
	if dst == nil { //lotus:allocsetup New and ChildN build a fresh stream; ChildNInto callers pass the one they reuse
		pcg := rand.NewPCG(hi, lo)
		return &Source{seed: seed, pcg: pcg, rng: rand.New(pcg)}
	}
	dst.seed = seed
	dst.pcg.Seed(hi, lo)
	return dst
}

// Seed returns the seed this Source was created with.
func (s *Source) Seed() uint64 { return s.seed }

// Child derives an independent stream identified by label. Calling Child
// with the same label always yields a stream with the same seed, regardless
// of how much randomness has been consumed from s.
func (s *Source) Child(label string) *Source {
	return New(SplitMix64(s.seed ^ LabelHash(label)))
}

// ChildN derives an independent stream identified by label and an index,
// e.g. one stream per node or per sweep point.
func (s *Source) ChildN(label string, n int) *Source { return s.ChildNInto(nil, label, n) }

// ChildNInto reseeds dst in place to the stream ChildN(label, n) returns,
// whatever dst drew before, and returns dst; a nil dst is allocated. A
// model that derives one stream per round keeps one dst for it, so its
// rounds allocate no generator.
//
//lotus:allocfree
func (s *Source) ChildNInto(dst *Source, label string, n int) *Source {
	return reseed(dst, SplitMix64(s.seed^LabelHash(label))^SplitMix64(uint64(n)+0x632be59bd9b4e019))
}

// IntN returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (s *Source) IntN(n int) int { return s.rng.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// PermInto writes a random permutation of [0, n) into buf, reusing its
// storage when it is large enough, and returns it. The draw is bit-identical
// to Perm: identity order run through the Fisher–Yates loop of math/rand/v2's
// Shuffle, one Uint64N(i+1) per position from the top down, inlined here
// without Shuffle's per-swap closure. The equivalence is pinned by a test.
func (s *Source) PermInto(buf []int, n int) []int {
	if cap(buf) >= n {
		buf = buf[:n]
	} else {
		buf = make([]int, n)
	}
	for i := range buf {
		buf[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.rng.Uint64N(uint64(i + 1)))
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// sampleScanMax is the largest sample SampleIntsInto dedups by scanning
// what it has drawn. Below it the scan beats a set's hashing and
// allocation; the scan's cost grows with k², so from about k = 128 the set
// is faster.
const sampleScanMax = 64

// SampleInts returns k distinct integers drawn uniformly from [0, n).
// It panics if k > n or k < 0. The result is in random order.
func (s *Source) SampleInts(n, k int) []int {
	var buf []int
	if k > 0 {
		buf = make([]int, 0, k)
	}
	out := s.SampleIntsInto(buf, n, k)
	return out[:len(out):len(out)]
}

// SampleIntsInto appends to buf k distinct integers drawn uniformly from
// [0, n), in random order, and returns the extended slice: the draw of
// SampleInts, for loops that reuse one buffer. Below the k·4 ≤ n split it
// needs only k free slots; above it, the partial Fisher–Yates over the index
// range uses n slots past len(buf) as scratch. It panics if k > n or k < 0.
func (s *Source) SampleIntsInto(buf []int, n, k int) []int {
	if k < 0 || k > n {
		panic("simrng: sample size out of range")
	}
	if k == 0 {
		return buf
	}
	start := len(buf)
	// For small k relative to n use rejection sampling; otherwise use a
	// partial Fisher-Yates over the index range. The scan and the set
	// reject exactly the repeated values, so they draw the same sample.
	if k*4 <= n {
		if k <= sampleScanMax {
			for len(buf)-start < k {
				if v := s.rng.IntN(n); !slices.Contains(buf[start:], v) {
					buf = append(buf, v)
				}
			}
			return buf
		}
		seen := make(map[int]struct{}, k)
		for len(buf)-start < k {
			v := s.rng.IntN(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			buf = append(buf, v)
		}
		return buf
	}
	buf = slices.Grow(buf, n)[:start+n]
	idx := buf[start:]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return buf[:start+k]
}

// NormFloat64 returns a standard normal variate.
func (s *Source) NormFloat64() float64 { return s.rng.NormFloat64() }

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 { return s.rng.ExpFloat64() }
