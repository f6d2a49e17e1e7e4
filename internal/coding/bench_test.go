package coding

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/simrng"
)

func BenchmarkGFMul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= Mul(byte(i), byte(i>>8)|1)
	}
	_ = acc
}

func BenchmarkMulSlice1K(b *testing.B) {
	dst := make([]byte, 1024)
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i*7 + 1)
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mulSlice(dst, src, byte(i)|1)
	}
}

// BenchmarkDecoderAdd measures absorbing one innovative packet at the E6
// experiment's dimensions (24 symbols, 32-byte payloads).
func BenchmarkDecoderAdd(b *testing.B) {
	const k, size = 24, 32
	enc, err := NewEncoder(make2D(k, size))
	if err != nil {
		b.Fatal(err)
	}
	rng := simrng.New(1)
	packets := make([]Packet, 256)
	for i := range packets {
		packets[i] = enc.Encode(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(k, size)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; !dec.Complete(); j++ {
			if _, err := dec.Add(packets[(i+j)%len(packets)]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRecode(b *testing.B) {
	const k, size = 24, 32
	enc, err := NewEncoder(make2D(k, size))
	if err != nil {
		b.Fatal(err)
	}
	rng := simrng.New(2)
	dec, err := NewDecoder(k, size)
	if err != nil {
		b.Fatal(err)
	}
	for !dec.Complete() {
		if _, err := dec.Add(enc.Encode(rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := dec.Recode(rng); !ok {
			b.Fatal("recode failed")
		}
	}
}

func make2D(k, size int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		buf := make([]byte, size)
		for j := range buf {
			buf[j] = byte(i*31 + j)
		}
		out[i] = buf
	}
	return out
}

// BenchmarkPlainStep measures one plain-mode round at coding-ideal's shape:
// 96 nodes on a random graph of degree 4, 24 symbols, 2 contacts, and a
// 10 % ideal attacker satiating 30 % of the nodes (the middle of that
// scenario's sweep). A finished run is rebuilt off the clock, so ns/op is
// the mean round over whole 50-round runs.
func BenchmarkPlainStep(b *testing.B) {
	build := func(seed uint64) *Dissemination {
		cfg := DisseminationConfig{
			Graph:       graph.Regularish(96, 4, simrng.New(seed).Child("graph")),
			Symbols:     24,
			PayloadSize: 32,
			Contacts:    2,
			Rounds:      50,
		}
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.10, SatiateFraction: 0.30}
		d, err := NewDissemination(cfg, seed, WithAdversary(adv))
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	seed := uint64(1)
	d := build(seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Finished() {
			b.StopTimer()
			seed++
			d = build(seed)
			b.StartTimer()
		}
		if err := d.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
