package coding

import (
	"bytes"
	"testing"
	"testing/quick"

	"lotuseater/internal/simrng"
)

// --- GF(2^8) field axioms ---

func TestGFAddIsXor(t *testing.T) {
	if Add(0x57, 0x83) != 0xd4 {
		t.Fatal("Add is not XOR")
	}
}

func TestGFMulKnownValues(t *testing.T) {
	// 2 * 2 = 4; generator powers under 0x11d.
	cases := []struct{ a, b, want byte }{
		{0, 5, 0}, {5, 0, 0}, {1, 77, 77}, {2, 2, 4}, {2, 128, 29},
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Fatalf("Mul(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGFFieldAxiomsExhaustiveInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a = %d", a)
		}
	}
}

func TestGFInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestGFDivZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(x, 0) did not panic")
		}
	}()
	Div(5, 0)
}

func TestGFMulCommutativeAssociativeQuick(t *testing.T) {
	err := quick.Check(func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity over addition.
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGFDivInvertsMul(t *testing.T) {
	err := quick.Check(func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	dst := []byte{1, 2, 3, 0}
	src := []byte{9, 0, 7, 5}
	want := make([]byte, 4)
	for i := range want {
		want[i] = Add(dst[i], Mul(0x37, src[i]))
	}
	mulSlice(dst, src, 0x37)
	if !bytes.Equal(dst, want) {
		t.Fatalf("mulSlice = %v, want %v", dst, want)
	}
}

func TestScaleSlice(t *testing.T) {
	v := []byte{1, 2, 0, 255}
	want := make([]byte, 4)
	for i := range want {
		want[i] = Mul(v[i], 0x1d)
	}
	scaleSlice(v, 0x1d)
	if !bytes.Equal(v, want) {
		t.Fatalf("scaleSlice mismatch")
	}
	zero := []byte{3, 4}
	scaleSlice(zero, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("scale by zero")
	}
}

// --- Encoder/Decoder ---

func sources(k, size int, seed uint64) [][]byte {
	rng := simrng.New(seed)
	out := make([][]byte, k)
	for i := range out {
		buf := make([]byte, size)
		for j := range buf {
			buf[j] = byte(rng.IntN(256))
		}
		out[i] = buf
	}
	return out
}

func TestEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(nil); err == nil {
		t.Fatal("empty symbols accepted")
	}
	if _, err := NewEncoder([][]byte{{}}); err == nil {
		t.Fatal("zero-size symbols accepted")
	}
	if _, err := NewEncoder([][]byte{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged symbols accepted")
	}
}

func TestDecoderValidation(t *testing.T) {
	if _, err := NewDecoder(0, 4); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewDecoder(4, 0); err == nil {
		t.Fatal("size=0 accepted")
	}
	d, err := NewDecoder(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add(Packet{Coeffs: []byte{1, 2}, Payload: make([]byte, 8)}); err == nil {
		t.Fatal("wrong coeff count accepted")
	}
	if _, err := d.Add(Packet{Coeffs: make([]byte, 4), Payload: make([]byte, 3)}); err == nil {
		t.Fatal("wrong payload size accepted")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	const k, size = 8, 32
	src := sources(k, size, 1)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrng.New(2)
	packets := 0
	for !dec.Complete() {
		if _, err := dec.Add(enc.Encode(rng)); err != nil {
			t.Fatal(err)
		}
		packets++
		if packets > 3*k {
			t.Fatalf("needed more than %d random packets for rank %d", packets, k)
		}
	}
	decoded, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(decoded[i], src[i]) {
			t.Fatalf("symbol %d decoded incorrectly", i)
		}
	}
}

func TestUnitPackets(t *testing.T) {
	const k, size = 5, 16
	src := sources(k, size, 3)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		innovative, err := dec.Add(enc.Unit(i))
		if err != nil {
			t.Fatal(err)
		}
		if !innovative {
			t.Fatalf("unit %d not innovative", i)
		}
		if dec.Rank() != i+1 {
			t.Fatalf("rank %d after %d units", dec.Rank(), i+1)
		}
	}
	decoded, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(decoded[i], src[i]) {
			t.Fatalf("unit roundtrip broke symbol %d", i)
		}
	}
}

// TestDecodeOutOfOrderPivots: a packet that opens a pivot below an existing
// one must still be reduced against it. Unit 2, then units 1+2, then unit 0
// once decoded symbol 1 as s1^s2.
func TestDecodeOutOfOrderPivots(t *testing.T) {
	const k, size = 3, 8
	src := sources(k, size, 5)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	both := enc.Unit(1)
	two := enc.Unit(2)
	mulSlice(both.Coeffs, two.Coeffs, 1)
	mulSlice(both.Payload, two.Payload, 1)
	for _, p := range []Packet{two, both, enc.Unit(0)} {
		if innovative, err := dec.Add(p); err != nil || !innovative {
			t.Fatalf("packet %v: innovative %v, err %v", p.Coeffs, innovative, err)
		}
	}
	decoded, err := dec.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if !bytes.Equal(decoded[i], src[i]) {
			t.Fatalf("symbol %d decoded as %v, want %v", i, decoded[i], src[i])
		}
	}
}

func TestDuplicatePacketNotInnovative(t *testing.T) {
	const k, size = 4, 8
	enc, err := NewEncoder(sources(k, size, 4))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	p := enc.Encode(simrng.New(5))
	if inn, _ := dec.Add(p); !inn {
		t.Fatal("first packet not innovative")
	}
	if inn, _ := dec.Add(p); inn {
		t.Fatal("duplicate packet innovative")
	}
	if dec.Rank() != 1 {
		t.Fatalf("rank %d", dec.Rank())
	}
}

func TestScaledPacketNotInnovative(t *testing.T) {
	const k, size = 4, 8
	enc, err := NewEncoder(sources(k, size, 6))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	p := enc.Encode(simrng.New(7))
	if _, err := dec.Add(p); err != nil {
		t.Fatal(err)
	}
	scaled := clonePacket(p)
	scaleSlice(scaled.Coeffs, 3)
	scaleSlice(scaled.Payload, 3)
	if inn, _ := dec.Add(scaled); inn {
		t.Fatal("scalar multiple counted as innovative")
	}
}

func TestDecodeIncompleteFails(t *testing.T) {
	dec, err := NewDecoder(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); err == nil {
		t.Fatal("decode succeeded at rank 0")
	}
}

func TestRecode(t *testing.T) {
	const k, size = 6, 16
	src := sources(k, size, 8)
	enc, err := NewEncoder(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrng.New(9)

	// Relay holds 3 packets; a downstream decoder fed only recodings of the
	// relay's span can reach at most rank 3, and recodings must stay
	// consistent with the sources.
	relay, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := relay.Add(enc.Encode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	down, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p, ok := relay.Recode(rng)
		if !ok {
			t.Fatal("recode failed with nonzero rank")
		}
		if _, err := down.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if down.Rank() > 3 {
		t.Fatalf("downstream rank %d exceeds relay span 3", down.Rank())
	}
	if down.Rank() < 3 {
		t.Fatalf("downstream rank %d; recoding lost information", down.Rank())
	}
}

func TestRecodeEmpty(t *testing.T) {
	dec, err := NewDecoder(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dec.Recode(simrng.New(1)); ok {
		t.Fatal("recode from empty decoder succeeded")
	}
}

// TestRankNeverExceedsK and never decreases.
func TestRankMonotoneBounded(t *testing.T) {
	const k, size = 5, 8
	enc, err := NewEncoder(sources(k, size, 10))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(k, size)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrng.New(11)
	prev := 0
	for i := 0; i < 50; i++ {
		if _, err := dec.Add(enc.Encode(rng)); err != nil {
			t.Fatal(err)
		}
		r := dec.Rank()
		if r < prev || r > k {
			t.Fatalf("rank %d after %d (prev %d)", r, i, prev)
		}
		prev = r
	}
	if prev != k {
		t.Fatalf("final rank %d", prev)
	}
}
