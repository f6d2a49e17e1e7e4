package coding

import (
	"errors"
	"fmt"

	"lotuseater/internal/simrng"
)

// Packet is one coded packet: a coefficient vector over the source symbols
// and the corresponding linear combination of their payloads.
type Packet struct {
	// Coeffs has one entry per source symbol.
	Coeffs []byte
	// Payload is sum_i Coeffs[i] * symbol_i.
	Payload []byte
}

// clonePacket deep-copies p.
func clonePacket(p Packet) Packet {
	return Packet{
		Coeffs:  append([]byte(nil), p.Coeffs...),
		Payload: append([]byte(nil), p.Payload...),
	}
}

// Encoder produces random linear combinations of a fixed set of source
// symbols (the broadcaster side of Avalanche).
type Encoder struct {
	symbols [][]byte
	size    int
}

// NewEncoder wraps the given source symbols. All symbols must share one
// size, and there must be at least one.
func NewEncoder(symbols [][]byte) (*Encoder, error) {
	if len(symbols) == 0 {
		return nil, errors.New("coding: no source symbols")
	}
	size := len(symbols[0])
	if size == 0 {
		return nil, errors.New("coding: empty source symbols")
	}
	copies := make([][]byte, len(symbols))
	for i, s := range symbols {
		if len(s) != size {
			return nil, fmt.Errorf("coding: symbol %d has size %d, want %d", i, len(s), size)
		}
		copies[i] = append([]byte(nil), s...)
	}
	return &Encoder{symbols: copies, size: size}, nil
}

// Unit returns the trivial packet carrying source symbol i alone. It
// panics for out-of-range i.
func (e *Encoder) Unit(i int) Packet {
	coeffs := make([]byte, len(e.symbols))
	coeffs[i] = 1
	return Packet{Coeffs: coeffs, Payload: append([]byte(nil), e.symbols[i]...)}
}

// Encode draws a packet with uniformly random coefficients. The zero vector
// (probability 256^-k) is re-drawn, so the result always carries
// information.
func (e *Encoder) Encode(rng *simrng.Source) Packet {
	coeffs := make([]byte, len(e.symbols))
	for {
		nonzero := false
		for i := range coeffs {
			coeffs[i] = byte(rng.IntN(256))
			if coeffs[i] != 0 {
				nonzero = true
			}
		}
		if nonzero {
			break
		}
	}
	payload := make([]byte, e.size)
	for i, c := range coeffs {
		mulSlice(payload, e.symbols[i], c)
	}
	return Packet{Coeffs: coeffs, Payload: payload}
}

// Decoder accumulates coded packets via incremental Gaussian elimination
// and reconstructs the source symbols at full rank (the receiver side).
// A Decoder also serves as a recoder: Recode emits a random combination of
// everything received so far, which is what an intermediate node forwards.
type Decoder struct {
	k    int
	size int
	// rows[p] is the reduced row whose pivot column is p, or nil.
	rows []Packet
	rank int
}

// NewDecoder returns a decoder for k source symbols of the given payload
// size.
func NewDecoder(k, size int) (*Decoder, error) {
	if k < 1 {
		return nil, fmt.Errorf("coding: symbol count must be positive, got %d", k)
	}
	if size < 1 {
		return nil, fmt.Errorf("coding: payload size must be positive, got %d", size)
	}
	return &Decoder{k: k, size: size, rows: make([]Packet, k)}, nil
}

// Rank returns the dimension of the received span.
func (d *Decoder) Rank() int { return d.rank }

// Complete reports full rank: the sources are reconstructible.
func (d *Decoder) Complete() bool { return d.rank == d.k }

// Add absorbs a packet. It returns true if the packet was innovative
// (increased the rank). Malformed packets are rejected with an error.
func (d *Decoder) Add(p Packet) (bool, error) {
	if len(p.Coeffs) != d.k {
		return false, fmt.Errorf("coding: packet has %d coefficients, want %d", len(p.Coeffs), d.k)
	}
	if len(p.Payload) != d.size {
		return false, fmt.Errorf("coding: packet payload is %d bytes, want %d", len(p.Payload), d.size)
	}
	w := clonePacket(p)
	// Eliminate every pivot column first. Each stored row is zero in every
	// other pivot column, so one pass leaves w zero in all of them, even
	// when pivots were created out of column order (a sparse packet can
	// open a high pivot before a low one).
	for col := 0; col < d.k; col++ {
		if c := w.Coeffs[col]; c != 0 && d.rows[col].Coeffs != nil {
			mulSlice(w.Coeffs, d.rows[col].Coeffs, c)
			mulSlice(w.Payload, d.rows[col].Payload, c)
		}
	}
	for col := 0; col < d.k; col++ {
		if c := w.Coeffs[col]; c != 0 {
			// New pivot: normalize and store.
			inv := Inv(c)
			scaleSlice(w.Coeffs, inv)
			scaleSlice(w.Payload, inv)
			d.rows[col] = w
			d.rank++
			d.reduceAbove(col)
			return true, nil
		}
	}
	return false, nil // w reduced to zero: not innovative
}

// reduceAbove back-substitutes the new pivot row into previously stored
// rows so the matrix stays fully reduced.
func (d *Decoder) reduceAbove(col int) {
	pivot := d.rows[col]
	for other := 0; other < d.k; other++ {
		if other == col || d.rows[other].Coeffs == nil {
			continue
		}
		c := d.rows[other].Coeffs[col]
		if c == 0 {
			continue
		}
		mulSlice(d.rows[other].Coeffs, pivot.Coeffs, c)
		mulSlice(d.rows[other].Payload, pivot.Payload, c)
	}
}

// Decode returns the reconstructed source symbols. It fails unless the
// decoder has full rank.
func (d *Decoder) Decode() ([][]byte, error) {
	if !d.Complete() {
		return nil, fmt.Errorf("coding: rank %d of %d, cannot decode", d.rank, d.k)
	}
	out := make([][]byte, d.k)
	for i := 0; i < d.k; i++ {
		out[i] = append([]byte(nil), d.rows[i].Payload...)
	}
	return out, nil
}

// Recode emits a fresh random combination of the decoder's span — true
// network coding at intermediate nodes. It returns false if nothing has
// been received yet.
func (d *Decoder) Recode(rng *simrng.Source) (Packet, bool) {
	if d.rank == 0 {
		return Packet{}, false
	}
	coeffs := make([]byte, d.k)
	payload := make([]byte, d.size)
	mixed := false
	for col := 0; col < d.k; col++ {
		if d.rows[col].Coeffs == nil {
			continue
		}
		c := byte(rng.IntN(256))
		if c == 0 {
			continue
		}
		mixed = true
		mulSlice(coeffs, d.rows[col].Coeffs, c)
		mulSlice(payload, d.rows[col].Payload, c)
	}
	if !mixed {
		// All random scalars were zero; fall back to the first stored row.
		for col := 0; col < d.k; col++ {
			if d.rows[col].Coeffs != nil {
				return clonePacket(d.rows[col]), true
			}
		}
	}
	return Packet{Coeffs: coeffs, Payload: payload}, true
}
