package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// The host's speed drifts. On a shared machine the same pass runs 15–35 %
// faster or slower for minutes at a time, and by as much within a run, in
// CPU time as much as in wall time, as the host's other tenants load the
// core; a run-to-run spread of that size would hide any change smaller
// than it. So a run times a fixed piece of work that uses no code of the
// repository before its first set-up and after every set-up and every
// pass. That work slows down with the host and not with the program, and
// dividing by it leaves the program's share: each set-up and pass time is
// scaled by refCalSeconds over the mean of the two calibrations on either
// side of it, and setup_s and ref_wall_s are the medians of those. Pairing
// each sample with its neighbours follows drift inside a run, which a
// ratio of whole-run medians does not.
//
// The work is ordinary Go through the standard library — JSON encoding and
// decoding, sorting, map updates, compression — so that, like the
// simulations and the server, it spends its time in branchy code with a
// large instruction footprint, in the allocator and in the collector. On
// the reference machine it followed the workloads' drift more closely than
// tight loops of integer arithmetic or of dependent reads over L2-, L3- or
// DRAM-sized buffers, which a loaded host slows by less than it slows real
// code. A collection before each calibration leaves it the same heap to
// work on whatever the program left behind.

// refCalSeconds is the calibration's median time on the reference machine
// that bench/README.md describes. It only sets the scale of setup_s and
// ref_wall_s, which read close to wall times on that machine.
const refCalSeconds = 0.12

// calRounds makes one calibration take about refCalSeconds.
const calRounds = 3

// calRecord is one element of the calibration's JSON document.
type calRecord struct {
	Name  string             `json:"name"`
	X     float64            `json:"x"`
	Y     float64            `json:"y"`
	Tags  []string           `json:"tags"`
	Attrs map[string]float64 `json:"attrs"`
}

// calibrator holds the calibration's inputs, made once from a fixed seed,
// and the last result, kept so the compiler cannot drop the work.
type calibrator struct {
	records []calRecord
	floats  []float64
	keys    []string
	text    []byte
	sink    int
}

func newCalibrator() *calibrator {
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	c := &calibrator{}
	for i := range 1500 {
		c.records = append(c.records, calRecord{
			Name:  "node-" + strconv.Itoa(i),
			X:     float64(next(1000)) / 7,
			Y:     float64(next(1000)) / 3,
			Tags:  []string{"a" + strconv.FormatUint(next(50), 10), "b" + strconv.FormatUint(next(50), 10)},
			Attrs: map[string]float64{"p": float64(next(100)), "q": float64(next(100))},
		})
	}
	for range 60_000 {
		c.floats = append(c.floats, float64(next(1_000_000))/3)
	}
	for range 30_000 {
		c.keys = append(c.keys, "k"+strconv.FormatUint(next(100_000), 36))
	}
	words := []string{"lotus", "eater", "gossip", "swarm", "token", "scrip", "coding", "satiate", "trade", "attack"}
	var text bytes.Buffer
	for text.Len() < 200_000 {
		text.WriteString(words[next(uint64(len(words)))])
		text.WriteByte(' ')
		text.WriteString(strconv.FormatUint(next(1000), 10))
		text.WriteByte('\n')
	}
	c.text = text.Bytes()
	return c
}

// scaled returns the median over xs of each sample times refCalSeconds
// over the mean of the calibrations around it: cals[i] was timed just
// before xs[i] and cals[i+1] just after.
func scaled(xs, cals []float64) float64 {
	rs := make([]float64, len(xs))
	for i, x := range xs {
		rs[i] = x * 2 * refCalSeconds / (cals[i] + cals[i+1])
	}
	return median(rs)
}

// run collects garbage, then does the fixed work calRounds times and
// returns the seconds the work took.
func (c *calibrator) run() float64 {
	runtime.GC()
	start := time.Now()
	for range calRounds {
		c.sink += c.round()
	}
	return time.Since(start).Seconds()
}

// round is one pass over the calibration's inputs. The inputs are
// well-formed, so the standard library's errors cannot occur.
func (c *calibrator) round() int {
	data, _ := json.Marshal(c.records)
	var back []calRecord
	_ = json.Unmarshal(data, &back)
	fs := slices.Clone(c.floats)
	slices.Sort(fs)
	counts := map[string]int{}
	for i, k := range c.keys {
		counts[k] += i
	}
	var out bytes.Buffer
	w, _ := flate.NewWriter(&out, flate.DefaultCompression)
	_, _ = w.Write(c.text)
	_ = w.Close()
	return len(back) + len(counts) + out.Len() + int(fs[0])
}
