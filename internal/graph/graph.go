// Package graph provides the communication graphs of the simulators: the
// token-collecting model of Section 3 of the paper, coding's dissemination
// and the public facade take a Graph, and the swarm adopts the packed
// arrays of a Regularish graph as its peer sets.
//
// A system in the paper's model is characterized in part by an undirected
// graph G = (V, E) whose nodes are users and whose edges are the pairs of
// nodes that can potentially communicate. The package offers generators for
// the topologies the paper discusses: complete graphs for gossip-style
// systems, grids (and their column cuts) for sensor networks, and
// Erdős–Rényi and near-regular random graphs.
package graph

import (
	"fmt"
	"math"
	"slices"

	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// Graph is an undirected graph on nodes 0..N-1 in compressed sparse row
// form: node u's neighbours, sorted and distinct, are adj[off[u]:off[u+1]].
// The constructors below build it; it is read-only afterwards. The zero
// Graph has no nodes.
type Graph struct {
	off []int
	adj []int32
}

// N returns the number of nodes.
func (g *Graph) N() int { return max(len(g.off)-1, 0) }

// Neighbors returns u's sorted neighbours without copying. The slice
// aliases the graph's storage and must be treated as read-only: simulator
// hot loops read it every round.
func (g *Graph) Neighbors(u int) []int32 { return g.adj[g.off[u]:g.off[u+1]] }

// CSR returns the graph's packed arrays without copying: u's neighbours are
// adj[off[u]:off[u+1]]. A caller that indexes arrays of its own by the same
// offsets, as the swarm does, adopts them as they are; both are read-only.
func (g *Graph) CSR() (off []int, adj []int32) { return g.off, g.adj }

// FromEdges packs the undirected edges into a graph on n nodes. Repeated
// edges and self-loops are dropped, and each row is sorted, so the graph
// does not depend on the edges' order. The callers build their edges, so it
// panics, as on a bug, if n < 0 or an endpoint lies outside [0, n).
func FromEdges(n int, edges [][2]int) *Graph {
	off := make([]int, n+1)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, n))
		}
		if u != v {
			off[u+1]++
			off[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		off[u+1] += off[u]
	}
	adj := make([]int32, off[n])
	next := slices.Clone(off[:n])
	for _, e := range edges {
		if u, v := e[0], e[1]; u != v {
			adj[next[u]] = int32(v)
			next[u]++
			adj[next[v]] = int32(u)
			next[v]++
		}
	}
	// Sort each row, drop its repeats and pack it down onto the end of the
	// previous one; off[u+1] still marks the old end of row u.
	o := 0
	for u := 0; u < n; u++ {
		row := adj[off[u]:off[u+1]]
		slices.Sort(row)
		off[u] = o
		o += copy(adj[o:], slices.Compact(row))
	}
	off[n] = o
	return &Graph{off: off, adj: adj[:o]}
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	edges := make([][2]int, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return FromEdges(n, edges)
}

// Grid returns a rows x cols 4-connected grid. Node (r, c) has index
// r*cols + c.
func Grid(rows, cols int) *Graph {
	var edges [][2]int
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			if c+1 < cols {
				edges = append(edges, [2]int{u, u + 1})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{u, u + cols})
			}
		}
	}
	return FromEdges(rows*cols, edges)
}

// Random returns an Erdős–Rényi G(n, p) graph drawn from rng.
func Random(n int, p float64, rng *simrng.Source) *Graph {
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bool(p) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return FromEdges(n, edges)
}

// Regularish returns a graph where each node receives deg random distinct
// neighbors (the realized degree may exceed deg because edges are
// undirected). It approximates a random regular graph cheaply and is
// connected with high probability for deg >= 3. Both of its arrays get
// the huge-page hint (sim.AdviseHugePages) before their first write, which
// is when it counts with transparent huge pages in madvise mode, so a
// caller that probes them at random, as the swarm does, can adopt them as
// they are. The counters are int32: it panics unless n·deg < 2³¹.
//
// The sampled edge sequence depends only on the RNG, never on the adjacency
// built so far, so every node's samples are drawn first and kept as drawn.
// Node u's list is the union of its own samples and the nodes that sampled
// it. Bucketing the samplers by target lists each target's samplers in
// ascending order, since the samplers arrive in that order; transposing the
// buckets back, targets in ascending order, rewrites every node's samples
// sorted, so no row is ever sorted. One branch-free merge per node then
// writes the two lists into adj, a pair sampled from both sides once.
func Regularish(n, deg int, rng *simrng.Source) *Graph {
	off := make([]int, n+1)
	sim.AdviseHugePages(off)
	if n < 2 {
		return &Graph{off: off}
	}
	deg = min(deg, n-1)
	if n*deg > math.MaxInt32 {
		panic(fmt.Sprintf("graph: %d nodes of degree %d overflow the int32 edge counters", n, deg))
	}
	m := n * deg
	// own[u*deg:(u+1)*deg] holds u's samples; end[v+1] counts v's samplers.
	own := make([]int32, m)
	end := make([]int32, n+1)
	var buf []int
	for u := 0; u < n; u++ {
		buf = rng.SampleIntsInto(buf[:0], n-1, deg)
		row := own[u*deg : (u+1)*deg]
		for k, v := range buf {
			if v >= u {
				v++
			}
			row[k] = int32(v)
			end[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		end[v+1] += end[v]
	}
	// Bucket the samplers: filling bucket v advances end[v] from its start
	// to the start of bucket v+1, so afterwards v's samplers are
	// in[end[v-1]:end[v]] (from 0 for v = 0), ascending.
	in := make([]int32, m)
	for u := 0; u < n; u++ {
		for _, v := range own[u*deg : (u+1)*deg] {
			in[end[v]] = int32(u)
			end[v]++
		}
	}
	// Transpose back: visiting the targets in ascending order appends each
	// to its samplers' rows, which come out sorted. next[u] is the write
	// cursor of u's row.
	next := make([]int32, n)
	for u := range next {
		next[u] = int32(u * deg)
	}
	lo := int32(0)
	for v := 0; v < n; v++ {
		for _, u := range in[lo:end[v]] {
			own[next[u]] = int32(v)
			next[u]++
		}
		lo = end[v]
	}
	// Merge: min writes the smaller head, and each side advances when its
	// head is not the larger one (the sign bit of head−other−1), so a head
	// in both lists is written once and both advance.
	adj := make([]int32, 2*m)
	sim.AdviseHugePages(adj)
	o := 0
	lo = 0
	for u := 0; u < n; u++ {
		a, b := own[u*deg:(u+1)*deg], in[lo:end[u]]
		lo = end[u]
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			x, y := a[i], b[j]
			adj[o] = min(x, y)
			o++
			i += int(uint32(x-y-1) >> 31)
			j += int(uint32(y-x-1) >> 31)
		}
		o += copy(adj[o:], a[i:])
		o += copy(adj[o:], b[j:])
		off[u+1] = o
	}
	return &Graph{off: off, adj: adj[:o]}
}

// GridColumnCut returns the node indices of column col in a rows x cols grid
// built by Grid. Satiating (or removing) a full column partitions the grid —
// the paper's canonical cheap cut on structured topologies.
func GridColumnCut(rows, cols, col int) []int {
	out := make([]int, 0, rows)
	for r := 0; r < rows; r++ {
		out = append(out, r*cols+col)
	}
	return out
}
