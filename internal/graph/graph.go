// Package graph provides the communication graphs of the simulators: the
// token-collecting model of Section 3 of the paper, coding's dissemination
// and the public facade take a Graph, and the swarm draws its peer sets
// with RegularishCSR straight into the packed arrays it runs on.
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

	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// Graph is an undirected graph on nodes 0..N-1 stored as adjacency lists.
// Adjacency lists are kept sorted and deduplicated by the constructors.
type Graph struct {
	n   int
	adj [][]int
}

// New returns an empty graph on n nodes. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge inserts the undirected edge (u, v). Self-loops and duplicate edges
// are ignored. It returns an error if either endpoint is out of range.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v || g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	return nil
}

func insertSorted(s []int, v int) []int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = v
	return s
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	nb := g.adj[u]
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nb[mid] < v:
			lo = mid + 1
		case nb[mid] > v:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// AdjList returns u's sorted neighbor list without copying; out-of-range u
// reads as empty. The slice aliases the graph's internal storage and must
// be treated as read-only: simulator hot loops read it every round.
func (g *Graph) AdjList(u int) []int {
	if u < 0 || u >= g.n {
		return nil
	}
	return g.adj[u]
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			// AddEdge cannot fail for in-range endpoints.
			_ = g.AddEdge(u, v)
		}
	}
	return g
}

// Grid returns a rows x cols 4-connected grid. Node (r, c) has index
// r*cols + c.
func Grid(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			if c+1 < cols {
				_ = g.AddEdge(u, u+1)
			}
			if r+1 < rows {
				_ = g.AddEdge(u, u+cols)
			}
		}
	}
	return g
}

// Random returns an Erdős–Rényi G(n, p) graph drawn from rng.
func Random(n int, p float64, rng *simrng.Source) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Bool(p) {
				_ = g.AddEdge(u, v)
			}
		}
	}
	return g
}

// RandomRegularish returns a graph where each node receives deg random
// distinct neighbors (the realized degree may exceed deg because edges are
// undirected). It approximates a random regular graph cheaply and is
// connected with high probability for deg >= 3. It is RegularishCSR's
// graph in adjacency-list form.
func RandomRegularish(n, deg int, rng *simrng.Source) *Graph {
	g := New(n)
	off, adj := RegularishCSR(n, deg, rng)
	backing := make([]int, len(adj))
	for i, v := range adj {
		backing[i] = int(v)
	}
	for u := 0; u < n; u++ {
		g.adj[u] = backing[off[u]:off[u+1]:off[u+1]]
	}
	return g
}

// RegularishCSR draws RandomRegularish's graph in compressed sparse row
// form: node u's sorted neighbors are adj[off[u]:off[u+1]]. Both arrays get
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
func RegularishCSR(n, deg int, rng *simrng.Source) (off []int, adj []int32) {
	off = make([]int, n+1)
	sim.AdviseHugePages(off)
	if n < 2 {
		return off, nil
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
	adj = make([]int32, 2*m)
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
	return off, adj[:o]
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
