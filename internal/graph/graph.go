// Package graph provides the communication-graph substrate for the
// token-collecting model of Section 3 of the paper.
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
	"slices"

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
// connected with high probability for deg >= 3.
//
// The sampled edge sequence depends only on the RNG, never on the adjacency
// built so far, so the constructor draws every node's samples first and
// builds the sorted, deduplicated adjacency lists in one pass afterwards —
// the identical graph the historical per-edge sorted inserts produced. Node
// u's list is the union of its own samples and the nodes that sampled it:
// the samples are sorted per node, the samplers arrive sorted by drawing u
// in ascending order, and one merge per node drops the pairs sampled from
// both sides, writing every list into one backing array.
func RandomRegularish(n, deg int, rng *simrng.Source) *Graph {
	g := New(n)
	if n < 2 {
		return g
	}
	if deg > n-1 {
		deg = n - 1
	}
	// own[u*deg:(u+1)*deg] holds u's samples; end[v+1] counts v's samplers.
	own := make([]int32, n*deg)
	end := make([]int, n+1)
	var buf []int
	for u := 0; u < n; u++ {
		buf = rng.SampleIntsInto(buf[:0], n-1, deg)
		for k, v := range buf {
			if v >= u {
				v++
			}
			own[u*deg+k] = int32(v)
			end[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		end[v+1] += end[v]
	}
	// Bucket the samplers: filling bucket v advances end[v] from its start
	// to the start of bucket v+1, so afterwards v's samplers are
	// in[end[v-1]:end[v]] (from 0 for v = 0), ascending.
	in := make([]int32, n*deg)
	for u := 0; u < n; u++ {
		for _, v := range own[u*deg : (u+1)*deg] {
			in[end[v]] = int32(u)
			end[v]++
		}
	}
	backing := make([]int, 0, 2*n*deg)
	lo := 0
	for u := 0; u < n; u++ {
		a := own[u*deg : (u+1)*deg]
		slices.Sort(a)
		b := in[lo:end[u]]
		lo = end[u]
		first := len(backing)
		for len(a) > 0 || len(b) > 0 {
			var x int32
			switch {
			case len(b) == 0 || (len(a) > 0 && a[0] < b[0]):
				x, a = a[0], a[1:]
			case len(a) == 0 || b[0] < a[0]:
				x, b = b[0], b[1:]
			default: // the pair was sampled from both sides
				x, a, b = a[0], a[1:], b[1:]
			}
			backing = append(backing, int(x))
		}
		g.adj[u] = backing[first:len(backing):len(backing)]
	}
	return g
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
