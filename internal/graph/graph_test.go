package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lotuseater/internal/simrng"
)

// edges counts g's undirected edges pair by pair through HasEdge, so it is
// independent of the adjacency lists the degree checks read.
func edges(g *Graph) int {
	m := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if g.HasEdge(u, v) {
				m++
			}
		}
	}
	return m
}

// bfs returns the hop distance from src to every node over paths that avoid
// the gone nodes; unreachable (and gone) nodes get -1.
func bfs(g *Graph, src int, gone map[int]bool) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() || gone[src] {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.AdjList(u) {
			if dist[v] == -1 && !gone[v] {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// isCut is the cut oracle: whether removing nodes leaves at least two
// survivors that cannot reach each other.
func isCut(g *Graph, nodes []int) bool {
	gone := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		gone[v] = true
	}
	first, survivors := -1, 0
	for u := 0; u < g.N(); u++ {
		if !gone[u] {
			survivors++
			if first == -1 {
				first = u
			}
		}
	}
	if survivors <= 1 {
		return false
	}
	reached := 0
	for _, d := range bfs(g, first, gone) {
		if d >= 0 {
			reached++
		}
	}
	return reached < survivors
}

// connected reports whether every node reaches every other.
func connected(g *Graph) bool { return !isCut(g, nil) }

func TestNewAndAddEdge(t *testing.T) {
	g := New(5)
	if g.N() != 5 || edges(g) != 0 {
		t.Fatalf("N=%d M=%d, want 5, 0", g.N(), edges(g))
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err) // duplicate, ignored
	}
	if err := g.AddEdge(2, 2); err != nil {
		t.Fatal(err) // self-loop, ignored
	}
	if edges(g) != 1 {
		t.Fatalf("M = %d, want 1", edges(g))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge (0,1) missing in one direction")
	}
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop present")
	}
}

func TestAddEdgeOutOfRange(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 3); err == nil {
		t.Fatal("AddEdge(0,3) on 3-node graph did not error")
	}
	if err := g.AddEdge(-1, 0); err == nil {
		t.Fatal("AddEdge(-1,0) did not error")
	}
}

func TestAdjListSorted(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1} {
		if err := g.AddEdge(3, v); err != nil {
			t.Fatal(err)
		}
	}
	nb := g.AdjList(3)
	want := []int{1, 2, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("AdjList = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("AdjList = %v, want sorted %v", nb, want)
		}
	}
	if g.AdjList(-1) != nil || g.AdjList(6) != nil {
		t.Fatal("out-of-range AdjList not nil")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if edges(g) != 15 {
		t.Fatalf("K6 has %d edges, want 15", edges(g))
	}
	for v := 0; v < 6; v++ {
		if len(g.AdjList(v)) != 5 {
			t.Fatalf("node %d degree %d, want 5", v, len(g.AdjList(v)))
		}
	}
	if !connected(g) {
		t.Fatal("K6 not connected")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Edges: horizontal 3*3 + vertical 2*4 = 17.
	if edges(g) != 17 {
		t.Fatalf("M = %d, want 17", edges(g))
	}
	if !connected(g) {
		t.Fatal("grid not connected")
	}
	// Corner degree 2, middle degree 4.
	if len(g.AdjList(0)) != 2 {
		t.Fatalf("corner degree %d", len(g.AdjList(0)))
	}
	if len(g.AdjList(1*4+1)) != 4 {
		t.Fatalf("interior degree %d", len(g.AdjList(5)))
	}
}

func TestRandomEdgeProbability(t *testing.T) {
	rng := simrng.New(1)
	g := Random(100, 0.1, rng)
	maxEdges := 100 * 99 / 2
	frac := float64(edges(g)) / float64(maxEdges)
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("G(100, 0.1) realized edge fraction %g", frac)
	}
}

func TestRandomExtremes(t *testing.T) {
	rng := simrng.New(1)
	if g := Random(20, 0, rng); edges(g) != 0 {
		t.Fatalf("G(20,0) has %d edges", edges(g))
	}
	if g := Random(20, 1, rng); edges(g) != 190 {
		t.Fatalf("G(20,1) has %d edges, want 190", edges(g))
	}
}

func TestRandomRegularishConnected(t *testing.T) {
	rng := simrng.New(3)
	g := RandomRegularish(200, 4, rng)
	if !connected(g) {
		t.Fatal("RandomRegularish(200, 4) disconnected")
	}
	for v := 0; v < 200; v++ {
		if len(g.AdjList(v)) < 4 {
			t.Fatalf("node %d degree %d < requested 4", v, len(g.AdjList(v)))
		}
	}
}

// randomRegularishOracle is the original bucket-and-sort builder, kept as
// the reference RegularishCSR is checked against: draw the whole edge
// multiset, bucket both endpoints of every edge, then sort and dedup each
// node's bucket.
func randomRegularishOracle(n, deg int, rng *simrng.Source) [][]int {
	adjs := make([][]int, n)
	if n < 2 {
		return adjs
	}
	if deg > n-1 {
		deg = n - 1
	}
	us := make([]int32, 0, n*deg)
	vs := make([]int32, 0, n*deg)
	degCnt := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range rng.SampleInts(n-1, deg) {
			if v >= u {
				v++
			}
			us = append(us, int32(u))
			vs = append(vs, int32(v))
			degCnt[u]++
			degCnt[v]++
		}
	}
	off := make([]int, n+1)
	for u := 0; u < n; u++ {
		off[u+1] = off[u] + int(degCnt[u])
	}
	buf := make([]int, off[n])
	pos := make([]int, n)
	copy(pos, off[:n])
	for i := range us {
		u, v := int(us[i]), int(vs[i])
		buf[pos[u]] = v
		pos[u]++
		buf[pos[v]] = u
		pos[v]++
	}
	for u := 0; u < n; u++ {
		seg := buf[off[u]:off[u+1]]
		sort.Ints(seg)
		uniq := 0
		for i, v := range seg {
			if i > 0 && v == seg[i-1] {
				continue
			}
			seg[uniq] = v
			uniq++
		}
		adj := make([]int, uniq)
		copy(adj, seg[:uniq])
		adjs[u] = adj
	}
	return adjs
}

// TestRandomRegularishMatchesOracle: RegularishCSR's offsets and packed
// adjacency, and the lists of its RandomRegularish wrapper, are the graph
// the bucket-and-sort builder drew, including where the sampler takes its
// partial Fisher–Yates branch (4·deg > n−1) and where deg clamps to n−1,
// and at the swarm's 10⁵-leecher shape (n = 100001, deg = 12).
func TestRandomRegularishMatchesOracle(t *testing.T) {
	type shape struct {
		n, deg int
		seed   uint64
	}
	shapes := []shape{{100001, 12, 1}}
	for _, n := range []int{0, 1, 2, 3, 5, 13, 97, 1000, 20000} {
		for _, deg := range []int{1, 2, 3, 4, 6, 12, 40} {
			for seed := uint64(1); seed <= 3; seed++ {
				shapes = append(shapes, shape{n, deg, seed})
			}
		}
	}
	for _, sh := range shapes {
		n, deg, seed := sh.n, sh.deg, sh.seed
		want := randomRegularishOracle(n, deg, simrng.New(seed))
		off, adj := RegularishCSR(n, deg, simrng.New(seed))
		if len(off) != n+1 || off[0] != 0 || off[n] != len(adj) {
			t.Fatalf("n=%d deg=%d seed=%d: %d offsets from %d to %d over %d targets", n, deg, seed, len(off), off[0], off[n], len(adj))
		}
		row := make([]int, 0, 2*deg)
		for u := range want {
			row = row[:0]
			for _, v := range adj[off[u]:off[u+1]] {
				row = append(row, int(v))
			}
			if !slices.Equal(row, want[u]) {
				t.Fatalf("n=%d deg=%d seed=%d: CSR row %d = %v, want %v", n, deg, seed, u, row, want[u])
			}
		}
		g := RandomRegularish(n, deg, simrng.New(seed))
		if g.N() != n {
			t.Fatalf("n=%d deg=%d seed=%d: N() = %d", n, deg, seed, g.N())
		}
		for u := range want {
			if got := g.AdjList(u); !slices.Equal(got, want[u]) {
				t.Fatalf("n=%d deg=%d seed=%d: node %d adjacency %v, want %v", n, deg, seed, u, got, want[u])
			}
		}
	}
}

func TestRandomRegularishDegreeClamp(t *testing.T) {
	rng := simrng.New(3)
	g := RandomRegularish(4, 10, rng)
	if edges(g) != 6 {
		t.Fatalf("deg clamp failed: M = %d, want complete graph 6", edges(g))
	}
}

// TestBFS checks the distance oracle the cut and connectivity checks use.
func TestBFS(t *testing.T) {
	g := Grid(1, 5) // path 0-1-2-3-4
	dist := bfs(g, 0, nil)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if d := bfs(g, 0, map[int]bool{2: true}); d[1] != 1 || d[2] != -1 || d[3] != -1 {
		t.Fatalf("distances around a gone node: %v", d)
	}
	if d := bfs(New(3), 0, nil); d[1] != -1 || d[2] != -1 {
		t.Fatal("unreachable nodes should get -1")
	}
	if d := bfs(New(3), -1, nil); d[0] != -1 {
		t.Fatal("out-of-range src should mark all unreachable")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !connected(New(0)) || !connected(New(1)) {
		t.Fatal("empty/singleton graphs should be connected")
	}
	if connected(New(2)) {
		t.Fatal("two isolated nodes reported connected")
	}
}

func TestIsCut(t *testing.T) {
	g := Grid(1, 5)
	if !isCut(g, []int{2}) {
		t.Fatal("middle of a path is a cut")
	}
	if isCut(g, []int{0}) {
		t.Fatal("endpoint of a path is not a cut")
	}
	if isCut(g, []int{0, 1, 2, 3}) {
		t.Fatal("one survivor cannot be disconnected")
	}
}

func TestGridColumnCutIsCut(t *testing.T) {
	g := Grid(8, 8)
	cut := GridColumnCut(8, 8, 4)
	if len(cut) != 8 {
		t.Fatalf("cut has %d nodes", len(cut))
	}
	if !isCut(g, cut) {
		t.Fatal("full column does not cut the grid")
	}
	partial := cut[:7]
	if isCut(g, partial) {
		t.Fatal("partial column should not cut the grid")
	}
}

// TestDegreeSumEqualsTwiceEdges is the handshake lemma on random graphs:
// the adjacency lists agree with HasEdge.
func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw) / 255
		g := Random(n, p, simrng.New(seed))
		sum := 0
		for v := 0; v < n; v++ {
			sum += len(g.AdjList(v))
		}
		return sum == 2*edges(g)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBFSTriangleInequality: BFS distances never skip by more than 1 along
// an edge.
func TestBFSTriangleInequality(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := Random(30, 0.15, simrng.New(seed))
		dist := bfs(g, 0, nil)
		for u := 0; u < 30; u++ {
			if dist[u] < 0 {
				continue
			}
			for _, v := range g.AdjList(u) {
				if dist[v] < 0 || dist[v] > dist[u]+1 || dist[u] > dist[v]+1 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRegularishCSR draws the swarm's peer graph at churn-100k's
// 10⁵-leecher shape: 100001 nodes (the leechers and the initial seed) of
// sampled degree 12.
func BenchmarkRegularishCSR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RegularishCSR(100_001, 12, simrng.New(uint64(i)+1))
	}
}
