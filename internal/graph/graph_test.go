package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"lotuseater/internal/simrng"
)

// adjacent reports whether v is in u's row, by binary search, as the rows
// are sorted.
func adjacent(g *Graph, u, v int) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), int32(v))
	return ok
}

// edges counts g's undirected edges pair by pair, each in the row of its
// lower endpoint only, so it is independent of the degree sums the
// handshake check reads.
func edges(g *Graph) int {
	m := 0
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if adjacent(g, u, v) {
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
		for _, w := range g.Neighbors(u) {
			if v := int(w); dist[v] == -1 && !gone[v] {
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

// TestNewAndAddEdge: FromEdges builds a graph of n nodes in which repeated
// edges (either way round) and self-loops are dropped, each kept edge is
// seen from both ends, and the packed CSR arrays hold exactly those rows.
func TestNewAndAddEdge(t *testing.T) {
	g := FromEdges(5, [][2]int{{0, 1}, {1, 0}, {2, 2}})
	if g.N() != 5 || edges(g) != 1 {
		t.Fatalf("N=%d M=%d, want 5, 1", g.N(), edges(g))
	}
	if !adjacent(g, 0, 1) || !adjacent(g, 1, 0) {
		t.Fatal("edge (0,1) missing in one direction")
	}
	if adjacent(g, 2, 2) {
		t.Fatal("self-loop present")
	}
	g = FromEdges(6, [][2]int{{3, 5}, {0, 1}, {2, 2}, {3, 2}, {1, 0}, {4, 3}, {3, 1}, {0, 1}, {5, 3}})
	want := [][]int32{{1}, {0, 3}, {3}, {1, 2, 4, 5}, {3}, {3}}
	if g.N() != len(want) {
		t.Fatalf("N = %d, want %d", g.N(), len(want))
	}
	for u, row := range want {
		if got := g.Neighbors(u); !slices.Equal(got, row) {
			t.Fatalf("row %d = %v, want %v", u, got, row)
		}
	}
	off, adj := g.CSR()
	if !slices.Equal(off, []int{0, 1, 3, 4, 8, 9, 10}) || len(adj) != 10 {
		t.Fatalf("CSR = %v over %d targets", off, len(adj))
	}
	if n0, nz := FromEdges(0, nil).N(), new(Graph).N(); n0 != 0 || nz != 0 {
		t.Fatalf("empty graphs have %d and %d nodes", n0, nz)
	}
}

// TestAddEdgeOutOfRange: an endpoint outside [0, n) passed to FromEdges
// panics, whichever end it is.
func TestAddEdgeOutOfRange(t *testing.T) {
	for _, e := range [][2]int{{0, 3}, {3, 0}, {-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("edge %v on 3 nodes did not panic", e)
				}
			}()
			FromEdges(3, [][2]int{{0, 1}, e})
		}()
	}
}

// TestAdjListSorted: every row comes out sorted whatever the order the
// edges were given in.
func TestAdjListSorted(t *testing.T) {
	g := FromEdges(6, [][2]int{{3, 5}, {2, 3}, {3, 4}, {1, 3}})
	if nb, want := g.Neighbors(3), []int32{1, 2, 4, 5}; !slices.Equal(nb, want) {
		t.Fatalf("Neighbors(3) = %v, want sorted %v", nb, want)
	}
	for u := 0; u < g.N(); u++ {
		if nb := g.Neighbors(u); !slices.IsSorted(nb) {
			t.Fatalf("row %d = %v not sorted", u, nb)
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if edges(g) != 15 {
		t.Fatalf("K6 has %d edges, want 15", edges(g))
	}
	for v := 0; v < 6; v++ {
		if len(g.Neighbors(v)) != 5 {
			t.Fatalf("node %d degree %d, want 5", v, len(g.Neighbors(v)))
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
	if len(g.Neighbors(0)) != 2 {
		t.Fatalf("corner degree %d", len(g.Neighbors(0)))
	}
	if len(g.Neighbors(1*4+1)) != 4 {
		t.Fatalf("interior degree %d", len(g.Neighbors(5)))
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

func TestRegularishConnected(t *testing.T) {
	rng := simrng.New(3)
	g := Regularish(200, 4, rng)
	if !connected(g) {
		t.Fatal("Regularish(200, 4) disconnected")
	}
	for v := 0; v < 200; v++ {
		if len(g.Neighbors(v)) < 4 {
			t.Fatalf("node %d degree %d < requested 4", v, len(g.Neighbors(v)))
		}
	}
}

// regularishOracle is the original bucket-and-sort builder, kept as the
// reference Regularish is checked against: draw the whole edge
// multiset, bucket both endpoints of every edge, then sort and dedup each
// node's bucket.
func regularishOracle(n, deg int, rng *simrng.Source) [][]int {
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

// TestRegularishMatchesOracle: Regularish's offsets and rows are the graph
// the bucket-and-sort builder drew, including where the sampler takes its
// partial Fisher–Yates branch (4·deg > n−1) and where deg clamps to n−1,
// and at the swarm's 10⁵-leecher shape (n = 100001, deg = 12).
func TestRegularishMatchesOracle(t *testing.T) {
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
		want := regularishOracle(n, deg, simrng.New(seed))
		g := Regularish(n, deg, simrng.New(seed))
		off, adj := g.CSR()
		if g.N() != n || off[0] != 0 || off[n] != len(adj) {
			t.Fatalf("n=%d deg=%d seed=%d: %d nodes, offsets from %d to %d over %d targets", n, deg, seed, g.N(), off[0], off[n], len(adj))
		}
		row := make([]int, 0, 2*deg)
		for u := range want {
			row = row[:0]
			for _, v := range g.Neighbors(u) {
				row = append(row, int(v))
			}
			if !slices.Equal(row, want[u]) {
				t.Fatalf("n=%d deg=%d seed=%d: row %d = %v, want %v", n, deg, seed, u, row, want[u])
			}
		}
	}
}

func TestRegularishDegreeClamp(t *testing.T) {
	rng := simrng.New(3)
	g := Regularish(4, 10, rng)
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
	if d := bfs(FromEdges(3, nil), 0, nil); d[1] != -1 || d[2] != -1 {
		t.Fatal("unreachable nodes should get -1")
	}
	if d := bfs(FromEdges(3, nil), -1, nil); d[0] != -1 {
		t.Fatal("out-of-range src should mark all unreachable")
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !connected(FromEdges(0, nil)) || !connected(FromEdges(1, nil)) {
		t.Fatal("empty/singleton graphs should be connected")
	}
	if connected(FromEdges(2, nil)) {
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
// every edge sits in the rows of both its endpoints.
func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw) / 255
		g := Random(n, p, simrng.New(seed))
		sum := 0
		for v := 0; v < n; v++ {
			sum += len(g.Neighbors(v))
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
			for _, v := range g.Neighbors(u) {
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

// BenchmarkRegularish draws the swarm's peer graph at churn-100k's
// 10⁵-leecher shape: 100001 nodes (the leechers and the initial seed) of
// sampled degree 12.
func BenchmarkRegularish(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Regularish(100_001, 12, simrng.New(uint64(i)+1))
	}
}
