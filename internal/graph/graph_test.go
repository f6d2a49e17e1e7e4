package graph

import (
	"testing"
	"testing/quick"

	"lotuseater/internal/simrng"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("N=%d M=%d, want 5, 0", g.N(), g.M())
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
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
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

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := New(6)
	for _, v := range []int{5, 2, 4, 1} {
		if err := g.AddEdge(3, v); err != nil {
			t.Fatal(err)
		}
	}
	nb := g.Neighbors(3)
	want := []int{1, 2, 4, 5}
	if len(nb) != len(want) {
		t.Fatalf("Neighbors = %v", nb)
	}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors = %v, want sorted %v", nb, want)
		}
	}
	nb[0] = 99 // must not corrupt the graph
	if g.Neighbors(3)[0] != 1 {
		t.Fatal("Neighbors returned a live reference")
	}
	if g.Neighbors(-1) != nil || g.Neighbors(6) != nil {
		t.Fatal("out-of-range Neighbors not nil")
	}
}

func TestComplete(t *testing.T) {
	g := Complete(6)
	if g.M() != 15 {
		t.Fatalf("K6 has %d edges, want 15", g.M())
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 5 {
			t.Fatalf("node %d degree %d, want 5", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Fatal("K6 not connected")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	// Edges: horizontal 3*3 + vertical 2*4 = 17.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	if !g.Connected() {
		t.Fatal("grid not connected")
	}
	// Corner degree 2, middle degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(1*4+1) != 4 {
		t.Fatalf("interior degree %d", g.Degree(5))
	}
}

func TestRandomEdgeProbability(t *testing.T) {
	rng := simrng.New(1)
	g := Random(100, 0.1, rng)
	maxEdges := 100 * 99 / 2
	frac := float64(g.M()) / float64(maxEdges)
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("G(100, 0.1) realized edge fraction %g", frac)
	}
}

func TestRandomExtremes(t *testing.T) {
	rng := simrng.New(1)
	if g := Random(20, 0, rng); g.M() != 0 {
		t.Fatalf("G(20,0) has %d edges", g.M())
	}
	if g := Random(20, 1, rng); g.M() != 190 {
		t.Fatalf("G(20,1) has %d edges, want 190", g.M())
	}
}

func TestRandomRegularishConnected(t *testing.T) {
	rng := simrng.New(3)
	g := RandomRegularish(200, 4, rng)
	if !g.Connected() {
		t.Fatal("RandomRegularish(200, 4) disconnected")
	}
	for v := 0; v < 200; v++ {
		if g.Degree(v) < 4 {
			t.Fatalf("node %d degree %d < requested 4", v, g.Degree(v))
		}
	}
}

func TestRandomRegularishDegreeClamp(t *testing.T) {
	rng := simrng.New(3)
	g := RandomRegularish(4, 10, rng)
	if g.M() != 6 {
		t.Fatalf("deg clamp failed: M = %d, want complete graph 6", g.M())
	}
}

func TestBFS(t *testing.T) {
	g := Grid(1, 5) // path 0-1-2-3-4
	dist := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if dist[i] != want {
			t.Fatalf("dist[%d] = %d, want %d", i, dist[i], want)
		}
	}
	if d := New(3).BFS(0); d[1] != -1 || d[2] != -1 {
		t.Fatal("unreachable nodes should get -1")
	}
	if d := New(3).BFS(-1); d[0] != -1 {
		t.Fatal("out-of-range src should mark all unreachable")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	_ = g.AddEdge(0, 1)
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(4, 5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3 (%v)", len(comps), comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Fatalf("singleton component %v", comps[1])
	}
}

func TestConnectedTrivial(t *testing.T) {
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("empty/singleton graphs should be connected")
	}
	if New(2).Connected() {
		t.Fatal("two isolated nodes reported connected")
	}
}

func TestRemoveNodes(t *testing.T) {
	g := Grid(1, 5)
	h := g.RemoveNodes([]int{2})
	if h.N() != 5 {
		t.Fatal("RemoveNodes changed node count")
	}
	if h.HasEdge(1, 2) || h.HasEdge(2, 3) {
		t.Fatal("edges to removed node survive")
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(3, 4) {
		t.Fatal("unrelated edges lost")
	}
	if g.HasEdge(1, 2) == false {
		t.Fatal("RemoveNodes mutated the original")
	}
}

func TestIsCut(t *testing.T) {
	g := Grid(1, 5)
	if !g.IsCut([]int{2}) {
		t.Fatal("middle of a path is a cut")
	}
	if g.IsCut([]int{0}) {
		t.Fatal("endpoint of a path is not a cut")
	}
	if g.IsCut([]int{0, 1, 2, 3}) {
		t.Fatal("one survivor cannot be disconnected")
	}
}

func TestGridColumnCutIsCut(t *testing.T) {
	g := Grid(8, 8)
	cut := GridColumnCut(8, 8, 4)
	if len(cut) != 8 {
		t.Fatalf("cut has %d nodes", len(cut))
	}
	if !g.IsCut(cut) {
		t.Fatal("full column does not cut the grid")
	}
	partial := cut[:7]
	if g.IsCut(partial) {
		t.Fatal("partial column should not cut the grid")
	}
}

// TestDegreeSumEqualsTwiceEdges is the handshake lemma on random graphs.
func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw) / 255
		g := Random(n, p, simrng.New(seed))
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
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
		dist := g.BFS(0)
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

// TestComponentsPartition: components partition the vertex set.
func TestComponentsPartition(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		g := Random(25, 0.05, simrng.New(seed))
		seen := make(map[int]bool)
		for _, comp := range g.Components() {
			for _, v := range comp {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return len(seen) == 25
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}
