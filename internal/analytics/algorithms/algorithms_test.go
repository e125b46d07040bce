package algorithms

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/csr"
	"repro/internal/storage/vineyard"
)

// testGraph returns a deterministic power-law test graph with CSC.
func testGraph(t *testing.T) *csr.Graph {
	t.Helper()
	g, err := dataset.Datagen("t", 500, 6, 42).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refPageRank is a straightforward sequential reference.
func refPageRank(g grin.Graph, d float64, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		for v := range next {
			next[v] = (1 - d) / float64(n)
		}
		for v := 0; v < n; v++ {
			deg := g.Degree(graph.VID(v), graph.Out)
			if deg == 0 {
				continue
			}
			c := d * rank[v] / float64(deg)
			g.Neighbors(graph.VID(v), graph.Out, func(u graph.VID, _ graph.EID) bool {
				next[u] += c
				return true
			})
		}
		rank, next = next, rank
	}
	return rank
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, frags := range []int{1, 4} {
		got, err := PageRank(g, PageRankOptions{Iterations: 10, Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		want := refPageRank(g, 0.85, 10)
		if d := maxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("frags=%d: max diff %v", frags, d)
		}
	}
}

func TestPageRankPregelMatchesPIE(t *testing.T) {
	g := testGraph(t)
	pie, err := PageRank(g, PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := PageRankPregel(g, PageRankOptions{Iterations: 8, Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(pie, pr); d > 1e-9 {
		t.Fatalf("PIE and Pregel disagree: %v", d)
	}
}

// refBFS is a sequential queue BFS.
func refBFS(g grin.Graph, root graph.VID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = Unreached
	}
	dist[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Neighbors(v, graph.Out, func(u graph.VID, _ graph.EID) bool {
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
			return true
		})
	}
	return dist
}

func TestBFSMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, frags := range []int{1, 4} {
		got, err := BFS(g, 0, frags)
		if err != nil {
			t.Fatal(err)
		}
		want := refBFS(g, 0)
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("frags=%d: BFS differs by %v", frags, d)
		}
	}
}

// refSSSP is Bellman-Ford.
func refSSSP(g grin.Graph, root graph.VID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = Unreached
	}
	dist[root] = 0
	for it := 0; it < n; it++ {
		changed := false
		for v := 0; v < n; v++ {
			if dist[v] == Unreached {
				continue
			}
			g.Neighbors(graph.VID(v), graph.Out, func(u graph.VID, e graph.EID) bool {
				nd := dist[v] + grin.Weight(g, e)
				if nd < dist[u] {
					dist[u] = nd
					changed = true
				}
				return true
			})
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestSSSPMatchesReference(t *testing.T) {
	g, err := dataset.Datagen("t", 300, 5, 7).Weighted(8).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SSSP(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := refSSSP(g, 0)
	if d := maxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("SSSP differs by %v", d)
	}
}

// refWCC via union-find.
func refWCC(g grin.Graph) []float64 {
	n := g.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for v := 0; v < n; v++ {
		g.Neighbors(graph.VID(v), graph.Out, func(u graph.VID, _ graph.EID) bool {
			union(v, int(u))
			return true
		})
	}
	// Min-ID representative per component.
	minRep := make(map[int]int)
	for v := 0; v < n; v++ {
		r := find(v)
		if m, ok := minRep[r]; !ok || v < m {
			minRep[r] = v
		}
	}
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = float64(minRep[find(v)])
	}
	return out
}

func TestWCCMatchesReference(t *testing.T) {
	// Sparse graph so multiple components exist.
	g, err := dataset.Datagen("t", 400, 1, 9).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WCC(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := refWCC(g)
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("WCC differs by %v", d)
	}
}

func TestCDLPTwoCliques(t *testing.T) {
	// Two 6-cliques joined by one edge: CDLP should produce two communities.
	var edges []csr.Edge
	addClique := func(base int) {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				if i != j {
					edges = append(edges, csr.Edge{Src: graph.VID(base + i), Dst: graph.VID(base + j)})
				}
			}
		}
	}
	addClique(0)
	addClique(6)
	edges = append(edges, csr.Edge{Src: 0, Dst: 6})
	g, err := csr.Build(12, edges, csr.Options{BuildCSC: true})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := CDLP(g, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < 6; v++ {
		if labels[v] != labels[0] {
			t.Fatalf("clique 1 split: %v", labels)
		}
	}
	for v := 7; v < 12; v++ {
		if labels[v] != labels[6] {
			t.Fatalf("clique 2 split: %v", labels)
		}
	}
	if labels[0] == labels[6] {
		t.Fatalf("cliques merged: %v", labels)
	}
}

// refCDLP is synchronous label propagation, serially: for each round every
// vertex with at least one neighbor (Out then In, counted once per edge)
// adopts the most frequent neighbor label, ties toward the smallest.
func refCDLP(g grin.Graph, rounds int) []float64 {
	n := g.NumVertices()
	label := make([]float64, n)
	for v := range label {
		label[v] = float64(v)
	}
	next := make([]float64, n)
	var buf []float64
	for r := 0; r < rounds; r++ {
		for v := 0; v < n; v++ {
			buf = buf[:0]
			for _, dir := range []graph.Direction{graph.Out, graph.In} {
				grin.ForEachNeighbor(g, graph.VID(v), dir, func(u graph.VID, _ graph.EID) bool {
					buf = append(buf, label[u])
					return true
				})
			}
			if len(buf) == 0 {
				next[v] = label[v]
				continue
			}
			sort.Float64s(buf)
			best, bestCnt, cnt := buf[0], 0, 0
			for i, l := range buf {
				if i > 0 && l == buf[i-1] {
					cnt++
				} else {
					cnt = 1
				}
				if cnt > bestCnt {
					best, bestCnt = l, cnt
				}
			}
			next[v] = best
		}
		label, next = next, label
	}
	return label
}

// checkCDLP requires CDLP to equal refCDLP exactly.
func checkCDLP(t *testing.T, g grin.Graph, rounds, frags int) {
	t.Helper()
	got, err := CDLP(g, rounds, frags)
	if err != nil {
		t.Fatal(err)
	}
	want := refCDLP(g, rounds)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("rounds=%d fragments=%d: vertex %d label %v, want %v", rounds, frags, v, got[v], want[v])
		}
	}
}

// TestCDLPMatchesReference compares CDLP with the serial reference on RMAT
// graphs and on a hand-built graph with a self-loop, a duplicate edge and an
// isolated vertex, each with and without CSC (without it In is empty).
func TestCDLPMatchesReference(t *testing.T) {
	hand := []csr.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 3}, {Src: 3, Dst: 2}, // self-loop
		{Src: 4, Dst: 5}, {Src: 4, Dst: 5}, {Src: 5, Dst: 6}, {Src: 6, Dst: 4}, // duplicate
		// vertex 7 is isolated
	}
	for _, csc := range []bool{true, false} {
		g, err := csr.Build(8, hand, csr.Options{BuildCSC: csc})
		if err != nil {
			t.Fatal(err)
		}
		graphs, names := []grin.Graph{g}, []string{"hand"}
		for _, seed := range []int64{1, 2, 3} {
			g, err := dataset.RMAT("rmat", 9, 8, seed).ToCSR(csc)
			if err != nil {
				t.Fatal(err)
			}
			graphs, names = append(graphs, g), append(names, fmt.Sprintf("rmat-%d", seed))
		}
		for i, g := range graphs {
			t.Run(fmt.Sprintf("%s/csc=%v", names[i], csc), func(t *testing.T) {
				for _, rounds := range []int{1, 2, 5, 10} {
					for _, frags := range []int{1, 2, 3, 7} {
						checkCDLP(t, g, rounds, frags)
					}
				}
			})
		}
	}
}

// TestModeLabel checks the mode function's tie-break on stars whose leaves
// carry the given labels. One mode function serves every case, so a count
// left over from an earlier case would show.
func TestModeLabel(t *testing.T) {
	const n = 8
	mode := newModeFunc(n)
	for _, tc := range []struct {
		labels []float64
		want   float64
	}{
		{[]float64{3, 1, 3, 2, 1}, 1}, // 1 and 3 both appear twice; tie goes to the smaller
		{[]float64{5, 5, 2}, 5},
		{[]float64{7}, 7},
		{[]float64{2, 4, 4, 2, 1, 4}, 4},
		{nil, 6}, // no neighbors: the center keeps its own label
	} {
		label := make([]float64, n)
		label[0] = 6
		var edges []csr.Edge
		for i, l := range tc.labels {
			edges = append(edges, csr.Edge{Src: 0, Dst: graph.VID(i + 1)})
			label[i+1] = l
		}
		g, err := csr.Build(n, edges, csr.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if m := mode(g, label, 0); m != tc.want {
			t.Fatalf("labels %v: mode = %v want %v", tc.labels, m, tc.want)
		}
	}
	// A self-loop counts once per direction: with CSC, vertex 3's labels
	// are {3, 1, 3} (mode 3); without CSC only Out is seen, {3, 1} (tie, 1).
	label := []float64{0, 1, 2, 3}
	for _, tc := range []struct {
		csc  bool
		want float64
	}{{true, 3}, {false, 1}} {
		g, err := csr.Build(4, []csr.Edge{{Src: 3, Dst: 3}, {Src: 3, Dst: 1}}, csr.Options{BuildCSC: tc.csc})
		if err != nil {
			t.Fatal(err)
		}
		if m := mode(g, label, 3); m != tc.want {
			t.Fatalf("self-loop csc=%v: mode = %v want %v", tc.csc, m, tc.want)
		}
	}
}

// refKCore peels sequentially.
func refKCore(g grin.Graph, k int) []bool {
	n := g.NumVertices()
	deg := make([]int, n)
	removed := make([]bool, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.VID(v), graph.Both)
	}
	for {
		changed := false
		for v := 0; v < n; v++ {
			if !removed[v] && deg[v] < k {
				removed[v] = true
				changed = true
				g.Neighbors(graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
					if !removed[u] {
						deg[u]--
					}
					return true
				})
			}
		}
		if !changed {
			break
		}
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = !removed[v]
	}
	return in
}

func TestKCoreMatchesReference(t *testing.T) {
	g := testGraph(t)
	for _, k := range []int{2, 4, 8} {
		got, err := KCore(g, k, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := refKCore(g, k)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("k=%d: vertex %d: got %v want %v", k, v, got[v], want[v])
			}
		}
	}
}

func TestTriangleCount(t *testing.T) {
	// K4 has 4 triangles.
	var edges []csr.Edge
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, csr.Edge{Src: graph.VID(i), Dst: graph.VID(j)})
		}
	}
	g, err := csr.Build(4, edges, csr.Options{BuildCSC: true})
	if err != nil {
		t.Fatal(err)
	}
	if tc := TriangleCount(g, 2); tc != 4 {
		t.Fatalf("K4 triangles = %d", tc)
	}
	// A 4-cycle has none.
	g2, _ := csr.Build(4, []csr.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}, csr.Options{BuildCSC: true})
	if tc := TriangleCount(g2, 2); tc != 0 {
		t.Fatalf("C4 triangles = %d", tc)
	}
	// Duplicate/bidirectional edges must not double count.
	g3, _ := csr.Build(3, []csr.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 1},
		{Src: 0, Dst: 2}, {Src: 2, Dst: 0},
	}, csr.Options{BuildCSC: true})
	if tc := TriangleCount(g3, 2); tc != 1 {
		t.Fatalf("bidirectional triangle = %d", tc)
	}
}

func TestEquityHandExample(t *testing.T) {
	// P0 owns 0.8 of C1; P1 owns 0.2 of C1; C1 owns 0.6 of C0; P1 owns 0.4
	// of C0. Effective: C0 -> P1 with 0.4 + 0.2*0.6 = 0.52 (controller);
	// P0 has 0.48. C1 -> P0 with 0.8.
	s := dataset.EquitySchema()
	b := graph.NewBatch(s)
	base := int64(dataset.EquityCompanyExtBase)
	b.AddVertex(dataset.EquityPerson, 0, graph.StringValue("P0"))
	b.AddVertex(dataset.EquityPerson, 1, graph.StringValue("P1"))
	b.AddVertex(dataset.EquityCompany, base+0, graph.StringValue("C0"))
	b.AddVertex(dataset.EquityCompany, base+1, graph.StringValue("C1"))
	b.AddEdge(dataset.EquityOwns, 0, base+1, graph.FloatValue(0.8))
	b.AddEdge(dataset.EquityOwns, 1, base+1, graph.FloatValue(0.2))
	b.AddEdge(dataset.EquityOwns, base+1, base+0, graph.FloatValue(0.6))
	b.AddEdge(dataset.EquityOwns, 1, base+0, graph.FloatValue(0.4))
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	pLo, pHi, _ := st.LabelRange(dataset.EquityPerson)
	res, err := Equity(st, pLo, pHi, EquityOptions{Fragments: 2})
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := st.LookupVertex(dataset.EquityPerson, 0)
	p1, _ := st.LookupVertex(dataset.EquityPerson, 1)
	c0, _ := st.LookupVertex(dataset.EquityCompany, base+0)
	c1, _ := st.LookupVertex(dataset.EquityCompany, base+1)

	if res.Controller[c0] != p1 {
		t.Fatalf("C0 controller = %v want P1(%v); shares %v", res.Controller[c0], p1, res.Shares[c0])
	}
	if math.Abs(res.Share[c0]-0.52) > 1e-9 {
		t.Fatalf("C0 controlling share = %v", res.Share[c0])
	}
	if got := res.Shares[c0][uint32(p0)]; math.Abs(got-0.48) > 1e-9 {
		t.Fatalf("C0 P0 share = %v", got)
	}
	if res.Controller[c1] != p0 || math.Abs(res.Share[c1]-0.8) > 1e-9 {
		t.Fatalf("C1 controller = %v share %v", res.Controller[c1], res.Share[c1])
	}
	// Persons have no controller.
	if res.Controller[p0] != graph.NilVID {
		t.Fatal("person should have no controller")
	}
}

func TestEquityGeneratedConservation(t *testing.T) {
	b := dataset.Equity(dataset.EquityOptions{Persons: 30, Companies: 120, Seed: 5})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	pLo, pHi, _ := st.LabelRange(dataset.EquityPerson)
	res, err := Equity(st, pLo, pHi, EquityOptions{Fragments: 4, Epsilon: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Total person-share of every company sums to ~1 (shares are conserved
	// down the acyclic ownership structure).
	cLo, cHi, _ := st.LabelRange(dataset.EquityCompany)
	for c := cLo; c < cHi; c++ {
		sum := 0.0
		for _, s := range res.Shares[c] {
			sum += s
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("company %d person-shares sum to %v", c, sum)
		}
	}
}
