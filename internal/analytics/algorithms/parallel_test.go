package algorithms

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
)

// withGOMAXPROCS raises GOMAXPROCS so the engines derive IntraParallelism >
// 1 even on single-core CI runners, then restores it.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestAlgorithmsMatchReferenceWithIntraParallelism re-runs the reference
// comparisons with few fragments on a "wide machine", so the per-fragment
// ParallelFor/ParallelForMessages loops actually fan out.
func TestAlgorithmsMatchReferenceWithIntraParallelism(t *testing.T) {
	withGOMAXPROCS(t, 8, func() {
		g := testGraph(t)
		// Fragments=2 on GOMAXPROCS=8 derives IntraParallelism=4.
		got, err := PageRank(g, PageRankOptions{Iterations: 10, Fragments: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, refPageRank(g, 0.85, 10)); d > 1e-9 {
			t.Fatalf("PageRank intra-parallel: max diff %v", d)
		}

		bfs, err := BFS(g, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(bfs, refBFS(g, 0)); d != 0 {
			t.Fatalf("BFS intra-parallel differs by %v", d)
		}

		wg, err := dataset.Datagen("t", 400, 1, 9).ToCSR(true)
		if err != nil {
			t.Fatal(err)
		}
		wcc, err := WCC(wg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(wcc, refWCC(wg)); d != 0 {
			t.Fatalf("WCC intra-parallel differs by %v", d)
		}

		// Fragments=2 runs CDLP's ParallelRange over 4 chunks per fragment.
		for _, rounds := range []int{1, 10} {
			checkCDLP(t, g, rounds, 2)
			checkCDLP(t, wg, rounds, 2)
		}

		kc, err := KCore(g, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := refKCore(g, 4)
		for v := range kc {
			if kc[v] != want[v] {
				t.Fatalf("KCore intra-parallel: vertex %d got %v want %v", v, kc[v], want[v])
			}
		}
	})
}

// refTriangles is a brute-force O(n^3) triangle counter over the undirected
// deduplicated view.
func refTriangles(g grin.Graph) int64 {
	n := g.NumVertices()
	has := make(map[[2]graph.VID]bool)
	for v := 0; v < n; v++ {
		grin.ForEachNeighbor(g, graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
			a, b := graph.VID(v), u
			if a > b {
				a, b = b, a
			}
			if a != b {
				has[[2]graph.VID{a, b}] = true
			}
			return true
		})
	}
	var c int64
	for u := graph.VID(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			if !has[[2]graph.VID{u, v}] {
				continue
			}
			for w := v + 1; int(w) < n; w++ {
				if has[[2]graph.VID{u, w}] && has[[2]graph.VID{v, w}] {
					c++
				}
			}
		}
	}
	return c
}

// TestTriangleCountWorkersAgree: every worker count must produce the exact
// reference count on a random power-law graph.
func TestTriangleCountWorkersAgree(t *testing.T) {
	g, err := dataset.Datagen("t", 150, 8, 77).ToCSR(true)
	if err != nil {
		t.Fatal(err)
	}
	want := refTriangles(g)
	if want == 0 {
		t.Fatal("degenerate test graph: no triangles")
	}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		if got := TriangleCount(g, workers); got != want {
			t.Fatalf("workers=%d: %d triangles, want %d", workers, got, want)
		}
	}
}

// BenchmarkTriangleCount measures workers=1 vs workers=NumCPU; the
// acceptance gate for the parallel runtime on the analytics path.
func BenchmarkTriangleCount(b *testing.B) {
	g, err := dataset.Datagen("bench", 20_000, 12, 5).ToCSR(true)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				TriangleCount(g, workers)
			}
		})
	}
}

// BenchmarkPageRankFragments measures the PIE PageRank across fragment
// counts (intra-fragment parallelism fills idle cores when fragments <
// NumCPU).
func BenchmarkPageRankFragments(b *testing.B) {
	g, err := dataset.Datagen("bench", 20_000, 12, 6).ToCSR(true)
	if err != nil {
		b.Fatal(err)
	}
	for _, frags := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("fragments=%d", frags), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PageRank(g, PageRankOptions{Iterations: 5, Fragments: frags}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCDLP measures the pull CDLP across fragment counts on the
// BenchmarkPageRankFragments graph.
func BenchmarkCDLP(b *testing.B) {
	g, err := dataset.Datagen("bench", 20_000, 12, 6).ToCSR(true)
	if err != nil {
		b.Fatal(err)
	}
	for _, frags := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("fragments=%d", frags), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CDLP(g, 10, frags); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
