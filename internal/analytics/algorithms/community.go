package algorithms

import (
	"sort"
	"sync"

	"repro/internal/analytics/grape"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/parallel"
)

// CDLP runs community detection by synchronous label propagation (the
// Graphalytics CDLP definition): for a fixed number of rounds, every vertex
// adopts the most frequent label among its neighbors (both directions, one
// count per edge), ties toward the smaller label.
func CDLP(g grin.Graph, rounds, fragments int) ([]float64, error) {
	if rounds <= 0 {
		rounds = 10
	}
	n := g.NumVertices()
	prog := &cdlpPIE{g: g, label: [2][]float64{make([]float64, n), make([]float64, n)}, rounds: rounds}
	prog.modes.New = func() any { return newModeFunc(n) }
	eng, err := grape.NewEngine(g, grape.Options{Fragments: fragments})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	return prog.label[rounds%2], nil
}

// cdlpPIE pulls instead of sending messages: superstep s reads the parity
// buffer label[(s-1)%2] and writes label[s%2] for inner vertices. Unlike the
// remote-state peeking traversal.go forbids, reading a remote label is
// race-free: nothing writes that array during the round, and Engine.Run's
// barrier publishes its last writes (libgrape-lite's outer-vertex sync).
type cdlpPIE struct {
	g      grin.Graph
	label  [2][]float64
	rounds int
	modes  sync.Pool // of newModeFunc results, taken once per worker chunk
}

// PEval self-labels and asks for the first round.
func (p *cdlpPIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(_ *grape.Sender, v graph.VID) { p.label[0][v] = float64(v) })
	ctx.Rerun()
}

// IncEval runs round s: every inner vertex adopts its neighbors' mode label.
func (p *cdlpPIE) IncEval(f *grape.Fragment, ctx *grape.Context, _ []grape.Message) {
	s := ctx.Superstep()
	cur, next := p.label[(s-1)%2], p.label[s%2]
	lo, hi := f.Bounds()
	ctx.ParallelRange(lo, hi, func(_ *grape.Sender, clo, chi graph.VID) {
		mode := p.modes.Get().(func(grin.Graph, []float64, graph.VID) float64)
		for v := clo; v < chi; v++ {
			next[v] = mode(p.g, cur, v)
		}
		//lint:allow parallelsafety the pool lives for one CDLP call; a parked mode pins only that call's label arrays
		p.modes.Put(mode)
	})
	if s < p.rounds {
		ctx.Rerun()
	}
}

// newModeFunc returns a function giving the most frequent label among v's
// neighbors (Out then In, so a self-loop counts twice), ties toward the
// smaller label, or v's own label when it has none. Labels are VIDs, so it
// counts in a private dense array, resetting only the entries it touched.
func newModeFunc(n int) func(g grin.Graph, label []float64, v graph.VID) float64 {
	cnt, touched := make([]uint32, n), []uint32(nil)
	var label []float64
	count := func(u graph.VID, _ graph.EID) bool { // bound once: no per-vertex closure
		i := uint32(label[u])
		if cnt[i]++; cnt[i] == 1 {
			touched = append(touched, i)
		}
		return true
	}
	return func(g grin.Graph, lab []float64, v graph.VID) float64 {
		label = lab
		grin.ForEachNeighbor(g, v, graph.Both, count)
		best, bestCnt := label[v], uint32(0)
		for _, i := range touched {
			if k := cnt[i]; k > bestCnt || (k == bestCnt && float64(i) < best) {
				best, bestCnt = float64(i), k
			}
			cnt[i] = 0
		}
		touched = touched[:0]
		return best
	}
}

// KCore returns whether each vertex belongs to the k-core of the undirected
// view of the graph (iterative peeling as a PIE program).
func KCore(g grin.Graph, k, fragments int) ([]bool, error) {
	n := g.NumVertices()
	prog := &kcorePIE{g: g, k: k, deg: make([]int, n), removed: make([]bool, n)}
	eng, err := grape.NewEngine(g, grape.Options{
		Fragments: fragments,
		Combine:   func(a, b float64) float64 { return a + b },
	})
	if err != nil {
		return nil, err
	}
	if _, err := eng.Run(prog); err != nil {
		return nil, err
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = !prog.removed[v]
	}
	return in, nil
}

type kcorePIE struct {
	g       grin.Graph
	k       int
	deg     []int
	removed []bool
}

// PEval computes undirected degrees and peels the first layer.
func (p *kcorePIE) PEval(f *grape.Fragment, ctx *grape.Context) {
	lo, hi := f.Bounds()
	ctx.ParallelFor(lo, hi, func(_ *grape.Sender, v graph.VID) {
		p.deg[v] = p.g.Degree(v, graph.Both)
	})
	ctx.ParallelFor(lo, hi, func(s *grape.Sender, v graph.VID) {
		if p.deg[v] < p.k {
			p.peel(s, v)
		}
	})
}

// IncEval decrements degrees by the combined removal counts and cascades
// (sum-combined messages have distinct targets, so the loop is parallel).
func (p *kcorePIE) IncEval(f *grape.Fragment, ctx *grape.Context, msgs []grape.Message) {
	ctx.ParallelForMessages(msgs, func(s *grape.Sender, m grape.Message) {
		v := m.Target
		if p.removed[v] {
			return
		}
		p.deg[v] -= int(m.Value)
		if p.deg[v] < p.k {
			p.peel(s, v)
		}
	})
}

func (p *kcorePIE) peel(sink grape.Sink, v graph.VID) {
	p.removed[v] = true
	grin.ForEachNeighbor(p.g, v, graph.Both, func(n graph.VID, _ graph.EID) bool {
		sink.Send(n, 1)
		return true
	})
}

// TriangleCount counts triangles in the undirected view by parallel sorted
// adjacency intersection (a FLASH-style non-message computation). Each
// triangle is counted once. workers <= 0 selects GOMAXPROCS; both phases run
// on the shared parallel runtime with dynamic chunking, since power-law
// degree skew load-imbalances static chunks.
func TriangleCount(g grin.Graph, workers int) int64 {
	workers = parallel.Workers(workers, g.NumVertices())
	n := g.NumVertices()
	// Build deduplicated undirected adjacency restricted to higher IDs:
	// counting (u < v < w) orientations counts each triangle once.
	adj := make([][]graph.VID, n)
	parallel.ForDynamic(n, workers, 0, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var lst []graph.VID
			grin.ForEachNeighbor(g, graph.VID(v), graph.Both, func(u graph.VID, _ graph.EID) bool {
				if u > graph.VID(v) {
					lst = append(lst, u)
				}
				return true
			})
			sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
			// In-place dedup of the sorted list (parallel Both edges repeat).
			k := 0
			for i, u := range lst {
				if i == 0 || u != lst[k-1] {
					lst[k] = u
					k++
				}
			}
			adj[v] = lst[:k]
		}
	})

	return parallel.ReduceDynamic(n, workers, 0, int64(0),
		func(lo, hi int, acc int64) int64 {
			for v := lo; v < hi; v++ {
				av := adj[v]
				for _, u := range av {
					acc += int64(intersectCount(av, adj[u]))
				}
			}
			return acc
		}, func(a, b int64) int64 { return a + b })
}

// intersectCount counts common elements of two sorted slices.
func intersectCount(a, b []graph.VID) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
