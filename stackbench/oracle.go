package main

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/exec"
)

// rowsDigest hashes a result as a multiset of rows: each row is rendered
// canonically, the renderings are sorted and hashed, so row order does not
// matter but every value and every duplicate does.
func rowsDigest(rows []exec.Row) uint64 {
	keys := make([]string, len(rows))
	var sb strings.Builder
	for i, r := range rows {
		sb.Reset()
		for j, v := range r {
			if j > 0 {
				sb.WriteByte(0x1f)
			}
			writeValue(&sb, v)
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// writeValue renders one value with its kind. Floats keep 12 significant
// digits, so two engines that sum in different orders still agree.
func writeValue(sb *strings.Builder, v graph.Value) {
	sb.WriteString(strconv.Itoa(int(v.K)))
	sb.WriteByte(':')
	switch v.K {
	case graph.KindFloat:
		sb.WriteString(strconv.FormatFloat(v.F, 'g', 12, 64))
	case graph.KindList:
		sb.WriteByte('[')
		for i, e := range v.Lst {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeValue(sb, e)
		}
		sb.WriteByte(']')
	default:
		sb.WriteString(v.String())
	}
}

// digestOf folds a sequence of digests into one run digest.
func digestOf(parts []uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range parts {
		for i := range b {
			b[i] = byte(p >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// sameVector compares an algorithm result with its reference: exactly for
// integral outputs (tol 0), within a relative tolerance otherwise.
func sameVector(name string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, reference has %d", name, len(got), len(want))
	}
	for v := range want {
		g, w := got[v], want[v]
		if g == w {
			continue
		}
		if tol > 0 && math.Abs(g-w) <= tol*math.Max(math.Abs(w), 1e-300) {
			continue
		}
		return fmt.Errorf("%s: vertex %d is %v, reference %v", name, v, g, w)
	}
	return nil
}

// refWCC labels each vertex with the smallest vertex id of its weakly
// connected component (union-find over both edge directions).
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
	for u := 0; u < n; u++ {
		grin.ForEachNeighbor(g, graph.VID(u), graph.Out, func(v graph.VID, _ graph.EID) bool {
			a, b := find(u), find(int(v))
			if a != b {
				// The smaller root wins, so each root is its set's minimum.
				if a < b {
					parent[b] = a
				} else {
					parent[a] = b
				}
			}
			return true
		})
	}
	out := make([]float64, n)
	for v := range out {
		out[v] = float64(find(v))
	}
	return out
}

// refSSSP is Dijkstra over the out-edges with the store's edge weights.
// Unreached vertices get math.MaxFloat64, as algorithms.SSSP reports them.
func refSSSP(g grin.Graph, root graph.VID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.MaxFloat64
	}
	dist[root] = 0
	pq := &distHeap{{v: root, d: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		grin.ForEachNeighbor(g, it.v, graph.Out, func(u graph.VID, e graph.EID) bool {
			if d := it.d + grin.Weight(g, e); d < dist[u] {
				dist[u] = d
				heap.Push(pq, distItem{v: u, d: d})
			}
			return true
		})
	}
	return dist
}

type distItem struct {
	v graph.VID
	d float64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refCDLP is synchronous label propagation, serially: for each round every
// vertex with at least one neighbor (either direction, counted once per
// edge) adopts the most frequent neighbor label, ties toward the smallest.
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
