package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"repro/internal/analytics/algorithms"
	"repro/internal/analytics/baselines"
	"repro/internal/analytics/grape"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/storage/csr"
)

// algorithm is one Graphalytics kernel with its reference check.
type algorithm struct {
	name, span string
	run        func(g *csr.Graph, frags int) ([]float64, error)
	// tol is the relative tolerance against the reference; 0 is exact.
	tol float64
}

var algorithmList = []algorithm{
	{name: "pagerank", span: "algorithms.PageRank", tol: 1e-6, run: func(g *csr.Graph, frags int) ([]float64, error) {
		return algorithms.PageRank(g, algorithms.PageRankOptions{Fragments: frags})
	}},
	{name: "bfs", span: "algorithms.BFS", run: func(g *csr.Graph, frags int) ([]float64, error) {
		return algorithms.BFS(g, 0, frags)
	}},
	{name: "wcc", span: "algorithms.WCC", run: func(g *csr.Graph, frags int) ([]float64, error) {
		return algorithms.WCC(g, frags)
	}},
	{name: "cdlp", span: "algorithms.CDLP", run: func(g *csr.Graph, frags int) ([]float64, error) {
		return algorithms.CDLP(g, cdlpRounds, frags)
	}},
	{name: "sssp", span: "algorithms.SSSP", tol: 1e-9, run: func(g *csr.Graph, frags int) ([]float64, error) {
		return algorithms.SSSP(g, 0, frags)
	}},
}

const cdlpRounds = 10

// analytics runs the five Graphalytics kernels in a cycle over a weighted
// RMAT graph in CSR+CSC form, checking every result against its reference.
type analytics struct {
	o    *options
	g    *csr.Graph
	refs map[string][]float64
}

func (w *analytics) clients() int { return 1 }

func (w *analytics) setup(sb *spanBuf) error {
	scale, ef := 16, 16
	if w.o.tiny {
		scale, ef = 10, 8
	}
	var s *dataset.Simple
	sb.with("dataset.generate", func() error {
		s = dataset.RMAT("rmat", scale, ef, w.o.seed).Weighted(w.o.seed + 1)
		return nil
	})
	return sb.with("csr.build", func() error {
		var err error
		w.g, err = s.ToCSR(true)
		return err
	})
}

// verify computes the references — PageRank and BFS on the Gemini
// baseline, WCC, SSSP and CDLP serially here — and checks one run of each
// kernel against them. The timed window checks every run again.
func (w *analytics) verify() gateResult {
	ge := baselines.NewGemini(w.g, w.o.procs)
	w.refs = map[string][]float64{
		"pagerank": ge.PageRank(0.85, 20),
		"bfs":      ge.BFS(0),
		"wcc":      refWCC(w.g),
		"sssp":     refSSSP(w.g, 0),
		"cdlp":     refCDLP(w.g, cdlpRounds),
	}
	if w.o.corrupt {
		w.refs["pagerank"][0] += 1
	}
	g := gateResult{}
	var digests []uint64
	for _, a := range algorithmList {
		g.checks++
		digests = append(digests, vectorDigest(w.refs[a.name]))
		out, err := a.run(w.g, w.o.procs)
		if err == nil {
			err = sameVector(a.name, out, w.refs[a.name], a.tol)
		}
		if err != nil {
			g.failed++
			if g.first == nil {
				g.first = err
			}
		}
	}
	g.digest = digestOf(digests)
	return g
}

// client runs cycles of the five kernels. One operation is one cycle, so
// throughput and read latency do not depend on where the window cuts the
// kernel sequence; each kernel run is a timed part of it, and the per-type
// medians are per kernel.
func (w *analytics) client(id int, deadline time.Time, rec *recorder, sb *spanBuf, tr *tracer) {
	outs := make([][]float64, len(algorithmList))
	for time.Now().Before(deadline) {
		sb.begin("cycle", tr.request())
		err := rec.op("cycle", false, func() error {
			for i, a := range algorithmList {
				err := rec.part(a.name, func() error {
					return sb.with(a.span, func() (err error) {
						outs[i], err = a.run(w.g, w.o.procs)
						return err
					})
				})
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			for i, a := range algorithmList {
				if err := sameVector(a.name, outs[i], w.refs[a.name], a.tol); err != nil {
					rec.mismatch(err)
					break
				}
			}
		}
		sb.end()
	}
}

func (w *analytics) traceOn() {}

func (w *analytics) layers(m map[string]float64, spans map[string]*spanStat) error {
	for _, a := range algorithmList {
		m["algorithms."+a.name+"_ms"] = spanMedianUs(spans, a.span) / 1e3
	}
	var builds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := grape.NewEngine(w.g, grape.Options{Fragments: w.o.procs}); err != nil {
			return fmt.Errorf("grape.NewEngine: %w", err)
		}
		builds = append(builds, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m["grape.engine_build_ms"] = median(builds)
	return nil
}

// opsDigest hashes the operation every cycle runs: the fixed kernel
// sequence on the seeded graph, given by its size and its edges.
func (w *analytics) opsDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(w.g.NumVertices()))
	put(uint64(w.g.NumEdges()))
	for v := 0; v < w.g.NumVertices(); v++ {
		for _, t := range w.g.AdjSlice(graph.VID(v), graph.Out) {
			put(uint64(t.Nbr))
			put(math.Float64bits(w.g.EdgeWeight(t.Edge)))
		}
	}
	for _, a := range algorithmList {
		fmt.Fprintln(h, a.name)
	}
	return h.Sum64()
}

func (w *analytics) close() { w.g = nil }

// vectorDigest hashes a result vector at 9 significant digits.
func vectorDigest(xs []float64) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, x := range xs {
		buf = strconv.AppendFloat(buf[:0], x, 'g', 9, 64)
		h.Write(append(buf, ' '))
	}
	return h.Sum64()
}
