package gart

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
)

func socialSchema() *graph.Schema {
	return graph.NewSchema(
		[]graph.VertexLabel{
			{Name: "Account", Props: []graph.PropDef{{Name: "name", Kind: graph.KindString}, {Name: "score", Kind: graph.KindInt}}},
			{Name: "Item", Props: []graph.PropDef{{Name: "price", Kind: graph.KindFloat}}},
		},
		[]graph.EdgeLabel{
			{Name: "Knows", Src: 0, Dst: 0},
			{Name: "Buy", Src: 0, Dst: 1, Props: []graph.PropDef{{Name: "date", Kind: graph.KindInt}}},
		},
	)
}

func seeded(t *testing.T) *Store {
	t.Helper()
	s := NewStore(socialSchema(), 4)
	for i := int64(0); i < 5; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("acct"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddVertex(1, 100, graph.FloatValue(9.9)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(1, 0, 100, graph.IntValue(20240101)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	return s
}

func degreeOf(sn *Snapshot, label graph.LabelID, ext int64, dir graph.Direction) int {
	v, ok := sn.LookupVertex(label, ext)
	if !ok {
		return -1
	}
	return sn.Degree(v, dir)
}

func TestVisibilityAcrossVersions(t *testing.T) {
	s := seeded(t)
	v1 := s.ReadVersion()
	sn1 := s.Latest()

	if sn1.NumVertices() != 6 || sn1.NumEdges() != 3 {
		t.Fatalf("v1 sizes: %d %d", sn1.NumVertices(), sn1.NumEdges())
	}

	// Uncommitted writes are invisible to the pinned snapshot and to new
	// snapshots at the old version.
	if err := s.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if degreeOf(sn1, 0, 1, graph.Out) != 0 {
		t.Fatal("uncommitted edge visible to pinned snapshot")
	}
	v2 := s.Commit()
	if v2 != v1+1 {
		t.Fatalf("commit version %d", v2)
	}
	if degreeOf(sn1, 0, 1, graph.Out) != 0 {
		t.Fatal("new edge leaked into old snapshot")
	}
	sn2 := s.Latest()
	if degreeOf(sn2, 0, 1, graph.Out) != 1 {
		t.Fatal("committed edge missing from new snapshot")
	}

	// Snapshot(version) time travel.
	back := s.Snapshot(v1).(*Snapshot)
	if back.NumEdges() != 3 {
		t.Fatal("time-travel snapshot wrong")
	}
	// Clamps future versions.
	fut := s.Snapshot(v2 + 100).(*Snapshot)
	if fut.Version() != v2 {
		t.Fatal("future version not clamped")
	}
}

func TestDeleteEdgeMVCC(t *testing.T) {
	s := seeded(t)
	snOld := s.Latest()
	n, err := s.DeleteEdge(0, 0, 1)
	if err != nil || n != 1 {
		t.Fatalf("delete: %d %v", n, err)
	}
	s.Commit()
	snNew := s.Latest()

	if degreeOf(snOld, 0, 0, graph.Out) != 3 {
		t.Fatal("deletion visible to old snapshot")
	}
	if degreeOf(snNew, 0, 0, graph.Out) != 2 {
		t.Fatal("deletion not visible to new snapshot")
	}
	// In-adjacency tombstoned too.
	if degreeOf(snNew, 0, 1, graph.In) != 0 {
		t.Fatal("in-edge not tombstoned")
	}
	if degreeOf(snOld, 0, 1, graph.In) != 1 {
		t.Fatal("old snapshot lost in-edge")
	}
	// Deleting a non-existent pair removes nothing.
	n, err = s.DeleteEdge(0, 3, 4)
	if err != nil || n != 0 {
		t.Fatalf("phantom delete: %d %v", n, err)
	}
	if _, err := s.DeleteEdge(0, 999, 1); err == nil {
		t.Fatal("unknown src accepted")
	}
}

func TestVertexPropMVCC(t *testing.T) {
	s := seeded(t)
	snOld := s.Latest()
	v, _ := snOld.LookupVertex(0, 3)

	if err := s.SetVertexProp(0, 3, 1, graph.IntValue(999)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	snNew := s.Latest()

	if got, _ := snOld.VertexProp(v, 1); got.Int() != 3 {
		t.Fatalf("old snapshot sees updated prop: %v", got)
	}
	if got, _ := snNew.VertexProp(v, 1); got.Int() != 999 {
		t.Fatalf("new snapshot missing update: %v", got)
	}

	// Second update builds a longer chain.
	if err := s.SetVertexProp(0, 3, 1, graph.IntValue(1000)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	if got, _ := snOld.VertexProp(v, 1); got.Int() != 3 {
		t.Fatal("old snapshot drifted after second update")
	}
	if got, _ := snNew.VertexProp(v, 1); got.Int() != 999 {
		t.Fatal("middle snapshot should see first update")
	}
	if got, _ := s.Latest().VertexProp(v, 1); got.Int() != 1000 {
		t.Fatal("latest missing second update")
	}

	if err := s.SetVertexProp(0, 999, 1, graph.IntValue(1)); err == nil {
		t.Fatal("unknown vertex accepted")
	}
	if err := s.SetVertexProp(0, 3, 99, graph.IntValue(1)); err == nil {
		t.Fatal("unknown prop accepted")
	}
}

func TestVertexVisibility(t *testing.T) {
	s := seeded(t)
	snOld := s.Latest()
	if err := s.AddVertex(0, 50, graph.StringValue("new"), graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	s.Commit()
	if _, ok := snOld.LookupVertex(0, 50); ok {
		t.Fatal("new vertex visible in old snapshot")
	}
	if snOld.NumVertices() != 6 {
		t.Fatalf("old snapshot vertex count %d", snOld.NumVertices())
	}
	snNew := s.Latest()
	if _, ok := snNew.LookupVertex(0, 50); !ok {
		t.Fatal("new vertex missing in new snapshot")
	}
	if snNew.NumVertices() != 7 {
		t.Fatalf("new snapshot vertex count %d", snNew.NumVertices())
	}
}

func TestSegmentChainGrowth(t *testing.T) {
	// Segment size 4 forces chains; 20 edges = 5 segments.
	s := NewStore(socialSchema(), 4)
	if err := s.AddVertex(0, 0, graph.StringValue("hub"), graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 20; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("x"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddEdge(0, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	sn := s.Latest()
	if d := degreeOf(sn, 0, 0, graph.Out); d != 20 {
		t.Fatalf("hub degree %d", d)
	}
	// Order is insertion order.
	var exts []int64
	hub, _ := sn.LookupVertex(0, 0)
	sn.Neighbors(hub, graph.Out, func(n graph.VID, _ graph.EID) bool {
		exts = append(exts, sn.ExternalID(n))
		return true
	})
	for i, e := range exts {
		if e != int64(i+1) {
			t.Fatalf("insertion order broken at %d: %v", i, exts)
		}
	}
}

func TestEdgePropsAndWeights(t *testing.T) {
	s := seeded(t)
	sn := s.Latest()
	acct0, _ := sn.LookupVertex(0, 0)
	found := false
	sn.Neighbors(acct0, graph.Out, func(n graph.VID, e graph.EID) bool {
		if sn.EdgeLabel(e) == 1 {
			found = true
			if v, ok := sn.EdgeProp(e, 0); !ok || v.Int() != 20240101 {
				t.Fatalf("Buy.date = %v", v)
			}
		}
		return true
	})
	if !found {
		t.Fatal("Buy edge missing")
	}
	if sn.EdgeWeight(0) != 1.0 {
		t.Fatal("weightless edge should default to 1")
	}
}

func TestScanVerticesByLabel(t *testing.T) {
	s := seeded(t)
	sn := s.Latest()
	count := 0
	sn.ScanVertices(0, nil, func(v graph.VID) bool {
		if sn.VertexLabel(v) != 0 {
			t.Fatal("wrong label yielded")
		}
		count++
		return true
	})
	if count != 5 {
		t.Fatalf("account scan count %d", count)
	}
	// GART has no contiguous label ranges.
	if _, _, ok := sn.LabelRange(0); ok {
		t.Fatal("GART should not claim per-label ranges")
	}
	if lo, hi, ok := sn.LabelRange(graph.AnyLabel); !ok || lo != 0 || hi != 6 {
		t.Fatalf("AnyLabel range [%d,%d) ok=%v", lo, hi, ok)
	}
	// ScanLabel helper works through the predicate fallback.
	count = 0
	grin.ScanLabel(sn, 1, func(graph.VID) bool { count++; return true })
	if count != 1 {
		t.Fatalf("ScanLabel(Item) = %d", count)
	}
}

func TestErrorPaths(t *testing.T) {
	s := NewStore(socialSchema(), 0)
	if err := s.AddVertex(99, 1); err == nil {
		t.Fatal("bad label accepted")
	}
	if err := s.AddVertex(0, 1, graph.StringValue("a"), graph.IntValue(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVertex(0, 1, graph.StringValue("b"), graph.IntValue(2)); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := s.AddEdge(99, 1, 1); err == nil {
		t.Fatal("bad edge label accepted")
	}
	if err := s.AddEdge(0, 1, 42); err == nil {
		t.Fatal("dangling dst accepted")
	}
	if err := s.AddEdge(0, 42, 1); err == nil {
		t.Fatal("dangling src accepted")
	}
	if err := s.AddVertex(0, 2, graph.FloatValue(3.3), graph.IntValue(1)); err == nil {
		t.Fatal("wrong prop kind accepted")
	}
}

func TestLoadBatch(t *testing.T) {
	sch := socialSchema()
	b := graph.NewBatch(sch)
	b.AddVertex(0, 1, graph.StringValue("a"), graph.IntValue(1))
	b.AddVertex(0, 2, graph.StringValue("b"), graph.IntValue(2))
	b.AddEdge(0, 1, 2)
	s := NewStore(sch, 0)
	if err := s.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	if s.NumVertices() != 2 || s.NumEdges() != 1 {
		t.Fatalf("sizes %d %d", s.NumVertices(), s.NumEdges())
	}
	if s.BackendName() != "gart" || s.Latest().BackendName() != "gart" {
		t.Fatal("backend name")
	}
}

// TestConcurrentReadersWithWriter validates the MVCC contract under the race
// detector: readers on a pinned snapshot observe a frozen edge count while a
// writer appends and commits continuously.
func TestConcurrentReadersWithWriter(t *testing.T) {
	s := NewStore(socialSchema(), 8)
	const hubExt = 0
	if err := s.AddVertex(0, hubExt, graph.StringValue("hub"), graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 50; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("x"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 10; i++ {
		if err := s.AddEdge(0, hubExt, i); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()

	pinned := s.Latest()
	hub, _ := pinned.LookupVertex(0, hubExt)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if d := pinned.Degree(hub, graph.Out); d != 10 {
					t.Errorf("pinned snapshot degree drifted: %d", d)
					return
				}
			}
		}()
	}
	for i := int64(11); i <= 50; i++ {
		if err := s.AddEdge(0, hubExt, i); err != nil {
			t.Fatal(err)
		}
		s.Commit()
	}
	close(stop)
	wg.Wait()

	if d := degreeOf(s.Latest(), 0, hubExt, graph.Out); d != 50 {
		t.Fatalf("final degree %d", d)
	}
}

// growthRead is everything a reader observes through the vertex view and
// the adjacency heads at one pinned snapshot.
type growthRead struct {
	adj    grin.AdjBatch
	nbrs   []graph.VID
	ext    []int64
	scan   []graph.VID
	labels []graph.LabelID
}

func readAll(sn *Snapshot, vs []graph.VID) growthRead {
	var r growthRead
	sn.ExpandBatch(vs, graph.Both, &r.adj)
	for _, v := range vs {
		sn.Neighbors(v, graph.Out, func(n graph.VID, _ graph.EID) bool {
			r.nbrs = append(r.nbrs, n)
			return true
		})
		r.ext = append(r.ext, sn.ExternalID(v))
	}
	buf := make([]graph.VID, 7)
	for cur := graph.VID(0); cur != graph.NilVID; {
		var n int
		n, cur = sn.ScanBatch(0, cur, buf)
		r.scan = append(r.scan, buf[:n]...)
	}
	r.labels = make([]graph.LabelID, len(vs))
	sn.GatherVertexLabels(vs, r.labels)
	return r
}

func sameRead(a, b growthRead) bool {
	return fmt.Sprint(a.adj.Off, a.adj.Nbrs, a.adj.Edges, a.nbrs, a.ext, a.scan, a.labels) ==
		fmt.Sprint(b.adj.Off, b.adj.Nbrs, b.adj.Edges, b.nbrs, b.ext, b.scan, b.labels)
}

// TestConcurrentGrowthReads runs one writer that keeps adding vertices and
// edges while readers at pinned snapshots read vertex metadata and
// adjacency: every read must equal the first read at the same version. Under
// -race it also checks that growing the vertex arrays never races with
// lock-free readers.
func TestConcurrentGrowthReads(t *testing.T) {
	s := NewStore(socialSchema(), 4)
	for i := int64(0); i < 20; i++ {
		if err := s.AddVertex(0, i, graph.StringValue("a"), graph.IntValue(i)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := s.AddEdge(0, i-1, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Commit()

	const writes = 300
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(20); i < 20+writes; i++ {
			if err := s.AddVertex(0, i, graph.StringValue("a"), graph.IntValue(i)); err != nil {
				t.Error(err)
				return
			}
			if err := s.AddEdge(0, i%20, i); err != nil {
				t.Error(err)
				return
			}
			if err := s.AddEdge(0, i, (i*7)%i); err != nil {
				t.Error(err)
				return
			}
			s.Commit()
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Pin the newest committed version and read every vertex it
				// sees (plus one past the end, which must read as absent)
				// twice, with the writer still appending in between.
				sn := s.Latest()
				vs := make([]graph.VID, sn.NumVertices()+1)
				for i := range vs {
					vs[i] = graph.VID(i)
				}
				first := readAll(sn, vs)
				if got := len(first.scan); got != len(vs)-1 {
					t.Errorf("version %d: scan saw %d vertices, want %d", sn.Version(), got, len(vs)-1)
					return
				}
				if again := readAll(sn, vs); !sameRead(first, again) {
					t.Errorf("version %d: read changed under concurrent growth", sn.Version())
					return
				}
			}
		}()
	}
	<-done
	wg.Wait()

	if n := s.NumVertices(); n != 20+writes {
		t.Fatalf("final vertex count %d, want %d", n, 20+writes)
	}
}
