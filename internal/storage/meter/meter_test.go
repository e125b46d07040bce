package meter

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/obsv"
	"repro/internal/storage/column"
	"repro/internal/storage/gart"
	"repro/internal/storage/livegraph"
	"repro/internal/storage/vineyard"
)

func loadVineyard(t *testing.T) grin.Graph {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// loadStores builds the same SNB batch into a full-trait backend with the
// typed-column gather (vineyard), one with every batch trait but no typed
// gather (gart), and a topology-only one (livegraph).
func loadStores(t *testing.T) map[string]grin.Graph {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 40, Seed: 3})
	vy, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	lg, err := livegraph.LoadBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]grin.Graph{"vineyard": vy, "gart": gs.Latest(), "livegraph": lg}
}

// siteCalls drives one call per counted site through the grin accessors; a
// call runs only when its trait is available, and returns a printable
// result so the wrapper's answer can be checked against the inner store's.
var siteCalls = []struct {
	site  obsv.StoreSite
	trait grin.Trait
	call  func(g grin.Graph) any
}{
	{obsv.StoreDegree, grin.TraitTopology, func(g grin.Graph) any { return g.Degree(0, graph.Out) }},
	{obsv.StoreNeighbors, grin.TraitTopology, func(g grin.Graph) any {
		var vs []graph.VID
		g.Neighbors(0, graph.Out, func(v graph.VID, _ graph.EID) bool { vs = append(vs, v); return true })
		return vs
	}},
	{obsv.StoreAdjSlice, grin.TraitAdjArray, func(g grin.Graph) any {
		a, _ := grin.AsAdjArray(g)
		return a.AdjSlice(0, graph.Out)
	}},
	{obsv.StoreVertexProp, grin.TraitProperty, func(g grin.Graph) any {
		p, _ := grin.AsPropertyReader(g)
		v, ok := p.VertexProp(0, 0)
		return fmt.Sprint(v, ok)
	}},
	{obsv.StoreEdgeProp, grin.TraitProperty, func(g grin.Graph) any {
		p, _ := grin.AsPropertyReader(g)
		v, ok := p.EdgeProp(0, 0)
		return fmt.Sprint(v, ok)
	}},
	{obsv.StoreEdgeWeight, grin.TraitWeight, func(g grin.Graph) any {
		w, _ := grin.AsWeightReader(g)
		return w.EdgeWeight(0)
	}},
	{obsv.StoreLookupVertex, grin.TraitIndex, func(g grin.Graph) any {
		ix, _ := grin.AsIndex(g)
		v, ok := ix.LookupVertex(0, ix.ExternalID(1))
		return fmt.Sprint(v, ok)
	}},
	{obsv.StoreLabelRange, grin.TraitIndex, func(g grin.Graph) any {
		ix, _ := grin.AsIndex(g)
		lo, hi, ok := ix.LabelRange(0)
		return fmt.Sprint(lo, hi, ok)
	}},
	{obsv.StoreScanVertices, grin.TraitPredicate, func(g grin.Graph) any {
		p, _ := grin.AsPredicatePush(g)
		var vs []graph.VID
		p.ScanVertices(0, func(v graph.VID) bool { return v%2 == 0 }, func(v graph.VID) bool { vs = append(vs, v); return true })
		return vs
	}},
	{obsv.StoreExpandBatch, grin.TraitBatchAdjacency, func(g grin.Graph) any {
		b, _ := grin.AsBatchAdjacency(g)
		var out grin.AdjBatch
		b.ExpandBatch([]graph.VID{0, 1}, graph.Out, &out)
		return fmt.Sprint(out)
	}},
	{obsv.StoreGatherVProp, grin.TraitBatchProps, func(g grin.Graph) any {
		b, _ := grin.AsBatchProps(g)
		out := make([]graph.Value, 3)
		b.GatherVertexProp([]graph.VID{0, 1, 2}, "creationDate", out)
		return fmt.Sprint(out)
	}},
	{obsv.StoreGatherEProp, grin.TraitBatchProps, func(g grin.Graph) any {
		b, _ := grin.AsBatchProps(g)
		out := make([]graph.Value, 3)
		b.GatherEdgeProp([]graph.EID{0, 1, 2}, "creationDate", out)
		return fmt.Sprint(out)
	}},
	{obsv.StoreGatherVLabels, grin.TraitBatchProps, func(g grin.Graph) any {
		b, _ := grin.AsBatchProps(g)
		out := make([]graph.LabelID, 3)
		b.GatherVertexLabels([]graph.VID{0, 1, 2}, out)
		return out
	}},
	{obsv.StoreGatherELabels, grin.TraitBatchProps, func(g grin.Graph) any {
		b, _ := grin.AsBatchProps(g)
		out := make([]graph.LabelID, 3)
		b.GatherEdgeLabels([]graph.EID{0, 1, 2}, out)
		return out
	}},
	{obsv.StoreScanBatch, grin.TraitBatchScan, func(g grin.Graph) any {
		b, _ := grin.AsBatchScan(g)
		buf := make([]graph.VID, 4)
		n, next := b.ScanBatch(0, 0, buf)
		return fmt.Sprint(buf[:n], next)
	}},
}

// TestTraitMaskingHonest pins the interposer's contract on a full-trait
// backend, one without the typed-column gather and a topology-only one: the
// wrapper's Go method set covers every trait, but grin.Has reports exactly
// the inner store's capabilities; every counted site delegates to the inner
// store's answer and lands one call on its own counter; uncounted metadata
// calls stay out of the profile; and the typed gather is kept where the
// inner store has it and declined without a count where it does not.
func TestTraitMaskingHonest(t *testing.T) {
	if got := len(siteCalls); got != int(obsv.NumStoreSites) {
		t.Fatalf("siteCalls covers %d sites, want all %d", got, obsv.NumStoreSites)
	}
	for name, inner := range loadStores(t) {
		stats := &obsv.StoreStats{}
		mg := Wrap(inner, stats)
		for tr := grin.Trait(0); int(tr) < 16; tr++ {
			if got, want := grin.Has(mg, tr), grin.Has(inner, tr); got != want {
				t.Errorf("%s: wrapper Has(%v) = %v, inner = %v", name, tr, got, want)
			}
		}
		if _, ok := grin.AsPropertyReader(mg); ok != grin.Has(inner, grin.TraitProperty) {
			t.Errorf("%s: AsPropertyReader = %v, want the inner capability", name, ok)
		}

		mg.NumVertices()
		mg.NumEdges()
		want := [obsv.NumStoreSites]int64{}
		for _, sc := range siteCalls {
			if !grin.Has(inner, sc.trait) {
				continue
			}
			got, ref := fmt.Sprint(sc.call(mg)), fmt.Sprint(sc.call(inner))
			if got != ref {
				t.Errorf("%s/%v: wrapper returned %s, inner %s", name, sc.site, got, ref)
			}
			want[sc.site]++
		}

		// The typed-column gather rides on BatchProps: kept and counted
		// under GatherVertexProp/GatherEdgeProp when the inner store has it,
		// declined with dst untouched and no count when it does not.
		_, innerCol := grin.AsBatchPropsCol(inner)
		vcol, ecol := column.New(graph.KindInt), column.New(graph.KindInt)
		vok := grin.GatherVertexPropCol(mg, []graph.VID{0, 1, 2}, "creationDate", vcol)
		eok := grin.GatherEdgePropCol(mg, []graph.EID{0, 1, 2}, "creationDate", ecol)
		if vok != innerCol || eok != innerCol {
			t.Errorf("%s: typed gathers = %v/%v, want the inner capability %v", name, vok, eok, innerCol)
		}
		if innerCol {
			want[obsv.StoreGatherVProp]++
			want[obsv.StoreGatherEProp]++
			ref := column.New(graph.KindInt)
			grin.GatherVertexPropCol(inner, []graph.VID{0, 1, 2}, "creationDate", ref)
			if got, want := renderCol(vcol), renderCol(ref); got != want {
				t.Errorf("%s: typed gather = %s, inner %s", name, got, want)
			}
		} else if vcol.Len() != 0 || ecol.Len() != 0 {
			t.Errorf("%s: declined typed gather touched dst (%d/%d rows)", name, vcol.Len(), ecol.Len())
		}

		for site := obsv.StoreSite(0); site < obsv.NumStoreSites; site++ {
			if got := stats.Calls(site); got != want[site] {
				t.Errorf("%s: site %v counted %d calls, want %d", name, site, got, want[site])
			}
		}
		if got, want := mg.BackendName(), "meter("+inner.(grin.Named).BackendName()+")"; got != want {
			t.Errorf("BackendName = %q, want %q", got, want)
		}
	}
}

func renderCol(c *column.Column) string {
	rows := make([]string, c.Len())
	for i := range rows {
		v, ok := c.Get(i)
		rows[i] = fmt.Sprint(v, ok)
	}
	return fmt.Sprint(rows)
}

// TestNativeFlags pins the native/fallback regime recorded at wrap time: a
// full-trait backend is native everywhere, a topology-only one is native only
// where it really serves the trait.
func TestNativeFlags(t *testing.T) {
	vstats := Wrap(loadVineyard(t), nil).Stats()
	for site := obsv.StoreSite(0); site < obsv.NumStoreSites; site++ {
		if !vstats.Snapshot().Sites[site].Native {
			t.Errorf("vineyard site %v not native", site)
		}
	}

	lg := livegraph.NewStore(8)
	if err := lg.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	lsnap := Wrap(lg, nil).Stats().Snapshot()
	byName := map[string]obsv.StoreSiteSnapshot{}
	for _, s := range lsnap.Sites {
		byName[s.Site] = s
	}
	if !byName["Degree"].Native || !byName["Neighbors"].Native {
		t.Error("livegraph topology sites must be native")
	}
	if byName["VertexProp"].Native {
		t.Error("livegraph has no property reader; VertexProp cannot be native")
	}
	if byName["GatherVertexProp"].Native {
		t.Error("livegraph has no batch props; GatherVertexProp cannot be native")
	}
}

// versionedGraph lends the Versioned trait to any inner graph for the
// snapshot-sink test (no committed backend exposes Versioned on its query
// view; GART keeps it on the store handle).
type versionedGraph struct {
	grin.Graph
	ver uint64
}

func (v *versionedGraph) ReadVersion() uint64 { return v.ver }

func (v *versionedGraph) Snapshot(version uint64) grin.Graph { return v.Graph }

func (v *versionedGraph) HasTrait(t grin.Trait) bool {
	return t == grin.TraitVersioned || grin.Has(v.Graph, t)
}

// TestSnapshotSharesSink pins the versioned path: a metered store's Snapshot
// returns a metered view whose calls land in the same counter sink, so one
// profile covers the query's pinned read view.
func TestSnapshotSharesSink(t *testing.T) {
	mg := Wrap(&versionedGraph{Graph: loadVineyard(t), ver: 7}, nil)
	vers, ok := grin.AsVersioned(mg)
	if !ok {
		t.Fatal("metered store lost the Versioned trait")
	}
	snap := vers.Snapshot(vers.ReadVersion())
	msnap, ok := snap.(*Graph)
	if !ok {
		t.Fatalf("Snapshot returned %T, want a metered *Graph", snap)
	}
	if msnap.Stats() != mg.Stats() {
		t.Fatal("snapshot does not share the wrapper's stats sink")
	}
	before := mg.Stats().Calls(obsv.StoreDegree)
	msnap.Degree(0, graph.Out)
	if mg.Stats().Calls(obsv.StoreDegree) != before+1 {
		t.Fatal("snapshot call did not land in the shared sink")
	}
}

// TestConcurrentWrapSharedSink wraps one store from several goroutines into
// one shared sink, as a per-call snapshot provider does: under -race the
// wrap-time writes of the backend name and native flags must not race, and
// the sink must still report the inner backend and its regime.
func TestConcurrentWrapSharedSink(t *testing.T) {
	inner := loadStores(t)["vineyard"]
	stats := &obsv.StoreStats{}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Wrap(inner, stats).ExpandBatch([]graph.VID{0}, graph.Out, &grin.AdjBatch{})
		}()
	}
	wg.Wait()
	snap := stats.Snapshot()
	if snap.Backend != "vineyard" {
		t.Errorf("backend %q, want vineyard", snap.Backend)
	}
	if site := snap.Sites[obsv.StoreExpandBatch]; site.Calls != 4 || !site.Native {
		t.Errorf("ExpandBatch site %+v, want 4 native calls", site)
	}
}
