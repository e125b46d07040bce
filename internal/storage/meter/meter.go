// Package meter is the repo's one store interposer: a GRIN wrapper over any
// inner backend that delegates every trait call, counts the calls per site
// (obsv.StoreSite) into an obsv.StoreStats, and runs an optional per-call
// hook. Plain metering (Wrap) runs no hook; internal/storage/chaos is this
// wrapper with a fault schedule as its hook, so a chaos-wrapped store is
// also metered and a fault schedule and a call profile name the same sites.
//
// The wrapper's Go method set covers every GRIN trait plus the typed-column
// gather grin.BatchPropsCol; HasTrait masks it down to the inner store's
// real capability set, so discovery through grin.Has and grin.As* stays
// honest and a metered query takes exactly the path an unmetered one does.
// When the inner backend lacks a batch trait, grin's generic helpers take
// the scalar fallback *through the wrapper*, so the scalar site counters
// rise where a native backend would show batch calls; the StoreStats native
// flags record which regime each site was in.
//
// Counting is one atomic add per call with no locks and no maps, so a
// metered query stays safe for the engines' full parallelism and the counts
// merge deterministically regardless of worker schedule.
package meter

import (
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/obsv"
	"repro/internal/storage/column"
)

// Graph wraps an inner GRIN backend with call counting and an optional
// per-call hook. Safe for concurrent use to the same degree the inner store
// is: the stats sink is atomic and the hook is fixed at wrap time.
type Graph struct {
	inner grin.Graph
	stats *obsv.StoreStats
	name  string
	// hook runs after each counted call with the call's number at its site;
	// a true result asks ScanBatch for a short read. Nil for plain metering.
	hook func(site obsv.StoreSite, n int64) (shortRead bool)

	// Pre-asserted optional traits of the inner store; nil when absent.
	// HasTrait masks the wrapper's method set down to what is non-nil.
	adj   grin.AdjArray
	props grin.PropertyReader
	wts   grin.WeightReader
	idx   grin.Index
	pred  grin.PredicatePush
	part  grin.Partitioned
	vers  grin.Versioned
	badj  grin.BatchAdjacency
	bprop grin.BatchProps
	bcol  grin.BatchPropsCol
	bscan grin.BatchScan
}

// Wrap builds a metering view of inner counting into stats. A nil stats gets
// a fresh sink (read it back via Stats). Wrap also records the backend name
// and the native/fallback regime of every site into the sink.
func Wrap(inner grin.Graph, stats *obsv.StoreStats) *Graph {
	return Interpose(inner, stats, "meter", nil)
}

// Interpose is Wrap with a per-call hook, run after each call is counted
// and before it is delegated, with the call's 1-based number at its site
// (atomic across goroutines, so exactly one call sees each number); name
// labels the wrapper in BackendName. It is the seam internal/storage/chaos
// builds its fault schedule on.
func Interpose(inner grin.Graph, stats *obsv.StoreStats, name string, hook func(site obsv.StoreSite, n int64) (shortRead bool)) *Graph {
	if stats == nil {
		stats = &obsv.StoreStats{}
	}
	g := &Graph{inner: inner, stats: stats, name: name, hook: hook}
	g.bind(inner)
	stats.SetBackend(innerName(inner))
	stats.SetNative(obsv.StoreDegree, true)
	stats.SetNative(obsv.StoreNeighbors, true)
	stats.SetNative(obsv.StoreAdjSlice, g.adj != nil)
	stats.SetNative(obsv.StoreVertexProp, g.props != nil)
	stats.SetNative(obsv.StoreEdgeProp, g.props != nil)
	stats.SetNative(obsv.StoreEdgeWeight, g.wts != nil)
	stats.SetNative(obsv.StoreLookupVertex, g.idx != nil)
	stats.SetNative(obsv.StoreLabelRange, g.idx != nil)
	stats.SetNative(obsv.StoreScanVertices, g.pred != nil)
	stats.SetNative(obsv.StoreExpandBatch, g.badj != nil)
	stats.SetNative(obsv.StoreGatherVProp, g.bprop != nil)
	stats.SetNative(obsv.StoreGatherEProp, g.bprop != nil)
	stats.SetNative(obsv.StoreGatherVLabels, g.bprop != nil)
	stats.SetNative(obsv.StoreGatherELabels, g.bprop != nil)
	stats.SetNative(obsv.StoreScanBatch, g.bscan != nil)
	return g
}

func (g *Graph) bind(inner grin.Graph) {
	g.adj, _ = grin.AsAdjArray(inner)
	g.props, _ = grin.AsPropertyReader(inner)
	g.wts, _ = grin.AsWeightReader(inner)
	g.idx, _ = grin.AsIndex(inner)
	g.pred, _ = grin.AsPredicatePush(inner)
	g.part, _ = grin.AsPartitioned(inner)
	g.vers, _ = grin.AsVersioned(inner)
	g.badj, _ = grin.AsBatchAdjacency(inner)
	g.bprop, _ = grin.AsBatchProps(inner)
	g.bcol, _ = grin.AsBatchPropsCol(inner)
	g.bscan, _ = grin.AsBatchScan(inner)
}

func innerName(inner grin.Graph) string {
	if n, ok := inner.(grin.Named); ok {
		return n.BackendName()
	}
	return "unknown"
}

// at counts one call to the site and runs the hook, reporting whether the
// hook asked for a short read.
func (g *Graph) at(s obsv.StoreSite) bool {
	n := g.stats.Count(s)
	return g.hook != nil && g.hook(s, n)
}

// Inner returns the wrapped store.
func (g *Graph) Inner() grin.Graph { return g.inner }

// Stats returns the counter sink.
func (g *Graph) Stats() *obsv.StoreStats { return g.stats }

// HasTrait reports the *inner* store's capability set (grin.TraitMasker):
// the wrapper type has every trait method, but only the traits the wrapped
// store really provides are advertised.
func (g *Graph) HasTrait(t grin.Trait) bool { return grin.Has(g.inner, t) }

// BackendName identifies the wrapper and its inner store in logs/manifests.
func (g *Graph) BackendName() string { return g.name + "(" + innerName(g.inner) + ")" }

// Graph (topology) — always present.

// NumVertices delegates (O(1) metadata the optimizer calls freely; not a
// counted site).
func (g *Graph) NumVertices() int { return g.inner.NumVertices() }

// NumEdges delegates.
func (g *Graph) NumEdges() int { return g.inner.NumEdges() }

// Degree delegates with counting.
func (g *Graph) Degree(v graph.VID, dir graph.Direction) int {
	g.at(obsv.StoreDegree)
	return g.inner.Degree(v, dir)
}

// Neighbors delegates with counting.
func (g *Graph) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	g.at(obsv.StoreNeighbors)
	g.inner.Neighbors(v, dir, yield)
}

// AdjArray.

// AdjSlice delegates with counting.
func (g *Graph) AdjSlice(v graph.VID, dir graph.Direction) []grin.Target {
	g.at(obsv.StoreAdjSlice)
	return g.adj.AdjSlice(v, dir)
}

// PropertyReader.

// Schema delegates (metadata; not a counted site).
func (g *Graph) Schema() *graph.Schema { return g.props.Schema() }

// VertexLabel delegates (label reads cannot take an independent slow path).
func (g *Graph) VertexLabel(v graph.VID) graph.LabelID { return g.props.VertexLabel(v) }

// VertexProp delegates with counting.
func (g *Graph) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	g.at(obsv.StoreVertexProp)
	return g.props.VertexProp(v, p)
}

// EdgeLabel delegates.
func (g *Graph) EdgeLabel(e graph.EID) graph.LabelID { return g.props.EdgeLabel(e) }

// EdgeProp delegates with counting.
func (g *Graph) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	g.at(obsv.StoreEdgeProp)
	return g.props.EdgeProp(e, p)
}

// WeightReader.

// EdgeWeight delegates with counting.
func (g *Graph) EdgeWeight(e graph.EID) float64 {
	g.at(obsv.StoreEdgeWeight)
	return g.wts.EdgeWeight(e)
}

// Index.

// LookupVertex delegates with counting.
func (g *Graph) LookupVertex(label graph.LabelID, extID int64) (graph.VID, bool) {
	g.at(obsv.StoreLookupVertex)
	return g.idx.LookupVertex(label, extID)
}

// ExternalID delegates.
func (g *Graph) ExternalID(v graph.VID) int64 { return g.idx.ExternalID(v) }

// LabelRange delegates with counting.
func (g *Graph) LabelRange(label graph.LabelID) (lo, hi graph.VID, ok bool) {
	g.at(obsv.StoreLabelRange)
	return g.idx.LabelRange(label)
}

// PredicatePush.

// ScanVertices delegates with counting.
func (g *Graph) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	g.at(obsv.StoreScanVertices)
	g.pred.ScanVertices(label, pred, yield)
}

// Partitioned.

// Fragment delegates.
func (g *Graph) Fragment() (id, total int) { return g.part.Fragment() }

// IsInner delegates.
func (g *Graph) IsInner(v graph.VID) bool { return g.part.IsInner(v) }

// Owner delegates.
func (g *Graph) Owner(v graph.VID) int { return g.part.Owner(v) }

// GlobalID delegates.
func (g *Graph) GlobalID(v graph.VID) graph.VID { return g.part.GlobalID(v) }

// Versioned.

// ReadVersion delegates.
func (g *Graph) ReadVersion() uint64 { return g.vers.ReadVersion() }

// Snapshot wraps the snapshot too, sharing this wrapper's counter sink and
// hook: the calls a query makes against its pinned view land in the same
// profile, and a fault schedule keeps firing on the view it actually reads.
func (g *Graph) Snapshot(version uint64) grin.Graph {
	snap := g.vers.Snapshot(version)
	ng := &Graph{inner: snap, stats: g.stats, name: g.name, hook: g.hook}
	ng.bind(snap)
	return ng
}

// Batch traits.

// ExpandBatch delegates with counting.
func (g *Graph) ExpandBatch(frontier []graph.VID, dir graph.Direction, out *grin.AdjBatch) {
	g.at(obsv.StoreExpandBatch)
	g.badj.ExpandBatch(frontier, dir, out)
}

// GatherVertexProp delegates with counting.
func (g *Graph) GatherVertexProp(vs []graph.VID, prop string, out []graph.Value) {
	g.at(obsv.StoreGatherVProp)
	g.bprop.GatherVertexProp(vs, prop, out)
}

// GatherEdgeProp delegates with counting.
func (g *Graph) GatherEdgeProp(es []graph.EID, prop string, out []graph.Value) {
	g.at(obsv.StoreGatherEProp)
	g.bprop.GatherEdgeProp(es, prop, out)
}

// GatherVertexPropCol delegates the typed-column gather, counted under the
// GatherVertexProp site. Without the inner trait it returns false, leaves
// dst untouched and counts nothing, so the caller's boxed fallback is the
// only call the profile sees.
func (g *Graph) GatherVertexPropCol(vs []graph.VID, prop string, dst *column.Column) bool {
	if g.bcol == nil {
		return false
	}
	g.at(obsv.StoreGatherVProp)
	return g.bcol.GatherVertexPropCol(vs, prop, dst)
}

// GatherEdgePropCol is GatherVertexPropCol for edge columns, counted under
// the GatherEdgeProp site.
func (g *Graph) GatherEdgePropCol(es []graph.EID, prop string, dst *column.Column) bool {
	if g.bcol == nil {
		return false
	}
	g.at(obsv.StoreGatherEProp)
	return g.bcol.GatherEdgePropCol(es, prop, dst)
}

// GatherVertexLabels delegates with counting.
func (g *Graph) GatherVertexLabels(vs []graph.VID, out []graph.LabelID) {
	g.at(obsv.StoreGatherVLabels)
	g.bprop.GatherVertexLabels(vs, out)
}

// GatherEdgeLabels delegates with counting.
func (g *Graph) GatherEdgeLabels(es []graph.EID, out []graph.LabelID) {
	g.at(obsv.StoreGatherELabels)
	g.bprop.GatherEdgeLabels(es, out)
}

// ScanBatch delegates with counting. A hook-requested short read halves the
// caller's buffer — legal under the trait contract (fill *up to* len(buf),
// return a resume cursor), so a correct runtime streams the same vertex
// sequence in more, smaller chunks.
func (g *Graph) ScanBatch(label graph.LabelID, start graph.VID, buf []graph.VID) (int, graph.VID) {
	if g.at(obsv.StoreScanBatch) && len(buf) > 1 {
		buf = buf[:(len(buf)+1)/2]
	}
	return g.bscan.ScanBatch(label, start, buf)
}
