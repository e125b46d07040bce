package gart

import (
	"repro/internal/graph"
	"repro/internal/grin"
)

// Snapshot is a consistent read-only view of a Store at one committed
// version. Vertex reads (NumVertices, VertexLabel, ExternalID,
// GatherVertexLabels, ScanVertices, ScanBatch, LabelRange) and topology
// walks (Neighbors, Degree, ExpandBatch) read the store's published vertex
// view and take no lock. Property reads, LookupVertex and edge-label reads
// take the store's read lock.
type Snapshot struct {
	s   *Store
	ver uint64
}

var (
	_ grin.Graph          = (*Snapshot)(nil)
	_ grin.PropertyReader = (*Snapshot)(nil)
	_ grin.WeightReader   = (*Snapshot)(nil)
	_ grin.Index          = (*Snapshot)(nil)
	_ grin.PredicatePush  = (*Snapshot)(nil)
	_ grin.Named          = (*Snapshot)(nil)
)

// Version returns the snapshot's version.
func (sn *Snapshot) Version() uint64 { return sn.ver }

// BackendName implements grin.Named.
func (sn *Snapshot) BackendName() string { return "gart" }

// visible reports whether an entry exists at this snapshot's version.
func (sn *Snapshot) visible(create uint64, deleted uint64) bool {
	return create <= sn.ver && sn.ver < deleted
}

// NumVertices implements grin.Graph. Vertex IDs are assigned in commit
// order, so the visible vertices are a prefix of the published view.
func (sn *Snapshot) NumVertices() int {
	vs := sn.s.view.Load().vertices
	n := len(vs)
	for n > 0 && vs[n-1].createVer > sn.ver {
		n--
	}
	return n
}

// NumEdges implements grin.Graph by counting visible out-entries.
func (sn *Snapshot) NumEdges() int {
	total := 0
	n := sn.NumVertices()
	for v := 0; v < n; v++ {
		total += sn.Degree(graph.VID(v), graph.Out)
	}
	return total
}

// Degree implements grin.Graph (O(d): visibility must be checked per entry).
func (sn *Snapshot) Degree(v graph.VID, dir graph.Direction) int {
	d := 0
	sn.Neighbors(v, dir, func(graph.VID, graph.EID) bool { d++; return true })
	return d
}

// Neighbors implements grin.Graph with a lock-free segment-chain walk.
func (sn *Snapshot) Neighbors(v graph.VID, dir graph.Direction, yield func(graph.VID, graph.EID) bool) {
	view := sn.s.view.Load()
	if dir == graph.Both {
		if !sn.iterate(view.outAdj, v, yield) {
			return
		}
		sn.iterate(view.inAdj, v, yield)
		return
	}
	adjs := view.outAdj
	if dir == graph.In {
		adjs = view.inAdj
	}
	sn.iterate(adjs, v, yield)
}

// iterate walks the chain; returns false if the yield stopped early.
func (sn *Snapshot) iterate(adjs []*adjacency, v graph.VID, yield func(graph.VID, graph.EID) bool) bool {
	if int(v) >= len(adjs) {
		return true
	}
	a := adjs[v]
	for seg := a.head.Load(); seg != nil; seg = seg.next.Load() {
		n := int(seg.count.Load())
		for i := 0; i < n; i++ {
			e := &seg.entries[i]
			if !sn.visible(e.createVer, e.deleteVer.Load()) {
				continue
			}
			if !yield(e.nbr, e.eid) {
				return false
			}
		}
	}
	return true
}

// Schema implements grin.PropertyReader.
func (sn *Snapshot) Schema() *graph.Schema { return sn.s.schema }

// VertexLabel implements grin.PropertyReader.
func (sn *Snapshot) VertexLabel(v graph.VID) graph.LabelID {
	vs := sn.s.view.Load().vertices
	if !sn.visibleVertex(vs, v) {
		return graph.AnyLabel
	}
	return vs[v].label
}

// visibleVertex reports whether v exists at this snapshot's version: it is
// in the published view and was created at or before the version. Vertex
// metadata reads answer as for an absent vertex otherwise, so a pinned
// snapshot never sees a vertex appended after it.
func (sn *Snapshot) visibleVertex(vs []vertexMeta, v graph.VID) bool {
	return int(v) < len(vs) && vs[v].createVer <= sn.ver
}

// VertexProp implements grin.PropertyReader with MVCC cell resolution.
func (sn *Snapshot) VertexProp(v graph.VID, p graph.PropID) (graph.Value, bool) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(v) >= len(sn.s.vertices) {
		return graph.NullValue, false
	}
	meta := sn.s.vertices[v]
	if meta.createVer > sn.ver {
		return graph.NullValue, false
	}
	cols := sn.s.vcols[meta.label]
	if int(p) < 0 || int(p) >= len(cols) {
		return graph.NullValue, false
	}
	cell := propCell{v: v, p: p}
	curVer, updated := sn.s.vcurVer[cell]
	if !updated || curVer <= sn.ver {
		return cols[p].Get(int(meta.row))
	}
	// The current value is too new: read the newest historical value with
	// version <= snapshot version.
	hist := sn.s.vhist[cell]
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].ver <= sn.ver {
			if hist[i].val.IsNull() {
				return graph.NullValue, false
			}
			return hist[i].val, true
		}
	}
	return graph.NullValue, false
}

// EdgeLabel implements grin.PropertyReader.
func (sn *Snapshot) EdgeLabel(e graph.EID) graph.LabelID {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(e) >= len(sn.s.eLabel) {
		return graph.AnyLabel
	}
	return sn.s.eLabel[e]
}

// EdgeProp implements grin.PropertyReader. Edge properties are immutable
// once written, so no version chain is needed.
func (sn *Snapshot) EdgeProp(e graph.EID, p graph.PropID) (graph.Value, bool) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(e) >= len(sn.s.eLabel) {
		return graph.NullValue, false
	}
	l := sn.s.eLabel[e]
	cols := sn.s.ecols[l]
	if int(p) < 0 || int(p) >= len(cols) {
		return graph.NullValue, false
	}
	return cols[p].Get(int(sn.s.eRow[e]))
}

// EdgeWeight implements grin.WeightReader via the "weight" float property.
func (sn *Snapshot) EdgeWeight(e graph.EID) float64 {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	if int(e) >= len(sn.s.eLabel) {
		return 1.0
	}
	l := sn.s.eLabel[e]
	p := sn.s.schema.EdgePropID(l, "weight")
	if p == graph.NoProp {
		return 1.0
	}
	v, ok := sn.s.ecols[l][p].Get(int(sn.s.eRow[e]))
	if !ok {
		return 1.0
	}
	return v.Float()
}

// LookupVertex implements grin.Index.
func (sn *Snapshot) LookupVertex(label graph.LabelID, ext int64) (graph.VID, bool) {
	sn.s.mu.RLock()
	defer sn.s.mu.RUnlock()
	v, ok := sn.s.lookupLocked(label, ext)
	if !ok || sn.s.vertices[v].createVer > sn.ver {
		return graph.NilVID, false
	}
	return v, true
}

// ExternalID implements grin.Index.
func (sn *Snapshot) ExternalID(v graph.VID) int64 {
	vs := sn.s.view.Load().vertices
	if !sn.visibleVertex(vs, v) {
		return -1
	}
	return vs[v].extID
}

// LabelRange implements grin.Index. GART assigns IDs in arrival order, so
// per-label ranges are not contiguous; only AnyLabel resolves.
func (sn *Snapshot) LabelRange(label graph.LabelID) (graph.VID, graph.VID, bool) {
	if label == graph.AnyLabel {
		return 0, graph.VID(sn.NumVertices()), true
	}
	return 0, 0, false
}

// ScanVertices implements grin.PredicatePush with per-vertex label checks.
func (sn *Snapshot) ScanVertices(label graph.LabelID, pred func(graph.VID) bool, yield func(graph.VID) bool) {
	metas := sn.s.view.Load().vertices
	for i := range metas {
		if metas[i].createVer > sn.ver {
			continue
		}
		if label != graph.AnyLabel && metas[i].label != label {
			continue
		}
		v := graph.VID(i)
		if pred != nil && !pred(v) {
			continue
		}
		if !yield(v) {
			return
		}
	}
}
