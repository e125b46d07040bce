// Package gart implements the dynamic in-memory graph store of §4.2: an
// MVCC, mutable CSR-like structure that serves consistent snapshot reads
// while accepting continuous topology and property updates.
//
// Design, following the paper's GART:
//
//   - Adjacency is stored per vertex as a chain of fixed-capacity segments
//     (the "mutable CSR-like data structure"): entries within a segment are
//     contiguous, so scans enjoy near-CSR locality, while appends never move
//     existing entries. Segment size is configurable (ablation bench).
//   - Every edge entry carries a create version and an atomic delete version.
//     Readers pin a committed version and filter entries without locking:
//     writers publish an entry by atomically bumping the segment count after
//     the entry is fully written, and new entries carry an uncommitted
//     version that pinned snapshots skip.
//   - Vertex metadata (label, external ID, create version) and the
//     per-vertex adjacency heads are published as an immutable view through
//     an atomic pointer: the single writer appends under the store lock and
//     republishes a view covering the new entries, and entries below a
//     view's length are never modified again. Vertex reads (ExternalID,
//     VertexLabel, GatherVertexLabels, scans, NumVertices) and topology
//     walks (Neighbors, ExpandBatch) — the throughput-critical paths of
//     Exp-1c and the fraud check — index the view without locking, and
//     check each vertex's create version like every other snapshot read.
//   - Property columns, the MVCC cell maps, the external-ID lookup maps and
//     the edge arrays still take the store's read lock (they are growable or
//     updated in place).
//   - Vertex property updates keep per-cell version chains so snapshots read
//     the value as of their version.
package gart

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/storage/column"
)

// DefaultSegmentSize is the per-vertex adjacency segment capacity.
const DefaultSegmentSize = 64

const liveVersion = ^uint64(0)

type edgeEntry struct {
	nbr       graph.VID
	eid       graph.EID
	createVer uint64
	deleteVer atomic.Uint64 // liveVersion while live
}

type segment struct {
	entries []edgeEntry
	count   atomic.Uint32 // published entries
	next    atomic.Pointer[segment]
}

// adjacency is a segment chain for one vertex and direction.
type adjacency struct {
	head atomic.Pointer[segment]
	tail atomic.Pointer[segment]
}

type vertexMeta struct {
	label     graph.LabelID
	extID     int64
	createVer uint64
	row       uint32 // row in the label's property columns
}

// vertexView is the published prefix of the vertex arrays. The writer
// appends to the store's backing arrays under mu and then publishes a new
// view whose slices end at the new length; a reader holding an older view
// never indexes past its length, and entries below it are never written
// again, so views are safe to read without the lock.
type vertexView struct {
	vertices []vertexMeta
	outAdj   []*adjacency
	inAdj    []*adjacency
}

type propCell struct {
	v graph.VID
	p graph.PropID
}

type propVersion struct {
	ver uint64
	val graph.Value
}

// Store is the GART dynamic graph store.
type Store struct {
	schema  *graph.Schema
	segSize int

	// view is the lock-free read side of vertices/outAdj/inAdj.
	view atomic.Pointer[vertexView]

	mu sync.RWMutex // guards all growable state below

	vertices  []vertexMeta
	outAdj    []*adjacency
	inAdj     []*adjacency
	extLookup []map[int64]graph.VID
	vcols     [][]*column.Column
	// vcurVer[cell] is the commit version of the cell's current (column)
	// value; absent means the vertex create version. vhist holds superseded
	// values, ascending by version.
	vcurVer map[propCell]uint64
	vhist   map[propCell][]propVersion

	eLabel []graph.LabelID
	eRow   []uint32
	ecols  [][]*column.Column

	readVer atomic.Uint64 // newest committed version
}

var (
	_ grin.Versioned = (*Store)(nil)
	_ grin.Named     = (*Store)(nil)
)

// NewStore creates an empty GART store. segSize <= 0 selects the default.
func NewStore(schema *graph.Schema, segSize int) *Store {
	if segSize <= 0 {
		segSize = DefaultSegmentSize
	}
	s := &Store{
		schema:    schema,
		segSize:   segSize,
		extLookup: make([]map[int64]graph.VID, schema.NumVertexLabels()),
		vcols:     make([][]*column.Column, schema.NumVertexLabels()),
		ecols:     make([][]*column.Column, schema.NumEdgeLabels()),
		vcurVer:   make(map[propCell]uint64),
		vhist:     make(map[propCell][]propVersion),
	}
	for l := range s.vcols {
		s.extLookup[l] = make(map[int64]graph.VID)
		s.vcols[l] = column.Set(schema.Vertices[l].Props)
	}
	for l := range s.ecols {
		s.ecols[l] = column.Set(schema.Edges[l].Props)
	}
	s.view.Store(&vertexView{})
	return s
}

// BackendName implements grin.Named.
func (s *Store) BackendName() string { return "gart" }

// Schema returns the store's schema.
func (s *Store) Schema() *graph.Schema { return s.schema }

// writeVersion is the version new writes belong to: the next commit.
func (s *Store) writeVersion() uint64 { return s.readVer.Load() + 1 }

// ReadVersion implements grin.Versioned.
func (s *Store) ReadVersion() uint64 { return s.readVer.Load() }

// Commit publishes all writes since the previous commit and returns the new
// read version.
func (s *Store) Commit() uint64 { return s.readVer.Add(1) }

// AddVertex inserts a vertex, visible after the next Commit.
func (s *Store) AddVertex(label graph.LabelID, extID int64, props ...graph.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.addVertexLocked(label, extID, props); err != nil {
		return err
	}
	s.publishLocked()
	return nil
}

// addVertexLocked appends one vertex without publishing it to readers.
// Called with mu held.
func (s *Store) addVertexLocked(label graph.LabelID, extID int64, props []graph.Value) error {
	if int(label) < 0 || int(label) >= s.schema.NumVertexLabels() {
		return fmt.Errorf("gart: vertex label %d out of range", label)
	}
	if _, dup := s.extLookup[label][extID]; dup {
		return fmt.Errorf("gart: duplicate vertex %s/%d", s.schema.VertexLabelName(label), extID)
	}
	vid := graph.VID(len(s.vertices))
	row := uint32(0)
	if cols := s.vcols[label]; len(cols) > 0 {
		row = uint32(cols[0].Len())
	}
	if err := column.AppendRow(s.vcols[label], props); err != nil {
		return fmt.Errorf("gart: vertex %s/%d: %w", s.schema.VertexLabelName(label), extID, err)
	}
	s.vertices = append(s.vertices, vertexMeta{
		label: label, extID: extID, createVer: s.writeVersion(), row: row,
	})
	s.outAdj = append(s.outAdj, &adjacency{})
	s.inAdj = append(s.inAdj, &adjacency{})
	s.extLookup[label][extID] = vid
	return nil
}

// publishLocked makes every appended vertex visible to lock-free readers.
// Called with mu held (single writer).
func (s *Store) publishLocked() {
	s.view.Store(&vertexView{vertices: s.vertices, outAdj: s.outAdj, inAdj: s.inAdj})
}

// AddEdge inserts an edge between existing vertices, visible after Commit.
func (s *Store) AddEdge(label graph.LabelID, srcExt, dstExt int64, props ...graph.Value) error {
	if int(label) < 0 || int(label) >= s.schema.NumEdgeLabels() {
		return fmt.Errorf("gart: edge label %d out of range", label)
	}
	el := s.schema.Edges[label]
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.lookupLocked(el.Src, srcExt)
	if !ok {
		return fmt.Errorf("gart: edge %s: unknown source %d", el.Name, srcExt)
	}
	dst, ok := s.lookupLocked(el.Dst, dstExt)
	if !ok {
		return fmt.Errorf("gart: edge %s: unknown destination %d", el.Name, dstExt)
	}
	eid := graph.EID(len(s.eLabel))
	row := uint32(0)
	if cols := s.ecols[label]; len(cols) > 0 {
		row = uint32(cols[0].Len())
	}
	if err := column.AppendRow(s.ecols[label], props); err != nil {
		return fmt.Errorf("gart: edge %s: %w", el.Name, err)
	}
	s.eLabel = append(s.eLabel, label)
	s.eRow = append(s.eRow, row)
	ver := s.writeVersion()
	s.appendEntry(s.outAdj[src], dst, eid, ver)
	s.appendEntry(s.inAdj[dst], src, eid, ver)
	return nil
}

// appendEntry publishes an edge entry at the chain tail. Called with mu held
// (single writer); readers observe the entry only after the count bump.
func (s *Store) appendEntry(a *adjacency, nbr graph.VID, eid graph.EID, ver uint64) {
	tail := a.tail.Load()
	if tail == nil || int(tail.count.Load()) == len(tail.entries) {
		seg := &segment{entries: make([]edgeEntry, s.segSize)}
		if tail == nil {
			a.head.Store(seg)
		} else {
			tail.next.Store(seg)
		}
		a.tail.Store(seg)
		tail = seg
	}
	idx := tail.count.Load()
	e := &tail.entries[idx]
	e.nbr = nbr
	e.eid = eid
	e.createVer = ver
	e.deleteVer.Store(liveVersion)
	tail.count.Store(idx + 1) // publish
}

// DeleteEdge tombstones all live (src,dst) edges of the label; the deletion
// becomes visible after Commit. It returns the number of edges removed.
func (s *Store) DeleteEdge(label graph.LabelID, srcExt, dstExt int64) (int, error) {
	el := s.schema.Edges[label]
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.lookupLocked(el.Src, srcExt)
	if !ok {
		return 0, fmt.Errorf("gart: delete %s: unknown source %d", el.Name, srcExt)
	}
	dst, ok := s.lookupLocked(el.Dst, dstExt)
	if !ok {
		return 0, fmt.Errorf("gart: delete %s: unknown destination %d", el.Name, dstExt)
	}
	ver := s.writeVersion()
	removed := 0
	for seg := s.outAdj[src].head.Load(); seg != nil; seg = seg.next.Load() {
		n := int(seg.count.Load())
		for i := 0; i < n; i++ {
			e := &seg.entries[i]
			if e.nbr == dst && s.eLabel[e.eid] == label && e.deleteVer.Load() == liveVersion {
				e.deleteVer.Store(ver)
				removed++
				s.tombstoneIn(dst, e.eid, ver)
			}
		}
	}
	return removed, nil
}

func (s *Store) tombstoneIn(dst graph.VID, eid graph.EID, ver uint64) {
	for seg := s.inAdj[dst].head.Load(); seg != nil; seg = seg.next.Load() {
		n := int(seg.count.Load())
		for i := 0; i < n; i++ {
			e := &seg.entries[i]
			if e.eid == eid {
				e.deleteVer.Store(ver)
				return
			}
		}
	}
}

// SetVertexProp updates one vertex property; superseded values remain
// readable by older snapshots.
func (s *Store) SetVertexProp(label graph.LabelID, extID int64, p graph.PropID, val graph.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	vid, ok := s.lookupLocked(label, extID)
	if !ok {
		return fmt.Errorf("gart: set prop: unknown vertex %s/%d", s.schema.VertexLabelName(label), extID)
	}
	meta := s.vertices[vid]
	cols := s.vcols[meta.label]
	if int(p) < 0 || int(p) >= len(cols) {
		return fmt.Errorf("gart: set prop: prop %d out of range for %s", p, s.schema.VertexLabelName(label))
	}
	cell := propCell{v: vid, p: p}
	old, _ := cols[p].Get(int(meta.row))
	oldVer, has := s.vcurVer[cell]
	if !has {
		oldVer = meta.createVer
	}
	s.vhist[cell] = append(s.vhist[cell], propVersion{ver: oldVer, val: old})
	if err := cols[p].Set(int(meta.row), val); err != nil {
		return err
	}
	s.vcurVer[cell] = s.writeVersion()
	return nil
}

func (s *Store) lookupLocked(label graph.LabelID, ext int64) (graph.VID, bool) {
	if label != graph.AnyLabel {
		if int(label) < 0 || int(label) >= len(s.extLookup) {
			return graph.NilVID, false
		}
		v, ok := s.extLookup[label][ext]
		return v, ok
	}
	for _, m := range s.extLookup {
		if v, ok := m[ext]; ok {
			return v, true
		}
	}
	return graph.NilVID, false
}

// LoadBatch bulk-loads a batch and commits once. The vertices are appended
// under one lock hold and published to readers as one view.
func (s *Store) LoadBatch(b *graph.Batch) error {
	if err := s.loadVertices(b.Vertices); err != nil {
		return err
	}
	for _, e := range b.Edges {
		if err := s.AddEdge(e.Label, e.Src, e.Dst, e.Props...); err != nil {
			return err
		}
	}
	s.Commit()
	return nil
}

func (s *Store) loadVertices(vs []graph.VertexRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.publishLocked()
	for _, v := range vs {
		if err := s.addVertexLocked(v.Label, v.ExtID, v.Props); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot implements grin.Versioned, clamping to the committed version.
func (s *Store) Snapshot(version uint64) grin.Graph {
	if rv := s.readVer.Load(); version > rv {
		version = rv
	}
	return &Snapshot{s: s, ver: version}
}

// Latest returns a snapshot at the newest committed version.
func (s *Store) Latest() *Snapshot {
	return &Snapshot{s: s, ver: s.readVer.Load()}
}

// NumVertices returns the committed vertex count at the newest version.
func (s *Store) NumVertices() int { return s.Latest().NumVertices() }

// NumEdges returns the live edge count at the newest version (O(V+E)).
func (s *Store) NumEdges() int { return s.Latest().NumEdges() }
