package obsv

import "sync/atomic"

// StoreSite enumerates the GRIN trait call sites the store interposer
// (internal/storage/meter) counts. It is the repo's single site enumeration:
// internal/storage/chaos schedules its faults at these sites, on the same
// wrapper's counters, so a fault schedule and a call-count profile always
// describe the same surface.
type StoreSite uint8

const (
	StoreDegree StoreSite = iota
	StoreNeighbors
	StoreAdjSlice
	StoreVertexProp
	StoreEdgeProp
	StoreEdgeWeight
	StoreLookupVertex
	StoreLabelRange
	StoreScanVertices
	StoreExpandBatch
	StoreGatherVProp
	StoreGatherEProp
	StoreGatherVLabels
	StoreGatherELabels
	StoreScanBatch
	// NumStoreSites sizes fixed counter arrays.
	NumStoreSites
)

var storeSiteNames = [NumStoreSites]string{
	"Degree", "Neighbors", "AdjSlice", "VertexProp", "EdgeProp",
	"EdgeWeight", "LookupVertex", "LabelRange", "ScanVertices",
	"ExpandBatch", "GatherVertexProp", "GatherEdgeProp",
	"GatherVertexLabels", "GatherEdgeLabels", "ScanBatch",
}

// String returns the site name (the GRIN trait method it counts).
func (s StoreSite) String() string {
	if s < NumStoreSites {
		return storeSiteNames[s]
	}
	return "StoreSite(?)"
}

// Batch reports whether the site is one of the vectorized fast-path traits
// (BatchAdjacency/BatchProps/BatchScan) as opposed to a per-row scalar site.
func (s StoreSite) Batch() bool { return s >= StoreExpandBatch }

// StoreStats counts trait calls per site for one metered store. Counters are
// a fixed array of atomics — no map, no lock — so batch-loop call sites cost
// one atomic add. The native flags are written at wrap time and record
// whether each batch site is served natively by the inner backend or routed
// through grin's generic scalar fallbacks; together with the counts they
// show which path a backend actually took. The backend name and the flags
// are atomics too: several wrappers over one store may share a sink and be
// built concurrently (one per query or per actor), writing the same values.
type StoreStats struct {
	backend atomic.Pointer[string]
	native  [NumStoreSites]atomic.Bool
	calls   [NumStoreSites]atomic.Int64
}

// SetBackend records the metered backend's name (wrap time).
func (s *StoreStats) SetBackend(name string) { s.backend.Store(&name) }

// SetNative records whether the site's trait is natively provided by the
// inner backend (wrap time).
func (s *StoreStats) SetNative(site StoreSite, native bool) { s.native[site].Store(native) }

// Count records one call to the site and returns the site's call number
// (its new count) — the number a fault schedule fires on.
func (s *StoreStats) Count(site StoreSite) int64 { return s.calls[site].Add(1) }

// Calls reads the site's counter.
func (s *StoreStats) Calls(site StoreSite) int64 { return s.calls[site].Load() }

// StoreSiteSnapshot is one site's row in a snapshot.
type StoreSiteSnapshot struct {
	Site  string
	Calls int64
	// Native is true when the inner backend serves this trait itself; false
	// for batch traits that fall back to scalar loops (and for scalar sites
	// on backends that lack the trait entirely).
	Native bool
	// Batch is true for the vectorized trait sites (ExpandBatch, Gather*,
	// ScanBatch) as opposed to per-row scalar sites.
	Batch bool
}

// StoreSnapshot is a point-in-time dump of all 15 site counters, in enum
// order — never map order.
type StoreSnapshot struct {
	Backend string
	Sites   []StoreSiteSnapshot
}

// Snapshot dumps the counters.
func (s *StoreStats) Snapshot() StoreSnapshot {
	snap := StoreSnapshot{Sites: make([]StoreSiteSnapshot, NumStoreSites)}
	if name := s.backend.Load(); name != nil {
		snap.Backend = *name
	}
	for i := StoreSite(0); i < NumStoreSites; i++ {
		snap.Sites[i] = StoreSiteSnapshot{Site: i.String(), Calls: s.calls[i].Load(), Native: s.native[i].Load(), Batch: i.Batch()}
	}
	return snap
}

// Total sums the calls over every site.
func (s StoreSnapshot) Total() int64 {
	var n int64
	for _, site := range s.Sites {
		n += site.Calls
	}
	return n
}

// Since returns the snapshot with the calls already counted in before (an
// earlier snapshot of the same sink) subtracted: the calls made in between.
func (s StoreSnapshot) Since(before StoreSnapshot) StoreSnapshot {
	out := StoreSnapshot{Backend: s.Backend, Sites: append([]StoreSiteSnapshot(nil), s.Sites...)}
	for i := range out.Sites {
		out.Sites[i].Calls -= before.Sites[i].Calls
	}
	return out
}
