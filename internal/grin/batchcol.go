package grin

import (
	"repro/internal/graph"
	"repro/internal/storage/column"
)

// BatchPropsCol is the typed-column refinement of BatchProps: gather one
// property of a whole vertex/edge column straight into a typed
// column.Column, so a store-resident column flows into a runtime batch
// vector with no graph.Value box in between. It is an optional fast path
// layered on BatchProps — implementations gather under the same trait
// masking, and every caller must keep a boxed fallback for stores that do
// not provide it. A wrapping backend that implements it must decline (return
// false, dst untouched) when its inner store lacks it, so wrapping a store
// never changes which path a query takes.
//
// The contract: append exactly len(vs) rows to dst, of dst's kind, with
// NULL rows for NilVID/NilEID elements and absent properties — the same
// value sequence GatherVertexProp/GatherEdgeProp would box. When the
// store's column kind disagrees with dst's kind for any element, the
// implementation must leave dst exactly as it found it and return false so
// the caller falls back to the boxed path.
type BatchPropsCol interface {
	// GatherVertexPropCol appends property prop of every vs element to dst.
	GatherVertexPropCol(vs []graph.VID, prop string, dst *column.Column) bool
	// GatherEdgePropCol appends property prop of every es element to dst.
	GatherEdgePropCol(es []graph.EID, prop string, dst *column.Column) bool
}

// AsBatchPropsCol returns the typed-column gather trait when available. It
// rides on the BatchProps capability: masking TraitBatchProps (capability
// probing) disables the typed path too, and the caller's boxed fallback
// takes over.
func AsBatchPropsCol(g Graph) (BatchPropsCol, bool) {
	bpc, ok := g.(BatchPropsCol)
	if !ok || !unmasked(g, TraitBatchProps) {
		return nil, false
	}
	return bpc, true
}

// GatherVertexPropCol appends property prop of every vs element to dst
// through the typed-column trait, reporting whether the store handled it.
// A false return leaves dst untouched; the caller gathers boxed via
// GatherVertexProp instead (which also carries the no-property-trait error
// semantics).
func GatherVertexPropCol(g Graph, vs []graph.VID, prop string, dst *column.Column) bool {
	bpc, ok := AsBatchPropsCol(g)
	if !ok {
		return false
	}
	return bpc.GatherVertexPropCol(vs, prop, dst)
}

// GatherEdgePropCol is GatherVertexPropCol for edge columns.
func GatherEdgePropCol(g Graph, es []graph.EID, prop string, dst *column.Column) bool {
	bpc, ok := AsBatchPropsCol(g)
	if !ok {
		return false
	}
	return bpc.GatherEdgePropCol(es, prop, dst)
}
