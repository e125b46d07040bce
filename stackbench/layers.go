package main

import (
	"math"

	"repro/internal/query/obsv"
)

// storeSites are the 15 GRIN call sites the meter counts, in obsv order.
var storeSites = func() []string {
	out := make([]string, obsv.NumStoreSites)
	for i := range out {
		out[i] = obsv.StoreSite(i).String()
	}
	return out
}()

// execAgg folds the obsv snapshots of many queries. Each client owns one,
// so adding takes no lock.
type execAgg struct {
	queries        int64
	kernel, boxed  int64
	selCand        int64
	selSurv        int64
	batches        int64
	rowsIn         int64
	results        int64
	boxedRows      int64
	morsels        int64
	busy, idle     int64
	poolHit, poolM int64
	// execUs and queueUs split each HiActor call into time inside the actor
	// (the envelope of the query's stage spans) and the rest of the call.
	execUs, queueUs []float64
}

func (a *execAgg) add(s *obsv.Snapshot) {
	a.queries++
	for _, st := range s.Stages {
		a.kernel += st.KernelSteps
		a.boxed += st.BoxedSteps
		a.selCand += st.SelCandidates
		a.selSurv += st.SelSurvivors
		a.batches += st.Batches
		a.rowsIn += st.RowsIn
	}
	if n := len(s.Stages); n > 0 {
		a.results += s.Stages[n-1].RowsOut
	}
	a.boxedRows += s.BoxedResultRows
	a.morsels += s.Engine.Morsels
	a.busy += s.Engine.BusyNanos
	a.idle += s.Engine.IdleNanos
	a.poolHit += s.PoolHits
	a.poolM += s.PoolMisses
}

// addCall records one observed HiActor call of callNanos wall time whose
// stage spans were traced into t.
func (a *execAgg) addCall(t *obsv.Trace, callNanos int64) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, e := range t.Events() {
		if e.Phase != "X" {
			continue
		}
		lo = min(lo, e.Start)
		hi = max(hi, e.Start+e.Dur)
	}
	if hi < lo {
		return
	}
	a.execUs = append(a.execUs, float64(hi-lo)/1e3)
	a.queueUs = append(a.queueUs, float64(callNanos-(hi-lo))/1e3)
}

func newAggs(n int) []*execAgg {
	out := make([]*execAgg, n)
	for i := range out {
		out[i] = &execAgg{}
	}
	return out
}

func mergeAggs(aggs []*execAgg) *execAgg {
	out := &execAgg{}
	for _, a := range aggs {
		out.merge(a)
	}
	return out
}

func (a *execAgg) merge(b *execAgg) {
	a.queries += b.queries
	a.kernel += b.kernel
	a.boxed += b.boxed
	a.selCand += b.selCand
	a.selSurv += b.selSurv
	a.batches += b.batches
	a.rowsIn += b.rowsIn
	a.results += b.results
	a.boxedRows += b.boxedRows
	a.morsels += b.morsels
	a.busy += b.busy
	a.idle += b.idle
	a.poolHit += b.poolHit
	a.poolM += b.poolM
	a.execUs = append(a.execUs, b.execUs...)
	a.queueUs = append(a.queueUs, b.queueUs...)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// fill writes the exec-layer metrics every query workload shares.
func (a *execAgg) fill(m map[string]float64) {
	m["exec.kernel_path_ratio"] = ratio(a.kernel, a.kernel+a.boxed)
	m["exec.rows_examined_per_result"] = ratio(a.rowsIn, max(a.results, 1))
	m["exec.sel_survival_ratio"] = ratio(a.selSurv, a.selCand)
	m["exec.batches_per_query"] = ratio(a.batches, a.queries)
	m["exec.boxed_rows_per_query"] = ratio(a.boxedRows, a.queries)
}

// spanMedianUs is the median duration in microseconds of the spans named
// name, or 0 when there are none.
func spanMedianUs(spans map[string]*spanStat, name string) float64 {
	if st := spans[name]; st != nil && len(st.durs) > 0 {
		return median(st.durs) / 1e3
	}
	return 0
}

func storeCounts(s *obsv.StoreStats) []int64 {
	out := make([]int64, obsv.NumStoreSites)
	for i := range out {
		out[i] = s.Calls(obsv.StoreSite(i))
	}
	return out
}
