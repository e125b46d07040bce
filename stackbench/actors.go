package main

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/hiactor"
	"repro/internal/query/obsv"
	"repro/internal/storage/gart"
	"repro/internal/storage/meter"
)

// actors is the part snb-interactive and fraud-check share: a GART store
// served to HiActor, with the store metered during the traced window.
type actors struct {
	gs *gart.Store
	he *hiactor.Engine

	metered *atomic.Bool
	store   *obsv.StoreStats
	aggs    []*execAgg
	before  struct {
		store []int64
		ver   uint64
		shed  int64
	}
}

// load fills a fresh GART store from b and starts HiActor over it.
func (a *actors) load(sb *spanBuf, schema *graph.Schema, b *graph.Batch, shards int) error {
	a.gs = gart.NewStore(schema, 0)
	if err := sb.with("gart.load", func() error { return a.gs.LoadBatch(b) }); err != nil {
		return err
	}
	a.metered, a.store = &atomic.Bool{}, &obsv.StoreStats{}
	gs, on, stats := a.gs, a.metered, a.store
	// HiActor reads the latest snapshot per call, wrapped by the metering
	// backend once on is set. GART has no column-gather trait, so the
	// wrapper does not change the execution path.
	provider := func() grin.Graph {
		if on.Load() {
			return meter.Wrap(gs.Latest(), stats)
		}
		return gs.Latest()
	}
	return sb.with("engine.build", func() error {
		a.he = hiactor.NewEngine(provider, hiactor.Options{Shards: shards})
		return nil
	})
}

// call runs one stored procedure as a read operation. Traced, it records
// the call's span, its stage counters and its execution/queue split.
func (a *actors) call(id int, rec *recorder, sb *spanBuf, typ, proc string, params map[string]graph.Value) {
	if sb == nil {
		rec.op(typ, false, func() error {
			_, err := a.he.Call(bg, proc, params)
			return err
		})
		return
	}
	obs := obsv.NewQueryStats()
	obs.Trace = obsv.NewTrace()
	sb.begin("hiactor.CallObserved", 0)
	rec.op(typ, false, func() error {
		_, err := a.he.CallObserved(bg, proc, params, obs)
		return err
	})
	callNs := sb.end()
	a.aggs[id].add(obs.Snapshot())
	a.aggs[id].addCall(obs.Trace, callNs)
}

// write runs one GART write operation inside a "gart.write" span.
func (a *actors) write(rec *recorder, sb *spanBuf, typ string, f func() error) {
	sb.begin("gart.write", 0)
	rec.op(typ, true, f)
	sb.end()
}

// startTrace takes the counter readings the traced window is measured
// against and switches the meter on.
func (a *actors) startTrace(clients int) {
	a.aggs = newAggs(clients)
	a.before.store = storeCounts(a.store)
	a.before.ver = a.gs.ReadVersion()
	a.before.shed = a.he.Metrics().Shed
	a.metered.Store(true)
}

// layers fills the exec, HiActor and GART metrics of the traced window.
// Store counters are per process, so only their difference over the
// window is attributed to its operations.
func (a *actors) layers(m map[string]float64, spans map[string]*spanStat) error {
	a.metered.Store(false)
	agg := mergeAggs(a.aggs)
	agg.fill(m)
	if len(agg.execUs) > 0 {
		m["hiactor.exec_us"] = median(agg.execUs)
		m["hiactor.queue_us"] = median(agg.queueUs)
	}
	met := a.he.Metrics()
	m["hiactor.mailbox_max_depth"] = float64(met.MaxDepth)
	m["hiactor.shed"] = float64(met.Shed - a.before.shed)
	after := storeCounts(a.store)
	for i, s := range storeSites {
		m["gart.calls_per_op."+s] = ratio(after[i]-a.before.store[i], max(agg.queries, 1))
	}
	if st := spans["gart.write"]; st != nil {
		m["gart.write_p50_us"] = quantile(st.durs, 0.5) / 1e3
		m["gart.write_p99_us"] = quantile(st.durs, 0.99) / 1e3
	}
	m["gart.commits"] = float64(a.gs.ReadVersion() - a.before.ver)
	return nil
}

func (a *actors) close() {
	if a.he != nil {
		a.he.Close()
	}
}
