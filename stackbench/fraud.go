package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/query/cypher"
	"repro/internal/query/ir"
)

// detectQuery is the real-time fraud check: direct and indirect
// co-purchases with the known-fraud seed accounts (ids below 15).
const detectQuery = `MATCH (v:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account)
WHERE id(v) = $acct AND id(s) < 15
WITH v, COUNT(s) AS cnt1
MATCH (v)-[:KNOWS]->(f:Account)-[:BUY]->(i2:Item)<-[:BUY]-(s2:Account)
WHERE id(s2) < 15
WITH v, cnt1, COUNT(s2) AS cnt2
WHERE cnt1 * 3 + cnt2 > 10
RETURN id(v)`

// fraudOrders bounds the seeded order stream. Clients take orders from it
// in sequence; past its end they start again from the first order, which
// then lands as a repeated purchase.
const fraudOrders = 1 << 16

// fraud ingests a seeded order stream into GART and runs the detect
// procedure on HiActor for each order's account.
type fraud struct {
	actors
	o      *options
	opt    dataset.FraudOptions
	orders []dataset.Order
	next   atomic.Int64
	// taken holds the first orders as the clients took them, by position
	// in the sequence, for the operation digest.
	taken []dataset.Order
	plan  *ir.Plan
}

func (w *fraud) clients() int { return w.o.procs }

func (w *fraud) setup(sb *spanBuf) error {
	w.opt = dataset.FraudOptions{Accounts: 1500, Items: 300, Seeds: 15, Seed: w.o.seed}
	if w.o.tiny {
		w.opt.Accounts, w.opt.Items = 200, 40
	}
	var base *graph.Batch
	sb.with("dataset.generate", func() error {
		base = dataset.FraudBase(w.opt)
		w.orders = dataset.FraudStream(w.opt, fraudOrders)
		return nil
	})
	w.next.Store(0)
	w.taken = make([]dataset.Order, digestOps)
	if err := w.load(sb, dataset.FraudSchema(), base, w.o.procs); err != nil {
		return err
	}
	return sb.with("hiactor.install", func() error {
		var err error
		if w.plan, err = cypher.Parse(detectQuery, dataset.FraudSchema()); err != nil {
			return err
		}
		return w.he.Install("detect", w.plan)
	})
}

// verify runs detect for 32 seeded accounts on the base graph, before any
// order is ingested, against the oracle on the same snapshot.
func (w *fraud) verify() gateResult {
	or := newQueryOracle(w.gs.Latest())
	g := &gate{corrupt: w.o.corrupt}
	r := rand.New(rand.NewSource(w.o.seed + gateSalt))
	for k := 0; k < 32; k++ {
		params := map[string]graph.Value{"acct": graph.IntValue(int64(r.Intn(w.opt.Accounts)))}
		got, gotErr := w.he.Call(bg, "detect", params)
		want, wantErr := or.rows("detect", w.plan, params)
		g.check("detect", got, gotErr, want, wantErr)
	}
	return g.result()
}

func (w *fraud) client(id int, deadline time.Time, rec *recorder, sb *spanBuf, tr *tracer) {
	for time.Now().Before(deadline) {
		i := int(w.next.Add(1) - 1)
		o := w.orders[i%len(w.orders)]
		if i < len(w.taken) {
			w.taken[i] = o
		}
		sb.begin("order", tr.request())
		w.write(rec, sb, "ingest", func() error {
			if err := w.gs.AddEdge(dataset.FraudBuy, o.Account, o.Item, graph.IntValue(o.Date)); err != nil {
				return err
			}
			w.gs.Commit()
			return nil
		})
		w.call(id, rec, sb, "detect", "detect", map[string]graph.Value{"acct": graph.IntValue(o.Account)})
		sb.end()
	}
}

func (w *fraud) traceOn() { w.startTrace(w.clients()) }

// opsDigest hashes the first orders the clients took, in sequence order;
// which client took which depends on scheduling, the sequence does not.
func (w *fraud) opsDigest() uint64 {
	return streamDigest(1, func(int) func() string {
		k := 0
		return func() string {
			o := w.taken[k]
			k++
			return fmt.Sprintf("%d %d %d", o.Account, o.Item, o.Date)
		}
	})
}
