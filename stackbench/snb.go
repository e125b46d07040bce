package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/query/optimizer"
	"repro/internal/query/procedures"
	"repro/internal/storage/vineyard"
)

// bg is the context of every request: no deadline, as no caller gives up.
var bg = context.Background()

// Salts keep the random streams of the gate and of each client apart.
const (
	gateSalt   = 0x6a09e667
	clientSalt = 0x3c6ef372
	updateSalt = 0x510e527f
)

func clientRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + clientSalt + int64(id)))
}

// snbPersons is the SNB scale: 3000 persons (27k vertices, 168k edges).
func (o *options) snbPersons() int {
	if o.tiny {
		return 200
	}
	return 3000
}

// queryOracle answers a query independently of the engine under test: the
// naive interpreter (logical plan in written order, no optimizer) when it
// finishes within budget, otherwise Gaia at parallelism 1. Both read the
// same pinned snapshot as the engine.
type queryOracle struct {
	g      grin.Graph
	budget time.Duration
	slow   map[string]bool
	par1   *gaia.Engine
}

func newQueryOracle(g grin.Graph) *queryOracle {
	return &queryOracle{g: g, budget: 100 * time.Millisecond, slow: map[string]bool{}}
}

func (q *queryOracle) rows(name string, plan *ir.Plan, params map[string]graph.Value) ([]exec.Row, error) {
	if !q.slow[name] {
		ctx, cancel := context.WithTimeout(bg, q.budget)
		rows, _, err := naive.Run(ctx, plan, q.g, params)
		cancel()
		if !errors.Is(err, exec.ErrDeadlineExceeded) {
			return rows, err
		}
		q.slow[name] = true
	}
	if q.par1 == nil {
		q.par1 = gaia.NewEngine(q.g, gaia.Options{Parallelism: 1})
	}
	rows, _, err := q.par1.Submit(bg, plan, params)
	return rows, err
}

// gate compares engine results with the oracle's. A failed check or an
// engine or oracle error counts as one failure; the gate keeps going so the
// report shows how many checks failed.
type gate struct {
	corrupt bool
	checks  int
	failed  int
	first   error
	digests []uint64
}

// check compares one result with the oracle's and returns the oracle
// digest, perturbed when the run corrupts its first oracle result.
func (g *gate) check(name string, got []exec.Row, gotErr error, want []exec.Row, wantErr error) uint64 {
	g.checks++
	var w uint64
	var err error
	switch {
	case gotErr != nil:
		err = fmt.Errorf("%s: %w", name, gotErr)
	case wantErr != nil:
		err = fmt.Errorf("%s oracle: %w", name, wantErr)
	default:
		w = rowsDigest(want)
		if g.corrupt && g.checks == 1 {
			w ^= 1
		}
		if d := rowsDigest(got); d != w {
			err = fmt.Errorf("%s: engine returned %d rows (digest %016x), oracle %d rows (digest %016x)",
				name, len(got), d, len(want), w)
		}
	}
	g.digests = append(g.digests, w)
	if err != nil {
		g.failed++
		if g.first == nil {
			g.first = err
		}
	}
	return w
}

func (g *gate) result() gateResult {
	return gateResult{checks: g.checks, failed: g.failed, digest: digestOf(g.digests), first: g.first}
}

// ---- snb-interactive ----

// interactive drives HiActor stored procedures over a GART store: nine in
// ten operations are a read procedure (C1–C14, S1–S7), one in ten an
// update (U1–U8) on the same store.
type interactive struct {
	actors
	o  *options
	sc procedures.Scale

	reads []procedures.Query
	plans map[string]*ir.Plan
	upds  []procedures.Update
	ids   *procedures.IDAllocator
}

func (w *interactive) clients() int { return w.o.procs }

func (w *interactive) setup(sb *spanBuf) error {
	persons := w.o.snbPersons()
	w.sc = procedures.ScaleOf(persons)
	schema := dataset.SNBSchema()
	var b *graph.Batch
	sb.with("dataset.generate", func() error {
		b = dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: w.o.seed})
		return nil
	})
	if err := w.load(sb, schema, b, w.o.procs); err != nil {
		return err
	}
	w.reads = append(procedures.Interactive(), procedures.Short()...)
	w.upds = procedures.Updates()
	w.plans = map[string]*ir.Plan{}
	w.ids = procedures.NewIDAllocator(w.sc)
	return sb.with("hiactor.install", func() error {
		for _, q := range w.reads {
			plan, err := cypher.Parse(q.Cypher, schema)
			if err != nil {
				return fmt.Errorf("%s: %w", q.Name, err)
			}
			if err := w.he.Install(q.Name, plan); err != nil {
				return fmt.Errorf("%s: %w", q.Name, err)
			}
			w.plans[q.Name] = plan
		}
		return nil
	})
}

// verify checks three bindings of every read procedure before any update
// runs, so engine and oracle read the same snapshot.
func (w *interactive) verify() gateResult {
	or := newQueryOracle(w.gs.Latest())
	g := &gate{corrupt: w.o.corrupt}
	r := rand.New(rand.NewSource(w.o.seed + gateSalt))
	for _, q := range w.reads {
		for k := 0; k < 3; k++ {
			params := q.Params(r, w.sc)
			got, gotErr := w.he.Call(bg, q.Name, params)
			want, wantErr := or.rows(q.Name, w.plans[q.Name], params)
			g.check(q.Name, got, gotErr, want, wantErr)
		}
	}
	return g.result()
}

// interactiveOp is one operation of a client's stream: an update, or a
// read procedure with its binding.
type interactiveOp struct {
	upd    *procedures.Update
	read   *procedures.Query
	params map[string]graph.Value
}

// nextOp draws the next operation from a client's seeded stream. The
// update's own arguments come from a separate stream, so the operation
// sequence depends on the seed alone.
func (w *interactive) nextOp(r *rand.Rand) interactiveOp {
	if r.Intn(10) == 0 {
		return interactiveOp{upd: &w.upds[r.Intn(len(w.upds))]}
	}
	q := &w.reads[r.Intn(len(w.reads))]
	return interactiveOp{read: q, params: q.Params(r, w.sc)}
}

func (w *interactive) client(id int, deadline time.Time, rec *recorder, sb *spanBuf, tr *tracer) {
	r := clientRand(w.o.seed, id)
	ru := rand.New(rand.NewSource(w.o.seed*1_000_003 + updateSalt + int64(id)))
	for time.Now().Before(deadline) {
		op := w.nextOp(r)
		if u := op.upd; u != nil {
			sb.begin(u.Name, tr.request())
			w.write(rec, sb, u.Name, func() error { return u.Apply(w.gs, ru, w.sc, w.ids) })
			sb.end()
			continue
		}
		q := op.read
		sb.begin(q.Name, tr.request())
		w.call(id, rec, sb, q.Name, q.Name, op.params)
		sb.end()
	}
}

func (w *interactive) traceOn() { w.startTrace(w.clients()) }

func (w *interactive) opsDigest() uint64 {
	return streamDigest(w.clients(), func(id int) func() string {
		r := clientRand(w.o.seed, id)
		return func() string {
			op := w.nextOp(r)
			if op.upd != nil {
				return op.upd.Name
			}
			return op.read.Name + " " + paramsKey(op.params)
		}
	})
}

// ---- snb-bi ----

// biBindings is the number of parameter bindings per BI query; each is
// checked against the oracle in the gate and every timed result is
// compared with the oracle's answer for its binding.
const biBindings = 4

// bi sends BI1–BI20 round-robin as query text to Gaia over vineyard: every
// request pays parse, optimize and compile.
type bi struct {
	o      *options
	sc     procedures.Scale
	schema *graph.Schema
	vs     *vineyard.Store
	ge     *gaia.Engine

	queries []procedures.Query
	pool    [][]map[string]graph.Value
	want    [][]uint64
	aggs    []*execAgg
}

func (w *bi) clients() int { return 1 }

func (w *bi) setup(sb *spanBuf) error {
	persons := w.o.snbPersons()
	w.sc = procedures.ScaleOf(persons)
	w.schema = dataset.SNBSchema()
	var b *graph.Batch
	sb.with("dataset.generate", func() error {
		b = dataset.SNB(dataset.SNBOptions{Persons: persons, Seed: w.o.seed})
		return nil
	})
	if err := sb.with("vineyard.load", func() error {
		var err error
		w.vs, err = vineyard.Load(b)
		return err
	}); err != nil {
		return err
	}
	sb.with("engine.build", func() error {
		w.ge = gaia.NewEngine(w.vs, gaia.Options{Parallelism: w.o.procs})
		return nil
	})
	w.queries = procedures.BI()
	return nil
}

func (w *bi) verify() gateResult {
	or := newQueryOracle(w.vs)
	g := &gate{corrupt: w.o.corrupt}
	r := rand.New(rand.NewSource(w.o.seed + gateSalt))
	w.pool = make([][]map[string]graph.Value, len(w.queries))
	w.want = make([][]uint64, len(w.queries))
	for i, q := range w.queries {
		plan, perr := cypher.Parse(q.Cypher, w.schema)
		for k := 0; k < biBindings; k++ {
			params := q.Params(r, w.sc)
			var got, want []exec.Row
			gotErr, wantErr := perr, perr
			if perr == nil {
				got, _, gotErr = w.ge.Submit(bg, plan, params)
				want, wantErr = or.rows(q.Name, plan, params)
			}
			w.pool[i] = append(w.pool[i], params)
			w.want[i] = append(w.want[i], g.check(q.Name, got, gotErr, want, wantErr))
		}
	}
	return g.result()
}

func (w *bi) client(id int, deadline time.Time, rec *recorder, sb *spanBuf, tr *tracer) {
	r := clientRand(w.o.seed, id)
	var agg *execAgg
	if sb != nil {
		agg = w.aggs[id]
	}
	for i := 0; time.Now().Before(deadline); i++ {
		qi, k := w.nextOp(r, i)
		q := w.queries[qi]
		params := w.pool[qi][k]
		var rows []exec.Row
		var err error
		if sb == nil {
			err = rec.op(q.Name, false, func() error {
				plan, err := cypher.Parse(q.Cypher, w.schema)
				if err != nil {
					return err
				}
				rows, _, err = w.ge.Submit(bg, plan, params)
				return err
			})
		} else {
			obs := obsv.NewQueryStats()
			sb.begin(q.Name, tr.request())
			err = rec.op(q.Name, false, func() error {
				rows, err = w.tracedSubmit(sb, q.Cypher, params, obs)
				return err
			})
			agg.add(obs.Snapshot())
			sb.end()
		}
		if err == nil && rowsDigest(rows) != w.want[qi][k] {
			rec.mismatch(fmt.Errorf("%s binding %d: result differs from the oracle", q.Name, k))
		}
	}
}

// nextOp returns the i-th operation of a client's stream: the query, in
// round-robin order, and the index of its binding, drawn from the seed.
func (w *bi) nextOp(r *rand.Rand, i int) (qi, k int) {
	return i % len(w.queries), r.Intn(biBindings)
}

// tracedSubmit is Submit split at its layer boundaries, one span each.
func (w *bi) tracedSubmit(sb *spanBuf, text string, params map[string]graph.Value, obs *obsv.QueryStats) ([]exec.Row, error) {
	var plan, phys *ir.Plan
	var c *exec.Compiled
	var rows []exec.Row
	steps := []struct {
		name string
		f    func() error
	}{
		{"cypher.Parse", func() (err error) { plan, err = cypher.Parse(text, w.schema); return }},
		{"optimizer.Optimize", func() (err error) { phys, err = optimizer.Optimize(plan, w.ge.Catalog(), optimizer.All()); return }},
		{"exec.Compile", func() (err error) { c, err = exec.Compile(phys, exec.Options{Schema: w.vs.Schema()}); return }},
		{"gaia.RunCompiledObserved", func() (err error) { rows, err = w.ge.RunCompiledObserved(bg, c, params, obs); return }},
	}
	for _, s := range steps {
		if err := sb.with(s.name, s.f); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func (w *bi) traceOn() { w.aggs = newAggs(w.clients()) }

func (w *bi) layers(m map[string]float64, spans map[string]*spanStat) error {
	agg := mergeAggs(w.aggs)
	agg.fill(m)
	m["cypher.parse_us"] = spanMedianUs(spans, "cypher.Parse")
	m["optimizer.optimize_us"] = spanMedianUs(spans, "optimizer.Optimize")
	m["exec.compile_us"] = spanMedianUs(spans, "exec.Compile")
	m["gaia.run_us"] = spanMedianUs(spans, "gaia.RunCompiledObserved")
	m["gaia.worker_busy_ratio"] = ratio(agg.busy, agg.busy+agg.idle)
	m["gaia.morsels_per_query"] = ratio(agg.morsels, agg.queries)
	m["gaia.pool_hit_ratio"] = ratio(agg.poolHit, agg.poolHit+agg.poolM)
	return nil
}

func (w *bi) opsDigest() uint64 {
	return streamDigest(w.clients(), func(id int) func() string {
		r := clientRand(w.o.seed, id)
		i := 0
		return func() string {
			qi, k := w.nextOp(r, i)
			i++
			return fmt.Sprintf("%s binding %d %s", w.queries[qi].Name, k, paramsKey(w.pool[qi][k]))
		}
	})
}

func (w *bi) close() {}
