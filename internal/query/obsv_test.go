// Observability integration tests: attaching stats + tracing to a query must
// never change its results (the parity rerun), the schedule-independent
// counters must merge identically at any parallelism (the deterministic-merge
// contract), and EXPLAIN ANALYZE must report per-stage rows consistent with
// the final cardinality (pinned by a golden rendering).
package query_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/gaia"
	"repro/internal/query/gremlin"
	"repro/internal/query/hiactor"
	"repro/internal/query/ir"
	"repro/internal/query/naive"
	"repro/internal/query/obsv"
	"repro/internal/storage/column"
	"repro/internal/storage/meter"
	"repro/internal/storage/vineyard"
)

// newObserved builds a collector with tracing enabled and, when metered, a
// metered view of the store feeding its Store section.
func newObserved(st grin.Graph, metered bool) (*obsv.QueryStats, grin.Graph) {
	obs := obsv.NewQueryStats()
	obs.Trace = obsv.NewTrace()
	if !metered {
		return obs, st
	}
	mg := meter.Wrap(st, nil)
	obs.Store = mg.Stats()
	return obs, mg
}

// TestObservedParityMatrix reruns the SNB and id() parity mixes with full
// observability attached — stats, tracing, and a metering store wrapper — and asserts every
// engine returns rows identical to its unobserved run. Collection must be
// purely passive, and metering must not change how the query runs: the
// per-stage deterministic counters (rows, batches, kernel-vs-boxed filter
// steps) of a metered run equal those of an observed run over the bare
// store. The leak check pins that observed runs also unwind clean.
func TestObservedParityMatrix(t *testing.T) {
	defer query.CheckLeaks(t)()
	for name, st := range snbBackends(t) {
		t.Run(name, func(t *testing.T) {
			runObservedMatrix(t, st, dataset.SNBSchema(), snbParityCases)
		})
	}
	for name, st := range idBackends(t) {
		t.Run("ids-"+name, func(t *testing.T) {
			runObservedMatrix(t, st, idSchema(), idParityCases)
		})
	}
}

// runObservedMatrix runs each case on every engine unobserved, observed over
// the bare store and observed over a metered view of it.
func runObservedMatrix(t *testing.T, st grin.Graph, schema *graph.Schema, cases []parityCase) {
	const bs = 16
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var plan *ir.Plan
			var err error
			if tc.lang == "gremlin" {
				plan, err = gremlin.Parse(tc.q, schema)
			} else {
				plan, err = cypher.Parse(tc.q, schema)
			}
			if err != nil {
				t.Fatal(err)
			}
			// check runs one engine unobserved, observed over the
			// bare store, and observed over a metered view.
			check := func(label string, run func(g grin.Graph, obs *obsv.QueryStats) ([]exec.Row, error)) {
				t.Helper()
				want, err := run(st, nil)
				if err != nil {
					t.Fatal(err)
				}
				bare, bst := newObserved(st, false)
				if _, err := run(bst, bare); err != nil {
					t.Fatal(err)
				}
				obs, mst := newObserved(st, true)
				got, err := run(mst, obs)
				if err != nil {
					t.Fatal(err)
				}
				mustExactEqual(t, label+" observed", renderRows(got), renderRows(want))
				assertCollected(t, obs, len(got))
				// A LIMIT short-circuit's rows-in depend on worker
				// scheduling even at parallelism 1, metered or not.
				if tc.name == "limit-short-circuit" {
					return
				}
				if m, b := obs.Deterministic(), bare.Deterministic(); !reflect.DeepEqual(m, b) {
					t.Errorf("%s: metering changed the run\nmetered: %+v\nbare:    %+v", label, m, b)
				}
			}

			check("naive", func(g grin.Graph, obs *obsv.QueryStats) ([]exec.Row, error) {
				rows, _, err := naive.RunWith(context.Background(), plan, g, tc.params, naive.Options{BatchSize: bs, Obs: obs})
				return rows, err
			})
			// gaia at serial and full parallelism.
			for _, par := range []int{1, runtime.NumCPU()} {
				check(fmt.Sprintf("gaia par=%d", par), func(g grin.Graph, obs *obsv.QueryStats) ([]exec.Row, error) {
					rows, _, err := gaia.NewEngine(g, gaia.Options{Parallelism: par, BatchSize: bs}).SubmitObserved(context.Background(), plan, tc.params, obs)
					return rows, err
				})
			}
			// hiactor through its actor pool.
			check("hiactor", func(g grin.Graph, obs *obsv.QueryStats) ([]exec.Row, error) {
				he := hiactor.NewEngine(func() grin.Graph { return g }, hiactor.Options{Shards: 2, BatchSize: bs})
				defer he.Close()
				rows, _, err := he.SubmitObserved(context.Background(), plan, tc.params, obs)
				return rows, err
			})
		})
	}
}

// assertCollected sanity-checks that an observed run actually collected data:
// the final stage produced the result cardinality, batches were counted, the
// metered store saw calls, and trace spans were recorded.
func assertCollected(t *testing.T, obs *obsv.QueryStats, rows int) {
	t.Helper()
	snap := obs.Snapshot()
	if len(snap.Stages) == 0 {
		t.Fatal("observed run bound no stages")
	}
	last := snap.Stages[len(snap.Stages)-1]
	if last.RowsOut != int64(rows) {
		t.Fatalf("final stage RowsOut = %d, want result cardinality %d", last.RowsOut, rows)
	}
	var batches int64
	for _, s := range snap.Stages {
		batches += s.Batches
	}
	if batches == 0 {
		t.Fatal("observed run counted no batches")
	}
	if snap.Store != nil {
		var calls int64
		for _, site := range snap.Store.Sites {
			calls += site.Calls
		}
		if calls == 0 {
			t.Fatal("metered store saw no trait calls")
		}
	}
	if obs.Trace != nil && len(obs.Trace.Events()) == 0 {
		t.Fatal("trace recorded no events")
	}
	if snap.BoxedResultRows != int64(rows) {
		t.Fatalf("BoxedResultRows = %d, want %d (one boxing per result row)", snap.BoxedResultRows, rows)
	}
}

// TestStatsDeterministicMerge pins the determinism contract of the stats
// layer itself: for a plan without a LIMIT short-circuit, the
// schedule-independent counters (rows, batches, filter paths, selectivity)
// are identical at parallelism 1 and NumCPU — morsel partition is
// driver-independent and every counter merges commutatively.
func TestStatsDeterministicMerge(t *testing.T) {
	defer query.CheckLeaks(t)()
	b := dataset.SNB(dataset.SNBOptions{Persons: 120, Seed: 9})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	schema := dataset.SNBSchema()
	queries := []string{
		`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN f.firstName`,
		`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(po:Post)
WHERE p.creationDate > 5 RETURN f.firstName, po.creationDate`,
	}
	for _, q := range queries {
		plan, err := cypher.Parse(q, schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{7, 1024} {
			var ref []obsv.StageSnapshot
			for _, par := range []int{1, runtime.NumCPU()} {
				obs := obsv.NewQueryStats()
				eng := gaia.NewEngine(st, gaia.Options{Parallelism: par, BatchSize: bs})
				if _, _, err := eng.SubmitObserved(context.Background(), plan, nil, obs); err != nil {
					t.Fatal(err)
				}
				det := obs.Deterministic()
				if ref == nil {
					ref = det
					continue
				}
				if !reflect.DeepEqual(det, ref) {
					t.Errorf("bs=%d par=%d: deterministic stats diverge\ngot:  %+v\nwant: %+v", bs, par, det, ref)
				}
			}
		}
	}
}

// TestExplainAnalyzeGolden pins the EXPLAIN ANALYZE rendering byte-for-byte
// on an SNB two-hop expand (wall times suppressed) and cross-checks the
// per-stage rows against the query's final cardinality.
func TestExplainAnalyzeGolden(t *testing.T) {
	b := dataset.SNB(dataset.SNBOptions{Persons: 120, Seed: 9})
	st, err := vineyard.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cypher.Parse(
		`MATCH (p:Person)-[:KNOWS]->(f:Person)-[:LIKES]->(po:Post) RETURN id(po)`,
		dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	eng := gaia.NewEngine(st, gaia.Options{Parallelism: 4})
	c, err := eng.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewQueryStats()
	rows, err := eng.RunCompiledObserved(context.Background(), c, nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	snaps := obs.StageSnapshots()
	if last := snaps[len(snaps)-1]; last.RowsOut != int64(len(rows)) {
		t.Fatalf("final stage RowsOut = %d, want %d result rows", last.RowsOut, len(rows))
	}
	got := c.Explain(obs).Render(false)
	want := goldenExplain
	if got != want {
		t.Errorf("EXPLAIN ANALYZE rendering drifted\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// goldenExplain is the pinned Render(false) output for the two-hop expand
// above at Persons=120/Seed=9: the dataset generator and morsel partition are
// deterministic, so these counters are stable across runs and parallelism.
const goldenExplain = `PROJECT [MAP width=1]
  rows: in=8692 out=8692  batches=2
  EXPAND_FUSED(f->p) [MAP width=3]
    rows: in=480 out=8692  batches=2
    EXPAND_FUSED(f->po) [MAP width=2]
      rows: in=120 out=480  batches=2
      SCAN(f) [SOURCE width=1]
        rows: in=0 out=120  batches=1
`

// TestIDFilterKernelCounters pins how the fused expansion reports a
// pushed id() filter that runs before materialization: the id() step takes
// the kernel on every backend (external IDs through the Index trait,
// internal IDs without it), the property step takes it where the store has
// the typed gather, a parameter of the wrong kind sends just its step to
// the per-row path, and the stage's selectivity counts every expanded edge
// as a candidate, the slots rejected before materialization included.
func TestIDFilterKernelCounters(t *testing.T) {
	const q = `MATCH (a:V)-[:E]->(m:V)-[:E]->(b:V)
WHERE id(a) = 19 AND id(b) < $hi AND b.score > 3 RETURN id(m), id(b)`
	plan, err := cypher.Parse(q, idSchema())
	if err != nil {
		t.Fatal(err)
	}
	// The unfiltered paths are the m->b expansion's candidates.
	paths, err := cypher.Parse(`MATCH (a:V)-[:E]->(m:V)-[:E]->(b:V) WHERE id(a) = 19 RETURN id(b)`, idSchema())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range idBackends(t) {
		t.Run(name, func(t *testing.T) {
			typedGather := grin.GatherVertexPropCol(st, []graph.VID{0}, "score", column.New(graph.KindInt))
			all, _, err := naive.Run(context.Background(), paths, st, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, hi := range []graph.Value{graph.IntValue(30), graph.FloatValue(30)} {
				params := map[string]graph.Value{"hi": hi}
				want, _, err := naive.Run(context.Background(), plan, st, params)
				if err != nil {
					t.Fatal(err)
				}
				obs := obsv.NewQueryStats()
				eng := gaia.NewEngine(st, gaia.Options{Parallelism: 1, BatchSize: 1024})
				got, _, err := eng.SubmitObserved(context.Background(), plan, params, obs)
				if err != nil {
					t.Fatal(err)
				}
				mustEqual(t, "gaia vs naive", canonical(got, nil, st), canonical(want, nil, st))
				stages := obs.Deterministic()
				var expand *obsv.StageSnapshot
				for i := range stages {
					if stages[i].Name == "EXPAND_FUSED(m->b)" {
						expand = &stages[i]
					}
				}
				if expand == nil {
					t.Fatalf("%v: plan has no EXPAND_FUSED(m->b) stage: %+v", hi, stages)
				}
				var kernel, boxed int64
				if hi.K == graph.KindInt {
					kernel++
				} else {
					boxed++
				}
				if typedGather {
					kernel++
				} else {
					boxed++
				}
				if expand.KernelSteps != kernel || expand.BoxedSteps != boxed {
					t.Errorf("hi=%v: kernel/boxed steps %d/%d, want %d/%d", hi, expand.KernelSteps, expand.BoxedSteps, kernel, boxed)
				}
				if expand.SelCandidates != int64(len(all)) {
					t.Errorf("hi=%v: filter candidates %d, want every expanded edge (%d)", hi, expand.SelCandidates, len(all))
				}
				if got := expand.SelSurvivors; got != int64(len(want)) || got == 0 {
					t.Errorf("hi=%v: filter survivors %d, want the %d result rows (non-zero)", hi, got, len(want))
				}
			}
		})
	}
}
