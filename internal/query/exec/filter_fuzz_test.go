package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/storage/gart"
	"repro/internal/storage/meter"
)

// noIndexGraph masks the Index trait of a metered store, so id() reads
// internal vertex IDs as on a backend without an external-ID index.
type noIndexGraph struct{ *meter.Graph }

func (n noIndexGraph) HasTrait(t grin.Trait) bool {
	return t != grin.TraitIndex && n.Graph.HasTrait(t)
}

// idFuzzOps are the comparison operators an id() leaf kernelizes.
var idFuzzOps = []expr.Op{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe, expr.OpIn}

// idFuzzArg builds the comparison's argument from the fuzz inputs: int,
// float, string and NULL literals, int lists (with a NULL or a float element
// now and then), and parameters of the right and the wrong kind.
func idFuzzArg(r *rand.Rand, kind uint8, lit int64, in bool) (*expr.Expr, map[string]graph.Value) {
	switch kind % 7 {
	case 0:
		return expr.Literal(graph.IntValue(lit)), nil
	case 1:
		return expr.Literal(graph.FloatValue(float64(lit) + 0.5*float64(r.Intn(2)))), nil
	case 2:
		return expr.Literal(graph.StringValue(fmt.Sprint(lit))), nil
	case 3:
		return expr.Literal(graph.NullValue), nil
	case 4:
		items := make([]graph.Value, 1+r.Intn(4))
		for i := range items {
			switch r.Intn(8) {
			case 0:
				items[i] = graph.NullValue
			case 1:
				items[i] = graph.FloatValue(float64(lit + int64(i)))
			default:
				items[i] = graph.IntValue(lit + int64(r.Intn(9)) - 4)
			}
		}
		return expr.Literal(graph.ListValue(items)), nil
	case 5:
		v := graph.IntValue(lit)
		if in {
			v = graph.ListValue([]graph.Value{graph.IntValue(lit), graph.IntValue(lit + 1)})
		}
		return expr.Param("p"), map[string]graph.Value{"p": v}
	}
	return expr.Param("p"), map[string]graph.Value{"p": graph.StringValue("wrong")}
}

// FuzzIDSelKernel differentially checks id() filters: the fused filter
// program (the id() selection kernel where the runtime shape allows it, the
// per-row fallback where it does not) and the pre-materialization pass of a
// fused expansion must keep exactly the rows, and return exactly the error,
// that the boxed evaluator gives row by row. Columns hold vertices with
// random external IDs (NilVID and NULL rows included) or edges; the store is
// GART with and without its Index trait.
func FuzzIDSelKernel(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(2), uint8(0), int64(5), uint8(0))
	f.Add(int64(2), uint8(17), uint8(6), uint8(4), int64(3), uint8(1))
	f.Add(int64(3), uint8(9), uint8(4), uint8(5), int64(-2), uint8(2))
	f.Add(int64(4), uint8(33), uint8(0), uint8(6), int64(7), uint8(4))
	f.Add(int64(5), uint8(25), uint8(3), uint8(1), int64(11), uint8(8))
	f.Add(int64(6), uint8(12), uint8(1), uint8(3), int64(0), uint8(16))
	f.Add(int64(7), uint8(64), uint8(5), uint8(2), int64(19), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, opSel uint8, argKind uint8, lit int64, flags uint8) {
		r := rand.New(rand.NewSource(seed))
		mirrored := flags&1 != 0
		masked := flags&2 != 0
		nullRows := flags&4 != 0
		nilRows := flags&8 != 0
		edges := flags&16 != 0
		op := idFuzzOps[int(opSel)%len(idFuzzOps)]
		if op == expr.OpIn {
			mirrored = false
		}

		// A GART store whose external IDs are random, small and may be
		// negative, so literals hit, miss and tie.
		schema := graph.SimpleSchema(false)
		gs := gart.NewStore(schema, 0)
		nv := 1 + r.Intn(24)
		used := map[int64]bool{}
		for v := 0; v < nv; v++ {
			ext := int64(r.Intn(64)) - 16
			for used[ext] {
				ext++
			}
			used[ext] = true
			if err := gs.AddVertex(0, ext); err != nil {
				t.Fatal(err)
			}
		}
		gs.Commit()
		var g grin.Graph = meter.Wrap(gs.Latest(), nil)
		if masked {
			g = noIndexGraph{g.(*meter.Graph)}
		}

		kind := graph.KindVertex
		if edges {
			kind = graph.KindEdge
		}
		n := int(rows)
		vals := make([]graph.Value, n)
		for i := range vals {
			switch {
			case nullRows && r.Intn(5) == 0:
				vals[i] = graph.NullValue
			case nilRows && r.Intn(5) == 0 && !edges:
				vals[i] = graph.VertexValue(graph.NilVID)
			case edges:
				vals[i] = graph.EdgeValue(graph.EID(r.Intn(50)))
			default:
				vals[i] = graph.VertexValue(graph.VID(r.Intn(nv)))
			}
		}

		id := &expr.Expr{Kind: expr.KindCall, Fn: "id", Args: []*expr.Expr{expr.Var("x", "")}}
		arg, params := idFuzzArg(r, argKind, lit, op == expr.OpIn)
		pred := expr.Binary(op, id, arg)
		if mirrored {
			m, _ := map[expr.Op]expr.Op{expr.OpEq: expr.OpEq, expr.OpNe: expr.OpNe, expr.OpLt: expr.OpGt,
				expr.OpLe: expr.OpGe, expr.OpGt: expr.OpLt, expr.OpGe: expr.OpLe}[op]
			pred = expr.Binary(m, arg, id)
		}
		bound, err := bindExpr(Columns{"x": 0}, pred)
		if err != nil {
			t.Fatal(err)
		}
		c := &Compiled{Cols: Columns{"x": 0}, kinds: []graph.Kind{kind}, labels: []graph.LabelID{graph.AnyLabel}, schema: schema}
		fp := c.compileFilter(bound)
		env := &Env{Graph: g, Params: params}

		// The oracle: the boxed evaluator, row by row.
		benv := expr.BoundEnv{Graph: g, Params: params}
		var want []graph.Value
		var wantErr error
		for _, v := range vals {
			ok, err := bound.EvalBool(&benv, []graph.Value{v})
			if err != nil {
				wantErr = err
				break
			}
			if ok {
				want = append(want, v)
			}
		}
		check := func(path string, b *Batch, err error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %v: error %v, want %v", path, pred, err, wantErr)
			}
			if err != nil {
				return
			}
			var got []graph.Value
			for i := 0; i < b.Len(); i++ {
				got = append(got, b.Value(i, 0))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %v (masked=%v): kept %v, want %v", path, pred, masked, got, want)
			}
		}

		// The filter pass over a batch column.
		b := NewBatchKinds([]graph.Kind{kind}, 0)
		for _, v := range vals {
			b.cols[0].AppendValue(v)
		}
		b.rows = n
		check("filter", b, fp.run(env, b, 0, 0, prePass{}))

		// The fused expansion: the pre-materialization pass over the
		// adjacency arena, then the emitted survivors (an expansion never
		// yields NULL elements).
		if nullRows || fp == nil {
			return
		}
		vIdx, eIdx := 0, -1
		if edges {
			vIdx, eIdx = -1, 0
		}
		fp.markPre(vIdx, eIdx)
		x := &expandScratch{}
		for i, v := range vals {
			x.adj.Nbrs = append(x.adj.Nbrs, v.Vertex())
			x.adj.Edges = append(x.adj.Edges, v.Edge())
			x.ts = append(x.ts, int32(i))
			x.srcRows = append(x.srcRows, int32(i))
		}
		out := NewBatchKinds([]graph.Kind{kind}, 0)
		pass, err := fp.runPre(env, vIdx, x, 0)
		if err == nil && len(x.ts) > 0 {
			for _, ts := range x.ts {
				if edges {
					out.cols[0].appendEdge(x.adj.Edges[ts])
				} else {
					out.cols[0].appendVertex(x.adj.Nbrs[ts])
				}
			}
			out.rows = len(x.ts)
			err = fp.run(env, out, 0, 0, pass)
		}
		check("expand", out, err)
	})
}
