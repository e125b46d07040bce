package exec

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/expr"
	"repro/internal/storage/column"
)

// filterProgram is a compiled predicate in fused-filter form: a prefix of
// kernelizable conjuncts followed by the boxed residual for everything else.
// Each kernel step is a comparison against a constant whose input kind is
// known at compile time, run as a monomorphic selection kernel over a typed
// payload: the column itself, one property gathered from the column's
// vertex or edge elements, or id() of those elements (external vertex IDs
// from the store's Index trait, internal IDs without it — the values the
// boxed id() yields). The split is a strict prefix of the AND chain so the
// set of (row, conjunct) evaluations — and with it the first error and every
// store call — is exactly what the short-circuiting row-at-a-time evaluator
// performs; only the iteration order within a batch changes.
//
// In a fused expansion the leading pre steps (element steps on the vertex
// or edge the expansion produces) can run before any row is materialized:
// runPre evaluates them over the adjacency arena and drops the rejected
// slots, and run picks up the remaining steps and the residual on the
// emitted rows.
type filterProgram struct {
	steps    []filterStep
	residual *expr.Bound
	pre      int // leading steps runPre may evaluate (set by the expansion)
}

type filterStep struct {
	leaf     expr.SelLeaf
	conj     *expr.Bound // the whole conjunct, for the boxed per-row fallback
	colKind  graph.Kind  // kind of the kernel input (the column, its gathered property, or id())
	elemKind graph.Kind  // KindVertex/KindEdge for element steps (leaf.Prop != "" or leaf.ID)
}

// elemStep reports whether the step reads a property or id() of the
// column's elements rather than the column's own value.
func (st *filterStep) elemStep() bool { return st.leaf.ID || st.leaf.Prop != "" }

// compileFilter splits a bound predicate into kernel steps and residual.
// Compilation never fails — a conjunct that does not kernelize (unknown
// column kind, unsupported shape, kind-incompatible literal) ends the prefix
// and joins the residual. Parameter arguments are accepted optimistically;
// if the runtime value turns out kind-incompatible the step falls back to
// per-row evaluation of just that conjunct.
func (c *Compiled) compileFilter(pred *expr.Bound) *filterProgram {
	conjs := pred.Conjuncts()
	if len(conjs) == 0 {
		return nil
	}
	fp := &filterProgram{}
	i := 0
	for ; i < len(conjs); i++ {
		leaf, ok := conjs[i].SelLeaf()
		if !ok {
			break
		}
		st := filterStep{leaf: leaf, conj: conjs[i]}
		if st.colKind, st.elemKind = c.stepKinds(leaf); st.colKind == graph.KindNil {
			break
		}
		if lit, isLit := leaf.LitArg(); isLit {
			if _, ok := expr.CompileSelKernel(st.colKind, leaf.Op, lit); !ok {
				break
			}
		}
		fp.steps = append(fp.steps, st)
	}
	fp.residual = expr.AndChain(conjs[i:])
	return fp
}

// stepKinds resolves a leaf's kernel input kind and, for element steps, the
// element kind. colKind is KindNil when the leaf cannot take a kernel: the
// column's kind is unknown, or an element step's column holds no vertices or
// edges, or the property's kind is not fixed.
func (c *Compiled) stepKinds(leaf expr.SelLeaf) (colKind, elemKind graph.Kind) {
	k := c.kinds[leaf.Col]
	if !leaf.ID && leaf.Prop == "" {
		return k, graph.KindNil
	}
	if k != graph.KindVertex && k != graph.KindEdge {
		return graph.KindNil, graph.KindNil
	}
	if leaf.ID {
		return graph.KindInt, k
	}
	pk, ok := c.propKind(k, c.labels[leaf.Col], leaf.Prop)
	if !ok {
		return graph.KindNil, graph.KindNil
	}
	return pk, k
}

// markPre counts the program's leading element steps on the given columns
// (an expansion's new vertex and edge columns; -1 for none) as pre steps.
func (fp *filterProgram) markPre(vIdx, eIdx int) {
	if fp == nil {
		return
	}
	for fp.pre < len(fp.steps) {
		st := &fp.steps[fp.pre]
		if !st.elemStep() || (st.leaf.Col != vIdx && st.leaf.Col != eIdx) {
			return
		}
		fp.pre++
	}
}

// filterScratch holds the per-pass gather buffers; pooled because stage
// closures are shared across Gaia workers.
type filterScratch struct {
	vids []graph.VID
	eids []graph.EID
	idx  []int32       // kernel output over gathered scratch columns
	col  column.Column // gathered property values
	row  []graph.Value // boxed row bridge for per-row fallback
}

var filterPool = sync.Pool{New: func() any { return new(filterScratch) }}

// emptySel is the shared zero-length non-nil selection (no survivors).
// Appending to it always reallocates, so sharing is safe.
var emptySel = make([]int32, 0)

func putFilter(s *filterScratch) {
	// Clear the boxed row bridge so pooled scratch does not pin row values;
	// the gather column keeps its payload arrays (store-backed values,
	// bounded retention — same rationale as BatchPool.Put).
	for i := range s.row {
		s.row[i] = graph.Value{}
	}
	//lint:allow parallelsafety the boxed row bridge is cleared above; the gather column retains only store-backed payload arrays with bounded retention — same policy as BatchPool.Put
	filterPool.Put(s)
}

// run narrows b to the rows satisfying the program by installing a selection
// vector over its physical rows; no rows are copied. Rows [0, base) pass
// unconditionally — the expansion operators filter only the rows they just
// appended (base > 0 requires a dense batch). Candidate and survivor lists
// alternate between the batch's two selection buffers, so steady-state
// filtering allocates nothing.
//
// sid is the owning stage's plan index; when env.Obs is set the pass records
// which path each conjunct took (kernel vs boxed) and its selectivity under
// that stage. The counters depend only on batch content, and the morsel
// partition is driver-independent, so they merge to identical totals at any
// parallelism.
//
// pre resumes after runPre (the zero value when there was none): steps [0,
// pre.done) were already applied to the rows being filtered.
func (fp *filterProgram) run(env *Env, b *Batch, base int, sid int, pre prePass) error {
	if fp == nil {
		return nil
	}
	if base > 0 && b.sel != nil {
		panic("exec: filter base over a batch with a selection")
	}
	if base == 0 && b.Len() == 0 {
		return nil
	}
	if base > 0 && b.rows <= base {
		return nil
	}

	// cand is the current candidate list (physical rows, ascending); nil
	// means dense over all physical rows (only possible with base == 0).
	var cand []int32
	active := b.selIdx
	if b.sel != nil {
		cand = b.sel
	} else if base > 0 {
		sl := 0
		if active == 0 {
			sl = 1
		}
		out := b.selArr[sl][:0]
		for r := base; r < b.rows; r++ {
			out = append(out, int32(r))
		}
		b.selArr[sl] = out
		cand = out
		active = int8(sl)
	}
	takeSlot := func() int {
		if active == 0 {
			return 1
		}
		return 0
	}
	commit := func(out []int32, sl int) {
		if out == nil {
			// An empty survivor set must stay a non-nil selection — nil
			// means dense (every row passes).
			out = emptySel
		}
		b.selArr[sl] = out
		cand = out
		active = int8(sl)
	}
	candAt := func(j int32) int32 {
		if cand != nil {
			return cand[j]
		}
		return j
	}

	benv := env.boundEnv()
	var s *filterScratch
	defer func() {
		if s != nil {
			putFilter(s)
		}
	}()
	scratch := func() *filterScratch {
		if s == nil {
			s = filterPool.Get().(*filterScratch)
		}
		return s
	}

	// perRow evaluates one conjunct over the current candidates with the
	// boxed evaluator — the fallback for non-kernelizable steps and the
	// residual. It preserves the evaluator's ascending row order, so error
	// order and store-call counts match the row-at-a-time runtime.
	perRow := func(prog *expr.Bound) error {
		ss := scratch()
		if cap(ss.row) < b.Width() {
			ss.row = make([]graph.Value, b.Width())
		}
		row := ss.row[:b.Width()]
		sl := takeSlot()
		out := b.selArr[sl][:0]
		n := len(cand)
		if cand == nil {
			n = b.rows
		}
		for i := 0; i < n; i++ {
			p := i
			if cand != nil {
				p = int(cand[i])
			}
			for c := range b.cols {
				row[c] = b.cols[c].Value(p)
			}
			ok, err := prog.EvalBool(&benv, row)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, int32(p))
			}
		}
		commit(out, sl)
		return nil
	}

	obs := env.Obs
	var obsCand int
	if obs != nil {
		if base > 0 {
			obsCand = b.rows - base
		} else {
			obsCand = b.Len()
		}
		obsCand += pre.rejected
	}

	for i := pre.done; i < len(fp.steps); i++ {
		st := &fp.steps[i]
		// An empty candidate list short-circuits the rest of the chain —
		// including argument resolution, matching the row loop's
		// no-rows-no-error behavior.
		if cand != nil && len(cand) == 0 {
			break
		}
		handled := false
		// The step runPre stopped at already made its kernel attempt.
		if !pre.fellBack || i != pre.done {
			arg, err := st.leaf.ResolveArg(&benv)
			if err != nil {
				return err
			}
			vec := &b.cols[st.leaf.Col]
			if !st.elemStep() {
				// Kernel straight over the batch column.
				if t := vec.Typed(); t != nil {
					if kern, ok := expr.CompileSelKernel(t.Kind(), st.leaf.Op, arg); ok {
						sl := takeSlot()
						commit(kern(t, cand, b.selArr[sl][:0]), sl)
						handled = true
					}
				}
			} else if t := vec.Typed(); t != nil && t.Kind() == st.elemKind && !t.HasNulls() {
				// Stage the candidates' element IDs, kernel densely over
				// their gathered values, and map the surviving ordinals back
				// to physical rows.
				ss := scratch()
				m := len(cand)
				if cand == nil {
					m = b.rows
				}
				ints := t.RawInts()
				if st.elemKind == graph.KindVertex {
					ss.vids = growVIDs(ss.vids, m)
					for j := 0; j < m; j++ {
						ss.vids[j] = graph.VID(ints[candAt(int32(j))])
					}
				} else {
					ss.eids = growEIDs(ss.eids, m)
					for j := 0; j < m; j++ {
						ss.eids[j] = graph.EID(ints[candAt(int32(j))])
					}
				}
				if st.elemKernel(env, ss, arg, m) {
					sl := takeSlot()
					out := b.selArr[sl][:0]
					for _, j := range ss.idx {
						out = append(out, candAt(j))
					}
					commit(out, sl)
					handled = true
				}
			}
		}
		if obs != nil {
			obs.FilterStep(sid, handled)
		}
		if !handled {
			// Boxed fallback for just this conjunct: runtime conditions
			// (demoted column, store without the columnar gather trait,
			// parameter of an unexpected kind, or a kernel attempt runPre
			// already made) keep correctness on the per-row evaluator.
			if err := perRow(st.conj); err != nil {
				return err
			}
		}
	}

	if fp.residual != nil && (cand == nil || len(cand) > 0) {
		if obs != nil {
			obs.FilterStep(sid, false)
		}
		if err := perRow(fp.residual); err != nil {
			return err
		}
	}

	if obs != nil {
		surv := b.rows
		if cand != nil {
			surv = len(cand)
		}
		obs.FilterSel(sid, obsCand, surv)
	}

	if base > 0 {
		// Prepend the unconditionally-passing prefix rows.
		sl := takeSlot()
		out := b.selArr[sl][:0]
		for r := 0; r < base; r++ {
			out = append(out, int32(r))
		}
		out = append(out, cand...)
		commit(out, sl)
	}
	b.sel = cand
	b.selIdx = active
	return nil
}

// prePass is what runPre hands on to run: how many leading steps it
// applied, whether the next step already failed its kernel attempt (it then
// finishes per row, so no store call repeats), and how many candidates it
// rejected (FilterSel counts the whole pass).
type prePass struct {
	done     int
	fellBack bool
	rejected int
}

// elemKernel runs an element step over the m element IDs staged in
// ss.vids (vertex steps) or ss.eids (edge steps), leaving the surviving
// ordinals in ss.idx. id() steps fill an int scratch column exactly as the
// boxed id() does: the Index trait's external ID of each vertex (its
// internal ID when the store has none), the ID of each edge. Property steps
// gather through the typed-column trait, with one store call. It reports
// false when the step cannot take the kernel at run time (no typed gather,
// a gather kind mismatch, an argument of the wrong kind).
func (st *filterStep) elemKernel(env *Env, ss *filterScratch, arg graph.Value, m int) bool {
	if st.leaf.ID {
		kern, ok := expr.CompileSelKernel(graph.KindInt, st.leaf.Op, arg)
		if !ok {
			return false
		}
		ss.col.Reset(graph.KindInt)
		if st.elemKind == graph.KindEdge {
			for _, e := range ss.eids[:m] {
				ss.col.AppendInt(int64(e))
			}
		} else if idx, ok := grin.AsIndex(env.Graph); ok {
			for _, v := range ss.vids[:m] {
				ss.col.AppendInt(idx.ExternalID(v))
			}
		} else {
			for _, v := range ss.vids[:m] {
				ss.col.AppendInt(int64(v))
			}
		}
		ss.idx = kern(&ss.col, nil, ss.idx[:0])
		return true
	}
	ss.col.Reset(st.colKind)
	var gathered bool
	if st.elemKind == graph.KindVertex {
		gathered = grin.GatherVertexPropCol(env.Graph, ss.vids[:m], st.leaf.Prop, &ss.col)
	} else {
		gathered = grin.GatherEdgePropCol(env.Graph, ss.eids[:m], st.leaf.Prop, &ss.col)
	}
	if !gathered {
		return false
	}
	kern, ok := expr.CompileSelKernel(st.colKind, st.leaf.Op, arg)
	if !ok {
		return false
	}
	ss.idx = kern(&ss.col, nil, ss.idx[:0])
	return true
}

// runPre evaluates the program's pre steps over a fused expansion's
// candidate adjacency slots before any row is materialized, compacting
// x.ts/x.srcRows to the survivors in place (their order is kept). Each step
// stages the same element IDs, in the same order, that run would read from
// the emitted column, so store calls, the first error and the per-stage
// filter counters are unchanged. It stops at the first step that cannot
// take the kernel at run time; run finishes that step per row on the
// emitted rows. When no slot survives the whole pass is recorded here and
// the caller emits nothing. The expansion emits its new vertex and edge into
// typed columns without NULLs, the layout run's element steps require.
func (fp *filterProgram) runPre(env *Env, vIdx int, x *expandScratch, sid int) (prePass, error) {
	var pass prePass
	if fp == nil || fp.pre == 0 {
		return pass, nil
	}
	total := len(x.ts)
	benv := env.boundEnv()
	ss := filterPool.Get().(*filterScratch)
	defer putFilter(ss)
	for i := 0; i < fp.pre && len(x.ts) > 0; i++ {
		st := &fp.steps[i]
		arg, err := st.leaf.ResolveArg(&benv)
		if err != nil {
			return pass, err
		}
		if st.leaf.Col == vIdx {
			ss.vids = ss.vids[:0]
			for _, s := range x.ts {
				ss.vids = append(ss.vids, x.adj.Nbrs[s])
			}
		} else {
			ss.eids = ss.eids[:0]
			for _, s := range x.ts {
				ss.eids = append(ss.eids, x.adj.Edges[s])
			}
		}
		if !st.elemKernel(env, ss, arg, len(x.ts)) {
			pass.fellBack = true
			break
		}
		if env.Obs != nil {
			env.Obs.FilterStep(sid, true)
		}
		for n, j := range ss.idx {
			x.ts[n], x.srcRows[n] = x.ts[j], x.srcRows[j]
		}
		x.ts, x.srcRows = x.ts[:len(ss.idx)], x.srcRows[:len(ss.idx)]
		pass.done = i + 1
	}
	pass.rejected = total - len(x.ts)
	if len(x.ts) == 0 && env.Obs != nil {
		env.Obs.FilterSel(sid, total, 0)
	}
	return pass, nil
}
