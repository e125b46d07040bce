// Typed expression kernels: when a predicate conjunct is a single
// column-vs-constant comparison and the column's kind is known at compile
// time, the boxed tree walk collapses into a monomorphic loop over the raw
// []int64/[]float64/[]string payload, producing a selection vector. The
// kernels reproduce graph.Value.Compare/Equal semantics exactly for the
// same-kind cases they handle (NULL sorts first, NaN sorts last and equals
// only NaN); every shape they do not handle stays on the boxed evaluator, so
// kernels change speed, never results.
package expr

import (
	"repro/internal/graph"
	"repro/internal/storage/column"
)

// Conjuncts splits a program's top-level AND chain into its conjuncts in
// evaluation (left-to-right) order. A non-AND program is its own single
// conjunct; a nil program has none.
func (p *Bound) Conjuncts() []*Bound {
	if p == nil {
		return nil
	}
	if p.kind == KindBinary && p.op == OpAnd {
		return append(p.left.Conjuncts(), p.right.Conjuncts()...)
	}
	return []*Bound{p}
}

// AndChain rebuilds a left-associated AND chain from conjuncts — the inverse
// of Conjuncts, with identical short-circuit evaluation order. An empty
// slice is the nil (always-true) program.
func AndChain(conjuncts []*Bound) *Bound {
	if len(conjuncts) == 0 {
		return nil
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = &Bound{kind: KindBinary, op: OpAnd, left: out, right: c}
	}
	return out
}

// SelLeaf is a kernelizable predicate conjunct in normal form: column
// (optionally through a property gather or id()) OP constant argument.
// Leaves with a literal-on-the-left source shape are mirrored into this form
// at detection time (20 < x becomes x > 20 — Compare is antisymmetric, so
// mirroring is exact, NULLs and NaNs included).
type SelLeaf struct {
	Col  int    // row column holding the element or value
	Prop string // property to gather from the column's element ("" = the column itself)
	// ID marks an id(alias) leaf: the compared value is the int id() yields
	// for the column's element — the store's external ID of a vertex (its
	// internal ID when the store has no Index trait), the ID of an edge.
	ID  bool
	Op  Op     // OpEq..OpGe or OpIn
	Arg *Bound // kindLiteral or kindParam argument
}

// selOperand reports whether the node is a kernelizable leaf operand: a
// bound alias(.prop) reference, or id() of a bare alias.
func selOperand(p *Bound) (SelLeaf, bool) {
	if p == nil {
		return SelLeaf{}, false
	}
	switch p.kind {
	case KindVar:
		return SelLeaf{Col: p.ref.Col, Prop: p.ref.Prop}, true
	case KindCall:
		if p.fn == "id" && len(p.args) == 1 && p.args[0].kind == KindVar && p.args[0].ref.Prop == "" {
			return SelLeaf{Col: p.args[0].ref.Col, ID: true}, true
		}
	}
	return SelLeaf{}, false
}

// mirrorOp swaps a comparison's sides: arg OP x == x mirrorOp(OP) arg.
func mirrorOp(op Op) (Op, bool) {
	switch op {
	case OpEq, OpNe:
		return op, true
	case OpLt:
		return OpGt, true
	case OpLe:
		return OpGe, true
	case OpGt:
		return OpLt, true
	case OpGe:
		return OpLe, true
	}
	return op, false
}

// constArg reports whether the node is a bind-time constant argument a
// kernel can resolve once per batch (literal, or parameter looked up in the
// environment).
func constArg(p *Bound) bool {
	return p != nil && (p.kind == KindLiteral || p.kind == KindParam)
}

// SelLeaf reports whether the conjunct has the kernelizable
// column-vs-constant shape (the column possibly under id()), returning it in
// normal form. IN-lists qualify only with a constant list argument
// (all-literal lists fold to one literal at bind time).
func (p *Bound) SelLeaf() (SelLeaf, bool) {
	if p == nil || p.kind != KindBinary {
		return SelLeaf{}, false
	}
	op := p.op
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpIn:
	default:
		return SelLeaf{}, false
	}
	if l, ok := selOperand(p.left); ok && constArg(p.right) {
		l.Op, l.Arg = op, p.right
		return l, true
	}
	// Mirrored shape: constant OP operand (IN cannot mirror — the list is
	// the right operand by construction).
	if l, ok := selOperand(p.right); ok && op != OpIn && constArg(p.left) {
		m, ok := mirrorOp(op)
		if !ok {
			return SelLeaf{}, false
		}
		l.Op, l.Arg = m, p.left
		return l, true
	}
	return SelLeaf{}, false
}

// ResolveArg resolves the leaf's constant argument once per batch: literals
// are free, parameters come from the environment (unbound parameters error
// exactly as the per-row evaluator would on the first row).
func (l SelLeaf) ResolveArg(env *BoundEnv) (graph.Value, error) {
	return l.Arg.Eval(env, nil)
}

// LitArg returns the leaf's argument when it is a bind-time literal (ok is
// false for parameters, which resolve per execution) — the compile-time
// kernel feasibility probe.
func (l SelLeaf) LitArg() (graph.Value, bool) {
	if l.Arg != nil && l.Arg.kind == KindLiteral {
		return l.Arg.val, true
	}
	return graph.Value{}, false
}

// SelKernel filters a column: it appends to out the physical rows of col
// (all rows when rows is nil, otherwise the given candidates, in order)
// whose value satisfies the compiled predicate, and returns out.
type SelKernel func(col *column.Column, rows []int32, out []int32) []int32

// kernelLoop lifts a physical-row predicate into a SelKernel.
func kernelLoop(pass func(c *column.Column, r int) bool) SelKernel {
	return func(col *column.Column, rows []int32, out []int32) []int32 {
		if rows == nil {
			n := col.Len()
			for r := 0; r < n; r++ {
				if pass(col, r) {
					out = append(out, int32(r))
				}
			}
			return out
		}
		for _, r := range rows {
			if pass(col, int(r)) {
				out = append(out, r)
			}
		}
		return out
	}
}

// cmpFloats replicates graph.Value.Compare's same-kind float ordering: NaN
// sorts last and equals only NaN.
func cmpFloats(a, b float64) int {
	aNaN, bNaN := a != a, b != b
	switch {
	case aNaN || bNaN:
		switch {
		case aNaN && bNaN:
			return 0
		case aNaN:
			return 1
		}
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpPass turns a three-way comparison result into the operator's verdict.
func cmpPass(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// CompileSelKernel builds a monomorphic selection kernel for `value OP arg`
// over a column of the given kind, or reports that the shape is not
// kernelizable (cross-kind comparison, NULL argument, unsupported operator)
// and the boxed per-row evaluator must run instead. NULL rows in the column
// are decided once up front via the boxed evaluator (NULL sorts before every
// value, and NULL IN list matches a NULL list element), so the hot loop
// handles them with one bitmap test.
func CompileSelKernel(kind graph.Kind, op Op, arg graph.Value) (SelKernel, bool) {
	if arg.IsNull() {
		return nil, false
	}
	if op == OpIn {
		return compileInKernel(kind, arg)
	}
	// The verdict for NULL rows under this operator, from the exact boxed
	// semantics (comparisons never error).
	nv, err := applyBinary(op, graph.NullValue, arg)
	if err != nil {
		return nil, false
	}
	nullPass := nv.Bool()
	switch kind {
	case graph.KindInt:
		if arg.K != graph.KindInt {
			return nil, false
		}
		a := arg.I
		return kernelLoop(func(c *column.Column, r int) bool {
			if c.NullAt(r) {
				return nullPass
			}
			v := c.RawInts()[r]
			switch op {
			case OpEq:
				return v == a
			case OpNe:
				return v != a
			case OpLt:
				return v < a
			case OpLe:
				return v <= a
			case OpGt:
				return v > a
			}
			return v >= a
		}), true
	case graph.KindFloat:
		if arg.K != graph.KindFloat {
			return nil, false
		}
		a := arg.F
		return kernelLoop(func(c *column.Column, r int) bool {
			if c.NullAt(r) {
				return nullPass
			}
			return cmpPass(op, cmpFloats(c.Floats()[r], a))
		}), true
	case graph.KindString:
		if arg.K != graph.KindString {
			return nil, false
		}
		a := arg.S
		return kernelLoop(func(c *column.Column, r int) bool {
			if c.NullAt(r) {
				return nullPass
			}
			v := c.Strings()[r]
			switch op {
			case OpEq:
				return v == a
			case OpNe:
				return v != a
			case OpLt:
				return v < a
			case OpLe:
				return v <= a
			case OpGt:
				return v > a
			}
			return v >= a
		}), true
	case graph.KindBool:
		if arg.K != graph.KindBool || (op != OpEq && op != OpNe) {
			return nil, false
		}
		want := arg.I != 0
		eq := op == OpEq
		return kernelLoop(func(c *column.Column, r int) bool {
			if c.NullAt(r) {
				return nullPass
			}
			return (c.Bools()[r] == want) == eq
		}), true
	}
	return nil, false
}

// compileInKernel builds a set-membership kernel for `value IN list` when
// the column kind and every list element share one kind (int or string).
// Mixed or non-matching lists stay boxed — Equal across kinds has its own
// rules (int/float compare numerically) the set probe cannot express.
func compileInKernel(kind graph.Kind, arg graph.Value) (SelKernel, bool) {
	if arg.K != graph.KindList {
		return nil, false
	}
	// NULL IN list is true iff the list holds a NULL element.
	nullPass := false
	for _, it := range arg.Lst {
		if it.IsNull() {
			nullPass = true
		}
	}
	switch kind {
	case graph.KindInt:
		set := make(map[int64]struct{}, len(arg.Lst))
		for _, it := range arg.Lst {
			if it.IsNull() {
				continue
			}
			if it.K != graph.KindInt {
				return nil, false
			}
			set[it.I] = struct{}{}
		}
		return kernelLoop(func(c *column.Column, r int) bool {
			if c.NullAt(r) {
				return nullPass
			}
			_, ok := set[c.RawInts()[r]]
			return ok
		}), true
	case graph.KindString:
		set := make(map[string]struct{}, len(arg.Lst))
		for _, it := range arg.Lst {
			if it.IsNull() {
				continue
			}
			if it.K != graph.KindString {
				return nil, false
			}
			set[it.S] = struct{}{}
		}
		return kernelLoop(func(c *column.Column, r int) bool {
			if c.NullAt(r) {
				return nullPass
			}
			_, ok := set[c.Strings()[r]]
			return ok
		}), true
	}
	return nil, false
}

// MapLeaf is a kernelizable projection expression in normal form: column
// value OP constant argument, producing one output value per input row.
type MapLeaf struct {
	Col     int
	Prop    string
	Op      Op
	Arg     *Bound
	ArgLeft bool // the constant is the left operand (arg OP value)
}

// MapLeaf reports whether the program is a kernelizable arithmetic
// projection over one column.
func (p *Bound) MapLeaf() (MapLeaf, bool) {
	if p == nil || p.kind != KindBinary {
		return MapLeaf{}, false
	}
	switch p.op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
	default:
		return MapLeaf{}, false
	}
	if p.left != nil && p.left.kind == KindVar && constArg(p.right) {
		return MapLeaf{Col: p.left.ref.Col, Prop: p.left.ref.Prop, Op: p.op, Arg: p.right}, true
	}
	if p.right != nil && p.right.kind == KindVar && constArg(p.left) {
		return MapLeaf{Col: p.right.ref.Col, Prop: p.right.ref.Prop, Op: p.op, Arg: p.left, ArgLeft: true}, true
	}
	return MapLeaf{}, false
}

// ResolveArg resolves the map leaf's constant argument once per batch.
func (l MapLeaf) ResolveArg(env *BoundEnv) (graph.Value, error) {
	return l.Arg.Eval(env, nil)
}

// MapKernel appends f(value) for each physical row of col (all rows when
// rows is nil, otherwise the given candidates, in order) to dst.
type MapKernel func(col *column.Column, rows []int32, dst *column.Column)

// CompileMapKernel builds a monomorphic int arithmetic kernel for the leaf
// over an int column with no NULL rows, writing an int column. NULL rows
// disqualify the column because boxed arithmetic routes NULL operands
// through the float path (NULL + 5 is 5.0, not NULL), which would mix kinds
// in the output; erroring constants (division by zero) stay boxed so the
// per-row error order is preserved.
func CompileMapKernel(kind graph.Kind, l MapLeaf, arg graph.Value) (MapKernel, bool) {
	if kind != graph.KindInt || arg.K != graph.KindInt {
		return nil, false
	}
	if (l.Op == OpDiv || l.Op == OpMod) && (l.ArgLeft || arg.I == 0) {
		// value/0 errors per row; arg/value divides by row values the
		// kernel cannot pre-check.
		return nil, false
	}
	a := arg.I
	apply := func(v int64) int64 {
		switch l.Op {
		case OpAdd:
			return v + a
		case OpSub:
			if l.ArgLeft {
				return a - v
			}
			return v - a
		case OpMul:
			return v * a
		case OpDiv:
			return v / a
		}
		return v % a
	}
	return func(col *column.Column, rows []int32, dst *column.Column) {
		ints := col.RawInts()
		if rows == nil {
			for _, v := range ints {
				dst.AppendInt(apply(v))
			}
			return
		}
		for _, r := range rows {
			dst.AppendInt(apply(ints[r]))
		}
	}, true
}
