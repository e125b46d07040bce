// Package grape implements the high-performance analytical engine of §6: a
// fragment-centric distributed engine executing PIE-model programs (partial
// evaluation + incremental evaluation) over range-partitioned fragments.
//
// The paper's GRAPE runs fragments on cluster nodes over MPI; here each
// fragment runs on its own goroutine and "the network" is a message exchange
// that — exactly as §6 describes — trades latency for throughput: messages
// are aggregated per destination fragment into a contiguous varint-encoded
// buffer and shipped once per superstep, instead of being sent one by one.
// The ablation bench (aggregated vs per-message channels) quantifies this
// design choice.
package grape

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/parallel"
	"repro/internal/partition"
)

// Message is one value directed at a vertex. Value is a float64 payload —
// wide enough for ranks, distances, levels and component/community labels
// (vertex IDs are exactly representable).
type Message struct {
	Target graph.VID
	// Aux carries a small integer payload alongside Value (a label for
	// community detection, a shareholder ID for equity propagation).
	Aux   uint32
	Value float64
}

// Program is a PIE-model algorithm: PEval runs once on every fragment, then
// IncEval runs on fragments that received messages, until quiescence.
type Program interface {
	// PEval performs partial evaluation on a fragment.
	PEval(f *Fragment, ctx *Context)
	// IncEval performs incremental evaluation given freshly arrived
	// messages.
	IncEval(f *Fragment, ctx *Context, msgs []Message)
}

// Options configures an Engine.
type Options struct {
	// Fragments is the simulated worker count; 0 selects GOMAXPROCS.
	Fragments int
	// Combine merges two message values directed at the same target (e.g.
	// sum for PageRank, min for SSSP/WCC). Nil keeps all messages.
	Combine func(a, b float64) float64
	// IntraParallelism is the worker count Context.ParallelFor and
	// ParallelForMessages use for the vertex/message loops inside one
	// fragment; 0 derives max(1, GOMAXPROCS/Fragments), so the default
	// engine (Fragments = GOMAXPROCS) runs those loops inline while an
	// engine with few fragments on a wide machine still uses every core.
	IntraParallelism int
	// MaxSupersteps bounds execution; 0 means unbounded.
	MaxSupersteps int
	// PerMessageChannels disables message aggregation and ships each
	// message through a channel individually — the negative ablation arm.
	PerMessageChannels bool
	// WireCodec additionally varint-encodes each cross-fragment buffer,
	// simulating the serialization a real network deployment pays. Off by
	// default: in-process fragments hand buffers over zero-copy.
	WireCodec bool
}

// Engine executes PIE programs over a partitioned graph view.
type Engine struct {
	g    grin.Graph
	opt  Options
	part *partition.Range
	fr   []*Fragment

	// Dense combine scratch: sendScratch[s][d] combines fragment s's
	// messages for destination d; recvScratch[d] merges across sources.
	// Reused across supersteps (epoch-stamped, no clearing).
	sendScratch [][]*denseScratch
	recvScratch []*denseScratch
}

// denseScratch is an epoch-stamped dense accumulator over one destination
// fragment's vertex range: combining is O(messages) with no hashing and no
// per-superstep reset.
type denseScratch struct {
	lo      graph.VID
	acc     []float64
	aux     []uint32
	epoch   []uint32
	cur     uint32
	touched []uint32
}

func newDenseScratch(lo, hi graph.VID) *denseScratch {
	n := int(hi - lo)
	return &denseScratch{lo: lo, acc: make([]float64, n), aux: make([]uint32, n), epoch: make([]uint32, n)}
}

// combine folds messages into the scratch and rewrites them, one per target,
// into out (which may reuse in's storage).
func (sc *denseScratch) combine(in []Message, comb func(a, b float64) float64, out []Message) []Message {
	sc.begin()
	for _, m := range in {
		sc.fold(m, comb)
	}
	return sc.drain(out)
}

// begin opens a fresh combining epoch.
func (sc *denseScratch) begin() {
	sc.cur++
	sc.touched = sc.touched[:0]
}

// fold merges one message into the open epoch.
func (sc *denseScratch) fold(m Message, comb func(a, b float64) float64) {
	off := uint32(m.Target - sc.lo)
	if sc.epoch[off] != sc.cur {
		sc.epoch[off] = sc.cur
		sc.acc[off] = m.Value
		sc.aux[off] = m.Aux
		sc.touched = append(sc.touched, off)
	} else {
		sc.acc[off] = comb(sc.acc[off], m.Value)
	}
}

// drain emits one combined message per touched target.
func (sc *denseScratch) drain(out []Message) []Message {
	for _, off := range sc.touched {
		out = append(out, Message{Target: sc.lo + graph.VID(off), Aux: sc.aux[off], Value: sc.acc[off]})
	}
	return out
}

// NewEngine partitions the graph and prepares fragments. The topology trait
// is required; the array trait is exploited when present.
func NewEngine(g grin.Graph, opt Options) (*Engine, error) {
	if err := grin.Require(g, "grape"); err != nil {
		return nil, err
	}
	if opt.Fragments <= 0 {
		opt.Fragments = runtime.GOMAXPROCS(0)
	}
	n := g.NumVertices()
	if opt.Fragments > n && n > 0 {
		opt.Fragments = n
	}
	if n == 0 {
		return nil, fmt.Errorf("grape: empty graph")
	}
	if opt.IntraParallelism <= 0 {
		opt.IntraParallelism = runtime.GOMAXPROCS(0) / opt.Fragments
		if opt.IntraParallelism < 1 {
			opt.IntraParallelism = 1
		}
	}
	part, err := partition.NewRange(n, opt.Fragments)
	if err != nil {
		return nil, err
	}
	e := &Engine{g: g, opt: opt, part: part}
	for f := 0; f < opt.Fragments; f++ {
		lo, hi := part.Bounds(f)
		e.fr = append(e.fr, &Fragment{id: f, total: opt.Fragments, lo: lo, hi: hi, g: g, part: part})
	}
	if opt.Combine != nil {
		e.sendScratch = make([][]*denseScratch, opt.Fragments)
		e.recvScratch = make([]*denseScratch, opt.Fragments)
		for s := 0; s < opt.Fragments; s++ {
			e.sendScratch[s] = make([]*denseScratch, opt.Fragments)
			for d := 0; d < opt.Fragments; d++ {
				lo, hi := part.Bounds(d)
				e.sendScratch[s][d] = newDenseScratch(lo, hi)
			}
		}
		for d := 0; d < opt.Fragments; d++ {
			lo, hi := part.Bounds(d)
			e.recvScratch[d] = newDenseScratch(lo, hi)
		}
	}
	return e, nil
}

// Fragments returns the fragment count.
func (e *Engine) Fragments() int { return len(e.fr) }

// Fragment is one partition of the graph: a contiguous range of inner
// vertices plus read access to the shared topology. It implements the GRIN
// partition trait.
type Fragment struct {
	id, total int
	lo, hi    graph.VID
	g         grin.Graph
	part      *partition.Range
}

var _ grin.Partitioned = (*Fragment)(nil)

// Fragment implements grin.Partitioned.
func (f *Fragment) Fragment() (int, int) { return f.id, f.total }

// IsInner implements grin.Partitioned.
func (f *Fragment) IsInner(v graph.VID) bool { return v >= f.lo && v < f.hi }

// Owner implements grin.Partitioned.
func (f *Fragment) Owner(v graph.VID) int { return f.part.Owner(v) }

// GlobalID implements grin.Partitioned (ranges use global IDs directly).
func (f *Fragment) GlobalID(v graph.VID) graph.VID { return v }

// Bounds returns the inner vertex range [lo, hi).
func (f *Fragment) Bounds() (graph.VID, graph.VID) { return f.lo, f.hi }

// Graph exposes the topology for local evaluation.
func (f *Fragment) Graph() grin.Graph { return f.g }

// Context carries per-superstep state for one fragment: outgoing message
// buffers and the continue-vote. When a combiner is configured, sends fold
// directly into the dense per-destination scratch — GRAPE's in-memory
// aggregation — instead of buffering raw messages.
type Context struct {
	frag  *Fragment
	out   [][]Message // per destination fragment (no-combiner path)
	sc    []*denseScratch
	comb  func(a, b float64) float64
	rerun bool
	step  int

	// Intra-fragment parallelism: worker count for ParallelFor loops and the
	// lazily built per-worker senders (reused across supersteps).
	intra    int
	wsenders []*Sender
}

// Send directs a value at a vertex; it is routed to the owner fragment at
// the end of the superstep.
func (c *Context) Send(v graph.VID, val float64) {
	c.SendAux(v, 0, val)
}

// SendAux directs a value with an auxiliary integer payload at a vertex.
func (c *Context) SendAux(v graph.VID, aux uint32, val float64) {
	d := c.frag.Owner(v)
	if c.sc != nil {
		c.sc[d].fold(Message{Target: v, Aux: aux, Value: val}, c.comb)
	} else {
		c.out[d] = append(c.out[d], Message{Target: v, Aux: aux, Value: val})
	}
}

// Sink is the send interface common to Context and Sender, so PIE helper
// code (relax, broadcast) can run both inside and outside ParallelFor loops.
type Sink interface {
	Send(v graph.VID, val float64)
	SendAux(v graph.VID, aux uint32, val float64)
}

var (
	_ Sink = (*Context)(nil)
	_ Sink = (*Sender)(nil)
)

// Sender is a worker-local message sink used inside Context.ParallelFor and
// ParallelForMessages: each worker folds (or buffers) its sends privately, so
// no lock sits on the per-edge send path, and the senders merge into the
// context in worker order when the loop returns.
type Sender struct {
	c      *Context
	direct bool            // single worker: write straight through to c
	sc     []*denseScratch // per destination (combiner configured)
	out    [][]Message     // per destination (no combiner)
}

// Send directs a value at a vertex (worker-local Context.Send).
func (s *Sender) Send(v graph.VID, val float64) { s.SendAux(v, 0, val) }

// SendAux directs a value with an auxiliary payload at a vertex.
func (s *Sender) SendAux(v graph.VID, aux uint32, val float64) {
	if s.direct {
		s.c.SendAux(v, aux, val)
		return
	}
	d := s.c.frag.Owner(v)
	if s.sc != nil {
		s.sc[d].fold(Message{Target: v, Aux: aux, Value: val}, s.c.comb)
	} else {
		s.out[d] = append(s.out[d], Message{Target: v, Aux: aux, Value: val})
	}
}

// senders returns w reset per-worker senders, building them on first use.
func (c *Context) senders(w int) []*Sender {
	for len(c.wsenders) < w {
		s := &Sender{c: c}
		if c.sc != nil {
			s.sc = make([]*denseScratch, len(c.sc))
			for d := range s.sc {
				lo, hi := c.frag.part.Bounds(d)
				s.sc[d] = newDenseScratch(lo, hi)
			}
		} else {
			s.out = make([][]Message, len(c.out))
		}
		c.wsenders = append(c.wsenders, s)
	}
	ss := c.wsenders[:w]
	for _, s := range ss {
		if s.sc != nil {
			for _, sc := range s.sc {
				sc.begin()
			}
		}
	}
	return ss
}

// mergeSenders folds worker results into the context in worker order; with
// contiguous worker chunks this matches the sequential loop's send order up
// to combiner reassociation (exact for idempotent combiners like min/max).
func (c *Context) mergeSenders(ss []*Sender) {
	for _, s := range ss {
		switch {
		case s.sc != nil:
			for d, sc := range s.sc {
				for _, off := range sc.touched {
					c.sc[d].fold(Message{Target: sc.lo + graph.VID(off), Aux: sc.aux[off], Value: sc.acc[off]}, c.comb)
				}
			}
		default:
			for d := range s.out {
				c.out[d] = append(c.out[d], s.out[d]...)
				s.out[d] = s.out[d][:0]
			}
		}
	}
}

// parallelRun is the shared scaffolding of ParallelRange/ParallelForMessages:
// run on one direct sender inline, or fan out over the intra-fragment
// workers' senders and merge them back in worker order.
func (c *Context) parallelRun(n int, run func(s *Sender, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := parallel.Workers(c.intra, n)
	if w <= 1 {
		run(&Sender{c: c, direct: true}, 0, n)
		return
	}
	ss := c.senders(w)
	parallel.For(n, w, func(worker, lo, hi int) {
		run(ss[worker], lo, hi)
	})
	c.mergeSenders(ss)
}

// ParallelFor runs body(v) over the vertex range [lo, hi), splitting it into
// contiguous chunks across the engine's intra-fragment workers
// (Options.IntraParallelism). All sends inside body must go through the
// worker's Sender; worker results merge deterministically into the context
// when ParallelFor returns. body may freely write per-vertex state indexed by
// its own v, and must not touch other vertices' state.
func (c *Context) ParallelFor(lo, hi graph.VID, body func(s *Sender, v graph.VID)) {
	c.ParallelRange(lo, hi, func(s *Sender, clo, chi graph.VID) {
		for v := clo; v < chi; v++ {
			body(s, v)
		}
	})
}

// ParallelRange is ParallelFor at chunk granularity: body runs once per
// worker chunk [clo, chi) of [lo, hi), so a program can take per-worker
// scratch (a counter, a buffer) once per chunk instead of once per vertex.
// The chunks are contiguous, disjoint and cover [lo, hi); the Sender and
// state rules of ParallelFor apply unchanged.
func (c *Context) ParallelRange(lo, hi graph.VID, body func(s *Sender, clo, chi graph.VID)) {
	c.parallelRun(int(hi)-int(lo), func(s *Sender, clo, chi int) {
		body(s, lo+graph.VID(clo), lo+graph.VID(chi))
	})
}

// ParallelForMessages is ParallelFor over an inbox slice. When the engine
// runs with a combiner it delivers at most one message per target, so body
// invocations see distinct targets and may safely update per-target state;
// programs without a combiner must not assume that.
func (c *Context) ParallelForMessages(msgs []Message, body func(s *Sender, m Message)) {
	c.parallelRun(len(msgs), func(s *Sender, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(s, msgs[i])
		}
	})
}

// Rerun votes to run another superstep on this fragment even without
// incoming messages.
func (c *Context) Rerun() { c.rerun = true }

// Superstep reports the current superstep index (0 = PEval).
func (c *Context) Superstep() int { return c.step }

// Run executes the program to quiescence and returns the superstep count.
func (e *Engine) Run(p Program) (int, error) {
	nf := len(e.fr)
	ctxs := make([]*Context, nf)
	for i := range ctxs {
		ctxs[i] = &Context{frag: e.fr[i], out: make([][]Message, nf), intra: e.opt.IntraParallelism}
	}

	// inboxes[f] holds messages delivered to fragment f for this superstep.
	inboxes := make([][]Message, nf)

	runParallel := func(fn func(i int)) {
		var wg sync.WaitGroup
		for i := 0; i < nf; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fn(i)
			}(i)
		}
		wg.Wait()
	}

	useScratch := e.opt.Combine != nil && !e.opt.PerMessageChannels
	if useScratch {
		for i := range ctxs {
			ctxs[i].sc = e.sendScratch[i]
			ctxs[i].comb = e.opt.Combine
		}
	}
	beginEpochs := func() {
		if !useScratch {
			return
		}
		for s := range e.sendScratch {
			for _, sc := range e.sendScratch[s] {
				sc.begin()
			}
		}
	}

	step := 0
	beginEpochs()
	runParallel(func(i int) {
		ctxs[i].step = step
		p.PEval(e.fr[i], ctxs[i])
	})

	for {
		// Exchange: aggregate, encode, ship, decode, combine.
		anyMsg := e.exchange(ctxs, inboxes)
		anyRerun := false
		for _, c := range ctxs {
			if c.rerun {
				anyRerun = true
			}
			c.rerun = false
		}
		step++
		if !anyMsg && !anyRerun {
			return step, nil
		}
		if e.opt.MaxSupersteps > 0 && step >= e.opt.MaxSupersteps {
			return step, nil
		}
		beginEpochs()
		runParallel(func(i int) {
			ctxs[i].step = step
			msgs := inboxes[i]
			inboxes[i] = nil
			p.IncEval(e.fr[i], ctxs[i], msgs)
		})
	}
}

// exchange routes all pending messages to destination inboxes, returning
// whether any message was shipped. The default path aggregates messages per
// (src, dst) fragment pair into one compact varint buffer — GRAPE's
// latency-for-throughput trade — while the ablation path pushes messages
// through per-destination channels one at a time.
func (e *Engine) exchange(ctxs []*Context, inboxes [][]Message) bool {
	nf := len(e.fr)
	if e.opt.PerMessageChannels {
		return e.exchangePerMessage(ctxs, inboxes)
	}
	any := false
	// Send side, parallel per source fragment: combine locally into the
	// dense per-range scratch (so at most one message per remote target
	// leaves the fragment), then encode into one compact buffer per
	// destination. Local messages (s == d) skip the wire entirely, as they
	// would on a real cluster.
	encoded := make([][][]byte, nf) // [src][dst]buffer
	raw := make([][][]Message, nf)  // zero-copy handoff buffers
	var wg sync.WaitGroup
	for s := 0; s < nf; s++ {
		raw[s] = make([][]Message, nf)
	}
	for s := 0; s < nf; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			encoded[s] = make([][]byte, nf)
			for d := 0; d < nf; d++ {
				var ms []Message
				if ctxs[s].sc != nil {
					sc := ctxs[s].sc[d]
					if len(sc.touched) == 0 {
						continue
					}
					ms = sc.drain(nil)
				} else {
					if len(ctxs[s].out[d]) == 0 {
						continue
					}
					ms = ctxs[s].out[d]
				}
				if d == s || !e.opt.WireCodec {
					// Fresh copy: ms may alias the out buffer, which the
					// next superstep's sends reuse while the inbox is read.
					raw[s][d] = append([]Message(nil), ms...)
				} else {
					encoded[s][d] = encodeMessages(ms)
				}
				ctxs[s].out[d] = ctxs[s].out[d][:0]
			}
		}(s)
	}
	wg.Wait()
	// Receive side, parallel per destination fragment: decode every inbound
	// buffer and apply the combiner across sources.
	for d := 0; d < nf; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			var in []Message
			for s := 0; s < nf; s++ {
				if raw[s][d] != nil {
					in = append(in, raw[s][d]...)
				}
				if encoded[s][d] != nil {
					in = decodeMessages(encoded[s][d], in)
				}
			}
			if len(in) == 0 {
				return
			}
			if e.opt.Combine != nil {
				inboxes[d] = e.recvScratch[d].combine(in, e.opt.Combine, in[:0])
			} else {
				inboxes[d] = in
			}
		}(d)
	}
	wg.Wait()
	for d := 0; d < nf; d++ {
		if len(inboxes[d]) > 0 {
			any = true
		}
	}
	return any
}

// exchangePerMessage is the ablation arm: every message is an individual
// channel send, the "fragmented, randomly distributed small messages" §6
// warns about.
func (e *Engine) exchangePerMessage(ctxs []*Context, inboxes [][]Message) bool {
	nf := len(e.fr)
	chans := make([]chan Message, nf)
	for d := range chans {
		chans[d] = make(chan Message, 1024)
	}
	var recvWG sync.WaitGroup
	for d := 0; d < nf; d++ {
		recvWG.Add(1)
		go func(d int) {
			defer recvWG.Done()
			var in []Message
			for m := range chans[d] {
				in = append(in, m)
			}
			if len(in) == 0 {
				return
			}
			if e.opt.Combine != nil {
				inboxes[d] = e.recvScratch[d].combine(in, e.opt.Combine, in[:0])
			} else {
				inboxes[d] = in
			}
		}(d)
	}
	var sendWG sync.WaitGroup
	for s := 0; s < nf; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			for d := 0; d < nf; d++ {
				for _, m := range ctxs[s].out[d] {
					chans[d] <- m
				}
				ctxs[s].out[d] = ctxs[s].out[d][:0]
			}
		}(s)
	}
	sendWG.Wait()
	for d := range chans {
		close(chans[d])
	}
	recvWG.Wait()
	any := false
	for d := 0; d < nf; d++ {
		if len(inboxes[d]) > 0 {
			any = true
		}
	}
	return any
}

// encodeMessages packs messages into a compact buffer: uvarint delta-encoded
// targets (messages are appended in roughly ascending vertex order within a
// fragment) + raw float64 payloads.
func encodeMessages(ms []Message) []byte {
	buf := make([]byte, 0, len(ms)*6)
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	prev := uint64(0)
	for _, m := range ms {
		t := uint64(m.Target)
		var d uint64
		if t >= prev {
			d = (t - prev) << 1
		} else {
			d = ((prev - t) << 1) | 1
		}
		buf = binary.AppendUvarint(buf, d)
		prev = t
		buf = binary.AppendUvarint(buf, uint64(m.Aux))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Value))
	}
	return buf
}

// decodeMessages unpacks a buffer produced by encodeMessages, appending to
// dst.
func decodeMessages(buf []byte, dst []Message) []Message {
	n, sz := binary.Uvarint(buf)
	buf = buf[sz:]
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, sz := binary.Uvarint(buf)
		buf = buf[sz:]
		if d&1 == 1 {
			prev -= d >> 1
		} else {
			prev += d >> 1
		}
		aux, sz := binary.Uvarint(buf)
		buf = buf[sz:]
		v := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		buf = buf[8:]
		dst = append(dst, Message{Target: graph.VID(prev), Aux: uint32(aux), Value: v})
	}
	return dst
}
