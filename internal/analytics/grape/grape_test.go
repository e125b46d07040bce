package grape

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(200)
		msgs := make([]Message, n)
		for i := range msgs {
			msgs[i] = Message{
				Target: graph.VID(r.Intn(10000)),
				Aux:    uint32(r.Intn(1000)),
				Value:  r.NormFloat64(),
			}
		}
		got := decodeMessages(encodeMessages(msgs), nil)
		if n == 0 {
			if len(got) != 0 {
				t.Fatal("empty round trip")
			}
			continue
		}
		if !reflect.DeepEqual(msgs, got) {
			t.Fatalf("trial %d: round trip mismatch", trial)
		}
	}
}

// TestCombine drives the dense scratch the exchange combines through: one
// message per target, in first-seen order, across repeated epochs.
func TestCombine(t *testing.T) {
	sc := newDenseScratch(1, 16)
	in := []Message{{Target: 1, Value: 2}, {Target: 2, Value: 5}, {Target: 1, Value: 3}}
	out := sc.combine(in, func(a, b float64) float64 { return a + b }, nil)
	if want := []Message{{Target: 1, Value: 5}, {Target: 2, Value: 5}}; !reflect.DeepEqual(out, want) {
		t.Fatalf("sum combine got %v want %v", out, want)
	}
	// A second epoch on the same scratch must not see the first's sums.
	out = sc.combine([]Message{{Target: 9, Value: 4}, {Target: 9, Value: 1}, {Target: 1, Value: 7}}, math.Min, nil)
	if want := []Message{{Target: 9, Value: 1}, {Target: 1, Value: 7}}; !reflect.DeepEqual(out, want) {
		t.Fatalf("min combine got %v want %v", out, want)
	}
}

// echoProgram sends one message per inner vertex to (v+1) mod n in PEval and
// records received values in IncEval.
type echoProgram struct {
	n        int
	received []float64
}

func (p *echoProgram) PEval(f *Fragment, ctx *Context) {
	lo, hi := f.Bounds()
	for v := lo; v < hi; v++ {
		ctx.Send(graph.VID((int(v)+1)%p.n), float64(v))
	}
}

func (p *echoProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	for _, m := range msgs {
		p.received[m.Target] = m.Value
	}
}

func TestEngineRoutesToOwnerFragments(t *testing.T) {
	for _, frags := range []int{1, 2, 3, 8} {
		g, err := dataset.Datagen("t", 64, 2, 1).ToCSR(false)
		if err != nil {
			t.Fatal(err)
		}
		p := &echoProgram{n: 64, received: make([]float64, 64)}
		eng, err := NewEngine(g, Options{Fragments: frags})
		if err != nil {
			t.Fatal(err)
		}
		steps, err := eng.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if steps < 2 {
			t.Fatalf("frags=%d: expected at least 2 supersteps, got %d", frags, steps)
		}
		for v := 0; v < 64; v++ {
			want := float64((v + 63) % 64)
			if p.received[v] != want {
				t.Fatalf("frags=%d: vertex %d received %v want %v", frags, v, p.received[v], want)
			}
		}
	}
}

func TestEngineEmptyGraphRejected(t *testing.T) {
	g, _ := dataset.Datagen("t", 1, 1, 1).ToCSR(false)
	if _, err := NewEngine(g, Options{}); err != nil {
		t.Fatalf("single vertex should work: %v", err)
	}
}

// rerunProgram exercises the Rerun vote: it runs a fixed number of extra
// supersteps without sending messages.
type rerunProgram struct {
	target int
	runs   []int // per fragment superstep counter
}

func (p *rerunProgram) PEval(f *Fragment, ctx *Context) {
	id, _ := f.Fragment()
	p.runs[id]++
	if p.runs[id] < p.target {
		ctx.Rerun()
	}
}

func (p *rerunProgram) IncEval(f *Fragment, ctx *Context, msgs []Message) {
	id, _ := f.Fragment()
	p.runs[id]++
	if p.runs[id] < p.target {
		ctx.Rerun()
	}
}

func TestRerunVote(t *testing.T) {
	g, _ := dataset.Datagen("t", 32, 2, 2).ToCSR(false)
	eng, err := NewEngine(g, Options{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := &rerunProgram{target: 5, runs: make([]int, 4)}
	steps, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d want 5", steps)
	}
	for i, r := range p.runs {
		if r != 5 {
			t.Fatalf("fragment %d ran %d times", i, r)
		}
	}
}

func TestMaxSupersteps(t *testing.T) {
	g, _ := dataset.Datagen("t", 32, 2, 3).ToCSR(false)
	eng, err := NewEngine(g, Options{Fragments: 2, MaxSupersteps: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := &rerunProgram{target: 100, runs: make([]int, 2)}
	steps, err := eng.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("steps = %d want 3", steps)
	}
}

// TestPerMessageChannelEquivalence: the ablation exchange path must deliver
// the same combined messages as the aggregated path.
func TestPerMessageChannelEquivalence(t *testing.T) {
	g, err := dataset.Datagen("t", 128, 4, 4).ToCSR(false)
	if err != nil {
		t.Fatal(err)
	}
	run := func(perMsg bool) []float64 {
		p := &echoProgram{n: 128, received: make([]float64, 128)}
		eng, err := NewEngine(g, Options{Fragments: 4, PerMessageChannels: perMsg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(p); err != nil {
			t.Fatal(err)
		}
		return p.received
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("per-message and aggregated exchanges disagree")
	}
}

func TestFragmentPartitionTrait(t *testing.T) {
	g, _ := dataset.Datagen("t", 100, 2, 5).ToCSR(false)
	eng, err := NewEngine(g, Options{Fragments: 4})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Fragments() != 4 {
		t.Fatal("fragment count")
	}
	seen := make([]bool, 100)
	for _, f := range eng.fr {
		id, total := f.Fragment()
		if total != 4 {
			t.Fatal("total")
		}
		lo, hi := f.Bounds()
		for v := lo; v < hi; v++ {
			if !f.IsInner(v) {
				t.Fatal("inner check")
			}
			if f.Owner(v) != id {
				t.Fatal("owner mismatch")
			}
			if f.GlobalID(v) != v {
				t.Fatal("global id")
			}
			seen[v] = true
		}
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d unowned", v)
		}
	}
}
