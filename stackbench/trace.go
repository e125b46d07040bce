package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/query/obsv"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public API call. Times are obsv.Now readings (nanoseconds), the clock
// the engines' own stage spans use.
type span struct {
	name   string
	start  int64
	end    int64
	parent int   // index of the parent span in the same buffer; -1 at a root
	req    int64 // request id; 0 for set-up spans
}

// spanBuf holds the spans of one goroutine. Children are always recorded on
// their parent's goroutine, so parent links stay inside one buffer and
// recording takes no lock.
type spanBuf struct {
	tid   int
	spans []span
	open  []int // stack of open span indices
}

// tracer keeps every span in memory until the run ends. A nil *tracer and a
// nil *spanBuf are valid and record nothing, which is the untraced path.
type tracer struct {
	mu   sync.Mutex
	bufs []*spanBuf
	reqs atomic.Int64
}

// buf registers a span buffer for one goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{tid: len(t.bufs) + 1}
	t.bufs = append(t.bufs, b)
	return b
}

// request hands out a fresh request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span nested in the innermost open span.
func (b *spanBuf) begin(name string, req int64) {
	if b == nil {
		return
	}
	parent := -1
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
		if req == 0 {
			req = b.spans[parent].req
		}
	}
	b.open = append(b.open, len(b.spans))
	b.spans = append(b.spans, span{name: name, start: obsv.Now(), parent: parent, req: req})
}

// end closes the innermost open span and returns its duration in
// nanoseconds.
func (b *spanBuf) end() int64 {
	if b == nil {
		return 0
	}
	n := len(b.open) - 1
	i := b.open[n]
	b.open = b.open[:n]
	b.spans[i].end = obsv.Now()
	return b.spans[i].end - b.spans[i].start
}

// with runs f inside a span.
func (b *spanBuf) with(name string, f func() error) error {
	b.begin(name, 0)
	defer b.end()
	return f()
}

// spanStat is the per-name summary of closed spans.
type spanStat struct {
	durs []float64 // nanoseconds
}

// stats groups the durations of every span by name.
func (t *tracer) stats() map[string]*spanStat {
	out := map[string]*spanStat{}
	if t == nil {
		return out
	}
	for _, b := range t.bufs {
		for _, s := range b.spans {
			st := out[s.name]
			if st == nil {
				st = &spanStat{}
				out[s.name] = st
			}
			st.durs = append(st.durs, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover.
func (b *spanBuf) selfTimes() []int64 {
	kids := make([][]int, len(b.spans))
	for i, s := range b.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(b.spans))
	for i, s := range b.spans {
		self[i] = s.end - s.start - covered(b.spans, kids[i], s)
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(spans []span, kids []int, parent span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// rootSelf sums the self time of the request root spans: time a request
// spent in the benchmark's own client loop, outside every layer call.
func (t *tracer) rootSelf() (total float64, n int) {
	if t == nil {
		return 0, 0
	}
	for _, b := range t.bufs {
		self := b.selfTimes()
		for i, s := range b.spans {
			if s.parent < 0 && s.req != 0 {
				total += float64(self[i])
				n++
			}
		}
	}
	return total, n
}

// chromeEvent is one Chrome trace-event ("X" complete span, microseconds).
type chromeEvent struct {
	Name string     `json:"name"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     string  `json:"id"`
	Parent string  `json:"parent,omitempty"`
	Req    int64   `json:"req,omitempty"`
	SelfUs float64 `json:"self_us"`
}

// writeChrome writes every span as Chrome trace-event JSON to path,
// creating its directory.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var events []chromeEvent
	for _, b := range t.bufs {
		self := b.selfTimes()
		for i, s := range b.spans {
			ev := chromeEvent{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				PID: 1, TID: b.tid, Args: chromeArgs{ID: fmt.Sprintf("%d.%d", b.tid, i), Req: s.req, SelfUs: float64(self[i]) / 1e3}}
			if s.parent >= 0 {
				ev.Args.Parent = fmt.Sprintf("%d.%d", b.tid, s.parent)
			}
			events = append(events, ev)
		}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
