package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
)

// sample is one completed operation seen by a client.
type sample struct {
	typ   string
	write bool
	us    float64
}

// recorder collects one client's samples and error counts. Each client owns
// its recorder, so recording takes no lock; merge folds them after the
// window closes.
type recorder struct {
	samples []sample
	// parts are timed steps inside operations. When a workload records
	// them, the per-type medians come from the parts instead of the
	// operations.
	parts     []sample
	attempted int64
	failed    int64
	// firstErr keeps the first failure for the report; every failure is
	// still counted in failed.
	firstErr error
}

// op times one operation call, records its latency and counts a failure
// when call returns an error. The latency covers the call only; whatever
// the client does afterwards (checking the result) is outside it.
func (r *recorder) op(typ string, write bool, call func() error) error {
	start := time.Now()
	err := call()
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	r.attempted++
	if err != nil {
		r.fail(err)
		return err
	}
	r.samples = append(r.samples, sample{typ: typ, write: write, us: us})
	return nil
}

// part times one step of the operation in progress. A failing step is
// not counted here: it fails the operation around it.
func (r *recorder) part(typ string, call func() error) error {
	start := time.Now()
	if err := call(); err != nil {
		return err
	}
	r.parts = append(r.parts, sample{typ: typ, us: float64(time.Since(start).Nanoseconds()) / 1e3})
	return nil
}

// fail counts a failure found after the call returned (a wrong result).
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// mismatch turns a result that differs from the oracle into a failure of
// the operation already recorded as successful.
func (r *recorder) mismatch(err error) {
	if n := len(r.samples); n > 0 {
		r.samples = r.samples[:n-1]
	}
	r.fail(err)
}

func merge(recs []*recorder) *recorder {
	out := &recorder{}
	for _, r := range recs {
		out.samples = append(out.samples, r.samples...)
		out.parts = append(out.parts, r.parts...)
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// latencies returns the latencies of reads (write=false) or writes.
func (r *recorder) latencies(write bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if s.write == write {
			out = append(out, s.us)
		}
	}
	return out
}

// byType groups read latencies by operation type, or the parts by their
// type when there are parts.
func (r *recorder) byType() map[string][]float64 {
	out := map[string][]float64{}
	samples := r.samples
	if len(r.parts) > 0 {
		samples = r.parts
	}
	for _, s := range samples {
		if !s.write {
			out[s.typ] = append(out[s.typ], s.us)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified). It returns NaN
// for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomeanOfMedians is the geometric mean over operation types of each
// type's median latency, as in the LDBC BI power score: a cheap query type
// weighs as much as a heavy one.
func geomeanOfMedians(byType map[string][]float64) float64 {
	if len(byType) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, xs := range byType {
		sum += math.Log(median(xs))
	}
	return math.Exp(sum / float64(len(byType)))
}

// closedLoop runs clients goroutines, each calling client until the
// deadline passes, and waits for all of them. Every client waits for its
// reply before sending the next request. It returns the merged recorder
// and the wall time from start until the last client finished.
func closedLoop(clients int, window time.Duration, client func(id int, deadline time.Time, rec *recorder)) (*recorder, time.Duration) {
	recs := make([]*recorder, clients)
	done := make(chan struct{})
	start := time.Now()
	deadline := start.Add(window)
	for i := range recs {
		recs[i] = &recorder{}
		go func(i int) {
			defer func() { done <- struct{}{} }()
			client(i, deadline, recs[i])
		}(i)
	}
	for range recs {
		<-done
	}
	return merge(recs), time.Since(start)
}

// digestOps is the number of operations per client the operation digest
// covers.
const digestOps = 64

// streamDigest hashes the first digestOps operations of every client's
// seeded stream. stream(id) returns client id's stream afresh, the same
// generator the client draws from, so the digest does not depend on how
// many operations a window completed.
func streamDigest(clients int, stream func(id int) func() string) uint64 {
	h := fnv.New64a()
	for id := 0; id < clients; id++ {
		fmt.Fprintf(h, "client %d\n", id)
		next := stream(id)
		for k := 0; k < digestOps; k++ {
			fmt.Fprintln(h, next())
		}
	}
	return h.Sum64()
}

// paramsKey renders a parameter binding with its keys sorted.
func paramsKey(params map[string]graph.Value) string {
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, params[k])
	}
	return sb.String()
}
