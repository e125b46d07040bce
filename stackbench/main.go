// Command stackbench is the seeded benchmark of the whole stack. It runs one
// of four workloads — snb-interactive, snb-bi, fraud-check, graphalytics —
// through the public package APIs, checks every result against an
// independent oracle, and prints its metrics by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run records spans around every layer call, writes them as Chrome trace
// JSON, and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every input to a few hundred vertices (self-test).
	tiny bool
	// corrupt perturbs one oracle result, so the correctness gate must fail.
	corrupt  bool
	traceOut string
	// procs is the client and worker count: nproc.
	procs int
}

// workload is one seeded input set with its closed-loop clients.
type workload interface {
	// setup generates the inputs from the seed and builds the stores and
	// engines, recording one span per layer call into sb (nil: untraced).
	setup(sb *spanBuf) error
	// verify is the correctness gate, run outside the timed window: it
	// compares results with an oracle.
	verify() gateResult
	// clients is the closed-loop client count.
	clients() int
	// client issues operations until the deadline. sb is nil when untraced.
	client(id int, deadline time.Time, rec *recorder, sb *spanBuf, tr *tracer)
	// traceOn switches on the per-layer counters before the traced window.
	traceOn()
	// layers fills the workload's per-layer metrics after the traced window.
	layers(m map[string]float64, spans map[string]*spanStat) error
	// opsDigest hashes the operation sequence the seed gives the clients.
	opsDigest() uint64
	close()
}

func newWorkload(o *options) (workload, error) {
	switch o.workload {
	case "snb-interactive":
		return &interactive{o: o}, nil
	case "snb-bi":
		return &bi{o: o}, nil
	case "fraud-check":
		return &fraud{o: o}, nil
	case "graphalytics":
		return &analytics{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want snb-interactive, snb-bi, fraud-check or graphalytics)", o.workload)
}

// gateResult is the outcome of the correctness gate.
type gateResult struct {
	checks, failed int
	// digest hashes every oracle result in order; the same seed gives the
	// same digest.
	digest uint64
	first  error
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	// sched marks numbers that depend on thread scheduling (gauges,
	// busy/idle splits); they are not reproducible counts.
	sched bool
}

// endToEnd are the metrics of the untraced run; every workload reports all
// of them. BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{name: "throughput_ops", unit: "ops/s"},
	{name: "read_p50_us", unit: "us"},
	{name: "query_geomean_us", unit: "us"},
	{name: "heap_mb", unit: "MiB"},
	{name: "setup_s", unit: "s"},
}

// perLayer are the metrics of the traced run. A layer the workload does not
// run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "cypher.parse_us", unit: "us"},
		{name: "optimizer.optimize_us", unit: "us"},
		{name: "exec.compile_us", unit: "us"},
		{name: "gaia.run_us", unit: "us"},
		{name: "gaia.worker_busy_ratio", unit: "1", sched: true},
		{name: "gaia.morsels_per_query", unit: "count"},
		{name: "gaia.pool_hit_ratio", unit: "1", sched: true},
		{name: "hiactor.exec_us", unit: "us"},
		{name: "hiactor.queue_us", unit: "us", sched: true},
		{name: "hiactor.mailbox_max_depth", unit: "count", sched: true},
		{name: "hiactor.shed", unit: "count", sched: true},
		{name: "exec.kernel_path_ratio", unit: "1"},
		{name: "exec.rows_examined_per_result", unit: "rows"},
		{name: "exec.sel_survival_ratio", unit: "1"},
		{name: "exec.batches_per_query", unit: "count"},
		{name: "exec.boxed_rows_per_query", unit: "rows"},
	}
	for _, s := range storeSites {
		defs = append(defs, metricDef{name: "gart.calls_per_op." + s, unit: "calls/op"})
	}
	defs = append(defs, []metricDef{
		{name: "gart.write_p50_us", unit: "us"},
		{name: "gart.write_p99_us", unit: "us"},
		{name: "gart.commits", unit: "count"},
		{name: "dataset.gen_s", unit: "s"},
		{name: "gart.load_s", unit: "s"},
		{name: "vineyard.load_s", unit: "s"},
		{name: "csr.build_s", unit: "s"},
		{name: "engine.build_s", unit: "s"},
		{name: "hiactor.install_s", unit: "s"},
		{name: "grape.engine_build_ms", unit: "ms"},
		{name: "algorithms.pagerank_ms", unit: "ms"},
		{name: "algorithms.bfs_ms", unit: "ms"},
		{name: "algorithms.wcc_ms", unit: "ms"},
		{name: "algorithms.cdlp_ms", unit: "ms"},
		{name: "algorithms.sssp_ms", unit: "ms"},
		{name: "runtime.alloc_bytes_per_op", unit: "B/op"},
		{name: "runtime.mallocs_per_op", unit: "count"},
		{name: "runtime.gc_cycles", unit: "count", sched: true},
		{name: "driver.unattributed_us", unit: "us"},
		{name: "trace.overhead_ratio", unit: "1", sched: true},
	}...)
	return defs
}()

// setupSpans maps set-up span names to their per-layer metric, in seconds.
var setupSpans = map[string]string{
	"dataset.generate": "dataset.gen_s",
	"gart.load":        "gart.load_s",
	"vineyard.load":    "vineyard.load_s",
	"csr.build":        "csr.build_s",
	"engine.build":     "engine.build_s",
	"hiactor.install":  "hiactor.install_s",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every result was correct, 1 when any operation failed or any result
// differed from its oracle, 2 on a usage or set-up error.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "stackbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "snb-interactive | snb-bi | fraud-check | graphalytics")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&traceN, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every input (self-test)")
	fs.BoolVar(&o.corrupt, "corrupt-oracle", false, "perturb one oracle result; the run must then fail")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file (default .bench_build/stackbench/<workload>-<seed>.json)")
	o.procs = runtime.GOMAXPROCS(0)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceN != 0 && traceN != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", traceN)
	}
	o.trace = traceN == 1
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "stackbench", fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	return o, nil
}

// setups is the number of set-ups per run; setup_s is their median. The
// tiny self-test sets up once.
func (o *options) setups() int {
	if o.tiny {
		return 1
	}
	return 5
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add puts one metric into the result. A value that is not finite (no
// operation of its kind succeeded) is left out when operations failed, so
// the failed run still reports; in a run without failures it is a defect
// of the benchmark.
func (r *result) add(d metricDef, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if r.Failed > 0 {
			return nil
		}
		return fmt.Errorf("metric %s is not finite (%v)", d.name, v)
	}
	r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	return nil
}

// execute sets up, verifies and measures one workload, printing the
// human-readable report to stdout, and returns the JSON result.
func execute(o *options, stdout io.Writer) (*result, error) {
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	fmt.Fprintf(stdout, "# stackbench workload=%s seed=%d seconds=%g trace=%v procs=%d\n",
		o.workload, o.seed, o.seconds, o.trace, o.procs)

	// Set up several times; setup_s is the median. The last set-up stays.
	setupS := make([]float64, o.setups())
	for i := range setupS {
		if i > 0 {
			w.close()
		}
		sb := tr.buf()
		sb.begin("setup", 0)
		start := time.Now()
		err := w.setup(sb)
		setupS[i] = time.Since(start).Seconds()
		sb.end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer w.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	g := w.verify()
	fmt.Fprintf(stdout, "gate checks=%d failed=%d oracle_digest=%016x\n", g.checks, g.failed, g.digest)
	res := &result{Attempted: int64(g.checks), Failed: int64(g.failed), Metrics: map[string]metricValue{}}
	if g.first != nil {
		fmt.Fprintln(stdout, "gate FAILED:", g.first)
	}

	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		window /= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, elapsed := closedLoop(w.clients(), window, func(id int, deadline time.Time, r *recorder) {
		w.client(id, deadline, r, nil, nil)
	})
	runtime.ReadMemStats(&after)
	fmt.Fprintf(stdout, "ops_digest=%016x\n", w.opsDigest())
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	if rec.firstErr != nil {
		fmt.Fprintln(stdout, "first failure:", rec.firstErr)
	}
	thr := float64(len(rec.samples)) / elapsed.Seconds()
	reads := rec.latencies(false)
	writes := rec.latencies(true)
	byType := rec.byType()

	e2e := map[string]float64{
		"throughput_ops":   thr,
		"read_p50_us":      median(reads),
		"query_geomean_us": geomeanOfMedians(byType),
		"heap_mb":          heapMB,
		"setup_s":          median(setupS),
	}
	fmt.Fprintf(stdout, "window %.3fs ops=%d reads=%d writes=%d attempted=%d failed=%d error_ratio=%g\n",
		elapsed.Seconds(), len(rec.samples), len(reads), len(writes), rec.attempted, rec.failed,
		float64(rec.failed)/math.Max(1, float64(rec.attempted)))
	printE2E(stdout, e2e, len(reads), len(writes), len(byType), o.setups())
	printExtra(stdout, reads, writes, byType)

	if !o.trace {
		for _, d := range endToEnd {
			if err := res.add(d, e2e[d.name]); err != nil {
				return nil, err
			}
		}
		res.Correct = res.Failed == 0
		return res, nil
	}

	// Traced window: same workload, same length, spans and counters on. It
	// starts from a fresh set-up, so what the untraced window wrote (orders,
	// updates) does not make it slower.
	w.close()
	if err := w.setup(nil); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	w.traceOn()
	bufs := make([]*spanBuf, w.clients())
	for i := range bufs {
		bufs[i] = tr.buf()
	}
	trec, telapsed := closedLoop(w.clients(), window, func(id int, deadline time.Time, r *recorder) {
		w.client(id, deadline, r, bufs[id], tr)
	})
	res.Attempted += trec.attempted
	res.Failed += trec.failed
	if trec.firstErr != nil {
		fmt.Fprintln(stdout, "first failure (traced):", trec.firstErr)
	}
	spans := tr.stats()
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for name, metric := range setupSpans {
		if st := spans[name]; st != nil {
			m[metric] = median(st.durs) / 1e9
		}
	}
	ops := float64(len(rec.samples))
	m["runtime.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / math.Max(1, ops)
	m["runtime.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / math.Max(1, ops)
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	self, n := tr.rootSelf()
	m["driver.unattributed_us"] = self / 1e3 / math.Max(1, float64(n))
	tthr := float64(len(trec.samples)) / telapsed.Seconds()
	m["trace.overhead_ratio"] = thr / tthr
	if err := w.layers(m, spans); err != nil {
		return nil, err
	}

	if err := tr.writeChrome(o.traceOut); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace %s spans=%d traced_ops=%d\n", o.traceOut, countSpans(tr), len(trec.samples))
	for _, d := range perLayer {
		note := ""
		if d.sched {
			note = " [schedule-dependent]"
		}
		fmt.Fprintf(stdout, "layer %-36s %14.4f %s%s\n", d.name, m[d.name], d.unit, note)
		if err := res.add(d, m[d.name]); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func countSpans(t *tracer) int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

func printE2E(w io.Writer, e2e map[string]float64, reads, writes, types, setups int) {
	samples := map[string]string{
		"throughput_ops":   fmt.Sprintf("n=%d ops", reads+writes),
		"read_p50_us":      fmt.Sprintf("n=%d reads", reads),
		"query_geomean_us": fmt.Sprintf("n=%d types", types),
		"heap_mb":          "after set-up and a forced GC",
		"setup_s":          fmt.Sprintf("median of n=%d set-ups", setups),
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "metric %-18s %14.4f %-6s %s\n", d.name, e2e[d.name], d.unit, samples[d.name])
	}
}

// printExtra prints the workload-specific figures that are not end-to-end
// metrics of every workload: read p99, write p50 and each operation type's
// median.
func printExtra(w io.Writer, reads, writes []float64, byType map[string][]float64) {
	if len(reads) > 0 {
		fmt.Fprintf(w, "info   read_p99_us  %14.4f us n=%d\n", quantile(reads, 0.99), len(reads))
	}
	if len(writes) > 0 {
		fmt.Fprintf(w, "info   write_p50_us %14.4f us n=%d\n", median(writes), len(writes))
	}
	names := make([]string, 0, len(byType))
	for k := range byType {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, " %s=%.1fus(n=%d)", k, median(byType[k]), len(byType[k]))
	}
	fmt.Fprintf(w, "info   type_p50%s\n", sb.String())
}
