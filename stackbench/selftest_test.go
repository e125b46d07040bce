package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var workloads = []string{"snb-interactive", "snb-bi", "fraud-check", "graphalytics"}

// runTiny runs one workload at the tiny size and returns the exit code,
// the standard output and the parsed last line (nil when absent).
func runTiny(t *testing.T, extra ...string) (int, string, *result) {
	t.Helper()
	args := append([]string{"--tiny", "--seconds", "0.3",
		"--trace-out", filepath.Join(t.TempDir(), "trace.json")}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("stderr: %s", stderr.String())
		return code, out, nil
	}
	return code, out, &res
}

type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name string }               `json:"workloads"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCommand pins BENCHMARK.json to the metrics and
// workloads the command reports.
func TestBenchmarkFileMatchesCommand(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the command %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if bf.EndToEnd[i].Name != d.name || bf.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end[%d] = %s %s, command reports %s %s", i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %s %s, command reports %s %s", i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, d.name, d.unit)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
}

// TestEveryMetricPrinted runs each workload untraced and traced and checks
// that every metric is present, finite and carries its unit.
func TestEveryMetricPrinted(t *testing.T) {
	for _, w := range workloads {
		for _, tr := range []struct {
			flag string
			defs []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			code, out, res := runTiny(t, "--workload", w, "--seed", "3", "--trace", tr.flag)
			if code != 0 || res == nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%s: exit %d, result %+v\n%s", w, tr.flag, code, res, out)
			}
			if len(res.Metrics) != len(tr.defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, tr.flag, len(res.Metrics), len(tr.defs))
			}
			for _, d := range tr.defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v), want unit %s", w, tr.flag, d.name, m, ok, d.unit)
				}
			}
			if tr.flag == "0" {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

var digestRE = regexp.MustCompile(`(oracle_digest|ops_digest)=([0-9a-f]+)`)

func digests(out string) string {
	var parts []string
	for _, m := range digestRE.FindAllStringSubmatch(out, -1) {
		parts = append(parts, m[1]+"="+m[2])
	}
	return strings.Join(parts, " ")
}

// TestSameSeedSameRun checks that a seed fixes the operation sequence and
// the oracle results, and that another seed changes both.
func TestSameSeedSameRun(t *testing.T) {
	for _, w := range workloads {
		_, a, _ := runTiny(t, "--workload", w, "--seed", "5")
		_, b, _ := runTiny(t, "--workload", w, "--seed", "5")
		_, c, _ := runTiny(t, "--workload", w, "--seed", "6")
		da, db, dc := digests(a), digests(b), digests(c)
		if !strings.Contains(da, "oracle_digest") || !strings.Contains(da, "ops_digest") {
			t.Fatalf("%s: digests missing from output:\n%s", w, a)
		}
		if da != db {
			t.Errorf("%s: same seed, different runs: %s vs %s", w, da, db)
		}
		for i, kind := range []string{"oracle", "ops"} {
			if strings.Fields(da)[i] == strings.Fields(dc)[i] {
				t.Errorf("%s: seeds 5 and 6 gave the same %s digest: %s", w, kind, da)
			}
		}
	}
}

// TestCorruptOracleFails checks that the correctness gate catches a wrong
// result: with one oracle result perturbed, the command must fail.
func TestCorruptOracleFails(t *testing.T) {
	for _, w := range workloads {
		code, out, res := runTiny(t, "--workload", w, "--seed", "7", "--corrupt-oracle")
		if code == 0 || res == nil || res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted oracle passed: exit %d, result %+v\n%s", w, code, res, out)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{}
	b := tr.buf()
	b.spans = []span{
		{name: "root", start: 0, end: 100, parent: -1, req: 1},
		{name: "a", start: 10, end: 40, parent: 0, req: 1},
		{name: "b", start: 30, end: 50, parent: 0, req: 1},
		{name: "c", start: 90, end: 120, parent: 0, req: 1},
	}
	self, n := tr.rootSelf()
	// Children cover [10,50) and [90,100): 50 of the root's 100.
	if n != 1 || self != 50 {
		t.Fatalf("root self = %v over %d roots, want 50 over 1", self, n)
	}
}
