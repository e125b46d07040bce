package chaos_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/obsv"
	"repro/internal/storage/chaos"
	"repro/internal/storage/vineyard"
)

func smallVineyard(t *testing.T) grin.Graph {
	t.Helper()
	st, err := vineyard.Load(dataset.SNB(dataset.SNBOptions{Persons: 30, Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBackendName pins the wrapper's log name: a chaos view names itself
// after the fault schedule and its inner store, not the metering it rides on.
func TestBackendName(t *testing.T) {
	if got, want := chaos.Wrap(smallVineyard(t), chaos.Options{}).BackendName(), "chaos(vineyard)"; got != want {
		t.Errorf("BackendName = %q, want %q", got, want)
	}
}

// TestErrorFiresOnNthCall pins the counting contract: the fault fires on
// exactly the scheduled call, as a panic carrying a *chaos.Error.
func TestErrorFiresOnNthCall(t *testing.T) {
	w := chaos.Wrap(smallVineyard(t), chaos.Options{
		Seed:   7,
		Faults: []chaos.Fault{{Site: obsv.StoreDegree, Kind: chaos.KindError, N: 3}},
	})
	for i := 0; i < 2; i++ {
		w.Degree(0, graph.Out) // calls 1 and 2: clean
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("call 3 did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("panicked with %T, want error", r)
		}
		var ce *chaos.Error
		if !errors.As(err, &ce) {
			t.Fatalf("panicked with %v, want *chaos.Error", err)
		}
		if ce.Site != obsv.StoreDegree || ce.N != 3 || ce.Seed != 7 {
			t.Errorf("fault fired at %s call %d seed %d, want Degree call 3 seed 7", ce.Site, ce.N, ce.Seed)
		}
		if ce.Transient() {
			t.Error("KindError reported transient")
		}
		if !ce.ChaosInjected() {
			t.Error("ChaosInjected() = false")
		}
	}()
	w.Degree(0, graph.Out)
}

// TestErrorFiresOnceUnderConcurrency pins the atomic call numbering: however
// many workers race past the scheduled call, exactly one call is the Nth, so
// the fault fires exactly once, and every call is still counted.
func TestErrorFiresOnceUnderConcurrency(t *testing.T) {
	w := chaos.Wrap(smallVineyard(t), chaos.Options{
		Faults: []chaos.Fault{{Site: obsv.StoreDegree, Kind: chaos.KindError, N: 5}},
	})
	const workers, perWorker = 8, 50
	var fired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				func() {
					defer func() {
						if recover() != nil {
							fired.Add(1)
						}
					}()
					w.Degree(0, graph.Out)
				}()
			}
		}()
	}
	wg.Wait()
	if n := fired.Load(); n != 1 {
		t.Errorf("one-shot fault fired %d times, want 1", n)
	}
	if calls := w.Stats().Calls(obsv.StoreDegree); calls != workers*perWorker {
		t.Errorf("counted %d Degree calls, want %d", calls, workers*perWorker)
	}
}

// TestShortReadKeepsScanSequence pins the short-read legality: from the
// trigger call on, ScanBatch returns fewer vertices per chunk, but a full
// cursor walk yields the identical vertex sequence.
func TestShortReadKeepsScanSequence(t *testing.T) {
	inner := smallVineyard(t)
	w := chaos.Wrap(inner, chaos.Options{
		Faults: []chaos.Fault{{Site: obsv.StoreScanBatch, Kind: chaos.KindShortRead, N: 2}},
	})
	walk := func(g grin.BatchScan) []graph.VID {
		var out []graph.VID
		buf := make([]graph.VID, 8)
		cur := graph.VID(0)
		for {
			n, next := g.ScanBatch(graph.AnyLabel, cur, buf)
			out = append(out, buf[:n]...)
			if next == graph.NilVID {
				return out
			}
			cur = next
		}
	}
	bs, ok := grin.AsBatchScan(inner)
	if !ok {
		t.Fatal("vineyard lost BatchScan")
	}
	want := walk(bs)
	got := walk(w)
	if len(got) != len(want) {
		t.Fatalf("short-read walk yielded %d vertices, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("short-read walk diverged at %d: %d != %d", i, got[i], want[i])
		}
	}
	if calls := w.Stats().Calls(obsv.StoreScanBatch); calls <= int64(len(want)/8) {
		t.Errorf("short reads should need more chunks: %d calls", calls)
	}
}

// TestPlanIsDeterministic pins the seed recipe: the same seed yields the
// same schedule, a different seed a different one.
func TestPlanIsDeterministic(t *testing.T) {
	kinds := []chaos.Kind{chaos.KindError, chaos.KindTransientError, chaos.KindPanic, chaos.KindLatency}
	var sites []obsv.StoreSite
	for s := obsv.StoreSite(0); s < obsv.NumStoreSites; s++ {
		sites = append(sites, s)
	}
	a := chaos.Plan(42, sites, kinds, 16)
	b := chaos.Plan(42, sites, kinds, 16)
	if len(a.Faults) != len(sites) || len(b.Faults) != len(a.Faults) {
		t.Fatalf("Plan sized %d/%d faults, want one per site", len(a.Faults), len(b.Faults))
	}
	differs := false
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("same seed diverged at fault %d: %+v != %+v", i, a.Faults[i], b.Faults[i])
		}
		if c := chaos.Plan(43, sites, kinds, 16); c.Faults[i] != a.Faults[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 42 and 43 produced identical schedules")
	}
}
