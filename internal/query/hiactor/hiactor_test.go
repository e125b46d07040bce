package hiactor

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query"
	"repro/internal/query/cypher"
	"repro/internal/query/exec"
	"repro/internal/query/obsv"
	"repro/internal/storage/chaos"
	"repro/internal/storage/gart"
)

func engineOverGART(t *testing.T) (*Engine, *gart.Store) {
	t.Helper()
	b := dataset.SNB(dataset.SNBOptions{Persons: 100, Seed: 4})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(func() grin.Graph { return gs.Latest() }, Options{Shards: 3})
	t.Cleanup(e.Close)
	return e, gs
}

func TestConcurrentCallsAcrossShards(t *testing.T) {
	e, _ := engineOverGART(t)
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid RETURN COUNT(f) AS c`, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install("friends", plan); err != nil {
		t.Fatal(err)
	}
	// Reference counts computed serially.
	want := make([]int64, 50)
	for pid := range want {
		rows, err := e.Call(context.Background(), "friends", map[string]graph.Value{"pid": graph.IntValue(int64(pid))})
		if err != nil {
			t.Fatal(err)
		}
		want[pid] = rows[0][0].Int()
	}
	// Hammer concurrently: results must match the serial reference.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pid := (i + w) % 50
				rows, err := e.Call(context.Background(), "friends", map[string]graph.Value{"pid": graph.IntValue(int64(pid))})
				if err != nil {
					errs <- err
					return
				}
				if rows[0][0].Int() != want[pid] {
					t.Errorf("pid %d: got %d want %d", pid, rows[0][0].Int(), want[pid])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueriesSeeCommittedUpdates(t *testing.T) {
	e, gs := engineOverGART(t)
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person)
WHERE id(p) = $pid RETURN COUNT(f) AS c`, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install("friends", plan); err != nil {
		t.Fatal(err)
	}
	params := map[string]graph.Value{"pid": graph.IntValue(1)}
	before, err := e.Call(context.Background(), "friends", params)
	if err != nil {
		t.Fatal(err)
	}
	// Add a friendship and commit: the next call sees it (the provider
	// returns the latest snapshot).
	if err := gs.AddEdge(dataset.SNBKnows, 1, 99, graph.IntValue(0)); err != nil {
		t.Fatal(err)
	}
	gs.Commit()
	after, err := e.Call(context.Background(), "friends", params)
	if err != nil {
		t.Fatal(err)
	}
	if after[0][0].Int() != before[0][0].Int()+1 {
		t.Fatalf("update invisible: %d -> %d", before[0][0].Int(), after[0][0].Int())
	}
}

// TestActorSurvivesPanickingQuery pins panic isolation at the actor loop: a
// query whose storage read panics fails alone with a typed error, the actor
// keeps serving its mailbox, and closing the pool leaks nothing. The leak
// check brackets the engine's whole lifetime, so it also proves Close joins
// every actor goroutine.
func TestActorSurvivesPanickingQuery(t *testing.T) {
	checkLeaks := query.CheckLeaks(t)
	b := dataset.SNB(dataset.SNBOptions{Persons: 50, Seed: 4})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	// One shard: the poisoned query and its survivors share an actor, so
	// success after failure proves the loop recovered rather than a sibling
	// picking up the slack.
	faulty := chaos.Wrap(gs.Latest(), chaos.Options{
		Seed:   11,
		Faults: []chaos.Fault{{Site: obsv.StoreExpandBatch, Kind: chaos.KindPanic, N: 1}},
	})
	e := NewEngine(func() grin.Graph { return faulty }, Options{Shards: 1})
	plan, err := cypher.Parse(`MATCH (p:Person)-[:KNOWS]->(f:Person) RETURN COUNT(f) AS c`, dataset.SNBSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Submit(context.Background(), plan, nil); err == nil {
		t.Fatal("poisoned query succeeded")
	} else {
		var pe *exec.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("poisoned query failed with %v, want *exec.PanicError", err)
		}
	}
	// The fault fired once; the same actor must now serve clean queries.
	for i := 0; i < 3; i++ {
		if _, _, err := e.Submit(context.Background(), plan, nil); err != nil {
			t.Fatalf("query %d after the panic failed: %v", i, err)
		}
	}
	e.Close()
	checkLeaks()
}

func TestClosedEngineRejectsCalls(t *testing.T) {
	b := dataset.SNB(dataset.SNBOptions{Persons: 20, Seed: 6})
	gs := gart.NewStore(dataset.SNBSchema(), 0)
	if err := gs.LoadBatch(b); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(func() grin.Graph { return gs.Latest() }, Options{Shards: 1})
	plan, _ := cypher.Parse(`MATCH (p:Person) RETURN COUNT(p) AS c`, dataset.SNBSchema())
	if err := e.Install("count", plan); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := e.Call(context.Background(), "count", nil); err == nil {
		t.Fatal("closed engine accepted a call")
	}
	if _, err := e.OutputOf("nope"); err == nil {
		t.Fatal("unknown procedure output resolved")
	}
	if out, err := e.OutputOf("count"); err != nil || len(out) != 1 {
		t.Fatalf("OutputOf: %v %v", out, err)
	}
}
