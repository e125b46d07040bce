package bench

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/grin"
	"repro/internal/query/cypher"
	"repro/internal/query/hiactor"
	"repro/internal/storage/gart"
)

// TestConcurrentlySurfacesErrors pins the worker helper the throughput
// loops run on: every worker runs to completion, and the lowest-numbered
// failing worker's error is returned.
func TestConcurrentlySurfacesErrors(t *testing.T) {
	var ran atomic.Int32
	errA, errB := errors.New("a"), errors.New("b")
	err := concurrently(4, func(w int) error {
		ran.Add(1)
		switch w {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want the lowest-numbered worker's error %v", err, errA)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d of 4 workers ran", ran.Load())
	}
	if err := concurrently(3, func(int) error { return nil }); err != nil {
		t.Fatalf("no failing worker, got %v", err)
	}
}

// TestDetectLoopSurfacesCallErrors runs table2's detect loop shape against
// a HiActor engine where one worker's calls fail (a missing parameter):
// the failure must come back instead of counting as a check.
func TestDetectLoopSurfacesCallErrors(t *testing.T) {
	opt := dataset.FraudOptions{Accounts: 40, Items: 10, Seeds: 15, Seed: 1}
	gs := gart.NewStore(dataset.FraudSchema(), 0)
	if err := gs.LoadBatch(dataset.FraudBase(opt)); err != nil {
		t.Fatal(err)
	}
	plan, err := cypher.Parse(`MATCH (v:Account)-[:BUY]->(i:Item)<-[:BUY]-(s:Account)
WHERE id(v) = $acct AND id(s) < 15 RETURN id(s)`, dataset.FraudSchema())
	if err != nil {
		t.Fatal(err)
	}
	he := hiactor.NewEngine(func() grin.Graph { return gs.Latest() }, hiactor.Options{Shards: 2})
	defer he.Close()
	if err := he.Install("detect", plan); err != nil {
		t.Fatal(err)
	}
	err = concurrently(2, func(w int) error {
		params := map[string]graph.Value{"acct": graph.IntValue(int64(w))}
		if w == 1 {
			params = nil
		}
		_, err := he.Call(benchCtx, "detect", params)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "acct") {
		t.Fatalf("detect loop swallowed the failing call: %v", err)
	}
}
