package zkserve_test

import (
	"context"
	"testing"

	"repro/zkserve"
)

// aggOracle folds c1Val over the rows keep accepts, in [0, rows).
func aggOracle(rows int64, keep func(i int64) bool) zkserve.AggResult {
	want := zkserve.AggResult{Min: 1<<63 - 1, Max: -1 << 63}
	for i := int64(0); i < rows; i++ {
		if !keep(i) {
			continue
		}
		v := c1Val(i)
		want.Count++
		want.Sum += v
		want.Min = min(want.Min, v)
		want.Max = max(want.Max, v)
	}
	return want
}

// aggregateAtWorkers runs req with workers 1 and 2 and fails unless both
// return the same response body, apart from timing.
func aggregateAtWorkers(t *testing.T, cfg zkserve.Config, req zkserve.ScanRequest) zkserve.AggResponse {
	t.Helper()
	// MaxWorkers is pinned so the parallel path runs even at GOMAXPROCS=1.
	cfg.MaxWorkers = 4
	_, _, cl := newTestServer(t, cfg)
	var resps [2]zkserve.AggResponse
	for i, workers := range []int{1, 2} {
		req.Workers = workers
		resp, err := cl.Aggregate(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		resp.ElapsedMS = 0
		resps[i] = resp
	}
	if resps[0] != resps[1] {
		t.Fatalf("workers=1 gives %+v, workers=2 gives %+v", resps[0], resps[1])
	}
	return resps[0]
}

// TestAggregateWorkersMatchSequential checks that the wire workers field
// reaches aggregates without changing their answer: flat and
// multi-segment tables, a conjunction and an any_of disjunction, and a
// skip_corrupt scan whose loss accounting must not depend on how many
// goroutines met the corrupt block.
func TestAggregateWorkersMatchSequential(t *testing.T) {
	t.Run("flat", func(t *testing.T) {
		resp := aggregateAtWorkers(t, zkserve.Config{}, zkserve.ScanRequest{
			Table: "t", Agg: "all", AggCol: "c1", Preds: []zkserve.PredSpec{pred("c0", 700, 6999)},
		})
		if want := aggOracle(testRows, func(i int64) bool { return i >= 700 && i <= 6999 }); resp.Result != want {
			t.Fatalf("aggregate = %+v, want %+v", resp.Result, want)
		}
	})

	t.Run("multi-segment", func(t *testing.T) {
		dir := t.TempDir()
		total := buildShardedTable(t, dir, []int{900, 1300, 700, 2100})
		reg, err := zkserve.OpenDir(dir)
		if err != nil {
			t.Fatalf("OpenDir: %v", err)
		}
		defer reg.Close()
		resp := aggregateAtWorkers(t, zkserve.Config{Registry: reg}, zkserve.ScanRequest{
			Table: "st", Agg: "all", AggCol: "c1", Preds: []zkserve.PredSpec{pred("c1", 100, 800)},
		})
		want := aggOracle(int64(total), func(i int64) bool { v := c1Val(i); return v >= 100 && v <= 800 })
		if resp.Result != want {
			t.Fatalf("aggregate = %+v, want %+v", resp.Result, want)
		}
	})

	t.Run("any_of", func(t *testing.T) {
		req := anyOfReq(0)
		req.Agg, req.AggCol = "all", "c1"
		resp := aggregateAtWorkers(t, zkserve.Config{}, req)
		if want := aggOracle(testRows, anyOfMatch); resp.Result != want {
			t.Fatalf("aggregate = %+v, want %+v", resp.Result, want)
		}
	})

	t.Run("skip_corrupt", func(t *testing.T) {
		resp := aggregateAtWorkers(t, zkserve.Config{Registry: newFaultyRegistry(t)}, zkserve.ScanRequest{
			Table: "t", Agg: "all", AggCol: "c1", SkipCorrupt: true,
		})
		if !resp.Degraded || resp.BlocksSkipped != 1 || resp.RowsLost != testBV {
			t.Fatalf("degraded accounting = %+v", resp)
		}
		kept := func(i int64) bool { return i/testBV != faultBlock }
		if want := aggOracle(testRows, kept); resp.Result != want {
			t.Fatalf("aggregate = %+v, want %+v", resp.Result, want)
		}
	})
}
