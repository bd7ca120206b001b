package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
)

// serve-agg: one closed-loop client sends aggregate requests asking for
// two workers to a zktable of many segments whose block cache is smaller
// than the columns the requests touch, so every request reads, verifies
// and decodes from the source. The predicate is a window on c1 (skewed,
// its zone maps span the whole range, nothing is pruned) and the
// aggregate is over c2; every second request sends its window as a
// two-branch any_of. This is the decode-bound path.

const (
	aggTable   = "t"
	aggReqs    = 30 // seeded requests, cycled in order
	aggCols    = 3
	aggWorkers = 2
	aggDomain  = 1024 // c1's window holds values in [0, aggDomain)
)

// aggRequest is one request and its oracle.
type aggRequest struct {
	req    zkserve.ScanRequest
	lo, hi int64
	anyOf  bool
	want   aggStat
}

type aggBench struct {
	e        *env
	reqs     []aggRequest
	rows     int64
	s        *served
	tdir     string
	setupS   float64
	ingestMB float64
}

// aggSegment generates segment s's columns.
func aggSegment(seed int64, s, rows int) [][]int64 {
	rng := rand.New(rand.NewSource(subSeed(seed, int64(100+s))))
	return [][]int64{sortedNoise(rng, rows, 3), skewed(rng, rows, 10, 0.02), skewed(rng, rows, 10, 0.02)}
}

func newAggBench(e *env) (*aggBench, error) {
	b := &aggBench{e: e, rows: int64(e.sz.aggSegs * e.sz.aggSegRows)}
	rng := rand.New(rand.NewSource(subSeed(e.seed, 3)))
	fracs := []float64{0.1, 0.5, 1}
	b.reqs = make([]aggRequest, aggReqs)
	for i := range b.reqs {
		r := &b.reqs[i]
		width := int64(fracs[i%len(fracs)] * aggDomain)
		r.lo = rng.Int63n(aggDomain - width + 1)
		r.hi = r.lo + width - 1
		r.anyOf = i%2 == 1
		r.req = aggScanRequest(r.lo, r.hi, r.anyOf)
	}
	dir := filepath.Join(e.dir, "agg")
	b.tdir = filepath.Join(dir, aggTable)
	if err := b.write(); err != nil {
		return nil, err
	}
	start := func() (*served, float64, error) {
		t0 := time.Now()
		s, err := serve(dir, e.sz.aggCache)
		return s, time.Since(t0).Seconds(), err
	}
	s, setupS, err := setupMedian(e.sz.quickSetups, start, func(s *served) error { return s.close() })
	if err != nil {
		return nil, err
	}
	b.s, b.setupS = s, setupS
	return b, nil
}

// aggScanRequest builds the wire request for c1 in [lo, hi], sent as
// one conjunct or as the same window split into two any_of branches.
func aggScanRequest(lo, hi int64, anyOf bool) zkserve.ScanRequest {
	req := zkserve.ScanRequest{Table: aggTable, Cols: []string{"c2"}, Agg: "all", AggCol: "c2", Workers: aggWorkers}
	if !anyOf {
		req.Preds = []zkserve.PredSpec{{Col: "c1", Lo: &lo, Hi: &hi}}
		return req
	}
	mid := lo + (hi-lo)/2
	mid1 := mid + 1
	req.AnyOf = client.AnyOf(
		[]zkserve.PredSpec{{Col: "c1", Lo: &lo, Hi: &mid}},
		[]zkserve.PredSpec{{Col: "c1", Lo: &mid1, Hi: &hi}},
	)
	return req
}

// write generates the segments and commits them to the zktable once,
// folding each into the request oracles, and records the encode-and-
// commit throughput in MB/s of raw values (generation excluded).
func (b *aggBench) write() error {
	var spent time.Duration
	t0 := time.Now()
	tb, err := zktable.Create[int64](b.tdir, []string{"c0", "c1", "c2"}, b.e.sz.blockValues, zktable.Options{})
	if err != nil {
		return err
	}
	spent += time.Since(t0)
	for s := 0; s < b.e.sz.aggSegs; s++ {
		seg := aggSegment(b.e.seed, s, b.e.sz.aggSegRows)
		b.fold(seg)
		t0 = time.Now()
		if _, err := tb.Append(seg); err != nil {
			tb.Close()
			return err
		}
		spent += time.Since(t0)
		// Drop each segment's garbage before generating the next, so the
		// peak resident set does not depend on when the collector ran.
		runtime.GC()
	}
	t0 = time.Now()
	if err := tb.Close(); err != nil {
		return err
	}
	spent += time.Since(t0)
	b.ingestMB = float64(b.rows*aggCols*8) / 1e6 / spent.Seconds()
	return nil
}

// fold adds one segment's rows to every request's oracle: c2 is
// aggregated per c1 value once, then each window merges its values.
func (b *aggBench) fold(seg [][]int64) {
	var byValue [aggDomain]aggStat
	for j, v := range seg[1] {
		if v >= 0 && v < aggDomain {
			byValue[v].add(seg[2][j])
		}
	}
	for i := range b.reqs {
		r := &b.reqs[i]
		for v := r.lo; v <= r.hi; v++ {
			r.want.merge(byValue[v])
		}
	}
}

// check compares an aggregate answer with request i's oracle.
func (b *aggBench) check(i int, got zkserve.AggResult) error {
	w := b.reqs[i].want
	if got.Count != w.count || got.Sum != w.sum || (w.count > 0 && (got.Min != w.min || got.Max != w.max)) {
		return fmt.Errorf("serve-agg: c1 in [%d,%d]: got %+v, want count %d sum %d min %d max %d",
			b.reqs[i].lo, b.reqs[i].hi, got, w.count, w.sum, w.min, w.max)
	}
	return nil
}

func (b *aggBench) close() error { return b.s.close() }

func runServeAgg(e *env) (*outcome, error) {
	b, err := newAggBench(e)
	if err != nil {
		return nil, err
	}
	defer b.close()
	out := newOutcome()
	cl := client.New(b.s.url, httpClient(1))
	op := func(i int64) (float64, float64, error) {
		k := int(i % int64(len(b.reqs)))
		res, err := cl.Aggregate(context.Background(), b.reqs[k].req)
		if err != nil {
			return 0, 0, err
		}
		if err := b.check(k, res.Result); err != nil {
			return 0, 0, err
		}
		return float64(res.Result.Count), float64(b.rows * 2 * 8), nil
	}
	e.loopMetrics(out, measure(e, 1, out, op))
	out.set("setup_s", b.setupS)
	out.set("ingest_mb_per_s", b.ingestMB)
	stored, err := dirBytes(b.tdir)
	if err != nil {
		return nil, err
	}
	out.set("stored_bytes_per_value", float64(stored)/float64(b.rows*aggCols))
	return out, nil
}
