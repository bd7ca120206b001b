package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zukowski"
)

// serve-rows: one closed-loop client sends NDJSON row requests over a
// loopback socket to a flat table whose blocks all sit in a warmed
// cache. The predicate is a window on the sorted column c0, so zone maps
// prune; windows cycle through 0.1%, 1% and 10% of its range and the
// output is c0,c1. This is the delivery-bound path: row encoding in
// zkserve and parsing in the client. One client rather than two: with
// two clients and two handlers on two CPUs, requests queued for a CPU
// and the run-to-run spread of every metric doubled.

const (
	rowsTable   = "t"
	rowsWindows = 300 // seeded windows, cycled in order
	rowsCallers = 1
	rowsCols    = 4
)

// rowsWindow is one request and its oracle.
type rowsWindow struct {
	req         zkserve.ScanRequest
	lo, hi      int64
	count       int64
	sum0, sum1  int64
	scannedRows int64 // rows in blocks the zone maps cannot prune
}

type rowsBench struct {
	e        *env
	cols     [][]int64
	windows  []rowsWindow
	s        *served
	tdir     string
	setupS   float64
	ingestMB float64
}

func newRowsBench(e *env) (*rowsBench, error) {
	n := e.sz.rowsRows
	rng := rand.New(rand.NewSource(subSeed(e.seed, 1)))
	b := &rowsBench{e: e, cols: make([][]int64, rowsCols)}
	b.cols[0] = sortedNoise(rng, n, 3)
	for c := 1; c < rowsCols; c++ {
		b.cols[c] = skewed(rng, n, 10, 0.02)
	}
	b.windows = rowsOracle(e.seed, b.cols[0], b.cols[1], e.sz.blockValues)

	dir := filepath.Join(e.dir, "rows")
	b.tdir = filepath.Join(dir, rowsTable)
	if err := b.write(); err != nil {
		return nil, err
	}
	s, setupS, err := setupMedian(e.sz.quickSetups, func() (*served, float64, error) { return b.start(dir) },
		func(s *served) error { return s.close() })
	if err != nil {
		return nil, err
	}
	b.s, b.setupS = s, setupS
	return b, nil
}

// rowsOracle draws the seeded window list and answers every window from
// the raw columns: c0 never decreases, so a window is a row range.
func rowsOracle(seed int64, c0, c1 []int64, bv int) []rowsWindow {
	rng := rand.New(rand.NewSource(subSeed(seed, 2)))
	n := len(c0)
	span := c0[n-1] - c0[0]
	fracs := []float64{0.001, 0.01, 0.1}
	ws := make([]rowsWindow, rowsWindows)
	for i := range ws {
		width := max(int64(fracs[i%len(fracs)]*float64(span)), 1)
		lo := c0[0] + rng.Int63n(span-width+2)
		hi := lo + width - 1
		w := &ws[i]
		w.lo, w.hi = lo, hi
		a := sort.Search(n, func(j int) bool { return c0[j] >= lo })
		z := sort.Search(n, func(j int) bool { return c0[j] > hi })
		w.count = int64(z - a)
		for j := a; j < z; j++ {
			w.sum0 += c0[j]
			w.sum1 += c1[j]
		}
		for s := 0; s < n; s += bv {
			e := min(s+bv, n)
			if c0[s] <= hi && c0[e-1] >= lo {
				w.scannedRows += int64(e - s)
			}
		}
		w.req = zkserve.ScanRequest{
			Table: rowsTable,
			Cols:  []string{"c0", "c1"},
			Preds: []zkserve.PredSpec{{Col: "c0", Lo: &w.lo, Hi: &w.hi}},
		}
	}
	return ws
}

// write encodes the generated columns into the flat table once and
// records the encode-and-write throughput in MB/s of raw values.
func (b *rowsBench) write() error {
	if err := os.MkdirAll(b.tdir, 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	for c, vals := range b.cols {
		path := filepath.Join(b.tdir, fmt.Sprintf("c%d.zkc", c))
		if err := zukowski.WriteColumnAtomic[int64](path, nil, b.e.sz.blockValues, vals); err != nil {
			return err
		}
	}
	b.ingestMB = float64(len(b.cols)*len(b.cols[0])*8) / 1e6 / time.Since(t0).Seconds()
	return nil
}

// start is one set-up: open the table directory, serve it and warm the
// cache with every block of the two columns requests touch.
func (b *rowsBench) start(dir string) (*served, float64, error) {
	t0 := time.Now()
	s, err := serve(dir, b.e.sz.rowsCache)
	if err != nil {
		return nil, 0, err
	}
	zero := int64(0)
	for _, col := range []string{"c0", "c1"} {
		req := zkserve.ScanRequest{Table: rowsTable, Cols: []string{col}, Preds: []zkserve.PredSpec{{Col: "c0", Lo: &zero}}, Agg: "sum"}
		if w := serveInProcess(s.srv, req, false); w.status != 200 {
			s.close()
			return nil, 0, fmt.Errorf("serve-rows: warming request returned %d", w.status)
		}
	}
	return s, time.Since(t0).Seconds(), nil
}

func (b *rowsBench) close() error { return b.s.close() }

// scan sends window i's request through cl and checks the rows against
// the oracle.
func (b *rowsBench) scan(cl *client.Client, i int64) (*rowsWindow, client.ScanResult, error) {
	w := &b.windows[i%int64(len(b.windows))]
	var n, s0, s1 int64
	res, err := cl.ScanRows(context.Background(), w.req, func(_ int64, v []int64) bool {
		n++
		s0 += v[0]
		s1 += v[1]
		return true
	})
	if err != nil {
		return w, res, err
	}
	if res.Truncated || n != w.count || res.Rows != w.count || s0 != w.sum0 || s1 != w.sum1 {
		return w, res, fmt.Errorf("serve-rows: window [%d,%d]: got %d rows (sums %d,%d), want %d (%d,%d)",
			w.lo, w.hi, n, s0, s1, w.count, w.sum0, w.sum1)
	}
	return w, res, nil
}

func runServeRows(e *env) (*outcome, error) {
	b, err := newRowsBench(e)
	if err != nil {
		return nil, err
	}
	defer b.close()
	out := newOutcome()
	cl := client.New(b.s.url, httpClient(rowsCallers))
	op := func(i int64) (float64, float64, error) {
		w, _, err := b.scan(cl, i)
		return float64(w.count), float64(w.scannedRows * 2 * 8), err
	}
	e.loopMetrics(out, measure(e, rowsCallers, out, op))
	out.set("setup_s", b.setupS)
	out.set("ingest_mb_per_s", b.ingestMB)
	stored, err := dirBytes(b.tdir)
	if err != nil {
		return nil, err
	}
	out.set("stored_bytes_per_value", float64(stored)/float64(rowsCols*e.sz.rowsRows))
	return out, nil
}
