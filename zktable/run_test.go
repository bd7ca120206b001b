package zktable_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/zktable"
	"repro/zukowski"
)

// quarantinedTable builds a table of the given segments and truncates a
// column file of segment victim (1-based id), so Open quarantines it.
func quarantinedTable(t *testing.T, segs [][][]int64, victim int) *zktable.Table[int64] {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "tbl")
	tb := mustCreate(t, dir, zktable.Options{})
	for _, s := range segs {
		mustAppend(t, tb, s)
	}
	tb.Close()
	path := filepath.Join(dir, fmt.Sprintf("seg-%08d-d.zkc", victim))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	tb2, rep, err := zktable.Open[int64](dir, zktable.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { tb2.Close() })
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Seg != uint64(victim) {
		t.Fatalf("Quarantined = %+v, want segment %d", rep.Quarantined, victim)
	}
	return tb2
}

// TestTableRunColumnChecks: a query naming a column outside the schema
// fails with ErrIndexOutOfRange whatever the table holds — no segments,
// live segments, or only skipped quarantined ones.
func TestTableRunColumnChecks(t *testing.T) {
	ctx := context.Background()
	bad := []zukowski.Query[int64]{
		{Preds: []zukowski.Pred[int64]{{Col: 7}}},
		{Expr: zukowski.Range[int64](3, 0, 1)},
		{Cols: []int{0, 3}},
	}
	check := func(name string, tb *zktable.Table[int64]) {
		t.Helper()
		if _, err := tb.AggregateWhereAll([]zukowski.Pred[int64]{{Col: 7}}, 5); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
			t.Errorf("%s: AggregateWhereAll = %v, want ErrIndexOutOfRange", name, err)
		}
		if _, err := tb.RunAggregate(ctx, zukowski.Query[int64]{SkipCorrupt: true}, 3); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
			t.Errorf("%s: aggregate column 3 = %v, want ErrIndexOutOfRange", name, err)
		}
		for i, q := range bad {
			q.SkipCorrupt = true
			if err := tb.Run(ctx, q, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
				t.Errorf("%s: query %d Run = %v, want ErrIndexOutOfRange", name, i, err)
			}
			if _, err := tb.RunAggregate(ctx, q, 0); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
				t.Errorf("%s: query %d RunAggregate = %v, want ErrIndexOutOfRange", name, i, err)
			}
		}
	}

	tb := mustCreate(t, filepath.Join(t.TempDir(), "tbl"), zktable.Options{})
	defer tb.Close()
	check("empty table", tb)
	mustAppend(t, tb, synthCols(60, 700))
	check("one segment", tb)
	check("all quarantined", quarantinedTable(t, [][][]int64{synthCols(61, 900)}, 1))
}

// runBatch is one delivered block of a table scan.
type runBatch struct {
	block int
	rows  []int64
	cols  [][]int64
}

// TestTableRunDifferential checks Table.Run and RunAggregate against a
// scalar oracle over the appended values: four segments, the third
// quarantined and skipped under SkipCorrupt, random conjunctions plus an
// Or(And(Range…)) expression, 1, 2 or 4 workers, ordered and unordered
// delivery, and a random output projection. Global rows, global block
// indices, values, the aggregate and the loss report must all match.
func TestTableRunDifferential(t *testing.T) {
	segs := [][][]int64{synthCols(70, 1700), synthCols(71, 900), synthCols(72, 1300), synthCols(73, 2100)}
	const victim = 3
	tb := quarantinedTable(t, segs, victim)
	ctx := context.Background()

	// Global numbering from the committed layout; the quarantined
	// segment's rows and blocks keep their place.
	all := appendAll(segs...)
	var live []bool
	var blockOf []int
	block, lostBlocks, lostRows := 0, 0, int64(0)
	for i, s := range segs {
		counts := tb.SegmentBlockRows(i)
		for _, c := range counts {
			for range c {
				blockOf = append(blockOf, block)
				live = append(live, i+1 != victim)
			}
			block++
		}
		if i+1 == victim {
			lostBlocks, lostRows = len(counts), int64(len(s[0]))
		}
	}

	if err := tb.Run(ctx, zukowski.Query[int64]{}, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zktable.ErrSegmentQuarantined) {
		t.Fatalf("exact Run over a quarantined segment = %v, want ErrSegmentQuarantined", err)
	}

	rng := rand.New(rand.NewSource(74))
	for iter := 0; iter < 24; iter++ {
		var preds []zukowski.Pred[int64]
		for range rng.Intn(3) {
			c := rng.Intn(len(testSchema))
			lo := all[c][rng.Intn(len(all[c]))]
			hi := all[c][rng.Intn(len(all[c]))]
			preds = append(preds, zukowski.Pred[int64]{Col: c, Lo: min(lo, hi), Hi: max(lo, hi)})
		}
		a0, a1, b0 := rng.Int63n(1000), rng.Int63n(1000), rng.Int63n(64)-32
		expr := zukowski.Or(
			zukowski.And(zukowski.Range[int64](1, min(a0, a1), max(a0, a1)), zukowski.Range[int64](2, b0, b0+16)),
			zukowski.Range[int64](2, 25, 31),
		)
		match := func(r int) bool {
			for _, p := range preds {
				if v := all[p.Col][r]; v < p.Lo || v > p.Hi {
					return false
				}
			}
			v1, v2 := all[1][r], all[2][r]
			return (v1 >= min(a0, a1) && v1 <= max(a0, a1) && v2 >= b0 && v2 <= b0+16) || (v2 >= 25 && v2 <= 31)
		}
		var cols []int
		if iter%3 == 1 {
			cols = []int{2, 0}
		}
		outCols := cols
		if outCols == nil {
			outCols = []int{0, 1, 2}
		}
		var want runBatch
		want.cols = make([][]int64, len(outCols))
		var wantAgg zukowski.Aggregate[int64]
		var wantBlocks []int
		for r := range all[0] {
			if !live[r] || !match(r) {
				continue
			}
			want.rows = append(want.rows, int64(r))
			for i, c := range outCols {
				want.cols[i] = append(want.cols[i], all[c][r])
			}
			if len(wantBlocks) == 0 || wantBlocks[len(wantBlocks)-1] != blockOf[r] {
				wantBlocks = append(wantBlocks, blockOf[r])
			}
			v := all[1][r]
			if wantAgg.Count == 0 {
				wantAgg.Min, wantAgg.Max = v, v
			}
			wantAgg.Count++
			wantAgg.Sum += v
			wantAgg.Min, wantAgg.Max = min(wantAgg.Min, v), max(wantAgg.Max, v)
		}

		for _, workers := range []int{1, 2, 4} {
			for _, inOrder := range []bool{false, true} {
				name := fmt.Sprintf("iter %d workers %d inOrder %v", iter, workers, inOrder)
				var rep zukowski.ScanReport
				q := zukowski.Query[int64]{Preds: preds, Expr: expr, Cols: cols, Workers: workers, InOrder: inOrder, SkipCorrupt: true, Report: &rep}
				var got []runBatch
				err := tb.Run(ctx, q, func(block int, rows []int64, vals [][]int64) bool {
					b := runBatch{block: block, rows: slices.Clone(rows)}
					for _, v := range vals {
						b.cols = append(b.cols, slices.Clone(v))
					}
					got = append(got, b)
					return true
				})
				if err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
				ordered := slices.IsSortedFunc(got, func(x, y runBatch) int { return x.block - y.block })
				if (inOrder || workers == 1) && !ordered {
					t.Fatalf("%s: blocks delivered out of order", name)
				}
				slices.SortFunc(got, func(x, y runBatch) int { return x.block - y.block })
				var flat runBatch
				flat.cols = make([][]int64, len(outCols))
				var gotBlocks []int
				for _, b := range got {
					for _, r := range b.rows {
						if blockOf[r] != b.block {
							t.Fatalf("%s: row %d delivered in block %d, lives in block %d", name, r, b.block, blockOf[r])
						}
					}
					gotBlocks = append(gotBlocks, b.block)
					flat.rows = append(flat.rows, b.rows...)
					for i := range b.cols {
						flat.cols[i] = append(flat.cols[i], b.cols[i]...)
					}
				}
				if !slices.Equal(gotBlocks, wantBlocks) || !slices.Equal(flat.rows, want.rows) {
					t.Fatalf("%s: %d rows in blocks %v, oracle %d rows in blocks %v", name, len(flat.rows), gotBlocks, len(want.rows), wantBlocks)
				}
				for i := range outCols {
					if !slices.Equal(flat.cols[i], want.cols[i]) {
						t.Fatalf("%s: output column %d values differ from oracle", name, i)
					}
				}
				if rep.BlocksSkipped != lostBlocks || rep.RowsLost != lostRows {
					t.Fatalf("%s: Run report %d blocks / %d rows, want %d / %d", name, rep.BlocksSkipped, rep.RowsLost, lostBlocks, lostRows)
				}

				var arep zukowski.ScanReport
				q.Report = &arep
				agg, err := tb.RunAggregate(ctx, q, 1)
				if err != nil {
					t.Fatalf("%s: RunAggregate: %v", name, err)
				}
				if agg != wantAgg {
					t.Fatalf("%s: RunAggregate = %+v, oracle %+v", name, agg, wantAgg)
				}
				if arep.BlocksSkipped != lostBlocks || arep.RowsLost != lostRows {
					t.Fatalf("%s: RunAggregate report %d blocks / %d rows, want %d / %d", name, arep.BlocksSkipped, arep.RowsLost, lostBlocks, lostRows)
				}
			}
		}
	}
}

// TestTableRunContext: Table.Run and RunAggregate stop with ctx.Err() —
// before the first delivery under a dead context, and at the next block
// once fn cancels mid-scan, including across a segment boundary.
func TestTableRunContext(t *testing.T) {
	tb := mustCreate(t, filepath.Join(t.TempDir(), "tbl"), zktable.Options{})
	defer tb.Close()
	mustAppend(t, tb, synthCols(80, 2*testBV))
	mustAppend(t, tb, synthCols(81, 3*testBV))

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		q := zukowski.Query[int64]{Workers: workers}
		calls := 0
		if err := tb.Run(dead, q, func(int, []int64, [][]int64) bool { calls++; return true }); !errors.Is(err, context.Canceled) || calls != 0 {
			t.Fatalf("workers=%d: Run under a dead context = %v after %d deliveries, want context.Canceled after 0", workers, err, calls)
		}
		if _, err := tb.RunAggregate(dead, q, 0); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: RunAggregate under a dead context = %v, want context.Canceled", workers, err)
		}
	}

	// Cancel on the last block of the first segment: the scan must not
	// start the second one.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var blocks []int
	err := tb.Run(ctx, zukowski.Query[int64]{}, func(block int, _ []int64, _ [][]int64) bool {
		blocks = append(blocks, block)
		if block == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) || !slices.Equal(blocks, []int{0, 1}) {
		t.Fatalf("mid-scan cancel: err = %v after blocks %v, want context.Canceled after [0 1]", err, blocks)
	}

	// Under SkipCorrupt, a scan cancelled before a quarantined segment
	// stops there: the segment's loss is not accounted.
	qt := quarantinedTable(t, [][][]int64{synthCols(82, 2*testBV), synthCols(83, testBV), synthCols(84, testBV)}, 2)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var rep zukowski.ScanReport
	err = qt.Run(ctx, zukowski.Query[int64]{SkipCorrupt: true, Report: &rep}, func(block int, _ []int64, _ [][]int64) bool {
		if block == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) || rep.BlocksSkipped != 0 {
		t.Fatalf("cancel before a quarantined segment: err = %v, %d blocks accounted lost; want context.Canceled, 0", err, rep.BlocksSkipped)
	}
}
