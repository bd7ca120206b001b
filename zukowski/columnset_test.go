package zukowski_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/zukowski"
)

// oracleWhereAll is the decode-then-filter reference of a conjunctive
// scan: decode every column in full, keep the rows where every predicate
// holds, and return their row numbers plus each column's values there.
func oracleWhereAll[T zukowski.Integer](t testing.TB, cols []*zukowski.ColumnReader[T], preds []zukowski.Pred[T]) (rows []int64, vals [][]T) {
	t.Helper()
	all := make([][]T, len(cols))
	for i, cr := range cols {
		var err error
		if all[i], err = cr.ReadAll(nil); err != nil {
			t.Fatal(err)
		}
	}
	vals = make([][]T, len(cols))
	for i := 0; i < cols[0].Len(); i++ {
		ok := true
		for _, p := range preds {
			if v := all[p.Col][i]; v < p.Lo || v > p.Hi {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rows = append(rows, int64(i))
		for c := range cols {
			vals[c] = append(vals[c], all[c][i])
		}
	}
	return rows, vals
}

// collectWhereAll gathers a full ScanWhereAll pass, checking the batch
// shape contract along the way.
func collectWhereAll[T zukowski.Integer](t testing.TB, cs *zukowski.ColumnSet[T], preds []zukowski.Pred[T]) (rows []int64, vals [][]T) {
	t.Helper()
	vals = make([][]T, cs.Columns())
	err := cs.ScanWhereAll(preds, func(r []int64, cols [][]T) bool {
		if len(r) == 0 {
			t.Fatal("ScanWhereAll delivered an empty batch")
		}
		if len(cols) != cs.Columns() {
			t.Fatalf("ScanWhereAll handed %d columns, set has %d", len(cols), cs.Columns())
		}
		for c := range cols {
			if len(cols[c]) != len(r) {
				t.Fatalf("column %d batch holds %d values for %d rows", c, len(cols[c]), len(r))
			}
			vals[c] = append(vals[c], cols[c]...)
		}
		rows = append(rows, r...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, vals
}

func checkWhereAll[T zukowski.Integer](t *testing.T, cs *zukowski.ColumnSet[T], cols []*zukowski.ColumnReader[T], preds []zukowski.Pred[T]) {
	t.Helper()
	wantRows, wantVals := oracleWhereAll(t, cols, preds)
	gotRows, gotVals := collectWhereAll(t, cs, preds)
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("preds %v: rows mismatch: got %d, want %d", preds, len(gotRows), len(wantRows))
	}
	for c := range wantVals {
		if !slices.Equal(gotVals[c], wantVals[c]) {
			t.Fatalf("preds %v: column %d values mismatch", preds, c)
		}
	}

	// The aggregate over each column must fold exactly the oracle's values.
	for c := range cols {
		agg, err := cs.AggregateWhereAll(preds, c)
		if err != nil {
			t.Fatal(err)
		}
		var want zukowski.Aggregate[T]
		for _, v := range wantVals[c] {
			if want.Count == 0 {
				want.Min, want.Max = v, v
			} else {
				want.Min, want.Max = min(want.Min, v), max(want.Max, v)
			}
			want.Count++
			want.Sum += int64(v)
		}
		if agg != want {
			t.Fatalf("preds %v col %d: AggregateWhereAll = %+v, want %+v", preds, c, agg, want)
		}
	}
}

// synthColumn builds unsorted values with outliers, the worst case for
// zone maps and the home turf of compressed-domain selection.
func synthColumn(rng *rand.Rand, n int) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 12)
		if rng.Intn(40) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	return vals
}

// TestScanWhereAllOracle drives conjunctive scans over two and three
// columns across codec mixes (patched, raw, baseline byte-stream) against
// the decode-then-filter oracle.
func TestScanWhereAllOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 40_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	c := make([]int64, n) // clustered: kind to zone maps, orders predicates
	for i := range c {
		c[i] = int64(i / 100)
	}

	codecMixes := [][]string{
		{"pfor", "pfor", "pfor-delta"},
		{"pfor", "pdict", "none"},
		{"auto", "for", "flate"},
	}
	for _, mix := range codecMixes {
		cols := make([]*zukowski.ColumnReader[int64], 3)
		for i, vals := range [][]int64{a, b, c} {
			codec, err := zukowski.Lookup[int64](mix[i])
			if err != nil {
				t.Fatal(err)
			}
			cols[i] = buildSelectColumn(t, codec, 3000, vals)
		}
		cs, err := zukowski.NewColumnSet(cols...)
		if err != nil {
			t.Fatal(err)
		}
		predSets := [][]zukowski.Pred[int64]{
			nil, // empty conjunction: every row
			{{Col: 0, Lo: 0, Hi: 100}},
			{{Col: 0, Lo: 0, Hi: 500}, {Col: 1, Lo: 0, Hi: 500}},
			{{Col: 0, Lo: 0, Hi: 2000}, {Col: 1, Lo: 100, Hi: 3000}, {Col: 2, Lo: 50, Hi: 250}},
			{{Col: 0, Lo: 0, Hi: 1 << 31}, {Col: 1, Lo: 0, Hi: 1 << 31}}, // everything matches
			{{Col: 0, Lo: -5, Hi: -1}, {Col: 1, Lo: 0, Hi: 100}},         // first predicate empty
			{{Col: 0, Lo: 10, Hi: 5}},                                    // inverted: trivially empty
			{{Col: 0, Lo: 0, Hi: 800}, {Col: 0, Lo: 400, Hi: 4000}},      // same column twice
			{{Col: 2, Lo: 100, Hi: 120}, {Col: 0, Lo: 0, Hi: 600}},       // zone-prunable first
		}
		for _, preds := range predSets {
			checkWhereAll(t, cs, cols, preds)
		}
	}
}

// TestScanWhereAllEdgeGeometry pins bitmap edge cases: tail rows not a
// multiple of 32, single-row blocks, a single-value column, and empty and
// full selections over each.
func TestScanWhereAllEdgeGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, tc := range []struct {
		name        string
		n           int
		blockValues int
	}{
		{"tail-rows", 1037, 100}, // last block 37 rows, 37%32 != 0
		{"odd-blocks", 999, 31},  // every block 31 rows
		{"single-row-blocks", 65, 1},
		{"one-value", 1, 10},
		{"exact-word", 4096, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := synthColumn(rng, tc.n)
			b := synthColumn(rng, tc.n)
			colA := buildSelectColumn(t, zukowski.PFOR[int64]{}, tc.blockValues, a)
			colB := buildSelectColumn(t, zukowski.Auto[int64]{}, tc.blockValues, b)
			cs, err := zukowski.NewColumnSet(colA, colB)
			if err != nil {
				t.Fatal(err)
			}
			for _, preds := range [][]zukowski.Pred[int64]{
				{{Col: 0, Lo: 0, Hi: 1 << 40}, {Col: 1, Lo: 0, Hi: 1 << 40}}, // full bitmap
				{{Col: 0, Lo: -10, Hi: -1}},                                  // empty bitmap
				{{Col: 0, Lo: 0, Hi: 300}, {Col: 1, Lo: 0, Hi: 300}},
				{{Col: 0, Lo: a[tc.n-1], Hi: a[tc.n-1]}}, // the very last row's value
			} {
				checkWhereAll(t, cs, []*zukowski.ColumnReader[int64]{colA, colB}, preds)
			}
		})
	}
}

// TestColumnSetMismatch pins the typed geometry error: differing row
// counts, differing block boundaries, and the empty set.
func TestColumnSetMismatch(t *testing.T) {
	a := make([]int64, 1000)
	for i := range a {
		a[i] = int64(i)
	}
	base := buildSelectColumn(t, zukowski.PFOR[int64]{}, 100, a)

	if _, err := zukowski.NewColumnSet[int64](); !errors.Is(err, zukowski.ErrColumnSetMismatch) {
		t.Fatalf("empty set: %v, want ErrColumnSetMismatch", err)
	}

	short := buildSelectColumn(t, zukowski.PFOR[int64]{}, 100, a[:999])
	if _, err := zukowski.NewColumnSet(base, short); !errors.Is(err, zukowski.ErrColumnSetMismatch) {
		t.Fatalf("row-count mismatch: %v, want ErrColumnSetMismatch", err)
	}

	skewed := buildSelectColumn(t, zukowski.PFOR[int64]{}, 125, a)
	if _, err := zukowski.NewColumnSet(base, skewed); !errors.Is(err, zukowski.ErrColumnSetMismatch) {
		t.Fatalf("block-boundary mismatch: %v, want ErrColumnSetMismatch", err)
	}

	// Same geometry, different codecs: fine.
	other := buildSelectColumn(t, zukowski.PFORDelta[int64]{}, 100, a)
	cs, err := zukowski.NewColumnSet(base, other)
	if err != nil {
		t.Fatal(err)
	}

	// Predicate addressing a column outside the set is a typed error.
	bad := []zukowski.Pred[int64]{{Col: 2, Lo: 0, Hi: 10}}
	if err := cs.ScanWhereAll(bad, func([]int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
		t.Fatalf("out-of-range predicate column: %v, want ErrIndexOutOfRange", err)
	}
	if _, err := cs.AggregateWhereAll(nil, 5); !errors.Is(err, zukowski.ErrIndexOutOfRange) {
		t.Fatalf("out-of-range aggregate column: %v, want ErrIndexOutOfRange", err)
	}
}

// TestParallelScanWhereAllMatchesSequential checks the parallel
// conjunctive scan against the sequential one: ordered mode byte for
// byte, unordered mode as a multiset keyed by block.
func TestParallelScanWhereAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 60_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	colA := buildSelectColumn(t, zukowski.PFOR[int64]{}, 2500, a)
	colB := buildSelectColumn(t, zukowski.PFORDelta[int64]{}, 2500, b)
	cs, err := zukowski.NewColumnSet(colA, colB)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 700}, {Col: 1, Lo: 0, Hi: 900}}

	seq := map[int]csBatch{}
	var seqOrder []int
	if err := cs.ParallelScanWhereAll(preds, 1, func(blk int, rows []int64, cols [][]int64) bool {
		seq[blk] = csBatch{slices.Clone(rows), slices.Clone(cols[0]), slices.Clone(cols[1])}
		seqOrder = append(seqOrder, blk)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("predicates selected nothing; test data broken")
	}

	for _, workers := range []int{2, 4, 8} {
		// Ordered: identical sequence of (block, rows, values).
		var order []int
		got := map[int]csBatch{}
		if err := cs.ParallelScanWhereAll(preds, workers, func(blk int, rows []int64, cols [][]int64) bool {
			order = append(order, blk)
			got[blk] = csBatch{slices.Clone(rows), slices.Clone(cols[0]), slices.Clone(cols[1])}
			return true
		}, zukowski.InOrder()); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(order, seqOrder) {
			t.Fatalf("%d workers ordered: block order %v, want %v", workers, order, seqOrder)
		}
		compareBatches(t, workers, got, seq)

		// Unordered: same multiset of per-block batches.
		got = map[int]csBatch{}
		if err := cs.ParallelScanWhereAll(preds, workers, func(blk int, rows []int64, cols [][]int64) bool {
			got[blk] = csBatch{slices.Clone(rows), slices.Clone(cols[0]), slices.Clone(cols[1])}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		compareBatches(t, workers, got, seq)
	}

	// Early stop: at most one more delivery after false.
	deliveries := 0
	if err := cs.ParallelScanWhereAll(preds, 4, func(int, []int64, [][]int64) bool {
		deliveries++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if deliveries != 1 {
		t.Fatalf("%d deliveries after immediate stop, want 1", deliveries)
	}
}

// csBatch is one delivered block of a two-column conjunctive scan.
type csBatch struct {
	rows []int64
	a, b []int64
}

func compareBatches(t *testing.T, workers int, got, want map[int]csBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d workers: %d delivered blocks, want %d", workers, len(got), len(want))
	}
	for blk, w := range want {
		g, ok := got[blk]
		if !ok {
			t.Fatalf("%d workers: block %d missing", workers, blk)
		}
		if !slices.Equal(g.rows, w.rows) || !slices.Equal(g.a, w.a) || !slices.Equal(g.b, w.b) {
			t.Fatalf("%d workers: block %d batch differs", workers, blk)
		}
	}
}

// TestScanWhereAllCorruptBlock flips a payload bit in one column and
// expects the typed checksum error from both scan forms and the
// aggregate.
func TestScanWhereAllCorruptBlock(t *testing.T) {
	vals := make([]int64, 20_000)
	for i := range vals {
		vals[i] = int64(i % 1000)
	}
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, zukowski.PFOR[int64]{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	data[len(data)/3] ^= 0x40
	bad, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err)
	}
	good := buildSelectColumn(t, zukowski.PFOR[int64]{}, 2000, vals)
	cs, err := zukowski.NewColumnSet(good, bad)
	if err != nil {
		t.Fatal(err)
	}
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 999}, {Col: 1, Lo: 0, Hi: 999}}
	if err := cs.ScanWhereAll(preds, func([]int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("ScanWhereAll on corrupt column: %v, want ErrChecksumMismatch", err)
	}
	if err := cs.ParallelScanWhereAll(preds, 4, func(int, []int64, [][]int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("ParallelScanWhereAll on corrupt column: %v, want ErrChecksumMismatch", err)
	}
	if _, err := cs.AggregateWhereAll(preds, 1); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("AggregateWhereAll on corrupt column: %v, want ErrChecksumMismatch", err)
	}
}

// TestScanWhereAllZKC1 runs the conjunction over containers without zone
// maps: no pruning, no ordering estimates, same answers.
func TestScanWhereAllZKC1(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n = 20_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	build := func(vals []int64) *zukowski.ColumnReader[int64] {
		var buf bytes.Buffer
		cw, err := zukowski.NewColumnWriter[int64](&buf, zukowski.PFOR[int64]{}, 1500,
			zukowski.WithFormatVersion(zukowski.FormatZKC1))
		if err != nil {
			t.Fatal(err)
		}
		if err := cw.Write(vals); err != nil {
			t.Fatal(err)
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		cr, err := zukowski.OpenColumn[int64](buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return cr
	}
	colA, colB := build(a), build(b)
	cs, err := zukowski.NewColumnSet(colA, colB)
	if err != nil {
		t.Fatal(err)
	}
	checkWhereAll(t, cs, []*zukowski.ColumnReader[int64]{colA, colB},
		[]zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 600}, {Col: 1, Lo: 0, Hi: 600}})
}

// TestScanWhereAllSteadyStateAllocs pins the 0 allocs/op contract of
// warmed sequential conjunctive scans and aggregates, RunAggregate with
// an optionless Query included.
func TestScanWhereAllSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	rng := rand.New(rand.NewSource(35))
	const n = 64_000
	a := synthColumn(rng, n)
	b := synthColumn(rng, n)
	for _, mix := range [][2]string{{"pfor", "pfor"}, {"pfor", "pfor-delta"}, {"pdict", "none"}} {
		codecA, err := zukowski.Lookup[int64](mix[0])
		if err != nil {
			t.Fatal(err)
		}
		codecB, err := zukowski.Lookup[int64](mix[1])
		if err != nil {
			t.Fatal(err)
		}
		colA := buildSelectColumn(t, codecA, 8000, a)
		colB := buildSelectColumn(t, codecB, 8000, b)
		cs, err := zukowski.NewColumnSet(colA, colB)
		if err != nil {
			t.Fatal(err)
		}
		preds := []zukowski.Pred[int64]{{Col: 0, Lo: 10, Hi: 400}, {Col: 1, Lo: 10, Hi: 2000}}
		scan := func() {
			if err := cs.ScanWhereAll(preds, func([]int64, [][]int64) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.AggregateWhereAll(preds, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.RunAggregate(context.Background(), zukowski.Query[int64]{Preds: preds}, 0); err != nil {
				t.Fatal(err)
			}
		}
		scan() // warm the pooled state and verification latches
		if avg := testing.AllocsPerRun(20, scan); avg != 0 {
			t.Errorf("%s+%s: %v allocs/op on warmed ScanWhereAll+AggregateWhereAll+RunAggregate, want 0", mix[0], mix[1], avg)
		}
	}
}

func BenchmarkScanWhereAll(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	const n = 1 << 20
	av := synthColumn(rng, n)
	bv := synthColumn(rng, n)
	colA := buildSelectColumn(b, zukowski.PFOR[int64]{}, zukowski.DefaultBlockValues, av)
	colB := buildSelectColumn(b, zukowski.PFOR[int64]{}, zukowski.DefaultBlockValues, bv)
	cs, err := zukowski.NewColumnSet(colA, colB)
	if err != nil {
		b.Fatal(err)
	}
	raw := int64(2 * n * 8)
	// ~10% per column => ~1% conjunctive.
	preds := []zukowski.Pred[int64]{{Col: 0, Lo: 0, Hi: 400}, {Col: 1, Lo: 0, Hi: 400}}

	b.Run("ScanWhereAll-1pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := cs.ScanWhereAll(preds, func([]int64, [][]int64) bool { return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-then-filter-1pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		bufA := make([]int64, 0, zukowski.DefaultBlockValues)
		bufB := make([]int64, 0, zukowski.DefaultBlockValues)
		rows := make([]int64, 0, n)
		outA := make([]int64, 0, n)
		outB := make([]int64, 0, n)
		for i := 0; i < b.N; i++ {
			rows, outA, outB = rows[:0], outA[:0], outB[:0]
			base := int64(0)
			for blk := 0; blk < colA.NumBlocks(); blk++ {
				var err error
				if bufA, err = colA.ReadBlock(blk, bufA[:0]); err != nil {
					b.Fatal(err)
				}
				if bufB, err = colB.ReadBlock(blk, bufB[:0]); err != nil {
					b.Fatal(err)
				}
				for j := range bufA {
					if bufA[j] >= 0 && bufA[j] <= 400 && bufB[j] >= 0 && bufB[j] <= 400 {
						rows = append(rows, base+int64(j))
						outA = append(outA, bufA[j])
						outB = append(outB, bufB[j])
					}
				}
				base += int64(len(bufA))
			}
		}
	})
	b.Run("AggregateWhereAll-1pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cs.AggregateWhereAll(preds, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
