package zukowski_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/zukowski"
)

// buildColumn writes vals through codec into a fresh in-memory container.
func buildSelectColumn[T zukowski.Integer](t testing.TB, codec zukowski.Codec[T], blockValues int, vals []T) *zukowski.ColumnReader[T] {
	t.Helper()
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter(&buf, codec, blockValues)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Write(vals); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := zukowski.OpenColumn[T](buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// selectOracle is the decode-then-filter reference ScanSelect must match
// byte for byte.
func selectOracle[T zukowski.Integer](t testing.TB, cr *zukowski.ColumnReader[T], lo, hi T) (rows []int64, vals []T) {
	t.Helper()
	all, err := cr.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range all {
		if v >= lo && v <= hi {
			rows = append(rows, int64(i))
			vals = append(vals, v)
		}
	}
	return rows, vals
}

// collectSelect gathers a full ScanSelect pass.
func collectSelect[T zukowski.Integer](t testing.TB, cr *zukowski.ColumnReader[T], lo, hi T) (rows []int64, vals []T) {
	t.Helper()
	err := cr.ScanSelect(lo, hi, func(r []int64, v []T) bool {
		if len(r) != len(v) {
			t.Fatalf("ScanSelect handed %d rows but %d values", len(r), len(v))
		}
		if len(r) == 0 {
			t.Fatal("ScanSelect delivered an empty batch")
		}
		rows = append(rows, r...)
		vals = append(vals, v...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, vals
}

func checkColumnSelect[T zukowski.Integer](t *testing.T, cr *zukowski.ColumnReader[T], lo, hi T) {
	t.Helper()
	wantRows, wantVals := selectOracle(t, cr, lo, hi)
	gotRows, gotVals := collectSelect(t, cr, lo, hi)
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("[%v,%v]: rows mismatch: got %d rows, want %d (first diff at %d)",
			lo, hi, len(gotRows), len(wantRows), firstDiff(gotRows, wantRows))
	}
	if !slices.Equal(gotVals, wantVals) {
		t.Fatalf("[%v,%v]: values mismatch", lo, hi)
	}

	agg, err := cr.AggregateWhere(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var want zukowski.Aggregate[T]
	for _, v := range wantVals {
		if want.Count == 0 {
			want.Min, want.Max = v, v
		} else {
			want.Min, want.Max = min(want.Min, v), max(want.Max, v)
		}
		want.Count++
		want.Sum += int64(v)
	}
	if agg != want {
		t.Fatalf("[%v,%v]: AggregateWhere = %+v, want %+v", lo, hi, agg, want)
	}
}

func firstDiff[E comparable](a, b []E) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// columnRanges picks predicate windows across the distribution, plus the
// degenerate shapes.
func columnRanges[T zukowski.Integer](vals []T) [][2]T {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := len(sorted)
	return [][2]T{
		{sorted[0], sorted[n-1]},
		{sorted[n/2], sorted[n/2]},
		{sorted[n/4], sorted[3*n/4]},
		{sorted[45*n/100], sorted[55*n/100]},
		{sorted[n-1] + 1, sorted[n-1] + 2}, // beyond max: zone maps prune all
		{sorted[n/2] + 1, sorted[n/2]},     // inverted
		{sorted[0], sorted[n/100]},
	}
}

// TestScanSelectOracleAllCodecs proves the acceptance contract: ScanSelect
// returns byte-for-byte identical (row, value) sets as decode-then-filter
// for every registered codec.
func TestScanSelectOracleAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := make([]int64, 40_000)
	for i := range vals {
		vals[i] = int64(rng.Intn(50))
		if rng.Intn(25) == 0 {
			vals[i] = 100 + int64(rng.Intn(27))
		}
	}
	for _, name := range zukowski.Codecs() {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			continue
		}
		t.Run(name, func(t *testing.T) {
			cr := buildSelectColumn(t, codec, 4096, vals)
			for _, r := range columnRanges(vals) {
				checkColumnSelect(t, cr, r[0], r[1])
			}
		})
	}
}

// TestScanSelectSchemes drives the compressed-domain paths directly:
// forced PFOR (with exception densities from none to heavy), PFOR-DELTA on
// sorted data, PDICT with a shuffled dictionary (non-contiguous code
// remaps), across signed and unsigned element types.
func TestScanSelectSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))

	t.Run("pfor-exceptions", func(t *testing.T) {
		for _, rate := range []float64{0, 0.02, 0.25} {
			vals := make([]int32, 30_000)
			for i := range vals {
				vals[i] = -200 + rng.Int31n(1<<9)
				if rng.Float64() < rate {
					vals[i] = rng.Int31() - rng.Int31()
				}
			}
			cr := buildSelectColumn(t, zukowski.PFOR[int32]{}, 3000, vals)
			for _, r := range columnRanges(vals) {
				checkColumnSelect(t, cr, r[0], r[1])
			}
		}
	})

	t.Run("pfor-delta-sorted", func(t *testing.T) {
		vals := make([]uint64, 30_000)
		acc := uint64(0)
		for i := range vals {
			acc += uint64(rng.Intn(7))
			vals[i] = acc
		}
		cr := buildSelectColumn(t, zukowski.PFORDelta[uint64]{}, 3000, vals)
		for _, r := range columnRanges(vals) {
			checkColumnSelect(t, cr, r[0], r[1])
		}
	})

	t.Run("pdict-skewed", func(t *testing.T) {
		dict := []uint16{900, 3, 77, 12, 500, 45, 8, 301}
		vals := make([]uint16, 25_000)
		for i := range vals {
			vals[i] = dict[rng.Intn(len(dict))]
			if rng.Intn(40) == 0 {
				vals[i] = 60_000 + uint16(rng.Intn(1000))
			}
		}
		cr := buildSelectColumn(t, zukowski.PDict[uint16]{}, 2500, vals)
		for _, r := range columnRanges(vals) {
			checkColumnSelect(t, cr, r[0], r[1])
		}
	})

	t.Run("uint8-full-domain", func(t *testing.T) {
		vals := make([]uint8, 20_000)
		for i := range vals {
			vals[i] = uint8(rng.Intn(256))
		}
		cr := buildSelectColumn(t, zukowski.Auto[uint8]{}, 1000, vals)
		for _, r := range columnRanges(vals) {
			checkColumnSelect(t, cr, r[0], r[1])
		}
	})
}

// TestScanSelectEarlyStop verifies fn returning false stops after the
// current batch, exactly like Scan.
func TestScanSelectEarlyStop(t *testing.T) {
	vals := make([]int64, 10_000)
	for i := range vals {
		vals[i] = int64(i)
	}
	cr := buildSelectColumn(t, zukowski.PFORDelta[int64]{}, 1000, vals)
	calls := 0
	err := cr.ScanSelect(0, 9999, func(rows []int64, v []int64) bool {
		calls++
		return calls < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times after early stop, want 3", calls)
	}
}

// TestParallelScanSelectEquivalence checks the parallel filtered scan
// against the sequential one: exact sequence with InOrder, same multiset
// unordered, plus early-stop and zero-match ranges.
func TestParallelScanSelectEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := make([]int64, 50_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 12)
		if rng.Intn(40) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	cr := buildSelectColumn[int64](t, zukowski.PFOR[int64]{}, 4000, vals)
	for _, r := range columnRanges(vals) {
		lo, hi := r[0], r[1]
		wantRows, wantVals := selectOracle(t, cr, lo, hi)

		for _, workers := range []int{2, 4} {
			var rows []int64
			var got []int64
			err := cr.ParallelScanSelect(lo, hi, workers, func(_ int, r []int64, v []int64) bool {
				rows = append(rows, r...)
				got = append(got, v...)
				return true
			}, zukowski.InOrder())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rows, wantRows) || !slices.Equal(got, wantVals) {
				t.Fatalf("[%v,%v] workers=%d ordered: mismatch vs sequential", lo, hi, workers)
			}

			// Unordered: same multiset, and within a batch rows ascend.
			type pair struct {
				row int64
				val int64
			}
			var pairs []pair
			err = cr.ParallelScanSelect(lo, hi, workers, func(_ int, r []int64, v []int64) bool {
				for i := range r {
					pairs = append(pairs, pair{r[i], v[i]})
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			slices.SortFunc(pairs, func(a, b pair) int {
				switch {
				case a.row < b.row:
					return -1
				case a.row > b.row:
					return 1
				}
				return 0
			})
			if len(pairs) != len(wantRows) {
				t.Fatalf("[%v,%v] workers=%d unordered: %d matches, want %d", lo, hi, workers, len(pairs), len(wantRows))
			}
			for i, p := range pairs {
				if p.row != wantRows[i] || p.val != wantVals[i] {
					t.Fatalf("[%v,%v] workers=%d unordered: pair %d = %+v, want (%d,%d)",
						lo, hi, workers, i, p, wantRows[i], wantVals[i])
				}
			}
		}
	}

	// Early stop: at most one more delivery after false.
	deliveries := 0
	err := cr.ParallelScanSelect(0, 1<<30, 4, func(int, []int64, []int64) bool {
		deliveries++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if deliveries != 1 {
		t.Fatalf("%d deliveries after immediate stop, want 1", deliveries)
	}
}

// TestScanSelectCorruptBlock flips one payload bit and expects the typed
// checksum error from every filtered entry point, sequential and parallel.
func TestScanSelectCorruptBlock(t *testing.T) {
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
	data[len(data)/3] ^= 0x40 // somewhere inside a middle block's payload

	cr, err := zukowski.OpenColumn[int64](data)
	if err != nil {
		t.Fatal(err) // directory is intact; the damage is in a payload
	}
	if err := cr.ScanSelect(0, 999, func([]int64, []int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("ScanSelect on corrupt block: %v, want ErrChecksumMismatch", err)
	}
	if _, err := cr.AggregateWhere(0, 999); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("AggregateWhere on corrupt block: %v, want ErrChecksumMismatch", err)
	}
	if err := cr.ParallelScanSelect(0, 999, 4, func(int, []int64, []int64) bool { return true }); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("ParallelScanSelect on corrupt block: %v, want ErrChecksumMismatch", err)
	}
	if err := cr.ParallelScanSelect(0, 999, 4, func(int, []int64, []int64) bool { return true }, zukowski.InOrder()); !errors.Is(err, zukowski.ErrChecksumMismatch) {
		t.Fatalf("ordered ParallelScanSelect on corrupt block: %v, want ErrChecksumMismatch", err)
	}
}

// TestScanSelectSteadyStateAllocs pins the 0 allocs/op contract of warmed
// sequential filtered scans.
func TestScanSelectSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is asserted in the non-race run")
	}
	rng := rand.New(rand.NewSource(24))
	vals := make([]int64, 64_000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	for _, name := range []string{"pfor", "pfor-delta", "pdict", "none"} {
		codec, err := zukowski.Lookup[int64](name)
		if err != nil {
			t.Fatal(err)
		}
		cr := buildSelectColumn(t, codec, 8000, vals)
		scan := func() {
			if err := cr.ScanSelect(10, 200, func([]int64, []int64) bool { return true }); err != nil {
				t.Fatal(err)
			}
			if _, err := cr.AggregateWhere(10, 200); err != nil {
				t.Fatal(err)
			}
		}
		scan() // warm the pooled state and block verification latches
		if avg := testing.AllocsPerRun(20, scan); avg != 0 {
			t.Errorf("%s: %v allocs/op on warmed ScanSelect+AggregateWhere, want 0", name, avg)
		}
	}
}

func BenchmarkScanSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	cr := buildSelectColumn(b, zukowski.PFOR[int64]{}, zukowski.DefaultBlockValues, vals)
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	lo, hi := sorted[45*len(sorted)/100], sorted[55*len(sorted)/100]
	raw := int64(len(vals) * 8)

	b.Run("ScanSelect-10pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var n int
			if err := cr.ScanSelect(lo, hi, func(rows []int64, v []int64) bool { n += len(rows); return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ScanWhere-filter-10pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		rows := make([]int64, 0, len(vals))
		out := make([]int64, 0, len(vals))
		for i := 0; i < b.N; i++ {
			base := 0
			if err := cr.ScanWhere(lo, hi, func(v []int64) bool {
				rows, out = rows[:0], out[:0]
				for j, x := range v {
					if x >= lo && x <= hi {
						rows = append(rows, int64(base+j))
						out = append(out, x)
					}
				}
				base += len(v)
				return true
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AggregateWhere-10pct", func(b *testing.B) {
		b.SetBytes(raw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cr.AggregateWhere(lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAggregateWhere measures ColumnReader.AggregateWhere over
// unsorted data (zone maps prune nothing) across selectivities: PFOR and
// PDICT on both sides of the per-group density switch (1%, 2% and 10%
// read codes row by row, 100% unpacks whole groups), and PFOR-DELTA,
// whose groups are decoded once per query whatever the selectivity.
func BenchmarkAggregateWhere(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	vals := make([]int64, 1<<20)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			vals[i] = rng.Int63n(1 << 30)
		}
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	raw := int64(len(vals) * 8)
	for _, c := range []struct {
		name  string
		codec zukowski.Codec[int64]
		pcts  []int
	}{
		{"pfor", zukowski.PFOR[int64]{}, []int{1, 2, 10, 100}},
		{"pdict", zukowski.PDict[int64]{}, []int{1, 2, 10, 100}},
		{"pfor-delta", zukowski.PFORDelta[int64]{}, []int{10, 50, 100}},
	} {
		cr := buildSelectColumn(b, c.codec, zukowski.DefaultBlockValues, vals)
		for _, pct := range c.pcts {
			mid := len(sorted) / 2
			half := pct * len(sorted) / 200
			lo, hi := sorted[mid-half], sorted[min(mid+half, len(sorted)-1)]
			if pct == 100 {
				lo = sorted[0]
			}
			b.Run(fmt.Sprintf("%s-%dpct", c.name, pct), func(b *testing.B) {
				b.SetBytes(raw)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := cr.AggregateWhere(lo, hi); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
