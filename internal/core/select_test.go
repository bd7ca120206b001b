package core

import (
	"math/rand"
	"slices"
	"testing"
)

// selectOracle filters decompressed values the straightforward way.
func selectOracleCore[T Integer](blk *Block[T], lo, hi T) (sel []int32, vals []T) {
	dst := make([]T, blk.N)
	Decompress(blk, dst)
	for i, v := range dst {
		if v >= lo && v <= hi {
			sel = append(sel, int32(i))
			vals = append(vals, v)
		}
	}
	return sel, vals
}

func checkSelect[T Integer](t *testing.T, name string, blk *Block[T], lo, hi T) {
	t.Helper()
	var d Decoder[T]
	wantSel, wantVals := selectOracleCore(blk, lo, hi)
	gotSel, gotVals := d.DecompressWhere(blk, lo, hi, nil, nil)
	if !slices.Equal(gotSel, wantSel) {
		t.Fatalf("%s [%v,%v]: sel mismatch\n got %v\nwant %v", name, lo, hi, gotSel, wantSel)
	}
	if !slices.Equal(gotVals, wantVals) {
		t.Fatalf("%s [%v,%v]: vals mismatch\n got %v\nwant %v", name, lo, hi, gotVals, wantVals)
	}

	want := aggregateOracle(wantVals)
	got := d.AggregateWhere(blk, lo, hi)
	if got != want {
		t.Fatalf("%s [%v,%v]: aggregate = %+v, want %+v", name, lo, hi, got, want)
	}

	// The mask path: DecompressMask selects the same rows, and
	// AggregateSelected over that mask folds the same aggregate.
	var sv SelectionVector
	d.DecompressMask(blk, lo, hi, &sv)
	var maskRows []int32
	for _, r := range sv.AppendRows(nil, 0) {
		maskRows = append(maskRows, int32(r))
	}
	if !slices.Equal(maskRows, wantSel) {
		t.Fatalf("%s [%v,%v]: mask rows mismatch\n got %v\nwant %v", name, lo, hi, maskRows, wantSel)
	}
	if got := d.AggregateSelected(blk, &sv); got != want {
		t.Fatalf("%s [%v,%v]: mask aggregate = %+v, want %+v", name, lo, hi, got, want)
	}
}

// aggregateOracle folds vals one at a time, the scalar way.
func aggregateOracle[T Integer](vals []T) Aggregate[T] {
	var a Aggregate[T]
	for i, v := range vals {
		if i == 0 || v < a.Min {
			a.Min = v
		}
		if i == 0 || v > a.Max {
			a.Max = v
		}
		a.Count++
		a.Sum += int64(v)
	}
	return a
}

// rangesFor picks predicate ranges that exercise the interesting shapes:
// empty, inverted, all-covering, single value, windows straddling the
// codable region on both sides.
func rangesFor[T Integer](vals []T) [][2]T {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	n := len(sorted)
	r := [][2]T{
		{sorted[0], sorted[n-1]},             // everything
		{sorted[n/2], sorted[n/2]},           // point
		{sorted[n/4], sorted[3*n/4]},         // middle half
		{sorted[0], sorted[0]},               // min only
		{sorted[n-1], sorted[n-1]},           // max only
		{sorted[n/2] + 1, sorted[n/2]},       // inverted: empty
		{sorted[9*n/10], sorted[n-1]},        // upper tail (outlier land)
		{sorted[0], sorted[n/10]},            // lower tail
		{sorted[n-1] + 1, sorted[n-1] + 10},  // beyond max
		{sorted[0] - 10, sorted[0] - 1},      // below min (may wrap for unsigned)
		{sorted[0] - 1, sorted[n-1] + 1},     // straddling both ends
		{sorted[n/3] - 1, sorted[2*n/3] + 1}, // arbitrary window
	}
	return r
}

// TestDecompressWhereOracle drives every scheme, signed and unsigned,
// across exception densities from none to compulsory-heavy.
func TestDecompressWhereOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))

	t.Run("pfor-int64", func(t *testing.T) {
		for _, rate := range []float64{0, 0.02, 0.3} {
			for _, n := range []int{1, 97, 128, 1000, 4099} {
				src := make([]int64, n)
				for i := range src {
					src[i] = 100 + rng.Int63n(1<<10)
					if rng.Float64() < rate {
						src[i] = rng.Int63n(1 << 40)
					}
				}
				blk := CompressPFOR(src, 100, 10)
				for _, r := range rangesFor(src) {
					checkSelect(t, "pfor", blk, r[0], r[1])
				}
			}
		}
	})

	t.Run("pfor-negative-base-int32", func(t *testing.T) {
		src := make([]int32, 2000)
		for i := range src {
			src[i] = -500 + rng.Int31n(1<<8)
			if i%37 == 0 {
				src[i] = -100000 + rng.Int31n(200000)
			}
		}
		blk := CompressPFOR(src, -500, 8)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pfor-neg", blk, r[0], r[1])
		}
	})

	t.Run("pfor-uint8-narrow", func(t *testing.T) {
		src := make([]uint8, 777)
		for i := range src {
			src[i] = 20 + uint8(rng.Intn(16))
			if i%11 == 0 {
				src[i] = uint8(rng.Intn(256))
			}
		}
		blk := CompressPFOR(src, 20, 4)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pfor-u8", blk, r[0], r[1])
		}
	})

	t.Run("pfor-compulsory", func(t *testing.T) {
		// Width 1 forces compulsory exceptions every 2 slots wherever real
		// exceptions are far apart.
		src := make([]int64, 1000)
		for i := range src {
			src[i] = int64(i % 2)
			if i%200 == 0 {
				src[i] = 1 << 30
			}
		}
		blk := CompressPFOR(src, 0, 1)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pfor-compulsory", blk, r[0], r[1])
		}
	})

	t.Run("pfor-delta", func(t *testing.T) {
		for _, rate := range []float64{0, 0.05} {
			src := make([]int64, 3000)
			acc := int64(0)
			for i := range src {
				acc += rng.Int63n(16)
				if rng.Float64() < rate {
					acc += rng.Int63n(1 << 20)
				}
				src[i] = acc
			}
			blk := CompressPFORDelta(src, 0, 0, 4)
			for _, r := range rangesFor(src) {
				checkSelect(t, "pfor-delta", blk, r[0], r[1])
			}
		}
	})

	t.Run("pdict", func(t *testing.T) {
		// A dictionary whose values are deliberately out of order, so a
		// value range maps to a non-contiguous code set (bitmap path).
		dict := []int64{40, 10, 30, 20, 70, 50}
		src := make([]int64, 2500)
		for i := range src {
			src[i] = dict[rng.Intn(len(dict))]
			if rng.Intn(29) == 0 {
				src[i] = 1000 + rng.Int63n(100) // exceptions
			}
		}
		blk := CompressPDict(src, dict, 3)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pdict", blk, r[0], r[1])
		}
		// A range matching exactly one dictionary run exercises the
		// contiguous fast path ({10..20} = codes 1,3 non-contiguous;
		// {70,70} = code 4 contiguous).
		checkSelect(t, "pdict-one-code", blk, int64(70), int64(70))
		checkSelect(t, "pdict-noncontig", blk, int64(10), int64(20))
	})

	t.Run("pdict-uint16", func(t *testing.T) {
		dict := []uint16{5, 6, 7, 8, 1000}
		src := make([]uint16, 1300)
		for i := range src {
			src[i] = dict[rng.Intn(len(dict))]
			if i%53 == 0 {
				src[i] = 60000
			}
		}
		blk := CompressPDict(src, dict, 3)
		for _, r := range rangesFor(src) {
			checkSelect(t, "pdict-u16", blk, r[0], r[1])
		}
	})
}

// TestDecompressWhereReusesBuffers checks the append contract: passed-in
// slices are extended, not replaced.
func TestDecompressWhereReusesBuffers(t *testing.T) {
	src := make([]int64, 500)
	for i := range src {
		src[i] = int64(i)
	}
	blk := CompressPFOR(src, 0, 10)
	var d Decoder[int64]
	sel := []int32{-1}
	vals := []int64{-7}
	sel, vals = d.DecompressWhere(blk, 10, 12, sel, vals)
	if len(sel) != 4 || sel[0] != -1 || sel[1] != 10 || vals[0] != -7 || vals[3] != 12 {
		t.Fatalf("append contract broken: sel=%v vals=%v", sel, vals)
	}
}

func BenchmarkDecompressWhere(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	src := make([]int64, 1<<16)
	for i := range src {
		src[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			src[i] = rng.Int63n(1 << 30)
		}
	}
	blk := CompressPFOR(src, 0, 10)
	var d Decoder[int64]
	sel := make([]int32, 0, len(src))
	vals := make([]int64, 0, len(src))
	b.Run("sel1pct", func(b *testing.B) {
		b.SetBytes(int64(len(src) * 8))
		for i := 0; i < b.N; i++ {
			sel, vals = d.DecompressWhere(blk, 0, 10, sel[:0], vals[:0])
		}
	})
	b.Run("decode-then-filter", func(b *testing.B) {
		dst := make([]int64, len(src))
		b.SetBytes(int64(len(src) * 8))
		for i := 0; i < b.N; i++ {
			d.Decompress(blk, dst)
			sel, vals = sel[:0], vals[:0]
			for j, v := range dst {
				if v >= 0 && v <= 10 {
					sel = append(sel, int32(j))
					vals = append(vals, v)
				}
			}
		}
	})
}
