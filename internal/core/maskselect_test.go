package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkMaskCompose drives DecompressMask, RefineMask and
// DecompressSelected over one block: the mask of r1 must select exactly
// the oracle's rows, refining it with r2 must equal the conjunction of
// the two oracle filters, and gathering through the composed bitmap must
// materialize exactly the surviving values.
func checkMaskCompose[T Integer](t *testing.T, name string, blk *Block[T], r1, r2 [2]T) {
	t.Helper()
	var d Decoder[T]
	dst := make([]T, blk.N)
	Decompress(blk, dst)

	var sv SelectionVector
	d.DecompressMask(blk, r1[0], r1[1], &sv)
	if sv.Len() != blk.N {
		t.Fatalf("%s: mask covers %d rows, block has %d", name, sv.Len(), blk.N)
	}
	for i, v := range dst {
		want := v >= r1[0] && v <= r1[1]
		if sv.Test(i) != want {
			t.Fatalf("%s [%v,%v]: mask bit %d = %v, value %v", name, r1[0], r1[1], i, sv.Test(i), v)
		}
	}

	d.RefineMask(blk, r2[0], r2[1], &sv)
	var wantRows []int64
	var wantVals []T
	for i, v := range dst {
		if v >= r1[0] && v <= r1[1] && v >= r2[0] && v <= r2[1] {
			wantRows = append(wantRows, int64(i))
			wantVals = append(wantVals, v)
		}
	}
	if got := sv.Count(); got != len(wantRows) {
		t.Fatalf("%s [%v,%v]∧[%v,%v]: refined count %d, want %d",
			name, r1[0], r1[1], r2[0], r2[1], got, len(wantRows))
	}
	gotRows := sv.AppendRows(nil, 0)
	if !slices.Equal(gotRows, wantRows) {
		t.Fatalf("%s [%v,%v]∧[%v,%v]: rows mismatch\n got %v\nwant %v",
			name, r1[0], r1[1], r2[0], r2[1], gotRows, wantRows)
	}
	gotVals := d.DecompressSelected(blk, &sv, nil)
	if !slices.Equal(gotVals, wantVals) {
		t.Fatalf("%s [%v,%v]∧[%v,%v]: vals mismatch\n got %v\nwant %v",
			name, r1[0], r1[1], r2[0], r2[1], gotVals, wantVals)
	}
	if got, want := d.AggregateSelected(blk, &sv), aggregateOracle(wantVals); got != want {
		t.Fatalf("%s [%v,%v]∧[%v,%v]: aggregate = %+v, want %+v",
			name, r1[0], r1[1], r2[0], r2[1], got, want)
	}

	// The same pair as a disjunction: a fresh mask of r1 unioned with r2
	// must select exactly the rows either oracle filter passes.
	var u SelectionVector
	d.DecompressMask(blk, r1[0], r1[1], &u)
	d.UnionMask(blk, r2[0], r2[1], &u)
	for i, v := range dst {
		want := (v >= r1[0] && v <= r1[1]) || (v >= r2[0] && v <= r2[1])
		if u.Test(i) != want {
			t.Fatalf("%s [%v,%v]∨[%v,%v]: union bit %d = %v, value %v",
				name, r1[0], r1[1], r2[0], r2[1], i, u.Test(i), v)
		}
	}
}

// maskRangePairs builds conjunction pairs out of rangesFor's shapes,
// including self-conjunction, disjoint (empty) pairs and inverted ranges.
func maskRangePairs[T Integer](vals []T) [][2][2]T {
	rs := rangesFor(vals)
	var pairs [][2][2]T
	for i, r1 := range rs {
		pairs = append(pairs, [2][2]T{r1, rs[(i+5)%len(rs)]})
	}
	pairs = append(pairs, [2][2]T{rs[0], rs[0]}) // everything ∧ everything
	return pairs
}

// TestMaskComposeOracle drives the bitmap composition path across every
// scheme, signed and unsigned, with and without exceptions.
func TestMaskComposeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))

	t.Run("pfor-int64", func(t *testing.T) {
		for _, rate := range []float64{0, 0.02, 0.3} {
			for _, n := range []int{1, 31, 97, 128, 1000, 4099} {
				src := make([]int64, n)
				for i := range src {
					src[i] = 100 + rng.Int63n(1<<10)
					if rng.Float64() < rate {
						src[i] = rng.Int63n(1 << 40)
					}
				}
				blk := CompressPFOR(src, 100, 10)
				for _, pr := range maskRangePairs(src) {
					checkMaskCompose(t, "pfor", blk, pr[0], pr[1])
				}
			}
		}
	})

	t.Run("pfor-compulsory", func(t *testing.T) {
		src := make([]int64, 1000)
		for i := range src {
			src[i] = int64(i % 2)
			if i%200 == 0 {
				src[i] = 1 << 30
			}
		}
		blk := CompressPFOR(src, 0, 1)
		for _, pr := range maskRangePairs(src) {
			checkMaskCompose(t, "pfor-compulsory", blk, pr[0], pr[1])
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
			for _, pr := range maskRangePairs(src) {
				checkMaskCompose(t, "pfor-delta", blk, pr[0], pr[1])
			}
		}
	})

	t.Run("pdict", func(t *testing.T) {
		dict := []int64{40, 10, 30, 20, 70, 50}
		src := make([]int64, 2500)
		for i := range src {
			src[i] = dict[rng.Intn(len(dict))]
			if rng.Intn(29) == 0 {
				src[i] = 1000 + rng.Int63n(100)
			}
		}
		blk := CompressPDict(src, dict, 3)
		for _, pr := range maskRangePairs(src) {
			checkMaskCompose(t, "pdict", blk, pr[0], pr[1])
		}
		// Non-contiguous code image refined by a contiguous one and the
		// reverse — both orders of the PDICT bitmap/range kernels.
		checkMaskCompose(t, "pdict-mix", blk, [2]int64{10, 20}, [2]int64{70, 70})
		checkMaskCompose(t, "pdict-mix", blk, [2]int64{70, 70}, [2]int64{10, 20})
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
		for _, pr := range maskRangePairs(src) {
			checkMaskCompose(t, "pdict-u16", blk, pr[0], pr[1])
		}
	})
}

// TestAggregateSelectedEdgeMasks folds hand-shaped selections over every
// patched scheme and checks each against the scalar oracle: all-ones words
// (the straight 32-code loop), a single bit, a selected exception slot
// (whose packed code is a bogus gap), groups just below and at the
// sparseGroup survivor count (per-row code reads versus the group unpack),
// partial words on both paths, and blocks whose length is not a multiple
// of 32, so the last word is partial.
func TestAggregateSelectedEdgeMasks(t *testing.T) {
	const n = 300 // 2 full groups + a 44-row tail; 300 % 32 = 12
	src := make([]int64, n)
	for i := range src {
		src[i] = 100 + int64(i*37%500)
	}
	src[5], src[70], src[290] = -7, 1<<40, 1<<35 // exceptions, tail group included
	delta := make([]int64, n)
	for i := range delta {
		delta[i] = int64(i) * 3
	}
	delta[133] += 1 << 30
	dict := []int64{40, 10, 30, 20, 70, 50}
	pd := make([]int64, n)
	for i := range pd {
		pd[i] = dict[i*7%len(dict)]
	}
	pd[5], pd[70], pd[290] = 999, -999, 12345
	var evens []int
	for i := 0; i < n; i += 2 {
		evens = append(evens, i)
	}

	blocks := []struct {
		name string
		blk  *Block[int64]
		vals []int64
	}{
		{"pfor", CompressPFOR(src, 100, 9), src},
		{"pfor-delta", CompressPFORDelta(delta, 0, 0, 2), delta},
		{"pdict", CompressPDict(pd, dict, 3), pd},
	}
	masks := []struct {
		name string
		rows []int
	}{
		{"none", nil},
		{"one-row", []int{200}},
		{"exception-only", []int{5}},
		{"exception-and-neighbour", []int{69, 70, 71}},
		{"tail-bits", []int{288, 290, 299}},
		{"all-ones-word", span(32, 64)},
		{"all-ones-group", span(128, 256)},
		{"below-sparse-threshold", span(140, 140+sparseGroup-1)},
		{"at-sparse-threshold", span(140, 140+sparseGroup)},
		{"every-other-row", evens},
		{"everything", span(0, n)},
	}
	for _, b := range blocks {
		if b.blk.ExceptionCount() == 0 {
			t.Fatalf("%s: test block has no exceptions", b.name)
		}
		var d Decoder[int64]
		for _, m := range masks {
			var sv SelectionVector
			sv.Reset(n)
			var want []int64
			for _, r := range m.rows {
				sv.Set(r)
				want = append(want, b.vals[r])
			}
			if got := d.AggregateSelected(b.blk, &sv); got != aggregateOracle(want) {
				t.Errorf("%s/%s: aggregate = %+v, want %+v", b.name, m.name, got, aggregateOracle(want))
			}
		}
	}

	// Narrow and unsigned element types: min/max start at the type's
	// extremes, so values at those extremes must still win.
	u8 := []uint8{0, 255, 7, 7, 9, 200, 1, 254}
	var d8 Decoder[uint8]
	var sv SelectionVector
	sv.Fill(len(u8))
	if got, want := d8.AggregateSelected(CompressPFOR(u8, 0, 3), &sv), aggregateOracle(u8); got != want {
		t.Errorf("uint8: aggregate = %+v, want %+v", got, want)
	}
	i8 := []int8{-128, 127, 3, -1, 0, 5}
	var di8 Decoder[int8]
	sv.Fill(len(i8))
	if got, want := di8.AggregateSelected(CompressPFOR(i8, -1, 3), &sv), aggregateOracle(i8); got != want {
		t.Errorf("int8: aggregate = %+v, want %+v", got, want)
	}
}

// span returns the rows [lo, hi).
func span(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return rows
}

// TestSelectionVector pins the bitmap type itself: shapes, tail
// invariants, AND, and row decoding.
func TestSelectionVector(t *testing.T) {
	var sv SelectionVector
	for _, n := range []int{0, 1, 31, 32, 33, 127, 128, 129} {
		sv.Fill(n)
		if sv.Len() != n || sv.Count() != n {
			t.Fatalf("Fill(%d): len=%d count=%d", n, sv.Len(), sv.Count())
		}
		if n > 0 && !sv.Any() {
			t.Fatalf("Fill(%d): Any() = false", n)
		}
		sv.Reset(n)
		if sv.Count() != 0 || sv.Any() {
			t.Fatalf("Reset(%d): count=%d any=%v", n, sv.Count(), sv.Any())
		}
	}

	sv.Reset(70)
	for _, i := range []int{0, 31, 32, 63, 69} {
		sv.Set(i)
		if !sv.Test(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	if got := sv.AppendRows(nil, 100); !slices.Equal(got, []int64{100, 131, 132, 163, 169}) {
		t.Fatalf("AppendRows = %v", got)
	}
	sv.Clear(32)
	if sv.Test(32) || sv.Count() != 4 {
		t.Fatalf("Clear(32): test=%v count=%d", sv.Test(32), sv.Count())
	}

	var other SelectionVector
	other.Fill(70)
	other.Clear(0)
	sv.And(&other)
	if sv.Test(0) || sv.Count() != 3 {
		t.Fatalf("And: test(0)=%v count=%d", sv.Test(0), sv.Count())
	}

	var disj SelectionVector
	disj.Reset(70)
	disj.Set(0)
	disj.Set(69)
	sv.Or(&disj)
	if !sv.Test(0) || !sv.Test(69) || sv.Count() != 4 {
		t.Fatalf("Or: test(0)=%v test(69)=%v count=%d", sv.Test(0), sv.Test(69), sv.Count())
	}

	for _, op := range []func(*SelectionVector){sv.And, sv.Or} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("And/Or over mismatched lengths: expected panic")
				}
			}()
			var short SelectionVector
			short.Fill(10)
			op(&short)
		}()
	}
}

// TestDecompressSelectedCodes pins the group-key extraction contract:
// selected non-exception rows yield their dictionary code, selected
// exception slots — out-of-dict values AND the compulsory patch-list
// entries the gap limit forces, whose true value is in the dict — yield
// -1, and codes arrive in row order aligned with DecompressSelected.
func TestDecompressSelectedCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dict := []int64{40, 10, 30, 20, 70, 50}
	src := make([]int64, 2500)
	outOfDict := make(map[int]bool)
	for i := range src {
		src[i] = dict[rng.Intn(len(dict))]
		if rng.Intn(31) == 0 {
			src[i] = 1000 + rng.Int63n(100)
			outOfDict[i] = true
		}
	}
	blk := CompressPDict(src, dict, 3)
	var d Decoder[int64]

	// The ground truth of which slots are exceptions comes from the block
	// itself: every patch-list position, compulsory or not.
	excSlot := make(map[int]bool)
	var xpos [GroupSize]int32
	for g := 0; g < blk.NumGroups(); g++ {
		for _, pos := range d.excPositions(blk, g, &xpos) {
			excSlot[int(pos)] = true
		}
	}
	for i := range src {
		if outOfDict[i] && !excSlot[i] {
			t.Fatalf("row %d holds out-of-dict value %d but is not an exception slot", i, src[i])
		}
	}

	var sv SelectionVector
	d.DecompressMask(blk, 0, 1<<40, &sv) // everything, exceptions included
	codes := d.DecompressSelectedCodes(blk, &sv, nil)
	vals := d.DecompressSelected(blk, &sv, nil)
	if len(codes) != len(src) || len(vals) != len(src) {
		t.Fatalf("selected %d codes / %d vals, want %d", len(codes), len(vals), len(src))
	}
	check := func(row int, code int32) {
		t.Helper()
		if excSlot[row] {
			if code != -1 {
				t.Fatalf("row %d: exception slot yielded code %d, want -1", row, code)
			}
		} else if code < 0 || dict[code] != src[row] {
			t.Fatalf("row %d: code %d, want the code of %d", row, code, src[row])
		}
	}
	for i, c := range codes {
		check(i, c)
		if vals[i] != src[i] {
			t.Fatalf("row %d: gathered %d, want %d", i, vals[i], src[i])
		}
	}

	// A sparse selection must keep codes and rows aligned.
	sv.Reset(blk.N)
	var wantRows []int
	for i := 0; i < blk.N; i += 7 {
		sv.Set(i)
		wantRows = append(wantRows, i)
	}
	codes = d.DecompressSelectedCodes(blk, &sv, codes[:0])
	if len(codes) != len(wantRows) {
		t.Fatalf("sparse selected %d codes, want %d", len(codes), len(wantRows))
	}
	for j, i := range wantRows {
		check(i, codes[j])
	}
}

// TestRefineMaskZeroGroupSkipsDecode pins the skip contract indirectly: a
// fully cleared selection refined by any predicate stays empty and
// gathers nothing, even over blocks with exceptions.
func TestRefineMaskZeroGroupSkipsDecode(t *testing.T) {
	src := make([]int64, 1000)
	for i := range src {
		src[i] = int64(i % 500)
		if i%100 == 0 {
			src[i] = 1 << 40
		}
	}
	var d Decoder[int64]
	for _, blk := range []*Block[int64]{
		CompressPFOR(src, 0, 9),
		CompressPFORDelta(src, 0, -(1 << 40), 12),
	} {
		var sv SelectionVector
		sv.Reset(blk.N)
		d.RefineMask(blk, 0, 1<<50, &sv)
		if sv.Any() {
			t.Fatalf("%s: refine of empty selection selected rows", blk.Scheme)
		}
		if got := d.DecompressSelected(blk, &sv, nil); len(got) != 0 {
			t.Fatalf("%s: gathered %d values through empty selection", blk.Scheme, len(got))
		}
	}
}

func BenchmarkRefineMask(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	src := make([]int64, 1<<16)
	for i := range src {
		src[i] = rng.Int63n(1 << 10)
		if rng.Intn(50) == 0 {
			src[i] = rng.Int63n(1 << 30)
		}
	}
	blk := CompressPFOR(src, 0, 10)
	var d Decoder[int64]
	var sv SelectionVector
	b.Run("refine-after-1pct", func(b *testing.B) {
		b.SetBytes(int64(len(src) * 8))
		for i := 0; i < b.N; i++ {
			d.DecompressMask(blk, 0, 10, &sv)
			d.RefineMask(blk, 5, 1000, &sv)
		}
	})
	b.Run("refine-after-all", func(b *testing.B) {
		b.SetBytes(int64(len(src) * 8))
		for i := 0; i < b.N; i++ {
			sv.Fill(blk.N)
			d.RefineMask(blk, 5, 1000, &sv)
		}
	})
}

func BenchmarkAggregateSelected(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	const n = 65536
	src := make([]int64, n)
	for i := range src {
		src[i] = 1000 + rng.Int63n(1<<10)
		if rng.Intn(100) == 0 {
			src[i] = rng.Int63n(1 << 40)
		}
	}
	dict := makeDict(64)
	pd := synthPDict(rng, n, dict, 0.01)
	blocks := []struct {
		name string
		blk  *Block[int64]
	}{
		{"pfor", CompressPFOR(src, 1000, 10)},
		{"pdict", CompressPDict(pd, dict, 6)},
		{"pfor-delta", CompressPFORDelta(src, 0, -(1 << 10), 11)},
	}
	// 1%, 2% and 10% leave PFOR and PDICT groups below sparseGroup
	// survivors (per-row code reads); 50% and 100% unpack whole groups.
	for _, bl := range blocks {
		for _, density := range []float64{0.01, 0.02, 0.1, 0.5, 1} {
			var sv SelectionVector
			sv.Reset(n)
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					sv.Set(i)
				}
			}
			var d Decoder[int64]
			b.Run(fmt.Sprintf("%s-%.0fpct", bl.name, density*100), func(b *testing.B) {
				b.SetBytes(n * 8)
				for b.Loop() {
					d.AggregateSelected(bl.blk, &sv)
				}
			})
		}
	}
}
