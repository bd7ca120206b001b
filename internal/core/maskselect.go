package core

// Selection-vector composition: the compressed-domain predicate machinery
// of select.go re-targeted at an explicit SelectionVector, so predicates
// over several columns compose before anything is materialized. A
// conjunctive scan runs DecompressMask for its most selective predicate,
// RefineMask for each further predicate (same-column or — via the shared
// block geometry — a different column's block), and only once the bitmap
// is final does DecompressSelected touch the surviving rows. RefineMask is
// where the composition pays: groups whose running mask is already empty
// are skipped before a single code is extracted, so each predicate's cost
// shrinks with the selectivity of the ones before it.

import (
	"fmt"
	"math/bits"

	"repro/internal/bitpack"
)

// DecompressMask evaluates the inclusive range [lo, hi] over blk and fills
// sv with the block-level match bitmap: bit i set iff value i lies in the
// range. No value is materialized — PFOR and contiguous PDICT predicates
// run entirely in the packed code domain, non-contiguous PDICT tests codes
// against a per-block bitmap, PFOR-DELTA falls back to a fused per-group
// decode+compare — and exception slots are judged on their true values.
// An inverted range (lo > hi) selects nothing.
func (d *Decoder[T]) DecompressMask(blk *Block[T], lo, hi T, sv *SelectionVector) {
	sv.size(blk.N)
	if blk.N == 0 {
		return
	}
	if lo > hi {
		clear(sv.words)
		return
	}
	s := d.selectScratch()
	d.buildMask(blk, lo, hi, sv.words, s)
}

// buildMask fills mask — (blk.N+31)/32 words — with the match bitmap of
// the non-inverted range [lo, hi] over blk: the scheme dispatch shared by
// DecompressMask (targeting a SelectionVector) and UnionMask (targeting
// the scratch mask before the OR fold). Every word is assigned, so the
// destination needs no clearing, and tail bits beyond blk.N stay zero.
func (d *Decoder[T]) buildMask(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	if blk.Scheme == SchemePFORDelta {
		d.maskPFORDelta(blk, lo, hi, mask, s)
		return
	}
	d.codeMask(blk, lo, hi, mask, s)
	d.maskFixExceptions(blk, lo, hi, mask, s, nil)
}

// codeMask fills mask with the verdicts of the packed-code kernels on the
// non-inverted range [lo, hi] over a PFOR or PDICT block. Exception slots
// carry the verdict on their bogus gap codes until maskFixExceptions
// resolves them.
func (d *Decoder[T]) codeMask(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	switch blk.Scheme {
	case SchemePFOR:
		clo, span, ok := pforCodeRange(blk.Base, blk.B, lo, hi)
		d.blockMasks(blk, clo, span, ok, mask)
	case SchemePDict:
		clo, span, ok, contiguous := d.pdictCodeMatch(blk, lo, hi, s)
		if contiguous {
			d.blockMasks(blk, clo, span, ok, mask)
		} else {
			d.bitmapMasks(blk, mask, s)
		}
	default:
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
}

// UnionMask ORs the match bitmap of the inclusive range [lo, hi] over blk
// into sv — the disjunction counterpart of RefineMask. The branch's
// bitmap is built in the decoder's scratch mask with the same kernels
// DecompressMask uses (exception slots judged on their true values, never
// on their bogus gap codes), then folded into sv one OR per 32 rows. An
// inverted range (lo > hi) adds nothing. sv must cover exactly blk.N rows.
func (d *Decoder[T]) UnionMask(blk *Block[T], lo, hi T, sv *SelectionVector) {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows unioned against block of %d", sv.n, blk.N))
	}
	if blk.N == 0 || lo > hi {
		return
	}
	s := d.selectScratch()
	tmp := s.maskBuf(blk.N)
	d.buildMask(blk, lo, hi, tmp, s)
	for i, w := range tmp {
		sv.words[i] |= w
	}
}

// maskFixExceptions resolves the exception slots of a mask built by
// codeMask: the bogus patch-list gap codes produced whatever bits the
// kernels computed, so each exception slot is overwritten with the verdict
// on its true value. With a non-nil f the matching exceptions fold into f
// instead and every exception bit is cleared, leaving a mask of
// code-judged rows only.
func (d *Decoder[T]) maskFixExceptions(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T], f *fold[T]) {
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		es, ee := blk.groupExc(g)
		if es == ee {
			continue
		}
		all := d.excPositions(blk, g, &s.xpos)
		for i, pos := range all {
			bit := uint32(1) << (uint(pos) & 31)
			ev := blk.Exc[es+i]
			in := ev >= lo && ev <= hi
			switch {
			case f != nil:
				mask[pos>>5] &^= bit
				if in {
					f.add(ev)
				}
			case in:
				mask[pos>>5] |= bit
			default:
				mask[pos>>5] &^= bit
			}
		}
	}
}

// allZero reports whether no bit is set in words.
func allZero(words []uint32) bool {
	for _, w := range words {
		if w != 0 {
			return false
		}
	}
	return true
}

// RefineMask intersects sv — a selection over exactly blk.N rows, e.g.
// another predicate's DecompressMask output or a different column's bitmap
// under shared block geometry — with the match bitmap of [lo, hi] over
// blk. Groups whose running mask is already empty are skipped without
// extracting a code (or, for PFOR-DELTA, without decoding the group), so
// refinement gets cheaper the more selective the earlier predicates were.
// An inverted range empties the selection.
func (d *Decoder[T]) RefineMask(blk *Block[T], lo, hi T, sv *SelectionVector) {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows refined against block of %d", sv.n, blk.N))
	}
	if blk.N == 0 {
		return
	}
	if lo > hi {
		clear(sv.words)
		return
	}
	s := d.selectScratch()
	switch blk.Scheme {
	case SchemePFOR:
		clo, span, ok := pforCodeRange(blk.Base, blk.B, lo, hi)
		d.refineCoded(blk, lo, hi, clo, span, ok, true, sv.words, s)
	case SchemePDict:
		clo, span, ok, contiguous := d.pdictCodeMatch(blk, lo, hi, s)
		d.refineCoded(blk, lo, hi, clo, span, ok, contiguous, sv.words, s)
	case SchemePFORDelta:
		d.refinePFORDelta(blk, lo, hi, sv.words, s)
	default:
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
}

// refineCoded is the PFOR / PDICT refinement walk. Per 128-value group it
// captures which still-selected exception slots truly match (their codes
// are bogus patch-list gaps, so the kernels must not judge them), runs the
// branch-free refine kernels over the packed codes — a contiguous code
// range uses refmask32, a non-contiguous PDICT predicate the per-code
// bitmap — and then overwrites the exception slots with the captured
// verdicts.
func (d *Decoder[T]) refineCoded(blk *Block[T], lo, hi T, clo, span uint32, codable, contiguous bool, mask []uint32, s *selScratch[T]) {
	raw := d.scratch(GroupSize)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		if allZero(mask[w0:w1]) {
			continue
		}
		es, ee := blk.groupExc(g)
		var all, keep []int32
		if es != ee {
			all = d.excPositions(blk, g, &s.xpos)
			nk := 0
			for i, pos := range all {
				if mask[pos>>5]>>(uint(pos)&31)&1 != 0 {
					if ev := blk.Exc[es+i]; ev >= lo && ev <= hi {
						s.epos[nk] = pos
						nk++
					}
				}
			}
			keep = s.epos[:nk]
		}
		switch {
		case !codable:
			clear(mask[w0:w1])
		case contiguous:
			full := n / 32
			b := int(blk.B)
			bitpack.RefineMask(mask[w0:w0+full], blk.Codes[4*g*b:], blk.B, clo, span)
			if tail := n % 32; tail > 0 {
				mask[w0+full] = bitpack.RefineMaskTail(blk.Codes[(4*g+full)*b:], tail, blk.B, clo, span, mask[w0+full])
			}
		default:
			// Non-contiguous PDICT: unpack the group once and test each
			// still-live word's codes against the per-code bitmap.
			unpackGroup(blk, g, n, raw)
			bm := s.bm
			for i := 0; i < n; i += 32 {
				w := w0 + i>>5
				m := mask[w]
				if m == 0 {
					continue
				}
				var match uint32
				lim := min(32, n-i)
				for j := 0; j < lim; j++ {
					c := raw[i+j]
					match |= uint32(bm[c>>6]>>(c&63)&1) << j
				}
				mask[w] = m & match
			}
		}
		for _, pos := range all {
			mask[pos>>5] &^= 1 << (uint(pos) & 31)
		}
		for _, pos := range keep {
			mask[pos>>5] |= 1 << (uint(pos) & 31)
		}
	}
}

// maskPFORDelta emits the match bitmap of a PFOR-DELTA block: deltas have
// no fixed code image of a value range, so each group decodes through its
// running total and the compare results accumulate into mask words.
func (d *Decoder[T]) maskPFORDelta(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	raw := d.scratch(GroupSize)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		unpackGroup(blk, g, n, raw)
		decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
		w0 := gStart >> 5
		for i := 0; i < n; i += 32 {
			var m uint32
			lim := min(32, n-i)
			for j := 0; j < lim; j++ {
				v := s.vbuf[i+j]
				m |= uint32(b2i(v >= lo && v <= hi)) << j
			}
			mask[w0+i>>5] = m
		}
	}
}

// refinePFORDelta intersects mask with a PFOR-DELTA predicate, decoding
// only the groups that still have surviving rows.
func (d *Decoder[T]) refinePFORDelta(blk *Block[T], lo, hi T, mask []uint32, s *selScratch[T]) {
	raw := d.scratch(GroupSize)
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		n := gEnd - gStart
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		if allZero(mask[w0:w1]) {
			continue
		}
		unpackGroup(blk, g, n, raw)
		decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
		for i := 0; i < n; i += 32 {
			w := w0 + i>>5
			m := mask[w]
			if m == 0 {
				continue
			}
			var match uint32
			lim := min(32, n-i)
			for j := 0; j < lim; j++ {
				v := s.vbuf[i+j]
				match |= uint32(b2i(v >= lo && v <= hi)) << j
			}
			mask[w] = m & match
		}
	}
}

// DecompressSelected appends the values of blk at the rows selected by sv
// to vals, in row order, and returns the extended slice — the
// materialization step after a multi-predicate bitmap has been composed.
// Only groups with surviving rows are touched: PFOR and PDICT extract one
// code per selected row (exception slots read their true values from the
// exception section), PFOR-DELTA decodes just the groups that still
// matter. sv must cover exactly blk.N rows.
func (d *Decoder[T]) DecompressSelected(blk *Block[T], sv *SelectionVector, vals []T) []T {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows gathered from block of %d", sv.n, blk.N))
	}
	count := sv.Count()
	if count == 0 {
		return vals
	}
	k := len(vals)
	vals = growTo(vals, k+count)
	s := d.selectScratch()
	mask := sv.words
	delta := blk.Scheme == SchemePFORDelta
	pdict := blk.Scheme == SchemePDict
	if !delta && !pdict && blk.Scheme != SchemePFOR {
		panic("core: cannot select on scheme " + blk.Scheme.String())
	}
	raw := d.scratch(GroupSize)
	base := blk.Base
	dict := blk.Dict
	b := blk.B
	codes := blk.Codes
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		if allZero(mask[w0:w1]) {
			continue
		}
		if delta {
			n := gEnd - gStart
			unpackGroup(blk, g, n, raw)
			decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
			for w := w0; w < w1; w++ {
				vb := w << 5
				for m := mask[w]; m != 0; m &= m - 1 {
					p := vb + bits.TrailingZeros32(m)
					vals[k] = s.vbuf[p-gStart]
					k++
				}
			}
			continue
		}
		es, ee := blk.groupExc(g)
		if es == ee {
			for w := w0; w < w1; w++ {
				vb := w << 5
				for m := mask[w]; m != 0; m &= m - 1 {
					p := vb + bits.TrailingZeros32(m)
					c := bitpack.CodeAt(codes, p, b)
					if pdict {
						vals[k] = dict[c]
					} else {
						vals[k] = base + T(c)
					}
					k++
				}
			}
			continue
		}
		// Exception slots hold bogus gap codes; a selected exception row
		// reads its true value from the exception section. The merge walks
		// the group's (ordered) exception positions alongside the ordered
		// set bits.
		all := d.excPositions(blk, g, &s.xpos)
		xi := 0
		for w := w0; w < w1; w++ {
			vb := w << 5
			for m := mask[w]; m != 0; m &= m - 1 {
				p := vb + bits.TrailingZeros32(m)
				for xi < len(all) && int(all[xi]) < p {
					xi++
				}
				if xi < len(all) && int(all[xi]) == p {
					vals[k] = blk.Exc[es+xi]
				} else {
					c := bitpack.CodeAt(codes, p, b)
					if pdict {
						vals[k] = dict[c]
					} else {
						vals[k] = base + T(c)
					}
				}
				k++
			}
		}
	}
	return vals[:k]
}

// sparseGroup is the survivor count below which AggregateSelected reads a
// PFOR or PDICT group's selected codes one at a time (bitpack.CodeAt)
// instead of unpacking all 128 codes. Per-row reads win up to about 20%
// density, roughly 25 survivors per group (BenchmarkAggregateSelected), so
// a random 1% selection — ~1.3 survivors per group, yet a survivor in
// ~72% of groups — stays on the per-row path, while dense selections take
// the unrolled kernel.
const sparseGroup = 24

// AggregateSelected computes Count, Sum, Min and Max over the values of
// blk at the rows sv selects, without widening a single value into a
// gather buffer. Exception slots hold bogus patch-list gap codes, so a
// selected exception folds its true value from blk.Exc, never its code.
// The remaining rows fold per scheme:
//
//   - PFOR in code space: count, code sum and code min/max, with
//     Sum = Count*Base + codeSum and Min/Max = Base + minC/maxC derived
//     once per block (the code-to-value mapping is monotone).
//   - PDICT through the dictionary, dict[c].
//   - PFOR-DELTA over its decoded group buffer.
//
// A PFOR or PDICT group with fewer than sparseGroup survivors reads each
// survivor's code on its own; a denser group is unpacked once by the
// width-specialized group kernel, its mask words are copied with the
// exception bits cleared, and all-ones words fold 32 rows in a straight
// loop. PFOR-DELTA always decodes the whole group (a value is a running
// sum). sv must cover exactly blk.N rows.
func (d *Decoder[T]) AggregateSelected(blk *Block[T], sv *SelectionVector) Aggregate[T] {
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows aggregated over block of %d", sv.n, blk.N))
	}
	return d.foldMask(blk, sv.words, newFold[T](), true)
}

// foldMask is AggregateSelected over a bare mask, continuing the fold vf.
// With exc false the mask holds no exception bits — the caller has judged
// the exceptions and folded the matching ones into vf — so the patch
// lists are not walked again.
func (d *Decoder[T]) foldMask(blk *Block[T], mask []uint32, vf fold[T], exc bool) Aggregate[T] {
	pfor := blk.Scheme == SchemePFOR
	delta := blk.Scheme == SchemePFORDelta
	if !pfor && !delta && blk.Scheme != SchemePDict {
		panic("core: cannot aggregate scheme " + blk.Scheme.String())
	}
	s := d.selectScratch()
	raw := d.scratch(GroupSize)
	dict := blk.Dict
	cf := newFold[uint32]() // PFOR codes; vf takes all other values
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		words := mask[gStart>>5 : (gEnd+31)>>5]
		if allZero(words) {
			continue
		}
		n := gEnd - gStart
		if delta {
			unpackGroup(blk, g, n, raw)
			decompressPFORDeltaGroup(blk, g, raw, s.vbuf[:n])
			vf.foldMasked(s.vbuf[:n], words)
			continue
		}
		es, ee := blk.groupExc(g)
		if !exc {
			ee = es
		}
		if onesCount(words) < sparseGroup {
			// Per-row reads. The group's exception chain is walked
			// alongside the ordered set bits and only as far as the last
			// one; a selected exception slot folds its true value.
			xi, xp := es, gStart+blk.patchStart(g)
			for w, m := range words {
				vb := gStart + w<<5
				for ; m != 0; m &= m - 1 {
					p := vb + bits.TrailingZeros32(m)
					for xi < ee && xp < p {
						xp += int(bitpack.CodeAt(blk.Codes, xp, blk.B)) + 1
						xi++
					}
					if xi < ee && xp == p {
						vf.add(blk.Exc[xi])
						continue
					}
					c := bitpack.CodeAt(blk.Codes, p, blk.B)
					if pfor {
						cf.add(c)
					} else {
						vf.add(dict[c])
					}
				}
			}
			continue
		}
		unpackGroup(blk, g, n, raw)
		var gm [GroupSize / 32]uint32
		live := gm[:copy(gm[:], words)]
		for k, pos := es, blk.patchStart(g); k < ee; k++ {
			bit := uint32(1) << (uint(pos) & 31)
			if gm[pos>>5]&bit != 0 {
				gm[pos>>5] &^= bit
				vf.add(blk.Exc[k])
			}
			pos += int(raw[pos]) + 1
		}
		if pfor {
			cf.foldMasked(raw[:n], live)
			continue
		}
		for w, m := range live {
			cs := raw[w<<5:]
			if m == ^uint32(0) {
				for _, c := range cs[:32] {
					vf.add(dict[c])
				}
				continue
			}
			for ; m != 0; m &= m - 1 {
				vf.add(dict[cs[bits.TrailingZeros32(m)]])
			}
		}
	}
	agg := vf.aggregate()
	if cf.count > 0 {
		agg.Merge(Aggregate[T]{
			Count: cf.count,
			Sum:   int64(cf.count)*int64(blk.Base) + cf.sum,
			Min:   blk.Base + T(cf.min),
			Max:   blk.Base + T(cf.max),
		})
	}
	return agg
}

// AggregateValues folds vals[i] for every row i sv selects — the
// aggregate over already-decoded values (raw and baseline frames), with
// the same branch-free fold AggregateSelected uses. sv must cover exactly
// len(vals) rows.
func AggregateValues[T Integer](vals []T, sv *SelectionVector) Aggregate[T] {
	if sv.n != len(vals) {
		panic(fmt.Sprintf("core: selection of %d rows aggregated over %d values", sv.n, len(vals)))
	}
	f := newFold[T]()
	f.foldMasked(vals, sv.words)
	return f.aggregate()
}

// fold is a running Count/Sum/Min/Max whose min and max start at the
// type's extremes, so every step is branch-free.
type fold[T Integer] struct {
	count    int
	sum      int64
	min, max T
}

func newFold[T Integer]() fold[T] {
	lo, hi := valueBounds[T]()
	return fold[T]{min: hi, max: lo}
}

// valueBounds returns the smallest and largest values of T.
func valueBounds[T Integer]() (lo, hi T) {
	hi = ^T(0)
	if hi < 0 { // signed: ^0 is -1
		hi = T(typeMask[T]() >> 1)
		lo = ^hi
	}
	return lo, hi
}

func (f *fold[T]) add(v T) {
	f.count++
	f.sum += int64(v)
	f.min = min(f.min, v)
	f.max = max(f.max, v)
}

// foldMasked folds vals[i] for every bit i set in words, 32 values per
// word. The accumulators live in locals for the duration of the loop.
func (f *fold[T]) foldMasked(vals []T, words []uint32) {
	count, sum, lo, hi := f.count, f.sum, f.min, f.max
	for w, m := range words {
		if m == 0 {
			continue
		}
		vs := vals[w<<5:]
		if m == ^uint32(0) {
			for _, v := range vs[:32] {
				sum += int64(v)
				lo = min(lo, v)
				hi = max(hi, v)
			}
			count += 32
			continue
		}
		count += bits.OnesCount32(m)
		for ; m != 0; m &= m - 1 {
			v := vs[bits.TrailingZeros32(m)]
			sum += int64(v)
			lo = min(lo, v)
			hi = max(hi, v)
		}
	}
	f.count, f.sum, f.min, f.max = count, sum, lo, hi
}

// aggregate returns the fold as an Aggregate (the zero Aggregate when
// nothing was folded).
func (f *fold[T]) aggregate() Aggregate[T] {
	if f.count == 0 {
		return Aggregate[T]{}
	}
	return Aggregate[T]{Count: f.count, Sum: f.sum, Min: f.min, Max: f.max}
}

// DecompressSelectedCodes appends, for every row selected by sv in row
// order, the row's PDICT dictionary code — or -1 for exception slots,
// whose packed codes are bogus patch-list gaps and whose true values live
// only in the exception section. This is the group-key extraction of
// code-space grouped aggregation: keys stay in the tiny code domain, the
// caller aggregates per code and decodes the dictionary once at the end,
// handling the rare -1 rows on their materialized values. blk must be
// PDICT; sv must cover exactly blk.N rows.
func (d *Decoder[T]) DecompressSelectedCodes(blk *Block[T], sv *SelectionVector, codes []int32) []int32 {
	if blk.Scheme != SchemePDict {
		panic("core: DecompressSelectedCodes on scheme " + blk.Scheme.String())
	}
	if sv.n != blk.N {
		panic(fmt.Sprintf("core: selection of %d rows gathered from block of %d", sv.n, blk.N))
	}
	count := sv.Count()
	if count == 0 {
		return codes
	}
	k := len(codes)
	if cap(codes) < k+count {
		out := make([]int32, k, max(k+count, 2*cap(codes)))
		copy(out, codes)
		codes = out
	}
	codes = codes[:k+count]
	s := d.selectScratch()
	mask := sv.words
	packed := blk.Codes
	b := blk.B
	numGroups := blk.NumGroups()
	for g := 0; g < numGroups; g++ {
		gStart, gEnd := groupBounds(blk, g)
		w0 := gStart >> 5
		w1 := (gEnd + 31) >> 5
		if allZero(mask[w0:w1]) {
			continue
		}
		es, ee := blk.groupExc(g)
		if es == ee {
			for w := w0; w < w1; w++ {
				vb := w << 5
				for m := mask[w]; m != 0; m &= m - 1 {
					p := vb + bits.TrailingZeros32(m)
					codes[k] = int32(bitpack.CodeAt(packed, p, b))
					k++
				}
			}
			continue
		}
		all := d.excPositions(blk, g, &s.xpos)
		xi := 0
		for w := w0; w < w1; w++ {
			vb := w << 5
			for m := mask[w]; m != 0; m &= m - 1 {
				p := vb + bits.TrailingZeros32(m)
				for xi < len(all) && int(all[xi]) < p {
					xi++
				}
				if xi < len(all) && int(all[xi]) == p {
					codes[k] = -1
				} else {
					codes[k] = int32(bitpack.CodeAt(packed, p, b))
				}
				k++
			}
		}
	}
	return codes[:k]
}

// growTo extends vals to length n, reusing capacity when possible.
func growTo[T Integer](vals []T, n int) []T {
	if cap(vals) >= n {
		return vals[:n]
	}
	out := make([]T, n, max(n, 2*cap(vals)))
	copy(out, vals)
	return out
}
