package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bitpack"
	"repro/zktable"
	"repro/zukowski"
)

// perCall returns the median nanoseconds per call of fn over five rounds
// of at least d/5 each: a same-run figure, never used to scale an
// end-to-end metric.
func perCall(d time.Duration, fn func()) float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		n := 0
		t0 := time.Now()
		for n == 0 || time.Since(t0) < d/5 {
			fn()
			n++
		}
		rounds = append(rounds, float64(time.Since(t0))/float64(n))
	}
	return median(rounds)
}

// kernels measures the L1 and L0 kernels on the frames of the served
// aggregate table's first segment (c1 and c2, the columns its requests
// touch), beside a memory-copy calibration taken in the same run. The
// results are reported only as per-layer figures and ratios.
func (b *aggBench) kernels(out *outcome) error {
	tb, _, err := zktable.Open[int64](b.tdir, zktable.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer tb.Close()
	readers, err := tb.SegmentReaders(0)
	if err != nil {
		return err
	}
	var frames [][]byte
	var values int
	widths := map[uint]int{} // bit width → blocks coded at it
	for _, cr := range readers[1:] {
		for blk := 0; blk < cr.NumBlocks(); blk++ {
			f, err := cr.FrameBytes(blk)
			if err != nil {
				return err
			}
			st, err := zukowski.Inspect[int64](f)
			if err != nil {
				return err
			}
			if st.BitWidth > 0 {
				widths[st.BitWidth]++
			}
			frames = append(frames, bytes.Clone(f))
			values += st.NumValues
		}
	}
	if len(widths) == 0 {
		return fmt.Errorf("serve-agg: no bit-packed block in the table")
	}
	budget := 400 * time.Millisecond

	src := make([]byte, b.e.sz.copyBytes)
	dst := make([]byte, b.e.sz.copyBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copyGBps := float64(len(src)) / perCall(budget, func() { copy(dst, src) })
	out.set("mem.copy_gbps", copyGBps)

	var dec zukowski.FrameDecoder[int64]
	vals := make([]int64, 0, b.e.sz.blockValues)
	var decErr error
	decodeNs := perCall(budget, func() {
		for _, f := range frames {
			if vals, decErr = dec.Decode(vals[:0], f); decErr != nil {
				return
			}
		}
	})
	if decErr != nil {
		return decErr
	}
	decodeGBps := float64(values*8) / decodeNs
	out.set("zukowski.decode_gbps", decodeGBps)
	out.set("zukowski.decode_membw_frac", decodeGBps/copyGBps)

	// Bit-unpack and select-mask over random codes at every width the
	// table's blocks use, weighted by how many blocks use it.
	n := b.e.sz.blockValues
	rng := rand.New(rand.NewSource(subSeed(b.e.seed, 6)))
	var unpackNs, selectNs float64
	var blocks int
	for w, count := range widths {
		codes := make([]uint32, n)
		for i := range codes {
			codes[i] = uint32(rng.Int63n(1 << w))
		}
		packed := make([]uint32, bitpack.WordCount(n, w))
		bitpack.Pack(packed, codes, w)
		unpacked := make([]uint32, n)
		masks := make([]uint32, n/32)
		unpackNs += float64(count) * perCall(budget/time.Duration(len(widths)), func() { bitpack.Unpack(unpacked, packed, w) })
		selectNs += float64(count) * perCall(budget/time.Duration(len(widths)), func() { bitpack.SelectMask(masks, packed, w, 0, 1<<(w-1)) })
		blocks += count
	}
	bytesPerBlock := float64(n * 4)
	out.set("bitpack.unpack_gbps", bytesPerBlock*float64(blocks)/unpackNs)
	out.set("bitpack.selectmask_gbps", bytesPerBlock*float64(blocks)/selectNs)
	return nil
}
