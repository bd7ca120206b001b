package zukowski_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"slices"
	"testing"

	"repro/zukowski"
)

// aggregateCodecs are the codecs FuzzRunAggregate writes columns with:
// the three patched schemes, whose aggregates fold in the compressed
// domain, and baseline codecs, which fold decoded values.
var aggregateCodecs = []string{"pfor", "pdict", "pfor-delta", "for", "dict", "none"}

// FuzzRunAggregate is the differential fuzzer of RunAggregate: random
// columns — small domains with rare outliers, so the patched codecs carry
// exceptions, and block sizes that leave partial last groups — are
// filtered by random Preds and Expr trees and aggregated with 1, 2 or 4
// workers. Count, Sum, Min and Max must equal a scalar fold over the rows
// the predicates select.
func FuzzRunAggregate(f *testing.F) {
	f.Add([]byte{}, []byte{0}, uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, []byte{3, 0, 1, 2, 9, 4}, uint16(300), uint8(1), uint8(2), uint8(3), uint8(1), uint8(5))
	f.Add(bytes.Repeat([]byte{7, 9, 46}, 40), []byte{2, 2, 0, 0, 10, 20, 1, 1, 3}, uint16(2000), uint8(4), uint8(0), uint8(2), uint8(5), uint8(9))
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40), []byte{3, 1, 5, 0, 128, 255, 2}, uint16(999), uint8(2), uint8(5), uint8(1), uint8(7), uint8(2))
	// Unfiltered folds over every patched scheme's exceptions: column 0
	// (pfor) at 1 worker, column 2 (pdict) at 2, column 1 (pfor-delta) at 4.
	f.Add([]byte{}, []byte{}, uint16(700), uint8(0), uint8(2), uint8(1), uint8(3), uint8(0))
	f.Add([]byte{}, []byte{}, uint16(700), uint8(0), uint8(2), uint8(1), uint8(3), uint8(0x28))
	f.Add([]byte{}, []byte{}, uint16(700), uint8(0), uint8(2), uint8(1), uint8(3), uint8(0x50))

	f.Fuzz(func(t *testing.T, data, tree []byte, rows uint16, codecA, codecB, codecC, blockSel, querySel uint8) {
		n := 1 + int(rows)%4096 + len(data)
		cols := aggregateColumns(data, n)
		codecSel := []uint8{codecA, codecB, codecC}
		blockValues := 64 + int(blockSel)*97
		crs := make([]*zukowski.ColumnReader[int64], len(cols))
		for c := range cols {
			crs[c] = buildAggregateColumn(t, aggregateCodecs[int(codecSel[c])%len(aggregateCodecs)], blockValues, cols[c])
		}
		cs, err := zukowski.NewColumnSet(crs...)
		if err != nil {
			t.Fatalf("NewColumnSet: %v", err)
		}

		r := &fuzzByteReader{data: tree}
		var q zukowski.Query[int64]
		var node *fuzzNode
		if querySel&1 != 0 {
			nd := genNode(r, cols, 0)
			node = &nd
			q.Expr = nd.expr()
		}
		for k := 0; k < int(querySel>>1)%3; k++ {
			ci := int(r.next()) % len(cols)
			sorted := slices.Sorted(slices.Values(cols[ci]))
			lo, hi := sorted[int(r.next())*n/256], sorted[int(r.next())*n/256]
			q.Preds = append(q.Preds, zukowski.Pred[int64]{Col: ci, Lo: lo, Hi: hi})
		}
		col := int(querySel>>3) % len(cols)
		q.Workers = []int{1, 2, 4}[int(querySel>>5)%3]

		var want zukowski.Aggregate[int64]
		for i := 0; i < n; i++ {
			keep := node == nil || node.eval(cols, i)
			for _, p := range q.Preds {
				v := cols[p.Col][i]
				keep = keep && v >= p.Lo && v <= p.Hi
			}
			if !keep {
				continue
			}
			v := cols[col][i]
			if want.Count == 0 || v < want.Min {
				want.Min = v
			}
			if want.Count == 0 || v > want.Max {
				want.Max = v
			}
			want.Count++
			want.Sum += v
		}

		got, err := cs.RunAggregate(t.Context(), q, col)
		if err != nil {
			t.Fatalf("RunAggregate (workers %d): %v", q.Workers, err)
		}
		if got != want {
			t.Fatalf("RunAggregate (workers %d, %d preds, expr %v) = %+v, want %+v",
				q.Workers, len(q.Preds), node != nil, got, want)
		}
	})
}

// aggregateColumns derives three n-row columns from data: a small-domain
// column with rare large outliers (PDICT and PFOR exceptions), a running
// sum with occasional jumps and drops (PFOR-DELTA exceptions), and a
// signed scramble of the first. Rows past len(data) continue from a
// generator seeded with data, so short inputs still span several groups.
func aggregateColumns(data []byte, n int) [][]int64 {
	h := fnv.New64a()
	h.Write(data)
	state := h.Sum64()
	next := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	cols := [][]int64{make([]int64, n), make([]int64, n), make([]int64, n)}
	acc := int64(0)
	for i := 0; i < n; i++ {
		b := next(i)
		v := int64(b % 40)
		if b%29 == 0 {
			v = 1<<36 + int64(i)
		}
		cols[0][i] = v
		acc += int64(b % 8)
		switch b % 61 {
		case 0:
			acc += 1 << 30
		case 1:
			acc -= 1 << 20
		}
		cols[1][i] = acc
	}
	for i := 0; i < n; i++ {
		cols[2][i] = cols[0][(i*7+3)%n]%97*3 - 50
	}
	return cols
}

// buildAggregateColumn writes vals with the named codec in blocks of
// blockValues rows and opens the result.
func buildAggregateColumn(t *testing.T, name string, blockValues int, vals []int64) *zukowski.ColumnReader[int64] {
	codec, err := zukowski.Lookup[int64](name)
	if err != nil {
		t.Fatalf("Lookup(%s): %v", name, err)
	}
	var buf bytes.Buffer
	cw, err := zukowski.NewColumnWriter[int64](&buf, codec, blockValues)
	if err != nil {
		t.Fatalf("NewColumnWriter: %v", err)
	}
	if err := cw.Write(vals); err != nil {
		// Codecs with a bounded input domain reject some datasets; that
		// is their contract, not an aggregate bug.
		if errors.Is(err, zukowski.ErrWidthOutOfRange) || errors.Is(err, zukowski.ErrValueOutOfRange) {
			t.Skip()
		}
		t.Fatalf("Write: %v", err)
	}
	if err := cw.Close(); err != nil {
		if errors.Is(err, zukowski.ErrWidthOutOfRange) || errors.Is(err, zukowski.ErrValueOutOfRange) {
			t.Skip()
		}
		t.Fatalf("Close: %v", err)
	}
	cr, err := zukowski.OpenColumn[int64](buf.Bytes())
	if err != nil {
		t.Fatalf("OpenColumn: %v", err)
	}
	return cr
}
