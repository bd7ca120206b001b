package zukowski

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/segment"
)

// Multi-predicate selection-vector composition: the conjunctive scan the
// paper's RAM-CPU pipeline runs on compressed vectors. A ColumnSet groups
// columns that share block geometry (same rows, same block boundaries —
// the layout one ColumnWriter configuration produces for every column of
// a table), so a selection bitmap computed over one column's block applies
// row-for-row to every other column's same-numbered block. ScanWhereAll
// evaluates a conjunction of range predicates one predicate at a time:
// the most selective predicate (estimated per block from the zone maps)
// builds the block's bitmap with DecompressMask, each further predicate
// narrows it with RefineMask — skipping 128-row groups the running bitmap
// has already emptied, without extracting a single code — and only the
// rows that survive every predicate are materialized, from each column,
// by DecompressSelected. Nothing that fails the conjunction is ever
// decoded into a value.

// Pred is one conjunct of a multi-column predicate: the inclusive value
// range [Lo, Hi] over column Col of a ColumnSet. A Pred with Lo > Hi
// selects nothing (and therefore empties the whole conjunction).
type Pred[T Integer] struct {
	Col    int
	Lo, Hi T
}

// ColumnSet scans several same-geometry columns as one unit, composing
// per-column selection bitmaps before any row is materialized. A
// ColumnSet is safe for concurrent use whenever its ColumnReaders are;
// scan scratch lives in an internal pool, one state per running scan (or
// per worker, for the parallel form).
type ColumnSet[T Integer] struct {
	cols   []*ColumnReader[T]
	states sync.Pool
}

// NewColumnSet groups columns for conjunctive scans. Every column must
// hold the same number of rows split at the same block boundaries;
// anything else returns ErrColumnSetMismatch — a bitmap composed over
// mismatched blocks would silently pair values of different rows.
func NewColumnSet[T Integer](cols ...*ColumnReader[T]) (*ColumnSet[T], error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("%w: a column set needs at least one column", ErrColumnSetMismatch)
	}
	first := cols[0]
	for i, cr := range cols[1:] {
		if cr.Len() != first.Len() {
			return nil, fmt.Errorf("%w: column 0 holds %d rows, column %d holds %d",
				ErrColumnSetMismatch, first.Len(), i+1, cr.Len())
		}
		if cr.NumBlocks() != first.NumBlocks() {
			return nil, fmt.Errorf("%w: column 0 has %d blocks, column %d has %d",
				ErrColumnSetMismatch, first.NumBlocks(), i+1, cr.NumBlocks())
		}
		for b := range cr.blocks {
			if cr.blocks[b].count != first.blocks[b].count {
				return nil, fmt.Errorf("%w: block %d holds %d rows in column %d but %d in column 0",
					ErrColumnSetMismatch, b, cr.blocks[b].count, i+1, first.blocks[b].count)
			}
		}
	}
	return &ColumnSet[T]{cols: cols}, nil
}

// Columns returns the number of columns in the set.
func (cs *ColumnSet[T]) Columns() int { return len(cs.cols) }

// Column returns column i's reader.
func (cs *ColumnSet[T]) Column(i int) *ColumnReader[T] { return cs.cols[i] }

// Len returns the number of rows (shared by every column).
func (cs *ColumnSet[T]) Len() int { return cs.cols[0].Len() }

// NumBlocks returns the number of blocks (shared by every column).
func (cs *ColumnSet[T]) NumBlocks() int { return cs.cols[0].NumBlocks() }

// setColState is one column's share of a scan state: the column's decode
// scratch plus a memo of what has already been computed for the block the
// scan is currently evaluating, so a column whose block was parsed for
// predicate masking is not re-parsed for materialization.
type setColState[T Integer] struct {
	decodeState[T]
	gath []T   // materialized output buffer of this column
	form uint8 // what the state holds for the current block
}

const (
	colNone uint8 = iota // nothing prepared for this block yet
	colSeg               // blk holds the parsed patched segment
	colVals              // vals holds the fully decoded block (raw/baseline)
)

// setState is the per-scan (per-worker) scratch of a ColumnSet scan.
type setState[T Integer] struct {
	cols []setColState[T]
	sv   core.SelectionVector
	rows []int64
	out  [][]T // out[i] aliases cols[i].gath after materialization
	ord  []int // predicate evaluation order scratch
	est  []float64

	// svPool holds scratch selection vectors for nested expression
	// subtrees (see pushSV), one per active depth, reused across blocks.
	svPool  []*core.SelectionVector
	svDepth int

	// codes is the per-block dictionary-code scratch of GroupAggregate's
	// code-space path, one slice per group column.
	codes [][]int32
}

func (cs *ColumnSet[T]) getState() *setState[T] {
	if st, ok := cs.states.Get().(*setState[T]); ok {
		return st
	}
	return &setState[T]{
		cols: make([]setColState[T], len(cs.cols)),
		out:  make([][]T, len(cs.cols)),
	}
}

func (cs *ColumnSet[T]) putState(st *setState[T]) { cs.states.Put(st) }

// begin invalidates the per-block memos before evaluating a new block.
func (st *setState[T]) begin() {
	for i := range st.cols {
		st.cols[i].form = colNone
	}
}

// prepare fetches block b of cr into st, memoized per block iteration:
// patched frames are parsed once (sections only, nothing decoded), raw
// and baseline frames are decoded once into st.vals. It reports whether
// the block is patched-compressed, i.e. whether the compressed-domain
// mask kernels apply.
func (st *setColState[T]) prepare(cr *ColumnReader[T], b int) (patched bool, err error) {
	switch st.form {
	case colSeg:
		return true, nil
	case colVals:
		return false, nil
	}
	frame, err := cr.frame(b)
	if err != nil {
		return false, err
	}
	want := int(cr.blocks[b].count)
	if len(frame) > 0 && frame[0] == segment.Magic && segment.IsCompressed(frame) {
		if err := parseSegmentInto(&st.blk, frame, cr.trustedFrames()); err != nil {
			return false, fmt.Errorf("block %d: %w", b, corrupt(err))
		}
		if st.blk.N != want {
			return false, fmt.Errorf("%w: block %d holds %d values, directory says %d",
				ErrCorruptColumn, b, st.blk.N, want)
		}
		st.form = colSeg
		return true, nil
	}
	dec, err := st.decodeInto(st.vals[:0], frame, cr.trustedFrames())
	if err != nil {
		return false, fmt.Errorf("block %d: %w", b, err)
	}
	st.vals = dec
	if len(dec) != want {
		return false, fmt.Errorf("%w: block %d holds %d values, directory says %d",
			ErrCorruptColumn, b, len(dec), want)
	}
	st.form = colVals
	return false, nil
}

func b2u32(v bool) uint32 {
	if v {
		return 1
	}
	return 0
}

// maskCol evaluates [lo, hi] over column ci's block b into sv: a fresh
// bitmap (maskFresh), an intersection with the running bitmap
// (maskRefine), or a union into it (maskUnion). Patched frames stay in
// the compressed code domain; raw and baseline frames compare decoded
// values (fetched once per block thanks to the prepare memo).
func (cs *ColumnSet[T]) maskCol(st *setColState[T], ci, b int, lo, hi T, sv *core.SelectionVector, mode uint8) error {
	patched, err := st.prepare(cs.cols[ci], b)
	if err != nil {
		return err
	}
	if patched {
		switch mode {
		case maskRefine:
			st.dec.RefineMask(&st.blk, lo, hi, sv)
		case maskUnion:
			st.dec.UnionMask(&st.blk, lo, hi, sv)
		default:
			st.dec.DecompressMask(&st.blk, lo, hi, sv)
		}
		return nil
	}
	vals := st.vals
	switch mode {
	case maskRefine:
		words := sv.Words()
		for w, m := range words {
			if m == 0 {
				continue
			}
			vb := w << 5
			lim := min(32, len(vals)-vb)
			var match uint32
			for j := 0; j < lim; j++ {
				v := vals[vb+j]
				match |= b2u32(v >= lo && v <= hi) << j
			}
			words[w] = m & match
		}
	case maskUnion:
		if lo > hi {
			return nil
		}
		words := sv.Words()
		for w := range words {
			vb := w << 5
			lim := min(32, len(vals)-vb)
			var m uint32
			for j := 0; j < lim; j++ {
				v := vals[vb+j]
				m |= b2u32(v >= lo && v <= hi) << j
			}
			words[w] |= m
		}
	default:
		sv.Reset(len(vals))
		words := sv.Words()
		for w := range words {
			vb := w << 5
			lim := min(32, len(vals)-vb)
			var m uint32
			for j := 0; j < lim; j++ {
				v := vals[vb+j]
				m |= b2u32(v >= lo && v <= hi) << j
			}
			words[w] = m
		}
	}
	return nil
}

// gatherCol materializes column ci's values at the rows sv selects, into
// the column's reusable buffer.
func (cs *ColumnSet[T]) gatherCol(st *setColState[T], ci, b int, sv *core.SelectionVector) ([]T, error) {
	patched, err := st.prepare(cs.cols[ci], b)
	if err != nil {
		return nil, err
	}
	if patched {
		st.gath = st.dec.DecompressSelected(&st.blk, sv, st.gath[:0])
		return st.gath, nil
	}
	out := st.gath[:0]
	vals := st.vals
	for w, m := range sv.Words() {
		vb := w << 5
		for ; m != 0; m &= m - 1 {
			out = append(out, vals[vb+bits.TrailingZeros32(m)])
		}
	}
	st.gath = out
	return out, nil
}

// predEstimate estimates the fraction of block b's rows [lo, hi] can
// select, from the zone map alone: the width of the predicate's overlap
// with the block's value range, relative to that range. It orders
// predicates cheapest-first; correctness never depends on it. Without
// zone maps (ZKC1) every predicate estimates 1.
func (cr *ColumnReader[T]) predEstimate(b int, lo, hi T) float64 {
	bmin, bmax, ok := cr.ZoneMap(b)
	if !ok {
		return 1
	}
	l, h := max(lo, bmin), min(hi, bmax)
	if l > h {
		return 0
	}
	span := float64(bmax) - float64(bmin) + 1
	if span <= 0 {
		return 1
	}
	return (float64(h) - float64(l) + 1) / span
}

// orderPreds fills st.ord with predicate indices, most selective first by
// zone-map estimate (insertion sort on scratch: stable, allocation-free).
func (st *setState[T]) orderPreds(cs *ColumnSet[T], b int, preds []Pred[T]) []int {
	if cap(st.ord) < len(preds) {
		st.ord = make([]int, len(preds))
		st.est = make([]float64, len(preds))
	}
	ord, est := st.ord[:len(preds)], st.est[:len(preds)]
	for i, p := range preds {
		ord[i] = i
		est[i] = cs.cols[p.Col].predEstimate(b, p.Lo, p.Hi)
	}
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && est[ord[j]] < est[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	return ord
}

// checkPreds validates predicate column indices and reports whether the
// conjunction is trivially empty (some Lo > Hi).
func (cs *ColumnSet[T]) checkPreds(preds []Pred[T]) (empty bool, err error) {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(cs.cols) {
			return false, fmt.Errorf("%w: predicate column %d not in [0,%d)",
				ErrIndexOutOfRange, p.Col, len(cs.cols))
		}
		if p.Lo > p.Hi {
			empty = true
		}
	}
	return empty, nil
}

// zoneMatchAll returns the block predicate of the conjunction: a block
// survives only if no predicate's zone map excludes it.
func (cs *ColumnSet[T]) zoneMatchAll(preds []Pred[T]) func(b int) bool {
	return func(b int) bool {
		for _, p := range preds {
			if cs.cols[p.Col].blockExcludes(b, p.Lo, p.Hi) {
				return false
			}
		}
		return true
	}
}

// blockMask composes the selection bitmap of block b into st.sv and
// reports whether any row survives. Predicates run most-selective-first;
// composition stops the moment the bitmap empties.
func (cs *ColumnSet[T]) blockMask(st *setState[T], b int, preds []Pred[T]) (any bool, err error) {
	defer guardSegment(&err)
	st.begin()
	if len(preds) == 0 {
		st.sv.Fill(int(cs.cols[0].blocks[b].count))
		return st.sv.Any(), nil
	}
	ord := st.orderPreds(cs, b, preds)
	for k, pi := range ord {
		p := preds[pi]
		mode := maskFresh
		if k > 0 {
			mode = maskRefine
		}
		if err := cs.maskCol(&st.cols[p.Col], p.Col, b, p.Lo, p.Hi, &st.sv, mode); err != nil {
			return false, err
		}
		if !st.sv.Any() {
			return false, nil
		}
	}
	return true, nil
}

// blockMaskQuery composes block b's bitmap for q: the []Pred conjunction
// first (most-selective-first, exactly the blockMask path), then the
// expression tree refining it — or, without preds, the tree evaluated
// fresh. Either side emptying the bitmap stops the block early.
func (cs *ColumnSet[T]) blockMaskQuery(st *setState[T], b int, q *Query[T]) (any bool, err error) {
	if q.Expr.isZero() {
		return cs.blockMask(st, b, q.Preds)
	}
	if len(q.Preds) > 0 {
		any, err = cs.blockMask(st, b, q.Preds)
		if err != nil || !any {
			return any, err
		}
		defer guardSegment(&err)
		if err = cs.evalExpr(st, &q.Expr, b, st.sv.Len(), &st.sv, maskRefine); err != nil {
			return false, err
		}
		return st.sv.Any(), nil
	}
	defer guardSegment(&err)
	st.begin()
	n := int(cs.cols[0].blocks[b].count)
	if err = cs.evalExpr(st, &q.Expr, b, n, &st.sv, maskFresh); err != nil {
		return false, err
	}
	return st.sv.Any(), nil
}

// blockQuery evaluates block b of q: bitmap composition, then row-number
// decoding and materialization of the requested columns (all of them when
// q.Cols is nil). rows is nil when no row survives.
func (cs *ColumnSet[T]) blockQuery(st *setState[T], b int, q *Query[T]) (rows []int64, out [][]T, err error) {
	any, err := cs.blockMaskQuery(st, b, q)
	if err != nil || !any {
		return nil, nil, err
	}
	defer guardSegment(&err)
	st.rows = st.sv.AppendRows(st.rows[:0], int64(cs.cols[0].starts[b]))
	if q.Cols == nil {
		for ci := range cs.cols {
			vals, err := cs.gatherCol(&st.cols[ci], ci, b, &st.sv)
			if err != nil {
				return nil, nil, err
			}
			st.out[ci] = vals
		}
		return st.rows, st.out, nil
	}
	out = st.out[:len(q.Cols)]
	for i, ci := range q.Cols {
		vals, err := cs.gatherCol(&st.cols[ci], ci, b, &st.sv)
		if err != nil {
			return nil, nil, err
		}
		out[i] = vals
	}
	return st.rows, out, nil
}

// runSeq is the sequential scan loop shared by Run, ScanWhereAll and
// their context variants — also the one-worker degenerate case of the
// parallel form. ctx is consulted once per block (see ScanWhereAllContext);
// context.Background() never fires and costs one predictable branch.
func (cs *ColumnSet[T]) runSeq(ctx context.Context, cfg *scanConfig, q *Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	empty, err := cs.checkQuery(q)
	if err != nil || empty {
		return err
	}
	st := cs.getState()
	defer cs.putState(st)
	match := cs.queryMatch(q)
	for b := range cs.cols[0].blocks {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !match(b) {
			continue
		}
		rows, out, err := cs.blockQuery(st, b, q)
		if err != nil {
			if cfg.skipBlock(int(cs.cols[0].blocks[b].count), err) {
				continue
			}
			return err
		}
		if len(rows) == 0 {
			continue
		}
		if !fn(b, rows, out) {
			return nil
		}
	}
	return nil
}

// runParallel is the block-parallel scan loop shared by Run and
// ParallelScanWhereAll, with the delivery contract of the other parallel
// scans: serialized, unordered unless configured otherwise.
func (cs *ColumnSet[T]) runParallel(ctx context.Context, cfg *scanConfig, q *Query[T], workers int, fn func(block int, rows []int64, cols [][]T) bool) error {
	empty, err := cs.checkQuery(q)
	if err != nil || empty {
		return err
	}
	seq := func() error { return cs.runSeq(ctx, cfg, q, fn) }
	work := func(st *setState[T], b int) (func() bool, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows, out, err := cs.blockQuery(st, b, q)
		if err != nil {
			if cfg.skipBlock(int(cs.cols[0].blocks[b].count), err) {
				return nil, nil
			}
			return nil, err
		}
		if len(rows) == 0 {
			return nil, nil
		}
		return func() bool { return fn(b, rows, out) }, nil
	}
	return parallelBlocksEngine(len(cs.cols[0].blocks), workers, cs.queryMatch(q), cfg,
		seq, cs.getState, cs.putState, work)
}

// runAggregate is the aggregate loop shared by RunAggregate and
// AggregateWhereAll: bitmap composition per block, then a fold over just
// the target column's survivors (blockAggregate). Each block yields one
// partial aggregate; merging partials is order-free, so the parallel form
// runs on the block engine and merges in whatever order blocks finish.
func (cs *ColumnSet[T]) runAggregate(ctx context.Context, cfg *scanConfig, q *Query[T], col int) (Aggregate[T], error) {
	if col < 0 || col >= len(cs.cols) {
		return Aggregate[T]{}, fmt.Errorf("%w: aggregate column %d not in [0,%d)", ErrIndexOutOfRange, col, len(cs.cols))
	}
	empty, err := cs.checkQuery(q)
	if err != nil || empty {
		return Aggregate[T]{}, err
	}
	if q.Workers > 1 {
		return cs.runAggregateParallel(ctx, cfg, *q, col)
	}
	return cs.runAggregateSeq(ctx, cfg, q, col)
}

// runAggregateSeq is the sequential aggregate loop. It captures nothing in
// closures that outlive it, so a warmed optionless run allocates nothing.
func (cs *ColumnSet[T]) runAggregateSeq(ctx context.Context, cfg *scanConfig, q *Query[T], col int) (Aggregate[T], error) {
	var agg Aggregate[T]
	st := cs.getState()
	defer cs.putState(st)
	match := cs.queryMatch(q)
	for b := range cs.cols[0].blocks {
		if err := ctx.Err(); err != nil {
			return Aggregate[T]{}, err
		}
		if !match(b) {
			continue
		}
		part, err := cs.blockAggregate(st, b, q, col)
		if err != nil {
			if cfg.skipBlock(int(cs.cols[0].blocks[b].count), err) {
				continue
			}
			return Aggregate[T]{}, err
		}
		agg.merge(part)
	}
	return agg, nil
}

// runAggregateParallel folds blocks across q.Workers goroutines, each
// with its own pooled scan state; the engine's serialized delivery merges
// the per-block partials. It takes its own copy of the query, because the
// worker closures capture it.
func (cs *ColumnSet[T]) runAggregateParallel(ctx context.Context, cfg *scanConfig, q Query[T], col int) (Aggregate[T], error) {
	var agg Aggregate[T]
	seq := func() (err error) {
		agg, err = cs.runAggregateSeq(ctx, cfg, &q, col)
		return err
	}
	work := func(st *setState[T], b int) (func() bool, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		part, err := cs.blockAggregate(st, b, &q, col)
		if err != nil {
			if cfg.skipBlock(int(cs.cols[0].blocks[b].count), err) {
				return nil, nil
			}
			return nil, err
		}
		if part.Count == 0 {
			return nil, nil
		}
		return func() bool { agg.merge(part); return true }, nil
	}
	err := parallelBlocksEngine(len(cs.cols[0].blocks), q.Workers, cs.queryMatch(&q), cfg,
		seq, cs.getState, cs.putState, work)
	if err != nil {
		return Aggregate[T]{}, err
	}
	return agg, nil
}

// blockAggregate composes block b's bitmap for q and folds column col's
// values at the surviving rows. Patched frames fold in the compressed
// domain (core AggregateSelected); raw and baseline frames fold their
// decoded values under the bitmap. Crafted frames surface as
// ErrCorruptSegment, never a panic.
func (cs *ColumnSet[T]) blockAggregate(st *setState[T], b int, q *Query[T], col int) (agg core.Aggregate[T], err error) {
	any, err := cs.blockMaskQuery(st, b, q)
	if err != nil || !any {
		return agg, err
	}
	defer guardSegment(&err)
	cst := &st.cols[col]
	patched, err := cst.prepare(cs.cols[col], b)
	if err != nil {
		return agg, err
	}
	if patched {
		return cst.dec.AggregateSelected(&cst.blk, &st.sv), nil
	}
	return core.AggregateValues(cst.vals, &st.sv), nil
}

// ScanWhereAll scans the set with a conjunction of range predicates
// evaluated below decompression, invoking fn once per block that contains
// at least one surviving row with the global row numbers and, per column
// of the set, the values of those rows (cols[i][j] is column i's value at
// rows[j]). Blocks any predicate's zone map excludes are skipped unread;
// inside a surviving block the most selective predicate (zone-map
// estimate) builds the selection bitmap in the compressed code domain,
// each further predicate refines it — groups the running bitmap has
// emptied are never touched — and only rows passing every predicate are
// materialized. The slices are reused between calls; fn must copy what it
// keeps, and returning false stops the scan early. An empty preds slice
// selects every row.
//
// ScanWhereAll is a thin wrapper over the Run machinery, kept for
// callers of the original conjunction-only API: it is exactly
// Run(ctx, Query{Preds: preds}, ...) without the block index.
//
// A warmed sequential ScanWhereAll performs no heap allocation: the scan
// holds one pooled state — per-column decode scratch, the bitmap, and the
// output buffers — for its whole pass.
func (cs *ColumnSet[T]) ScanWhereAll(preds []Pred[T], fn func(rows []int64, cols [][]T) bool, opts ...ScanOption) error {
	q := Query[T]{Preds: preds}
	return cs.runSeq(context.Background(), parseScanOpts(opts), &q,
		func(_ int, rows []int64, cols [][]T) bool { return fn(rows, cols) })
}

// ParallelScanWhereAll is ScanWhereAll across a block-granular worker
// pool, with the delivery contract of the other parallel scans: fn
// receives each surviving block's rows and column values exactly once,
// never concurrently, unordered unless InOrder is given; fn returning
// false (or an error) stops the scan. Blocks without surviving rows are
// skipped without a delivery. Each worker owns one pooled scan state —
// every column's decode scratch and bitmap — for the whole scan. It is a
// thin wrapper over Run with Query.Workers set.
func (cs *ColumnSet[T]) ParallelScanWhereAll(preds []Pred[T], workers int, fn func(block int, rows []int64, cols [][]T) bool, opts ...ScanOption) error {
	q := Query[T]{Preds: preds}
	return cs.runParallel(context.Background(), parseScanOpts(opts), &q, workers, fn)
}

// AggregateWhereAll computes Count, Sum, Min and Max over column col's
// values at the rows matching every predicate. The bitmap composes
// exactly as in ScanWhereAll; only the target column's surviving rows are
// then decoded, into a reusable buffer, so the aggregate never
// materializes a non-matching value. An empty preds slice aggregates the
// whole column; a trivially empty conjunction yields Count == 0. It is a
// thin wrapper over RunAggregate with Query{Preds: preds}.
func (cs *ColumnSet[T]) AggregateWhereAll(preds []Pred[T], col int, opts ...ScanOption) (Aggregate[T], error) {
	q := Query[T]{Preds: preds}
	return cs.runAggregate(context.Background(), parseScanOpts(opts), &q, col)
}
