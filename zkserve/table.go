package zkserve

import (
	"context"
	"errors"
	"fmt"

	"repro/zukowski"
)

// Query planning. A scanPlan is a validated request against one table:
// resolved output columns, resolved predicates in the wire (int64)
// domain, and a worker count. Row and aggregate mode translate the
// predicate — the conjunction plus any any_of disjunction, mapped onto
// an expression tree — into one zukowski.Query and run it on a typed
// source: for a flat table, a ColumnSet over exactly the involved
// columns at their shared element width; for a sharded table, the open
// zktable.Table. Zone-map pruning, compressed-domain bitmaps and
// refine/union kernels all engage server-side, and only surviving rows
// are widened onto the wire.

// predSpec is one resolved conjunct in the wire domain.
type predSpec struct {
	col    int // index into table.cols
	lo, hi int64
}

// scanPlan is a validated scan against one table.
type scanPlan struct {
	table   *Table
	out     []int // output column indices, in request order
	preds   []predSpec
	workers int

	// orGroups is the resolved any_of disjunction: a row must satisfy
	// every preds conjunct AND all conjuncts of at least one group. Empty
	// means no disjunction.
	orGroups [][]predSpec

	// skip makes the scan degraded: corrupt or quarantined blocks are
	// dropped and accounted in report instead of failing the request.
	skip   bool
	report *zukowski.ScanReport
}

// involved returns the deduplicated union of output and predicate
// columns, preserving first-appearance order (outputs first).
func (p *scanPlan) involved() []int {
	seen := make(map[int]bool, len(p.out)+len(p.preds))
	var inv []int
	add := func(ci int) {
		if !seen[ci] {
			seen[ci] = true
			inv = append(inv, ci)
		}
	}
	for _, ci := range p.out {
		add(ci)
	}
	for _, ps := range p.preds {
		add(ps.col)
	}
	for _, g := range p.orGroups {
		for _, ps := range g {
			add(ps.col)
		}
	}
	return inv
}

// blockExcluded reports whether block b's zone maps prove the plan's
// predicate selects no row of it: some conjunct excludes the block, or
// the disjunction is present and every alternative has an excluding
// conjunct. A predicate with lo > hi excludes everything.
func (p *scanPlan) blockExcluded(b int) bool {
	for _, ps := range p.preds {
		if ps.lo > ps.hi || p.table.cols[ps.col].excludes(b, ps.lo, ps.hi) {
			return true
		}
	}
	if len(p.orGroups) == 0 {
		return false
	}
	for _, g := range p.orGroups {
		live := true
		for _, ps := range g {
			if ps.lo > ps.hi || p.table.cols[ps.col].excludes(b, ps.lo, ps.hi) {
				live = false
				break
			}
		}
		if live {
			return false
		}
	}
	return true
}

// checkGeometry verifies the involved columns agree on rows and block
// boundaries — the invariant that lets one block's selection bitmap (or
// one block index, in frame mode) apply across all of them.
func (p *scanPlan) checkGeometry(involved []int) error {
	first := p.table.cols[involved[0]]
	for _, ci := range involved[1:] {
		c := p.table.cols[ci]
		if c.rows() != first.rows() {
			return fmt.Errorf("%w: column %q holds %d rows, column %q holds %d",
				ErrMismatch, first.colName(), first.rows(), c.colName(), c.rows())
		}
		if c.numBlocks() != first.numBlocks() {
			return fmt.Errorf("%w: column %q has %d blocks, column %q has %d",
				ErrMismatch, first.colName(), first.numBlocks(), c.colName(), c.numBlocks())
		}
		for b := 0; b < c.numBlocks(); b++ {
			if c.blockCount(b) != first.blockCount(b) {
				return fmt.Errorf("%w: block %d holds %d rows in column %q but %d in column %q",
					ErrMismatch, b, c.blockCount(b), c.colName(), first.blockCount(b), first.colName())
			}
		}
	}
	return nil
}

// uniformWidth verifies the involved columns share one element width —
// required wherever values of several columns flow through one typed
// ColumnSet — and returns it.
func (p *scanPlan) uniformWidth(involved []int) (int, error) {
	w := p.table.cols[involved[0]].widthBytes()
	for _, ci := range involved[1:] {
		if cw := p.table.cols[ci].widthBytes(); cw != w {
			return 0, fmt.Errorf("%w: column %q is %d bytes wide, column %q is %d (row-mode scans need one width; frame mode has no such limit)",
				ErrMismatch, p.table.cols[involved[0]].colName(), w, p.table.cols[ci].colName(), cw)
		}
	}
	return w, nil
}

// validateRowMode runs every check that must pass before the response
// header is committed: geometry and width agreement across the involved
// columns. Mapped to 422 by the HTTP layer.
func (p *scanPlan) validateRowMode() error {
	if p.table.sharded() {
		return p.validateSharded(true)
	}
	inv := p.involved()
	if err := p.checkGeometry(inv); err != nil {
		return err
	}
	_, err := p.uniformWidth(inv)
	return err
}

// validateFrameMode checks what frame-mode streaming needs: geometry
// only — frames of different element widths ship side by side fine.
func (p *scanPlan) validateFrameMode() error {
	if p.table.sharded() {
		return p.validateSharded(false)
	}
	return p.checkGeometry(p.involved())
}

// blockStats walks directory metadata only: how many blocks the
// conjunction's zone maps prune, how many survive, and the raw
// (uncompressed) bytes of the surviving blocks across the involved
// columns — the denominator feeding the bytes-scanned and prune-rate
// metrics. Call only after geometry validation.
func (p *scanPlan) blockStats() (scanned, pruned int, rawBytes int64) {
	if p.table.sharded() {
		return p.blockStatsSharded()
	}
	inv := p.involved()
	first := p.table.cols[inv[0]]
	rowWidth := int64(0)
	for _, ci := range inv {
		rowWidth += int64(p.table.cols[ci].widthBytes())
	}
	for b := 0; b < first.numBlocks(); b++ {
		if p.blockExcluded(b) {
			pruned++
			continue
		}
		scanned++
		rawBytes += int64(first.blockCount(b)) * rowWidth
	}
	return scanned, pruned, rawBytes
}

// run executes the plan in row mode, invoking emit once per block with
// surviving rows with the global row numbers and, per requested output
// column, the widened values (vals[i][j] is output column i's value at
// rows[j]). The slices are reused between calls. emit returning false
// stops the scan cleanly (nil); context death returns ctx.Err().
func (p *scanPlan) run(ctx context.Context, emit func(rows []int64, vals [][]int64) bool) error {
	src, err := p.source()
	if err != nil {
		return err
	}
	return src.run(ctx, p, emit)
}

// AggResult is an aggregate in the wire domain. Min and Max are only
// meaningful when Count > 0; Sum wraps in int64 like the engine's.
type AggResult struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// aggregate executes the plan as an aggregate over output column
// aggCol (an index into table.cols, which must be in p.out or p.preds).
func (p *scanPlan) aggregate(ctx context.Context, aggCol int) (AggResult, error) {
	src, err := p.source()
	if err != nil {
		return AggResult{}, err
	}
	return src.aggregate(ctx, p, aggCol)
}

// rowSource runs row and aggregate mode with the element type erased.
type rowSource interface {
	run(ctx context.Context, p *scanPlan, emit func(rows []int64, vals [][]int64) bool) error
	aggregate(ctx context.Context, p *scanPlan, aggCol int) (AggResult, error)
}

// querySource is what a typedSource runs its translated Query on: a
// ColumnSet over a flat table's involved columns, or a sharded table's
// zktable.Table, which walks its segments itself.
type querySource[T zukowski.Integer] interface {
	Run(ctx context.Context, q zukowski.Query[T], fn func(block int, rows []int64, cols [][]T) bool) error
	RunAggregate(ctx context.Context, q zukowski.Query[T], col int) (zukowski.Aggregate[T], error)
}

// typedSource is the rowSource of one element type. idx maps table
// column indices to src's; nil is the identity (a zktable holds the full
// schema in order).
type typedSource[T zukowski.Integer] struct {
	src querySource[T]
	idx map[int]int
}

// source returns the plan's rowSource: the sharded table's zktable
// adapter, or a ColumnSet built over the flat table's involved columns
// at their shared element width.
func (p *scanPlan) source() (rowSource, error) {
	if p.table.sharded() {
		return p.table.shard, nil
	}
	inv := p.involved()
	w, err := p.uniformWidth(inv)
	if err != nil {
		return nil, err
	}
	switch w {
	case 1:
		return buildSet[int8](p, inv)
	case 2:
		return buildSet[int16](p, inv)
	case 4:
		return buildSet[int32](p, inv)
	default:
		return buildSet[int64](p, inv)
	}
}

// buildSet assembles the typed ColumnSet over the involved columns.
func buildSet[T zukowski.Integer](p *scanPlan, involved []int) (rowSource, error) {
	readers := make([]*zukowski.ColumnReader[T], len(involved))
	setIdx := make(map[int]int, len(involved))
	for i, ci := range involved {
		cr, ok := p.table.cols[ci].reader().(*zukowski.ColumnReader[T])
		if !ok {
			return nil, fmt.Errorf("%w: column %q element width changed underfoot",
				ErrMismatch, p.table.cols[ci].colName())
		}
		readers[i] = cr
		setIdx[ci] = i
	}
	set, err := zukowski.NewColumnSet(readers...)
	if err != nil {
		return nil, err
	}
	return typedSource[T]{src: set, idx: setIdx}, nil
}

// col maps table column ci into the source's column space.
func (s typedSource[T]) col(ci int) int {
	if s.idx == nil {
		return ci
	}
	return s.idx[ci]
}

// query translates the plan's predicates into the source's index space:
// the conjunction as Preds, the any_of disjunction as an Or-of-Ands
// expression tree. empty reports a predicate with no possible match — a
// conjunct whose range has no image in T's domain, or a disjunction
// whose every alternative has one — and the caller should emit zero rows
// and succeed. An alternative with an unrepresentable conjunct is
// dropped (it can never hold); the others still apply.
func (s typedSource[T]) query(p *scanPlan) (q zukowski.Query[T], empty bool) {
	for _, ps := range p.preds {
		tlo, thi, ok := clampRange[T](ps.lo, ps.hi)
		if !ok {
			return q, true
		}
		q.Preds = append(q.Preds, zukowski.Pred[T]{Col: s.col(ps.col), Lo: tlo, Hi: thi})
	}
	if len(p.orGroups) > 0 {
		branches := make([]zukowski.Expr[T], 0, len(p.orGroups))
		for _, g := range p.orGroups {
			branch := make([]zukowski.Expr[T], 0, len(g))
			dead := false
			for _, ps := range g {
				tlo, thi, ok := clampRange[T](ps.lo, ps.hi)
				if !ok {
					dead = true
					break
				}
				branch = append(branch, zukowski.Range[T](s.col(ps.col), tlo, thi))
			}
			if dead {
				continue
			}
			if len(branch) == 1 {
				branches = append(branches, branch[0])
			} else {
				branches = append(branches, zukowski.And(branch...))
			}
		}
		if len(branches) == 0 {
			return q, true
		}
		q.Expr = zukowski.Or(branches...)
	}
	q.SkipCorrupt = p.skip
	q.Report = p.report
	return q, false
}

func (s typedSource[T]) run(ctx context.Context, p *scanPlan, emit func(rows []int64, vals [][]int64) bool) error {
	q, empty := s.query(p)
	if empty {
		return nil
	}
	q.Cols = make([]int, len(p.out))
	for i, ci := range p.out {
		q.Cols[i] = s.col(ci)
	}
	if p.workers > 1 {
		q.Workers = p.workers
		q.InOrder = true
	}
	widened := make([][]int64, len(p.out))
	return s.src.Run(ctx, q, func(_ int, rows []int64, cols [][]T) bool {
		for i := range cols {
			w := widened[i][:0]
			for _, v := range cols[i] {
				w = append(w, int64(v))
			}
			widened[i] = w
		}
		return emit(rows, widened)
	})
}

func (s typedSource[T]) aggregate(ctx context.Context, p *scanPlan, aggCol int) (AggResult, error) {
	q, empty := s.query(p)
	if empty {
		return AggResult{}, nil
	}
	q.Workers = p.workers
	agg, err := s.src.RunAggregate(ctx, q, s.col(aggCol))
	if err != nil {
		return AggResult{}, err
	}
	return AggResult{Count: agg.Count, Sum: agg.Sum, Min: int64(agg.Min), Max: int64(agg.Max)}, nil
}

// streamBlocks executes the plan in frame mode: for every block the
// conjunction's zone maps cannot exclude, emit receives the block index,
// its first global row, its row count, and the raw (still compressed)
// frame of every output column. The frames alias registry memory or a
// fresh per-block read; emit must not modify them. emit returning false
// stops cleanly; context death returns ctx.Err() at block granularity.
func (p *scanPlan) streamBlocks(ctx context.Context, emit func(b int, firstRow int64, count int, frames [][]byte) bool) error {
	if p.table.sharded() {
		return p.streamBlocksSharded(ctx, emit)
	}
	first := p.table.cols[p.involved()[0]]
	frames := make([][]byte, len(p.out))
	for b := 0; b < first.numBlocks(); b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if p.blockExcluded(b) {
			continue
		}
		bad := false
		for i, ci := range p.out {
			frame, err := p.table.cols[ci].frameBytes(b)
			if err != nil {
				// Degraded mode drops the whole block (all columns) when any
				// column's frame is a data fault; other failures propagate.
				if p.skip && skippableFrameErr(err) {
					p.report.Record(first.blockCount(b), err)
					bad = true
					break
				}
				return err
			}
			frames[i] = frame
		}
		if bad {
			continue
		}
		if !emit(b, first.blockFirstRow(b), first.blockCount(b), frames) {
			return nil
		}
	}
	return nil
}

// skippableFrameErr mirrors the engine's degraded-mode classification for
// the frame-streaming path: only faults of the data itself are skippable.
func skippableFrameErr(err error) bool {
	return errors.Is(err, zukowski.ErrCorruptColumn) || errors.Is(err, zukowski.ErrCorruptSegment)
}
