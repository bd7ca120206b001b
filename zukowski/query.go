package zukowski

import (
	"context"
	"fmt"
)

// Query is the one-struct form of a ColumnSet scan: what to filter on,
// what to materialize, and how to run. It subsumes the ScanWhereAll /
// ParallelScanWhereAll / AggregateWhereAll entrypoint family — each of
// those is now a thin wrapper constructing a Query — and is the only
// form that reaches the expression tree: disjunctions, membership tests
// and nested AND/OR composition all arrive through Expr.
//
// The zero Query selects every row of every column, sequentially, with
// the fail-stop error contract.
type Query[T Integer] struct {
	// Expr filters rows with a predicate tree built from And, Or, Range
	// and In, evaluated in the compressed code domain with zone-map
	// pruning of whole AND-branches. The zero Expr selects every row.
	Expr Expr[T]

	// Preds is the conjunctive range-predicate form; it composes with
	// Expr by AND. The conjunction runs first, most-selective-first, and
	// the expression tree refines its bitmap. Query{Preds: preds} is
	// exactly the original ScanWhereAll contract.
	Preds []Pred[T]

	// Cols names the columns to materialize, by set index, in the order
	// given: fn's cols[i] holds column Cols[i]. nil materializes every
	// column of the set (cols[i] is set column i). Columns only used by
	// predicates need not appear — filtering never materializes them.
	Cols []int

	// Workers sets block-level parallelism for Run and RunAggregate.
	// Values below 2 run the scan sequentially on the calling goroutine.
	Workers int

	// InOrder makes a parallel scan deliver blocks in ascending block
	// order (see the InOrder scan option). Sequential scans are always
	// ordered.
	InOrder bool

	// SkipCorrupt runs the scan degraded: block-level data faults are
	// skipped — and accounted in Report when non-nil — instead of
	// failing the scan (see the SkipCorrupt scan option).
	SkipCorrupt bool

	// Report receives the degraded-scan accounting when SkipCorrupt is
	// set. May be nil to skip without accounting.
	Report *ScanReport
}

// config folds the Query's run options into a scan config. The zero
// option set shares the immutable default config, so optionless queries
// keep the steady-state scan paths allocation-free.
func (q *Query[T]) config() *scanConfig {
	if !q.InOrder && !q.SkipCorrupt && q.Report == nil {
		return &defaultScanConfig
	}
	return &scanConfig{ordered: q.InOrder, skip: q.SkipCorrupt, report: q.Report}
}

// checkQuery validates every column reference in q and reports whether
// the predicate conjunction is trivially empty.
func (cs *ColumnSet[T]) checkQuery(q *Query[T]) (empty bool, err error) {
	empty, err = cs.checkPreds(q.Preds)
	if err != nil {
		return false, err
	}
	if err := q.Expr.check(len(cs.cols)); err != nil {
		return false, err
	}
	for _, ci := range q.Cols {
		if ci < 0 || ci >= len(cs.cols) {
			return false, fmt.Errorf("%w: output column %d not in [0,%d)",
				ErrIndexOutOfRange, ci, len(cs.cols))
		}
	}
	return empty, nil
}

// queryMatch returns q's block predicate: a block survives only if no
// conjunction predicate's zone map excludes it and the expression tree's
// zone analysis cannot prove it empty.
func (cs *ColumnSet[T]) queryMatch(q *Query[T]) func(b int) bool {
	preds := cs.zoneMatchAll(q.Preds)
	if q.Expr.isZero() {
		return preds
	}
	e := &q.Expr
	return func(b int) bool {
		return preds(b) && !cs.exprExcludes(e, b)
	}
}

// Run executes q, invoking fn once per block with at least one surviving
// row: the global row numbers and, per requested column, the values of
// those rows. The slices are reused between calls; fn must copy what it
// keeps. fn returning false stops the scan early (still returning nil).
//
// Sequential runs (Workers < 2) deliver blocks in ascending order and
// consult ctx once per block; a warmed sequential Run with no options
// set performs no heap allocation, exactly like ScanWhereAll. Parallel
// runs deliver serialized but unordered unless InOrder is set, and stop
// claiming blocks once ctx is done.
func (cs *ColumnSet[T]) Run(ctx context.Context, q Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	cfg := q.config()
	if q.Workers > 1 {
		return cs.runParallel(ctx, cfg, &q, q.Workers, fn)
	}
	return cs.runSeq(ctx, cfg, &q, fn)
}

// RunAggregate computes Count, Sum, Min and Max over column col's values
// at the rows q selects, without materializing any other column. The
// bitmap composes exactly as in Run; q.Cols is ignored. Patched blocks
// fold in the compressed domain (PFOR from code sums, never widening a
// value), other frames over their decoded values.
//
// With Workers >= 2 blocks fold across a worker pool, one partial
// aggregate per block. Partials merge without order — the result is the
// same in any order — so InOrder does not change the answer. A warmed
// sequential RunAggregate with no options set performs no heap
// allocation.
func (cs *ColumnSet[T]) RunAggregate(ctx context.Context, q Query[T], col int) (Aggregate[T], error) {
	return cs.runAggregate(ctx, q.config(), &q, col)
}

// Project materializes the named columns at every row expr selects, in
// one pass: rows holds the global row numbers, vals[i] the values of
// column cols[i] at those rows. No cols materializes every column. The
// returned slices are freshly built and owned by the caller — Project is
// the collecting form of Run for result-set-sized outputs.
func (cs *ColumnSet[T]) Project(expr Expr[T], cols ...int) (rows []int64, vals [][]T, err error) {
	q := Query[T]{Expr: expr, Cols: cols}
	n := len(cols)
	if cols == nil {
		n = len(cs.cols)
	}
	vals = make([][]T, n)
	err = cs.Run(context.Background(), q, func(_ int, r []int64, c [][]T) bool {
		rows = append(rows, r...)
		for i := range c {
			vals[i] = append(vals[i], c[i]...)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, vals, nil
}
