package zktable

import (
	"context"
	"fmt"

	"repro/zukowski"
)

// Run executes q across every committed segment in row order, invoking
// fn once per block with surviving rows. Rows and block indices are
// global: each segment's are offset by the rows and blocks of every
// earlier segment, quarantined ones included. Each segment runs
// zukowski.ColumnSet.Run with q unchanged, so Expr, Cols, Workers,
// InOrder, SkipCorrupt and Report behave exactly as they do on a single
// ColumnSet; with Workers >= 2 blocks of one segment run in parallel and
// segments still run one after another. fn returning false stops the
// scan (nil).
//
// The scan runs against the generation committed when it starts. q is
// validated against the schema before any segment is touched. ctx is
// checked between segments and, inside one, between blocks. A
// quarantined segment fails the scan with ErrSegmentQuarantined, or —
// under q.SkipCorrupt — is skipped with every one of its blocks and rows
// recorded in q.Report.
func (t *Table[T]) Run(ctx context.Context, q zukowski.Query[T], fn func(block int, rows []int64, cols [][]T) bool) error {
	stopped := false
	return t.eachSegment(ctx, &q, func(seg *segment[T], row int64, block int) (bool, error) {
		err := seg.set.Run(ctx, q, func(b int, rows []int64, cols [][]T) bool {
			for j := range rows {
				rows[j] += row
			}
			stopped = !fn(block+b, rows, cols)
			return !stopped
		})
		return !stopped, err
	})
}

// RunAggregate computes Count, Sum, Min and Max of column col over the
// rows q selects, folded across every committed segment. Query fields,
// validation, cancellation and quarantine handling are those of Run.
func (t *Table[T]) RunAggregate(ctx context.Context, q zukowski.Query[T], col int) (zukowski.Aggregate[T], error) {
	var out zukowski.Aggregate[T]
	if col < 0 || col >= len(t.cols) {
		return out, fmt.Errorf("%w: aggregate column %d not in [0,%d)", zukowski.ErrIndexOutOfRange, col, len(t.cols))
	}
	err := t.eachSegment(ctx, &q, func(seg *segment[T], _ int64, _ int) (bool, error) {
		agg, err := seg.set.RunAggregate(ctx, q, col)
		if err != nil || agg.Count == 0 {
			return true, err
		}
		if out.Count == 0 {
			out = agg
		} else {
			out.Count += agg.Count
			out.Sum += agg.Sum
			out.Min = min(out.Min, agg.Min)
			out.Max = max(out.Max, agg.Max)
		}
		return true, nil
	})
	if err != nil {
		return zukowski.Aggregate[T]{}, err
	}
	return out, nil
}

// AggregateWhereAll is RunAggregate over the conjunction preds, with no
// other query option.
func (t *Table[T]) AggregateWhereAll(preds []zukowski.Pred[T], col int) (zukowski.Aggregate[T], error) {
	return t.RunAggregate(context.Background(), zukowski.Query[T]{Preds: preds}, col)
}

// eachSegment is the segment walk behind Run and RunAggregate. It
// validates q against the schema, snapshots the committed segments once,
// and calls visit for each in-service segment in row order with the
// segment's first global row and block. Quarantined segments fail the
// walk, or under q.SkipCorrupt are accounted block by block in q.Report.
// visit returning false or an error ends the walk.
func (t *Table[T]) eachSegment(ctx context.Context, q *zukowski.Query[T], visit func(seg *segment[T], row int64, block int) (bool, error)) error {
	if err := q.Validate(len(t.cols)); err != nil {
		return err
	}
	segs, starts, _, err := t.snapshot()
	if err != nil {
		return err
	}
	block := 0
	for i, seg := range segs {
		if err := ctx.Err(); err != nil {
			return err
		}
		first := block
		block += len(seg.counts)
		if seg.quar != nil {
			if !q.SkipCorrupt {
				return seg.quar
			}
			for _, c := range seg.counts {
				q.Report.Record(int(c), seg.quar)
			}
			continue
		}
		if more, err := visit(seg, starts[i], first); err != nil || !more {
			return err
		}
	}
	return nil
}
