package zkserve

import (
	"context"
	"fmt"

	"repro/zktable"
	"repro/zukowski"
)

// Sharded tables: one zktable directory served as one logical table. The
// zktable layer owns durability (manifest generations, startup recovery,
// salvage, quarantine) and runs row and aggregate mode itself
// (zktable.Table.Run and RunAggregate, through typedSource). This file
// adapts its per-segment column readers into the registry's colHandle
// world for what the zktable does not serve: frame mode, validation,
// block statistics and /tables metadata, all with global row and block
// numbering, so clients see one table regardless of how ingest
// segmented it.

// servedSeg is one committed segment of a sharded table: a flat
// single-segment Table view over the zktable's open readers, or — when
// the segment is quarantined — just enough manifest metadata to account
// the loss exactly.
type servedSeg struct {
	sub        *Table // nil when quarantined
	rowStart   int64  // first global row
	blockStart int    // first global block index
	rows       int
	counts     []int // per-block row counts, from the manifest
	quarErr    error // non-nil: out of service, wraps zktable.ErrSegmentQuarantined
}

// AddShardedTable opens the zktable at dir (running its startup
// recovery: manifest fallback, orphan sweep, salvage, quarantine) and
// registers it under the given table name. The registry's retry policy
// and source wrapper apply to every segment reader; the zktable handle
// is closed with the registry.
func (r *Registry) AddShardedTable(table, dir string) error {
	info, err := zktable.Peek(dir)
	if err != nil {
		return fmt.Errorf("table %q: %w", table, err)
	}
	switch info.WidthBytes {
	case 1:
		return addSharded[int8](r, table, dir)
	case 2:
		return addSharded[int16](r, table, dir)
	case 4:
		return addSharded[int32](r, table, dir)
	default:
		return addSharded[int64](r, table, dir)
	}
}

func addSharded[T zukowski.Integer](r *Registry, table, dir string) error {
	opts := zktable.Options{Salvage: true, SourceWrapper: r.wrap}
	if r.hasRtry {
		opts.Retry = r.retry
	}
	zt, _, err := zktable.Open[T](dir, opts)
	if err != nil {
		return fmt.Errorf("table %q: %w", table, err)
	}
	t := r.table(table)
	if t.sharded() || len(t.cols) > 0 {
		zt.Close()
		return fmt.Errorf("%w: table %q already registered", ErrBadRequest, table)
	}
	t.shard = typedSource[T]{src: zt}
	t.colNames = zt.Columns()
	for i, name := range t.colNames {
		t.byName[name] = i
	}
	t.gen = zt.Generation()
	t.totalRows = zt.Rows()
	blockBase := 0
	for i := 0; i < zt.NumSegments(); i++ {
		rows, start := zt.SegmentRows(i)
		counts := zt.SegmentBlockRows(i)
		ss := &servedSeg{rowStart: start, blockStart: blockBase, rows: int(rows), counts: counts}
		blockBase += len(counts)
		rdrs, rerr := zt.SegmentReaders(i)
		if rerr != nil {
			ss.quarErr = rerr
		} else {
			sub := &Table{name: fmt.Sprintf("%s#%d", table, i), byName: map[string]int{}}
			for ci, col := range t.colNames {
				h, herr := handleFromReader(col, rdrs[ci])
				if herr != nil {
					zt.Close()
					return fmt.Errorf("table %q segment %d: %w", table, i, herr)
				}
				sub.byName[col] = ci
				sub.cols = append(sub.cols, h)
			}
			ss.sub = sub
		}
		t.segs = append(t.segs, ss)
	}
	if r.cache != nil {
		for _, c := range t.allCols() {
			c.setCache(r.cache)
		}
	}
	r.closers = append(r.closers, zt)
	return nil
}

// metaSharded folds per-segment column statistics into one capability
// entry and reports the generation and quarantine state the ISSUE's ops
// surface needs: which committed generation is served, and exactly how
// many committed rows are out of service.
func (t *Table) metaSharded() TableMeta {
	m := TableMeta{
		Name:       t.name,
		Rows:       int(t.totalRows),
		Generation: t.gen,
		Segments:   len(t.segs),
	}
	for ci, col := range t.colNames {
		cm := ColumnMeta{Name: col, WidthBytes: t.colWidth(ci)}
		for _, s := range t.segs {
			if s.sub == nil {
				continue
			}
			c := s.sub.cols[ci]
			cm.Rows += c.rows()
			cm.Blocks += c.numBlocks()
			cm.CompressedBytes += c.compressedBytes()
			cm.QuarantinedBlocks += c.quarantinedBlocks()
			if lo, hi, ok := c.minMax(); ok {
				if !cm.HasMinMax {
					cm.Min, cm.Max, cm.HasMinMax = lo, hi, true
				} else {
					cm.Min, cm.Max = min(cm.Min, lo), max(cm.Max, hi)
				}
			}
		}
		if cm.QuarantinedBlocks > 0 {
			m.Degraded = true
		}
		m.Columns = append(m.Columns, cm)
	}
	for _, s := range t.segs {
		if s.quarErr != nil {
			m.QuarantinedSegments++
			m.RowsUnavailable += int64(s.rows)
			m.Degraded = true
		}
	}
	return m
}

// subPlan rebinds the plan to one segment's flat view. Column indices
// carry over unchanged: every segment holds the full schema in the same
// order.
func (p *scanPlan) subPlan(s *servedSeg) *scanPlan {
	return &scanPlan{table: s.sub, out: p.out, preds: p.preds, orGroups: p.orGroups, workers: p.workers, skip: p.skip, report: p.report}
}

// skipSeg handles one quarantined segment in frame mode: under degraded
// mode every committed block and row is recorded as lost and the stream
// moves on; otherwise the request must fail with the quarantine error.
func (p *scanPlan) skipSeg(s *servedSeg) bool {
	if !p.skip {
		return false
	}
	for _, c := range s.counts {
		p.report.Record(c, s.quarErr)
	}
	return true
}

// validateSharded runs the row-mode or frame-mode checks against every
// in-service segment. Quarantined segments are not checked here: the scan
// itself fails on them, or accounts them under degraded mode.
func (p *scanPlan) validateSharded(rowMode bool) error {
	for _, s := range p.table.segs {
		if s.sub == nil {
			continue
		}
		sp := p.subPlan(s)
		var err error
		if rowMode {
			err = sp.validateRowMode()
		} else {
			err = sp.validateFrameMode()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// blockStatsSharded sums directory-metadata statistics across in-service
// segments. Quarantined segments are not scanned and not counted as
// pruned — they are out of service, which /tables reports separately.
func (p *scanPlan) blockStatsSharded() (scanned, pruned int, rawBytes int64) {
	for _, s := range p.table.segs {
		if s.sub == nil {
			continue
		}
		sc, pr, raw := p.subPlan(s).blockStats()
		scanned += sc
		pruned += pr
		rawBytes += raw
	}
	return scanned, pruned, rawBytes
}

// streamBlocksSharded executes frame mode segment by segment, offsetting
// block indices and first-row numbers into the global space.
func (p *scanPlan) streamBlocksSharded(ctx context.Context, emit func(b int, firstRow int64, count int, frames [][]byte) bool) error {
	stopped := false
	for _, s := range p.table.segs {
		if s.quarErr != nil {
			if !p.skipSeg(s) {
				return s.quarErr
			}
			continue
		}
		rowBase, blkBase := s.rowStart, s.blockStart
		err := p.subPlan(s).streamBlocks(ctx, func(b int, firstRow int64, count int, frames [][]byte) bool {
			if !emit(blkBase+b, rowBase+firstRow, count, frames) {
				stopped = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}
