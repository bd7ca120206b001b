package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
	"repro/zkserve"
	"repro/zkserve/client"
	"repro/zktable"
	"repro/zukowski"
)

// runTrace is the traced run: it sets up every workload once, replays
// each one's operations layer by layer for a quarter of the run's
// seconds, measures the kernels, and reports every per-layer metric, so
// every traced run reports the same metrics whatever its --workload.
func runTrace(e *env) (*result, error) {
	e.sz.setups, e.sz.quickSetups = 1, 1
	slice := e.seconds / 4
	tr := newTracer()
	out := newOutcome()
	steps := []func() error{
		func() error {
			b, err := newRowsBench(e)
			if err != nil {
				return err
			}
			defer b.close()
			return b.replay(tr, out, slice)
		},
		func() error {
			b, err := newAggBench(e)
			if err != nil {
				return err
			}
			defer b.close()
			if err := b.replay(tr, out, slice); err != nil {
				return err
			}
			return b.kernels(out)
		},
		func() error {
			b, err := newTPCHBench(e)
			if err != nil {
				return err
			}
			return b.replay(tr, out, slice)
		},
		func() error {
			b, err := newIngestBench(e)
			if err != nil {
				return err
			}
			defer b.close()
			return b.replay(tr, out, slice)
		},
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	out.set("zkserve.rejected", float64(tr.rejected))
	if err := tr.write(e.base); err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		e.logf("%-40s %12.4g %-5s should move %s", d.name, out.values[d.name], d.unit, d.moves)
	}
	return out.result(perLayer)
}

// replayLoop runs op for at least atLeast operations and until d has
// passed.
func replayLoop(d time.Duration, atLeast int, op func(i int64) error) error {
	deadline := time.Now().Add(d)
	for i := int64(0); i < int64(atLeast) || time.Now().Before(deadline); i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// alternate runs the untraced and the traced form of one top-level call,
// flipping their order with i so that warm caches favour neither side.
func alternate(i int64, untraced, traced func() error) error {
	first, second := untraced, traced
	if i%2 == 1 {
		first, second = traced, untraced
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// statusErr turns an in-process response status into an error: a 429
// is a refusal, anything but 200 a failure.
func (t *tracer) statusErr(w *discardWriter) error {
	if w.status == http.StatusTooManyRequests {
		t.rejected++
	}
	if w.status != http.StatusOK {
		return fmt.Errorf("handler returned %d", w.status)
	}
	return nil
}

// replay sends each window through L5 (client over the socket), L4 (the
// handler in-process) and L2 (ColumnSet.Run over readers of the same
// files with their own warmed cache).
func (b *rowsBench) replay(tr *tracer, out *outcome, d time.Duration) error {
	cache := zukowski.NewBlockLRU(b.e.sz.rowsCache)
	var readers []*zukowski.ColumnReader[int64]
	for _, col := range []string{"c0", "c1"} {
		f, err := os.Open(filepath.Join(b.tdir, col+".zkc"))
		if err != nil {
			return err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return err
		}
		cr, err := zukowski.OpenColumnReaderAt[int64](f, info.Size(), zukowski.WithBlockCache(cache))
		if err != nil {
			return err
		}
		readers = append(readers, cr)
	}
	set, err := zukowski.NewColumnSet(readers...)
	if err != nil {
		return err
	}
	if err := set.Run(context.Background(), zukowski.Query[int64]{}, func(int, []int64, [][]int64) bool { return true }); err != nil {
		return err
	}

	cl := client.New(b.s.url, httpClient(1))
	var untraced time.Duration
	var rows, wire int64
	err = replayLoop(d, 3, func(i int64) error {
		w := &b.windows[i%int64(len(b.windows))]
		plain := func() error {
			t0 := time.Now()
			_, _, err := b.scan(cl, i)
			untraced += time.Since(t0)
			out.record(err)
			return nil
		}
		rows += w.count
		return alternate(i, plain, func() error {
			_, err := tr.do(i, "op.serve-rows", "", func() error {
				_, err := tr.do(i, "client.rows", "op.serve-rows", func() error {
					_, res, err := b.scan(cl, i)
					if client.IsSaturated(err) {
						tr.rejected++
					}
					wire += res.Bytes
					return err
				})
				out.record(err)
				_, err = tr.do(i, "zkserve.rows", "client.rows", func() error {
					return tr.statusErr(serveInProcess(b.s.srv, w.req, false))
				})
				out.record(err)
				_, err = tr.do(i, "zukowski.run", "zkserve.rows", func() error {
					var n, s0, s1 int64
					q := zukowski.Query[int64]{Preds: []zukowski.Pred[int64]{{Col: 0, Lo: w.lo, Hi: w.hi}}, Cols: []int{0, 1}}
					err := set.Run(context.Background(), q, func(_ int, r []int64, c [][]int64) bool {
						n += int64(len(r))
						for j := range r {
							s0 += c[0][j]
							s1 += c[1][j]
						}
						return true
					})
					if err == nil && (n != w.count || s0 != w.sum0 || s1 != w.sum1) {
						err = fmt.Errorf("serve-rows: L2 window [%d,%d] got %d rows, want %d", w.lo, w.hi, n, w.count)
					}
					return err
				})
				out.record(err)
				return nil
			})
			return err
		})
	})
	if err != nil {
		return err
	}
	perRow := func(name string) float64 { return tr.ns(name) / float64(rows) }
	out.set("client.rows.ns_per_row", perRow("client.rows"))
	out.set("zkserve.rows.ns_per_row", perRow("zkserve.rows"))
	out.set("zukowski.run.ns_per_row", perRow("zukowski.run"))
	out.set("zkserve.rows.self_ns_per_row", perRow("zkserve.rows")-perRow("zukowski.run"))
	out.set("zkserve.wire.self_ns_per_row", perRow("client.rows")-perRow("zkserve.rows"))
	out.set("zkserve.wire.bytes_per_row", float64(wire)/float64(rows))
	out.set("trace.serve-rows.overhead_pct", overheadPct(tr.total["client.rows"], untraced))
	return nil
}

// replay sends each request through L5, L4, L3 (zktable, conjunctive
// requests only: it has no expression entry point) and L2 (RunAggregate
// per segment with two workers and with one). The L3 and L2 replays run
// over their own handle on the same table with a cache of the same size.
func (b *aggBench) replay(tr *tracer, out *outcome, d time.Duration) error {
	tb, _, err := zktable.Open[int64](b.tdir, zktable.Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer tb.Close()
	tb.SetBlockCache(zukowski.NewBlockLRU(b.e.sz.aggCache))
	var sets []*zukowski.ColumnSet[int64]
	for s := 0; s < tb.NumSegments(); s++ {
		readers, err := tb.SegmentReaders(s)
		if err != nil {
			return err
		}
		set, err := zukowski.NewColumnSet(readers...)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	l2 := func(r *aggRequest, workers int) (zkserve.AggResult, error) {
		q := zukowski.Query[int64]{Workers: workers}
		if r.anyOf {
			mid := r.lo + (r.hi-r.lo)/2
			q.Expr = zukowski.Or(zukowski.Range[int64](1, r.lo, mid), zukowski.Range[int64](1, mid+1, r.hi))
		} else {
			q.Preds = []zukowski.Pred[int64]{{Col: 1, Lo: r.lo, Hi: r.hi}}
		}
		var all aggStat
		for _, set := range sets {
			a, err := set.RunAggregate(context.Background(), q, 2)
			if err != nil {
				return zkserve.AggResult{}, err
			}
			all.merge(aggStat{count: a.Count, sum: a.Sum, min: a.Min, max: a.Max})
		}
		return zkserve.AggResult{Count: all.count, Sum: all.sum, Min: all.min, Max: all.max}, nil
	}

	cl := client.New(b.s.url, httpClient(1))
	before := b.s.reg.CacheStats()
	var untraced, exprNs time.Duration
	var exprOps int64
	err = replayLoop(d, 6, func(i int64) error {
		k := int(i % int64(len(b.reqs)))
		r := &b.reqs[k]
		check := func(res zkserve.AggResult, err error) error {
			if err != nil {
				return err
			}
			return b.check(k, res)
		}
		plain := func() error {
			t0 := time.Now()
			res, err := cl.Aggregate(context.Background(), r.req)
			untraced += time.Since(t0)
			out.record(check(res.Result, err))
			return nil
		}
		return alternate(i, plain, func() error {
			_, err := tr.do(i, "op.serve-agg", "", func() error {
				_, err := tr.do(i, "client.agg", "op.serve-agg", func() error {
					res, err := cl.Aggregate(context.Background(), r.req)
					if client.IsSaturated(err) {
						tr.rejected++
					}
					return check(res.Result, err)
				})
				out.record(err)
				_, err = tr.do(i, "zkserve.agg", "client.agg", func() error {
					w := serveInProcess(b.s.srv, r.req, true)
					if err := tr.statusErr(w); err != nil {
						return err
					}
					var resp zkserve.AggResponse
					return check(resp.Result, json.Unmarshal(w.keep.Bytes(), &resp))
				})
				out.record(err)
				parent := "zkserve.agg"
				if !r.anyOf {
					_, err = tr.do(i, "zktable.agg", "zkserve.agg", func() error {
						a, err := tb.AggregateWhereAll([]zukowski.Pred[int64]{{Col: 1, Lo: r.lo, Hi: r.hi}}, 2)
						return check(zkserve.AggResult{Count: a.Count, Sum: a.Sum, Min: a.Min, Max: a.Max}, err)
					})
					out.record(err)
					parent = "zktable.agg"
				}
				dur, err := tr.do(i, "zukowski.run_aggregate", parent, func() error { return check(l2(r, aggWorkers)) })
				out.record(err)
				if r.anyOf {
					exprNs += dur
					exprOps++
				}
				_, err = tr.do(i, "zukowski.run_aggregate.workers1", parent, func() error { return check(l2(r, 1)) })
				out.record(err)
				return nil
			})
			return err
		})
	})
	if err != nil {
		return err
	}
	after := b.s.reg.CacheStats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	out.set("client.agg.ms_per_op", tr.ms("client.agg"))
	out.set("zkserve.agg.ms_per_op", tr.ms("zkserve.agg"))
	out.set("zktable.agg.ms_per_op", tr.ms("zktable.agg"))
	out.set("zukowski.run_aggregate.ms_per_op", tr.ms("zukowski.run_aggregate"))
	out.set("zukowski.run_aggregate.parallel_speedup", tr.ns("zukowski.run_aggregate.workers1")/tr.ns("zukowski.run_aggregate"))
	out.set("zukowski.expr_or.ns_per_row", float64(exprNs)/float64(exprOps*b.rows))
	out.set("zkserve.cache.hit_rate", float64(hits)/float64(max(hits+misses, 1)))
	out.set("trace.serve-agg.overhead_pct", overheadPct(tr.total["client.agg"], untraced))
	return nil
}

// replay times each compressed-domain query per pass, the row-engine
// oracle's pass beside it, and the two L2 operators the queries are
// built on: a Q1-shaped GroupAggregate and a Q3-shaped JoinOn.
func (b *tpchBench) replay(tr *tracer, out *outcome, d time.Duration) error {
	z := b.zdb
	li := z.Set(tpch.Lineitem)
	liRows := float64(li.Len())
	qty, price, disc := z.Col(tpch.Lineitem, "l_quantity"), z.Col(tpch.Lineitem, "l_extendedprice"), z.Col(tpch.Lineitem, "l_discount")
	rf, ls, ship := z.Col(tpch.Lineitem, "l_returnflag"), z.Col(tpch.Lineitem, "l_linestatus"), z.Col(tpch.Lineitem, "l_shipdate")
	cutoff := tpch.Date(1995, 3, 15)
	_, ov, err := z.Set(tpch.Orders).Project(
		zukowski.Range[int64](z.Col(tpch.Orders, "o_orderdate"), 0, cutoff-1), z.Col(tpch.Orders, "o_orderkey"))
	if err != nil {
		return err
	}
	jt := zukowski.BuildJoin(ov[0])

	var zqPass, enginePass []float64
	var untraced time.Duration
	err = replayLoop(d, 3, func(i int64) error {
		plain := func() error {
			t0 := time.Now()
			out.record(b.pass())
			untraced += time.Since(t0)
			return nil
		}
		err := alternate(i, plain, func() error {
			dur, err := tr.do(i, "tpch.pass", "", func() error {
				for _, q := range tpch.ZQueryOrder {
					_, err := tr.do(i, "tpch.q"+q, "tpch.pass", func() error { return b.query(q) })
					out.record(err)
				}
				return nil
			})
			zqPass = append(zqPass, float64(dur))
			return err
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		db := b.engineDB()
		for _, q := range tpch.ZQueryOrder {
			tpch.Queries[q](db)
		}
		enginePass = append(enginePass, float64(time.Since(t0)))

		_, err = tr.do(i, "zukowski.group_aggregate", "tpch.q01", func() error {
			g, err := li.GroupAggregate(zukowski.Range[int64](ship, 0, tpch.Date(1998, 9, 2)), []int{rf, ls},
				[]zukowski.AggSpec[int64]{
					{Kind: zukowski.AggSum, Col: qty},
					{Kind: zukowski.AggSum, Cols: []int{price, disc}, Map: func(c [][]int64, i int) int64 {
						return c[price][i] * (100 - c[disc][i])
					}},
					{Kind: zukowski.AggCount},
				})
			if err == nil && len(g.Keys) == 0 {
				err = fmt.Errorf("tpch-zq: Q1-shaped GroupAggregate found no groups")
			}
			return err
		})
		out.record(err)
		_, err = tr.do(i, "zukowski.join_on", "tpch.q03", func() error {
			var pairs int
			err := li.JoinOn(zukowski.Range[int64](ship, cutoff+1, tpch.Date(2199, 12, 31)), z.Col(tpch.Lineitem, "l_orderkey"), jt,
				func(p []int64, _ []int32) bool { pairs += len(p); return true })
			if err == nil && pairs == 0 {
				err = fmt.Errorf("tpch-zq: Q3-shaped JoinOn joined no rows")
			}
			return err
		})
		out.record(err)
		return err
	})
	if err != nil {
		return err
	}
	for _, q := range tpch.ZQueryOrder {
		out.set("tpch.q"+q+"_ms", tr.ms("tpch.q"+q))
	}
	out.set("tpch.oracle_ratio", median(zqPass)/median(enginePass))
	out.set("zukowski.group_aggregate.ns_per_row", tr.ns("zukowski.group_aggregate")/float64(tr.count["zukowski.group_aggregate"])/liRows)
	out.set("zukowski.join_on.ns_per_row", tr.ns("zukowski.join_on")/float64(tr.count["zukowski.join_on"])/liRows)
	out.set("trace.tpch-zq.overhead_pct", overheadPct(tr.total["tpch.pass"], untraced))
	return nil
}

// replay runs the writer's cycle alone, one table per operation: each
// append is replayed as L3 (Table.Append), L2 (encoding the same
// columns with a ColumnWriter in memory) and L1 (core.Choose on the
// sample the writer analyses); then the compaction, a reader aggregate
// over the finished table and a reopen through startup recovery.
func (b *ingestBench) replay(tr *tracer, out *outcome, d time.Duration) error {
	var written, encoded, sampled int64
	var values int64
	var untraced time.Duration
	err := replayLoop(d, 1, func(i int64) error {
		dir := b.nextDir()
		tb, err := zktable.Create[int64](dir, ingestColNames, b.e.sz.blockValues, zktable.Options{})
		if err != nil {
			return err
		}
		seen := map[string]bool{}
		grow := func() error {
			n, err := newFileBytes(dir, seen)
			written += n
			return err
		}
		if err := grow(); err != nil {
			return err
		}
		_, err = tr.do(i, "op.ingest-scan", "", func() error {
			for _, seg := range b.segs {
				_, err := tr.do(i, "zktable.append", "op.ingest-scan", func() error {
					_, err := tb.Append(seg)
					return err
				})
				out.record(err)
				if err != nil {
					return err
				}
				if err := grow(); err != nil {
					return err
				}
				values += int64(len(seg) * len(seg[0]))
				_, err = tr.do(i, "zukowski.encode", "zktable.append", func() error {
					for _, col := range seg {
						var buf bytes.Buffer
						cw, err := zukowski.NewColumnWriter[int64](&buf, nil, b.e.sz.blockValues)
						if err != nil {
							return err
						}
						if err := cw.Write(col); err != nil {
							return err
						}
						if err := cw.Close(); err != nil {
							return err
						}
						encoded += int64(buf.Len())
					}
					return nil
				})
				out.record(err)
				_, err = tr.do(i, "core.choose", "zukowski.encode", func() error {
					for _, col := range seg {
						for s := 0; s < len(col); s += b.e.sz.blockValues {
							sample := core.Sample(col[s:min(s+b.e.sz.blockValues, len(col))], core.DefaultSampleSize)
							core.Choose(sample)
							sampled += int64(len(sample))
						}
					}
					return nil
				})
				out.record(err)
			}
			_, err := tr.do(i, "zktable.compact", "op.ingest-scan", func() error {
				_, err := tb.Compact()
				return err
			})
			out.record(err)
			if err != nil {
				return err
			}
			return grow()
		})
		if err != nil {
			tb.Close()
			return err
		}
		want := b.prefix[len(b.segs)]
		read := func() error {
			got, err := tb.AggregateWhereAll(b.preds, 2)
			if err == nil && (got.Count != want.count || got.Sum != want.sum) {
				err = fmt.Errorf("ingest-scan: finished table answers count %d sum %d, want %d %d", got.Count, got.Sum, want.count, want.sum)
			}
			return err
		}
		plain := func() error {
			t0 := time.Now()
			out.record(read())
			untraced += time.Since(t0)
			return nil
		}
		traced := func() error {
			_, err := tr.do(i, "zktable.read", "op.ingest-scan", read)
			out.record(err)
			return nil
		}
		alternate(0, plain, traced)
		alternate(1, plain, traced)
		if err := tb.Close(); err != nil {
			return err
		}
		_, err = tr.do(i, "zktable.open", "op.ingest-scan", func() error {
			t, _, err := zktable.Open[int64](dir, zktable.Options{})
			if err != nil {
				return err
			}
			return t.Close()
		})
		out.record(err)
		rep, err := zktable.Fsck(dir)
		if err == nil && !rep.OK() {
			err = fmt.Errorf("ingest-scan: replayed table fails fsck: %v", rep.Problems)
		}
		out.record(err)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	})
	if err != nil {
		return err
	}
	out.set("zktable.append.ms", tr.ms("zktable.append"))
	out.set("zktable.append.self_ms", tr.ms("zktable.append")-tr.ms("zukowski.encode"))
	out.set("zktable.compact.ms", tr.ms("zktable.compact"))
	out.set("zktable.open.ms", tr.ms("zktable.open"))
	out.set("zktable.bytes_written_per_value", float64(written)/float64(values))
	out.set("zukowski.encode_mbps", float64(values*8)/1e6/(tr.ns("zukowski.encode")/1e9))
	out.set("zukowski.bytes_per_value", float64(encoded)/float64(values))
	out.set("core.choose.ns_per_value", tr.ns("core.choose")/float64(sampled))
	out.set("trace.ingest-scan.overhead_pct", overheadPct(tr.total["zktable.read"], untraced))
	return nil
}

// newFileBytes adds up the sizes of files in dir not seen before and
// marks them seen: the bytes a table wrote since the last call.
func newFileBytes(dir string, seen map[string]bool) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if seen[e.Name()] || !e.Type().IsRegular() {
			continue
		}
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, err
		}
		seen[e.Name()] = true
		n += info.Size()
	}
	return n, nil
}
