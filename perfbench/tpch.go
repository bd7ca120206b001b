package main

import (
	"fmt"
	"time"

	"repro/internal/columnbm"
	"repro/internal/tpch"
)

// tpch-zq: one caller builds the compressed-domain TPC-H database and
// loops over the six compressed-domain queries; one operation is one
// pass over all six. It is the only workload on Expr, GroupAggregate,
// JoinOn and Project, and has no wire and no disk.

type tpchBench struct {
	e        *env
	ds       *tpch.Dataset
	zdb      *tpch.ZDB
	want     map[string][][]int64
	setupS   float64
	ingestMB float64

	rowsPerPass, bytesPerPass float64
}

func newTPCHBench(e *env) (*tpchBench, error) {
	b := &tpchBench{e: e, ds: tpch.Generate(e.sz.tpchSF, subSeed(e.seed, 4))}
	var raw int64
	for _, rel := range b.ds.Rels {
		raw += int64(rel.Rows() * len(rel.Data) * 8)
	}
	build := func() (*tpch.ZDB, float64, error) {
		t0 := time.Now()
		z, err := tpch.BuildZDB(b.ds)
		return z, time.Since(t0).Seconds(), err
	}
	zdb, setupS, err := setupMedian(e.sz.setups, build, func(*tpch.ZDB) error { return nil })
	if err != nil {
		return nil, err
	}
	// Set-up is the in-memory encode, so its rate is the ingest rate.
	b.zdb, b.setupS, b.ingestMB = zdb, setupS, float64(raw)/1e6/setupS

	// The oracle is the row engine over uncompressed column storage.
	b.want = map[string][][]int64{}
	db := b.engineDB()
	for _, q := range tpch.ZQueryOrder {
		b.want[q] = tpch.Queries[q](db)
		for rel, cols := range tpch.ScanColumns[q] {
			n := float64(b.ds.Rel(rel).Rows())
			b.rowsPerPass += n
			b.bytesPerPass += n * float64(len(cols)) * 8
		}
	}
	return b, nil
}

// engineDB returns a fresh row-engine database over uncompressed DSM
// storage, the configuration the compressed-domain queries must match.
func (b *tpchBench) engineDB() *tpch.DB {
	disk := columnbm.NewDisk(80)
	tables := tpch.Store(b.ds, disk, columnbm.DSM, false, 128*1024)
	return tpch.NewDB(b.ds, disk, tables, 1<<30, columnbm.VectorWise)
}

// query runs compressed-domain query q and checks it against the oracle.
// The query functions panic on an internal error; that is a failure of
// the operation, not of the benchmark.
func (b *tpchBench) query(q string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("tpch-zq: ZQ%s panicked: %v", q, r)
		}
	}()
	if got := tpch.ZQueries[q](b.zdb); !tpch.ResultsEqual(got, b.want[q]) {
		return fmt.Errorf("tpch-zq: ZQ%s differs from the row-engine oracle", q)
	}
	return nil
}

// pass runs every query once.
func (b *tpchBench) pass() error {
	for _, q := range tpch.ZQueryOrder {
		if err := b.query(q); err != nil {
			return err
		}
	}
	return nil
}

// storedBytesPerValue is the compressed size of every column over the
// number of values stored.
func (b *tpchBench) storedBytesPerValue() float64 {
	var bytes, vals int64
	for name, rel := range b.ds.Rels {
		set := b.zdb.Set(name)
		for c := range rel.Data {
			bytes += int64(set.Column(c).CompressedBytes())
			vals += int64(set.Column(c).Len())
		}
	}
	return float64(bytes) / float64(vals)
}

func runTPCH(e *env) (*outcome, error) {
	b, err := newTPCHBench(e)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	op := func(int64) (float64, float64, error) {
		return b.rowsPerPass, b.bytesPerPass, b.pass()
	}
	e.loopMetrics(out, measure(e, 1, out, op))
	out.set("setup_s", b.setupS)
	out.set("ingest_mb_per_s", b.ingestMB)
	out.set("stored_bytes_per_value", b.storedBytesPerValue())
	return out, nil
}
