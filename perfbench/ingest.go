package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/zktable"
	"repro/zukowski"
)

// ingest-scan: a writer appends pre-generated segments to a zktable
// (automatic codec choice, the default fsync-per-commit policy) and
// compacts after every ingestSegs appends, then starts a new table so
// the run is stationary. Beside it, one closed-loop reader aggregates
// over the table. It is the only workload on the encode path, manifest
// commits and compaction, and on read latency under writes.

const (
	ingestCols = 3
	ingestHi   = 511 // the reader aggregates c2 where c1 is in [0, ingestHi]
)

var ingestColNames = []string{"c0", "c1", "c2"}

type ingestBench struct {
	e      *env
	segs   [][][]int64
	prefix []aggStat // prefix[k]: the reader's answer over the first k segments
	preds  []zukowski.Pred[int64]

	mu     sync.RWMutex // guards cur; the writer swaps tables under it
	cur    *zktable.Table[int64]
	curDir string
	held   int // segments committed to cur since its last compaction
	tables int

	setupS float64
}

func newIngestBench(e *env) (*ingestBench, error) {
	b := &ingestBench{e: e, preds: []zukowski.Pred[int64]{{Col: 1, Lo: 0, Hi: ingestHi}}}
	rng := rand.New(rand.NewSource(subSeed(e.seed, 5)))
	b.prefix = make([]aggStat, e.sz.ingestSegs+1)
	for s := 0; s < e.sz.ingestSegs; s++ {
		seg := [][]int64{sortedNoise(rng, e.sz.ingestRows, 3), skewed(rng, e.sz.ingestRows, 10, 0.02), skewed(rng, e.sz.ingestRows, 10, 0.02)}
		b.segs = append(b.segs, seg)
		b.prefix[s+1] = b.prefix[s]
		for j, v := range seg[1] {
			if v >= 0 && v <= ingestHi {
				b.prefix[s+1].add(seg[2][j])
			}
		}
	}
	// Set-up is what an ingest service does before it takes writes:
	// create the table, commit the first segment and reopen it through
	// startup recovery.
	build := func() (*zktable.Table[int64], float64, error) {
		t0 := time.Now()
		dir := b.nextDir()
		tb, err := zktable.Create[int64](dir, ingestColNames, e.sz.blockValues, zktable.Options{})
		if err != nil {
			return nil, 0, err
		}
		if _, err := tb.Append(b.segs[0]); err != nil {
			tb.Close()
			return nil, 0, err
		}
		if err := tb.Close(); err != nil {
			return nil, 0, err
		}
		tb, _, err = zktable.Open[int64](dir, zktable.Options{})
		return tb, time.Since(t0).Seconds(), err
	}
	discard := func(tb *zktable.Table[int64]) error {
		err := tb.Close()
		if rerr := os.RemoveAll(tb.Dir()); err == nil {
			err = rerr
		}
		return err
	}
	tb, setupS, err := setupMedian(e.sz.quickSetups, build, discard)
	if err != nil {
		return nil, err
	}
	b.cur, b.curDir, b.held, b.setupS = tb, tb.Dir(), 1, setupS
	return b, nil
}

// nextDir names a fresh table directory.
func (b *ingestBench) nextDir() string {
	b.tables++
	return filepath.Join(b.e.dir, fmt.Sprintf("ingest-%d", b.tables))
}

// read runs the reader's aggregate and matches it to a committed prefix
// of segments; it returns the matched rows and the rows scanned.
func (b *ingestBench) read() (int64, int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	got, err := b.cur.AggregateWhereAll(b.preds, 2)
	if err != nil {
		return 0, 0, err
	}
	for k, w := range b.prefix {
		if got.Count == w.count && got.Sum == w.sum && (w.count == 0 || got.Min == w.min && got.Max == w.max) {
			return got.Count, int64(k * b.e.sz.ingestRows), nil
		}
	}
	return 0, 0, fmt.Errorf("ingest-scan: reader saw count %d sum %d, which is no committed prefix", got.Count, got.Sum)
}

// writerStats is what the writer measured.
type writerStats struct {
	busy         time.Duration // inside Create, Append, Compact and Close
	rawBytes     int64
	storedPerVal []float64 // per finished table, after compaction
}

// writeStep performs the writer's next operation: an append, or, once
// the table holds ingestSegs segments, a compaction followed by a fresh
// table, which it reports as swapped. Every finished table must pass
// Fsck.
func (b *ingestBench) writeStep(st *writerStats) (swapped bool, err error) {
	if b.held < len(b.segs) {
		t0 := time.Now()
		_, err := b.cur.Append(b.segs[b.held])
		st.busy += time.Since(t0)
		if err != nil {
			return false, err
		}
		st.rawBytes += int64(b.e.sz.ingestRows * ingestCols * 8)
		b.held++
		return false, nil
	}
	t0 := time.Now()
	_, err = b.cur.Compact()
	st.busy += time.Since(t0)
	if err != nil {
		return false, err
	}
	readers, err := b.cur.SegmentReaders(0)
	if err != nil {
		return false, err
	}
	var stored int64
	for _, cr := range readers {
		stored += int64(cr.CompressedBytes())
	}
	st.storedPerVal = append(st.storedPerVal, float64(stored)/float64(b.cur.Rows()*ingestCols))
	rep, err := zktable.Fsck(b.curDir)
	if err != nil {
		return false, err
	}
	if !rep.OK() {
		return false, fmt.Errorf("ingest-scan: finished table fails fsck: %v", rep.Problems)
	}

	// The next table takes its first segment before the reader sees it,
	// so no read ever runs against an empty table.
	t0 = time.Now()
	dir := b.nextDir()
	next, err := zktable.Create[int64](dir, ingestColNames, b.e.sz.blockValues, zktable.Options{})
	if err == nil {
		if _, err = next.Append(b.segs[0]); err != nil {
			next.Close()
		}
	}
	st.busy += time.Since(t0)
	if err != nil {
		return false, err
	}
	st.rawBytes += int64(b.e.sz.ingestRows * ingestCols * 8)
	b.mu.Lock()
	old, oldDir := b.cur, b.curDir
	b.cur, b.curDir, b.held = next, dir, 1
	b.mu.Unlock()
	t0 = time.Now()
	err = old.Close()
	st.busy += time.Since(t0)
	if rerr := os.RemoveAll(oldDir); err == nil {
		err = rerr
	}
	return true, err
}

func (b *ingestBench) close() error {
	err := b.cur.Close()
	if rerr := os.RemoveAll(b.curDir); err == nil {
		err = rerr
	}
	return err
}

// runIngest measures over whole writer cycles (appends, compaction,
// next table), because read latency depends on how many segments the
// table holds: the measured window opens at the first table swap after a
// warm-up and closes at the first swap after --seconds, so every run
// sees the same mix of phases.
func runIngest(e *env) (*outcome, error) {
	b, err := newIngestBench(e)
	if err != nil {
		return nil, err
	}
	defer b.close()
	out := newOutcome()
	runtime.GC()

	// The writer owns ws, start and end; the reader looks at them only
	// after done is set.
	var ws writerStats
	var start, end time.Time
	var measuring, done atomic.Bool
	go func() {
		defer done.Store(true)
		begin := time.Now()
		warm := min(e.seconds/10, time.Second)
		for {
			var step writerStats
			swapped, err := b.writeStep(&step)
			out.record(err)
			if err != nil {
				return
			}
			if measuring.Load() {
				ws.busy += step.busy
				ws.rawBytes += step.rawBytes
				ws.storedPerVal = append(ws.storedPerVal, step.storedPerVal...)
			}
			if !swapped {
				continue
			}
			now := time.Now()
			switch {
			case !measuring.Load() && now.Sub(begin) >= warm:
				start = now
				measuring.Store(true)
			case measuring.Load() && now.Sub(start) >= e.seconds:
				end = now
				measuring.Store(false)
				return
			}
		}
	}()

	var st loopStats
	steal := stealMeter()
	for !done.Load() {
		m := measuring.Load()
		t0 := time.Now()
		rows, scanned, err := b.read()
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		out.record(err)
		if m && err == nil {
			st.lat = append(st.lat, ms)
			st.rows += float64(rows)
			st.bytes += float64(scanned * 2 * 8)
		}
	}
	st.elapsed = end.Sub(start)
	if st.elapsed <= 0 || len(ws.storedPerVal) == 0 {
		return nil, fmt.Errorf("ingest-scan: no whole writer cycle was measured")
	}
	e.logf("the host stole %.1f%% of this machine's CPU time during the run's loop", steal())
	e.loopMetrics(out, st)
	out.set("setup_s", b.setupS)
	out.set("ingest_mb_per_s", float64(ws.rawBytes)/1e6/ws.busy.Seconds())
	out.set("stored_bytes_per_value", median(ws.storedPerVal))
	e.logf("ingest-scan measured %v of whole writer cycles (%d tables) on %s with the default fsync policy",
		st.elapsed.Round(time.Millisecond), len(ws.storedPerVal), fsName(e.dir))
	return out, nil
}

// fsName names the filesystem holding dir, for the run log.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "an unknown filesystem"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	}
	return fmt.Sprintf("filesystem 0x%x", uint64(st.Type))
}
