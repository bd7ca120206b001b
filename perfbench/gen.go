package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/zkserve"
)

// Input generators. The benchmark owns its data distributions so that a
// change to the program cannot change what it is measured on.

// sortedNoise returns n non-decreasing values whose steps are uniform in
// [0, 2*step]: clustered, so zone maps prune range predicates on it.
func sortedNoise(rng *rand.Rand, n int, step int64) []int64 {
	vals := make([]int64, n)
	var cur int64
	for i := range vals {
		cur += rng.Int63n(2*step + 1)
		vals[i] = cur
	}
	return vals
}

// skewed returns n values uniform in [0, 2^bits-1) with a share rate of
// outliers far above that window: the PFOR-friendly distribution the
// paper benchmarks. Every block holds outliers, so its zone map spans
// the whole value range and prunes nothing.
func skewed(rng *rand.Rand, n int, bits uint, rate float64) []int64 {
	vals := make([]int64, n)
	window := int64(1) << bits
	for i := range vals {
		if rng.Float64() < rate {
			vals[i] = window + rng.Int63n(1<<40)
		} else {
			vals[i] = rng.Int63n(window - 1)
		}
	}
	return vals
}

// subSeed derives an independent generator seed for part k of an input.
func subSeed(seed int64, k int64) int64 { return seed*1_000_003 + k*7919 + 17 }

// aggStat is count/sum/min/max of int64 values, the oracle shape every
// aggregate answer is checked against.
type aggStat struct {
	count, sum, min, max int64
}

func (a *aggStat) add(v int64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.count++
	a.sum += v
}

func (a *aggStat) merge(b aggStat) {
	if b.count == 0 {
		return
	}
	if a.count == 0 || b.min < a.min {
		a.min = b.min
	}
	if a.count == 0 || b.max > a.max {
		a.max = b.max
	}
	a.count += b.count
	a.sum += b.sum
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// quietLogger drops the per-request Info lines the server logs by
// default, so stderr writes do not sit on the measured path.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))

// served is a zkserve server listening on a loopback socket.
type served struct {
	reg  *zkserve.Registry
	srv  *zkserve.Server
	hs   *http.Server
	url  string
	done chan error
}

// serve opens dir as a registry with the given block cache and starts
// serving it on 127.0.0.1.
func serve(dir string, cacheBytes int64) (*served, error) {
	reg, err := zkserve.OpenDir(dir, zkserve.WithCacheBytes(cacheBytes))
	if err != nil {
		return nil, err
	}
	srv := zkserve.NewServer(zkserve.Config{Registry: reg, Logger: quietLogger})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &served{reg: reg, srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine and closes
// the registry.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// httpClient returns an HTTP client for conns closed-loop callers.
func httpClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// loopStats is what a closed loop measured.
type loopStats struct {
	lat     []float64 // per-operation latency, ms
	rows    float64   // rows delivered or aggregated
	bytes   float64   // uncompressed bytes of the touched columns scanned
	elapsed time.Duration
}

// closedLoop runs callers goroutines; each calls op with the next
// operation index from a shared counter and waits for it before sending
// the next, until d has passed. op returns the rows and scanned bytes of
// its operation and an error, which out records as a failure.
func closedLoop(callers int, d time.Duration, out *outcome, op func(i int64) (rows, bytes float64, err error)) loopStats {
	var next atomic.Int64
	var mu sync.Mutex
	var st loopStats
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine loopStats
			for time.Now().Before(deadline) {
				t0 := time.Now()
				rows, bytes, err := op(next.Add(1) - 1)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				out.record(err)
				if err == nil {
					mine.lat = append(mine.lat, ms)
					mine.rows += rows
					mine.bytes += bytes
				}
			}
			mu.Lock()
			st.lat = append(st.lat, mine.lat...)
			st.rows += mine.rows
			st.bytes += mine.bytes
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// measure runs op in a closed loop of callers: first an unmeasured
// warm-up, then the measured d. The heap is collected first, so every
// run starts its loop with the same garbage-collector state.
func measure(e *env, callers int, out *outcome, op func(i int64) (rows, bytes float64, err error)) loopStats {
	runtime.GC()
	closedLoop(callers, min(e.seconds/10, time.Second), out, op)
	steal := stealMeter()
	st := closedLoop(callers, e.seconds, out, op)
	e.logf("the host stole %.1f%% of this machine's CPU time during the measured loop", steal())
	return st
}

// stealMeter starts measuring the share of CPU time the hypervisor took
// from this machine (the steal column of /proc/stat); the returned
// function reports it in percent since the start. On a shared host this
// is the main source of run-to-run spread, so every run logs it.
func stealMeter() func() float64 {
	read := func() (steal, total float64) {
		data, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0
		}
		// cpu user nice system idle iowait irq softirq steal [guest...];
		// guest time is already counted in user.
		f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
		for i, v := range f[1:min(len(f), 9)] {
			x, _ := strconv.ParseFloat(v, 64) // a malformed field only blurs a log line
			total += x
			if i == 7 {
				steal = x
			}
		}
		return steal, total
	}
	s0, t0 := read()
	return func() float64 {
		s1, t1 := read()
		if t1 <= t0 {
			return 0
		}
		return 100 * (s1 - s0) / (t1 - t0)
	}
}

// loopMetrics sets the metrics every measured loop yields.
func (e *env) loopMetrics(out *outcome, st loopStats) {
	secs := st.elapsed.Seconds()
	out.set("ops_per_s", float64(len(st.lat))/secs)
	out.set("rows_per_s", st.rows/secs)
	out.set("scan_gbps", st.bytes/secs/1e9)
	v, pct := tail(st.lat)
	out.set("p50_ms", median(st.lat))
	out.set("tail_ms", v)
	e.logf("tail_ms is p%.1f of %d samples", pct, len(st.lat))
}

// setupMedian runs build n times, keeping the last instance and closing
// the others, and returns it with the median of the set-up seconds build
// reports.
func setupMedian[T any](n int, build func() (T, float64, error), discard func(T) error) (T, float64, error) {
	var keep T
	var secs []float64
	for k := 0; k < n; k++ {
		v, s, err := build()
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, s)
		if k < n-1 {
			if err := discard(v); err != nil {
				return keep, 0, err
			}
			// Collect the discarded instance now, so the next set-up
			// starts from the same heap and peak_rss_mb stays steady.
			runtime.GC()
			continue
		}
		keep = v
	}
	return keep, median(secs), nil
}
