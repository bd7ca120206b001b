package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricDef names one reported metric. For a per-layer metric, moves
// records the end-to-end metric and workload a change to that layer
// should move; BENCHMARK.json carries the same names and units.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd lists what a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "tail_ms", unit: "ms", better: "lower"},
	{name: "rows_per_s", unit: "1/s", better: "higher"},
	{name: "scan_gbps", unit: "GB/s", better: "higher"},
	{name: "ingest_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "stored_bytes_per_value", unit: "B", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer lists what the traced run reports, each with the end-to-end
// metric it should move.
var perLayer = []metricDef{
	{"client.rows.ns_per_row", "ns", "lower", "rows_per_s on serve-rows"},
	{"client.agg.ms_per_op", "ms", "lower", "p50_ms on serve-agg"},
	{"zkserve.rows.ns_per_row", "ns", "lower", "rows_per_s on serve-rows"},
	{"zkserve.agg.ms_per_op", "ms", "lower", "p50_ms on serve-agg"},
	{"zkserve.rows.self_ns_per_row", "ns", "lower", "rows_per_s on serve-rows"},
	{"zkserve.wire.self_ns_per_row", "ns", "lower", "rows_per_s on serve-rows"},
	{"zkserve.wire.bytes_per_row", "B", "lower", "rows_per_s on serve-rows"},
	{"zkserve.cache.hit_rate", "ratio", "higher", "p50_ms on serve-agg"},
	{"zkserve.rejected", "count", "lower", "ops_per_s on serve-rows and serve-agg"},
	{"zktable.agg.ms_per_op", "ms", "lower", "p50_ms on serve-agg"},
	{"zktable.append.ms", "ms", "lower", "ingest_mb_per_s on ingest-scan"},
	{"zktable.append.self_ms", "ms", "lower", "ingest_mb_per_s on ingest-scan"},
	{"zktable.compact.ms", "ms", "lower", "ingest_mb_per_s and tail_ms on ingest-scan"},
	{"zktable.bytes_written_per_value", "B", "lower", "ingest_mb_per_s on ingest-scan"},
	{"zktable.open.ms", "ms", "lower", "setup_s on serve-agg and ingest-scan"},
	{"zukowski.run.ns_per_row", "ns", "lower", "rows_per_s on serve-rows"},
	{"zukowski.run_aggregate.ms_per_op", "ms", "lower", "p50_ms on serve-agg"},
	{"zukowski.run_aggregate.parallel_speedup", "x", "higher", "p50_ms on serve-agg"},
	{"zukowski.expr_or.ns_per_row", "ns", "lower", "p50_ms on serve-agg (any_of requests)"},
	{"zukowski.decode_gbps", "GB/s", "higher", "scan_gbps on serve-agg and tpch-zq"},
	{"zukowski.decode_membw_frac", "ratio", "higher", "scan_gbps on serve-agg and tpch-zq"},
	{"mem.copy_gbps", "GB/s", "higher", "none: same-run calibration for decode_membw_frac"},
	{"zukowski.encode_mbps", "MB/s", "higher", "ingest_mb_per_s on ingest-scan"},
	{"zukowski.bytes_per_value", "B", "lower", "stored_bytes_per_value on ingest-scan"},
	{"zukowski.group_aggregate.ns_per_row", "ns", "lower", "p50_ms on tpch-zq"},
	{"zukowski.join_on.ns_per_row", "ns", "lower", "p50_ms on tpch-zq"},
	{"bitpack.unpack_gbps", "GB/s", "higher", "scan_gbps on serve-agg"},
	{"bitpack.selectmask_gbps", "GB/s", "higher", "scan_gbps on serve-agg"},
	{"core.choose.ns_per_value", "ns", "lower", "ingest_mb_per_s on ingest-scan"},
	{"tpch.q01_ms", "ms", "lower", "p50_ms on tpch-zq"},
	{"tpch.q03_ms", "ms", "lower", "p50_ms on tpch-zq"},
	{"tpch.q06_ms", "ms", "lower", "p50_ms on tpch-zq"},
	{"tpch.q14_ms", "ms", "lower", "p50_ms on tpch-zq"},
	{"tpch.q15_ms", "ms", "lower", "p50_ms on tpch-zq"},
	{"tpch.q18_ms", "ms", "lower", "p50_ms on tpch-zq"},
	{"tpch.oracle_ratio", "ratio", "lower", "p50_ms on tpch-zq"},
	{"trace.serve-rows.overhead_pct", "%", "lower", "none: tracing cost on serve-rows"},
	{"trace.serve-agg.overhead_pct", "%", "lower", "none: tracing cost on serve-agg"},
	{"trace.tpch-zq.overhead_pct", "%", "lower", "none: tracing cost on tpch-zq"},
	{"trace.ingest-scan.overhead_pct", "%", "lower", "none: tracing cost on ingest-scan"},
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates one run's counts and metric values. It is safe
// for concurrent use by the closed-loop callers of a workload.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  error
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) {
	o.mu.Lock()
	o.values[name] = v
	o.mu.Unlock()
}

// record counts one attempted operation and, when err is non-nil, one
// failure; the first failure is kept for the log.
func (o *outcome) record(err error) {
	o.mu.Lock()
	o.attempted++
	if err != nil {
		o.failed++
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
	o.mu.Unlock()
}

// result renders the outcome against defs: every named metric must have
// been measured, and nothing else is reported.
func (o *outcome) result(defs []metricDef) (*result, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", o.failed, o.attempted, o.firstErr)
	}
	res := &result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail returns the highest-percentile latency that still has at least
// ten samples beyond it — the eleventh-largest sample — with that
// percentile. Fewer than eleven samples yield the maximum.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(len(s)-11, 0)
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
