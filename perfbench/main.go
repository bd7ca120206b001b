// Command perfbench is the repository benchmark: four workloads that
// exercise the served row path, the cold served aggregate path, the
// TPC-H compressed-domain query layer and ingest beside scans, each
// checked against an oracle built from the generated inputs.
//
// Usage (from the repository root, through run.sh, which builds this
// package first):
//
//	bash perfbench/run.sh --workload serve-rows --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric of the chosen workload. With --trace 1
// the run replays the operations of every workload top-down through the
// public entry point of each layer and prints every per-layer metric
// instead; the spans it records are written to
// .bench_build/perfbench/trace.json when the run ends.
//
// Inputs are generated from --seed; the same seed gives the same inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"serve-rows":  runServeRows,
	"serve-agg":   runServeAgg,
	"tpch-zq":     runTPCH,
	"ingest-scan": runIngest,
}

func main() {
	workload := flag.String("workload", "", "serve-rows, serve-agg, tpch-zq or ingest-scan")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 replays every workload layer by layer and reports per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		os.Exit(2)
	}
	e, err := newEnv(filepath.Join(".bench_build", "perfbench"), *seed, time.Duration(*seconds*float64(time.Second)), fullSizes, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(e, *workload, *trace == 1)
	e.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
}

// run executes one benchmark run and assembles its result line.
func run(e *env, workload string, trace bool) (*result, error) {
	if trace {
		return runTrace(e)
	}
	out, err := workloads[workload](e)
	if err != nil {
		return nil, err
	}
	out.set("peak_rss_mb", peakRSSMB())
	return out.result(endToEnd)
}

// env is what every workload shares: the seed, the measured duration,
// the input sizes, an output directory for the trace and a scratch
// directory under it for tables.
type env struct {
	seed    int64
	seconds time.Duration
	sz      sizes
	base    string
	dir     string
	log     io.Writer
}

func newEnv(base string, seed int64, seconds time.Duration, sz sizes, log io.Writer) (*env, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, seconds: seconds, sz: sz, base: base, dir: abs, log: log}, nil
}

func (e *env) close() { os.RemoveAll(e.dir) }

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench: "+format+"\n", args...)
}

// sizes fixes every input size. fullSizes is what the benchmark
// measures; the smoke test runs the same code at tinySizes.
type sizes struct {
	rowsRows    int   // serve-rows: flat table rows
	rowsCache   int64 // serve-rows: block cache bytes (holds the table)
	aggSegs     int   // serve-agg: zktable segments
	aggSegRows  int   // serve-agg: rows per segment
	aggCache    int64 // serve-agg: block cache bytes (smaller than c1+c2)
	blockValues int   // values per block in every served table
	tpchSF      float64
	ingestRows  int // ingest-scan: rows per appended segment
	ingestSegs  int // ingest-scan: appends between compactions
	setups      int // set-ups per run where one costs seconds (tpch-zq); setup_s is their median
	quickSetups int // set-ups per run where one costs well under a second
	copyBytes   int // memory-copy calibration buffer
}

var fullSizes = sizes{
	rowsRows:    2_000_000,
	rowsCache:   64 << 20,
	aggSegs:     8,
	aggSegRows:  1_000_000,
	aggCache:    8 << 20,
	blockValues: 65536,
	tpchSF:      0.1,
	ingestRows:  262_144,
	ingestSegs:  8,
	setups:      3,
	quickSetups: 7,
	copyBytes:   64 << 20,
}
