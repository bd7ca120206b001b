package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/zkserve"
)

// The traced run replays each workload's operations top-down through
// the public entry point of every layer — L5 client over a socket, L4
// zkserve handler in-process, L3 zktable, L2 zukowski ColumnSet, L1/L0
// codec and bitpack kernels — and records one span per layer call. The
// calls are replays of the same operation, not nested calls, so a
// layer's self time is its span minus the span of the next layer down
// for the same operation.

// span is one timed layer call. Spans of one replayed operation share
// Op; Parent names the layer above it on that operation's path.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends, with per-name
// totals and the count of refused (429) calls it saw.
type tracer struct {
	t0       time.Time
	spans    []span
	total    map[string]time.Duration
	count    map[string]int64
	rejected int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]time.Duration{}, count: map[string]int64{}}
}

// do times fn as a span named name under parent for operation op and
// returns the span's duration with fn's error.
func (t *tracer) do(op int64, name, parent string, fn func() error) (time.Duration, error) {
	s := time.Now()
	err := fn()
	e := time.Now()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: int64(s.Sub(t.t0)), End: int64(e.Sub(t.t0))})
	t.total[name] += e.Sub(s)
	t.count[name]++
	return e.Sub(s), err
}

// ns returns the summed duration of name's spans in nanoseconds.
func (t *tracer) ns(name string) float64 { return float64(t.total[name]) }

// ms returns the mean duration of name's spans in milliseconds.
func (t *tracer) ms(name string) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return t.ns(name) / float64(t.count[name]) / 1e6
}

// write stores every span as JSON in dir/trace.json.
func (t *tracer) write(dir string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}

// overheadPct compares the same top-level calls timed with and without
// span recording.
func overheadPct(traced, untraced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * float64(traced-untraced) / float64(untraced)
}

// discardWriter is the ResponseWriter of in-process L4 calls: it keeps
// the status and counts the body bytes, and keeps the body itself only
// when asked to.
type discardWriter struct {
	h      http.Header
	status int
	n      int64
	keep   *bytes.Buffer
}

func (w *discardWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	if w.keep != nil {
		w.keep.Write(p)
	}
	return len(p), nil
}

// serveInProcess runs one scan request through the handler without a
// socket; the writer holds the status, the body size and, when keep is
// set, the body.
func serveInProcess(srv *zkserve.Server, req zkserve.ScanRequest, keep bool) *discardWriter {
	body, _ := json.Marshal(req) // a ScanRequest always marshals
	r := httptest.NewRequest(http.MethodPost, "/scan", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	if req.Agg == "" {
		r.Header.Set("Accept", zkserve.MIMERows)
	}
	w := &discardWriter{}
	if keep {
		w.keep = &bytes.Buffer{}
	}
	srv.ServeHTTP(w, r)
	return w
}
