package zkserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/zukowski"
)

// Content types the scan endpoint negotiates. A request whose Accept
// header includes MIMEFrames gets frame mode (raw compressed ZKC2
// frames); everything else gets NDJSON rows.
const (
	MIMERows   = "application/x-ndjson"
	MIMEFrames = "application/x-zkc2"
)

// Config configures a Server. The zero value of every limit means
// unlimited; requests can only tighten server-wide budgets, never exceed
// them.
type Config struct {
	// Registry holds the served tables. Required.
	Registry *Registry

	// Slots bounds concurrently executing scans; a scan that cannot take
	// a slot immediately is refused with 429 and Retry-After. Defaults to
	// 4×GOMAXPROCS.
	Slots int

	// MaxRows / MaxBytes / MaxDuration are server-wide per-query budgets.
	// Zero means unlimited.
	MaxRows     int64
	MaxBytes    int64
	MaxDuration time.Duration

	// MaxWorkers caps the per-scan parallelism a request may ask for.
	// Defaults to GOMAXPROCS.
	MaxWorkers int

	// CacheBytes, when positive, enables the registry's shared hot-block
	// cache with this byte budget (see Registry.EnableCache). Zero leaves
	// the registry's existing cache configuration untouched.
	CacheBytes int64

	// Logger receives request logs; defaults to slog.Default.
	Logger *slog.Logger
}

// PredSpec is one conjunct of a scan request: value of column Col in
// [Lo, Hi], inclusive. A nil bound is open (MinInt64 / MaxInt64).
type PredSpec struct {
	Col string `json:"col"`
	Lo  *int64 `json:"lo,omitempty"`
	Hi  *int64 `json:"hi,omitempty"`
}

// PredGroup is one alternative of an any_of disjunction: the AND of its
// Preds. AnyOf is reserved for deeper nesting; the server supports one
// level of disjunction, so a request carrying a nested group is refused
// with 422 rather than silently mis-evaluated.
type PredGroup struct {
	Preds []PredSpec  `json:"preds"`
	AnyOf []PredGroup `json:"any_of,omitempty"`
}

// ScanRequest is the POST /scan body.
type ScanRequest struct {
	Table string     `json:"table"`
	Cols  []string   `json:"cols"`
	Preds []PredSpec `json:"preds,omitempty"`

	// AnyOf adds a disjunctive predicate: a row survives when every
	// Preds conjunct holds AND at least one group's conjuncts all hold.
	// The server maps the disjunction onto a compressed-domain expression
	// tree — zone maps prune a block only when every alternative is
	// excluded, and surviving blocks are filtered without decoding
	// non-matching rows. In frame mode the groups participate in block
	// pruning only, like Preds.
	AnyOf []PredGroup `json:"any_of,omitempty"`

	// Agg switches the scan to aggregation: "count", "sum", "min", "max"
	// or "all" computes over AggCol (default: the first of Cols) and
	// returns one JSON object instead of a stream. The response always
	// carries all four statistics; Agg records intent.
	Agg    string `json:"agg,omitempty"`
	AggCol string `json:"agg_col,omitempty"`

	// Per-query budgets; each may only tighten the server-wide limit.
	MaxRows   int64 `json:"max_rows,omitempty"`
	MaxBytes  int64 `json:"max_bytes,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Workers asks for block-parallel execution (clamped to the server's
	// MaxWorkers). Zero or one scans sequentially. It also applies to
	// aggregates: each block folds on a worker and the partials merge.
	Workers int `json:"workers,omitempty"`

	// SkipCorrupt opts this scan into degraded mode: blocks lost to
	// corruption (quarantined blocks, checksum mismatches, undecodable
	// frames) are skipped instead of failing the request, and the response
	// trailer reports blocks_skipped and rows_lost. Off by default —
	// exactness is the default contract.
	SkipCorrupt bool `json:"skip_corrupt,omitempty"`
}

// AggResponse is the aggregate-mode response body.
type AggResponse struct {
	Table     string    `json:"table"`
	Agg       string    `json:"agg"`
	Col       string    `json:"col"`
	Result    AggResult `json:"result"`
	ElapsedMS float64   `json:"elapsed_ms"`

	// Degraded accounting, present only for skip_corrupt scans that
	// actually lost blocks: the aggregate excludes RowsLost rows.
	Degraded      bool  `json:"degraded,omitempty"`
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
	RowsLost      int64 `json:"rows_lost,omitempty"`
}

// CacheInfo reports the hot-block cache configuration in /tables.
type CacheInfo struct {
	Enabled       bool  `json:"enabled"`
	CapacityBytes int64 `json:"capacity_bytes"`
	ResidentBytes int64 `json:"resident_bytes"`
	Entries       int64 `json:"entries"`
}

// TablesResponse is the GET /tables capability listing.
type TablesResponse struct {
	Tables []TableMeta `json:"tables"`
	Codecs []string    `json:"codecs"`
	Cache  CacheInfo   `json:"cache"`

	// Features lists optional scan-protocol capabilities this server
	// understands ("any_of", ...), so clients can probe before sending a
	// request an older server would reject as an unknown field.
	Features []string `json:"features"`
}

// Server serves scans over HTTP. Create with NewServer; it implements
// http.Handler and routes POST /scan, GET /tables, GET /healthz and
// GET /metrics.
type Server struct {
	cfg      Config
	reg      *Registry
	mux      *http.ServeMux
	sem      chan struct{}
	log      *slog.Logger
	metrics  Metrics
	draining atomic.Bool
}

// NewServer builds a Server from cfg, applying defaults.
func NewServer(cfg Config) *Server {
	if cfg.Slots <= 0 {
		cfg.Slots = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.CacheBytes > 0 && cfg.Registry != nil {
		cfg.Registry.EnableCache(cfg.CacheBytes)
	}
	s := &Server{
		cfg: cfg,
		reg: cfg.Registry,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.Slots),
		log: cfg.Logger,
	}
	s.mux.HandleFunc("POST /scan", s.handleScan)
	s.mux.HandleFunc("GET /tables", s.handleTables)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Metrics returns the server's metrics; callers may read the counters
// directly (tests, periodic logging).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// SetDraining flips the health endpoint: while draining, /healthz
// returns 503 so load balancers stop routing here before Shutdown cuts
// in-flight streams. Scans keep being accepted — draining only steers
// new traffic away.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// statusWriter captures the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach Flush and deadlines.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// ServeHTTP routes the request through logging and latency middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	d := time.Since(start)
	route := "other"
	if r.URL.Path == "/scan" {
		route = "scan"
	}
	s.metrics.observeLatency(route, d)
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	lvl := slog.LevelInfo
	if route == "other" {
		lvl = slog.LevelDebug // health checks and metrics scrapes are noise
	}
	s.log.LogAttrs(r.Context(), lvl, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Duration("dur", d),
	)
}

// fail writes the JSON error body and counts the outcome.
func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	switch {
	case status == http.StatusTooManyRequests:
		s.metrics.ScansRejected.Add(1)
	case status >= 500:
		s.metrics.ScansServerErr.Add(1)
	case status >= 400:
		s.metrics.ScansClientErr.Add(1)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// statusFor maps pre-stream errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTable), errors.Is(err, ErrUnknownColumn):
		return http.StatusNotFound
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrMismatch), errors.Is(err, zukowski.ErrColumnSetMismatch):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// buildPlan resolves a request against the registry. aggCol is the
// aggregate column index, or -1 for a streaming scan.
func (s *Server) buildPlan(req *ScanRequest) (plan *scanPlan, aggCol int, err error) {
	if req.Table == "" {
		return nil, 0, fmt.Errorf("%w: missing table", ErrBadRequest)
	}
	t, err := s.reg.Table(req.Table)
	if err != nil {
		return nil, 0, err
	}
	plan = &scanPlan{table: t, workers: 1}
	if req.Workers > 1 {
		plan.workers = min(req.Workers, s.cfg.MaxWorkers)
	}
	if req.SkipCorrupt {
		plan.skip = true
		plan.report = new(zukowski.ScanReport)
	}
	for _, name := range req.Cols {
		ci, err := t.colIndex(name)
		if err != nil {
			return nil, 0, err
		}
		plan.out = append(plan.out, ci)
	}
	for i, ps := range req.Preds {
		spec, err := resolvePred(t, ps, fmt.Sprintf("predicate %d", i))
		if err != nil {
			return nil, 0, err
		}
		plan.preds = append(plan.preds, spec)
	}
	for gi, g := range req.AnyOf {
		if len(g.AnyOf) > 0 {
			return nil, 0, fmt.Errorf("%w: any_of group %d nests any_of (one level of disjunction is supported)", ErrMismatch, gi)
		}
		if len(g.Preds) == 0 {
			return nil, 0, fmt.Errorf("%w: any_of group %d holds no predicates", ErrBadRequest, gi)
		}
		group := make([]predSpec, 0, len(g.Preds))
		for i, ps := range g.Preds {
			spec, err := resolvePred(t, ps, fmt.Sprintf("any_of group %d predicate %d", gi, i))
			if err != nil {
				return nil, 0, err
			}
			group = append(group, spec)
		}
		plan.orGroups = append(plan.orGroups, group)
	}
	aggCol = -1
	if req.Agg != "" {
		switch req.Agg {
		case "count", "sum", "min", "max", "all":
		default:
			return nil, 0, fmt.Errorf("%w: unknown aggregate %q", ErrBadRequest, req.Agg)
		}
		name := req.AggCol
		if name == "" {
			if len(req.Cols) == 0 {
				return nil, 0, fmt.Errorf("%w: aggregate names no column", ErrBadRequest)
			}
			name = req.Cols[0]
		}
		if aggCol, err = t.colIndex(name); err != nil {
			return nil, 0, err
		}
		// The aggregate column must be in the scanned set.
		found := false
		for _, ci := range plan.out {
			if ci == aggCol {
				found = true
				break
			}
		}
		if !found {
			plan.out = append(plan.out, aggCol)
		}
	} else if len(plan.out) == 0 {
		return nil, 0, fmt.Errorf("%w: no output columns", ErrBadRequest)
	}
	return plan, aggCol, nil
}

// resolvePred maps one wire predicate onto the table's column space,
// defaulting open bounds to the full int64 domain. where names the
// predicate's position in error messages.
func resolvePred(t *Table, ps PredSpec, where string) (predSpec, error) {
	if ps.Col == "" {
		return predSpec{}, fmt.Errorf("%w: %s names no column", ErrBadRequest, where)
	}
	ci, err := t.colIndex(ps.Col)
	if err != nil {
		return predSpec{}, err
	}
	spec := predSpec{col: ci, lo: int64(-1) << 63, hi: 1<<63 - 1}
	if ps.Lo != nil {
		spec.lo = *ps.Lo
	}
	if ps.Hi != nil {
		spec.hi = *ps.Hi
	}
	return spec, nil
}

// tighten returns the effective budget: the smaller of the server-wide
// and per-request limits, where zero means unlimited.
func tighten(server, request int64) int64 {
	switch {
	case request <= 0:
		return server
	case server <= 0:
		return request
	default:
		return min(server, request)
	}
}

func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	plan, aggCol, err := s.buildPlan(&req)
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}
	wantFrames := aggCol < 0 && strings.Contains(r.Header.Get("Accept"), MIMEFrames)
	// Everything that would 422 must be known before the 200 header
	// commits; mid-stream failures after this point travel in-band.
	if wantFrames {
		err = plan.validateFrameMode()
	} else {
		err = plan.validateRowMode()
	}
	if err != nil {
		s.fail(w, statusFor(err), err)
		return
	}

	// Admission: take a worker slot now or shed the load at the door.
	select {
	case s.sem <- struct{}{}:
	default:
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, errors.New("zkserve: all worker slots busy"))
		return
	}
	s.metrics.InFlight.Add(1)
	defer func() {
		s.metrics.InFlight.Add(-1)
		<-s.sem
	}()

	maxRows := tighten(s.cfg.MaxRows, req.MaxRows)
	maxBytes := tighten(s.cfg.MaxBytes, req.MaxBytes)
	timeout := s.cfg.MaxDuration
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && (timeout <= 0 || t < timeout) {
		timeout = t
	}
	// A disconnected client cancels r.Context(), which stops the scan at
	// the next block boundary and frees the slot.
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	switch {
	case aggCol >= 0:
		s.runAgg(ctx, w, &req, plan, aggCol)
	case wantFrames:
		s.runFrames(ctx, w, plan, maxRows, maxBytes)
	default:
		s.runRows(ctx, w, &req, plan, maxRows, maxBytes)
	}
}

// recordScanned feeds the zone-map effectiveness counters from directory
// metadata; called once per scan that ran to completion.
func (s *Server) recordScanned(plan *scanPlan) {
	scanned, pruned, raw := plan.blockStats()
	s.metrics.BlocksScanned.Add(int64(scanned))
	s.metrics.BlocksPruned.Add(int64(pruned))
	s.metrics.RawBytesScanned.Add(raw)
}

func (s *Server) runAgg(ctx context.Context, w http.ResponseWriter, req *ScanRequest, plan *scanPlan, aggCol int) {
	start := time.Now()
	res, err := plan.aggregate(ctx, aggCol)
	if err != nil {
		if ctx.Err() != nil {
			s.metrics.ScansCanceled.Add(1)
			writeJSON(w, http.StatusRequestTimeout, map[string]string{"error": err.Error()})
			return
		}
		s.fail(w, statusFor(err), err)
		return
	}
	s.recordScanned(plan)
	s.metrics.ScansOK.Add(1)
	resp := AggResponse{
		Table:     req.Table,
		Agg:       req.Agg,
		Col:       plan.table.colName(aggCol),
		Result:    res,
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if rep := plan.report; rep.Degraded() {
		resp.Degraded = true
		resp.BlocksSkipped = int64(rep.BlocksSkipped)
		resp.RowsLost = rep.RowsLost
		s.noteDegraded(rep)
	}
	writeJSON(w, http.StatusOK, resp)
}

// noteDegraded counts a scan that completed with losses and logs what was
// dropped, so silent data loss never happens silently.
func (s *Server) noteDegraded(rep *zukowski.ScanReport) {
	s.metrics.ScansDegraded.Add(1)
	s.metrics.BlocksSkipped.Add(int64(rep.BlocksSkipped))
	s.log.Warn("degraded scan",
		slog.Int("blocks_skipped", rep.BlocksSkipped),
		slog.Int64("rows_lost", rep.RowsLost),
		slog.String("first_err", fmt.Sprint(rep.FirstErr)),
	)
}

func (s *Server) runRows(ctx context.Context, w http.ResponseWriter, req *ScanRequest, plan *scanPlan, maxRows, maxBytes int64) {
	start := time.Now()
	w.Header().Set("Content-Type", MIMERows)
	w.WriteHeader(http.StatusOK)
	rw := newRowWriter(w)
	rw.header(req.Table, req.Cols)

	var rows int64
	truncated, reason := false, ""
	err := plan.run(ctx, func(blockRows []int64, vals [][]int64) bool {
		if n := int64(len(blockRows)); maxRows > 0 && rows+n > maxRows {
			keep := maxRows - rows
			trimmed := make([][]int64, len(vals))
			for i, v := range vals {
				trimmed[i] = v[:keep]
			}
			rw.rows(blockRows[:keep], trimmed)
			rows += keep
			truncated, reason = true, "rows"
			return false
		}
		rw.rows(blockRows, vals)
		rows += int64(len(blockRows))
		if rw.writeErr() != nil {
			return false
		}
		if maxRows > 0 && rows == maxRows {
			truncated, reason = true, "rows"
			return false
		}
		if maxBytes > 0 && rw.totalBytes() >= maxBytes {
			truncated, reason = true, "bytes"
			return false
		}
		return true
	})
	if err == nil {
		err = rw.writeErr()
	}
	switch {
	case err == nil:
		if !truncated {
			s.recordScanned(plan)
		}
		s.metrics.ScansOK.Add(1)
		if plan.report.Degraded() {
			s.noteDegraded(plan.report)
		}
	case ctx.Err() != nil:
		s.metrics.ScansCanceled.Add(1)
	default:
		s.metrics.ScansServerErr.Add(1)
	}
	rw.trailer(rows, truncated, reason, err,
		float64(time.Since(start))/float64(time.Millisecond), plan.report)
	rw.flush()
	s.metrics.RowsEmitted.Add(rows)
	s.metrics.BytesEmitted.Add(rw.bytesWritten())
}

func (s *Server) runFrames(ctx context.Context, w http.ResponseWriter, plan *scanPlan, maxRows, maxBytes int64) {
	w.Header().Set("Content-Type", MIMEFrames)
	w.WriteHeader(http.StatusOK)
	fw := newFrameWriter(w)
	cols := make([]FrameStreamCol, len(plan.out))
	for i, ci := range plan.out {
		cols[i] = FrameStreamCol{Name: plan.table.colName(ci), WidthBytes: plan.table.colWidth(ci)}
	}
	fw.header(cols)

	var rowsRep, frames int64
	truncated := false
	err := plan.streamBlocks(ctx, func(b int, firstRow int64, count int, blockFrames [][]byte) bool {
		fw.block(b, firstRow, count, blockFrames)
		rowsRep += int64(count)
		frames += int64(len(blockFrames))
		if fw.writeErr() != nil {
			return false
		}
		if (maxRows > 0 && rowsRep >= maxRows) || (maxBytes > 0 && fw.totalBytes() >= maxBytes) {
			truncated = true
			return false
		}
		return true
	})
	if err == nil {
		err = fw.writeErr()
	}
	status := byte(FrameStatusDone)
	msg := ""
	switch {
	case err == nil && truncated:
		status = FrameStatusTruncated
		s.metrics.ScansOK.Add(1)
	case err == nil:
		s.recordScanned(plan)
		s.metrics.ScansOK.Add(1)
	case ctx.Err() != nil:
		status, msg = FrameStatusError, err.Error()
		s.metrics.ScansCanceled.Add(1)
	default:
		status, msg = FrameStatusError, err.Error()
		s.metrics.ScansServerErr.Add(1)
	}
	var skipped, lost int64
	if rep := plan.report; rep.Degraded() {
		skipped, lost = int64(rep.BlocksSkipped), rep.RowsLost
		if err == nil {
			s.noteDegraded(rep)
		}
	}
	fw.trailer(status, rowsRep, skipped, lost, msg)
	fw.flush()
	s.metrics.RowsEmitted.Add(rowsRep)
	s.metrics.FramesShipped.Add(frames)
	s.metrics.BytesEmitted.Add(fw.bytesWritten())
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	resp := TablesResponse{Codecs: zukowski.Codecs(), Features: []string{"any_of"}}
	if s.reg.CacheEnabled() {
		st := s.reg.CacheStats()
		resp.Cache = CacheInfo{
			Enabled:       true,
			CapacityBytes: st.Capacity,
			ResidentBytes: st.Bytes,
			Entries:       st.Entries,
		}
	}
	for _, name := range s.reg.Tables() {
		t, err := s.reg.Table(name)
		if err != nil {
			continue
		}
		resp.Tables = append(resp.Tables, t.Meta())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Quarantined blocks or segments degrade the body but not the
	// status: the server still answers every scan that avoids (or skips)
	// the bad data, so load balancers should keep routing here while
	// operators repair.
	blocks, segs := s.reg.QuarantinedBlocks(), s.reg.QuarantinedSegments()
	switch {
	case blocks > 0 && segs > 0:
		fmt.Fprintf(w, "degraded: %d blocks, %d segments quarantined\n", blocks, segs)
	case blocks > 0:
		fmt.Fprintf(w, "degraded: %d blocks quarantined\n", blocks)
	case segs > 0:
		fmt.Fprintf(w, "degraded: %d segments quarantined\n", segs)
	default:
		w.Write([]byte("ok\n"))
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteProm(w)
	writeCacheProm(w, s.reg.CacheEnabled(), s.reg.CacheStats())
	writeHealthProm(w, s.reg.QuarantinedBlocks())
}
