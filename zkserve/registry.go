package zkserve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/zktable"
	"repro/zukowski"
)

// Typed errors of the serving layer. The HTTP handlers map these to
// status codes: ErrUnknownTable/ErrUnknownColumn to 404, ErrMismatch
// (and zukowski.ErrColumnSetMismatch) to 422, ErrBadRequest to 400.
var (
	ErrUnknownTable  = errors.New("zkserve: unknown table")
	ErrUnknownColumn = errors.New("zkserve: unknown column")
	ErrBadRequest    = errors.New("zkserve: bad request")
	ErrMismatch      = errors.New("zkserve: columns cannot be scanned together")
)

// colHandle is the width-erased handle of one registered column. The
// underlying reader is a zukowski.ColumnReader[T] for the signed integer
// type of the column's stored element width; predicates and statistics
// cross this boundary in the wire domain (int64), clamped per column.
type colHandle interface {
	colName() string
	widthBytes() int
	rows() int
	numBlocks() int
	blockCount(b int) int
	blockFirstRow(b int) int64
	compressedBytes() int
	// minMax folds the column's zone maps; ok is false on ZKC1.
	minMax() (lo, hi int64, ok bool)
	// excludes reports whether block b's zone map proves the wire-domain
	// range [lo, hi] selects nothing in the block.
	excludes(b int, lo, hi int64) bool
	// frameBytes returns block b's raw frame, checksum-verified when the
	// container stores one. The returned slice must not be modified.
	frameBytes(b int) ([]byte, error)
	// setCache attaches the registry's hot-block cache to the reader
	// (a no-op for in-memory columns, which are already resident).
	setCache(c zukowski.BlockCache)
	// quarantinedBlocks counts the blocks the reader has latched as
	// permanently corrupt — the per-column health gauge.
	quarantinedBlocks() int
	// reader returns the underlying *zukowski.ColumnReader[T].
	reader() any
}

// column is the generic colHandle implementation for one element type.
type column[T zukowski.Integer] struct {
	name   string
	cr     *zukowski.ColumnReader[T]
	starts []int64 // starts[b] = first row of block b
	counts []int32 // counts[b] = rows in block b
	zlo    int64   // folded zone-map min (wire domain)
	zhi    int64   // folded zone-map max
	hasZM  bool
}

func (c *column[T]) colName() string           { return c.name }
func (c *column[T]) rows() int                 { return c.cr.Len() }
func (c *column[T]) numBlocks() int            { return c.cr.NumBlocks() }
func (c *column[T]) blockCount(b int) int      { return int(c.counts[b]) }
func (c *column[T]) blockFirstRow(b int) int64 { return c.starts[b] }
func (c *column[T]) compressedBytes() int      { return c.cr.CompressedBytes() }
func (c *column[T]) reader() any               { return c.cr }

func (c *column[T]) widthBytes() int {
	var zero T
	return int(elemWidth(zero))
}

func (c *column[T]) minMax() (int64, int64, bool) { return c.zlo, c.zhi, c.hasZM }

func (c *column[T]) excludes(b int, lo, hi int64) bool {
	tlo, thi, ok := clampRange[T](lo, hi)
	if !ok {
		return true // the range has no image in T's domain: nothing can match
	}
	bmin, bmax, zok := c.cr.ZoneMap(b)
	return zok && (bmax < tlo || bmin > thi)
}

// frameBytes delegates to the reader's verified frame path, so frame-mode
// streaming shares the reader's verification latch (in-memory) or the
// registry's hot-block cache (file-backed) instead of re-reading and
// re-hashing the payload per request.
func (c *column[T]) frameBytes(b int) ([]byte, error) {
	return c.cr.FrameBytes(b)
}

func (c *column[T]) setCache(cache zukowski.BlockCache) {
	c.cr.SetBlockCache(cache)
}

func (c *column[T]) quarantinedBlocks() int {
	return len(c.cr.QuarantinedBlocks())
}

// elemWidth returns T's size in bytes without reflection on the hot path.
func elemWidth[T zukowski.Integer](T) uintptr {
	switch any(*new(T)).(type) {
	case int8, uint8:
		return 1
	case int16, uint16:
		return 2
	case int32, uint32:
		return 4
	default:
		return 8
	}
}

// clampRange maps a wire-domain range [lo, hi] into T's domain. ok is
// false when the intersection is empty — the predicate can match nothing
// of this column. Only signed element types are instantiated by the
// registry, so the domain is [-2^(w-1), 2^(w-1)-1].
func clampRange[T zukowski.Integer](lo, hi int64) (tlo, thi T, ok bool) {
	if lo > hi {
		return tlo, thi, false
	}
	bits := 8 * int(elemWidth(tlo))
	minT, maxT := int64(math.MinInt64), int64(math.MaxInt64)
	if bits < 64 {
		maxT = 1<<(bits-1) - 1
		minT = -1 << (bits - 1)
	}
	if lo > maxT || hi < minT {
		return tlo, thi, false
	}
	return T(max(lo, minT)), T(min(hi, maxT)), true
}

// openColumn builds the typed handle: the container is opened, the block
// directory materialized into row starts, and the zone maps folded into
// one column-wide [min, max] for the capability listing and loadgen's
// predicate windows.
func openColumn[T zukowski.Integer](name string, mem []byte, src io.ReaderAt, size int64, opts []zukowski.ReaderOption) (colHandle, error) {
	var cr *zukowski.ColumnReader[T]
	var err error
	if mem != nil {
		cr, err = zukowski.OpenColumn[T](mem)
	} else {
		cr, err = zukowski.OpenColumnReaderAt[T](src, size, opts...)
	}
	if err != nil {
		return nil, err
	}
	return handleFromReader(name, cr)
}

// handleFromReader builds the typed handle around an already-open reader
// — the path sharded tables use, whose readers belong to the zktable
// handle.
func handleFromReader[T zukowski.Integer](name string, cr *zukowski.ColumnReader[T]) (colHandle, error) {
	c := &column[T]{name: name, cr: cr}
	nb := cr.NumBlocks()
	c.starts = make([]int64, nb)
	c.counts = make([]int32, nb)
	row := int64(0)
	for b := 0; b < nb; b++ {
		info, err := cr.BlockInfo(b)
		if err != nil {
			return nil, err
		}
		c.starts[b] = row
		c.counts[b] = int32(info.Count)
		row += int64(info.Count)
		if info.HasZoneMap {
			lo, hi := int64(info.Min), int64(info.Max)
			if !c.hasZM {
				c.zlo, c.zhi, c.hasZM = lo, hi, true
			} else {
				c.zlo, c.zhi = min(c.zlo, lo), max(c.zhi, hi)
			}
		}
	}
	return c, nil
}

// newColHandle sniffs the container's element width from its header and
// opens the column as the signed integer type of that width (the header
// records width, not signedness).
func newColHandle(name string, mem []byte, src io.ReaderAt, size int64, opts []zukowski.ReaderOption) (colHandle, error) {
	var hdr [16]byte
	if mem != nil {
		if len(mem) < len(hdr) {
			return nil, fmt.Errorf("%w: %d bytes", zukowski.ErrCorruptColumn, len(mem))
		}
		copy(hdr[:], mem)
	} else {
		if _, err := src.ReadAt(hdr[:], 0); err != nil {
			return nil, fmt.Errorf("%w: reading header: %v", zukowski.ErrCorruptColumn, err)
		}
	}
	switch hdr[4] {
	case 1:
		return openColumn[int8](name, mem, src, size, opts)
	case 2:
		return openColumn[int16](name, mem, src, size, opts)
	case 4:
		return openColumn[int32](name, mem, src, size, opts)
	case 8:
		return openColumn[int64](name, mem, src, size, opts)
	}
	return nil, fmt.Errorf("%w: unsupported element width %d", zukowski.ErrCorruptColumn, hdr[4])
}

// Table is a named collection of columns. Columns are registered
// individually and validated individually; whether a particular subset
// can be scanned together (same geometry, and for row mode the same
// element width) is checked per request, so one malformed column poisons
// only the requests that touch it.
//
// A table is either flat (cols, one container per column — the classic
// layout) or sharded (segs, backed by a zktable directory: one committed
// manifest generation spanning many immutable segments). Sharded tables
// expose the committed generation and quarantine state on /tables; row
// and aggregate mode run on the open zktable, frame mode per segment,
// all with global row and block numbering.
type Table struct {
	name   string
	cols   []colHandle
	byName map[string]int

	// Sharded (zktable-backed) state. shard runs row and aggregate mode
	// on the open zktable.Table; segs serve frame mode, validation and
	// statistics.
	shard     rowSource
	segs      []*servedSeg
	colNames  []string // schema order, from the manifest
	gen       uint64   // committed generation being served
	totalRows int64    // committed rows, including quarantined segments
}

// sharded reports whether the table is zktable-backed.
func (t *Table) sharded() bool { return t.shard != nil }

// allCols returns every live column handle — the flat list, or the
// handles of every in-service segment of a sharded table.
func (t *Table) allCols() []colHandle {
	if !t.sharded() {
		return t.cols
	}
	var out []colHandle
	for _, s := range t.segs {
		if s.sub != nil {
			out = append(out, s.sub.cols...)
		}
	}
	return out
}

// colName returns column i's name in schema order.
func (t *Table) colName(i int) string {
	if t.sharded() {
		return t.colNames[i]
	}
	return t.cols[i].colName()
}

// colWidth returns column i's element width in bytes.
func (t *Table) colWidth(i int) int {
	if t.sharded() {
		for _, s := range t.segs {
			if s.sub != nil {
				return s.sub.cols[i].widthBytes()
			}
		}
		return 8 // every segment quarantined; width is moot
	}
	return t.cols[i].widthBytes()
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Columns returns the column names in registration (schema) order.
func (t *Table) Columns() []string {
	if t.sharded() {
		return append([]string(nil), t.colNames...)
	}
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.colName()
	}
	return names
}

// colIndex resolves a column name.
func (t *Table) colIndex(name string) (int, error) {
	i, ok := t.byName[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q has no column %q", ErrUnknownColumn, t.name, name)
	}
	return i, nil
}

// ColumnMeta describes one column in the /tables capability listing.
type ColumnMeta struct {
	Name            string `json:"name"`
	WidthBytes      int    `json:"width_bytes"`
	Rows            int    `json:"rows"`
	Blocks          int    `json:"blocks"`
	CompressedBytes int    `json:"compressed_bytes"`
	HasMinMax       bool   `json:"has_min_max"`
	Min             int64  `json:"min"`
	Max             int64  `json:"max"`

	// QuarantinedBlocks counts blocks latched as permanently corrupt —
	// unreadable until the file is repaired (see segdump -repair).
	QuarantinedBlocks int `json:"quarantined_blocks,omitempty"`
}

// TableMeta describes one table in the /tables capability listing.
type TableMeta struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"` // committed rows (first column for flat tables)
	Columns []ColumnMeta `json:"columns"`

	// Sharded (zktable-backed) tables also report the committed manifest
	// generation they serve and their segment-level health.
	Generation          uint64 `json:"generation,omitempty"`
	Segments            int    `json:"segments,omitempty"`
	QuarantinedSegments int    `json:"quarantined_segments,omitempty"`
	RowsUnavailable     int64  `json:"rows_unavailable,omitempty"`

	// Degraded is set when any column has quarantined blocks or any
	// segment is quarantined: exact scans over them fail, degraded scans
	// skip them.
	Degraded bool `json:"degraded,omitempty"`
}

// Meta returns the table's capability listing entry.
func (t *Table) Meta() TableMeta {
	if t.sharded() {
		return t.metaSharded()
	}
	m := TableMeta{Name: t.name}
	if len(t.cols) > 0 {
		m.Rows = t.cols[0].rows()
	}
	for _, c := range t.cols {
		cm := ColumnMeta{
			Name:              c.colName(),
			WidthBytes:        c.widthBytes(),
			Rows:              c.rows(),
			Blocks:            c.numBlocks(),
			CompressedBytes:   c.compressedBytes(),
			QuarantinedBlocks: c.quarantinedBlocks(),
		}
		cm.Min, cm.Max, cm.HasMinMax = c.minMax()
		if cm.QuarantinedBlocks > 0 {
			m.Degraded = true
		}
		m.Columns = append(m.Columns, cm)
	}
	return m
}

// Registry maps table names to column sets. It is immutable once serving
// starts: build it (OpenDir or AddColumnBytes/AddColumnFile), then share
// it across every request — the underlying ColumnReaders are safe for
// concurrent use, so the registry needs no locking of its own.
type Registry struct {
	tables  map[string]*Table
	names   []string
	closers []io.Closer
	cache   *zukowski.BlockLRU // shared hot-block cache, nil when disabled

	// retry is applied to every file-backed column opened after it is set;
	// wrap interposes on the raw source (fault injection, tracing).
	retry   zukowski.RetryPolicy
	hasRtry bool
	wrap    func(r io.ReaderAt, size int64) io.ReaderAt
}

// RegistryOption configures a Registry at construction.
type RegistryOption func(*Registry)

// WithCacheBytes enables the registry's shared hot-block cache with a
// byte budget; see EnableCache. maxBytes <= 0 leaves the cache off.
func WithCacheBytes(maxBytes int64) RegistryOption {
	return func(r *Registry) { r.EnableCache(maxBytes) }
}

// WithRetryPolicy makes every file-backed column registered afterwards
// retry transient source-read failures per p (see zukowski.RetryPolicy).
// In-memory columns cannot observe I/O errors and ignore it.
func WithRetryPolicy(p zukowski.RetryPolicy) RegistryOption {
	return func(r *Registry) { r.retry, r.hasRtry = p, true }
}

// WithSourceWrapper interposes wrap on the raw io.ReaderAt of every
// file-backed column registered afterwards — the hook zkserved's chaos
// mode uses to inject faults between the reader and the filesystem.
func WithSourceWrapper(wrap func(r io.ReaderAt, size int64) io.ReaderAt) RegistryOption {
	return func(r *Registry) { r.wrap = wrap }
}

// NewRegistry returns an empty registry.
func NewRegistry(opts ...RegistryOption) *Registry {
	r := &Registry{tables: map[string]*Table{}}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// EnableCache gives the registry one process-wide hot-block cache of at
// most maxBytes of verified frame bytes, shared by every file-backed
// column across all tables (in-memory columns are already resident and
// ignore it). Columns registered before and after the call are both
// wired up; under the immutable-container model the cache needs no
// explicit invalidation. maxBytes <= 0 disables caching.
func (r *Registry) EnableCache(maxBytes int64) {
	if maxBytes <= 0 {
		r.cache = nil
	} else {
		r.cache = zukowski.NewBlockLRU(maxBytes)
	}
	for _, t := range r.tables {
		for _, c := range t.allCols() {
			c.setCache(blockCacheOrNil(r.cache))
		}
	}
}

// blockCacheOrNil converts a possibly-nil *BlockLRU into the interface
// without producing a non-nil interface around a nil pointer.
func blockCacheOrNil(c *zukowski.BlockLRU) zukowski.BlockCache {
	if c == nil {
		return nil
	}
	return c
}

// CacheEnabled reports whether a hot-block cache is attached.
func (r *Registry) CacheEnabled() bool { return r.cache != nil }

// CacheCapacity returns the cache's byte budget, 0 when disabled.
func (r *Registry) CacheCapacity() int64 {
	if r.cache == nil {
		return 0
	}
	return r.cache.Capacity()
}

// CacheStats snapshots the shared cache's counters; the zero value when
// the cache is disabled.
func (r *Registry) CacheStats() zukowski.CacheStats {
	if r.cache == nil {
		return zukowski.CacheStats{}
	}
	return r.cache.Stats()
}

// QuarantinedBlocks sums the quarantined-block counts of every column
// across all tables — the process-wide corruption gauge behind /healthz
// and the zkserve_blocks_quarantined metric.
func (r *Registry) QuarantinedBlocks() int64 {
	var n int64
	for _, t := range r.tables {
		for _, c := range t.allCols() {
			n += int64(c.quarantinedBlocks())
		}
	}
	return n
}

// QuarantinedSegments sums segments out of service across all sharded
// tables. Like QuarantinedBlocks it is read-only introspection for
// health reporting; per-table detail is on /tables.
func (r *Registry) QuarantinedSegments() int {
	n := 0
	for _, t := range r.tables {
		for _, s := range t.segs {
			if s.quarErr != nil {
				n++
			}
		}
	}
	return n
}

// Tables returns the registered table names, sorted.
func (r *Registry) Tables() []string {
	names := make([]string, len(r.names))
	copy(names, r.names)
	sort.Strings(names)
	return names
}

// Table resolves a table name.
func (r *Registry) Table(name string) (*Table, error) {
	t, ok := r.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	return t, nil
}

func (r *Registry) table(name string) *Table {
	t, ok := r.tables[name]
	if !ok {
		t = &Table{name: name, byName: map[string]int{}}
		r.tables[name] = t
		r.names = append(r.names, name)
	}
	return t
}

func (r *Registry) addHandle(table string, h colHandle) error {
	t := r.table(table)
	if t.sharded() {
		return fmt.Errorf("%w: table %q is sharded; individual columns cannot be added", ErrBadRequest, table)
	}
	if _, dup := t.byName[h.colName()]; dup {
		return fmt.Errorf("%w: table %q already has column %q", ErrBadRequest, table, h.colName())
	}
	t.byName[h.colName()] = len(t.cols)
	t.cols = append(t.cols, h)
	if r.cache != nil {
		h.setCache(r.cache)
	}
	return nil
}

// readerOpts folds the registry's reader-level configuration into the
// options passed to every file-backed open.
func (r *Registry) readerOpts() []zukowski.ReaderOption {
	if !r.hasRtry {
		return nil
	}
	return []zukowski.ReaderOption{zukowski.WithRetryPolicy(r.retry)}
}

// AddColumnBytes registers an in-memory column container under
// table/col. The bytes are retained and must stay immutable.
func (r *Registry) AddColumnBytes(table, col string, data []byte) error {
	h, err := newColHandle(col, data, nil, int64(len(data)), nil)
	if err != nil {
		return fmt.Errorf("column %s/%s: %w", table, col, err)
	}
	return r.addHandle(table, h)
}

// AddColumnFile registers a column container file under table/col,
// streaming blocks through an io.ReaderAt so columns larger than RAM
// serve fine. The file stays open until Close.
func (r *Registry) AddColumnFile(table, col, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	var src io.ReaderAt = f
	if r.wrap != nil {
		src = r.wrap(src, st.Size())
	}
	h, err := newColHandle(col, nil, src, st.Size(), r.readerOpts())
	if err != nil {
		f.Close()
		return fmt.Errorf("column %s/%s: %w", table, col, err)
	}
	if err := r.addHandle(table, h); err != nil {
		f.Close()
		return err
	}
	r.closers = append(r.closers, f)
	return nil
}

// OpenDir builds a registry from a data directory: every subdirectory is
// a table. A subdirectory holding a zktable manifest is served as a
// sharded table (segments, generation and quarantine state included);
// otherwise every *.zkc file inside it is a flat column named after the
// file. A directory with no tables yields an empty registry, not an
// error.
func OpenDir(dir string, opts ...RegistryOption) (*Registry, error) {
	r := NewRegistry(opts...)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		table := e.Name()
		if zktable.IsTableDir(filepath.Join(dir, table)) {
			if err := r.AddShardedTable(table, filepath.Join(dir, table)); err != nil {
				r.Close()
				return nil, err
			}
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, table))
		if err != nil {
			r.Close()
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".zkc") {
				continue
			}
			col := strings.TrimSuffix(f.Name(), ".zkc")
			if err := r.AddColumnFile(table, col, filepath.Join(dir, table, f.Name())); err != nil {
				r.Close()
				return nil, err
			}
		}
	}
	return r, nil
}

// Close releases the file handles of file-backed columns.
func (r *Registry) Close() error {
	var first error
	for _, c := range r.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}
