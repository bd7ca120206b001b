// Package zukowski is the public face of this repository: a unified codec
// API over the super-scalar patched compression schemes of Zukowski, Héman,
// Nes and Boncz ("Super-Scalar RAM-CPU Cache Compression", ICDE 2006) and
// the baseline schemes the paper compares against.
//
// The package wraps the internal kernels (which keep their allocation-free,
// branch-free hot-loop shapes) behind three layers:
//
//   - Codec[T]: one encode/decode/point-lookup contract for every scheme.
//     Encode appends a self-describing compressed frame to a byte slice;
//     Decode appends the reconstructed values to a value slice; Get reads a
//     single value without decompressing the whole frame (fine-grained
//     access, Section 3.1 of the paper); Stats inspects a frame.
//   - A name-indexed registry: Register, Lookup and Codecs let tools and
//     benchmarks enumerate schemes instead of hard-coding them.
//   - ColumnWriter / ColumnReader: a streaming multi-block column container
//     with a directory footer, per-block codec dispatch and fine-grained
//     Get across block boundaries. The default ZKC2 format adds per-block
//     CRC32-C checksums, min/max zone maps consulted by ScanWhere to skip
//     blocks before decompression, and a checksummed directory; ZKC1
//     containers (and writers via WithFormatVersion) stay fully supported,
//     and OpenColumnReaderAt streams columns larger than RAM from any
//     io.ReaderAt. A ColumnReader is safe for concurrent use — goroutines
//     share one reader's block cache and checksum state — and
//     ParallelScan / ParallelScanWhere decode blocks across a worker pool
//     to scale scan bandwidth with cores.
//
// # Filtered scans and aggregate pushdown
//
// ScanSelect, ParallelScanSelect and AggregateWhere evaluate a range
// predicate below decompression. Zone maps prune blocks first; inside each
// surviving patched block the predicate is translated into the compressed
// code domain — PFOR subtracts the block base and clamps to the codable
// window, PDICT remaps the range into dictionary-code space once per block
// (a contiguous code run uses the packed range kernels, anything else a
// per-code bitmap), PFOR-DELTA falls back to a fused decode+compare per
// 128-value group through its stored running total — and the packed code
// section is scanned by generated branch-free kernels emitting selection
// bitmaps. Only matching (row, value) pairs are materialized; exception
// slots are judged on their true values. AggregateWhere goes further:
// its match bitmap is folded by the same kernel RunAggregate uses, which
// reads the codes of sparse groups one by one, unpacks denser groups
// once, and derives Count/Sum/Min/Max for PFOR from the matching codes
// plus the block base without widening codes to the element type. Raw
// and baseline frames decode-then-filter with the same output contract,
// and warmed sequential filtered scans allocate nothing.
//
// # Hot-block caching
//
// File-backed readers pay a read plus a CRC32-C verification per block
// fetch. SetBlockCache attaches a BlockCache — typically a BlockLRU, a
// sharded, byte-budgeted LRU over verified raw frames — under that
// path: hits return the frame with zero allocations, a cold block
// faulted by many goroutines is read and verified exactly once (the
// fill rides the per-block parse slot), and corrupt blocks are never
// admitted. Entries are keyed by a process-unique id assigned at
// attach, so under immutable containers eviction is the only
// invalidation. One BlockLRU may be shared by any number of readers;
// in-memory readers ignore the cache (their frames are already
// resident). FrameBytes exposes the same verified-raw-frame fetch the
// cache accelerates, for callers that ship frames instead of decoding
// them.
//
// # Multi-column predicates
//
// ColumnSet composes selection vectors across predicates and columns —
// the conjunctive step of the paper's RAM-CPU query pipeline. Columns
// sharing block geometry (same rows, same block boundaries; anything
// else is ErrColumnSetMismatch) scan as one unit: ScanWhereAll evaluates
// a []Pred conjunction per block by building a one-bit-per-row bitmap
// with the compare kernels of the most selective predicate (ordered by a
// zone-map estimate), intersecting it branch-free with each further
// predicate's matches — 32-row groups the running bitmap has emptied are
// skipped before a single code is extracted — and materializing only the
// rows that survive every predicate, from every column. AggregateWhereAll
// folds one column's survivors without delivering them;
// ParallelScanWhereAll runs blocks across the shared worker-pool engine
// with the ParallelScan delivery contract. Warmed sequential conjunctive
// scans allocate nothing.
//
// # Expression queries, grouping and joins
//
// Query[T] is the one-struct form of every ColumnSet scan — predicate
// (conjunction and/or expression tree), output columns, parallelism,
// ordering and degraded-mode options — executed by Run and
// RunAggregate; the ScanWhereAll-family entrypoints are thin wrappers
// over it, so existing []Pred call sites are unchanged. Expr generalizes
// the conjunction to an AND/OR tree of Range and In leaves (built with
// And, Or, Range, In), evaluated entirely at the selection-bitmap
// level: a disjunction is one word-wise union per 32 rows, AND branches
// prune at block granularity when any child's zone map excludes the
// block, OR branches only when every child's does, and nothing outside
// the final bitmap is ever decoded into a value. Inside an AND,
// children still run most-selective-first by zone-map estimate.
//
// On top of the expression scan sit three result-shaped operators.
// Project materializes the selected rows of chosen columns in one pass
// (the collecting form of Run). GroupAggregate groups in code space:
// on PDICT blocks the dictionary codes are the group keys, so each
// block contributes per-code accumulators and the dictionary is decoded
// once per block rather than once per row; results arrive sorted on the
// decoded key values. BuildJoin/JoinOn hash-join the selected rows of a
// probe column against a build-side key set — on PDICT blocks the hash
// table is probed once per dictionary entry, not once per row. All
// three accept the usual scan options (SkipCorrupt, ...), and
// FuzzExprScan differentially fuzzes the expression path against a
// scalar oracle.
//
// Unlike the internal packages, nothing here panics on bad input: invalid
// parameters and corrupt or truncated bytes surface as typed errors
// (ErrWidthOutOfRange, ErrBlockTooLarge, ErrCorruptSegment, ...).
//
// The patched codecs (PFOR, PFORDelta, PDict, None, Auto) all emit the
// Figure-3 segment layout of internal/segment and can each decode any
// segment frame regardless of which of them produced it. The baseline
// codecs (FOR, Dict, VByte) use a private frame layout and decode only
// their own output.
package zukowski
