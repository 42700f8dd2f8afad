//! The sorted-run file format.
//!
//! A run is a sequence of CRC-checked blocks, each holding a batch of
//! encoded rows in sort order:
//!
//! ```text
//! file   := FILE_MAGIC(u32) version(u32) block* end_block
//! block  := BLOCK_MAGIC(u32) row_count(u32) payload_len(u32) crc32(u32) payload
//! end    := block with row_count == 0 && payload_len == 0
//! ```
//!
//! Blocks target [`DEFAULT_BLOCK_BYTES`] of payload, so spills hit the
//! backend in large sequential requests — the only access pattern that is
//! affordable against the paper's disaggregated storage service. Per-block
//! metadata (row count, byte size, last key) is retained in [`RunMeta`],
//! enabling the §4.1 merge optimizations: a reader can skip whole blocks
//! that an `OFFSET` clause or a cutoff key proves irrelevant.

use std::sync::Arc;

use histok_types::{Error, Result, Row, RowBatch, SortKey, SortOrder};

use crate::backend::{SpillReader, StorageBackend};
use crate::crc::crc32;
use crate::pipeline::SpillPipeline;
use crate::scheduler::IoSchedulerHandle;
use crate::stats::{IoStats, OverlapLedger};

/// Target payload bytes per block (64 KiB).
pub const DEFAULT_BLOCK_BYTES: usize = 64 * 1024;

pub(crate) const FILE_MAGIC: u32 = 0x4853_544B; // "HSTK"
pub(crate) const FILE_VERSION: u32 = 1;
pub(crate) const BLOCK_MAGIC: u32 = 0x424C_4B31; // "BLK1"
pub(crate) const BLOCK_HEADER_BYTES: usize = 16;

/// Decoded block-header fields: `(row_count, payload_len, crc32)`.
type BlockHeader = (u32, u32, u32);

/// Builds the 16-byte framing header for a sealed block payload.
pub(crate) fn encode_block_header(
    rows: u32,
    payload_len: u32,
    crc: u32,
) -> [u8; BLOCK_HEADER_BYTES] {
    let mut header = [0u8; BLOCK_HEADER_BYTES];
    header[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&rows.to_le_bytes());
    header[8..12].copy_from_slice(&payload_len.to_le_bytes());
    header[12..16].copy_from_slice(&crc.to_le_bytes());
    header
}

/// The end-of-run marker: an all-zero-count block header.
pub(crate) fn encode_end_marker() -> [u8; BLOCK_HEADER_BYTES] {
    encode_block_header(0, 0, 0)
}

/// A key interval restricting a range-scoped [`RunReader`]: rows in
/// `[lo, hi)` in output order, or `[lo, hi]` when `hi_inclusive` (used to
/// clip the final merge partition at a cutoff key, where ties survive).
/// `None` bounds are open ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange<K> {
    /// First key included (output order); `None` = from the start.
    pub lo: Option<K>,
    /// Upper bound; `None` = to the end of the run.
    pub hi: Option<K>,
    /// When true the upper bound itself is included (`[lo, hi]`).
    pub hi_inclusive: bool,
}

impl<K> KeyRange<K> {
    /// The unbounded range (reads the whole run).
    pub fn all() -> Self {
        KeyRange { lo: None, hi: None, hi_inclusive: false }
    }

    /// `[lo, hi)`: from `lo` (inclusive) up to but excluding `hi`.
    pub fn half_open(lo: Option<K>, hi: Option<K>) -> Self {
        KeyRange { lo, hi, hi_inclusive: false }
    }

    /// True if no bound is set.
    pub fn is_unbounded(&self) -> bool {
        self.lo.is_none() && self.hi.is_none()
    }
}

impl<K: Ord> KeyRange<K> {
    /// True if `key` lies inside the range under `order`.
    pub fn contains(&self, key: &K, order: SortOrder) -> bool {
        if let Some(lo) = &self.lo {
            if order.precedes(key, lo) {
                return false;
            }
        }
        match &self.hi {
            Some(hi) if self.hi_inclusive => !order.follows(key, hi),
            Some(hi) => order.precedes(key, hi),
            None => true,
        }
    }
}

/// Per-reader state of a range-scoped open (see [`RunReader::open_range`]).
struct RangeState<K> {
    range: KeyRange<K>,
    order: SortOrder,
    /// In-range blocks left to read; iteration ends (without touching the
    /// end marker) when this reaches zero.
    blocks_remaining: usize,
    /// True until the first in-range block has been decoded: only that
    /// block can hold rows preceding `lo`.
    trim_lo: bool,
}

/// Metadata of one block within a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta<K> {
    /// Rows in the block.
    pub rows: u32,
    /// Payload bytes (excluding the 16-byte header).
    pub payload_bytes: u32,
    /// The last (worst, in output order) key in the block.
    pub last_key: K,
}

/// Metadata of one finished sorted run.
#[derive(Debug, Clone)]
pub struct RunMeta<K> {
    /// Backend object name.
    pub name: String,
    /// Total rows in the run.
    pub rows: u64,
    /// Total bytes on storage (headers included).
    pub bytes: u64,
    /// First (best) key, `None` for an empty run.
    pub first_key: Option<K>,
    /// Last (worst) key, `None` for an empty run.
    pub last_key: Option<K>,
    /// Per-block index in file order.
    pub blocks: Vec<BlockMeta<K>>,
    /// Sort direction the rows were written in.
    pub order: SortOrder,
}

impl<K> RunMeta<K> {
    /// True if the run holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// Writes rows (already in sort order) into a run object.
///
/// The writer enforces the sort invariant: appending a row whose key sorts
/// before the previous one is an error, which catches run-generation bugs
/// at the earliest possible moment.
pub struct RunWriter<K: SortKey> {
    name: String,
    sink: BlockSink,
    order: SortOrder,
    block_target: usize,
    block_buf: Vec<u8>,
    rows_in_block: u32,
    blocks: Vec<BlockMeta<K>>,
    rows: u64,
    bytes: u64,
    first_key: Option<K>,
    /// Last key of the most recently *sealed* block, decoded once per block
    /// at flush time. The hot append path never clones a key: the previous
    /// row's key lives in `block_buf` (at `last_row_at`) and is only decoded
    /// when the normalized-prefix order check is inconclusive.
    boundary_key: Option<K>,
    /// Normalized prefix of the most recently appended key.
    last_prefix: u64,
    /// Byte offset in `block_buf` where the most recent row's encoding
    /// starts.
    last_row_at: usize,
    stats: IoStats,
    finished: bool,
}

/// Where sealed blocks go: either the calling thread CRCs and writes them
/// synchronously, or they are handed to a [`SpillPipeline`] on a shared
/// I/O pool (double-buffered, bounded backpressure — see `pipeline.rs`).
enum BlockSink {
    Sync(Box<dyn crate::backend::SpillWriter>),
    Pipelined(SpillPipeline),
}

impl<K: SortKey> RunWriter<K> {
    /// Starts a new run named `name` on `backend`.
    pub fn create(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
    ) -> Result<Self> {
        Self::with_io(backend, name, order, stats, DEFAULT_BLOCK_BYTES, None)
    }

    /// Starts a run with a custom block payload target (tests use small
    /// blocks to exercise the block machinery).
    pub fn with_block_bytes(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
        block_target: usize,
    ) -> Result<Self> {
        Self::with_io(backend, name, order, stats, block_target, None)
    }

    /// Starts a run with a custom block target. With a `pipeline` pool,
    /// sealed blocks are CRC'd and written by jobs on that pool while the
    /// caller keeps appending into the next one; without one, the caller
    /// writes each block synchronously.
    pub fn with_io(
        backend: &dyn StorageBackend,
        name: impl Into<String>,
        order: SortOrder,
        stats: IoStats,
        block_target: usize,
        pipeline: Option<IoSchedulerHandle>,
    ) -> Result<Self> {
        if block_target == 0 {
            return Err(Error::InvalidConfig("block target must be positive".into()));
        }
        let name = name.into();
        let mut writer = backend.create(&name)?;
        let mut header = Vec::with_capacity(8);
        header.extend_from_slice(&FILE_MAGIC.to_le_bytes());
        header.extend_from_slice(&FILE_VERSION.to_le_bytes());
        let sink = match pipeline {
            // The file header is written by the background side, so the
            // operator thread performs no storage request at all here.
            Some(handle) => BlockSink::Pipelined(SpillPipeline::spawn_scheduled(
                writer,
                header.clone(),
                stats.clone(),
                handle,
            )),
            None => {
                writer.write_all(&header)?;
                BlockSink::Sync(writer)
            }
        };
        Ok(RunWriter {
            name,
            sink,
            order,
            block_target,
            block_buf: Vec::with_capacity(block_target + 256),
            rows_in_block: 0,
            blocks: Vec::new(),
            rows: 0,
            bytes: header.len() as u64,
            first_key: None,
            boundary_key: None,
            last_prefix: 0,
            last_row_at: 0,
            stats,
            finished: false,
        })
    }

    /// Appends the next row. Keys must be non-decreasing in output order.
    pub fn append(&mut self, row: &Row<K>) -> Result<()> {
        self.append_with_prefix(row, row.key.norm_prefix())
    }

    /// Appends every row of `batch`, reusing the batch's pre-computed
    /// prefix column for the order checks — the batched merge path seals
    /// blocks without recomputing (or cloning) a single key.
    pub fn append_batch(&mut self, batch: &RowBatch<K>) -> Result<()> {
        for (row, &prefix) in batch.rows.iter().zip(&batch.prefixes) {
            self.append_with_prefix(row, prefix)?;
        }
        Ok(())
    }

    /// As [`RunWriter::append`], with the row's normalized prefix already
    /// in hand (batched callers carry it in their code column).
    #[inline]
    pub fn append_with_prefix(&mut self, row: &Row<K>, prefix: u64) -> Result<()> {
        if self.rows > 0 {
            self.check_order(row, prefix)?;
        } else {
            self.first_key = Some(row.key.clone());
        }
        self.last_prefix = prefix;
        self.last_row_at = self.block_buf.len();
        row.encode(&mut self.block_buf);
        self.rows_in_block += 1;
        self.rows += 1;
        if self.block_buf.len() >= self.block_target {
            self.flush_block()?;
        }
        Ok(())
    }

    /// The sort-invariant check: normalized-prefix comparison decides almost
    /// every append; the previous key is decoded from the block buffer only
    /// when the prefixes tie inconclusively (or to format an error).
    fn check_order(&self, row: &Row<K>, prefix: u64) -> Result<()> {
        let out_of_order = if prefix != self.last_prefix {
            // Differing normalized prefixes are decisive.
            match self.order {
                SortOrder::Ascending => prefix < self.last_prefix,
                SortOrder::Descending => prefix > self.last_prefix,
            }
        } else if K::norm_prefix_is_exact() {
            false // equal prefixes ⇒ equal keys ⇒ tie, which is allowed
        } else {
            match self.decode_last_key() {
                Some(last) => self.order.precedes(&row.key, &last),
                None => false,
            }
        };
        if out_of_order {
            return Err(Error::InvalidConfig(format!(
                "rows appended out of order: {:?} after {:?}",
                row.key,
                self.decode_last_key()
            )));
        }
        Ok(())
    }

    /// Decodes the most recently appended key: from the block buffer if the
    /// current block holds rows, else the sealed-block boundary key.
    fn decode_last_key(&self) -> Option<K> {
        if self.rows_in_block > 0 {
            let mut slice = &self.block_buf[self.last_row_at..];
            Row::<K>::decode(&mut slice).ok().map(|r| r.key)
        } else {
            self.boundary_key.clone()
        }
    }

    fn flush_block(&mut self) -> Result<()> {
        if self.rows_in_block == 0 {
            return Ok(());
        }
        // The block's last key is decoded once here, at seal time — the
        // per-row append path only recorded where its encoding starts.
        self.boundary_key = Some(
            self.decode_last_key()
                .ok_or_else(|| Error::Corrupt("undecodable row in write buffer".into()))?,
        );
        let payload_len = self.block_buf.len() as u32;
        match &mut self.sink {
            BlockSink::Sync(writer) => {
                let crc = crc32(&self.block_buf);
                let header = encode_block_header(self.rows_in_block, payload_len, crc);
                // One Instant pair around the whole block request — never
                // per row. The compute thread is blocked for the duration,
                // so the elapsed time is also I/O wait.
                let started = std::time::Instant::now();
                writer.write_all(&header)?;
                writer.write_all(&self.block_buf)?;
                let elapsed = started.elapsed();
                self.stats.record_write_timed(
                    self.rows_in_block as u64,
                    BLOCK_HEADER_BYTES as u64 + payload_len as u64,
                    elapsed,
                );
                self.stats.record_io_wait(elapsed);
            }
            BlockSink::Pipelined(pipeline) => {
                // Hand the sealed payload to the pipeline (its pool job
                // CRCs, frames, writes, and books the stats) and start
                // filling a fresh buffer. Blocks only when ≥2 blocks are in
                // flight.
                let payload = std::mem::replace(
                    &mut self.block_buf,
                    Vec::with_capacity(self.block_target + 256),
                );
                pipeline.write_block(self.rows_in_block, payload)?;
            }
        }
        self.bytes += BLOCK_HEADER_BYTES as u64 + payload_len as u64;
        self.blocks.push(BlockMeta {
            rows: self.rows_in_block,
            payload_bytes: payload_len,
            last_key: self.boundary_key.clone().expect("non-empty block implies a last key"),
        });
        self.block_buf.clear();
        self.rows_in_block = 0;
        self.last_row_at = 0;
        Ok(())
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The backend object name this writer is filling (callers use it to
    /// clean up a half-written object after a mid-merge error).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The last appended key, if any — decoded from the write buffer on
    /// demand; the writer keeps no per-row key copy.
    pub fn last_key(&self) -> Option<K> {
        if self.rows == 0 {
            return None;
        }
        self.decode_last_key()
    }

    /// Seals the run and returns its metadata.
    pub fn finish(mut self) -> Result<RunMeta<K>> {
        self.flush_block()?;
        match &mut self.sink {
            BlockSink::Sync(writer) => {
                // End marker: an all-zero block header.
                writer.write_all(&encode_end_marker())?;
                writer.finish()?;
            }
            BlockSink::Pipelined(pipeline) => {
                // The pipeline writes the end marker, finishes the backend
                // object, waits out its jobs, and surfaces any latched
                // error.
                pipeline.finish()?;
            }
        }
        self.bytes += BLOCK_HEADER_BYTES as u64;
        self.stats.record_run_created();
        self.finished = true;
        Ok(RunMeta {
            name: self.name.clone(),
            rows: self.rows,
            bytes: self.bytes,
            first_key: self.first_key.clone(),
            last_key: self.boundary_key.clone(),
            blocks: std::mem::take(&mut self.blocks),
            order: self.order,
        })
    }
}

/// Streams rows back out of a finished run in sort order.
///
/// Implements `Iterator<Item = Result<Row<K>>>`. Blocks are CRC-verified as
/// they are decoded; [`RunReader::skip_rows`] skips whole blocks without
/// reading their payload where possible.
pub struct RunReader<K: SortKey> {
    reader: Box<dyn SpillReader>,
    stats: IoStats,
    /// Decoded rows of the current block, yielded front to back.
    current: std::collections::VecDeque<Row<K>>,
    /// Normalized prefix of each buffered row, aligned with `current` —
    /// computed once at decode time and handed out with the batch.
    current_prefixes: std::collections::VecDeque<u64>,
    done: bool,
    rows_yielded: u64,
    /// `Some` when the reader is driven by background prefetch: its
    /// block-read time is then booked into the component's overlap ledger
    /// (settled as overlapped I/O at shutdown) instead of compute-thread
    /// I/O wait.
    ledger: Option<Arc<OverlapLedger>>,
    /// `Some` for a range-scoped reader (see [`RunReader::open_range`]).
    range: Option<RangeState<K>>,
}

impl<K: SortKey> RunReader<K> {
    /// Opens `meta`'s object on `backend`.
    pub fn open(backend: &dyn StorageBackend, meta: &RunMeta<K>, stats: IoStats) -> Result<Self> {
        Self::open_named(backend, &meta.name, stats)
    }

    /// Opens a run by object name (the file is self-delimiting).
    pub fn open_named(backend: &dyn StorageBackend, name: &str, stats: IoStats) -> Result<Self> {
        let mut reader = backend.open(name)?;
        let mut header = [0u8; 8];
        reader.read_exact(&mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let version = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if magic != FILE_MAGIC {
            return Err(Error::Corrupt(format!("bad run magic {magic:#x} in {name}")));
        }
        if version != FILE_VERSION {
            return Err(Error::Corrupt(format!("unsupported run version {version} in {name}")));
        }
        Ok(RunReader {
            reader,
            stats,
            current: std::collections::VecDeque::new(),
            current_prefixes: std::collections::VecDeque::new(),
            done: false,
            rows_yielded: 0,
            ledger: None,
            range: None,
        })
    }

    /// Opens `meta`'s object scoped to the rows inside `range`.
    ///
    /// The per-block `last_key` index decides which blocks can contain
    /// in-range rows: blocks wholly before `lo` are skipped with **one**
    /// byte-offset seek (never read, booked as `blocks_skipped` /
    /// `bytes_skipped`), and blocks wholly past the upper bound are booked
    /// as skipped at open time and never visited — iteration ends after the
    /// last in-range block without reading the end marker. Rows of the
    /// first and last in-range block that fall outside the bounds are
    /// dropped after decode (a boundary block may straddle the range).
    ///
    /// Composes with [`crate::PrefetchingRunReader`]: the bounds are
    /// enforced inside the block-load path, so prefetch starts at the seek
    /// point and stops at the range end.
    pub fn open_range(
        backend: &dyn StorageBackend,
        meta: &RunMeta<K>,
        stats: IoStats,
        range: KeyRange<K>,
    ) -> Result<Self> {
        let mut reader = Self::open(backend, meta, stats)?;
        if range.is_unbounded() {
            return Ok(reader);
        }
        let order = meta.order;
        let blocks = &meta.blocks;
        if blocks.is_empty() {
            reader.done = true;
            return Ok(reader);
        }
        // First block that can hold a row ≥ lo: every earlier block has
        // last_key < lo, and a block's rows all sort at or before its last
        // key, so those blocks are wholly out of range.
        let start = match &range.lo {
            Some(lo) => blocks.partition_point(|b| order.precedes(&b.last_key, lo)),
            None => 0,
        };
        // Last block that can hold an in-range row: the first whose
        // last_key reaches the upper bound (it may straddle). Every later
        // block's rows sort at or after that key, hence past the bound.
        let stop = match &range.hi {
            Some(hi) if range.hi_inclusive => {
                blocks.partition_point(|b| !order.follows(&b.last_key, hi)).min(blocks.len() - 1)
            }
            Some(hi) => {
                blocks.partition_point(|b| order.precedes(&b.last_key, hi)).min(blocks.len() - 1)
            }
            None => blocks.len() - 1,
        };
        if start >= blocks.len() || start > stop {
            // The whole run sorts outside the range: nothing to read.
            for b in blocks {
                reader.stats.record_block_skip(u64::from(b.payload_bytes));
            }
            reader.done = true;
            return Ok(reader);
        }
        // Skip the prefix in one byte-offset seek; each skipped block is
        // booked individually (it was proven irrelevant by the index).
        let mut prefix_bytes = 0u64;
        for b in &blocks[..start] {
            prefix_bytes += BLOCK_HEADER_BYTES as u64 + u64::from(b.payload_bytes);
            reader.stats.record_block_skip(u64::from(b.payload_bytes));
        }
        if prefix_bytes > 0 {
            reader.reader.skip(prefix_bytes)?;
        }
        // The suffix past the last in-range block is never visited.
        for b in &blocks[stop + 1..] {
            reader.stats.record_block_skip(u64::from(b.payload_bytes));
        }
        reader.range =
            Some(RangeState { range, order, blocks_remaining: stop - start + 1, trim_lo: true });
        Ok(reader)
    }

    /// Marks the reader as driven by background prefetch: its block-read
    /// time is booked into `ledger` (and settled as overlapped I/O when
    /// the owning component shuts down) instead of compute-side I/O wait.
    pub(crate) fn set_ledger(&mut self, ledger: Option<Arc<OverlapLedger>>) {
        self.ledger = ledger;
    }

    /// The shared I/O stats this reader records into.
    pub(crate) fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Reads the next block header; `Ok(None)` at the end marker. Also
    /// returns the time the 16-byte header read took, so callers can fold
    /// it into the block's timed span (the recorded byte count includes
    /// the header, so the measured span must too).
    fn read_block_header(&mut self) -> Result<(Option<BlockHeader>, std::time::Duration)> {
        let mut header = [0u8; BLOCK_HEADER_BYTES];
        let started = std::time::Instant::now();
        self.reader.read_exact(&mut header)?;
        let elapsed = started.elapsed();
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if magic != BLOCK_MAGIC {
            return Err(Error::Corrupt(format!("bad block magic {magic:#x}")));
        }
        let rows = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let payload_len = u32::from_le_bytes(header[8..12].try_into().unwrap());
        let crc = u32::from_le_bytes(header[12..16].try_into().unwrap());
        if rows == 0 && payload_len == 0 {
            return Ok((None, elapsed));
        }
        Ok((Some((rows, payload_len, crc)), elapsed))
    }

    /// Reads, verifies and decodes one block (whose header was already
    /// consumed) into `self.current`. `header_elapsed` is the time the
    /// header read took; the recorded span covers header + payload, exactly
    /// matching the recorded byte count.
    fn decode_block(
        &mut self,
        rows: u32,
        payload_len: u32,
        crc: u32,
        header_elapsed: std::time::Duration,
    ) -> Result<()> {
        let mut payload = vec![0u8; payload_len as usize];
        // One Instant pair around the whole block request — never per row.
        let started = std::time::Instant::now();
        self.reader.read_exact(&mut payload)?;
        let elapsed = header_elapsed + started.elapsed();
        if crc32(&payload) != crc {
            return Err(Error::Corrupt("block CRC mismatch".into()));
        }
        self.stats.record_read_timed(
            rows as u64,
            BLOCK_HEADER_BYTES as u64 + payload_len as u64,
            elapsed,
        );
        match &self.ledger {
            Some(ledger) => ledger.record_busy(elapsed),
            None => self.stats.record_io_wait(elapsed),
        }
        // Decode out of one refcounted buffer: every row's payload becomes
        // a zero-copy slice of the block allocation instead of a fresh
        // per-row `Vec` (`Buf for &[u8]` copies; `Buf for Bytes` does not).
        let mut buf = bytes::Bytes::from(payload);
        self.current.reserve(rows as usize);
        self.current_prefixes.reserve(rows as usize);
        for _ in 0..rows {
            let row: Row<K> = Row::decode(&mut buf)?;
            self.current_prefixes.push_back(row.key.norm_prefix());
            self.current.push_back(row);
        }
        if !buf.is_empty() {
            return Err(Error::Corrupt("trailing bytes after last row in block".into()));
        }
        self.trim_to_range();
        Ok(())
    }

    /// Drops decoded rows outside the active range. Only the first in-range
    /// block can hold rows preceding `lo` and only the last one rows past
    /// the upper bound (rows are non-decreasing in output order), but the
    /// trims are cheap no-ops on interior blocks.
    fn trim_to_range(&mut self) {
        let Some(state) = &mut self.range else { return };
        state.blocks_remaining = state.blocks_remaining.saturating_sub(1);
        if state.trim_lo {
            state.trim_lo = false;
            if let Some(lo) = &state.range.lo {
                while self.current.front().is_some_and(|r| state.order.precedes(&r.key, lo)) {
                    self.current.pop_front();
                    self.current_prefixes.pop_front();
                }
            }
        }
        if let Some(hi) = &state.range.hi {
            let out = |key: &K| {
                if state.range.hi_inclusive {
                    state.order.follows(key, hi)
                } else {
                    !state.order.precedes(key, hi)
                }
            };
            while self.current.back().is_some_and(|r| out(&r.key)) {
                self.current.pop_back();
                self.current_prefixes.pop_back();
            }
        }
    }

    /// True when a range-scoped reader has consumed its last in-range
    /// block; iteration must stop without touching the file further.
    fn range_exhausted(&self) -> bool {
        self.range.as_ref().is_some_and(|s| s.blocks_remaining == 0)
    }

    fn load_next_block(&mut self) -> Result<bool> {
        debug_assert!(self.current.is_empty());
        if self.range_exhausted() {
            self.done = true;
            return Ok(false);
        }
        let (header, header_elapsed) = self.read_block_header()?;
        let Some((rows, payload_len, crc)) = header else {
            self.done = true;
            return Ok(false);
        };
        self.decode_block(rows, payload_len, crc, header_elapsed)?;
        Ok(true)
    }

    /// Drains the buffered rows and their prefix column into one batch.
    fn take_batch(&mut self) -> RowBatch<K> {
        let rows = Vec::from(std::mem::take(&mut self.current));
        let prefixes = Vec::from(std::mem::take(&mut self.current_prefixes));
        self.rows_yielded += rows.len() as u64;
        RowBatch { rows, prefixes }
    }

    /// Drains the buffered rows, or reads and decodes the next block and
    /// returns it as one batch (rows plus prefix column); `Ok(None)` at end
    /// of run. This is both the merge loop's batched pull and the unit of
    /// work one prefetch job decodes per step.
    pub fn next_batch(&mut self) -> Result<Option<RowBatch<K>>> {
        if !self.current.is_empty() {
            return Ok(Some(self.take_batch()));
        }
        if self.done {
            return Ok(None);
        }
        if self.load_next_block()? {
            Ok(Some(self.take_batch()))
        } else {
            Ok(None)
        }
    }

    /// Skips the next `n` rows, avoiding payload reads for whole skipped
    /// blocks (used by `OFFSET` positioning, §4.1).
    pub fn skip_rows(&mut self, mut n: u64) -> Result<()> {
        // First drain buffered rows.
        while n > 0 {
            if let Some(_row) = self.current.pop_front() {
                self.current_prefixes.pop_front();
                self.rows_yielded += 1;
                n -= 1;
                continue;
            }
            if self.done || self.range_exhausted() {
                self.done = true;
                return Err(Error::Corrupt("skip past end of run".into()));
            }
            // Peek the next block header; skip whole blocks without decode.
            let (header, header_elapsed) = self.read_block_header()?;
            let Some((rows, payload_len, crc)) = header else {
                self.done = true;
                return Err(Error::Corrupt("skip past end of run".into()));
            };
            // A range-scoped reader must always decode: the header's row
            // count includes rows outside the range, so the whole-block
            // shortcut would over-count the skip.
            if self.range.is_none() && u64::from(rows) <= n {
                // Whole-block skip: the payload is never read, which is the
                // point — book it in the skip counters, not as a read.
                self.reader.skip(payload_len as u64)?;
                self.stats.record_block_skip(payload_len as u64);
                self.rows_yielded += u64::from(rows);
                n -= u64::from(rows);
            } else {
                // Partially-skipped block: decode it, with the same timed
                // span / byte-count pairing as a normal block load.
                self.decode_block(rows, payload_len, crc, header_elapsed)?;
            }
        }
        Ok(())
    }

    /// Rows yielded (or skipped) so far.
    pub fn rows_yielded(&self) -> u64 {
        self.rows_yielded
    }
}

impl<K: SortKey> Iterator for RunReader<K> {
    type Item = Result<Row<K>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(row) = self.current.pop_front() {
                self.current_prefixes.pop_front();
                self.rows_yielded += 1;
                return Some(Ok(row));
            }
            if self.done {
                return None;
            }
            match self.load_next_block() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBackend;
    use histok_types::F64Key;

    fn write_run(
        backend: &MemoryBackend,
        name: &str,
        keys: &[u64],
        block_bytes: usize,
    ) -> RunMeta<u64> {
        let stats = IoStats::new();
        let mut w =
            RunWriter::with_block_bytes(backend, name, SortOrder::Ascending, stats, block_bytes)
                .unwrap();
        for &k in keys {
            w.append(&Row::new(k, vec![k as u8; 3])).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_single_block() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "r1", &[1, 2, 3, 4, 5], DEFAULT_BLOCK_BYTES);
        assert_eq!(meta.rows, 5);
        assert_eq!(meta.first_key, Some(1));
        assert_eq!(meta.last_key, Some(5));
        assert_eq!(meta.blocks.len(), 1);

        let stats = IoStats::new();
        let reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
        let keys: Vec<u64> = reader.map(|r| r.unwrap().key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.snapshot().rows_read, 5);
    }

    #[test]
    fn roundtrip_many_blocks() {
        let be = MemoryBackend::new();
        let keys: Vec<u64> = (0..1000).collect();
        let meta = write_run(&be, "r2", &keys, 64); // tiny blocks
        assert!(meta.blocks.len() > 10, "expected many blocks, got {}", meta.blocks.len());
        assert_eq!(meta.blocks.iter().map(|b| b.rows as u64).sum::<u64>(), 1000);

        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let got: Vec<u64> = reader.map(|r| r.unwrap().key).collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn empty_run_roundtrips() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "empty", &[], DEFAULT_BLOCK_BYTES);
        assert!(meta.is_empty());
        assert_eq!(meta.first_key, None);
        let mut reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        assert!(reader.next().is_none());
    }

    #[test]
    fn out_of_order_append_rejected() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "bad", SortOrder::Ascending, IoStats::new()).unwrap();
        w.append(&Row::key_only(10)).unwrap();
        w.append(&Row::key_only(10)).unwrap(); // ties allowed
        assert!(w.append(&Row::key_only(9)).is_err());
    }

    #[test]
    fn descending_runs_enforce_descending_order() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "desc", SortOrder::Descending, IoStats::new()).unwrap();
        w.append(&Row::key_only(10)).unwrap();
        w.append(&Row::key_only(5)).unwrap();
        assert!(w.append(&Row::key_only(6)).is_err());
    }

    #[test]
    fn order_check_decodes_previous_key_on_shared_prefixes() {
        use histok_types::BytesKey;
        // All keys share a >8-byte prefix, so the normalized-prefix fast
        // path is inconclusive and the previous key must be decoded from
        // the write buffer.
        let be = MemoryBackend::new();
        let key = |suffix: &str| BytesKey::new(format!("shared-long-prefix-{suffix}"));
        let mut w: RunWriter<BytesKey> =
            RunWriter::with_block_bytes(&be, "bk", SortOrder::Ascending, IoStats::new(), 96)
                .unwrap();
        w.append(&Row::key_only(key("aaa"))).unwrap();
        w.append(&Row::key_only(key("aaa"))).unwrap(); // ties allowed
        w.append(&Row::key_only(key("bbb"))).unwrap();
        assert_eq!(w.last_key(), Some(key("bbb")));
        assert!(w.append(&Row::key_only(key("abc"))).is_err());
        // The check still works across a block seal (previous key no longer
        // in the buffer): append until a block flushes, then go backwards.
        let mut w2: RunWriter<BytesKey> =
            RunWriter::with_block_bytes(&be, "bk2", SortOrder::Ascending, IoStats::new(), 64)
                .unwrap();
        for i in 0..10 {
            w2.append(&Row::key_only(key(&format!("x{i:03}")))).unwrap();
        }
        assert!(w2.append(&Row::key_only(key("x000"))).is_err());
        let meta = w2.finish().unwrap();
        assert_eq!(meta.last_key, Some(key("x009")));
        assert_eq!(meta.blocks.last().unwrap().last_key, key("x009"));
    }

    #[test]
    fn stats_count_rows_and_runs() {
        let be = MemoryBackend::new();
        let stats = IoStats::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "s", SortOrder::Ascending, stats.clone()).unwrap();
        for k in 0..100u64 {
            w.append(&Row::key_only(k)).unwrap();
        }
        let meta = w.finish().unwrap();
        let snap = stats.snapshot();
        assert_eq!(snap.runs_created, 1);
        assert_eq!(snap.rows_written, 100);
        assert_eq!(snap.bytes_written + 8 + 16, meta.bytes); // + file header + end marker
    }

    #[test]
    fn skip_rows_jumps_blocks() {
        let be = MemoryBackend::new();
        let keys: Vec<u64> = (0..500).collect();
        let meta = write_run(&be, "skip", &keys, 128);
        let stats = IoStats::new();
        let mut reader = RunReader::open(&be, &meta, stats.clone()).unwrap();
        reader.skip_rows(400).unwrap();
        let rest: Vec<u64> = reader.by_ref().map(|r| r.unwrap().key).collect();
        assert_eq!(rest, (400..500).collect::<Vec<_>>());
        // Whole skipped blocks were not counted as reads.
        assert!(stats.snapshot().rows_read < 500);
        assert_eq!(reader.rows_yielded(), 500);
    }

    #[test]
    fn skip_past_end_is_an_error() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "short", &[1, 2, 3], DEFAULT_BLOCK_BYTES);
        let mut reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        assert!(reader.skip_rows(4).is_err());
    }

    #[test]
    fn corrupt_payload_detected_by_crc() {
        let be = MemoryBackend::new();
        let meta = write_run(&be, "c", &(0..50).collect::<Vec<_>>(), DEFAULT_BLOCK_BYTES);
        // Corrupt one payload byte by rewriting the object through a fresh
        // writer with a flipped byte.
        let mut reader = be.open(&meta.name).unwrap();
        let mut all = vec![0u8; meta.bytes as usize];
        reader.read_exact(&mut all).unwrap();
        all[8 + BLOCK_HEADER_BYTES + 3] ^= 0xFF; // inside first block payload
        let mut w = be.create(&meta.name).unwrap();
        w.write_all(&all).unwrap();
        w.finish().unwrap();

        let mut r = RunReader::<u64>::open(&be, &meta, IoStats::new()).unwrap();
        let first = r.next().unwrap();
        assert!(matches!(first, Err(Error::Corrupt(_))));
        assert!(r.next().is_none(), "reader fuses after an error");
    }

    #[test]
    fn bad_magic_rejected() {
        let be = MemoryBackend::new();
        let mut w = be.create("junk").unwrap();
        w.write_all(&[0u8; 64]).unwrap();
        w.finish().unwrap();
        assert!(RunReader::<u64>::open_named(&be, "junk", IoStats::new()).is_err());
    }

    #[test]
    fn f64_keys_flow_through_runs() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<F64Key> =
            RunWriter::create(&be, "f", SortOrder::Ascending, IoStats::new()).unwrap();
        for i in 0..10 {
            w.append(&Row::key_only(F64Key(i as f64 / 10.0))).unwrap();
        }
        let meta = w.finish().unwrap();
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        let keys: Vec<f64> = reader.map(|r| r.unwrap().key.get()).collect();
        assert_eq!(keys.len(), 10);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn payloads_are_preserved() {
        let be = MemoryBackend::new();
        let mut w: RunWriter<u64> =
            RunWriter::create(&be, "p", SortOrder::Ascending, IoStats::new()).unwrap();
        for k in 0..20u64 {
            w.append(&Row::new(k, format!("payload-{k}").into_bytes())).unwrap();
        }
        let meta = w.finish().unwrap();
        let reader = RunReader::open(&be, &meta, IoStats::new()).unwrap();
        for (i, row) in reader.enumerate() {
            let row = row.unwrap();
            assert_eq!(row.payload, format!("payload-{i}").as_bytes());
        }
    }
}
