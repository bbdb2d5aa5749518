//! Memory budgeting and spill files for larger-than-memory operators.
//!
//! [`MemoryTracker`] is a shared byte budget: stateful operators
//! ([`HashAggregate`](crate::HashAggregate), [`HashJoin`](crate::HashJoin))
//! register the approximate bytes they hold and consult [`
//! MemoryTracker::over_budget`] at batch boundaries. The bytes are held by
//! the tables themselves: each group table and join build table owns a
//! [`Reservation`] — the in-memory ones and each partition's that a spill
//! reads back alike — which gives its bytes back when the table drains or
//! goes, so no operator releases by hand. When the budget is exceeded they
//! *spill*: accumulated state is hash-partitioned by key into temp files
//! (the wire row codec is the on-disk format) and merged back
//! partition-by-partition, so peak memory is bounded by one partition
//! instead of the whole working set. One tracker is shared by every operator
//! of a query — or of a whole service — so 64 concurrent clients degrade
//! into spilling instead of OOMing. See DESIGN.md §11.
//!
//! Spill files live under the system temp directory as
//! `csq-spill-<pid>-<seq>.bin`, a sequence of length-prefixed frames each
//! holding one wire-encoded row chunk. A partition creates its file with
//! its first row, so one that receives none costs no file. They are deleted
//! on drop and never synced; a crash leaves them to the OS temp cleaner.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use csq_common::{codec, CsqError, Result, Row};

/// Number of spill partitions: accumulated state is split by key hash so a
/// merge pass holds ~1/16th of the working set.
pub const SPILL_PARTITIONS: usize = 16;

/// Hard cap on one spill frame's decoded size (a frame is written as one
/// row chunk, far below this; the cap bounds allocation if a file is
/// corrupted or truncated under us).
const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// A shared byte budget for stateful operators.
///
/// Accounting is approximate (row wire sizes plus per-entry overhead) and
/// advisory: operators keep running past the budget until their next batch
/// boundary, then spill. `unlimited()` disables spilling entirely. Bytes
/// are registered only through a table's [`Reservation`].
#[derive(Debug)]
pub struct MemoryTracker {
    budget: usize,
    used: AtomicUsize,
    /// Times any operator crossed the budget and spilled (observability).
    spills: AtomicUsize,
}

impl MemoryTracker {
    /// A tracker with a byte budget.
    pub fn new(budget: usize) -> Arc<MemoryTracker> {
        Arc::new(MemoryTracker {
            budget,
            used: AtomicUsize::new(0),
            spills: AtomicUsize::new(0),
        })
    }

    /// A tracker that never triggers spilling.
    pub fn unlimited() -> Arc<MemoryTracker> {
        MemoryTracker::new(usize::MAX)
    }

    /// Bytes currently registered.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// True when registered state exceeds the budget.
    pub fn over_budget(&self) -> bool {
        self.used.load(Ordering::Relaxed) > self.budget
    }

    /// Record one spill event.
    pub fn record_spill(&self) {
        self.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// Spill events since creation.
    pub fn spill_count(&self) -> usize {
        self.spills.load(Ordering::Relaxed)
    }
}

/// The bytes one table holds against a [`MemoryTracker`], given back when
/// the reservation is cleared or dropped: a table returns what it
/// registered however it goes — drained, spilled, failed or abandoned. A
/// reservation gives back only what it took, so `used` never underflows.
pub(crate) struct Reservation {
    tracker: Arc<MemoryTracker>,
    bytes: usize,
}

impl Reservation {
    pub(crate) fn new(tracker: &Arc<MemoryTracker>) -> Reservation {
        Reservation {
            tracker: tracker.clone(),
            bytes: 0,
        }
    }

    /// Register `bytes` more.
    pub(crate) fn grow(&mut self, bytes: usize) {
        self.bytes += bytes;
        self.tracker.used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Give every registered byte back.
    pub(crate) fn clear(&mut self) {
        let bytes = std::mem::take(&mut self.bytes);
        self.tracker.used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.clear();
    }
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

fn spill_path() -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("csq-spill-{}-{}.bin", std::process::id(), seq))
}

fn io_err(ctx: &str, e: std::io::Error) -> CsqError {
    CsqError::Exec(format!("spill {ctx}: {e}"))
}

/// A spill file's path; the file is deleted (best effort — a failure leaves
/// it to the OS temp cleaner) when this goes.
struct SpillPath(PathBuf);

impl Drop for SpillPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One spill partition being written: length-prefixed frames of wire-encoded
/// row chunks. Its file is created by the first non-empty write, so a
/// partition that receives no rows touches no file; the file is deleted
/// when the writer (or the reader it turns into) is dropped.
#[derive(Default)]
pub struct SpillFile {
    file: Option<(BufWriter<File>, SpillPath)>,
    rows: usize,
    buf: Vec<u8>,
}

impl SpillFile {
    /// Append one frame of rows.
    pub fn write_rows(&mut self, rows: &[Row]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let (w, _) = match &mut self.file {
            Some(file) => file,
            None => {
                let path = SpillPath(spill_path());
                let file = OpenOptions::new()
                    .create_new(true)
                    .write(true)
                    .open(&path.0)
                    .map_err(|e| io_err("create", e))?;
                self.file.insert((BufWriter::new(file), path))
            }
        };
        self.buf.clear();
        codec::encode_rows(rows, &mut self.buf);
        let len = self.buf.len() as u32;
        w.write_all(&len.to_le_bytes())
            .and_then(|()| w.write_all(&self.buf))
            .map_err(|e| io_err("write", e))?;
        self.rows += rows.len();
        Ok(())
    }

    /// Rows written so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Seal the partition and reopen it for reading. The file is only ever
    /// read back by this process and is deleted on drop, so it is flushed
    /// but not synced.
    pub fn into_reader(self) -> Result<SpillReader> {
        let Some((writer, path)) = self.file else {
            return Ok(SpillReader::default());
        };
        writer
            .into_inner()
            .map_err(|e| io_err("flush", e.into_error()))?;
        let file = File::open(&path.0).map_err(|e| io_err("reopen", e))?;
        Ok(SpillReader {
            file: Some((BufReader::new(file), path)),
            buf: Vec::new(),
        })
    }
}

/// Reads a sealed spill partition frame by frame (bounded memory: one frame
/// at a time). Deletes the backing file on drop; a partition that never
/// received a row has none and reads as empty.
#[derive(Default)]
pub struct SpillReader {
    file: Option<(BufReader<File>, SpillPath)>,
    buf: Vec<u8>,
}

impl SpillReader {
    /// The next frame of rows, or `None` at end of file.
    pub fn next_frame(&mut self) -> Result<Option<Vec<Row>>> {
        let Some((reader, _)) = &mut self.file else {
            return Ok(None);
        };
        let mut len_bytes = [0u8; 4];
        match reader.read_exact(&mut len_bytes) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(io_err("read frame length", e)),
        }
        let len = u32::from_le_bytes(len_bytes);
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(CsqError::Exec(format!(
                "spill frame length {len} out of bounds (corrupt spill file?)"
            )));
        }
        self.buf.clear();
        self.buf.resize(len as usize, 0);
        reader
            .read_exact(&mut self.buf)
            .map_err(|e| io_err("read frame", e))?;
        codec::decode_rows(&self.buf).map(Some)
    }

    /// Drain every remaining frame into one vector (used when a whole
    /// partition is known to fit in memory, e.g. a build-side partition).
    pub fn read_all(&mut self) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        while let Some(frame) = self.next_frame()? {
            out.extend(frame);
        }
        Ok(out)
    }
}

/// Estimated in-memory overhead per tracked hash-table entry beyond the row
/// payload (hash bucket, Vec header, AggState enum). Deliberately rough —
/// the budget is advisory and errs toward spilling early.
pub const ENTRY_OVERHEAD: usize = 48;

/// [`SPILL_PARTITIONS`] new spill partitions (no file is created until a
/// partition receives rows).
pub fn spill_partitions() -> Vec<SpillFile> {
    (0..SPILL_PARTITIONS)
        .map(|_| SpillFile::default())
        .collect()
}

/// Partition a set of spill files: write `rows` split by the hash of the
/// row's `key` columns, each partition's in their order.
pub fn partition_rows(
    parts: &mut [SpillFile],
    key: Option<&[usize]>,
    rows: Vec<Row>,
    scratch: &mut Vec<Vec<Row>>,
) -> Result<()> {
    scratch.iter_mut().for_each(Vec::clear);
    scratch.resize(parts.len(), Vec::new());
    for r in rows {
        let p = r.partition_of(key, parts.len());
        scratch[p].push(r);
    }
    for (part, chunk) in parts.iter_mut().zip(scratch.iter()) {
        part.write_rows(chunk)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::from(format!("v{i}"))])
    }

    fn path(f: &SpillFile) -> Option<PathBuf> {
        f.file.as_ref().map(|(_, path)| path.0.clone())
    }

    #[test]
    fn spill_roundtrip_and_cleanup() {
        let mut f = SpillFile::default();
        let rows: Vec<Row> = (0..100).map(row).collect();
        f.write_rows(&rows[..50]).unwrap();
        f.write_rows(&rows[50..]).unwrap();
        assert_eq!(f.rows(), 100);
        let path = path(&f).unwrap();
        assert!(path.exists());
        let mut r = f.into_reader().unwrap();
        let back = r.read_all().unwrap();
        assert_eq!(back, rows);
        drop(r);
        assert!(!path.exists(), "spill file must be deleted on drop");
    }

    #[test]
    fn writer_drop_removes_file() {
        let mut f = SpillFile::default();
        f.write_rows(&[row(1)]).unwrap();
        let path = path(&f).unwrap();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn a_partition_with_no_rows_leaves_no_file() {
        let mut f = SpillFile::default();
        f.write_rows(&[]).unwrap();
        assert_eq!(path(&f), None, "no rows, no file");
        let mut r = f.into_reader().unwrap();
        assert!(r.file.is_none());
        assert_eq!(r.next_frame().unwrap(), None);
        assert!(r.read_all().unwrap().is_empty());
    }

    #[test]
    fn partitioning_is_key_stable() {
        let mut parts: Vec<SpillFile> = (0..4).map(|_| SpillFile::default()).collect();
        let rows: Vec<Row> = (0..64).map(|i| row(i % 8)).collect();
        let mut scratch = Vec::new();
        partition_rows(&mut parts, Some(&[0]), rows, &mut scratch).unwrap();
        let mut total = 0;
        for p in parts {
            let mut r = p.into_reader().unwrap();
            let rows = r.read_all().unwrap();
            total += rows.len();
            // All copies of one key land in the same partition.
            let mut keys: Vec<i64> = rows
                .iter()
                .map(|r| match r.value(0) {
                    Value::Int(i) => *i,
                    _ => unreachable!(),
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            for k in keys {
                assert_eq!(
                    rows.iter()
                        .filter(|r| matches!(r.value(0), Value::Int(i) if *i == k))
                        .count(),
                    8
                );
            }
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn tracker_budget_arithmetic() {
        let t = MemoryTracker::new(1000);
        let (mut a, mut b) = (Reservation::new(&t), Reservation::new(&t));
        assert!(!t.over_budget());
        a.grow(600);
        b.grow(600);
        assert!(t.over_budget());
        a.clear();
        assert!(!t.over_budget());
        a.clear();
        assert_eq!(t.used(), 600, "a reservation gives back only what it took");
        drop(b);
        assert_eq!(t.used(), 0);
    }
}
