//! # csq-storage — columnar segment storage and the server catalog
//!
//! Tables are stored as **columnar segments**: every [`Table::segment_rows`]
//! inserted rows are sealed into an immutable [`Segment`] — typed column
//! lanes ([`csq_common::Lane`]) with null bitmaps, dictionary-encoded
//! strings, and per-column min/max [`ZoneMap`]s. The rows after the last
//! full segment, the *tail*, are short segments too (*runs*) once a scan
//! has read them: the first scan after an insert seals the new rows into a
//! run. Scans go through [`Table::scan_as`], which takes a compiled
//! [`FilterSpec`] and a column list: whole segments and runs are pruned
//! against the zone maps before any column data is touched, the spec is
//! then evaluated on the survivors' lanes, and what each emits is the
//! listed columns' lanes, shared, plus the selection of rows the spec
//! leaves — rows are built from them only by an operator that reads rows
//! (DESIGN.md §2, §11); [`ScanStats`] reports the pruned/scanned split for
//! EXPLAIN and the rows filtered.
//!
//! The legacy row-vector view survives as [`Table::snapshot`], which
//! reconstructs the inserted rows exactly — it backs the simulated backend
//! and the differential oracles that hold the columnar scan and the table
//! profile honest. Nothing on the planning path calls it: the optimizer's
//! statistics come from the [`TableProfile`] each table maintains as rows
//! arrive ([`Table::profile`], O(width) under one read lock).
//!
//! Tables are snapshot-scanned: a scan observes the segments and runs
//! present when it started, never a torn state, which keeps the threaded
//! shipping strategies race-free without operator-level locking.

mod scan;
mod segment;

pub use scan::{CmpOp, ColPred, Conjuncts, FilterSpec, ScanStats, TableScan};
pub use segment::{ColumnSeg, Segment, SegmentZones, ZoneMap, DEFAULT_SEGMENT_ROWS};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use csq_common::{CsqError, DataType, Field, Result, Row, Schema, Value};

/// A table's running statistics: everything the optimizer derives its
/// `TableStats` from, maintained by the writers (an insert adds exactly its
/// rows' contribution, a seal appends one zone entry) instead of recomputed
/// over the relation per plan.
#[derive(Debug, Clone, Default)]
pub struct TableProfile {
    /// Rows in the table (full segments + tail).
    pub rows: usize,
    /// Sum of [`Value::wire_size`] over every row, per column (schema order).
    pub col_wire_bytes: Vec<u64>,
    /// Zone maps of the sealed segments, in seal order; the tail's runs are
    /// not profiled, so scans never change a table's statistics.
    /// Shared: readers get the same list, and a seal copies it only while a
    /// reader still holds the previous one.
    pub segments: Arc<Vec<SegmentZones>>,
}

/// Every row is in exactly one of `sealed`, `runs` and `pending`, and the
/// three in that order are the rows in insertion order.
#[derive(Debug)]
struct TableInner {
    /// Full segments of `segment_rows` rows, plus any short one
    /// [`Table::seal_tail`] cut; oldest first.
    sealed: Vec<Arc<Segment>>,
    /// The tail rows scans have sealed, oldest first: each run is more than
    /// twice as long as the next, so there are at most
    /// ⌈log₂ segment_rows⌉ + 1 of them.
    runs: Vec<Arc<Segment>>,
    /// Rows inserted since the last scan. With `runs`, fewer than
    /// `segment_rows`.
    pending: Vec<Row>,
    /// Describes exactly the rows in `sealed`, `runs` and `pending`: every
    /// mutation updates it under the same write lock.
    profile: TableProfile,
}

impl TableInner {
    /// Rows after the sealed segments.
    fn tail_rows(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>() + self.pending.len()
    }

    /// Remove from the tail the runs from `first` on and `pending`, and
    /// return their rows in insertion order (the runs' rebuilt).
    fn take_tail(&mut self, first: usize) -> Vec<Row> {
        let pending = std::mem::take(&mut self.pending);
        if first == self.runs.len() {
            return pending;
        }
        let len = self.runs[first..].iter().map(|r| r.len()).sum::<usize>() + pending.len();
        let mut rows = Vec::with_capacity(len);
        for run in self.runs.drain(first..) {
            rows.extend(run.rows());
        }
        rows.extend(pending);
        rows
    }
}

/// A named, typed relation stored as sealed columnar segments plus a tail
/// of rows that scans seal into short runs.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    segment_rows: usize,
    inner: RwLock<TableInner>,
    /// Counts profile changes; once registered, the [`Catalog`]'s counter.
    changes: Arc<AtomicU64>,
}

impl Table {
    /// Create an empty table with the default segment size. Field names
    /// must be non-empty and unique (case-insensitive).
    pub fn new(name: impl Into<String>, schema: Schema) -> Result<Table> {
        Table::with_segment_rows(name, schema, DEFAULT_SEGMENT_ROWS)
    }

    /// Create an empty table sealing a segment every `segment_rows` rows
    /// (tests and benches use small segments to exercise pruning on small
    /// tables).
    pub fn with_segment_rows(
        name: impl Into<String>,
        schema: Schema,
        segment_rows: usize,
    ) -> Result<Table> {
        let name = name.into();
        if name.is_empty() {
            return Err(CsqError::Catalog("table name must be non-empty".into()));
        }
        if segment_rows == 0 {
            return Err(CsqError::Catalog(format!(
                "table '{name}': segment size must be at least 1 row"
            )));
        }
        let mut seen = HashMap::new();
        for f in schema.fields() {
            if f.name.is_empty() {
                return Err(CsqError::Catalog(format!(
                    "table '{name}': column names must be non-empty"
                )));
            }
            if seen.insert(f.name.to_ascii_lowercase(), ()).is_some() {
                return Err(CsqError::Catalog(format!(
                    "table '{name}': duplicate column '{}'",
                    f.name
                )));
            }
        }
        let width = schema.len();
        Ok(Table {
            name,
            schema,
            segment_rows,
            inner: RwLock::new(TableInner {
                sealed: Vec::new(),
                runs: Vec::new(),
                pending: Vec::new(),
                profile: TableProfile {
                    col_wire_bytes: vec![0; width],
                    ..TableProfile::default()
                },
            }),
            changes: Arc::default(),
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema (fields are unqualified; scans qualify them with
    /// the table alias).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows per sealed segment.
    pub fn segment_rows(&self) -> usize {
        self.segment_rows
    }

    /// Insert a row, checking arity and types (NULL fits any column).
    pub fn insert(&self, row: Row) -> Result<()> {
        let bytes = self.measure(std::slice::from_ref(&row))?;
        let mut inner = self.inner.write();
        inner.pending.push(row);
        self.appended(&mut inner, 1, &bytes);
        Ok(())
    }

    /// Insert many rows; all-or-nothing on type errors.
    pub fn insert_all(&self, rows: Vec<Row>) -> Result<()> {
        let bytes = self.measure(&rows)?;
        let n = rows.len();
        let mut inner = self.inner.write();
        inner.pending.extend(rows);
        self.appended(&mut inner, n, &bytes);
        Ok(())
    }

    /// Typecheck `rows` and return their per-column wire-byte sums — the
    /// batch's whole contribution to the profile, computed before the write
    /// lock is taken, so a rejected batch changes nothing.
    fn measure(&self, rows: &[Row]) -> Result<Vec<u64>> {
        let mut bytes = vec![0u64; self.schema.len()];
        for r in rows {
            self.typecheck(r)?;
            for (b, v) in bytes.iter_mut().zip(r.values()) {
                *b += v.wire_size() as u64;
            }
        }
        Ok(bytes)
    }

    /// Count the change and account for `n` rows just pushed onto
    /// `pending`, then seal every full segment's worth of the tail — its
    /// runs and `pending`, in insertion order — keeping the rest as
    /// `pending`. Where segments begin does not depend on when scans sealed
    /// runs.
    fn appended(&self, inner: &mut TableInner, n: usize, bytes: &[u64]) {
        self.changed();
        inner.profile.rows += n;
        for (sum, b) in inner.profile.col_wire_bytes.iter_mut().zip(bytes) {
            *sum += b;
        }
        if inner.tail_rows() < self.segment_rows {
            return;
        }
        let mut rows = inner.take_tail(0);
        inner.pending = rows.split_off(rows.len() - rows.len() % self.segment_rows);
        for segment in rows.chunks(self.segment_rows) {
            self.seal(inner, segment);
        }
    }

    /// Count a profile change; callers hold the write lock, so a reader
    /// that sees the new count reads the profile only once it is changed.
    fn changed(&self) {
        self.changes.fetch_add(1, Ordering::SeqCst);
    }

    fn seal(&self, inner: &mut TableInner, rows: &[Row]) {
        let seg = Segment::seal(&self.schema, rows);
        Arc::make_mut(&mut inner.profile.segments).push(SegmentZones {
            rows: seg.len(),
            zones: seg.zones(),
        });
        inner.sealed.push(Arc::new(seg));
    }

    /// Seal the tail — its runs and the rows after them — into one (possibly
    /// short) segment, so the profile's zone maps cover every row. Benches
    /// and tests call this after bulk loads; regular operation seals a full
    /// segment automatically at `segment_rows`.
    pub fn seal_tail(&self) {
        let mut inner = self.inner.write();
        if inner.tail_rows() > 0 {
            let rows = inner.take_tail(0);
            self.seal(&mut inner, &rows);
            self.changed();
        }
    }

    /// Seal `pending` into a new run, merged with the newest runs while the
    /// older of the last two would be at most twice the newer: run lengths
    /// then more than double from newest to oldest, and a row is re-sealed
    /// only into a run at least half as long again as the one it leaves —
    /// O(log segment_rows) times before a full segment takes it. Runs are
    /// not profiled, so this is no change to count.
    fn seal_pending(&self, inner: &mut TableInner) {
        if inner.pending.is_empty() {
            return;
        }
        let (mut first, mut len) = (inner.runs.len(), inner.pending.len());
        while first > 0 && inner.runs[first - 1].len() <= 2 * len {
            first -= 1;
            len += inner.runs[first].len();
        }
        let rows = inner.take_tail(first);
        inner
            .runs
            .push(Arc::new(Segment::seal(&self.schema, &rows)));
    }

    fn typecheck(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(CsqError::Type(format!(
                "table '{}': expected {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (i, v) in row.values().iter().enumerate() {
            if let Some(dt) = v.data_type() {
                let expected = self.schema.field(i).dtype;
                if !expected.accepts(dt) {
                    return Err(CsqError::Type(format!(
                        "table '{}', column '{}': expected {}, got {}",
                        self.name,
                        self.schema.field(i).name,
                        expected,
                        dt
                    )));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.inner.read().profile.rows
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.inner.read().sealed.len()
    }

    /// A consistent snapshot of all rows, reconstructed exactly as inserted
    /// (values are refcounted, so this is cheap relative to the data). This
    /// is the row-vector oracle path: the columnar scan must agree with it.
    pub fn snapshot(&self) -> Vec<Row> {
        let inner = self.inner.read();
        let mut out = Vec::with_capacity(inner.profile.rows);
        for seg in inner.sealed.iter().chain(&inner.runs) {
            out.extend(seg.rows());
        }
        out.extend(inner.pending.iter().cloned());
        out
    }

    /// A filtering scan over the current segments and tail, its columns
    /// qualified with `alias`: segments whose zone maps disprove `spec` are
    /// skipped before any column data is touched, and within the rest only
    /// rows `spec` does not provably reject are selected (see the `scan`
    /// module docs for the rule). `cols` narrows the output to those table
    /// ordinals (strictly increasing; `None` = every column); `spec`
    /// ordinals are table ordinals either way.
    ///
    /// The tail is read as runs, like any segment. When rows were inserted
    /// since the last scan, this one takes the write lock once to seal them
    /// into a run (merging the newest runs; see `seal_pending`), so rows are
    /// sealed once per insert rather than copied once per scan; otherwise it
    /// holds only the read lock, for as long as it takes to clone the two
    /// segment lists.
    pub fn scan_as(
        &self,
        alias: &str,
        cols: Option<&[usize]>,
        spec: Option<&FilterSpec>,
    ) -> Result<TableScan> {
        let width = self.schema.len();
        if let Some(c) = cols {
            if !c.windows(2).all(|w| w[0] < w[1]) || c.last().is_some_and(|&l| l >= width) {
                return Err(CsqError::Exec(format!(
                    "table '{}': scan columns {c:?} must be strictly increasing ordinals below {width}",
                    self.name
                )));
            }
        }
        let capture = |inner: &TableInner| (inner.sealed.clone(), inner.runs.clone());
        let captured = {
            let inner = self.inner.read();
            inner.pending.is_empty().then(|| capture(&inner))
        };
        let (sealed, runs) = captured.unwrap_or_else(|| {
            // Another scan may have sealed `pending` since: then this is a
            // no-op.
            let mut inner = self.inner.write();
            self.seal_pending(&mut inner);
            capture(&inner)
        });
        let (schema, cols) = match cols {
            Some(c) => (self.schema.project(c), c.to_vec()),
            None => (self.schema.clone(), (0..width).collect()),
        };
        Ok(TableScan::new(
            Arc::new(schema.qualify(alias)),
            cols,
            sealed,
            runs,
            spec,
        ))
    }

    /// Evaluate `spec` against the current zone maps without scanning: the
    /// pruned/scanned split EXPLAIN renders on scan nodes.
    pub fn prune_stats(&self, spec: Option<&FilterSpec>) -> ScanStats {
        let inner = self.inner.read();
        let pruned = match spec {
            Some(s) => inner.sealed.iter().filter(|seg| s.prunes(seg)).count(),
            None => 0,
        };
        ScanStats {
            segments_total: inner.sealed.len(),
            segments_pruned: pruned,
            tail_rows: inner.tail_rows(),
            rows_filtered: 0,
        }
    }

    /// The table's statistics profile, read under one lock acquisition:
    /// row count, byte sums and zone list all describe the same instant.
    /// O(width) — the zone list is shared, not copied.
    pub fn profile(&self) -> TableProfile {
        self.inner.read().profile.clone()
    }
}

/// Convenience builder used by tests and workload generators. Declare the
/// columns (and any segment size) first, then the rows: the table is created
/// when the first segment's worth of rows has arrived and takes each further
/// segment as it fills, so a bulk load stages one segment of rows, not the
/// whole table beside its own sealed copy.
pub struct TableBuilder {
    name: String,
    fields: Vec<Field>,
    /// Rows not yet handed to `table`; fewer than `segment_rows`.
    rows: Vec<Row>,
    segment_rows: usize,
    /// The table once rows have been flushed into it, or why that failed.
    table: Option<Result<Table>>,
}

impl TableBuilder {
    /// Start a builder for table `name`.
    pub fn new(name: impl Into<String>) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            fields: Vec::new(),
            rows: Vec::new(),
            segment_rows: DEFAULT_SEGMENT_ROWS,
            table: None,
        }
    }

    /// Add a column.
    pub fn column(mut self, name: &str, dtype: DataType) -> TableBuilder {
        self.fields.push(Field::new(name, dtype));
        self
    }

    /// Add a row of values.
    pub fn row(mut self, values: Vec<Value>) -> TableBuilder {
        self.rows.push(Row::new(values));
        if self.rows.len() >= self.segment_rows {
            self.flush();
        }
        self
    }

    /// Override the segment size (small segments exercise pruning on small
    /// tables).
    pub fn segment_rows(mut self, rows: usize) -> TableBuilder {
        self.segment_rows = rows;
        self
    }

    /// Move the staged rows into the table, creating it first if need be;
    /// the first error sticks.
    fn flush(&mut self) {
        let table = self.table.get_or_insert_with(|| {
            Table::with_segment_rows(
                self.name.clone(),
                Schema::new(self.fields.clone()),
                self.segment_rows,
            )
        });
        if let Ok(t) = table {
            if let Err(e) = t.insert_all(std::mem::take(&mut self.rows)) {
                *table = Err(e);
            }
        }
    }

    /// Build the table, inserting all rows.
    pub fn build(mut self) -> Result<Table> {
        self.flush();
        let table = self.table.expect("flush creates the table")?;
        if table.schema().len() != self.fields.len() {
            return Err(CsqError::Catalog(format!(
                "table '{}': columns must be declared before rows",
                self.name
            )));
        }
        Ok(table)
    }
}

/// The server catalog: case-insensitive table name → table.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    /// Shared by every registered table; see [`changes`](Self::changes).
    changes: Arc<AtomicU64>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; errors if a table with the same name exists.
    pub fn register(&self, mut table: Table) -> Result<Arc<Table>> {
        let key = table.name().to_ascii_lowercase();
        table.changes = self.changes.clone();
        let arc = Arc::new(table);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(CsqError::Catalog(format!(
                "table '{}' already exists",
                arc.name()
            )));
        }
        tables.insert(key, arc.clone());
        arc.changed();
        Ok(arc)
    }

    /// Look up a table by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CsqError::Catalog(format!("unknown table '{name}'")))
    }

    /// Changes so far to what a plan reads here: registrations and
    /// every change to a registered table's [`TableProfile`] (an insert or
    /// a sealing [`Table::seal_tail`], through a held `Arc<Table>` too; a
    /// scan's sealing changes no profile). Unchanged count, same statistics.
    pub fn changes(&self) -> u64 {
        self.changes.load(Ordering::SeqCst)
    }

    /// Names of all registered tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .read()
            .values()
            .map(|t| t.name().to_string())
            .collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Blob;

    fn stock_table() -> Table {
        TableBuilder::new("StockQuotes")
            .column("Name", DataType::Str)
            .column("Close", DataType::Float)
            .column("Quotes", DataType::Blob)
            .row(vec![
                Value::from("acme"),
                Value::Float(100.0),
                Value::Blob(Blob::synthetic(50, 1)),
            ])
            .row(vec![
                Value::from("globex"),
                Value::Float(42.0),
                Value::Blob(Blob::synthetic(50, 2)),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_snapshot() {
        let t = stock_table();
        assert_eq!(t.len(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].value(0), &Value::from("acme"));
    }

    #[test]
    fn insert_typechecks_arity_and_types() {
        let t = stock_table();
        let short = Row::new(vec![Value::from("x")]);
        assert_eq!(t.insert(short).unwrap_err().kind(), "type");
        let wrong = Row::new(vec![Value::Int(1), Value::Float(1.0), Value::Int(2)]);
        assert_eq!(t.insert(wrong).unwrap_err().kind(), "type");
        assert_eq!(t.len(), 2, "failed inserts must not mutate");
    }

    #[test]
    fn int_widens_to_float_on_insert() {
        let t = stock_table();
        t.insert(Row::new(vec![
            Value::from("initech"),
            Value::Int(7),
            Value::Blob(Blob::synthetic(10, 3)),
        ]))
        .unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn null_fits_any_column() {
        let t = stock_table();
        t.insert(Row::new(vec![Value::Null, Value::Null, Value::Null]))
            .unwrap();
    }

    #[test]
    fn duplicate_column_rejected() {
        let r = TableBuilder::new("t")
            .column("a", DataType::Int)
            .column("A", DataType::Int)
            .build();
        assert_eq!(r.unwrap_err().kind(), "catalog");
    }

    #[test]
    fn builder_loads_segment_by_segment_and_reports_the_first_error() {
        let ints = |n: i64| {
            let b = TableBuilder::new("t")
                .column("a", DataType::Int)
                .segment_rows(4);
            (0..n).fold(b, |b, i| b.row(vec![Value::Int(i)]))
        };
        let t = ints(10).build().unwrap();
        assert_eq!((t.len(), t.segment_count()), (10, 2));
        let expect: Vec<Row> = (0..10).map(|i| Row::new(vec![Value::Int(i)])).collect();
        assert_eq!(t.snapshot(), expect);

        // A bad row surfaces at build(), whichever flush carried it.
        let bad = ints(6).row(vec![Value::from("x")]).row(vec![Value::Int(7)]);
        assert_eq!(bad.build().unwrap_err().kind(), "type");
        // So does a column declared after rows already reached the table.
        let late = ints(4).column("b", DataType::Int);
        assert_eq!(late.build().unwrap_err().kind(), "catalog");
    }

    #[test]
    fn profile_sums_wire_bytes_per_column() {
        let t = TableBuilder::new("t")
            .column("x", DataType::Blob)
            .column("n", DataType::Int)
            .row(vec![Value::Blob(Blob::synthetic(95, 1)), Value::Int(1)])
            .row(vec![Value::Blob(Blob::synthetic(195, 2)), Value::Null])
            .build()
            .unwrap();
        // Blob wire size = 5 + len → 100 and 200; INT is 9, NULL is 1.
        let p = t.profile();
        assert_eq!(p.rows, 2);
        assert_eq!(p.col_wire_bytes, vec![300, 10]);
        assert!(p.segments.is_empty(), "nothing sealed yet");
    }

    #[test]
    fn profile_follows_inserts_and_seals_and_ignores_rejected_batches() {
        let t = seg_table(20, 3); // 8 rows/segment → 2 sealed + 4 tail
        let before = t.profile();
        assert_eq!(before.rows, 20);
        assert_eq!(before.segments.len(), 2);
        assert!(before.segments.iter().all(|s| s.rows == 8));

        let bad = vec![
            Row::new(vec![Value::Int(1), Value::Int(1)]),
            Row::new(vec![Value::from("x"), Value::Int(1)]),
        ];
        assert_eq!(t.insert_all(bad).unwrap_err().kind(), "type");
        let after = t.profile();
        assert_eq!(after.rows, before.rows);
        assert_eq!(after.col_wire_bytes, before.col_wire_bytes);
        assert!(Arc::ptr_eq(&after.segments, &before.segments));

        t.seal_tail();
        let sealed = t.profile();
        assert_eq!(sealed.rows, 20, "sealing moves rows, it adds none");
        assert_eq!(sealed.col_wire_bytes, before.col_wire_bytes);
        assert_eq!(sealed.segments.len(), 3);
        assert_eq!(sealed.segments[2].rows, 4);
        assert_eq!(before.segments.len(), 2, "a held profile is a snapshot");
    }

    #[test]
    fn catalog_counts_every_profile_change_of_its_tables() {
        let c = Catalog::new();
        let t = c.register(seg_table(20, 3)).unwrap();
        assert_eq!(c.changes(), 1, "registration");
        let moved = |f: &dyn Fn()| {
            let before = c.changes();
            f();
            c.changes() - before
        };
        let row = || Row::new(vec![Value::Int(1), Value::Int(1)]);
        assert_eq!(moved(&|| t.insert(row()).unwrap()), 1);
        assert_eq!(moved(&|| t.insert_all(vec![row(), row()]).unwrap()), 1);
        let bad = || vec![Row::new(vec![Value::from("x"), Value::Int(1)])];
        assert_eq!(moved(&|| assert!(t.insert_all(bad()).is_err())), 0);
        assert_eq!(moved(&|| drop(drain(&t, None))), 0, "a scan's seal");
        assert_eq!(moved(&|| t.seal_tail()), 1);
        assert_eq!(moved(&|| t.seal_tail()), 0, "nothing left to seal");
        assert_eq!(moved(&|| assert!(c.register(seg_table(1, 1)).is_err())), 0);
    }

    #[test]
    fn catalog_register_lookup_case_insensitive() {
        let c = Catalog::new();
        c.register(stock_table()).unwrap();
        assert!(c.get("stockquotes").is_ok());
        assert!(c.get("STOCKQUOTES").is_ok());
        assert_eq!(c.get("nope").unwrap_err().kind(), "catalog");
        assert_eq!(c.register(stock_table()).unwrap_err().kind(), "catalog");
        assert_eq!(c.table_names(), vec!["StockQuotes".to_string()]);
    }

    // ---- columnar segment behavior ----------------------------------------

    /// A table of `n` ints 0..n in column `a`, nulls every `null_every`-th
    /// row in column `b`, sealed every 8 rows.
    fn seg_table(n: usize, null_every: usize) -> Table {
        let t = Table::with_segment_rows(
            "seg",
            Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("b", DataType::Int),
            ]),
            8,
        )
        .unwrap();
        for i in 0..n {
            let b = if null_every > 0 && i % null_every == 0 {
                Value::Null
            } else {
                Value::Int((i % 3) as i64)
            };
            t.insert(Row::new(vec![Value::Int(i as i64), b])).unwrap();
        }
        t
    }

    fn pred(col: usize, op: CmpOp, lit: Value) -> FilterSpec {
        FilterSpec {
            preds: vec![ColPred { col, op, lit }],
            complete: true,
        }
    }

    /// Drain a full-width scan: its rows and its final accounting.
    fn drain(t: &Table, spec: Option<&FilterSpec>) -> (Vec<Row>, ScanStats) {
        drain_scan(t.scan_as("t", None, spec).unwrap())
    }

    fn drain_scan(mut scan: TableScan) -> (Vec<Row>, ScanStats) {
        let mut rows = Vec::new();
        while let Some(b) = scan.next_batch() {
            assert!(!b.is_empty(), "batches are never empty");
            rows.extend(b.into_rows());
        }
        (rows, scan.stats())
    }

    /// `rows` is an in-order subsequence of `of`; returns the omitted rows.
    fn omitted<'a>(rows: &[Row], of: &'a [Row]) -> Vec<&'a Row> {
        let mut kept = rows.iter().peekable();
        let out: Vec<&Row> = of.iter().filter(|r| kept.next_if_eq(r).is_none()).collect();
        assert!(kept.peek().is_none(), "scan rows are not a subsequence");
        out
    }

    #[test]
    fn inserts_seal_segments_and_snapshot_reconstructs() {
        let t = seg_table(20, 3);
        assert_eq!(t.segment_count(), 2, "20 rows at 8/segment → 2 sealed");
        assert_eq!(t.len(), 20);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 20);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.value(0), &Value::Int(i as i64));
        }
        assert_eq!(snap[0].value(1), &Value::Null);
    }

    #[test]
    fn zone_maps_prune_disjoint_segments() {
        let t = seg_table(32, 0);
        t.seal_tail();
        assert_eq!(t.segment_count(), 4);
        // a > 23: only the last segment (24..32) can match.
        let spec = pred(0, CmpOp::Gt, Value::Int(23));
        let stats = t.prune_stats(Some(&spec));
        assert_eq!(stats.segments_total, 4);
        assert_eq!(stats.segments_pruned, 3);
        // The scan returns exactly the surviving segment's rows.
        let (rows, stats) = drain(&t, Some(&spec));
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].value(0), &Value::Int(24));
        assert_eq!(stats.segments_pruned, 3);
        assert_eq!(stats.rows_filtered, 0);
    }

    #[test]
    fn pruned_scan_equals_oracle_filter() {
        let t = seg_table(40, 3);
        t.seal_tail();
        let spec = pred(0, CmpOp::LtEq, Value::Int(10));
        let (scanned, stats) = drain(&t, Some(&spec));
        // The scan may over-deliver (it drops only what it can prove) but
        // never under-delivers or reorders: what it omits fails the pred.
        let snapshot = t.snapshot();
        for r in omitted(&scanned, &snapshot) {
            assert!(matches!(r.value(0), Value::Int(v) if *v > 10), "lost {r:?}");
        }
        // Segments 16.. are pruned; 8..16 is not, and rows 11..16 are
        // filtered out of it lane-side.
        assert_eq!(stats.segments_pruned, 3);
        assert_eq!(stats.rows_filtered, 5);
        assert_eq!(scanned.len(), 11);
    }

    #[test]
    fn unprunable_segments_are_filtered_on_the_lanes() {
        // The svc_scan shape: a value column that is a bijection of the row
        // ordinal reduced mod 100, so every segment spans 0..100 and no zone
        // map prunes, while exactly 10 % of the rows pass `val > 89`.
        const ROWS: usize = 40_000;
        let t = Table::new(
            "T",
            Schema::new(vec![
                Field::new("id", DataType::Int),
                Field::new("sym", DataType::Str),
                Field::new("val", DataType::Int),
            ]),
        )
        .unwrap();
        // 7919 is coprime to 40 000: i -> i * 7919 mod ROWS is a bijection.
        t.insert_all(
            (0..ROWS)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(i as i64),
                        Value::from(format!("S{}", i % 13)),
                        Value::Int(((i * 7919) % ROWS % 100) as i64),
                    ])
                })
                .collect(),
        )
        .unwrap();
        assert!(t.segment_count() > 0 && t.len() > t.segment_count() * DEFAULT_SEGMENT_ROWS);
        let spec = pred(2, CmpOp::Gt, Value::Int(89));
        let (rows, stats) = drain(&t, Some(&spec));
        assert_eq!(stats.segments_pruned, 0);
        assert_eq!(rows.len(), 4_000);
        assert_eq!(stats.rows_filtered, 36_000);
        assert!(rows
            .iter()
            .all(|r| matches!(r.value(2), Value::Int(v) if *v > 89)));

        // Narrowed to `id`: same rows, one column, spec column not decoded.
        let scan = t.scan_as("T", Some(&[0]), Some(&spec)).unwrap();
        assert_eq!(scan.schema().len(), 1);
        let (ids, _) = drain_scan(scan);
        let expect: Vec<Row> = rows.iter().map(|r| r.project(&[0])).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn scan_columns_must_be_increasing_table_ordinals() {
        let t = seg_table(4, 0);
        for bad in [&[1, 0][..], &[0, 0], &[2]] {
            assert_eq!(
                t.scan_as("t", Some(bad), None).err().unwrap().kind(),
                "exec"
            );
        }
        let scan = t.scan_as("t", Some(&[]), None).unwrap();
        assert!(scan.schema().is_empty());
        let (rows, _) = drain_scan(scan);
        assert_eq!(
            rows,
            vec![Row::new(vec![]); 4],
            "zero-width rows still count"
        );
    }

    #[test]
    fn all_null_segment_prunes_comparisons() {
        let t = Table::with_segment_rows(
            "nulls",
            Schema::new(vec![Field::new("a", DataType::Int)]),
            4,
        )
        .unwrap();
        for _ in 0..4 {
            t.insert(Row::new(vec![Value::Null])).unwrap();
        }
        assert_eq!(t.segment_count(), 1);
        let stats = t.prune_stats(Some(&pred(0, CmpOp::Eq, Value::Int(1))));
        assert_eq!(
            stats.segments_pruned, 1,
            "all-NULL comparisons are unknown → no row passes"
        );
    }

    #[test]
    fn constant_column_prunes_not_equal() {
        let t = Table::with_segment_rows(
            "konst",
            Schema::new(vec![Field::new("a", DataType::Int)]),
            4,
        )
        .unwrap();
        for _ in 0..4 {
            t.insert(Row::new(vec![Value::Int(7)])).unwrap();
        }
        let stats = t.prune_stats(Some(&pred(0, CmpOp::NotEq, Value::Int(7))));
        assert_eq!(stats.segments_pruned, 1);
        let stats = t.prune_stats(Some(&pred(0, CmpOp::Eq, Value::Int(7))));
        assert_eq!(stats.segments_pruned, 0);
    }

    #[test]
    fn cross_type_literal_never_prunes() {
        let t = seg_table(8, 0);
        t.seal_tail();
        // Comparing an INT column to a STR literal errors at filter time;
        // pruning must not hide that.
        let stats = t.prune_stats(Some(&pred(0, CmpOp::Gt, Value::from("x"))));
        assert_eq!(stats.segments_pruned, 0);
    }

    #[test]
    fn string_dictionary_roundtrips_and_prunes() {
        let t =
            Table::with_segment_rows("s", Schema::new(vec![Field::new("name", DataType::Str)]), 4)
                .unwrap();
        for name in ["aa", "aa", "bb", "bb", "yy", "yy", "zz", "zz"] {
            t.insert(Row::new(vec![Value::from(name)])).unwrap();
        }
        assert_eq!(t.segment_count(), 2);
        {
            let inner = t.inner.read();
            assert_eq!(inner.sealed[0].columns()[0].dict_len(), Some(2));
        }
        let stats = t.prune_stats(Some(&pred(0, CmpOp::GtEq, Value::from("yy"))));
        assert_eq!(stats.segments_pruned, 1, "first segment maxes at 'bb'");
        let snap = t.snapshot();
        assert_eq!(snap[2].value(0), &Value::from("bb"));
    }

    #[test]
    fn int_lanes_narrow_to_the_segment_range_and_stay_exact() {
        // One segment per range; each holds its two extremes, a NULL and 0.
        let ranges = [
            (i64::from(i8::MIN), i64::from(i8::MAX), 1),
            (i64::from(i8::MIN) - 1, 0, 2),
            (0, i64::from(i16::MAX) + 1, 4),
            (i64::from(i32::MIN), i64::from(i32::MAX), 4),
            (i64::from(i32::MIN) - 1, 0, 8),
            (i64::MIN, i64::MAX, 8),
        ];
        let t = Table::with_segment_rows("w", Schema::new(vec![Field::new("a", DataType::Int)]), 4)
            .unwrap();
        for (lo, hi, _) in ranges {
            for v in [Value::Int(lo), Value::Null, Value::Int(hi), Value::Int(0)] {
                t.insert(Row::new(vec![v])).unwrap();
            }
        }
        {
            let inner = t.inner.read();
            for (seg, (lo, hi, width)) in inner.sealed.iter().zip(ranges) {
                assert_eq!(seg.columns()[0].int_width(), Some(width), "{lo}..={hi}");
            }
        }
        // Reconstruction and the lane filter are exact at every width.
        let snapshot = t.snapshot();
        assert_eq!(snapshot[0].value(0), &Value::Int(-128));
        assert_eq!(snapshot[22].value(0), &Value::Int(i64::MAX));
        for lit in [-129, -1, 0, 127, 32_768, i64::from(i32::MAX), i64::MAX - 1] {
            let (rows, _) = drain(&t, Some(&pred(0, CmpOp::Gt, Value::Int(lit))));
            let expect: Vec<Row> = snapshot
                .iter()
                .filter(|r| matches!(r.value(0), Value::Int(v) if *v > lit))
                .cloned()
                .collect();
            assert_eq!(rows, expect, "a > {lit}");
        }
    }

    #[test]
    fn the_tail_is_pruned_by_its_runs_zone_maps() {
        let t = seg_table(10, 0); // 8 sealed + 2 tail
        assert_eq!(t.segment_count(), 1);
        // The first scan seals the two tail rows (a = 8, 9) into one run with
        // its own zone map. `a > 100` prunes the segment and the run; the
        // run's rows are tail rows the scan filtered without reading them.
        let (rows, stats) = drain(&t, Some(&pred(0, CmpOp::Gt, Value::Int(100))));
        assert_eq!(stats.segments_pruned, 1);
        assert_eq!(stats.tail_rows, 2);
        assert_eq!(stats.rows_filtered, 2);
        assert!(rows.is_empty());
        // `a > 8` cannot prune the run (its max is 9); its lane test drops
        // a = 8.
        let (rows, stats) = drain(&t, Some(&pred(0, CmpOp::Gt, Value::Int(8))));
        assert_eq!((stats.tail_rows, stats.rows_filtered), (2, 1));
        assert_eq!(rows, vec![Row::new(vec![Value::Int(9), Value::Int(0)])]);
        // A comparison that raises keeps the row for the filter to raise on.
        let (rows, stats) = drain(&t, Some(&pred(0, CmpOp::Gt, Value::from("x"))));
        assert_eq!((rows.len(), stats.rows_filtered), (10, 0));
        assert_eq!(t.segment_count(), 1, "runs are not segments");
    }

    /// What `inner` holds, checked against the rows inserted so far: the
    /// three parts partition them in order, the runs respect the merge rule
    /// and its bound, and every sealed segment is a full one.
    fn assert_tail_shape(t: &Table, inserted: &[Row]) {
        let inner = t.inner.read();
        let seg = t.segment_rows();
        let mut rows: Vec<Row> = Vec::new();
        for s in inner.sealed.iter().chain(&inner.runs) {
            rows.extend(s.rows());
        }
        rows.extend(inner.pending.iter().cloned());
        assert_eq!(
            rows, inserted,
            "sealed, runs and pending partition the rows"
        );
        assert_eq!(inner.profile.rows, inserted.len());
        assert!(inner.sealed.iter().all(|s| s.len() == seg));
        assert_eq!(inner.sealed.len(), inserted.len() / seg);
        assert!(inner.tail_rows() < seg);
        let bound = seg.next_power_of_two().trailing_zeros() as usize + 1;
        assert!(inner.runs.len() <= bound, "{} runs", inner.runs.len());
        for pair in inner.runs.windows(2) {
            assert!(pair[0].len() > 2 * pair[1].len(), "merge rule");
        }
    }

    #[test]
    fn scans_seal_the_tail_into_few_runs_and_segment_boundaries_stay_put() {
        // A fixed xorshift stream: batch sizes 1..=300 and, between them,
        // zero to two scans.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for seg in [1, 2, 3, 16, 64] {
            let schema = Schema::new(vec![
                Field::new("a", DataType::Int),
                Field::new("s", DataType::Str),
            ]);
            let t = Table::with_segment_rows("t", schema.clone(), seg).unwrap();
            let twin = Table::with_segment_rows("twin", schema, seg).unwrap();
            let mut inserted: Vec<Row> = Vec::new();
            for _ in 0..120 {
                let cap = if next(4) == 0 { 300 } else { 8 };
                let n = 1 + next(cap) as usize;
                let start = inserted.len() as i64;
                let batch: Vec<Row> = (start..start + n as i64)
                    .map(|i| Row::new(vec![Value::Int(i), Value::from(format!("s{}", i % 5))]))
                    .collect();
                inserted.extend(batch.iter().cloned());
                if n == 1 {
                    t.insert(batch[0].clone()).unwrap();
                } else {
                    t.insert_all(batch.clone()).unwrap();
                }
                twin.insert_all(batch).unwrap();
                for _ in 0..next(3) {
                    let (rows, stats) = drain(&t, None);
                    assert_eq!(rows, inserted);
                    assert_eq!(stats.tail_rows, inserted.len() % seg);
                    assert!(t.inner.read().pending.is_empty(), "a scan seals pending");
                    assert_tail_shape(&t, &inserted);
                }
                assert_tail_shape(&t, &inserted);
                assert_eq!(
                    format!("{:?}", t.profile()),
                    format!("{:?}", twin.profile()),
                    "scans do not change the profile"
                );
            }
        }
    }

    #[test]
    fn incomplete_spec_does_not_prune_on_unknowns() {
        // Column b has NULLs; `b < 0` is disproved for non-null values but
        // rows with NULL b evaluate later conjuncts, which an incomplete
        // spec cannot certify error-free.
        let t = seg_table(8, 2);
        t.seal_tail();
        let mut spec = pred(1, CmpOp::Lt, Value::Int(0));
        spec.complete = false;
        assert_eq!(t.prune_stats(Some(&spec)).segments_pruned, 0);
        spec.complete = true;
        assert_eq!(t.prune_stats(Some(&spec)).segments_pruned, 1);
    }
}
