//! Sealed columnar segments: typed column lanes, null bitmaps, dictionary
//! encoding, and per-column min/max zone maps.
//!
//! A [`Segment`] is an immutable horizontal slice of a table. Inserts
//! accumulate as rows until a scan reads them, which seals them into a short
//! segment (a *run*); once a table's runs and newer rows reach its segment
//! size they are sealed into a full segment. Sealing is the same either
//! way: each column becomes a
//! [`Lane`] — the narrowest representation of its non-null values that is
//! exact (integers at the narrowest of 1/2/4/8 bytes that holds the
//! segment's range, `f64`, `bool`, a string dictionary, or a fallback lane of
//! raw [`Value`]s; the lane types live in `csq-common`, beside the batch that
//! carries them), nulls move into a per-column bitmap, and a [`ZoneMap`]
//! records the min/max over non-null values so scans can skip the whole
//! segment when a filter disproves it (see the `scan` module). A pushed
//! conjunct the zone map cannot disprove is tested on the lane itself (the
//! `scan` module's lane rule), so only the rows it leaves are ever selected.
//!
//! A column holds its lane behind an `Arc`: the scan hands the lanes of the
//! columns it was asked for to the batch it emits, and nothing is decoded
//! until an operator asks that batch for rows.
//!
//! Sealing is lossless by construction: `Segment::row` reconstructs exactly
//! the values that were inserted (an `INT 7` stored in a FLOAT column comes
//! back as `Value::Int(7)`, not `7.0`), which is what lets the row-vector
//! snapshot path serve as a differential oracle for the columnar scan.

use std::cmp::Ordering;
use std::sync::Arc;

use csq_common::lane::wide;
use csq_common::{each_width, Lane, NullBitmap, Row, Schema, Value};

/// Default number of rows per sealed segment.
pub const DEFAULT_SEGMENT_ROWS: usize = 4096;

/// Per-column min/max statistics over one segment, used for pruning.
///
/// `bounds` covers the **non-null** values only. It is `None` either because
/// the column has no non-null values in this segment (`null_count == rows`)
/// or because no total order could be established over them (mixed
/// incomparable types, NaN) — `unordered` distinguishes the two, because an
/// all-NULL column *can* disprove a comparison (every comparison with NULL is
/// unknown) while an unordered one never prunes.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// (min, max) over non-null values, when a total order exists.
    pub bounds: Option<(Value, Value)>,
    /// NULL rows in this segment's column.
    pub null_count: usize,
    /// Total rows in the segment.
    pub rows: usize,
    /// True when `bounds` is `None` despite non-null values being present.
    pub unordered: bool,
}

impl ZoneMap {
    /// True when every row of this column is NULL.
    pub fn all_null(&self) -> bool {
        self.null_count == self.rows
    }

    /// The zone map of `lane`, read from its typed values: an INT, FLOAT or
    /// BOOL array through its null bitmap, a dictionary through its entries
    /// (each distinct string once), and only the `Values` fallback value by
    /// value through [`Value::sql_cmp`]. Every lane compares its values as
    /// `sql_cmp` would, so the map is the one a walk over the rows builds.
    fn of(lane: &Lane) -> ZoneMap {
        let rows = lane.len();
        let present = |nulls| (0..rows).filter(move |&i| !NullBitmap::get(nulls, i));
        match lane {
            Lane::Int { values, nulls } => each_width!(values, v => ZoneMap::walk(
                rows,
                nulls.count_ones(),
                present(nulls).map(|i| wide(v[i])),
                |a, b| Some(a.cmp(&b)),
                Value::Int,
            )),
            Lane::Float { values, nulls } => ZoneMap::walk(
                rows,
                nulls.count_ones(),
                present(nulls).map(|i| values[i]),
                |a, b| a.partial_cmp(&b),
                Value::Float,
            ),
            Lane::Bool { values, nulls } => ZoneMap::walk(
                rows,
                nulls.count_ones(),
                present(nulls).map(|i| values[i]),
                |a, b| Some(a.cmp(&b)),
                Value::Bool,
            ),
            Lane::StrDict { dict, codes } => ZoneMap::walk(
                rows,
                codes.iter().filter(|&&c| c == u32::MAX).count(),
                dict.iter(),
                |a, b| Some(a.cmp(b)),
                |s| Value::Str(s.clone()),
            ),
            Lane::Values(values) => ZoneMap::walk(
                rows,
                values.iter().filter(|v| v.is_null()).count(),
                values.iter().filter(|v| !v.is_null()),
                |a, b| a.sql_cmp(b).ok().flatten(),
                Value::clone,
            ),
        }
    }

    /// Min and max of the non-null `values`, in walk order: a bound moves
    /// only to a value strictly beyond it (of `-0.0` and `0.0`, the first
    /// seen stays), and a pair `cmp` cannot order — NaN, a cross-type pair —
    /// leaves the column unordered.
    fn walk<T: Copy>(
        rows: usize,
        null_count: usize,
        values: impl Iterator<Item = T>,
        cmp: impl Fn(T, T) -> Option<Ordering>,
        value: impl Fn(T) -> Value,
    ) -> ZoneMap {
        let mut bounds: Option<(T, T)> = None;
        for v in values {
            let Some((min, max)) = &mut bounds else {
                bounds = Some((v, v));
                continue;
            };
            match (cmp(v, *min), cmp(v, *max)) {
                (Some(lo), Some(hi)) => {
                    if lo == Ordering::Less {
                        *min = v;
                    }
                    if hi == Ordering::Greater {
                        *max = v;
                    }
                }
                _ => {
                    return ZoneMap {
                        bounds: None,
                        null_count,
                        rows,
                        unordered: true,
                    }
                }
            }
        }
        ZoneMap {
            bounds: bounds.map(|(min, max)| (value(min), value(max))),
            null_count,
            rows,
            unordered: false,
        }
    }
}

/// One sealed column: its lane plus the zone map.
#[derive(Debug)]
pub struct ColumnSeg {
    lane: Arc<Lane>,
    zone: ZoneMap,
}

impl ColumnSeg {
    fn build(rows: &[Row], col: usize) -> ColumnSeg {
        let lane = Lane::build(rows, col);
        ColumnSeg {
            zone: ZoneMap::of(&lane),
            lane: Arc::new(lane),
        }
    }

    /// The column's lane, shared with every batch scanned out of it.
    pub fn lane(&self) -> &Arc<Lane> {
        &self.lane
    }

    /// The exact value at row `i` (reconstructed from the lane).
    pub fn value(&self, i: usize) -> Value {
        self.lane.value(i)
    }

    /// The column's zone map.
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Distinct dictionary entries, when dictionary-encoded.
    pub fn dict_len(&self) -> Option<usize> {
        match &*self.lane {
            Lane::StrDict { dict, .. } => Some(dict.len()),
            _ => None,
        }
    }

    /// Bytes per value, when this is an INT lane (the narrowest of 1, 2, 4
    /// and 8 that holds the segment's values).
    pub fn int_width(&self) -> Option<usize> {
        match &*self.lane {
            Lane::Int { values, .. } => Some(values.width()),
            _ => None,
        }
    }

    /// NULL rows in this column.
    pub fn null_count(&self) -> usize {
        self.zone.null_count
    }
}

/// An immutable columnar slice of a table.
#[derive(Debug)]
pub struct Segment {
    rows: usize,
    cols: Vec<ColumnSeg>,
}

impl Segment {
    /// Seal `rows` (all matching `schema` width) into a segment.
    pub fn seal(schema: &Schema, rows: &[Row]) -> Segment {
        let cols: Vec<ColumnSeg> = (0..schema.len())
            .map(|c| ColumnSeg::build(rows, c))
            .collect();
        Segment {
            rows: rows.len(),
            cols,
        }
    }

    /// Rows in this segment.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the segment has no rows (a table only seals non-empty row
    /// sets, so this is `false` in practice).
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The sealed columns.
    pub fn columns(&self) -> &[ColumnSeg] {
        &self.cols
    }

    /// Reconstruct row `i` exactly as inserted.
    pub fn row(&self, i: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c.value(i)).collect())
    }

    /// Every row, in order, reconstructed exactly as inserted.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        (0..self.rows).map(|i| self.row(i))
    }

    /// Per-column zone maps (cloned — cheap, values are refcounted): the
    /// table copies a full segment's into its profile once, when it seals
    /// it.
    pub fn zones(&self) -> Vec<ZoneMap> {
        self.cols.iter().map(|c| c.zone.clone()).collect()
    }
}

/// Zone-map profile of one sealed segment, exported to the optimizer via
/// the table profile (so costing can estimate pruning without holding the
/// table lock at plan time).
#[derive(Debug, Clone)]
pub struct SegmentZones {
    /// Rows in the segment.
    pub rows: usize,
    /// One zone map per column.
    pub zones: Vec<ZoneMap>,
}
