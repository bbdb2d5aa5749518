//! Row batches: the unit of data flow in the vectorized execution engine.
//!
//! The paper's whole thesis is that batching beats per-tuple work (semi-join
//! argument batches vs. naive per-tuple remote calls); the local engine
//! applies the same principle. A [`RowBatch`] is a chunk of up to
//! [`DEFAULT_BATCH_SIZE`] rows sharing one `Arc<Schema>`: operators pull
//! batches from their children ([`next_batch`]), amortizing dynamic dispatch
//! and allocation over ~a thousand rows instead of paying them per row.
//!
//! A batch holds its rows in one of two representations. Most operators
//! produce `Vec<Row>`. The scan of a sealed segment produces the segment's
//! typed [`Lane`]s (shared, not copied) plus the [`Selection`] of the rows
//! the batch covers; such a batch answers [`len`](RowBatch::len) from the
//! selection, hands an operator that works a column at a time its
//! [`lanes`](RowBatch::lanes), and builds its rows — exactly the values that
//! were inserted — the first time [`rows`](RowBatch::rows),
//! [`into_rows`](RowBatch::into_rows) or [`into_parts`](RowBatch::into_parts)
//! asks for them. Which operators ask is DESIGN.md §2.
//!
//! [`next_batch`]: ../../csq_exec/trait.Operator.html#method.next_batch

use std::sync::{Arc, OnceLock};

use crate::lane::{Lane, Selection};
use crate::row::Row;
use crate::schema::Schema;

/// Default number of rows per batch. Chosen (like DuckDB's 2048-row vectors)
/// so a batch of small rows stays cache-resident while still amortizing
/// per-batch overheads to noise.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A chunk of rows with a shared schema.
///
/// A batch is a complete unit of work, built once from its rows or its
/// lanes. Batches produced by well-behaved operators are never empty and
/// usually hold at most [`DEFAULT_BATCH_SIZE`] rows (a join splits a probe
/// row's fan-out across batches); consumers must not assume an exact size.
#[derive(Debug, Clone)]
pub struct RowBatch {
    schema: Arc<Schema>,
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    Rows(Vec<Row>),
    /// One lane per schema column, the rows `sel` names, and those rows once
    /// something has asked for them.
    Lanes {
        lanes: Vec<Arc<Lane>>,
        sel: Selection,
        rows: OnceLock<Vec<Row>>,
    },
}

/// Build the rows `sel` names out of `lanes`, one value per lane.
fn materialize(lanes: &[Arc<Lane>], sel: &Selection) -> Vec<Row> {
    let mut rows = Vec::with_capacity(sel.len());
    sel.for_each(sel.len(), |_, i| {
        rows.push(Row::new(lanes.iter().map(|l| l.value(i)).collect()));
    });
    rows
}

impl RowBatch {
    /// Wrap already-materialized rows (no copy).
    pub fn from_rows(schema: Arc<Schema>, rows: Vec<Row>) -> RowBatch {
        RowBatch {
            schema,
            repr: Repr::Rows(rows),
        }
    }

    /// The rows `sel` names of `lanes` (one per `schema` column, each long
    /// enough for every ordinal in `sel`), shared rather than decoded.
    pub fn from_lanes(schema: Arc<Schema>, lanes: Vec<Arc<Lane>>, sel: Selection) -> RowBatch {
        debug_assert_eq!(lanes.len(), schema.len());
        debug_assert!(
            sel.is_empty() || lanes.iter().all(|l| sel.ordinal(sel.len() - 1) < l.len()),
            "selection past the end of a lane"
        );
        RowBatch {
            schema,
            repr: Repr::Lanes {
                lanes,
                sel,
                rows: OnceLock::new(),
            },
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The lanes and selection of a lane-backed batch; `None` for a batch of
    /// rows. Reading them builds nothing.
    pub fn lanes(&self) -> Option<(&[Arc<Lane>], &Selection)> {
        match &self.repr {
            Repr::Rows(_) => None,
            Repr::Lanes { lanes, sel, .. } => Some((lanes, sel)),
        }
    }

    /// True once the batch holds its rows as rows: always for a batch made
    /// [`from_rows`](Self::from_rows), for a lane-backed one only after
    /// something asked for them. A probe for tests — what an operator left
    /// unbuilt — not something to branch on.
    pub fn is_materialized(&self) -> bool {
        match &self.repr {
            Repr::Rows(_) => true,
            Repr::Lanes { rows, .. } => rows.get().is_some(),
        }
    }

    /// Rows in the batch (built on first use for a lane-backed batch).
    #[inline]
    pub fn rows(&self) -> &[Row] {
        match &self.repr {
            Repr::Rows(rows) => rows,
            Repr::Lanes { lanes, sel, rows } => rows.get_or_init(|| materialize(lanes, sel)),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Rows(rows) => rows.len(),
            Repr::Lanes { sel, .. } => sel.len(),
        }
    }

    /// True when the batch holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume into the underlying rows.
    #[inline]
    pub fn into_rows(self) -> Vec<Row> {
        self.into_parts().1
    }

    /// Consume into `(schema, rows)` — lets an operator filter or transform
    /// the rows in place and rebuild a batch around the same `Arc<Schema>`.
    #[inline]
    pub fn into_parts(self) -> (Arc<Schema>, Vec<Row>) {
        let rows = match self.repr {
            Repr::Rows(rows) => rows,
            Repr::Lanes { lanes, sel, rows } => rows
                .into_inner()
                .unwrap_or_else(|| materialize(&lanes, &sel)),
        };
        (self.schema, rows)
    }

    /// Iterate over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Row> {
        self.rows().iter()
    }

    /// Total wire size of all rows (sum of [`Row::wire_size`]).
    pub fn wire_size(&self) -> usize {
        self.iter().map(Row::wire_size).sum()
    }
}

impl<'a> IntoIterator for &'a RowBatch {
    type Item = &'a Row;
    type IntoIter = std::slice::Iter<'a, Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for RowBatch {
    type Item = Row;
    type IntoIter = std::vec::IntoIter<Row>;
    fn into_iter(self) -> Self::IntoIter {
        self.into_rows().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use crate::value::{DataType, Value};

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]))
    }

    #[test]
    fn from_rows_wraps_without_copy() {
        let rows = vec![Row::new(vec![Value::Int(1), Value::Int(2)])];
        let b = RowBatch::from_rows(schema(), rows.clone());
        assert_eq!(b.rows(), &rows[..]);
        assert_eq!(b.into_rows(), rows);
    }

    /// Two lanes of five rows (`a` = 0..5 with a NULL at 2, `b` = 10·a).
    fn lanes() -> (Vec<Arc<Lane>>, Vec<Row>) {
        let rows: Vec<Row> = (0..5)
            .map(|i| {
                let a = if i == 2 { Value::Null } else { Value::Int(i) };
                Row::new(vec![a, Value::Int(10 * i)])
            })
            .collect();
        let lanes = (0..2).map(|c| Arc::new(Lane::build(&rows, c))).collect();
        (lanes, rows)
    }

    #[test]
    fn lane_batch_counts_from_its_selection_and_builds_rows_on_first_use() {
        let (lanes, rows) = lanes();
        for (sel, expect) in [
            (Selection::Window(1..4), rows[1..4].to_vec()),
            (
                Selection::Rows(vec![0, 2, 4]),
                vec![rows[0].clone(), rows[2].clone(), rows[4].clone()],
            ),
        ] {
            let b = RowBatch::from_lanes(schema(), lanes.clone(), sel);
            assert_eq!(b.len(), 3);
            assert!(b.lanes().is_some() && !b.is_materialized());
            assert_eq!(b.clone().into_rows(), expect);
            assert!(!b.is_materialized(), "a clone's rows are its own");
            assert_eq!(
                b.wire_size(),
                expect.iter().map(Row::wire_size).sum::<usize>()
            );
            assert!(b.is_materialized());
            assert_eq!(b.rows(), &expect[..]);
            assert_eq!(b.into_parts().1, expect, "built once, then moved out");
        }
        // No columns: the rows are empty, but there are as many as selected.
        let b = RowBatch::from_lanes(
            Arc::new(Schema::new(vec![])),
            Vec::new(),
            Selection::Window(0..4),
        );
        assert_eq!((b.len(), b.is_empty()), (4, false));
        assert_eq!(b.into_rows(), vec![Row::new(vec![]); 4]);
        assert!(RowBatch::from_rows(schema(), Vec::new()).lanes().is_none());
    }

    #[test]
    fn wire_size_sums_rows() {
        let b = RowBatch::from_rows(schema(), vec![Row::new(vec![Value::Int(1), Value::Int(2)])]);
        assert_eq!(b.wire_size(), 18);
    }
}
