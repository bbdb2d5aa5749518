//! Query results.

use csq_common::{Row, RowBatch, Schema};

/// Rows plus their schema, as returned to the API caller.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output schema (column names come from SELECT aliases or expression
    /// text).
    pub schema: Schema,
    /// Output rows.
    pub rows: Vec<Row>,
    /// For DML: affected row count.
    pub affected: usize,
}

impl QueryResult {
    /// An empty (DDL) result.
    pub fn empty() -> QueryResult {
        QueryResult {
            schema: Schema::empty(),
            rows: vec![],
            affected: 0,
        }
    }

    /// A DML result affecting `n` rows.
    pub fn count(n: usize) -> QueryResult {
        QueryResult {
            schema: Schema::empty(),
            rows: vec![],
            affected: n,
        }
    }

    /// Render as an ASCII table (for examples and debugging).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.display_name())
            .collect();
        out.push_str(&headers.join(" | "));
        out.push('\n');
        out.push_str(&"-".repeat(headers.join(" | ").len().max(4)));
        out.push('\n');
        for r in &self.rows {
            let cells: Vec<String> = r.values().iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// A statement's result as the executor leaves it: the batches the final
/// projection emitted, a lane-backed one with its rows still unbuilt. The
/// service encodes its frames from these; [`into_result`](Self::into_result)
/// builds the rows for an in-process caller.
#[derive(Debug)]
pub(crate) struct ResultBatches {
    pub(crate) schema: Schema,
    pub(crate) batches: Vec<RowBatch>,
    pub(crate) affected: usize,
}

impl ResultBatches {
    /// The answer to a write that stored `n` rows: no columns, no batches.
    pub(crate) fn count(n: usize) -> ResultBatches {
        ResultBatches {
            schema: Schema::empty(),
            batches: Vec::new(),
            affected: n,
        }
    }

    /// Rows in the result.
    pub(crate) fn len(&self) -> usize {
        self.batches.iter().map(RowBatch::len).sum()
    }

    /// The rows, in order.
    pub(crate) fn into_result(self) -> QueryResult {
        let mut rows = Vec::with_capacity(self.len());
        for batch in self.batches {
            rows.extend(batch.into_rows());
        }
        QueryResult {
            schema: self.schema,
            rows,
            affected: self.affected,
        }
    }
}
