//! Query results, and the virtual time a statement took on the modelled
//! links.

use csq_common::{codec, Row, RowBatch, Schema};
use csq_net::{NetworkSpec, VirtualLinks};

/// Aggregated virtual-time accounting for one query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimSummary {
    /// Total virtual time, µs (client-site phases + final delivery;
    /// server-site operators are free per the paper's assumption).
    pub elapsed_us: u64,
    /// Total downlink bytes.
    pub down_bytes: u64,
    /// Total uplink bytes.
    pub up_bytes: u64,
    /// Total client CPU, µs.
    pub client_cpu_us: u64,
    /// Downlink messages.
    pub down_messages: u64,
    /// Uplink messages.
    pub up_messages: u64,
    /// Number of client-site execution phases (ApplyUdf nodes).
    pub phases: usize,
}

impl SimSummary {
    /// Add one client-site phase: what its links carried, read once the
    /// operator over them has drained.
    pub(crate) fn absorb(&mut self, links: &VirtualLinks) {
        let (down, up) = (links.downlink(), links.uplink());
        self.elapsed_us += links.server_clock();
        self.down_bytes += down.bytes_sent();
        self.up_bytes += up.bytes_sent();
        self.client_cpu_us += links.work_us();
        self.down_messages += down.messages_sent();
        self.up_messages += up.messages_sent();
        self.phases += 1;
    }

    /// Elapsed time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_us as f64 / 1e6
    }
}

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
    /// The statement's virtual time: each client-site phase, then the rows'
    /// delivery over the database's downlink. Zero for DDL and DML.
    pub sim: SimSummary,
}

impl QueryResult {
    /// An empty (DDL) result.
    pub fn empty() -> QueryResult {
        QueryResult::count(0)
    }

    /// A DML result affecting `n` rows.
    pub fn count(n: usize) -> QueryResult {
        QueryResult {
            schema: Schema::empty(),
            rows: vec![],
            affected: n,
            sim: SimSummary::default(),
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
    /// A SELECT's client-site phases, its delivery not yet added; `None`
    /// for a write, which crosses no modelled link.
    pub(crate) sim: Option<SimSummary>,
}

impl ResultBatches {
    /// The answer to a write that stored `n` rows: no columns, no batches.
    pub(crate) fn count(n: usize) -> ResultBatches {
        ResultBatches {
            schema: Schema::empty(),
            batches: Vec::new(),
            affected: n,
            sim: None,
        }
    }

    /// Rows in the result.
    pub(crate) fn len(&self) -> usize {
        self.batches.iter().map(RowBatch::len).sum()
    }

    /// The rows, in order. A SELECT's summary gains the final delivery over
    /// `net`: one message of the row count and the rows as the codec writes
    /// them, sized without encoding them.
    pub(crate) fn into_result(self, net: &NetworkSpec) -> QueryResult {
        let mut rows = Vec::with_capacity(self.len());
        let mut sim = SimSummary::default();
        if let Some(phases) = self.sim {
            sim = phases;
            let size = |b: &RowBatch| codec::batch_rows_size(b, 0..b.len());
            let bytes = 4 + self.batches.iter().map(size).sum::<usize>();
            let mut down = net.make_downlink();
            let (_, arrival) = down.transmit(0, net.downlink_bytes(bytes));
            sim.elapsed_us += arrival;
            sim.down_bytes += down.bytes_sent();
            sim.down_messages += 1;
        }
        for batch in self.batches {
            rows.extend(batch.into_rows());
        }
        QueryResult {
            schema: self.schema,
            rows,
            affected: self.affected,
            sim,
        }
    }
}
