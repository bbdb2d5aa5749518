//! Optimizer metadata: table statistics, UDF signatures-with-costs, and the
//! network description.
//!
//! The server never holds client UDF *implementations* — only the metadata a
//! client advertises at session setup: argument/result types, expected
//! result size (`R`), and expected selectivity when used as a predicate.

use std::collections::HashMap;
use std::sync::Arc;

use csq_common::{CsqError, DataType, Result, Schema};
use csq_net::NetworkSpec;

/// Statistics for one base table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Unqualified schema, as in the catalog.
    pub schema: Schema,
    /// Row count.
    pub rows: f64,
    /// Average record wire size, bytes (the paper's `I`).
    pub row_bytes: f64,
    /// Average wire size of each column, bytes (for `A` and projection
    /// estimates); same order as the schema.
    pub col_bytes: Vec<f64>,
    /// Zone-map profile of the table's sealed segments (empty for synthetic
    /// stats): lets scan costing estimate how many segments a pushed filter
    /// prunes without touching the table. Shared with the table's own
    /// profile, so taking statistics copies no zone map.
    pub segments: Arc<Vec<csq_storage::SegmentZones>>,
}

impl TableStats {
    /// Estimated rows a scan actually touches under `spec`: rows of sealed
    /// segments the zone maps fail to prune, plus unsealed rows not covered
    /// by the profile. With no spec (or no profile) this is every row.
    pub fn scan_rows_after_pruning(&self, spec: Option<&csq_storage::FilterSpec>) -> f64 {
        let Some(spec) = spec else { return self.rows };
        let profiled: usize = self.segments.iter().map(|s| s.rows).sum();
        let surviving: usize = self
            .segments
            .iter()
            .filter(|s| !spec.prunes_zones(s))
            .map(|s| s.rows)
            .sum();
        surviving as f64 + (self.rows - profiled as f64)
    }

    /// Fraction of the record occupied by the given columns.
    pub fn fraction(&self, cols: &[usize]) -> f64 {
        if self.row_bytes <= 0.0 {
            return 1.0;
        }
        let sum: f64 = cols.iter().map(|&c| self.col_bytes[c]).sum();
        (sum / self.row_bytes).clamp(0.0, 1.0)
    }
}

/// Server-side metadata for a client-site UDF.
#[derive(Debug, Clone)]
pub struct UdfMeta {
    /// Function name.
    pub name: String,
    /// Argument types.
    pub arg_types: Vec<DataType>,
    /// Result type.
    pub return_type: DataType,
    /// Expected result wire size, bytes (`R`).
    pub result_bytes: f64,
    /// Expected selectivity when the result is compared in a predicate.
    pub selectivity: f64,
    /// True when the function must run at the client (the paper's subject);
    /// false would mean an ordinary server UDF (not optimized here).
    pub client_site: bool,
}

impl UdfMeta {
    /// Metadata with neutral defaults: 64-byte results, selectivity ⅓.
    pub fn client(name: &str, arg_types: Vec<DataType>, return_type: DataType) -> UdfMeta {
        UdfMeta {
            name: name.to_string(),
            arg_types,
            return_type,
            result_bytes: 64.0,
            selectivity: 1.0 / 3.0,
            client_site: true,
        }
    }

    /// Builder-style: expected result size.
    pub fn with_result_bytes(mut self, bytes: f64) -> UdfMeta {
        self.result_bytes = bytes;
        self
    }

    /// Builder-style: expected predicate selectivity.
    pub fn with_selectivity(mut self, s: f64) -> UdfMeta {
        self.selectivity = s;
        self
    }
}

/// Everything the optimizer needs to know about the environment.
#[derive(Debug, Clone)]
pub struct OptContext {
    tables: HashMap<String, TableStats>,
    udfs: HashMap<String, UdfMeta>,
    /// Per-column distinct-count overrides, keyed `table.column`
    /// (lowercase). Absent columns fall back to `sqrt(rows)` — the classic
    /// System-R default when no statistics exist.
    col_distincts: HashMap<String, f64>,
    /// The client↔server network.
    pub net: NetworkSpec,
    /// Server-side per-tuple processing cost in "byte-equivalents" — a small
    /// tie-breaker so plans with fewer server operators win among
    /// network-equal plans. The paper assumes server cost is negligible.
    pub server_tuple_cost: f64,
    /// Shard count of a coordinator context (DESIGN.md §13): `0` means this
    /// context describes a single-node engine (the default — plans are never
    /// wrapped in Scatter/Gather); `n ≥ 1` means tables are hash-partitioned
    /// across `n` server shards and the enumerator considers shard-set
    /// placements.
    pub shards: usize,
    /// Shard-key column per table (both lowercase) — the hash-partitioning
    /// column rows were routed by, used for shard pruning and the
    /// shard-partial legality check.
    shard_keys: HashMap<String, String>,
}

impl OptContext {
    /// Build with a network description.
    pub fn new(net: NetworkSpec) -> OptContext {
        OptContext {
            tables: HashMap::new(),
            udfs: HashMap::new(),
            col_distincts: HashMap::new(),
            net,
            server_tuple_cost: 0.01,
            shards: 0,
            shard_keys: HashMap::new(),
        }
    }

    /// Builder-style: mark this as a coordinator context over `shards`
    /// server shards (≥ 1). The single-node default is 0.
    pub fn with_shards(mut self, shards: usize) -> OptContext {
        self.shards = shards;
        self
    }

    /// True when this context describes a sharded (coordinator) deployment.
    pub fn sharded(&self) -> bool {
        self.shards >= 1
    }

    /// Record the hash-partitioning column of a sharded table.
    pub fn set_shard_key(&mut self, table: &str, column: &str) {
        self.shard_keys
            .insert(table.to_ascii_lowercase(), column.to_ascii_lowercase());
    }

    /// The shard-key column of `table`, if the table is hash-sharded.
    pub fn shard_key(&self, table: &str) -> Option<&str> {
        self.shard_keys
            .get(&table.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// Record the distinct-value count of `table.column` (drives the
    /// grouped-aggregation group-count estimate).
    pub fn set_col_distinct(&mut self, table: &str, column: &str, distinct: f64) {
        self.col_distincts.insert(
            format!(
                "{}.{}",
                table.to_ascii_lowercase(),
                column.to_ascii_lowercase()
            ),
            distinct.max(1.0),
        );
    }

    /// Distinct-value count of `table.column`: the recorded statistic, or
    /// `sqrt(rows)` when none exists.
    pub fn col_distinct(&self, table: &str, column: &str) -> f64 {
        let key = format!(
            "{}.{}",
            table.to_ascii_lowercase(),
            column.to_ascii_lowercase()
        );
        match self.col_distincts.get(&key) {
            Some(&d) => d,
            None => self
                .table(table)
                .map(|t| t.rows.sqrt().max(1.0))
                .unwrap_or(1.0),
        }
    }

    /// Register a table's statistics.
    pub fn add_table(&mut self, name: &str, stats: TableStats) {
        self.tables.insert(name.to_ascii_lowercase(), stats);
    }

    /// Register a client UDF's metadata.
    pub fn add_udf(&mut self, meta: UdfMeta) {
        self.udfs.insert(meta.name.to_ascii_lowercase(), meta);
    }

    /// Look up table statistics.
    pub fn table(&self, name: &str) -> Result<&TableStats> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| CsqError::Catalog(format!("optimizer: unknown table '{name}'")))
    }

    /// Look up UDF metadata.
    pub fn udf(&self, name: &str) -> Result<&UdfMeta> {
        self.udfs
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| CsqError::Catalog(format!("optimizer: unknown UDF '{name}'")))
    }

    /// True when `name` is a registered client-site UDF.
    pub fn is_client_udf(&self, name: &str) -> bool {
        self.udfs
            .get(&name.to_ascii_lowercase())
            .is_some_and(|u| u.client_site)
    }
}

/// [`TableStats`] of an actual in-memory table: a conversion of the
/// table's running [`csq_storage::TableProfile`], O(width) whatever the
/// table's size. The sums are integers, so the averages are exactly what a
/// walk over every row would produce.
pub fn stats_from_table(table: &csq_storage::Table) -> TableStats {
    let profile = table.profile();
    let n = profile.rows.max(1) as f64;
    let total: u64 = profile.col_wire_bytes.iter().sum();
    TableStats {
        schema: table.schema().clone(),
        rows: profile.rows as f64,
        row_bytes: total as f64 / n,
        col_bytes: profile
            .col_wire_bytes
            .iter()
            .map(|&b| b as f64 / n)
            .collect(),
        segments: profile.segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::{Blob, Row, Value};
    use csq_storage::TableBuilder;

    #[test]
    fn stats_from_table_measures_columns() {
        let t = TableBuilder::new("t")
            .column("name", DataType::Str)
            .column("obj", DataType::Blob)
            .row(vec![
                Value::from("abcde"),                // wire 10
                Value::Blob(Blob::synthetic(95, 1)), // wire 100
            ])
            .build()
            .unwrap();
        let s = stats_from_table(&t);
        assert_eq!(s.rows, 1.0);
        assert_eq!(s.row_bytes, 110.0);
        assert_eq!(s.col_bytes, vec![10.0, 100.0]);
        assert!((s.fraction(&[1]) - 100.0 / 110.0).abs() < 1e-9);
        assert!(s.segments.is_empty());
    }

    #[test]
    fn context_lookup_case_insensitive() {
        let mut ctx = OptContext::new(NetworkSpec::lan());
        ctx.add_udf(UdfMeta::client(
            "ClientAnalysis",
            vec![DataType::Blob],
            DataType::Int,
        ));
        assert!(ctx.udf("clientanalysis").is_ok());
        assert!(ctx.is_client_udf("CLIENTANALYSIS"));
        assert!(ctx.udf("nope").is_err());
        let _ = Row::new(vec![]); // silence unused import in some cfgs
    }
}
