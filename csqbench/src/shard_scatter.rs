//! `shard_scatter`: two shard services behind a `Coordinator`, one caller.
//!
//! The op is a shard-partial aggregate (`Gather [merge]`), a pushed-down
//! filter (`Gather [ordered]`) and four shard-key lookups that contact one
//! shard each. It waits for the slowest shard and then for the merge, so a
//! gain on one shard's statements shows in `coord.slowest_shard_us` before
//! it shows in the op. The table is loaded through the coordinator's routed
//! INSERT, so `setup_s` is that path, `render_insert` included.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use csq_client::qproto::QueryRequest;
use csq_client::ServiceConn;
use csq_common::{Row, Value};
use csq_core::{Coordinator, CoordinatorConfig, Database, NetworkSpec, ServiceHandle};
use csq_storage::{CmpOp, ColPred, FilterSpec, Table};

use crate::harness::{ClientTally, Counters, OpRecord, PhaseTotals, Trace, Workload};
use crate::layers::{
    display_columns, probe_exec, probe_plan, probe_wire, reconcile_service, service_counters,
    set_plan_metrics, set_scan_metrics, set_service_counts, set_wire_metrics, start_service,
    NetProbe, ScanTarget,
};
use crate::metrics::{mix64, Digest, Report, Shuffle};

const ROWS: u64 = 40_000;
const SHARDS: usize = 2;
const INSERT_BATCH: u64 = 500;
const PINNED_LOOKUPS: u64 = 4;
const CREATE: &str = "CREATE TABLE T (Id INT, Grp INT, Val INT)";
const AGG_SQL: &str = "SELECT T.Grp, count(*), sum(T.Val), avg(T.Val) FROM T T GROUP BY T.Grp";
/// What the coordinator sends each shard for `AGG_SQL`: group keys plus
/// decomposed aggregate state, AVG as SUM + COUNT (mirrors
/// `csq_core::coord::partial_agg_sql`, which is private).
const AGG_SHARD_SQL: &str = "SELECT T.Grp AS k0, COUNT(*) AS a0, SUM(T.Val) AS a1, \
                             SUM(T.Val) AS a2s, COUNT(T.Val) AS a2n FROM T T GROUP BY T.Grp";
const FILTER_SQL: &str = "SELECT T.Id, T.Val FROM T T WHERE T.Val > 94";
const AGG: usize = 0;
const FILTER: usize = 1;
const PINNED: usize = 2;
/// Per-shard statements one op implies: two scatters to every shard plus
/// the pinned lookups.
const FANOUT_PER_OP: u64 = 2 * SHARDS as u64 + PINNED_LOOKUPS;

/// The world: two shards, the coordinator, the expected answers.
pub struct ShardScatter {
    seed: u64,
    /// `Val` is this seeded bijection of `Id`, reduced mod 100: exactly 5 %
    /// of the rows pass `Val > 94` on every seed.
    val_shuffle: Shuffle,
    shard_dbs: Vec<Arc<Database>>,
    shard_tables: Vec<Arc<Table>>,
    services: Vec<ServiceHandle>,
    coord: Coordinator,
    expect_agg: Digest,
    expect_filter: Digest,
    /// `(Grp, Val)` by `Id`, from the shards' snapshots.
    by_id: BTreeMap<i64, (i64, i64)>,
    net: NetProbe,
}

/// The caller, plus one direct connection per shard for the
/// slowest-shard probe.
pub struct Client {
    direct: Vec<ServiceConn>,
    tally: ClientTally,
}

fn pinned_sql(id: u64) -> String {
    format!("SELECT T.Grp, T.Val FROM T T WHERE T.Id = {id}")
}

/// The shard owning `id`: the same `Value` hash the coordinator routes by.
fn shard_of(id: u64) -> usize {
    Row::new(vec![Value::Int(id as i64)]).partition_of(Some(&[0]), SHARDS)
}

impl ShardScatter {
    fn pinned_ids(&self, i: u64) -> Vec<u64> {
        let mut ids = Vec::with_capacity(PINNED_LOOKUPS as usize);
        let mut draw = 0u64;
        while (ids.len() as u64) < PINNED_LOOKUPS {
            let id = mix64(self.seed ^ mix64(i) ^ draw.wrapping_mul(0xA24B_AED4_963E_E407)) % ROWS;
            draw += 1;
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }

    fn expect_pinned(&self, id: u64) -> Digest {
        let mut d = Digest::default();
        if let Some((grp, val)) = self.by_id.get(&(id as i64)) {
            d.add(&[Value::Int(*grp), Value::Int(*val)]);
        }
        d
    }
}

impl Workload for ShardScatter {
    const NAME: &'static str = "shard_scatter";
    const CLIENTS: usize = 1;
    const CLASSES: &'static [(&'static str, &'static str)] = &[
        ("stmt.shard_agg", "stmt.shard_agg_p50_ms"),
        ("stmt.shard_filter", "stmt.shard_filter_p50_ms"),
        ("stmt.shard_pinned", "stmt.shard_pinned_p50_ms"),
    ];
    type Client = Client;

    fn setup(seed: u64) -> ShardScatter {
        let shard_dbs: Vec<Arc<Database>> = (0..SHARDS)
            .map(|_| Arc::new(Database::new(NetworkSpec::lan())))
            .collect();
        let services: Vec<ServiceHandle> = shard_dbs.iter().cloned().map(start_service).collect();
        let addrs: Vec<_> = services.iter().map(|s| s.local_addr()).collect();
        let coord = Coordinator::connect(&addrs, CoordinatorConfig::default())
            .expect("coordinator connects");
        coord.create_table(CREATE, "Id").expect("sharded CREATE");
        let mut world = ShardScatter {
            seed,
            val_shuffle: Shuffle::new(seed, ROWS),
            shard_dbs,
            shard_tables: Vec::new(),
            services,
            coord,
            expect_agg: Digest::default(),
            expect_filter: Digest::default(),
            by_id: BTreeMap::new(),
            net: NetProbe::new(),
        };
        for first in (0..ROWS).step_by(INSERT_BATCH as usize) {
            let values: Vec<String> = (first..first + INSERT_BATCH)
                .map(|id| format!("({id}, {}, {})", id % 64, world.val_shuffle.at(id) % 100))
                .collect();
            world
                .coord
                .execute(&format!("INSERT INTO T VALUES {}", values.join(", ")))
                .expect("routed INSERT");
        }

        // Oracle: what the shards actually hold (their row-vector
        // snapshots), evaluated in plain Rust — routing and the routed
        // INSERT are under test too.
        world.shard_tables = world
            .shard_dbs
            .iter()
            .map(|db| db.catalog().get("T").expect("shard holds T"))
            .collect();
        let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
        for (shard, table) in world.shard_tables.iter().enumerate() {
            for row in table.snapshot() {
                let [Value::Int(id), Value::Int(grp), Value::Int(val)] = row.values() else {
                    panic!("T holds three integers");
                };
                assert_eq!(
                    shard_of(*id as u64),
                    shard,
                    "row {id} is on the wrong shard"
                );
                world.by_id.insert(*id, (*grp, *val));
                if *val > 94 {
                    world
                        .expect_filter
                        .add(&[Value::Int(*id), Value::Int(*val)]);
                }
                let g = groups.entry(*grp).or_default();
                g.0 += 1;
                g.1 += val;
            }
        }
        assert_eq!(
            world.by_id.len() as u64,
            ROWS,
            "every routed row arrived once"
        );
        assert_eq!(world.expect_filter.rows, ROWS / 20);
        for (grp, (count, sum)) in groups {
            world.expect_agg.add(&[
                Value::Int(grp),
                Value::Int(count),
                Value::Int(sum),
                Value::Float(sum as f64 / count as f64),
            ]);
        }
        for (sql, marker) in [
            (AGG_SQL, "Gather [merge]"),
            (FILTER_SQL, "Gather [ordered]"),
        ] {
            let plan = world.coord.explain(sql).expect("coordinator explain");
            assert!(
                plan.contains(marker),
                "shard_scatter needs '{marker}' for {sql}, the coordinator chose:\n{plan}"
            );
        }
        world
    }

    fn teardown(self) {
        drop(self.coord);
        for svc in self.services {
            svc.shutdown();
        }
    }

    fn client(&self, _idx: usize) -> Client {
        Client {
            direct: self
                .services
                .iter()
                .map(|s| ServiceConn::connect(s.local_addr()).expect("direct shard connection"))
                .collect(),
            tally: ClientTally::default(),
        }
    }

    fn op(&self, c: &mut Client, i: u64, rec: &mut OpRecord) {
        c.tally.statements += 2 + PINNED_LOOKUPS;
        rec.stmt(
            AGG,
            || self.coord.execute(AGG_SQL),
            |r| Digest::of(&r.rows) == self.expect_agg,
        );
        rec.stmt(
            FILTER,
            || self.coord.execute(FILTER_SQL),
            |r| Digest::of(&r.rows) == self.expect_filter,
        );
        for id in self.pinned_ids(i) {
            let expect = self.expect_pinned(id);
            rec.stmt(
                PINNED,
                || self.coord.execute(&pinned_sql(id)),
                |r| Digest::of(&r.rows) == expect,
            );
        }
    }

    fn tally(&self, c: &Client) -> ClientTally {
        c.tally
    }

    fn counters(&self) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let services: Vec<&ServiceHandle> = self.services.iter().collect();
        let dbs: Vec<&Database> = self.shard_dbs.iter().map(|d| d.as_ref()).collect();
        let mut c = service_counters(&services, &dbs);
        let s = self.coord.stats();
        c.extend([
            ("coord.queries", s.queries.load(Relaxed)),
            ("coord.shard_statements", s.shard_statements.load(Relaxed)),
            ("coord.shards_pruned", s.shards_pruned.load(Relaxed)),
            ("coord.plan_cache_hits", s.plan_cache_hits.load(Relaxed)),
            ("coord.shard_failures", s.shard_failures.load(Relaxed)),
        ]);
        Counters(c)
    }

    fn reconcile(&self, phase: &PhaseTotals) -> Vec<String> {
        let d = &phase.delta;
        let fanout = FANOUT_PER_OP * phase.ops;
        // The shards' own books first: every per-shard statement is in one
        // outcome bucket. (Frames are read by the coordinator's pools, which
        // keep no client-side count, so only the server side is checked.)
        let mut problems = reconcile_service(d, fanout, None);
        if d.get("coord.shard_statements") != fanout {
            problems.push(format!(
                "CoordStats.shard_statements moved by {}, the schedule implies {fanout}",
                d.get("coord.shard_statements")
            ));
        }
        if d.get("coord.queries") != phase.tally.statements {
            problems.push(format!(
                "CoordStats.queries moved by {}, {} statements were issued",
                d.get("coord.queries"),
                phase.tally.statements
            ));
        }
        problems
    }

    fn layer_counts(&self, phase: &PhaseTotals, report: &mut Report) {
        set_service_counts(phase, report);
        let ops = phase.ops;
        for name in [
            "coord.shard_statements",
            "coord.shards_pruned",
            "coord.plan_cache_hits",
            "coord.shard_failures",
        ] {
            report.set(name, phase.delta.get(name) as f64 / ops as f64, ops);
        }
    }

    fn replay(&self, c: &mut Client, i: u64, trace: &mut Trace) {
        // (per-shard SQL, shards contacted, scan filter, replans on the shard)
        let mut statements: Vec<(String, Vec<usize>, Option<FilterSpec>, bool)> = vec![
            (
                AGG_SHARD_SQL.to_string(),
                (0..SHARDS).collect(),
                None,
                false,
            ),
            (
                FILTER_SQL.to_string(),
                (0..SHARDS).collect(),
                Some(val_spec(2, CmpOp::Gt, 94)),
                false,
            ),
        ];
        for id in self.pinned_ids(i) {
            statements.push((
                pinned_sql(id),
                vec![shard_of(id)],
                Some(val_spec(0, CmpOp::Eq, id as i64)),
                true,
            ));
        }
        for (sql, shards, spec, fresh_text) in statements {
            // The statement straight at each contacted shard, one after the
            // other so they do not contend: the slowest is what the
            // coordinator has to wait for.
            // The first is the span the shard's layers are attributed to;
            // the others ran beside it in the real op, so they are peers,
            // not additional time.
            let mut slowest_us = 0.0f64;
            let mut direct = None;
            for (nth, &shard) in shards.iter().enumerate() {
                let name = if nth == 0 {
                    "coord.shard_direct"
                } else {
                    "coord.shard_peer"
                };
                let started = Instant::now();
                let span = trace.begin(name, None);
                c.direct[shard].query(&sql).expect("direct shard statement");
                trace.end(span);
                slowest_us = slowest_us.max(started.elapsed().as_secs_f64() * 1e6);
                direct = direct.or(Some(span));
            }
            trace.derive("coord.slowest_shard_us", slowest_us);

            // That first shard's layers, in-process.
            let shard = shards[0];
            let db = &self.shard_dbs[shard];
            if fresh_text {
                // A new literal misses the shard's plan cache.
                probe_plan(trace, db, &sql, direct);
            }
            let scan = ScanTarget {
                table: &self.shard_tables[shard],
                alias: "T",
                spec,
            };
            let (result, _) = probe_exec(trace, db, &sql, &scan, direct);
            let request = QueryRequest::Query {
                sql: sql.clone(),
                deadline_ms: 0,
            };
            probe_wire(
                trace,
                &self.net,
                &request,
                display_columns(&result),
                &result.rows,
                0,
                direct,
            );
        }
    }

    fn layer_timings(&self, trace: &Trace, wire_us: f64, report: &mut Report) {
        set_plan_metrics(report, trace);
        set_scan_metrics(report, trace);
        set_wire_metrics(report, trace);
        let (slowest, n) = trace.derived_median("coord.slowest_shard_us");
        report.set("coord.slowest_shard_us", slowest, n);
        report.set("coord.overhead_us", wire_us - slowest, n);
    }
}

fn val_spec(col: usize, op: CmpOp, lit: i64) -> FilterSpec {
    FilterSpec {
        preds: vec![ColPred {
            col,
            op,
            lit: Value::Int(lit),
        }],
        complete: true,
    }
}
