//! `udf_ship`: the paper's path — the Figure 1 query in-process from one
//! thread, under a modem (the optimizer ships arguments: semi-join), then
//! its variant that returns the argument column itself under an asymmetric
//! cable link with large advertised results (the optimizer ships whole
//! records once and merges with the final delivery: client-site join).
//!
//! Time goes to `csq-ship` senders/receivers and duplicate elimination,
//! blob encode/decode in `csq-common::codec`, `csq-client` task execution
//! and UDF evaluation, and a full optimize per statement
//! (`Database::execute` never uses the plan cache). Service, sockets and
//! coordinator do nothing.

use std::sync::Arc;

use csq_client::synthetic::RatingUdf;
use csq_client::{spawn_client, ClientRuntime, ScalarUdf};
use csq_common::{Blob, DataType, Field, Row, Value};
use csq_core::{Database, NetworkSpec, UdfMeta};
use csq_exec::{collect, RowsOp};
use csq_expr::{BinaryOp, PhysExpr};
use csq_net::in_memory_duplex;
use csq_ship::{
    ClientJoinSpec, SemiJoinSpec, ThreadedClientJoin, ThreadedSemiJoin, UdfApplication,
};
use csq_storage::{Table, TableBuilder};

use crate::harness::{ClientTally, Counters, OpRecord, PhaseTotals, SpanId, Trace, Workload};
use crate::layers::{
    plancache_counters, probe_exec, probe_plan, set_plan_metrics, set_plancache_counts,
    set_scan_metrics, set_span_us, ScanTarget,
};
use crate::metrics::{mix64, Digest, Report, Shuffle};

const ROWS: u64 = 2_000;
/// Distinct `Quotes` objects: each is shared by four rows (D = 0.25).
const DISTINCT_QUOTES: u64 = 500;
const QUOTES_BYTES: usize = 1_000;
const REPORT_BYTES: usize = 200;
const RATING_BUCKETS: i64 = 1_000;
/// The threaded engine's pipeline concurrency factor (`csq_core::lower`).
const CONCURRENCY: usize = 16;
/// `[semi-join query (Figure 1), client-site-join query]`: the second
/// returns `S.Quotes`, so the record has to reach the client anyway.
const QUERIES: [&str; 2] = [
    "SELECT S.Name, S.Report FROM StockQuotes S \
     WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500",
    "SELECT S.Name, S.Quotes FROM StockQuotes S \
     WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500",
];
const SEMIJOIN: usize = 0;
const CLIENTJOIN: usize = 1;

/// The world: the same table in two databases whose networks make the
/// optimizer choose the two shipping strategies.
pub struct UdfShip {
    /// `[semi-join database, client-site-join database]`.
    dbs: [Database; 2],
    tables: [Arc<Table>; 2],
    expect: [Digest; 2],
    /// Rows that pass the server-side predicate: what reaches the shipping
    /// operator.
    shipped_input: Vec<Row>,
    /// Distinct `Quotes` among them: what the client evaluates.
    distinct_args: Vec<Value>,
}

/// The single in-process caller has no state of its own.
pub struct Client {
    tally: ClientTally,
}

fn build_table(seed: u64) -> Table {
    // `Change` is a seeded bijection of the ordinal reduced mod 40, so the
    // server predicate `Change / 100 > 0.2` passes exactly 19/40 of the
    // rows on every seed; which rows, and every blob, move with the seed.
    let shuffle = Shuffle::new(seed, ROWS);
    let mut b = TableBuilder::new("StockQuotes")
        .column("Name", DataType::Str)
        .column("Change", DataType::Float)
        .column("Close", DataType::Float)
        .column("Quotes", DataType::Blob)
        .column("Report", DataType::Blob);
    for i in 0..ROWS {
        b = b.row(vec![
            Value::from(format!("company{i:04}")),
            Value::Float((shuffle.at(i) % 40) as f64),
            Value::Float(100.0),
            Value::Blob(Blob::synthetic(
                QUOTES_BYTES,
                mix64(seed) ^ (i % DISTINCT_QUOTES),
            )),
            Value::Blob(Blob::synthetic(REPORT_BYTES, mix64(seed ^ 0xfeed) ^ i)),
        ]);
    }
    b.build().expect("build StockQuotes")
}

fn analysis_udf() -> Arc<dyn ScalarUdf> {
    Arc::new(RatingUdf::new("ClientAnalysis", RATING_BUCKETS))
}

fn analysis_application() -> UdfApplication {
    UdfApplication::new(
        "ClientAnalysis",
        vec![3],
        Field::new("ClientAnalysis", DataType::Int),
    )
}

impl UdfShip {
    /// Drive one shipping strategy directly over an in-memory duplex with a
    /// row source as input — no SQL, no scan — and the client's UDF
    /// evaluation alone as its attributed child.
    fn probe_ship(&self, trace: &mut Trace, class: usize, parent: SpanId) {
        let runtime = Arc::new(ClientRuntime::new());
        runtime.register(analysis_udf()).expect("register UDF");
        let schema = self.tables[class].schema().qualify("S");
        let input = Box::new(RowsOp::new(schema, self.shipped_input.clone()));
        let name = ["ship.semijoin", "ship.clientjoin"][class];
        let span = trace.begin(name, Some(parent));
        let (server, client, stats) = in_memory_duplex();
        let client = spawn_client(runtime.clone(), client).expect("spawn client");
        let rows = if class == SEMIJOIN {
            let spec = SemiJoinSpec::new(vec![analysis_application()], CONCURRENCY);
            let mut op = ThreadedSemiJoin::new(input, spec, server).expect("semi-join");
            collect(&mut op).expect("semi-join runs")
        } else {
            let mut spec = ClientJoinSpec::new(vec![analysis_application()]);
            spec.pushed_predicate = Some(PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(5)),
                op: BinaryOp::Gt,
                right: Box::new(PhysExpr::Literal(Value::Int(500))),
            });
            let mut op = ThreadedClientJoin::new(input, spec, server).expect("client join");
            collect(&mut op).expect("client join runs")
        };
        client
            .join()
            .expect("client thread")
            .expect("client loop ends cleanly");
        trace.end(span);
        std::hint::black_box(rows);
        trace.derive("ship.down_bytes", stats.down_bytes() as f64);
        trace.derive("ship.up_bytes", stats.up_bytes() as f64);
        trace.derive(
            "ship.messages",
            (stats.down_messages() + stats.up_messages()) as f64,
        );
        let args: Vec<&[Value]> = self
            .distinct_args
            .iter()
            .map(std::slice::from_ref)
            .collect();
        trace.time("client.udf", Some(span), || {
            std::hint::black_box(runtime.invoke_batch("ClientAnalysis", &args)).expect("UDF batch");
        });
    }
}

impl Workload for UdfShip {
    const NAME: &'static str = "udf_ship";
    const CLIENTS: usize = 1;
    const CLASSES: &'static [(&'static str, &'static str)] = &[
        ("stmt.semijoin", "stmt.semijoin_p50_ms"),
        ("stmt.clientjoin", "stmt.clientjoin_p50_ms"),
    ];
    type Client = Client;

    fn setup(seed: u64) -> UdfShip {
        let dbs = [
            Database::new(NetworkSpec::modem_28_8()),
            Database::new(NetworkSpec::cable_asymmetric()),
        ];
        let tables = [0, 1].map(|i| {
            dbs[i]
                .catalog()
                .register(build_table(seed))
                .expect("register StockQuotes")
        });
        for db in &dbs {
            db.register_udf(analysis_udf()).expect("register UDF");
        }
        // Large advertised results and a selective predicate tip the
        // asymmetric link towards shipping whole records (as in
        // examples/optimizer_explain.rs).
        dbs[CLIENTJOIN].advertise_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(20_000.0)
                .with_selectivity(0.01),
        );
        // Prove both strategies run before measuring anything.
        for (class, marker) in ["[semi-join", "[client-site join"].into_iter().enumerate() {
            let plan = dbs[class].explain(QUERIES[class]).expect("explain");
            assert!(
                plan.contains(marker),
                "udf_ship needs a plan with '{marker}', the optimizer chose:\n{plan}"
            );
        }

        // Oracle: the snapshot, the predicate in plain Rust, the UDF called
        // directly.
        let udf = analysis_udf();
        let mut expect = [Digest::default(); 2];
        let mut shipped_input = Vec::new();
        let mut distinct_args: Vec<Value> = Vec::new();
        let mut seen_args = std::collections::HashSet::new();
        for row in tables[0].snapshot() {
            let v = row.values();
            let (Value::Float(change), Value::Float(close)) = (&v[1], &v[2]) else {
                panic!("Change and Close are floats");
            };
            if change / close > 0.2 {
                if seen_args.insert(v[3].clone()) {
                    distinct_args.push(v[3].clone());
                }
                let rating = udf.invoke(&v[3..4]).expect("UDF on a blob");
                if matches!(rating, Value::Int(r) if r > 500) {
                    expect[SEMIJOIN].add(&[v[0].clone(), v[4].clone()]);
                    expect[CLIENTJOIN].add(&[v[0].clone(), v[3].clone()]);
                }
                shipped_input.push(row);
            }
        }
        assert_eq!(shipped_input.len() as u64, ROWS * 19 / 40);
        UdfShip {
            dbs,
            tables,
            expect,
            shipped_input,
            distinct_args,
        }
    }

    fn teardown(self) {}

    fn client(&self, _idx: usize) -> Client {
        Client {
            tally: ClientTally::default(),
        }
    }

    fn op(&self, c: &mut Client, _i: u64, rec: &mut OpRecord) {
        for class in [SEMIJOIN, CLIENTJOIN] {
            c.tally.statements += 1;
            rec.stmt(
                class,
                || self.dbs[class].execute(QUERIES[class]),
                |r| Digest::of(&r.rows) == self.expect[class],
            );
        }
    }

    fn tally(&self, c: &Client) -> ClientTally {
        c.tally
    }

    fn counters(&self) -> Counters {
        let mut c = vec![
            (
                "udf.invocations",
                self.dbs
                    .iter()
                    .map(|d| d.client_runtime().invocations())
                    .sum(),
            ),
            (
                "udf.cache_hits",
                self.dbs
                    .iter()
                    .map(|d| d.client_runtime().cache_hits())
                    .sum(),
            ),
        ];
        c.extend(plancache_counters(&self.dbs.each_ref()));
        Counters(c)
    }

    fn reconcile(&self, phase: &PhaseTotals) -> Vec<String> {
        // Every op ships the same rows, so the client's work per op is one
        // exact number; a remainder means an op did something else.
        let mut problems = Vec::new();
        for name in ["udf.invocations", "udf.cache_hits"] {
            if !phase.delta.get(name).is_multiple_of(phase.ops) {
                problems.push(format!(
                    "{name} moved by {} over {} ops: not a whole number per op",
                    phase.delta.get(name),
                    phase.ops
                ));
            }
        }
        if phase.tally.statements != 2 * phase.ops {
            problems.push(format!(
                "{} statements over {} ops",
                phase.tally.statements, phase.ops
            ));
        }
        problems
    }

    fn layer_counts(&self, phase: &PhaseTotals, report: &mut Report) {
        let ops = phase.ops;
        report.set(
            "client.invocations",
            phase.delta.get("udf.invocations") as f64 / ops as f64,
            ops,
        );
        report.set(
            "client.cache_hits",
            phase.delta.get("udf.cache_hits") as f64 / ops as f64,
            ops,
        );
        set_plancache_counts(phase, report);
        // The paper's own metric: virtual time and bytes over the modelled
        // links. Exact; moves only when the optimizer's choice or the bytes
        // shipped change.
        let (mut link_s, mut down, mut up) = (0.0, 0u64, 0u64);
        for (db, query) in self.dbs.iter().zip(QUERIES) {
            let (_, sim) = db.execute_simulated(query).expect("simulated run");
            link_s += sim.elapsed_secs();
            down += sim.down_bytes;
            up += sim.up_bytes;
        }
        report.set("ship.sim_link_s", link_s, 1);
        report.set("ship.sim_down_bytes", down as f64, 1);
        report.set("ship.sim_up_bytes", up as f64, 1);
    }

    fn replay(&self, _c: &mut Client, _i: u64, trace: &mut Trace) {
        for class in [SEMIJOIN, CLIENTJOIN] {
            probe_plan(trace, &self.dbs[class], QUERIES[class], None);
            let scan = ScanTarget {
                table: &self.tables[class],
                alias: "S",
                spec: None,
            };
            let (_, exec) = probe_exec(trace, &self.dbs[class], QUERIES[class], &scan, None);
            self.probe_ship(trace, class, exec);
        }
    }

    fn layer_timings(&self, trace: &Trace, _wire_us: f64, report: &mut Report) {
        set_plan_metrics(report, trace);
        set_scan_metrics(report, trace);
        set_span_us(report, trace, "ship.semijoin_us", "ship.semijoin");
        set_span_us(report, trace, "ship.clientjoin_us", "ship.clientjoin");
        set_span_us(report, trace, "client.udf_us", "client.udf");
        for name in ["ship.down_bytes", "ship.up_bytes", "ship.messages"] {
            let (v, n) = trace.derived_median(name);
            report.set(name, v, n);
        }
    }
}
