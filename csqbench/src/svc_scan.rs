//! `svc_scan`: two closed-loop connections executing two prepared scans.
//!
//! The plan is pinned by `Prepare`, so parse and plan do nothing; time goes
//! to `csq-storage` decode, `csq-exec` operators, result encode, frames and
//! client decode. This is where a column-major batch, a cheaper TCP path or
//! frame checksums must show or cost — and where parse/plan work must *not*.

use std::collections::BTreeMap;
use std::sync::Arc;

use csq_client::qproto::QueryRequest;
use csq_client::{ServiceConn, StatementHandle};
use csq_common::{DataType, Value};
use csq_core::{Database, NetworkSpec, ServiceHandle};
use csq_storage::{CmpOp, ColPred, FilterSpec, Table, TableBuilder};

use crate::harness::{ClientTally, Counters, OpRecord, PhaseTotals, Trace, Workload};
use crate::layers::{
    display_columns, probe_scan, probe_wire, reconcile_service, service_counters, set_scan_metrics,
    set_service_counts, set_service_metrics, set_wire_metrics, start_service, NetProbe, ScanTarget,
};
use crate::metrics::{mix64, Digest, Report, Shuffle};

const ROWS: u64 = 40_000;
const FILTER_SQL: &str = "SELECT T.Id, T.Sym, T.Val FROM T T WHERE T.Val > 89";
const AGG_SQL: &str = "SELECT T.Grp, count(*), sum(T.Val) FROM T T GROUP BY T.Grp";
const FILTER: usize = 0;
const AGG: usize = 1;

/// The world: one database behind one service, and the expected answers.
pub struct SvcScan {
    db: Arc<Database>,
    table: Arc<Table>,
    svc: ServiceHandle,
    expect: [Digest; 2],
    net: NetProbe,
}

/// One connection with both statements prepared.
pub struct Client {
    conn: ServiceConn,
    stmts: [StatementHandle; 2],
    tally: ClientTally,
}

/// `T(Id, Grp, Sym, Val)`. `Val` is a seeded bijection of the row ordinal
/// reduced mod 100, so every seed has exactly 400 rows per value (the
/// filter keeps exactly 10 %) while *which* rows match moves with the seed.
fn build_table(seed: u64) -> Table {
    let shuffle = Shuffle::new(seed, ROWS);
    let mut b = TableBuilder::new("T")
        .column("Id", DataType::Int)
        .column("Grp", DataType::Int)
        .column("Sym", DataType::Str)
        .column("Val", DataType::Int);
    for i in 0..ROWS {
        b = b.row(vec![
            Value::Int(i as i64),
            Value::Int((i % 64) as i64),
            Value::from(format!("SYM{:03}", mix64(seed ^ i) % 500)),
            Value::Int((shuffle.at(i) % 100) as i64),
        ]);
    }
    b.build().expect("benchmark table must build")
}

/// Expected answers by an independent path: the row-vector snapshot plus
/// plain Rust evaluation.
fn oracle(table: &Table) -> [Digest; 2] {
    let mut filter = Digest::default();
    let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for row in table.snapshot() {
        let v = row.values();
        let (Value::Int(grp), Value::Int(val)) = (&v[1], &v[3]) else {
            panic!("T holds integers in Grp and Val");
        };
        if *val > 89 {
            filter.add(&[v[0].clone(), v[2].clone(), v[3].clone()]);
        }
        let g = groups.entry(*grp).or_default();
        g.0 += 1;
        g.1 += val;
    }
    let mut agg = Digest::default();
    for (grp, (count, sum)) in groups {
        agg.add(&[Value::Int(grp), Value::Int(count), Value::Int(sum)]);
    }
    [filter, agg]
}

fn filter_spec() -> FilterSpec {
    FilterSpec {
        preds: vec![ColPred {
            col: 3,
            op: CmpOp::Gt,
            lit: Value::Int(89),
        }],
        complete: true,
    }
}

impl Workload for SvcScan {
    const NAME: &'static str = "svc_scan";
    const CLIENTS: usize = 2;
    const CLASSES: &'static [(&'static str, &'static str)] = &[
        ("stmt.filter", "stmt.filter_p50_ms"),
        ("stmt.agg", "stmt.agg_p50_ms"),
    ];
    type Client = Client;

    fn setup(seed: u64) -> SvcScan {
        let db = Arc::new(Database::new(NetworkSpec::lan()));
        let table = db
            .catalog()
            .register(build_table(seed))
            .expect("register T");
        let svc = start_service(db.clone());
        let expect = oracle(&table);
        assert_eq!(
            expect[FILTER].rows,
            ROWS / 10,
            "filter keeps 10 % by construction"
        );
        SvcScan {
            db,
            table,
            svc,
            expect,
            net: NetProbe::new(),
        }
    }

    fn teardown(self) {
        self.svc.shutdown();
    }

    fn client(&self, _idx: usize) -> Client {
        let mut conn = ServiceConn::connect(self.svc.local_addr()).expect("connect to service");
        let stmts = [FILTER_SQL, AGG_SQL].map(|sql| conn.prepare(sql).expect("prepare").0);
        Client {
            conn,
            stmts,
            tally: ClientTally::default(),
        }
    }

    fn op(&self, c: &mut Client, _i: u64, rec: &mut OpRecord) {
        for class in [FILTER, AGG] {
            c.tally.statements += 1;
            let answer = rec.stmt(
                class,
                || c.conn.execute(c.stmts[class]),
                |r| Digest::of(&r.rows) == self.expect[class],
            );
            if let Some(a) = answer {
                c.tally.plan_reused += a.plan_cache_hit as u64;
            }
        }
    }

    fn tally(&self, c: &Client) -> ClientTally {
        ClientTally {
            frames_up: c.conn.stats().up_messages(),
            frames_down: c.conn.stats().down_messages(),
            ..c.tally
        }
    }

    fn counters(&self) -> Counters {
        Counters(service_counters(&[&self.svc], &[&self.db]))
    }

    fn reconcile(&self, phase: &PhaseTotals) -> Vec<String> {
        reconcile_service(&phase.delta, phase.tally.statements, Some(&phase.tally))
    }

    fn layer_counts(&self, phase: &PhaseTotals, report: &mut Report) {
        set_service_counts(phase, report);
        report.set(
            "service.plan_reused_ratio",
            phase.tally.plan_reused as f64 / phase.tally.statements as f64,
            phase.tally.statements,
        );
    }

    fn replay(&self, _c: &mut Client, _i: u64, trace: &mut Trace) {
        let scans = [
            ScanTarget {
                table: &self.table,
                alias: "T",
                spec: Some(filter_spec()),
            },
            ScanTarget {
                table: &self.table,
                alias: "T",
                spec: None,
            },
        ];
        for (class, sql) in [FILTER_SQL, AGG_SQL].into_iter().enumerate() {
            // What the service does for an Execute: run the pinned plan.
            let (planned, _) = self.db.prepare(sql).expect("plan");
            let inproc = trace.begin("service.inproc", None);
            let exec = trace.begin("core.exec_inproc", None);
            let executed = self.db.execute_planned(&planned);
            trace.end(exec);
            trace.end(inproc);
            let (result, _, _) = executed.expect("in-process execute");
            trace.derive("exec.rows_out", result.rows.len() as f64);
            probe_scan(trace, &scans[class], Some(exec));
            let request = QueryRequest::Execute {
                // Handles are opaque; only the frame's size matters here.
                stmt: 0,
                deadline_ms: 0,
            };
            probe_wire(
                trace,
                &self.net,
                &request,
                display_columns(&result),
                &result.rows,
                0,
                None,
            );
        }
    }

    fn layer_timings(&self, trace: &Trace, wire_us: f64, report: &mut Report) {
        set_scan_metrics(report, trace);
        set_wire_metrics(report, trace);
        set_service_metrics(report, trace, wire_us);
    }
}
