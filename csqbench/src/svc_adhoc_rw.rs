//! `svc_adhoc_rw`: two closed-loop connections sending only ad-hoc text —
//! an INSERT, four point reads with fresh literals, one range aggregate.
//!
//! Every INSERT bumps the plan epoch and every literal is new, so each
//! SELECT is a plan-cache miss: `csq-sql`, `csq-opt`/`csq-cost`, the plan
//! cache, zone-map pruning and the per-statement service hand-off do the
//! work while result sets stay tiny — the mirror image of `svc_scan`. It is
//! also the writes-beside-reads workload: insert, seal and tail scan share
//! `csq-storage` with the reads.

use std::collections::BTreeMap;
use std::sync::Arc;

use csq_client::qproto::QueryRequest;
use csq_client::ServiceConn;
use csq_common::{DataType, Field, Row, Schema, Value};
use csq_core::{CancelToken, Database, NetworkSpec, ServiceHandle};
use csq_storage::{CmpOp, ColPred, FilterSpec, Table, TableBuilder};

use crate::harness::{ClientTally, Counters, OpRecord, PhaseTotals, Trace, Workload};
use crate::layers::{
    display_columns, probe_exec, probe_parse, probe_plan, probe_wire, reconcile_service,
    service_counters, set_plan_metrics, set_scan_metrics, set_service_counts, set_service_metrics,
    set_span_us, set_wire_metrics, start_service, NetProbe, ScanTarget,
};
use crate::metrics::{mix64, Digest, Report};

const PRELOADED: u64 = 40_000;
const GROUPS: u64 = 16;
const INSERT_ROWS: u64 = 16;
const POINT_READS: u64 = 4;
/// The range aggregate covers this client's most recently inserted keys.
const RANGE_KEYS: u64 = 800;
const INSERT: usize = 0;
const POINT: usize = 1;
const RANGE: usize = 2;

/// The world: table `M(K, G, V)` behind one service. `V` is a pure function
/// of the seed and `K`, which is the whole oracle: the generator's model
/// knows every row that exists, preloaded or inserted.
pub struct SvcAdhocRw {
    seed: u64,
    db: Arc<Database>,
    table: Arc<Table>,
    svc: ServiceHandle,
    /// Takes the replayed inserts; outside the catalog so that replays do
    /// not grow what the planner's statistics pass has to read.
    probe_table: Table,
    net: NetProbe,
}

/// One ad-hoc connection; `idx` fixes its key range and its share of the
/// preloaded keys.
pub struct Client {
    idx: u64,
    conn: ServiceConn,
    tally: ClientTally,
}

fn v_of(seed: u64, k: u64) -> i64 {
    (mix64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 1000) as i64
}

fn row_of(seed: u64, k: u64) -> [Value; 3] {
    [
        Value::Int(k as i64),
        Value::Int((k % GROUPS) as i64),
        Value::Int(v_of(seed, k)),
    ]
}

/// First key of client `idx`'s private insert range.
fn base_of(idx: u64) -> u64 {
    1_000_000 * (idx + 1)
}

/// The statements of op `i` of client `idx`, with the model's answer for
/// each SELECT.
struct OpPlan {
    insert_sql: String,
    insert_keys: std::ops::Range<u64>,
    points: Vec<(String, u64)>,
    range_sql: String,
    range: std::ops::Range<u64>,
}

impl SvcAdhocRw {
    fn plan_op(&self, idx: u64, i: u64) -> OpPlan {
        let base = base_of(idx);
        let first = base + i * INSERT_ROWS;
        let insert_keys = first..first + INSERT_ROWS;
        let values: Vec<String> = insert_keys
            .clone()
            .map(|k| format!("({k}, {}, {})", k % GROUPS, v_of(self.seed, k)))
            .collect();
        // Point reads: half from this client's share of the preloaded rows
        // (sealed segments), half from rows it inserted itself, this op's
        // included (the unsealed tail). Keys within an op are distinct and
        // the two clients' key sets are disjoint, so no text ever repeats
        // under one plan epoch.
        let mut keys: Vec<u64> = Vec::with_capacity(POINT_READS as usize);
        let mut draw = 0u64;
        while (keys.len() as u64) < POINT_READS {
            let r =
                mix64(self.seed ^ mix64(idx << 32 | i) ^ draw.wrapping_mul(0xA24B_AED4_963E_E407));
            draw += 1;
            let k = if r & 1 == 0 {
                let slots = PRELOADED / Self::CLIENTS as u64;
                ((r >> 1) % slots) * Self::CLIENTS as u64 + idx
            } else {
                base + (r >> 1) % (insert_keys.end - base)
            };
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
        let range = insert_keys.end.saturating_sub(RANGE_KEYS).max(base)..insert_keys.end;
        OpPlan {
            insert_sql: format!("INSERT INTO M VALUES {}", values.join(", ")),
            insert_keys,
            points: keys
                .into_iter()
                .map(|k| (format!("SELECT M.V FROM M M WHERE M.K = {k}"), k))
                .collect(),
            range_sql: format!(
                "SELECT M.G, count(*), sum(M.V) FROM M M WHERE M.K >= {} AND M.K < {} GROUP BY M.G",
                range.start, range.end
            ),
            range,
        }
    }

    fn expect_point(&self, k: u64) -> Digest {
        let mut d = Digest::default();
        d.add(&[Value::Int(v_of(self.seed, k))]);
        d
    }

    fn expect_range(&self, keys: std::ops::Range<u64>) -> Digest {
        let mut groups: BTreeMap<u64, (i64, i64)> = BTreeMap::new();
        for k in keys {
            let g = groups.entry(k % GROUPS).or_default();
            g.0 += 1;
            g.1 += v_of(self.seed, k);
        }
        let mut d = Digest::default();
        for (g, (count, sum)) in groups {
            d.add(&[Value::Int(g as i64), Value::Int(count), Value::Int(sum)]);
        }
        d
    }
}

fn m_schema() -> Schema {
    Schema::new(vec![
        Field::new("K", DataType::Int),
        Field::new("G", DataType::Int),
        Field::new("V", DataType::Int),
    ])
}

fn key_spec(preds: &[(CmpOp, u64)]) -> FilterSpec {
    FilterSpec {
        preds: preds
            .iter()
            .map(|&(op, k)| ColPred {
                col: 0,
                op,
                lit: Value::Int(k as i64),
            })
            .collect(),
        complete: true,
    }
}

impl Workload for SvcAdhocRw {
    const NAME: &'static str = "svc_adhoc_rw";
    const CLIENTS: usize = 2;
    const CLASSES: &'static [(&'static str, &'static str)] = &[
        ("stmt.insert", "stmt.insert_p50_ms"),
        ("stmt.point", "stmt.point_p50_ms"),
        ("stmt.range", "stmt.range_p50_ms"),
    ];
    type Client = Client;

    fn setup(seed: u64) -> SvcAdhocRw {
        let db = Arc::new(Database::new(NetworkSpec::lan()));
        let mut b = TableBuilder::new("M")
            .column("K", DataType::Int)
            .column("G", DataType::Int)
            .column("V", DataType::Int);
        for k in 0..PRELOADED {
            b = b.row(row_of(seed, k).to_vec());
        }
        let table = db
            .catalog()
            .register(b.build().expect("build M"))
            .expect("register M");
        // The oracle is the generator's model; hold the loaded table to it
        // once, by the row-vector snapshot.
        let mut loaded = Digest::default();
        let mut model = Digest::default();
        for (k, row) in table.snapshot().iter().enumerate() {
            loaded.add(row.values());
            model.add(&row_of(seed, k as u64));
        }
        assert_eq!(
            loaded, model,
            "preloaded M must equal the generator's model"
        );
        let svc = start_service(db.clone());
        SvcAdhocRw {
            seed,
            db,
            table,
            svc,
            probe_table: Table::new("P", m_schema()).expect("probe table"),
            net: NetProbe::new(),
        }
    }

    fn teardown(self) {
        self.svc.shutdown();
    }

    fn client(&self, idx: usize) -> Client {
        Client {
            idx: idx as u64,
            conn: ServiceConn::connect(self.svc.local_addr()).expect("connect to service"),
            tally: ClientTally::default(),
        }
    }

    fn op(&self, c: &mut Client, i: u64, rec: &mut OpRecord) {
        let plan = self.plan_op(c.idx, i);
        let mut send =
            |class: usize, sql: &str, check: &dyn Fn(&csq_client::RemoteResult) -> bool| {
                c.tally.statements += 1;
                if let Some(a) = rec.stmt(class, || c.conn.query(sql), |r| check(r)) {
                    c.tally.plan_reused += a.plan_cache_hit as u64;
                }
            };
        send(INSERT, &plan.insert_sql, &|r| r.affected == INSERT_ROWS);
        for (sql, k) in &plan.points {
            let expect = self.expect_point(*k);
            send(POINT, sql, &|r| Digest::of(&r.rows) == expect);
        }
        let expect = self.expect_range(plan.range.clone());
        send(RANGE, &plan.range_sql, &|r| Digest::of(&r.rows) == expect);
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

    fn replay(&self, c: &mut Client, i: u64, trace: &mut Trace) {
        let plan = self.plan_op(c.idx, i);
        let insert_rows = |keys: std::ops::Range<u64>| -> Vec<Row> {
            keys.map(|k| Row::new(row_of(self.seed, k).to_vec()))
                .collect()
        };
        let selects: Vec<(&str, FilterSpec)> = plan
            .points
            .iter()
            .map(|(sql, k)| (sql.as_str(), key_spec(&[(CmpOp::Eq, *k)])))
            .chain(std::iter::once((
                plan.range_sql.as_str(),
                key_spec(&[(CmpOp::GtEq, plan.range.start), (CmpOp::Lt, plan.range.end)]),
            )))
            .collect();

        // The whole op in-process, as the service runs it for ad-hoc text:
        // the INSERT parses and appends (on the probe table, so M is left
        // to the real op), and each SELECT misses the plan cache — the
        // epoch bump stands in for the INSERT's.
        let inproc = trace.begin("service.inproc", None);
        csq_sql::parse_statement(&plan.insert_sql).expect("INSERT parses");
        self.probe_table
            .insert_all(insert_rows(plan.insert_keys.clone()))
            .expect("probe insert");
        self.db.set_network(self.db.network());
        for (sql, _) in &selects {
            let (_, hit) = self
                .db
                .execute_cached_with(sql, &CancelToken::new())
                .expect("in-process SELECT");
            assert!(!hit, "replayed SELECT must miss like the real one");
        }
        trace.end(inproc);

        // The same op layer by layer.
        probe_parse(trace, &plan.insert_sql, None);
        let rows = insert_rows(plan.insert_keys.clone());
        trace.time("storage.insert", None, || {
            self.probe_table.insert_all(rows).expect("probe insert");
        });
        let insert_request = QueryRequest::Query {
            sql: plan.insert_sql.clone(),
            deadline_ms: 0,
        };
        probe_wire(
            trace,
            &self.net,
            &insert_request,
            Vec::new(),
            &[],
            INSERT_ROWS,
            None,
        );
        for (sql, spec) in selects {
            probe_plan(trace, &self.db, sql, None);
            let scan = ScanTarget {
                table: &self.table,
                alias: "M",
                spec: Some(spec),
            };
            let (result, _) = probe_exec(trace, &self.db, sql, &scan, None);
            let request = QueryRequest::Query {
                sql: sql.to_string(),
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
        set_plan_metrics(report, trace);
        set_scan_metrics(report, trace);
        set_span_us(report, trace, "storage.insert_us", "storage.insert");
        set_wire_metrics(report, trace);
        set_service_metrics(report, trace, wire_us);
    }
}
