//! Outside-in probes, one per layer, and the counter plumbing the service
//! workloads share. Nothing here reaches into a crate: every probe times a
//! call to a public function, with the same inputs the real op used.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use csq_client::qproto::{QueryRequest, QueryResponse};
use csq_common::{Row, DEFAULT_BATCH_SIZE};
use csq_core::{service, Database, QueryResult, ServiceConfig, ServiceHandle};
use csq_exec::{ColumnarScan, Operator};
use csq_net::{Frame, TcpConn};
use csq_storage::{FilterSpec, Table};

use crate::harness::{ClientTally, Counters, PhaseTotals, SpanId, Trace};
use crate::metrics::Report;

/// Worker threads of every service the benchmark starts.
pub const SERVICE_WORKERS: usize = 2;

/// Start a query service for `db` on a loopback port.
pub fn start_service(db: Arc<Database>) -> ServiceHandle {
    service::start(
        db,
        ServiceConfig {
            workers: SERVICE_WORKERS,
            ..ServiceConfig::default()
        },
    )
    .expect("benchmark service must start")
}

// ---- csq-sql, csq-opt ------------------------------------------------------

/// Replay planning of one SELECT: `opt.plan` around `Database::optimize`,
/// with the parse and the catalog-wide `stats_from_table` it contains
/// replayed as its attributed children.
pub fn probe_plan(trace: &mut Trace, db: &Database, sql: &str, parent: Option<SpanId>) {
    let plan = trace.begin("opt.plan", parent);
    let planned = db.optimize(sql);
    trace.end(plan);
    planned.expect("benchmark SELECT must plan");
    probe_parse(trace, sql, Some(plan));
    trace.time("opt.table_stats", Some(plan), || {
        for name in db.catalog().table_names() {
            if let Ok(t) = db.catalog().get(&name) {
                std::hint::black_box(csq_opt::context::stats_from_table(&t));
            }
        }
    });
}

/// Replay parsing of one statement.
pub fn probe_parse(trace: &mut Trace, sql: &str, parent: Option<SpanId>) {
    trace.derive("sql.text_bytes", sql.len() as f64);
    trace.time("sql.parse", parent, || {
        std::hint::black_box(csq_sql::parse_statement(sql)).expect("benchmark SQL must parse");
    });
}

// ---- csq-exec, csq-storage -------------------------------------------------

/// One base-table scan of a statement, as the lowering would open it.
pub struct ScanTarget<'a> {
    /// The table.
    pub table: &'a Arc<Table>,
    /// FROM alias.
    pub alias: &'a str,
    /// Pushed-down filter, when the statement has a prunable predicate.
    pub spec: Option<FilterSpec>,
}

/// Replay execution of one planned SELECT in-process (`core.exec_inproc`
/// around `Database::execute_planned`, planning excluded), then its scan
/// alone as the attributed child `storage.scan`. Returns the result and the
/// exec span (so shipping probes can attach to it).
pub fn probe_exec(
    trace: &mut Trace,
    db: &Database,
    sql: &str,
    scan: &ScanTarget<'_>,
    parent: Option<SpanId>,
) -> (QueryResult, SpanId) {
    let (planned, _) = db.prepare(sql).expect("benchmark SELECT must plan");
    let exec = trace.begin("core.exec_inproc", parent);
    let executed = db.execute_planned(&planned);
    trace.end(exec);
    let (result, _, _) = executed.expect("benchmark SELECT must run in-process");
    trace.derive("exec.rows_out", result.rows.len() as f64);
    probe_scan(trace, scan, Some(exec));
    (result, exec)
}

/// Drain a pruning columnar scan on its own.
pub fn probe_scan(trace: &mut Trace, scan: &ScanTarget<'_>, parent: Option<SpanId>) {
    let span = trace.begin("storage.scan", parent);
    let mut op = ColumnarScan::new(scan.table, scan.alias, scan.spec.as_ref())
        .expect("benchmark scan must open");
    let mut rows = 0usize;
    while let Some(batch) = op.next_batch().expect("benchmark scan must not fail") {
        rows += batch.len();
    }
    trace.end(span);
    let stats = op.scan_stats();
    trace.derive("storage.rows_scanned", rows as f64);
    trace.derive("storage.segs_total", stats.segments_total as f64);
    trace.derive("storage.segs_pruned", stats.segments_pruned as f64);
}

// ---- csq-common::codec, csq-client::qproto, csq-net ------------------------

/// A loopback TCP pair with a peer thread that answers each request frame
/// with frames of announced sizes: the wire cost of an op's frames without
/// any service behind them.
pub struct NetProbe {
    conn: TcpConn,
    plan_tx: Option<Sender<Vec<usize>>>,
    peer: Option<JoinHandle<()>>,
}

impl NetProbe {
    /// Open the pair and start the peer.
    pub fn new() -> NetProbe {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback probe");
        let addr = listener.local_addr().expect("probe listener address");
        let (plan_tx, plan_rx) = unbounded::<Vec<usize>>();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept probe connection");
            let conn = TcpConn::new(stream).expect("wrap probe connection");
            let mut payload: Vec<u8> = Vec::new();
            while let Ok(Frame::Payload(_)) = conn.recv() {
                let Ok(sizes) = plan_rx.recv() else { break };
                for size in sizes {
                    if payload.len() < size {
                        payload.resize(size, 0x5a);
                    }
                    if conn.send(&payload[..size]).is_err() {
                        return;
                    }
                }
            }
        });
        NetProbe {
            conn: TcpConn::connect(addr).expect("connect loopback probe"),
            plan_tx: Some(plan_tx),
            peer: Some(peer),
        }
    }

    /// Send a `request_bytes` frame and read back one frame per entry of
    /// `response_bytes`, recorded as a `net.frames` span.
    pub fn exchange(
        &self,
        trace: &mut Trace,
        parent: Option<SpanId>,
        request_bytes: usize,
        response_bytes: Vec<usize>,
    ) {
        let frames = response_bytes.len();
        let request = vec![0xa5u8; request_bytes];
        self.plan_tx
            .as_ref()
            .expect("probe is live until dropped")
            .send(response_bytes)
            .expect("probe peer is live");
        trace.time("net.frames", parent, || {
            self.conn.send(&request).expect("probe request");
            for _ in 0..frames {
                match self.conn.recv() {
                    Ok(Frame::Payload(p)) => {
                        std::hint::black_box(p);
                    }
                    other => panic!("probe peer went away: {other:?}"),
                }
            }
        });
    }
}

impl Default for NetProbe {
    fn default() -> Self {
        NetProbe::new()
    }
}

impl Drop for NetProbe {
    fn drop(&mut self) {
        // Closing our half ends the peer's recv loop; closing the plan
        // channel ends it if it is waiting for a plan instead.
        self.plan_tx.take();
        self.conn.shutdown();
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// Replay what the service and the client connection do with one result:
/// encode Begin / Rows chunks / End exactly as `csq_core::service` frames
/// them, decode them as `ServiceConn` does, and push frames of those sizes
/// through a loopback socket.
pub fn probe_wire(
    trace: &mut Trace,
    net: &NetProbe,
    request: &QueryRequest,
    columns: Vec<String>,
    rows: &[Row],
    affected: u64,
    parent: Option<SpanId>,
) {
    let mut frames: Vec<Vec<u8>> = Vec::new();
    trace.time("codec.encode", parent, || {
        frames.push(QueryResponse::Begin { columns }.encode());
        for chunk in rows.chunks(DEFAULT_BATCH_SIZE) {
            frames.push(QueryResponse::encode_rows_chunk(chunk));
        }
        frames.push(
            QueryResponse::End {
                rows: rows.len() as u64,
                affected,
                plan_cache_hit: false,
            }
            .encode(),
        );
    });
    let sizes: Vec<usize> = frames.iter().map(Vec::len).collect();
    trace.derive("codec.result_bytes", sizes.iter().sum::<usize>() as f64);
    let shared: Vec<Arc<Vec<u8>>> = frames.into_iter().map(Arc::new).collect();
    let mut decoded = Vec::with_capacity(shared.len());
    trace.time("codec.decode", parent, || {
        for buf in &shared {
            decoded.push(QueryResponse::decode_shared(buf).expect("own frames must decode"));
        }
    });
    drop(decoded);
    net.exchange(trace, parent, request.encode().len(), sizes);
}

/// Column display names of an in-process result, as the service's `Begin`
/// frame carries them.
pub fn display_columns(result: &QueryResult) -> Vec<String> {
    result
        .schema
        .fields()
        .iter()
        .map(|f| f.display_name())
        .collect()
}

// ---- shared reporting ------------------------------------------------------

/// Set `name` to the traced median of the self time of span `span`.
pub fn set_span_us(report: &mut Report, trace: &Trace, name: &'static str, span: &str) {
    let (us, n) = trace.self_us(span);
    report.set(name, us, n);
}

/// Set the storage/exec/codec metrics every scanning workload derives the
/// same way from its trace.
pub fn set_scan_metrics(report: &mut Report, trace: &Trace) {
    set_span_us(report, trace, "storage.scan_us", "storage.scan");
    set_span_us(report, trace, "exec.self_us", "core.exec_inproc");
    let (scanned, n) = trace.derived_median("storage.rows_scanned");
    report.set("storage.rows_scanned", scanned, n);
    let (total, _) = trace.derived_median("storage.segs_total");
    let (pruned, _) = trace.derived_median("storage.segs_pruned");
    if total > 0.0 {
        report.set("storage.seg_pruned_ratio", pruned / total, n);
    }
    let (out, n_out) = trace.derived_median("exec.rows_out");
    report.set("exec.rows_out", out, n_out);
    if out > 0.0 {
        report.set("storage.rows_scanned_per_result_row", scanned / out, n_out);
    }
}

/// Set the parse/plan metrics from the trace.
pub fn set_plan_metrics(report: &mut Report, trace: &Trace) {
    set_span_us(report, trace, "sql.parse_us", "sql.parse");
    let (bytes, n) = trace.derived_median("sql.text_bytes");
    report.set("sql.text_bytes", bytes, n);
    set_span_us(report, trace, "opt.plan_us", "opt.plan");
    set_span_us(report, trace, "opt.table_stats_us", "opt.table_stats");
}

/// Set the codec and loopback-frame metrics from the trace.
pub fn set_wire_metrics(report: &mut Report, trace: &Trace) {
    set_span_us(report, trace, "codec.encode_us", "codec.encode");
    set_span_us(report, trace, "codec.decode_us", "codec.decode");
    let (bytes, n) = trace.derived_median("codec.result_bytes");
    report.set("codec.result_bytes", bytes, n);
    set_span_us(report, trace, "net.frames_us", "net.frames");
}

/// The service-path residual: what a one-client wire op costs beyond the
/// in-process statement, the codec and the bare frames — scheduler
/// hand-off, queueing, wake-ups, chunked writes.
pub fn set_service_metrics(report: &mut Report, trace: &Trace, wire_us: f64) {
    let (inproc, n) = trace.self_us("service.inproc");
    let explained = inproc
        + trace.self_us("codec.encode").0
        + trace.self_us("codec.decode").0
        + trace.self_us("net.frames").0;
    report.set("service.inproc_us", inproc, n);
    report.set("service.overhead_us", wire_us - explained, n);
    if inproc > 0.0 {
        report.set("service.wire_over_inproc", wire_us / inproc, n);
    }
}

// ---- service counters ------------------------------------------------------

/// Snapshot the monotonic counters of services and the databases behind
/// them (summed: the sharded workload has two of each).
pub fn service_counters(
    services: &[&ServiceHandle],
    dbs: &[&Database],
) -> Vec<(&'static str, u64)> {
    use std::sync::atomic::Ordering::Relaxed;
    let sum = |pick: fn(&ServiceHandle) -> u64| services.iter().map(|s| pick(s)).sum::<u64>();
    let mut counters = vec![
        ("svc.ok", sum(|s| s.stats().queries_ok.load(Relaxed))),
        (
            "svc.failed",
            sum(|s| s.stats().queries_failed.load(Relaxed)),
        ),
        ("svc.shed", sum(|s| s.stats().shed.load(Relaxed))),
        ("svc.timed_out", sum(|s| s.stats().timed_out.load(Relaxed))),
        ("svc.cancelled", sum(|s| s.stats().cancelled.load(Relaxed))),
        ("net.down_messages", sum(|s| s.net_stats().down_messages())),
        ("net.up_messages", sum(|s| s.net_stats().up_messages())),
        ("net.down_bytes", sum(|s| s.net_stats().down_bytes())),
        ("net.up_bytes", sum(|s| s.net_stats().up_bytes())),
    ];
    counters.extend(plancache_counters(dbs));
    counters
}

/// Snapshot the plan-cache counters of `dbs`, summed.
pub fn plancache_counters(dbs: &[&Database]) -> Vec<(&'static str, u64)> {
    let sum = |pick: fn(csq_core::PlanCacheStats) -> u64| {
        dbs.iter().map(|d| pick(d.plan_cache_stats())).sum::<u64>()
    };
    vec![
        ("plancache.hits", sum(|p| p.hits)),
        ("plancache.misses", sum(|p| p.misses)),
        ("plancache.stale_replans", sum(|p| p.stale_replans)),
        ("plancache.evictions", sum(|p| p.evictions)),
    ]
}

/// Every statement a client sent must be in exactly one `ServiceStats`
/// outcome bucket (`timed_out` and `cancelled` are sub-counts of `failed`),
/// and the server must have written exactly the frames the clients read.
pub fn reconcile_service(
    d: &Counters,
    statements: u64,
    tally: Option<&ClientTally>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let answered = d.get("svc.ok") + d.get("svc.failed") + d.get("svc.shed");
    if answered != statements {
        problems.push(format!(
            "ServiceStats: ok {} + failed {} + shed {} = {answered}, but {statements} statements were sent",
            d.get("svc.ok"),
            d.get("svc.failed"),
            d.get("svc.shed")
        ));
    }
    if d.get("svc.timed_out") + d.get("svc.cancelled") > d.get("svc.failed") {
        problems.push("ServiceStats: timed_out + cancelled exceed failed".to_string());
    }
    if d.get("net.up_messages") != statements {
        problems.push(format!(
            "NetStats: server read {} request frames, {statements} statements were sent",
            d.get("net.up_messages")
        ));
    }
    if let Some(t) = tally {
        if d.get("net.down_messages") != t.frames_down || d.get("net.up_messages") != t.frames_up {
            problems.push(format!(
                "NetStats: server wrote {} / read {} frames, clients read {} / wrote {}",
                d.get("net.down_messages"),
                d.get("net.up_messages"),
                t.frames_down,
                t.frames_up
            ));
        }
    }
    problems
}

/// Per-op count metrics of the service, plan cache and wire.
pub fn set_service_counts(phase: &PhaseTotals, report: &mut Report) {
    let d = &phase.delta;
    let ops = phase.ops;
    let per_op = |name: &str| d.get(name) as f64 / ops as f64;
    report.set("service.queries_ok", per_op("svc.ok"), ops);
    report.set("service.queries_failed", per_op("svc.failed"), ops);
    report.set("service.shed", per_op("svc.shed"), ops);
    report.set(
        "net.frames",
        per_op("net.down_messages") + per_op("net.up_messages"),
        ops,
    );
    report.set("net.bytes_down", per_op("net.down_bytes"), ops);
    report.set("net.bytes_up", per_op("net.up_bytes"), ops);
    set_plancache_counts(phase, report);
}

/// Per-op plan-cache metrics. With no lookups in the phase (prepared
/// statements pin their plan; `Database::execute` never consults the
/// cache) the hit ratio does not apply and stays unset.
pub fn set_plancache_counts(phase: &PhaseTotals, report: &mut Report) {
    let d = &phase.delta;
    let lookups = d.get("plancache.hits") + d.get("plancache.misses");
    if lookups > 0 {
        report.set(
            "plancache.hit_ratio",
            d.get("plancache.hits") as f64 / lookups as f64,
            lookups,
        );
    }
    let ops = phase.ops;
    report.set(
        "plancache.stale_replans",
        d.get("plancache.stale_replans") as f64 / ops as f64,
        ops,
    );
    report.set(
        "plancache.evictions",
        d.get("plancache.evictions") as f64 / ops as f64,
        ops,
    );
}
