//! One operator, two duplexes: the shipping operators over the in-memory
//! duplex and over the virtual-time duplex (`simulate_*`) must agree
//! exactly — same output rows, and the same number of bytes and messages on
//! each link. And a virtual-time run is deterministic: its clocks move only
//! with timestamps, never with thread interleaving.

use std::sync::Arc;

use csq_client::synthetic::{ObjectUdf, PredicateUdf};
use csq_client::{spawn_client, ClientRuntime, ScalarUdf, UdfCost, UdfSignature};
use csq_common::{Blob, CsqError, DataType, Field, Lane, Row, RowBatch, Schema, Selection, Value};
use csq_exec::{collect, BoxOp, Operator, RowsOp};
use csq_expr::{BinaryOp, PhysExpr};
use csq_net::{in_memory_duplex, virtual_duplex, Endpoint, NetReceiver, NetSender, NetworkSpec};
use csq_ship::{
    simulate_client_join, simulate_naive, simulate_semijoin, ClientJoinSpec, SemiJoinSpec, SimRun,
    ThreadedClientJoin, ThreadedSemiJoin, UdfApplication,
};

fn runtime() -> Arc<ClientRuntime> {
    let rt = ClientRuntime::new();
    rt.register(Arc::new(ObjectUdf::sized("Analyze", 150)))
        .unwrap();
    rt.register(Arc::new(PredicateUdf::new("Keep", 0.4)))
        .unwrap();
    Arc::new(rt)
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("Id", DataType::Int),
        Field::new("Arg", DataType::Blob),
        Field::new("Other", DataType::Blob),
    ])
}

fn rows(n: usize, distinct: usize, arg_size: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Blob(Blob::synthetic(arg_size, (i % distinct.max(1)) as u64)),
                Value::Blob(Blob::synthetic(60, 7_000 + i as u64)),
            ])
        })
        .collect()
}

fn analyze() -> UdfApplication {
    UdfApplication::new("Analyze", vec![1], Field::new("res", DataType::Blob))
}

/// Run the threaded semi-join and return (rows, down_bytes, up_bytes,
/// down_msgs, up_msgs).
fn threaded_sj(spec: SemiJoinSpec, data: Vec<Row>) -> (Vec<Row>, u64, u64, u64, u64) {
    let (server, client, stats) = in_memory_duplex();
    let handle = spawn_client(runtime(), client).unwrap();
    let input = Box::new(RowsOp::new(schema(), data));
    let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
    let out = collect(&mut op).unwrap();
    drop(op);
    let _ = handle.join().unwrap();
    (
        out,
        stats.down_bytes(),
        stats.up_bytes(),
        stats.down_messages(),
        stats.up_messages(),
    )
}

/// `rows(n, distinct, arg_size)` in argument order, as a sort on the
/// argument would leave them: every argument is one run of adjacent
/// duplicates, in `Id` order.
fn sorted_rows(n: usize, distinct: usize, arg_size: usize) -> Vec<Row> {
    let mut data = rows(n, distinct, arg_size);
    data.sort_by_key(|r| r.value(0).as_i64().unwrap() % distinct as i64);
    data
}

#[test]
fn semijoin_bytes_match_between_backends() {
    // (rows, distinct arguments, tuples per message, K). The last four ship
    // messages wider than the credit window (K < m: one span at a time), and
    // the last two follow their five arguments with a run of 55 duplicates —
    // longer than any span — that reaches the buffer with no message of its
    // own.
    for (n, distinct, batch, k) in [
        (30, 30, 1, 6),
        (30, 5, 1, 6),
        (24, 24, 4, 6),
        (25, 7, 3, 6),
        (40, 40, 8, 4),
        (40, 40, 8, 1),
        (60, 5, 8, 4),
        (60, 5, 2, 1),
    ] {
        let data = rows(n, distinct, 120);
        let mut spec = SemiJoinSpec::new(vec![analyze()], k);
        spec.batch_size = batch;
        let (t_rows, t_down, t_up, t_dm, t_um) = threaded_sj(spec.clone(), data.clone());
        let sim =
            simulate_semijoin(&schema(), data, &spec, runtime(), &NetworkSpec::lan()).unwrap();
        let what = format!("n={n}, d={distinct}, b={batch}, k={k}");
        assert_eq!(t_rows, sim.rows, "rows ({what})");
        assert_eq!(t_down, sim.down_bytes, "down bytes ({what})");
        assert_eq!(t_up, sim.up_bytes, "up bytes ({what})");
        assert_eq!(t_dm, sim.down_messages, "down msgs ({what})");
        assert_eq!(t_um, sim.up_messages, "up msgs ({what})");
        // Install, one message per `batch` distinct arguments, finish.
        assert_eq!(t_dm, 2 + distinct.div_ceil(batch) as u64, "{what}");
    }
}

#[test]
fn semijoin_sorted_bytes_match() {
    // Argument-sorted input makes every argument a run of adjacent
    // duplicates (5, 5 and 10 records here); with 8 per message a span is
    // several runs and wider than the buffer.
    for (distinct, batch, k) in [(8, 1, 5), (8, 8, 4), (4, 8, 1)] {
        let data = sorted_rows(40, distinct, 100);
        let mut spec = SemiJoinSpec::new(vec![analyze()], k);
        spec.batch_size = batch;
        let (t_rows, t_down, t_up, t_dm, t_um) = threaded_sj(spec.clone(), data.clone());
        let sim =
            simulate_semijoin(&schema(), data, &spec, runtime(), &NetworkSpec::lan()).unwrap();
        let what = format!("d={distinct}, b={batch}, k={k}");
        assert_eq!(t_rows, sim.rows, "{what}");
        assert_eq!(t_down, sim.down_bytes, "{what}");
        assert_eq!(t_up, sim.up_bytes, "{what}");
        assert_eq!(t_dm, sim.down_messages, "{what}");
        assert_eq!(t_um, sim.up_messages, "{what}");
    }
}

#[test]
fn client_join_bytes_match_between_backends() {
    let keep = UdfApplication::new("Keep", vec![1], Field::new("keep", DataType::Bool));
    // The last ships runs of duplicate arguments in chunks that end mid-run.
    for (distinct, batch) in [(32, 1), (32, 4), (32, 8), (3, 5)] {
        let data = rows(32, distinct, 90);
        let mut spec = ClientJoinSpec::new(vec![keep.clone()]);
        spec.batch_size = batch;
        spec.pushed_predicate = Some(PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(3)),
            op: BinaryOp::Eq,
            right: Box::new(PhysExpr::Literal(Value::Bool(true))),
        });
        spec.return_cols = Some(vec![0, 3]);

        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        let input = Box::new(RowsOp::new(schema(), data.clone()));
        let mut op = ThreadedClientJoin::new(input, spec.clone(), server).unwrap();
        let t_rows = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();

        let sim =
            simulate_client_join(&schema(), data, &spec, runtime(), &NetworkSpec::lan()).unwrap();
        let what = format!("d={distinct}, b={batch}");
        assert_eq!(t_rows, sim.rows, "{what}");
        assert_eq!(stats.down_bytes(), sim.down_bytes, "{what}");
        assert_eq!(stats.up_bytes(), sim.up_bytes, "{what}");
        assert_eq!(stats.down_messages(), sim.down_messages, "{what}");
        assert_eq!(stats.up_messages(), sim.up_messages, "{what}");
        assert_eq!(stats.up_messages(), 32u64.div_ceil(batch as u64), "{what}");
    }
}

#[test]
fn naive_bytes_match_between_backends() {
    // The naive strategy is the semi-join at K = 1, one tuple a message.
    let data = rows(20, 6, 80);
    let spec = SemiJoinSpec::new(vec![analyze()], 1);
    let (t_rows, t_down, t_up, t_dm, t_um) = threaded_sj(spec.clone(), data.clone());
    let sim = simulate_naive(&schema(), data, &spec, runtime(), &NetworkSpec::lan()).unwrap();
    assert_eq!(t_rows, sim.rows);
    assert_eq!(t_down, sim.down_bytes);
    assert_eq!(t_up, sim.up_bytes);
    assert_eq!(t_dm, sim.down_messages);
    assert_eq!(t_um, sim.up_messages);
}

#[test]
fn strategies_all_agree_under_randomized_workloads() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    for trial in 0..10 {
        let n = rng.gen_range(1..60);
        let distinct = rng.gen_range(1..=n);
        let arg = rng.gen_range(1..300);
        let k = rng.gen_range(1..12);
        let batch = rng.gen_range(1..5);
        let data = rows(n, distinct, arg);

        let mut spec = SemiJoinSpec::new(vec![analyze()], k);
        spec.batch_size = batch;
        let sj = simulate_semijoin(
            &schema(),
            data.clone(),
            &spec,
            runtime(),
            &NetworkSpec::lan(),
        )
        .unwrap();
        let csj = simulate_client_join(
            &schema(),
            data.clone(),
            &ClientJoinSpec::new(vec![analyze()]),
            runtime(),
            &NetworkSpec::lan(),
        )
        .unwrap();
        let naive = simulate_naive(&schema(), data, &spec, runtime(), &NetworkSpec::lan()).unwrap();
        assert_eq!(sj.rows, csj.rows, "trial {trial}");
        assert_eq!(sj.rows, naive.rows, "trial {trial}");
        // The semi-join never ships more argument bytes than the client join
        // ships record bytes.
        assert!(sj.down_bytes <= csj.down_bytes, "trial {trial}");
    }
}

#[test]
fn virtual_time_runs_are_deterministic() {
    // 16 runs of one semi-join from 4 threads at once must be one run:
    // rows, clocks, busy times, bytes, messages and client CPU. Unsorted
    // and argument-sorted input, with duplicates; K = 4 below the 8-argument span
    // (one hand-off unpaired at a time: every hand-off waits for a credit),
    // and K = 8 over 2-argument spans (four unpaired: a credit may arrive
    // long before the sender needs it).
    let rt = || {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 150).with_cost(
            UdfCost {
                fixed_us: 700.0,
                per_byte_us: 1.5,
            },
        )))
        .unwrap();
        Arc::new(rt)
    };
    for (sorted, batch, k) in [(false, 8, 4), (true, 8, 4), (false, 2, 8), (true, 2, 8)] {
        let mut spec = SemiJoinSpec::new(vec![analyze()], k);
        spec.batch_size = batch;
        let data = match sorted {
            true => sorted_rows(90, 30, 120),
            false => rows(90, 30, 120),
        };
        let net = NetworkSpec::modem_28_8();
        let run = || simulate_semijoin(&schema(), data.clone(), &spec, rt(), &net).unwrap();
        let first = run();
        assert!(first.client_cpu_us > 0 && first.elapsed_us > 0);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..4).map(|_| run()).collect::<Vec<_>>()))
                .collect();
            for worker in workers {
                for again in worker.join().unwrap() {
                    assert_eq!(again, first, "sorted: {sorted}, m = {batch}, K = {k}");
                }
            }
        });
    }
}

// ---- lane input --------------------------------------------------------------

/// `Probe(K INT, Arg BLOB)`: a value derived from both arguments by its
/// declared type — an INT (NULL for a NULL `K`), a BLOB, or NULL for
/// anything else — and an error for the key `fail_on`.
struct Probe {
    sig: UdfSignature,
    kind: DataType,
    fail_on: Option<i64>,
}

impl Probe {
    fn new(name: &str, kind: DataType, fail_on: Option<i64>) -> Probe {
        let sig = UdfSignature::new(name, vec![DataType::Int, DataType::Blob], kind);
        Probe { sig, kind, fail_on }
    }
}

impl ScalarUdf for Probe {
    fn signature(&self) -> &UdfSignature {
        &self.sig
    }

    fn invoke(&self, args: &[Value]) -> csq_common::Result<Value> {
        let k = args[0].as_i64().ok();
        if k.is_some() && k == self.fail_on {
            return Err(CsqError::Client(format!("probe fails on {k:?}")));
        }
        let bytes = args[1].as_blob()?.len() as i64;
        Ok(match (self.kind, k) {
            (DataType::Int, Some(k)) => Value::Int(k * 1_000 + bytes),
            (DataType::Blob, k) => Value::Blob(Blob::synthetic(24, k.unwrap_or(-1) as u64)),
            _ => Value::Null,
        })
    }
}

fn lane_schema() -> Schema {
    Schema::new(vec![
        Field::new("Id", DataType::Int),
        Field::new("K", DataType::Int),
        Field::new("Arg", DataType::Blob),
        Field::new("Other", DataType::Blob),
    ])
}

/// `n` rows whose argument pair `(K, Arg)` repeats every `distinct` rows;
/// every fifth `K` is NULL.
fn lane_rows(n: usize, distinct: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            let d = i % distinct;
            let k = if d % 5 == 3 {
                Value::Null
            } else {
                Value::Int(d as i64)
            };
            Row::new(vec![
                Value::Int(i as i64),
                k,
                Value::Blob(Blob::synthetic(40 + d % 3, d as u64)),
                Value::Blob(Blob::synthetic(20, 9_000 + i as u64)),
            ])
        })
        .collect()
}

/// `data` in batches of `per` records, as lanes or as rows. On lanes each
/// half of the rows is one set of lanes — its rows at odd ordinals between
/// filler rows no batch selects, so every selection has gaps — shared by
/// the batches cut from it.
fn batches_of(data: &[Row], per: usize, lanes: bool) -> Vec<RowBatch> {
    let schema = Arc::new(lane_schema());
    if !lanes {
        let chunks = data.chunks(per);
        return chunks
            .map(|c| RowBatch::from_rows(schema.clone(), c.to_vec()))
            .collect();
    }
    let filler = Row::new(vec![
        Value::Int(-1),
        Value::Int(0),
        Value::Blob(Blob::synthetic(1, 0)),
        Value::Blob(Blob::synthetic(1, 1)),
    ]);
    let mut out = Vec::new();
    for half in data.chunks(data.len().div_ceil(2)) {
        let seg: Vec<Row> = half
            .iter()
            .flat_map(|r| [filler.clone(), r.clone()])
            .collect();
        let lanes: Vec<Arc<Lane>> = (0..4).map(|c| Arc::new(Lane::build(&seg, c))).collect();
        let ordinals: Vec<usize> = (0..half.len()).map(|p| 2 * p + 1).collect();
        for chunk in ordinals.chunks(per) {
            let sel = Selection::Rows(chunk.to_vec());
            out.push(RowBatch::from_lanes(schema.clone(), lanes.clone(), sel));
        }
    }
    out
}

/// Hands out `batches` as they are.
struct Batches(Arc<Schema>, std::vec::IntoIter<RowBatch>);

impl Operator for Batches {
    fn schema(&self) -> &Schema {
        &self.0
    }

    fn next_batch(&mut self) -> csq_common::Result<Option<RowBatch>> {
        Ok(self.1.next())
    }
}

/// What a shipping operator did over one input: its output (whether each
/// batch came back unbuilt, and the rows) or its error, and the messages
/// each way on the in-memory link, or the virtual-time run.
#[derive(Debug, PartialEq)]
struct Shipped {
    out: Result<(Vec<bool>, Vec<Row>), String>,
    link: Link,
}

#[derive(Debug, PartialEq)]
enum Link {
    Messages(Vec<Vec<u8>>, Vec<Vec<u8>>),
    Virtual(SimRun),
}

/// Drain `op`, then check it stays latched after an error.
fn drain(op: &mut dyn Operator) -> Result<(Vec<bool>, Vec<Row>), String> {
    let (mut unbuilt, mut rows) = (Vec::new(), Vec::new());
    loop {
        match op.next_batch() {
            Ok(Some(b)) => {
                unbuilt.push(b.lanes().is_some() && !b.is_materialized());
                rows.extend(b.into_rows());
            }
            Ok(None) => return Ok((unbuilt, rows)),
            Err(e) => {
                assert!(op.next_batch().unwrap().is_none(), "not latched after {e}");
                return Err(e.to_string());
            }
        }
    }
}

type Ship = dyn Fn(BoxOp, Endpoint) -> Box<dyn Operator>;

/// Run the operator `ship` builds over `batches`, on the in-memory link
/// (every message recorded by a relay between it and the client) or on
/// the virtual-time link over a modem.
fn ship_over(
    batches: Vec<RowBatch>,
    ship: &Ship,
    rt: Arc<ClientRuntime>,
    virtual_time: bool,
) -> Shipped {
    let input: BoxOp = Box::new(Batches(Arc::new(lane_schema()), batches.into_iter()));
    if virtual_time {
        let (server, client, links) = virtual_duplex(&NetworkSpec::modem_28_8());
        let handle = spawn_client(rt, client).unwrap();
        let out = drain(ship(input, server).as_mut());
        let _ = handle.join().unwrap();
        let run = SimRun::new(Vec::new(), &links);
        return Shipped {
            out,
            link: Link::Virtual(run),
        };
    }
    let (server, near, _) = in_memory_duplex();
    let (far, client, _) = in_memory_duplex();
    let handle = spawn_client(rt, client).unwrap();
    let relay = |from: NetReceiver, to: NetSender| {
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(msg) = from.recv() {
                seen.push(msg.clone());
                if to.send(msg).is_err() {
                    break;
                }
            }
            seen
        })
    };
    let ((near_tx, near_rx), (far_tx, far_rx)) = (near.split(), far.split());
    let (down, up) = (relay(near_rx, far_tx), relay(far_rx, near_tx));
    let out = drain(ship(input, server).as_mut());
    let down = down.join().unwrap();
    let _ = handle.join().unwrap();
    Shipped {
        out,
        link: Link::Messages(down, up.join().unwrap()),
    }
}

/// Both shipping operators over lane batches with gapped selections ship
/// what they ship over the same rows as rows, on either link: the same rows
/// (or error), byte-identical messages, the same virtual time — and the
/// semi-join over lanes hands its output on as lanes, unbuilt.
#[test]
fn lane_input_ships_what_row_input_ships() {
    let rt = || {
        let rt = ClientRuntime::new();
        for (name, kind, fail_on) in [
            ("AsInt", DataType::Int, None),
            ("AsNull", DataType::Str, None),
            ("AsBlob", DataType::Blob, None),
            ("FailsOn7", DataType::Int, Some(7)),
        ] {
            rt.register(Arc::new(Probe::new(name, kind, fail_on)))
                .unwrap();
        }
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 30)))
            .unwrap();
        Arc::new(rt)
    };
    let probe = |name: &str, kind| UdfApplication::new(name, vec![1, 2], Field::new(name, kind));
    let semijoin = |udfs: Vec<UdfApplication>, m: usize, k: usize| -> Box<Ship> {
        Box::new(move |input, server| {
            let mut spec = SemiJoinSpec::new(udfs.clone(), k);
            spec.batch_size = m;
            Box::new(ThreadedSemiJoin::new(input, spec, server).unwrap())
        })
    };
    let client_join = |m: usize| -> Box<Ship> {
        Box::new(move |input, server| {
            let mut spec = ClientJoinSpec::new(vec![probe("AsInt", DataType::Int)]);
            spec.batch_size = m;
            Box::new(ThreadedClientJoin::new(input, spec, server).unwrap())
        })
    };
    let data = lane_rows(60, 17);
    // (operator, records per input batch, lane output expected)
    let cases: Vec<(&str, Box<Ship>, usize, bool)> = vec![
        // Spans of four arguments cross batches of seven records, and a
        // later batch repeats arguments an earlier one shipped.
        (
            "int result",
            semijoin(vec![probe("AsInt", DataType::Int)], 4, 6),
            7,
            true,
        ),
        (
            "null and blob results",
            semijoin(
                vec![
                    probe("AsNull", DataType::Str),
                    probe("AsBlob", DataType::Blob),
                    UdfApplication::new("Analyze", vec![2], Field::new("a", DataType::Blob)),
                ],
                3,
                4,
            ),
            5,
            true,
        ),
        (
            "one span at a time",
            semijoin(vec![probe("AsInt", DataType::Int)], 8, 2),
            25,
            true,
        ),
        (
            "fails mid-span",
            semijoin(vec![probe("FailsOn7", DataType::Int)], 4, 6),
            7,
            true,
        ),
        (
            "client join, a short last message",
            client_join(7),
            5,
            false,
        ),
        (
            "client join, one record a message",
            client_join(1),
            9,
            false,
        ),
    ];
    for (what, ship, per, lanes_out) in &cases {
        for virtual_time in [false, true] {
            let on_lanes = ship_over(
                batches_of(&data, *per, true),
                ship.as_ref(),
                rt(),
                virtual_time,
            );
            let on_rows = ship_over(
                batches_of(&data, *per, false),
                ship.as_ref(),
                rt(),
                virtual_time,
            );
            let how = format!("{what}, virtual time: {virtual_time}");
            let fails = what.starts_with("fails");
            assert_eq!(on_rows.out.is_err(), fails, "{how}");
            match (&on_lanes.link, &on_rows.link) {
                (a, b) if !fails => assert_eq!(a, b, "{how}"),
                // How far the sender of a failed pipeline gets before the
                // operator is dropped is up to the threads: what both sent
                // is the same.
                (Link::Messages(a, _), Link::Messages(b, _)) => {
                    let n = a.len().min(b.len());
                    assert_eq!(a[..n], b[..n], "{how}");
                }
                _ => {}
            }
            match (&on_lanes.out, &on_rows.out) {
                (Ok((unbuilt, lane_rows)), Ok((_, rows))) => {
                    assert_eq!(lane_rows, rows, "{how}");
                    assert_eq!(rows.len(), 60, "{how}");
                    assert!(
                        unbuilt.iter().all(|&u| u == *lanes_out),
                        "{how}: {unbuilt:?}"
                    );
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{how}");
                    assert!(a.contains("probe fails on Some(7)"), "{how}: {a}");
                }
                (a, b) => panic!("{how}: lanes {a:?} vs rows {b:?}"),
            }
        }
    }
}
