//! One operator, two duplexes: the shipping operators over the in-memory
//! duplex and over the virtual-time duplex (`simulate_*`) must agree
//! exactly — same output rows, and the same number of bytes and messages on
//! each link. And a virtual-time run is deterministic: its clocks move only
//! with timestamps, never with thread interleaving.

use std::sync::Arc;

use csq_client::synthetic::{ObjectUdf, PredicateUdf};
use csq_client::{spawn_client, ClientRuntime, UdfCost};
use csq_common::{Blob, DataType, Field, Row, Schema, Value};
use csq_exec::{collect, RowsOp};
use csq_expr::{BinaryOp, PhysExpr};
use csq_net::{in_memory_duplex, NetworkSpec};
use csq_ship::{
    simulate_client_join, simulate_naive, simulate_semijoin, ClientJoinSpec, SemiJoinSpec,
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
    // Sorted input makes every argument a run of adjacent duplicates (5, 5
    // and 10 records here); with 8 per message a span is several runs and
    // wider than the buffer.
    for (distinct, batch, k) in [(8, 1, 5), (8, 8, 4), (4, 8, 1)] {
        let data = rows(40, distinct, 100);
        let mut spec = SemiJoinSpec::new(vec![analyze()], k);
        spec.batch_size = batch;
        spec.sorted = true;
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
    // and sorted input, with duplicates; K = 4 below the 8-argument span
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
        spec.sorted = sorted;
        let data = rows(90, 30, 120);
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
