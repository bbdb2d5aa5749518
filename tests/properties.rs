//! Property-based tests (proptest) on the core invariants.

use std::sync::Arc;

use proptest::prelude::*;

use csq_client::synthetic::ObjectUdf;
use csq_client::ClientRuntime;
use csq_common::codec::{decode_rows, encode_rows, Decoder};
use csq_common::{Blob, DataType, Field, Row, Schema, Value};
use csq_net::{Link, NetworkSpec};
use csq_ship::{
    simulate_client_join, simulate_semijoin, ClientJoinSpec, SemiJoinSpec, UdfApplication,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 ']{0,24}".prop_map(Value::from),
        (0usize..200, any::<u64>()).prop_map(|(n, s)| Value::Blob(Blob::synthetic(n, s))),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..6).prop_map(Row::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrips_any_row_batch(rows in prop::collection::vec(arb_row(), 0..12)) {
        let mut buf = Vec::new();
        encode_rows(&rows, &mut buf);
        let decoded = decode_rows(&buf).unwrap();
        prop_assert_eq!(decoded, rows);
    }

    #[test]
    fn codec_size_contract_holds(v in arb_value()) {
        let mut buf = Vec::new();
        csq_common::codec::encode_value(&v, &mut buf);
        prop_assert_eq!(buf.len(), v.wire_size());
        let mut d = Decoder::new(&buf);
        prop_assert_eq!(d.value().unwrap(), v);
        prop_assert!(d.is_exhausted());
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Decoding must fail gracefully, never panic.
        let _ = decode_rows(&bytes);
        let mut d = Decoder::new(&bytes);
        let _ = d.value();
        let _ = d.row();
    }

    #[test]
    fn link_transmission_is_monotone_and_additive(
        sizes in prop::collection::vec(1usize..10_000, 1..20),
        bw in 100.0f64..1e7,
        latency in 0u64..1_000_000,
    ) {
        let mut link = Link::new(bw, latency);
        let mut last_arrival = 0;
        let mut total = 0u64;
        for s in &sizes {
            let (tx_done, arrival) = link.transmit(0, *s);
            prop_assert!(arrival >= last_arrival, "arrivals are FIFO");
            prop_assert!(arrival == tx_done + latency);
            last_arrival = arrival;
            total += *s as u64;
        }
        prop_assert_eq!(link.bytes_sent(), total);
        // Busy time ≈ total bytes / bandwidth (ceil per message).
        let min_busy = (total as f64 / bw * 1e6) as u64;
        prop_assert!(link.busy_time() >= min_busy);
        prop_assert!(link.busy_time() <= min_busy + sizes.len() as u64 + 1);
    }

    #[test]
    fn semijoin_preserves_cardinality_and_order(
        n in 1usize..40,
        distinct in 1usize..40,
        k in 1usize..12,
        batch in 1usize..5,
    ) {
        let distinct = distinct.min(n);
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("arg", DataType::Blob),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![
                Value::Int(i as i64),
                Value::Blob(Blob::synthetic(32, (i % distinct) as u64)),
            ]))
            .collect();
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("F", 16))).unwrap();
        let rt = Arc::new(rt);
        let mut spec = SemiJoinSpec::new(
            vec![UdfApplication::new("F", vec![1], Field::new("r", DataType::Blob))],
            k,
        );
        spec.batch_size = batch;
        let run = simulate_semijoin(&schema, rows.clone(), &spec, rt.clone(), &NetworkSpec::lan()).unwrap();
        // One output per input; UDF invoked once per distinct argument.
        prop_assert_eq!(run.rows.len(), n);
        prop_assert_eq!(rt.invocations(), distinct as u64);
        // Input order preserved.
        for (i, r) in run.rows.iter().enumerate() {
            prop_assert_eq!(r.value(0), &Value::Int(i as i64));
        }
        // Duplicate arguments ⇒ duplicate results.
        for a in &run.rows {
            for b in &run.rows {
                if a.value(1) == b.value(1) {
                    prop_assert_eq!(a.value(2), b.value(2));
                }
            }
        }
    }

    #[test]
    fn semijoin_never_ships_more_than_client_join(
        n in 1usize..30,
        distinct in 1usize..30,
        arg_size in 1usize..200,
        extra_size in 0usize..200,
    ) {
        let distinct = distinct.min(n);
        let schema = Schema::new(vec![
            Field::new("arg", DataType::Blob),
            Field::new("extra", DataType::Blob),
        ]);
        let rows: Vec<Row> = (0..n)
            .map(|i| Row::new(vec![
                Value::Blob(Blob::synthetic(arg_size, (i % distinct) as u64)),
                Value::Blob(Blob::synthetic(extra_size, 5000 + i as u64)),
            ]))
            .collect();
        let rt = || {
            let rt = ClientRuntime::new();
            rt.register(Arc::new(ObjectUdf::sized("F", 32))).unwrap();
            Arc::new(rt)
        };
        let app = UdfApplication::new("F", vec![0], Field::new("r", DataType::Blob));
        let sj = simulate_semijoin(
            &schema, rows.clone(),
            &SemiJoinSpec::new(vec![app.clone()], 8),
            rt(), &NetworkSpec::lan(),
        ).unwrap();
        let csj = simulate_client_join(
            &schema, rows,
            &ClientJoinSpec::new(vec![app]),
            rt(), &NetworkSpec::lan(),
        ).unwrap();
        // §3.2: SJ downlink D·A·I ≤ CSJ downlink I (argument subset, dedup).
        prop_assert!(sj.down_bytes <= csj.down_bytes,
            "sj {} vs csj {}", sj.down_bytes, csj.down_bytes);
        prop_assert_eq!(sj.rows.len(), csj.rows.len());
    }

    #[test]
    fn cost_model_relative_time_positive_and_consistent(
        a in prop_oneof![Just(0.0), 0.05f64..1.0],
        d in prop_oneof![Just(0.0), 0.05f64..1.0],
        s in 0.0f64..1.0,
        i in 10.0f64..10_000.0,
        r in 1.0f64..10_000.0,
        n in 1.0f64..200.0,
    ) {
        let p = csq_cost::CostParams { a, d, s, p: 1.0, i, r, n }.with_paper_projection();
        // Every draw with A and D above 0 is in range; at 0 the semi-join
        // may move no bytes, so the model must refuse it.
        prop_assert_eq!(p.validate().is_ok(), a > 0.0 && d > 0.0, "{:?}", p.validate());
        if p.validate().is_err() {
            return;
        }
        let rel = csq_cost::relative_time(&p);
        prop_assert!(rel.is_finite() && rel > 0.0, "{p:?}: {rel}");
        // Monotonicity: higher selectivity never helps the client join.
        let mut p2 = p;
        p2.s = (s + 0.1).min(1.0);
        prop_assert!(csq_cost::relative_time(&p2) >= rel - 1e-12);
    }

    #[test]
    fn vm_always_terminates_under_fuel(
        ops in prop::collection::vec(0u8..12, 1..60),
        arg in any::<i64>(),
    ) {
        use csq_client::vm::{execute, Instr, Program, VmLimits};
        // Generate a random (valid-jump-free) arithmetic program.
        let mut instrs = vec![Instr::PushInt(arg)];
        for op in ops {
            instrs.push(match op {
                0 => Instr::PushInt(3),
                1 => Instr::PushFloat(0.5),
                2 => Instr::Add,
                3 => Instr::Sub,
                4 => Instr::Mul,
                5 => Instr::Dup,
                6 => Instr::Pop,
                7 => Instr::Swap,
                8 => Instr::Eq,
                9 => Instr::Lt,
                10 => Instr::PushBool(true),
                _ => Instr::PushInt(-1),
            });
        }
        instrs.push(Instr::Return);
        let program = Program::new(instrs).unwrap();
        // Must terminate (ok or error) without panicking, within limits.
        let _ = execute(&program, &[], VmLimits {
            fuel: 10_000,
            stack: 64,
            alloc_bytes: 1024,
        });
    }
}

/// ROADMAP 4(a)'s acceptance, and what replaced the online tuner as the
/// check on §3.1.2: over random links, tuple and result sizes, client costs
/// and duplicate ratios, the shipping parameters the plan would carry
/// (`csq_cost::shipping_params`) run within 10 % of the best point of a
/// small `(m, K)` grid in the simulator, never lose more than one message's
/// transit to the one-tuple pipeline at the analytic K, and change no row.
#[test]
fn chosen_shipping_parameters_hold_up_in_the_simulator() {
    use csq_client::UdfCost;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x5eed_0024);
    let log_uniform = |rng: &mut StdRng, lo: f64, hi: f64| rng.gen_range(lo.ln()..hi.ln()).exp();
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("arg", DataType::Blob),
    ]);
    let app = UdfApplication::new("F", vec![1], Field::new("r", DataType::Blob));

    for case in 0..64 {
        let down_bandwidth = log_uniform(&mut rng, 1e3, 1e7);
        let asymmetry = log_uniform(&mut rng, 1.0, 100.0);
        let latency = match rng.gen_range(0..4u32) {
            0 => 0,
            _ => rng.gen_range(0..=1_000_000u64),
        };
        let net = NetworkSpec::asymmetric(down_bandwidth, asymmetry, latency);
        let arg_size = log_uniform(&mut rng, 8.0, 4_000.0) as usize;
        let result_size = log_uniform(&mut rng, 8.0, 4_000.0) as usize;
        let client_us = match rng.gen_range(0..3u32) {
            0 => 0.0,
            _ => log_uniform(&mut rng, 10.0, 100_000.0).floor(),
        };
        let n = rng.gen_range(40..400usize);
        let distinct = ((n as f64 * rng.gen_range(0.05..1.0)) as usize).max(1);
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Blob(Blob::synthetic(arg_size, (i * distinct / n) as u64)),
                ])
            })
            .collect();
        let run = |m: usize, k: usize| {
            let rt = ClientRuntime::new();
            rt.register(Arc::new(ObjectUdf::sized("F", result_size).with_cost(
                UdfCost {
                    fixed_us: client_us,
                    per_byte_us: 0.0,
                },
            )))
            .unwrap();
            let mut spec = SemiJoinSpec::new(vec![app.clone()], k);
            spec.batch_size = m;
            simulate_semijoin(&schema, rows.clone(), &spec, Arc::new(rt), &net).unwrap()
        };

        // One blob on each link per shipped tuple.
        let (down_bytes, up_bytes) = (5 + arg_size, 5 + result_size);
        let analytic = csq_cost::optimal_concurrency(&net, down_bytes, up_bytes, client_us as u64);
        let plan = csq_cost::shipping_params(
            &net,
            down_bytes as f64,
            up_bytes as f64,
            client_us,
            n as f64,
            distinct as f64 / n as f64,
        );
        let what = format!(
            "case {case}: {net:?}, arg {arg_size} B, result {result_size} B, \
             client {client_us} µs, {distinct}/{n} distinct, plan {plan:?}, analytic K {analytic}"
        );

        let chosen = run(plan.tuples_per_message, plan.concurrency);
        let one_tuple = run(1, analytic);
        assert_eq!(chosen.rows, one_tuple.rows, "{what}");
        let mut best = u64::MAX;
        for m in [1, 4, 16, 64, 256] {
            for scale in [1, 2, 8] {
                let point = run(m, scale * analytic);
                assert_eq!(point.rows, chosen.rows, "m={m}, K={scale}x; {what}");
                best = best.min(point.elapsed_us);
            }
        }
        assert!(
            chosen.elapsed_us as f64 <= best as f64 * 1.10,
            "chosen {} µs vs best grid point {best} µs; {what}",
            chosen.elapsed_us
        );

        let m = plan.tuples_per_message;
        let transit = net.make_downlink().tx_time(5 + m * down_bytes)
            + net.make_uplink().tx_time(5 + m * up_bytes)
            + m as u64 * client_us as u64
            + net.rtt();
        assert!(
            chosen.elapsed_us <= one_tuple.elapsed_us + transit,
            "chosen {} µs vs one-tuple {} µs + one message's transit {transit} µs; {what}",
            chosen.elapsed_us,
            one_tuple.elapsed_us
        );
    }
}

/// `name(..) -> STR`: names its arguments as exactly as `Value` equality
/// tells them apart — a float by its bits, `Int 1` apart from `Float 1.0`,
/// a blob by its bytes.
struct Describe(csq_client::UdfSignature);

impl csq_client::ScalarUdf for Describe {
    fn signature(&self) -> &csq_client::UdfSignature {
        &self.0
    }

    fn invoke(&self, args: &[Value]) -> csq_common::Result<Value> {
        let cell = |v: &Value| match v {
            Value::Float(f) => format!("f{:x}", f.to_bits()),
            Value::Int(i) => format!("i{i}"),
            Value::Blob(b) => format!("b{:?}", b.as_bytes()),
            other => format!("{other:?}"),
        };
        Ok(Value::from(
            args.iter().map(cell).collect::<Vec<_>>().join(","),
        ))
    }

    fn cost(&self) -> csq_client::UdfCost {
        csq_client::UdfCost {
            fixed_us: 3.0,
            per_byte_us: 0.5,
        }
    }
}

/// Argument cells that are equal or not in every way the memo must get
/// right: NULL, two NaN bit patterns, −0.0 and 0.0, `Int 1` and
/// `Float 1.0`; and blobs, each built in an allocation of its own.
fn edge_row(id: usize, a: usize, b: usize) -> Row {
    let a = match a {
        0 => Value::Null,
        1 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0000)),
        2 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
        3 => Value::Float(-0.0),
        4 => Value::Float(0.0),
        5 => Value::Int(1),
        6 => Value::Float(1.0),
        _ => Value::Int(0),
    };
    let b = match b {
        0 => Value::Null,
        n => Value::Blob(Blob::new((1..n as u8).collect())),
    };
    Row::new(vec![Value::Int(id as i64), a, b])
}

/// Batches of edge rows, duplicates within and across batches.
fn edge_batches() -> impl Strategy<Value = Vec<Vec<Row>>> {
    prop::collection::vec(prop::collection::vec((0usize..8, 0usize..4), 0..12), 1..6).prop_map(
        |batches| {
            let mut id = 0;
            batches
                .into_iter()
                .map(|batch| {
                    batch
                        .into_iter()
                        .map(|(a, b)| {
                            id += 1;
                            edge_row(id, a, b)
                        })
                        .collect()
                })
                .collect()
        },
    )
}

/// The two UDF steps both properties run: `Mix(a, b)` on a two-column
/// argument, then `First(a)`.
fn describe_runtime() -> (Arc<ClientRuntime>, Vec<(String, Vec<usize>)>) {
    let rt = ClientRuntime::new();
    for (name, args) in [
        ("Mix", vec![DataType::Float, DataType::Blob]),
        ("First", vec![DataType::Float]),
    ] {
        let sig = csq_client::UdfSignature::new(name, args, DataType::Str);
        rt.register(Arc::new(Describe(sig))).unwrap();
    }
    let steps = vec![
        ("Mix".to_string(), vec![1, 2]),
        ("First".to_string(), vec![1]),
    ];
    (Arc::new(rt), steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // The client memo against a row-at-a-time reference over a
    // `HashMap<Row, Value>`: the same rows, invocations, cache hits and
    // CPU µs after every batch.
    #[test]
    fn memo_matches_a_row_at_a_time_hashmap(batches in edge_batches()) {
        use std::collections::HashMap;
        use csq_client::protocol::{ClientTask, TaskMode, UdfStep};
        use csq_client::service::TaskExecutor;
        use csq_client::ScalarUdf;

        let (rt, steps) = describe_runtime();
        let task = ClientTask {
            mode: TaskMode::SemiJoin,
            input_width: 3,
            steps: steps
                .iter()
                .map(|(udf, cols)| UdfStep {
                    udf: udf.clone(),
                    arg_cols: cols.iter().map(|&c| c as u32).collect(),
                })
                .collect(),
            predicate: None,
            return_cols: None,
            dedup_cache: true,
        };
        let mut ex = TaskExecutor::new(rt.clone(), task).unwrap();
        let udf = Describe(csq_client::UdfSignature::new("ref", vec![], DataType::Str));
        let mut memo: Vec<HashMap<Row, Value>> = vec![HashMap::new(); steps.len()];
        let (mut invocations, mut hits, mut cpu_us) = (0u64, 0u64, 0u64);
        for batch in batches {
            let mut expected = Vec::new();
            for row in &batch {
                let mut row = row.clone();
                for ((_, cols), memo) in steps.iter().zip(&mut memo) {
                    let key = row.project(cols);
                    let v = match memo.get(&key) {
                        Some(v) => {
                            hits += 1;
                            v.clone()
                        }
                        None => {
                            invocations += 1;
                            cpu_us += udf.cost().invocation_us(key.wire_size());
                            let v = udf.invoke(key.values()).unwrap();
                            memo.insert(key, v.clone());
                            v
                        }
                    };
                    row.push_value(v);
                }
                expected.push(row);
            }
            prop_assert_eq!(ex.process(batch).unwrap(), expected);
            prop_assert_eq!(rt.invocations(), invocations);
            prop_assert_eq!(rt.cache_hits(), hits);
            prop_assert_eq!(ex.cpu_us(), cpu_us);
        }
    }

    // The semi-join sender over the in-memory duplex puts on the wire
    // exactly the messages of a reference that numbers first occurrences
    // with a `HashMap`: the install, the distinct arguments in
    // first-occurrence order `m` to a message, and the finish.
    #[test]
    fn sender_ships_the_first_occurrences_a_hashmap_numbers(
        batches in edge_batches(),
        m in 1usize..5,
        k in 1usize..8,
    ) {
        use std::collections::HashMap;
        use csq_client::{Request, Response};
        use csq_exec::{collect, RowsOp};
        use csq_ship::ThreadedSemiJoin;

        let (_, steps) = describe_runtime();
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("a", DataType::Float),
            Field::new("b", DataType::Blob),
        ]);
        let apps = steps
            .iter()
            .map(|(udf, cols)| UdfApplication::new(udf, cols.clone(), Field::new(udf, DataType::Str)))
            .collect();
        let mut spec = SemiJoinSpec::new(apps, k);
        spec.batch_size = m;
        let rows: Vec<Row> = batches.into_iter().flatten().collect();

        let mut expected = vec![Request::Install(spec.client_task(&schema).unwrap()).encode()];
        let mut numbered: HashMap<Row, usize> = HashMap::new();
        let mut order = Vec::new();
        for row in &rows {
            let key = row.project(&[1, 2]);
            if !numbered.contains_key(&key) {
                numbered.insert(key.clone(), order.len());
                order.push(key);
            }
        }
        expected.extend(order.chunks(m).map(|span| Request::Batch(span.to_vec()).encode()));
        expected.push(Request::Finish.encode());

        // A client that records what comes down and answers every argument
        // with one NULL per UDF.
        let (server, client, _) = csq_net::in_memory_duplex();
        let recorder = std::thread::spawn(move || {
            let mut down = Vec::new();
            while let Some(buf) = client.recv() {
                let reply = match Request::decode(&buf) {
                    Ok(Request::Batch(args)) => Some(Response::Batch(
                        args.iter().map(|_| Row::new(vec![Value::Null, Value::Null])).collect(),
                    )),
                    _ => None,
                };
                down.push(buf);
                if let Some(reply) = reply {
                    if client.send(reply.encode()).is_err() {
                        break;
                    }
                }
            }
            down
        });
        let input = Box::new(RowsOp::new(schema, rows.clone()));
        let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let down = recorder.join().unwrap();
        prop_assert_eq!(down, expected);
        prop_assert_eq!(out.len(), rows.len());
        for (o, r) in out.iter().zip(&rows) {
            prop_assert_eq!(&o.values()[..3], r.values());
        }
    }
}
