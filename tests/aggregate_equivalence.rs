//! Differential oracle for grouped aggregation (DESIGN.md §7): random
//! schemas' worth of NULL-bearing data, random group keys, and random
//! aggregate-call lists must produce the same groups through
//!
//! * a naive row-at-a-time reference aggregator (independent fold logic,
//!   written here),
//! * the serial [`HashAggregate`],
//! * the decomposed split a `server-partial` or `shard-partial` plan runs:
//!   [`HashAggregate::partial`] over the input cut into 1 or 3 sources, the
//!   state rows concatenated, then [`HashAggregate::finalize`], and
//! * the lane path: the rows loaded into a [`Table`] at 1/3/7/16 rows a
//!   segment (tail sealed or not) and aggregated straight off the
//!   [`ColumnarScan`]'s lane batches, single-phase and partial→final — held
//!   to the reference like the rest, and to the serial run's group *order*.
//!
//! Results compare as row multisets; failures compare as error *kinds*
//! (NaN-bearing MIN/MAX groups are exec errors, non-numeric SUM arguments
//! are type errors — on every engine). Through SQL, both placements a
//! single database plans spill under its memory budget and still return
//! the unbudgeted groups. Failing seeds persist under
//! `proptest-regressions/` via the vendored proptest shim and replay on
//! every `cargo test`.

use proptest::prelude::*;

use std::sync::Arc;

use csq::prelude::{Database, NetworkSpec};
use csq_common::{CsqError, DataType, Field, Result, Row, Schema, Value};
use csq_exec::{
    aggregate_state_schema, collect, AggSpec, BoxOp, ColumnarScan, HashAggregate, MemoryTracker,
    RowsOp,
};
use csq_expr::{AggFunc, PhysExpr};
use csq_storage::Table;

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("k1", DataType::Int),
        Field::new("k2", DataType::Int),
        Field::new("v", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
    ])
}

/// Floats are quarter-integers (exactly representable, so sums associate
/// exactly across partial splits) plus the occasional NaN to drive the
/// MIN/MAX error path. `k2` sometimes draws from 600 values — more distinct
/// keys than a 16-row segment's window holds, and a lane two bytes wide, so
/// off the one-byte code map. `v` packs at each INT lane width (one, two,
/// four and eight bytes), and one draw in eight is [`BIG`].
fn arb_row() -> impl Strategy<Value = Row> {
    (
        prop_oneof![(-4i64..4).prop_map(Value::Int), Just(Value::Null)],
        prop_oneof![
            (-3i64..3).prop_map(Value::Int),
            (-300i64..300).prop_map(Value::Int),
            Just(Value::Null),
        ],
        prop_oneof![
            (-6i64..6).prop_map(Value::Int),
            (-6i64..6).prop_map(Value::Int),
            (-6i64..6).prop_map(Value::Int),
            (-30_000i64..30_000).prop_map(Value::Int),
            (-2_000_000_000i64..2_000_000_000).prop_map(Value::Int),
            (-15i64..16).prop_map(|r| Value::Int(r << 35)),
            Just(Value::Int(BIG)),
            Just(Value::Null),
        ],
        prop_oneof![
            (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.25)),
            (-8i64..8).prop_map(|i| Value::Float(i as f64 * 0.25)),
            Just(Value::Float(f64::NAN)),
            Just(Value::Null),
        ],
        prop_oneof![
            (0usize..3).prop_map(|k| match k {
                0 => Value::from("a"),
                1 => Value::from("bb"),
                _ => Value::from("ccc"),
            }),
            Just(Value::Null),
        ],
    )
        .prop_map(|(a, b, c, d, e)| Row::new(vec![a, b, c, d, e]))
}

/// An INT whose sum with any other values of `v` a case draws stays in
/// range, and two of which overflow: `i64::MAX` less a margin wider than
/// all the other values of 160 rows can add up to.
const BIG: i64 = i64::MAX - (1 << 51);

/// Rows of [`arb_row`] with their [`BIG`]s kept in a sixth of the cases,
/// negated in another sixth and replaced by a small value in the rest: a
/// group's sum then overflows (past `i64::MAX`, or past `i64::MIN`) exactly
/// when it holds two, in whatever order and however the rows are split, or
/// never — so most cases still compare SUM and AVG values.
fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    (prop::collection::vec(arb_row(), 0..160), 0u8..6).prop_map(|(rows, mode)| {
        let big = match mode {
            0 => BIG,
            1 => -BIG,
            _ => 7,
        };
        rows.into_iter()
            .map(|row| match row.value(2) {
                Value::Int(BIG) => {
                    let mut values = row.into_values();
                    values[2] = Value::Int(big);
                    Row::new(values)
                }
                _ => row,
            })
            .collect()
    })
}

/// One generated aggregate call. SUM/AVG stay on numeric columns (see the
/// note at the end of [`arb_call`]); the type-error path is covered by the
/// dedicated `sum_over_strings_is_a_type_error_on_every_engine` test.
#[derive(Debug, Clone)]
struct CallSpec {
    func: AggFunc,
    arg: Option<usize>,
}

fn arb_call() -> impl Strategy<Value = CallSpec> {
    prop_oneof![
        Just(CallSpec {
            func: AggFunc::Count,
            arg: None
        }),
        (0usize..5).prop_map(|c| CallSpec {
            func: AggFunc::Count,
            arg: Some(c)
        }),
        (2usize..4).prop_map(|c| CallSpec {
            func: AggFunc::Sum,
            arg: Some(c)
        }),
        (0usize..5).prop_map(|c| CallSpec {
            func: AggFunc::Min,
            arg: Some(c)
        }),
        (0usize..5).prop_map(|c| CallSpec {
            func: AggFunc::Max,
            arg: Some(c)
        }),
        (2usize..4).prop_map(|c| CallSpec {
            func: AggFunc::Avg,
            arg: Some(c)
        }),
        // SUM/AVG stay on numeric columns here so the only generatable
        // failure kind is "exec" (NaN in a MIN/MAX group, or an INT SUM/AVG
        // overflow in a group holding two `BIG`s): when a case can
        // contain two *different* error kinds, which one surfaces first
        // depends on evaluation order (per-row, per-group, per-chunk)
        // and is legitimately engine-specific. The type-error path has its
        // own deterministic cross-engine test below.
    ]
}

fn specs_of(calls: &[CallSpec]) -> Vec<AggSpec> {
    calls
        .iter()
        .enumerate()
        .map(|(i, c)| AggSpec::new(c.func, c.arg.map(PhysExpr::Column), format!("a{i}")))
        .collect()
}

/// Group keys: any subset of the two int keys and the string column
/// (including the empty set — a global aggregate).
fn arb_key() -> impl Strategy<Value = Vec<usize>> {
    (0u8..8).prop_map(|mask| {
        [0usize, 1, 4]
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c)
            .collect()
    })
}

// ---- the naive row-at-a-time reference -------------------------------------

/// Independent fold logic: collects each group's argument values and folds
/// them one at a time, mirroring SQL semantics from scratch (NULL skipping,
/// Int overflow checks, Int/Float widening, sql_cmp-based MIN/MAX).
fn naive_reference(rows: &[Row], key: &[usize], calls: &[CallSpec]) -> Result<Vec<Row>> {
    use std::collections::HashMap;
    let mut order: Vec<Row> = Vec::new();
    let mut groups: HashMap<Row, Vec<Vec<Option<Value>>>> = HashMap::new();
    for row in rows {
        let k = row.project(key);
        let entry = groups.entry(k.clone()).or_insert_with(|| {
            order.push(k);
            vec![Vec::new(); calls.len()]
        });
        for (ci, call) in calls.iter().enumerate() {
            entry[ci].push(call.arg.map(|c| row.value(c).clone()));
        }
    }
    if rows.is_empty() && key.is_empty() {
        order.push(Row::new(vec![]));
        groups.insert(Row::new(vec![]), vec![Vec::new(); calls.len()]);
    }
    let mut out = Vec::with_capacity(order.len());
    for k in order {
        let vals = &groups[&k];
        let mut row = k.into_values();
        for (ci, call) in calls.iter().enumerate() {
            row.push(naive_fold(call.func, &vals[ci])?);
        }
        out.push(Row::new(row));
    }
    Ok(out)
}

fn naive_add(acc: Option<Value>, v: &Value) -> Result<Option<Value>> {
    let acc = match acc {
        None => {
            return match v {
                Value::Int(_) | Value::Float(_) => Ok(Some(v.clone())),
                other => Err(CsqError::Type(format!(
                    "aggregate argument must be numeric, got {:?}",
                    other.data_type()
                ))),
            }
        }
        Some(a) => a,
    };
    Ok(Some(match (&acc, v) {
        (Value::Int(a), Value::Int(b)) => Value::Int(
            a.checked_add(*b)
                .ok_or_else(|| CsqError::Exec("integer overflow".into()))?,
        ),
        (a, b) => Value::Float(a.as_f64()? + b.as_f64()?),
    }))
}

fn naive_fold(func: AggFunc, vals: &[Option<Value>]) -> Result<Value> {
    match func {
        AggFunc::Count => {
            let n = vals
                .iter()
                .filter(|v| match v {
                    None => true, // COUNT(*)
                    Some(v) => !v.is_null(),
                })
                .count();
            Ok(Value::Int(n as i64))
        }
        AggFunc::Sum => {
            let mut acc = None;
            for v in vals.iter().flatten() {
                if !v.is_null() {
                    acc = naive_add(acc, v)?;
                }
            }
            Ok(acc.unwrap_or(Value::Null))
        }
        AggFunc::Avg => {
            let mut acc = None;
            let mut n = 0i64;
            for v in vals.iter().flatten() {
                if !v.is_null() {
                    acc = naive_add(acc, v)?;
                    n += 1;
                }
            }
            match acc {
                Some(a) => Ok(Value::Float(a.as_f64()? / n as f64)),
                None => Ok(Value::Null),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut acc: Option<Value> = None;
            for v in vals.iter().flatten() {
                if v.is_null() {
                    continue;
                }
                match &acc {
                    None => acc = Some(v.clone()),
                    Some(a) => {
                        let ord = v.sql_cmp(a)?.ok_or_else(|| {
                            CsqError::Exec("incomparable values in sort key".into())
                        })?;
                        let replace = match func {
                            AggFunc::Min => ord == std::cmp::Ordering::Less,
                            _ => ord == std::cmp::Ordering::Greater,
                        };
                        if replace {
                            acc = Some(v.clone());
                        }
                    }
                }
            }
            Ok(acc.unwrap_or(Value::Null))
        }
    }
}

// ---- runners ----------------------------------------------------------------

fn run_serial(rows: Vec<Row>, key: Vec<usize>, specs: Vec<AggSpec>) -> Result<Vec<Row>> {
    let scan: BoxOp = Box::new(RowsOp::new(base_schema(), rows));
    let mut agg = HashAggregate::new(scan, key, specs);
    collect(&mut agg)
}

/// Partial-aggregate each contiguous chunk, concatenate the state rows, and
/// finalize them — the phases a `server-partial` plan chains over one
/// source and a `shard-partial` plan runs over one source a shard.
fn run_split(
    rows: Vec<Row>,
    key: Vec<usize>,
    specs: Vec<AggSpec>,
    chunks: usize,
) -> Result<Vec<Row>> {
    let state_schema = aggregate_state_schema(&base_schema(), &key, &specs);
    let chunk_len = rows.len().div_ceil(chunks).max(1);
    let mut pieces: Vec<Vec<Row>> = rows.chunks(chunk_len).map(<[Row]>::to_vec).collect();
    if pieces.is_empty() {
        pieces.push(Vec::new());
    }
    let mut states = Vec::new();
    for piece in pieces {
        let scan: BoxOp = Box::new(RowsOp::new(base_schema(), piece));
        states.extend(collect(&mut HashAggregate::partial(
            scan,
            key.clone(),
            specs.clone(),
        ))?);
    }
    let states: BoxOp = Box::new(RowsOp::new(state_schema, states));
    collect(&mut HashAggregate::finalize(states, key.len(), specs)?)
}

/// How [`run_scanned`] aggregates the scan.
#[derive(Debug, Clone, Copy)]
enum Phases {
    Single,
    PartialThenFinal,
}

/// Segment sizes the lane path is run at: every row its own segment, and
/// sizes that leave a ragged last segment or tail.
const SEGMENT_ROWS: [usize; 4] = [1, 3, 7, 16];

/// `rows` (of `schema`) in a table sealing every `segment_rows`; what is left
/// over stays in the row-oriented tail unless `seal_tail`.
fn scanned_table(schema: Schema, rows: &[Row], segment_rows: usize, seal_tail: bool) -> Arc<Table> {
    let t = Table::with_segment_rows("t", schema, segment_rows).unwrap();
    t.insert_all(rows.to_vec()).unwrap();
    if seal_tail {
        t.seal_tail();
    }
    Arc::new(t)
}

/// Aggregate the lane batches of a scan of `cols` of `table` (key and
/// argument ordinals are positions in `cols`).
fn aggregate_scan(
    table: &Arc<Table>,
    cols: &[usize],
    key: Vec<usize>,
    specs: Vec<AggSpec>,
    phases: Phases,
    memory: Option<Arc<MemoryTracker>>,
) -> Result<Vec<Row>> {
    let scan: BoxOp = Box::new(ColumnarScan::with_columns(table, "t", cols, None)?);
    let budgeted = |agg: HashAggregate| match &memory {
        Some(t) => agg.with_memory(t.clone()),
        None => agg,
    };
    match phases {
        Phases::Single => collect(&mut budgeted(HashAggregate::new(scan, key, specs))),
        Phases::PartialThenFinal => {
            let key_len = key.len();
            let partial = budgeted(HashAggregate::partial(scan, key, specs.clone()));
            collect(&mut HashAggregate::finalize(
                Box::new(partial),
                key_len,
                specs,
            )?)
        }
    }
}

/// The lane engine: `rows` through a table and its columnar scan.
fn run_scanned(
    rows: &[Row],
    key: Vec<usize>,
    specs: Vec<AggSpec>,
    segment_rows: usize,
    seal_tail: bool,
    phases: Phases,
) -> Result<Vec<Row>> {
    let table = scanned_table(base_schema(), rows, segment_rows, seal_tail);
    let cols: Vec<usize> = (0..base_schema().len()).collect();
    aggregate_scan(&table, &cols, key, specs, phases, None)
}

/// Every shape of the lane engine against the reference (multiset and error
/// kind) and against the serial run over the same rows as rows (order too).
fn assert_scanned_agrees(
    rows: &[Row],
    key: &[usize],
    specs: &[AggSpec],
    reference: &Result<Vec<Row>>,
    serial: &Result<Vec<Row>>,
) {
    for segment_rows in SEGMENT_ROWS {
        for seal_tail in [false, true] {
            for phases in [Phases::Single, Phases::PartialThenFinal] {
                let label = format!(
                    "scanned {phases:?} at {segment_rows}/segment, tail sealed: {seal_tail}"
                );
                let scanned = run_scanned(
                    rows,
                    key.to_vec(),
                    specs.to_vec(),
                    segment_rows,
                    seal_tail,
                    phases,
                );
                assert_agree(&label, reference, &scanned);
                if let (Ok(a), Ok(b)) = (serial, &scanned) {
                    assert_eq!(a, b, "{label}: group order");
                }
            }
        }
    }
}

fn sorted_display(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r}")).collect();
    out.sort();
    out
}

/// Compare two engine outcomes: equal multisets on success, equal error
/// kinds on failure.
fn assert_agree(label: &str, reference: &Result<Vec<Row>>, other: &Result<Vec<Row>>) {
    match (reference, other) {
        (Ok(a), Ok(b)) => assert_eq!(sorted_display(a), sorted_display(b), "{label}"),
        (Err(a), Err(b)) => assert_eq!(a.kind(), b.kind(), "{label}"),
        (a, b) => panic!("{label}: reference={a:?} other={b:?}"),
    }
}

#[test]
fn sum_over_strings_is_a_type_error_on_every_engine() {
    let rows: Vec<Row> = (0..20)
        .map(|i| {
            Row::new(vec![
                Value::Int(i % 3),
                Value::Null,
                Value::Int(i),
                Value::Float(0.5),
                Value::from("x"),
            ])
        })
        .collect();
    let calls = vec![CallSpec {
        func: AggFunc::Sum,
        arg: Some(4),
    }];
    let key = vec![0usize];
    assert_eq!(
        naive_reference(&rows, &key, &calls).unwrap_err().kind(),
        "type"
    );
    assert_eq!(
        run_serial(rows.clone(), key.clone(), specs_of(&calls))
            .unwrap_err()
            .kind(),
        "type"
    );
    for chunks in [1usize, 3] {
        assert_eq!(
            run_split(rows.clone(), key.clone(), specs_of(&calls), chunks)
                .unwrap_err()
                .kind(),
            "type",
            "chunks = {chunks}"
        );
    }
    for phases in [Phases::Single, Phases::PartialThenFinal] {
        let scanned = run_scanned(&rows, key.clone(), specs_of(&calls), 7, true, phases);
        assert_eq!(scanned.unwrap_err().kind(), "type", "{phases:?}");
    }
}

/// Under a 4 KB budget, the `server-partial` and the `client-only`
/// statement both spill, return the groups the unbudgeted run returns, and
/// give every tracked byte back.
#[test]
fn both_placements_spill_under_the_memory_budget() {
    let db = Database::new(NetworkSpec::lan());
    db.execute("CREATE TABLE T (Id INT, Grp INT, Val INT)")
        .unwrap();
    let rows: Vec<Row> = (0..40_000i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 2000),
                Value::Int(i % 97),
            ])
        })
        .collect();
    db.catalog().get("T").unwrap().insert_all(rows).unwrap();
    for (sql, placement) in [
        (
            "SELECT T.Grp, count(*), sum(T.Val) FROM T T GROUP BY T.Grp",
            "Aggregate [server-partial]",
        ),
        (
            "SELECT T.Id, T.Grp, count(*) FROM T T GROUP BY T.Id, T.Grp",
            "Aggregate [client-only]",
        ),
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains(placement), "{sql}: {plan}");
        let unbudgeted = db.execute(sql).unwrap().rows;
        db.set_memory_budget(4096);
        let budgeted = db.execute(sql).unwrap().rows;
        let tracker = db.memory_tracker();
        assert!(tracker.spill_count() > 0, "{sql}: no spill under 4 KB");
        assert_eq!(tracker.used(), 0, "{sql}: tracked bytes left behind");
        assert_eq!(
            sorted_display(&budgeted),
            sorted_display(&unbudgeted),
            "{sql}"
        );
        db.set_memory_budget(usize::MAX);
    }
}

/// Inputs the strategies reach rarely or never, each run through the lane
/// engine in every shape and pinned to the answer — or the error text — the
/// row loop gives (the literals are the parent commit's).
mod pinned {
    use super::*;

    fn call(func: AggFunc, arg: usize) -> CallSpec {
        CallSpec {
            func,
            arg: Some(arg),
        }
    }

    /// A base-schema row: `k1`, `v`, `f` given, the rest NULL.
    fn row(k1: Value, v: Value, f: Value) -> Row {
        Row::new(vec![k1, Value::Null, v, f, Value::Null])
    }

    /// `rows` grouped by `key` through the serial engine and every shape of
    /// the lane engine, all of which must agree with the reference; returns
    /// the serial outcome.
    fn every_engine(rows: &[Row], key: &[usize], calls: &[CallSpec]) -> Result<Vec<Row>> {
        let reference = naive_reference(rows, key, calls);
        let serial = run_serial(rows.to_vec(), key.to_vec(), specs_of(calls));
        assert_agree("serial vs naive", &reference, &serial);
        assert_scanned_agrees(rows, key, &specs_of(calls), &reference, &serial);
        serial
    }

    /// The error text of every single-phase run over one sealed segment
    /// holding all of `rows` — the lane engine's and the row engine's.
    fn error_texts(rows: &[Row], calls: &[CallSpec]) -> Vec<String> {
        let scanned = run_scanned(rows, vec![0], specs_of(calls), 16, true, Phases::Single);
        let serial = run_serial(rows.to_vec(), vec![0], specs_of(calls));
        vec![
            scanned.unwrap_err().to_string(),
            serial.unwrap_err().to_string(),
        ]
    }

    const OVERFLOW: &str = "exec error: integer overflow";
    const INCOMPARABLE: &str = "exec error: incomparable values in sort key";

    #[test]
    fn int_lane_sum_overflow_raises_the_row_loops_error() {
        let rows = vec![
            row(Value::Int(1), Value::Int(i64::MAX), Value::Null),
            row(Value::Int(2), Value::Int(5), Value::Null),
            row(Value::Int(1), Value::Int(1), Value::Null),
        ];
        for func in [AggFunc::Sum, AggFunc::Avg] {
            assert_eq!(error_texts(&rows, &[call(func, 2)]), [OVERFLOW, OVERFLOW]);
            assert_eq!(
                every_engine(&rows, &[0], &[call(func, 2)])
                    .unwrap_err()
                    .kind(),
                "exec"
            );
        }
    }

    #[test]
    fn the_first_failing_row_then_the_first_failing_call_names_the_error() {
        // One group, one batch. `sum(v)` overflows on the row holding the 1
        // after the MAX, `max(f)` fails on the NaN row (it is not the first).
        let rows_failing_at = |overflow_at: usize, nan_at: usize| -> Vec<Row> {
            (0..8)
                .map(|i| {
                    let v = match i {
                        0 => i64::MAX,
                        _ if i == overflow_at => 1,
                        _ => 0,
                    };
                    let f = if i == nan_at { f64::NAN } else { i as f64 };
                    row(Value::Int(7), Value::Int(v), Value::Float(f))
                })
                .collect()
        };
        let sum_then_max = [call(AggFunc::Sum, 2), call(AggFunc::Max, 3)];
        let max_then_sum = [call(AggFunc::Max, 3), call(AggFunc::Sum, 2)];
        // The later call fails on the earlier row: the row decides.
        let rows = rows_failing_at(5, 3);
        assert_eq!(
            error_texts(&rows, &sum_then_max),
            [INCOMPARABLE, INCOMPARABLE]
        );
        assert_eq!(
            error_texts(&rows, &max_then_sum),
            [INCOMPARABLE, INCOMPARABLE]
        );
        let rows = rows_failing_at(3, 5);
        assert_eq!(error_texts(&rows, &sum_then_max), [OVERFLOW, OVERFLOW]);
        assert_eq!(error_texts(&rows, &max_then_sum), [OVERFLOW, OVERFLOW]);
        // Both fail on the same row: the call decides.
        let rows = rows_failing_at(4, 4);
        assert_eq!(error_texts(&rows, &sum_then_max), [OVERFLOW, OVERFLOW]);
        assert_eq!(
            error_texts(&rows, &max_then_sum),
            [INCOMPARABLE, INCOMPARABLE]
        );
    }

    #[test]
    fn all_null_and_part_null_lanes_skip_their_nulls() {
        // `v` is NULL throughout (a lane of raw NULLs), `k2` in some rows (an
        // INT lane with a bitmap); group 2 sees only NULLs of either.
        let rows: Vec<Row> = (0..12i64)
            .map(|i| {
                let k2 = if i % 3 == 2 {
                    Value::Null
                } else {
                    Value::Int(i)
                };
                Row::new(vec![
                    Value::Int(i % 3),
                    k2,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ])
            })
            .collect();
        let calls: Vec<CallSpec> = [2, 1]
            .into_iter()
            .flat_map(|c| {
                [
                    call(AggFunc::Count, c),
                    call(AggFunc::Sum, c),
                    call(AggFunc::Avg, c),
                ]
            })
            .collect();
        let out = every_engine(&rows, &[0], &calls).unwrap();
        let nulls = [Value::Int(0), Value::Null, Value::Null];
        assert_eq!(out[0].values()[1..4], nulls);
        assert_eq!(
            out[0].values()[4..],
            [Value::Int(4), Value::Int(18), Value::Float(4.5)]
        );
        assert_eq!(out[2].values()[1..4], nulls);
        assert_eq!(out[2].values()[4..], nulls);
    }

    #[test]
    fn ints_in_a_float_column_sum_to_the_mix_the_row_loop_gives() {
        // FLOAT column `f` holding INTs: all-INT segments are INT lanes,
        // mixed ones raw values; a group's sum is INT until its first FLOAT.
        let rows = vec![
            row(Value::Int(1), Value::Null, Value::Int(1)),
            row(Value::Int(2), Value::Null, Value::Int(1)),
            row(Value::Int(1), Value::Null, Value::Int(2)),
            row(Value::Int(2), Value::Null, Value::Float(0.5)),
            row(Value::Int(2), Value::Null, Value::Int(2)),
            row(Value::Int(3), Value::Null, Value::Float(0.25)),
        ];
        let out = every_engine(
            &rows,
            &[0],
            &[
                call(AggFunc::Sum, 3),
                call(AggFunc::Avg, 3),
                call(AggFunc::Min, 3),
            ],
        )
        .unwrap();
        let expect = [
            [
                Value::Int(1),
                Value::Int(3),
                Value::Float(1.5),
                Value::Int(1),
            ],
            [
                Value::Int(2),
                Value::Float(3.5),
                Value::Float(3.5 / 3.0),
                Value::Float(0.5),
            ],
            [
                Value::Int(3),
                Value::Float(0.25),
                Value::Float(0.25),
                Value::Float(0.25),
            ],
        ];
        for (got, want) in out.iter().zip(&expect) {
            assert_eq!(got.values(), want);
        }
    }

    #[test]
    fn null_signed_zero_and_nan_keys_group_by_value_equality() {
        let keys = [
            Value::Float(-0.0),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Float(0.0),
        ];
        let rows: Vec<Row> = keys
            .iter()
            .map(|k| row(Value::Null, Value::Int(1), k.clone()))
            .collect();
        let out = every_engine(
            &rows,
            &[3],
            &[CallSpec {
                func: AggFunc::Count,
                arg: None,
            }],
        )
        .unwrap();
        let groups: Vec<(u64, i64)> = out
            .iter()
            .map(|r| {
                let bits = match r.value(0) {
                    Value::Float(f) => f.to_bits(),
                    Value::Null => 1,
                    other => panic!("key {other:?}"),
                };
                (bits, r.value(1).as_i64().unwrap())
            })
            .collect();
        assert_eq!(
            groups,
            vec![
                ((-0.0f64).to_bits(), 1),
                (1, 2),
                (f64::NAN.to_bits(), 2),
                (0.0f64.to_bits(), 2)
            ]
        );
        // An INT key and the FLOAT equal to it are two groups.
        let rows = vec![
            row(Value::Null, Value::Null, Value::Int(1)),
            row(Value::Null, Value::Null, Value::Float(1.0)),
            row(Value::Null, Value::Null, Value::Int(1)),
        ];
        let out = every_engine(
            &rows,
            &[3],
            &[CallSpec {
                func: AggFunc::Count,
                arg: None,
            }],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].values(), [Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn float_max_over_a_nan_is_the_same_typed_error() {
        let rows = vec![
            row(Value::Int(1), Value::Null, Value::Float(1.0)),
            row(Value::Int(1), Value::Null, Value::Float(f64::NAN)),
        ];
        for func in [AggFunc::Max, AggFunc::Min] {
            assert_eq!(
                error_texts(&rows, &[call(func, 3)]),
                [INCOMPARABLE, INCOMPARABLE]
            );
            assert_eq!(
                every_engine(&rows, &[0], &[call(func, 3)])
                    .unwrap_err()
                    .kind(),
                "exec"
            );
        }
        // A lone NaN is never compared.
        assert!(every_engine(&rows[1..], &[0], &[call(AggFunc::Max, 3)]).is_ok());
    }

    #[test]
    fn count_star_over_a_scan_of_no_columns() {
        let rows: Vec<Row> = (0..40)
            .map(|i| row(Value::Int(i), Value::Null, Value::Null))
            .collect();
        let count = || vec![AggSpec::new(AggFunc::Count, None, "n")];
        for (segment_rows, seal_tail) in [(16, false), (16, true), (64, false)] {
            let table = scanned_table(base_schema(), &rows, segment_rows, seal_tail);
            for phases in [Phases::Single, Phases::PartialThenFinal] {
                let out = aggregate_scan(&table, &[], vec![], count(), phases, None).unwrap();
                assert_eq!(out, vec![Row::new(vec![Value::Int(40)])]);
            }
        }
        let empty = scanned_table(base_schema(), &[], 16, true);
        let out = aggregate_scan(&empty, &[], vec![], count(), Phases::Single, None).unwrap();
        assert_eq!(out, vec![Row::new(vec![Value::Int(0)])]);
    }

    #[test]
    fn a_zero_budget_spills_lane_input_to_the_same_groups() {
        let rows: Vec<Row> = (0..200i64)
            .map(|i| {
                let v = if i % 9 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                };
                row(Value::Int(i % 23), v, Value::Float((i % 4) as f64 * 0.25))
            })
            .collect();
        let calls = [
            CallSpec {
                func: AggFunc::Count,
                arg: None,
            },
            call(AggFunc::Sum, 2),
            call(AggFunc::Avg, 3),
            call(AggFunc::Min, 2),
        ];
        let reference = naive_reference(&rows, &[0], &calls);
        let table = scanned_table(base_schema(), &rows, 16, false);
        let cols: Vec<usize> = (0..5).collect();
        for phases in [Phases::Single, Phases::PartialThenFinal] {
            let tracker = MemoryTracker::new(0);
            let spilled = aggregate_scan(
                &table,
                &cols,
                vec![0],
                specs_of(&calls),
                phases,
                Some(tracker.clone()),
            );
            assert_agree(&format!("spilled {phases:?}"), &reference, &spilled);
            assert!(tracker.spill_count() > 0, "budget 0 must force a spill");
            assert_eq!(tracker.used(), 0);
        }
    }
}

/// Full 1 024-row windows through the lane kernels, in default-size tables
/// (the property above draws at most 160 rows at 16 or fewer a segment).
/// A one-byte key's code map lives across batches and must be dropped
/// whenever the table drains: a spill flush mid-build is the case that
/// shows a stale map, so every input here also runs under a budget.
mod kernels {
    use super::*;
    use csq_common::DEFAULT_BATCH_SIZE;
    use csq_storage::DEFAULT_SEGMENT_ROWS;

    /// COUNT(*), COUNT(v), SUM/AVG over the INT and the FLOAT lane, MIN(v),
    /// MAX(f).
    fn calls() -> Vec<CallSpec> {
        let call = |func, arg| CallSpec { func, arg };
        vec![
            call(AggFunc::Count, None),
            call(AggFunc::Count, Some(2)),
            call(AggFunc::Sum, Some(2)),
            call(AggFunc::Avg, Some(2)),
            call(AggFunc::Sum, Some(3)),
            call(AggFunc::Avg, Some(3)),
            call(AggFunc::Min, Some(2)),
            call(AggFunc::Max, Some(3)),
        ]
    }

    /// `rows` in a table of default-size segments, sealed.
    fn default_table(rows: &[Row]) -> Arc<Table> {
        let t = Table::new("t", base_schema()).unwrap();
        t.insert_all(rows.to_vec()).unwrap();
        t.seal_tail();
        Arc::new(t)
    }

    /// `rows` grouped by `k1` off the scan, single-phase and partial→final,
    /// with `memory`'s budget when given.
    fn scanned(
        rows: &[Row],
        phases: Phases,
        memory: Option<Arc<MemoryTracker>>,
    ) -> Result<Vec<Row>> {
        let cols: Vec<usize> = (0..base_schema().len()).collect();
        aggregate_scan(
            &default_table(rows),
            &cols,
            vec![0],
            specs_of(&calls()),
            phases,
            memory,
        )
    }

    /// Three segments: keys 0..3 (one-byte INT) in the first and the last,
    /// and in the middle one sixty more keys from 300 up, so that segment's
    /// key lane is two bytes wide; a NULL key every 37 rows throughout.
    fn mixed_width_keys() -> Vec<Row> {
        (0..3 * DEFAULT_SEGMENT_ROWS as i64)
            .map(|i| {
                let wide =
                    (DEFAULT_SEGMENT_ROWS as i64..2 * DEFAULT_SEGMENT_ROWS as i64).contains(&i);
                let k = match i {
                    _ if i % 37 == 0 => Value::Null,
                    _ if wide && i % 3 == 0 => Value::Int(300 + i % 60),
                    _ => Value::Int(i % 3),
                };
                let v = if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 1000 + 1)
                };
                let f = if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 8) as f64 * 0.25)
                };
                Row::new(vec![k, Value::Null, v, f, Value::Null])
            })
            .collect()
    }

    /// Run `rows` single-phase and partial→final under `budget`, each held
    /// to the reference; the budget must have forced a spill and every
    /// tracked byte must come back.
    fn assert_spilled_agrees(rows: &[Row], budget: usize) {
        let reference = naive_reference(rows, &[0], &calls());
        for phases in [Phases::Single, Phases::PartialThenFinal] {
            let tracker = MemoryTracker::new(budget);
            let got = scanned(rows, phases, Some(tracker.clone()));
            assert_agree(
                &format!("{phases:?} at a {budget}-byte budget"),
                &reference,
                &got,
            );
            assert!(
                tracker.spill_count() > 0,
                "a {budget}-byte budget must spill"
            );
            assert_eq!(tracker.used(), 0);
        }
    }

    #[test]
    fn one_and_two_byte_key_segments_with_nulls_agree_with_the_reference() {
        let rows = mixed_width_keys();
        assert!(rows.len() >= 3 * DEFAULT_BATCH_SIZE);
        let reference = naive_reference(&rows, &[0], &calls());
        let serial = run_serial(rows.clone(), vec![0], specs_of(&calls()));
        assert_agree("serial", &reference, &serial);
        for phases in [Phases::Single, Phases::PartialThenFinal] {
            let got = scanned(&rows, phases, None);
            assert_agree(&format!("{phases:?}"), &reference, &got);
        }
        // First-occurrence order, across the segment whose keys are hashed.
        assert_eq!(
            scanned(&rows, Phases::Single, None).unwrap(),
            serial.unwrap()
        );
        // Four groups fit in 4 KB and sixty-odd do not: the wide segment
        // spills, and the last segment's one-byte keys must not find the
        // first segment's groups in a code map the spill left behind.
        assert_spilled_agrees(&rows, 4096);
    }

    #[test]
    fn the_same_keys_under_a_zero_budget_drop_the_code_map_at_every_spill() {
        assert_spilled_agrees(&mixed_width_keys(), 0);
    }

    /// One default segment, keys `i % 7`, `v` positive; `v` is `i64::MAX` on
    /// the row at `overflow_at` and `f` is NaN on the row at `nan_at`.
    fn failing_at(overflow_at: usize, nan_at: usize) -> Vec<Row> {
        (0..DEFAULT_SEGMENT_ROWS)
            .map(|i| {
                let v = if i == overflow_at {
                    i64::MAX
                } else {
                    i as i64 % 100 + 1
                };
                let f = if i == nan_at {
                    f64::NAN
                } else {
                    (i % 8) as f64 * 0.25
                };
                let k = Value::Int(i as i64 % 7);
                Row::new(vec![
                    k,
                    Value::Null,
                    Value::Int(v),
                    Value::Float(f),
                    Value::Null,
                ])
            })
            .collect()
    }

    #[test]
    fn a_sum_overflowing_in_the_third_window_raises_the_row_loops_error_at_its_row() {
        // The row holding `i64::MAX` overflows its group's running sum; a
        // NaN under MAX(f) fails on another row of the same window. The
        // earlier of the two rows names the error, whichever call it is.
        let third = 2 * DEFAULT_BATCH_SIZE;
        for (overflow_at, nan_at, expect) in [
            (third + 500, third + 700, "exec error: integer overflow"),
            (
                third + 500,
                third + 300,
                "exec error: incomparable values in sort key",
            ),
        ] {
            let rows = failing_at(overflow_at, nan_at);
            let serial = run_serial(rows.clone(), vec![0], specs_of(&calls()));
            assert_eq!(serial.unwrap_err().to_string(), expect, "the row loop");
            for phases in [Phases::Single, Phases::PartialThenFinal] {
                for memory in [None, Some(MemoryTracker::new(0))] {
                    let spills = memory.is_some();
                    let got = scanned(&rows, phases, memory.clone());
                    assert_eq!(
                        got.unwrap_err().to_string(),
                        expect,
                        "{phases:?}, spilling: {spills}"
                    );
                    if let Some(t) = memory {
                        assert!(t.spill_count() > 0, "the first windows spill");
                        assert_eq!(t.used(), 0);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn naive_reference_matches_hash_aggregate(
        rows in arb_rows(),
        key in arb_key(),
        calls in prop::collection::vec(arb_call(), 1..4),
    ) {
        let reference = naive_reference(&rows, &key, &calls);
        let serial = run_serial(rows.clone(), key.clone(), specs_of(&calls));
        assert_agree("serial vs naive", &reference, &serial);
        assert_scanned_agrees(&rows, &key, &specs_of(&calls), &reference, &serial);
    }

    #[test]
    fn shipped_partial_final_matches_naive(
        rows in arb_rows(),
        key in arb_key(),
        calls in prop::collection::vec(arb_call(), 1..4),
        chunks in prop_oneof![Just(1usize), Just(3)],
    ) {
        let reference = naive_reference(&rows, &key, &calls);
        let split = run_split(rows, key, specs_of(&calls), chunks);
        assert_agree(&format!("split x{chunks} vs naive"), &reference, &split);
    }
}
