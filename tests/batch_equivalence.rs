//! Property tests for the vectorized engine (extends the `backends_agree`
//! family):
//!
//! 1. Random operator pipelines are insensitive to batch boundaries: the
//!    same rows fed in chunks of 1, 3, 17 or all at once produce identical
//!    results — and identical error kinds when a pipeline is ill-typed,
//!    under every chunking — so operator state that spans batches (`Sort`'s
//!    re-chunking, `Filter`'s empty-batch skipping) is pinned.
//!    Each chunking is also fed as lane-backed batches (the chunk's columns
//!    as typed lanes plus a selection, what a scan emits), which the
//!    pipeline must not be able to tell from the same rows as rows.
//! 2. `HashJoin` — in memory and through its Grace fallback — returns the
//!    rows of the cross product under an equality `Filter`, which is what
//!    lowering builds for every SQL join today (ROADMAP 1(a)); one pinned
//!    case writes down where the two differ.
//! 3. Random semi-join / client-join workloads ship byte-for-byte the same
//!    traffic through the threaded engine (batched senders, zero-copy
//!    receive) and the virtual-time simulator.
//! 4. A lane-backed batch and the same rows as rows are one input: `Filter`
//!    and `Project` answer the same over both, and leave the lanes unbuilt
//!    exactly where they can; the result frames the server encodes from
//!    batches are the frames of their rows, byte for byte.

use std::sync::Arc;

use proptest::prelude::*;

use csq_client::synthetic::ObjectUdf;
use csq_client::{spawn_client, ClientRuntime, QueryResponse};
use csq_common::{Blob, DataType, Field, Lane, Result, Row, RowBatch, Schema, Selection, Value};
use csq_exec::{
    collect, BoxOp, Filter, HashJoin, MemoryTracker, NestedLoopJoin, Operator, Project, RowsOp,
    Sort,
};
use csq_expr::{BinaryOp, PhysExpr};
use csq_net::{in_memory_duplex, NetworkSpec};
use csq_ship::{
    simulate_client_join, simulate_semijoin, ClientJoinSpec, SemiJoinSpec, ThreadedClientJoin,
    ThreadedSemiJoin, UdfApplication,
};

// ---- random pipelines: batch-boundary invariance ---------------------------

#[derive(Debug, Clone)]
enum StageSpec {
    /// `col <op> lit` — single-comparison filter (batch fast path).
    FilterCmp {
        col: u8,
        op: u8,
        lit: i64,
    },
    /// `col > lo AND col < hi` — conjunction filter (batch fast path).
    FilterRange {
        col: u8,
        lo: i64,
        hi: i64,
    },
    /// Bare-column projection, possibly plus a computed `c + c` column
    /// (exercises the in-place, move, and eval paths).
    Project {
        cols: Vec<u8>,
        add_sum: bool,
    },
    Sort {
        col: u8,
    },
}

fn cmp_op(sel: u8) -> BinaryOp {
    match sel % 6 {
        0 => BinaryOp::Eq,
        1 => BinaryOp::NotEq,
        2 => BinaryOp::Lt,
        3 => BinaryOp::LtEq,
        4 => BinaryOp::Gt,
        _ => BinaryOp::GtEq,
    }
}

fn base_schema() -> Schema {
    Schema::new(vec![
        Field::new("c0", DataType::Int),
        Field::new("c1", DataType::Int),
        Field::new("c2", DataType::Int),
        Field::new("s", DataType::Str),
    ])
}

fn arb_cell(kind: usize) -> impl Strategy<Value = Value> {
    prop_oneof![
        (-8i64..8).prop_map(Value::Int),
        (-8i64..8).prop_map(Value::Int),
        (-8i64..8).prop_map(Value::Int),
        Just(Value::Null),
        Just(match kind % 3 {
            0 => Value::from("aa"),
            1 => Value::from("bb"),
            _ => Value::from("longer string payload"),
        }),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    (
        arb_cell(0),
        arb_cell(1),
        arb_cell(2),
        prop_oneof![
            (0usize..3).prop_map(|k| match k {
                0 => Value::from("x"),
                1 => Value::from("yy"),
                _ => Value::from("zzz"),
            }),
            Just(Value::Null),
        ],
    )
        .prop_map(|(a, b, c, d)| Row::new(vec![a, b, c, d]))
}

fn arb_stage() -> impl Strategy<Value = StageSpec> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), -8i64..8).prop_map(|(col, op, lit)| StageSpec::FilterCmp {
            col,
            op,
            lit
        }),
        (any::<u8>(), -8i64..4, -4i64..8).prop_map(|(col, lo, hi)| StageSpec::FilterRange {
            col,
            lo,
            hi
        }),
        (prop::collection::vec(any::<u8>(), 1..4), any::<bool>())
            .prop_map(|(cols, add_sum)| StageSpec::Project { cols, add_sum }),
        any::<u8>().prop_map(|col| StageSpec::Sort { col }),
    ]
}

/// Source that hands its rows out `chunk` at a time — the batch boundaries
/// the pipeline above it must be insensitive to — as rows, or with `lanes`
/// as lane-backed batches: each chunk's columns built into lanes, under a
/// window selection and a selection vector in turn.
struct ChunkedRows {
    schema: Arc<Schema>,
    rows: std::vec::IntoIter<Row>,
    chunk: usize,
    lanes: bool,
    batches: usize,
}

impl Operator for ChunkedRows {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let rows: Vec<Row> = self.rows.by_ref().take(self.chunk).collect();
        if rows.is_empty() {
            return Ok(None);
        }
        if !self.lanes {
            return Ok(Some(RowBatch::from_rows(self.schema.clone(), rows)));
        }
        self.batches += 1;
        let lanes = (0..self.schema.len())
            .map(|c| Arc::new(Lane::build(&rows, c)))
            .collect();
        let sel = match self.batches % 2 {
            0 => Selection::Window(0..rows.len()),
            _ => Selection::Rows((0..rows.len()).collect()),
        };
        Ok(Some(RowBatch::from_lanes(self.schema.clone(), lanes, sel)))
    }
}

fn chunked(schema: Schema, rows: Vec<Row>, chunk: usize, lanes: bool) -> BoxOp {
    Box::new(ChunkedRows {
        schema: Arc::new(schema),
        rows: rows.into_iter(),
        chunk,
        lanes,
        batches: 0,
    })
}

/// Every chunking the properties feed a source in: (rows per batch,
/// lane-backed). First comes one row per batch as rows, the laziest run.
fn chunkings(all: usize) -> impl Iterator<Item = (usize, bool)> {
    let all = all.max(1);
    let as_rows = [1, 3, 17, all].map(|chunk| (chunk, false));
    let as_lanes = [1, 3, 17, all].map(|chunk| (chunk, true));
    as_rows.into_iter().chain(as_lanes)
}

/// Build the pipeline described by `stages` over a fresh copy of the data,
/// fed `chunk` rows per batch (lane-backed batches with `lanes`).
fn build_pipeline(stages: &[StageSpec], rows: Vec<Row>, chunk: usize, lanes: bool) -> BoxOp {
    let mut op = chunked(base_schema(), rows, chunk, lanes);
    for s in stages {
        let w = op.schema().len().max(1);
        op = match s {
            StageSpec::FilterCmp { col, op: sel, lit } => {
                let pred = PhysExpr::Binary {
                    left: Box::new(PhysExpr::Column(*col as usize % w)),
                    op: cmp_op(*sel),
                    right: Box::new(PhysExpr::Literal(Value::Int(*lit))),
                };
                Box::new(Filter::new(op, pred))
            }
            StageSpec::FilterRange { col, lo, hi } => {
                let c = *col as usize % w;
                let gt = PhysExpr::Binary {
                    left: Box::new(PhysExpr::Column(c)),
                    op: BinaryOp::Gt,
                    right: Box::new(PhysExpr::Literal(Value::Int(*lo))),
                };
                let lt = PhysExpr::Binary {
                    left: Box::new(PhysExpr::Column(c)),
                    op: BinaryOp::Lt,
                    right: Box::new(PhysExpr::Literal(Value::Int(*hi))),
                };
                let pred = PhysExpr::Binary {
                    left: Box::new(gt),
                    op: BinaryOp::And,
                    right: Box::new(lt),
                };
                Box::new(Filter::new(op, pred))
            }
            StageSpec::Project { cols, add_sum } => {
                let mut exprs: Vec<(PhysExpr, Field)> = cols
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let ord = *c as usize % w;
                        let dtype = op.schema().field(ord).dtype;
                        (PhysExpr::Column(ord), Field::new(format!("p{i}"), dtype))
                    })
                    .collect();
                if *add_sum {
                    let sum = PhysExpr::Binary {
                        left: Box::new(PhysExpr::Column(0)),
                        op: BinaryOp::Add,
                        right: Box::new(PhysExpr::Column(0)),
                    };
                    exprs.push((sum, Field::new("sum", DataType::Int)));
                }
                Box::new(Project::new(op, exprs))
            }
            StageSpec::Sort { col } => Box::new(Sort::new(op, vec![*col as usize % w])),
        };
    }
    op
}

/// Drain the pipeline, checking the never-empty-batch contract on the way.
fn run_batches(mut op: BoxOp) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch()? {
        assert!(!b.is_empty(), "operators must never emit empty batches");
        out.extend(b.into_rows());
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batch_boundaries_do_not_change_results(
        rows in prop::collection::vec(arb_row(), 0..120),
        stages in prop::collection::vec(arb_stage(), 0..5),
    ) {
        // One row per batch is the laziest run: every operator sees the
        // shortest input prefix that answers the pull.
        let lazy = run_batches(build_pipeline(&stages, rows.clone(), 1, false));
        for (chunk, lanes) in chunkings(rows.len()).skip(1) {
            let chunked = run_batches(build_pipeline(&stages, rows.clone(), chunk, lanes));
            match (&lazy, chunked) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, &b, "chunk={} lanes={}", chunk, lanes),
                // Ill-typed pipelines (e.g. sorting mixed Int/Str columns)
                // must fail identically under every chunking.
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.kind(), b.kind(), "chunk={} lanes={}", chunk, lanes)
                }
                (a, b) => prop_assert!(
                    false,
                    "chunk={chunk} lanes={lanes} disagrees: lazy={a:?} chunked={b:?}"
                ),
            }
        }
    }
}

// ---- hash join vs the cross product under a filter --------------------------

/// One join side: two key columns (INT, STR — the same types on both
/// sides) and a payload that tells duplicates of a key apart.
fn side_schema(side: &str) -> Schema {
    Schema::new(vec![
        Field::new(format!("{side}k0"), DataType::Int),
        Field::new(format!("{side}k1"), DataType::Str),
        Field::new(format!("{side}v"), DataType::Int),
    ])
}

/// Small key domains, so both sides repeat keys; NULLs in either column.
fn arb_side() -> impl Strategy<Value = Vec<Row>> {
    let row = (
        prop_oneof![
            (0i64..4).prop_map(Value::Int),
            (0i64..4).prop_map(Value::Int),
            Just(Value::Null)
        ],
        prop_oneof![
            Just(Value::from("a")),
            Just(Value::from("b")),
            Just(Value::Null)
        ],
    );
    prop::collection::vec(row, 0..40).prop_map(|keys| {
        keys.into_iter()
            .enumerate()
            .map(|(i, (k0, k1))| Row::new(vec![k0, k1, Value::Int(i as i64)]))
            .collect()
    })
}

/// What `csq_core::lower` builds for a join today: the cross product, with
/// the key equalities as the `Filter` above it.
fn filtered_cross_product(
    (ls, l): (Schema, Vec<Row>),
    (rs, r): (Schema, Vec<Row>),
    key: &[usize],
) -> Result<Vec<Row>> {
    let width = ls.len();
    let pred = key
        .iter()
        .map(|&k| PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(k)),
            op: BinaryOp::Eq,
            right: Box::new(PhysExpr::Column(width + k)),
        })
        .reduce(|acc, eq| PhysExpr::Binary {
            left: Box::new(acc),
            op: BinaryOp::And,
            right: Box::new(eq),
        })
        .expect("at least one key column");
    let cross = NestedLoopJoin::new(
        Box::new(RowsOp::new(ls, l)),
        Box::new(RowsOp::new(rs, r)),
        None,
    );
    collect(&mut Filter::new(Box::new(cross), pred))
}

fn as_multiset(rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(Row::to_string).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_join_matches_the_filtered_cross_product(
        l in arb_side(),
        r in arb_side(),
        two_keys in any::<bool>(),
    ) {
        let key: Vec<usize> = if two_keys { vec![0, 1] } else { vec![0] };
        let (ls, rs) = (side_schema("l"), side_schema("r"));
        let expected = as_multiset(
            filtered_cross_product((ls.clone(), l.clone()), (rs.clone(), r.clone()), &key)
                .unwrap(),
        );
        for (chunk, lanes) in chunkings(l.len().max(r.len())) {
            let join = || {
                HashJoin::new(
                    chunked(ls.clone(), l.clone(), chunk, lanes),
                    chunked(rs.clone(), r.clone(), chunk, lanes),
                    key.clone(),
                    key.clone(),
                )
            };
            let in_memory = run_batches(Box::new(join())).unwrap();
            prop_assert_eq!(&as_multiset(in_memory), &expected, "chunk={} lanes={}", chunk, lanes);
            // No budget at all: the build side spills at its first batch and
            // the join runs partition-wise (Grace).
            let tracker = MemoryTracker::new(0);
            let mut grace = join().with_memory(tracker.clone());
            let spilled = collect(&mut grace).unwrap();
            prop_assert_eq!(grace.spill_events(), usize::from(!r.is_empty()));
            prop_assert_eq!(&as_multiset(spilled), &expected, "grace chunk={} lanes={}", chunk, lanes);
            prop_assert_eq!(tracker.used(), 0);
        }
    }
}

/// Pinned, for ROADMAP 1(a): the two joins disagree on an `Int 1` /
/// `Float 1.0` key pair. `HashJoin` matches keys by `Value` equality, under
/// which values of different types are never equal; the filter compares by
/// `sql_cmp`, which widens the INT. Neither operator is changed to agree —
/// whoever lowers an equi-join onto `HashJoin` inherits this difference.
#[test]
fn int_and_float_keys_match_under_the_filter_but_not_in_the_hash_join() {
    let ls = Schema::new(vec![Field::new("lk", DataType::Int)]);
    let rs = Schema::new(vec![Field::new("rk", DataType::Float)]);
    let l = vec![Row::new(vec![Value::Int(1)])];
    let r = vec![Row::new(vec![Value::Float(1.0)])];
    let filtered = filtered_cross_product((ls.clone(), l.clone()), (rs.clone(), r.clone()), &[0]);
    assert_eq!(
        filtered.unwrap(),
        vec![Row::new(vec![Value::Int(1), Value::Float(1.0)])]
    );
    let mut hashed = HashJoin::new(
        Box::new(RowsOp::new(ls, l)),
        Box::new(RowsOp::new(rs, r)),
        vec![0],
        vec![0],
    );
    assert_eq!(collect(&mut hashed).unwrap(), Vec::<Row>::new());
}

// ---- lanes against rows: Filter, Project and the result frames --------------

/// SplitMix64: stretches one generated seed into every draw a case needs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lane kinds [`lane_cell`] draws from.
const LANE_KINDS: u8 = 8;

/// One cell of a column of `kind`, a seventh of them NULL: INT at each width
/// (the ranges of 1, 2, 4 and 8 bytes), FLOAT with NaN and both zeros, BOOL,
/// STR (a dictionary lane, NULL codes included), and a mix of INT, FLOAT and
/// BLOB that seals into a `Values` lane.
fn lane_cell(kind: u8, raw: u64) -> Value {
    if raw.is_multiple_of(7) {
        return Value::Null;
    }
    let r = raw >> 3;
    let pick = |n: u64| (r % n) as usize;
    match kind % LANE_KINDS {
        0 => Value::Int((r % 200) as i64 - 100),
        1 => Value::Int((r % 60_000) as i64 - 30_000),
        2 => Value::Int((r % 4_000_000_000) as i64 - 2_000_000_000),
        3 => Value::Int([i64::MIN, i64::MAX, -1, 0, 7, 1 << 40][pick(6)]),
        4 => Value::Float([f64::NAN, -0.0, 0.0, 1.5, -2.5, 1e300][pick(6)]),
        5 => Value::Bool(r.is_multiple_of(2)),
        6 => Value::from(["a", "bb", "c", "zz"][pick(4)]),
        _ => [
            Value::Int(1),
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Blob(Blob::synthetic(3, r % 5)),
        ][pick(4)]
        .clone(),
    }
}

/// Columns of random kinds over a few rows, and which of the rows a batch
/// covers: a window or a selection vector.
#[derive(Debug, Clone)]
struct LaneCase {
    kinds: Vec<u8>,
    rows: Vec<Row>,
    sel: Selection,
}

impl LaneCase {
    fn schema(&self) -> Arc<Schema> {
        let fields = self.kinds.iter().enumerate();
        Arc::new(Schema::new(
            fields
                .map(|(c, _)| Field::new(format!("c{c}"), DataType::Int))
                .collect(),
        ))
    }

    fn lanes(&self) -> Vec<Arc<Lane>> {
        (0..self.kinds.len())
            .map(|c| Arc::new(Lane::build(&self.rows, c)))
            .collect()
    }

    /// The rows of positions `at` of the selection, as lanes.
    fn lane_batch(&self, at: std::ops::Range<usize>) -> RowBatch {
        let sel = match &self.sel {
            Selection::Window(w) => Selection::Window(w.start + at.start..w.start + at.end),
            Selection::Rows(rows) => Selection::Rows(rows[at].to_vec()),
        };
        RowBatch::from_lanes(self.schema(), self.lanes(), sel)
    }

    /// The rows of positions `at` of the selection, as rows.
    fn row_batch(&self, at: std::ops::Range<usize>) -> RowBatch {
        let rows = at.map(|p| self.rows[self.sel.ordinal(p)].clone()).collect();
        RowBatch::from_rows(self.schema(), rows)
    }
}

fn arb_lane_case() -> impl Strategy<Value = LaneCase> {
    (
        prop::collection::vec(0u8..LANE_KINDS, 1..4),
        1usize..48,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(kinds, n, seed, window)| {
            let rows = (0..n as u64)
                .map(|i| {
                    let cells = kinds.iter().zip(0u64..);
                    Row::new(
                        cells
                            .map(|(&k, c)| lane_cell(k, mix(seed ^ (i << 8) ^ c)))
                            .collect(),
                    )
                })
                .collect();
            let n = n as u64;
            let sel = if window {
                let start = mix(seed) % n;
                let end = start + 1 + mix(!seed) % (n - start);
                Selection::Window(start as usize..end as usize)
            } else {
                let kept = (0..n).filter(|&i| !mix(seed.rotate_left(17) ^ i).is_multiple_of(3));
                Selection::Rows(kept.map(|i| i as usize).collect())
            };
            LaneCase { kinds, rows, sel }
        })
}

/// Hands out `batches` as they are.
struct Batches {
    schema: Arc<Schema>,
    batches: std::vec::IntoIter<RowBatch>,
}

impl Operator for Batches {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.batches.next())
    }
}

fn one_batch(batch: RowBatch) -> BoxOp {
    Box::new(Batches {
        schema: batch.schema().clone(),
        batches: vec![batch].into_iter(),
    })
}

/// Whether each batch `op` emits left its rows unbuilt, and then the rows;
/// or its error as (kind, message).
fn drain(mut op: BoxOp) -> std::result::Result<(Vec<bool>, Vec<Row>), (String, String)> {
    let (mut unbuilt, mut rows) = (Vec::new(), Vec::new());
    loop {
        match op.next_batch() {
            Ok(Some(b)) => {
                unbuilt.push(!b.is_materialized());
                rows.extend(b.into_rows());
            }
            Ok(None) => return Ok((unbuilt, rows)),
            Err(e) => return Err((e.kind().to_string(), e.to_string())),
        }
    }
}

/// A literal for a conjunct: INT (the extremes included), FLOAT with NaN
/// and both zeros, BOOL, STR, NULL, and a BLOB that every other lane kind
/// raises against.
fn arb_literal(raw: u64) -> Value {
    let r = raw >> 3;
    match raw % 8 {
        0 | 1 => Value::Int((r % 21) as i64 - 10),
        2 => Value::Float([f64::NAN, -0.0, 0.0, 1.5, -2.5, 1e300][(r % 6) as usize]),
        3 => Value::Bool(r.is_multiple_of(2)),
        4 => Value::from(["a", "bb", "c", "zz"][(r % 4) as usize]),
        5 => Value::Null,
        6 => Value::Blob(Blob::synthetic(3, r % 5)),
        _ => Value::Int([i64::MIN, i64::MAX][(r % 2) as usize]),
    }
}

/// True when `lit` against `lane` can be decided on every row without an
/// error — what `Filter` decides on the lanes.
fn typed_pairing(lane: &Lane, lit: &Value) -> bool {
    matches!(
        (lane, lit),
        (_, Value::Null)
            | (
                Lane::Int { .. } | Lane::Float { .. },
                Value::Int(_) | Value::Float(_)
            )
            | (Lane::Bool { .. }, Value::Bool(_))
            | (Lane::StrDict { .. }, Value::Str(_))
    )
}

fn binary(left: PhysExpr, op: BinaryOp, right: PhysExpr) -> PhysExpr {
    PhysExpr::Binary {
        left: Box::new(left),
        op,
        right: Box::new(right),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `Filter` over a lane batch answers what it answers over the same rows
    // as rows — the same rows in order, or the same error kind and message
    // — and leaves the rows unbuilt exactly when its predicate is the
    // compiled conjuncts alone and each pairs its lane with a literal no
    // row can raise against.
    #[test]
    fn filter_on_lanes_agrees_with_filter_on_rows(
        case in arb_lane_case(),
        conjuncts in prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>(), any::<bool>()),
            1..4,
        ),
        residual in any::<u8>(),
    ) {
        let width = case.kinds.len();
        let lanes = case.lanes();
        let mut typed = true;
        let mut pred = None;
        // Each conjunct: (column, operator, literal, written literal-first).
        for &(col, op, raw, flipped) in &conjuncts {
            // Now and then an ordinal the batch does not have.
            let col = col as usize % (width + 1);
            let lit = arb_literal(raw);
            typed &= lanes.get(col).is_some_and(|l| typed_pairing(l, &lit));
            let (c, l) = (PhysExpr::Column(col), PhysExpr::Literal(lit));
            let conjunct: PhysExpr = match flipped {
                true => binary(l, cmp_op(op), c),
                false => binary(c, cmp_op(op), l),
            };
            pred = Some(match pred {
                Some(p) => binary(p, BinaryOp::And, conjunct),
                None => conjunct,
            });
        }
        let mut pred = pred.expect("at least one conjunct");
        if residual % 3 == 0 {
            // Not `column <cmp> literal`: the spec is incomplete.
            let (a, b) = (residual as usize % width, (residual as usize / 3) % width);
            let other = binary(PhysExpr::Column(a), cmp_op(residual), PhysExpr::Column(b));
            pred = binary(pred, BinaryOp::And, other);
            typed = false;
        }
        let all = 0..case.sel.len();
        let on_lanes = drain(Box::new(Filter::new(one_batch(case.lane_batch(all.clone())), pred.clone())));
        let on_rows = drain(Box::new(Filter::new(one_batch(case.row_batch(all)), pred.clone())));
        match (&on_lanes, &on_rows) {
            (Ok((unbuilt, lane_rows)), Ok((_, rows))) => {
                prop_assert_eq!(lane_rows, rows, "{:?}", pred);
                for &u in unbuilt {
                    prop_assert_eq!(u, typed, "{:?}", pred);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?}", pred),
            (a, b) => prop_assert!(false, "{pred:?}: lanes {a:?} vs rows {b:?}"),
        }
        if typed {
            prop_assert!(on_lanes.is_ok(), "a typed pairing cannot raise: {:?}", pred);
        }
    }

    // `Project` over a lane batch answers what it answers over the same
    // rows as rows, and hands the picked lanes on, unbuilt, exactly when
    // every expression is a column the batch has — in any order, repeats
    // included.
    #[test]
    fn project_on_lanes_agrees_with_project_on_rows(
        case in arb_lane_case(),
        exprs in prop::collection::vec((any::<u8>(), any::<u8>()), 1..5),
    ) {
        let width = case.kinds.len();
        let mut plain = true;
        let exprs: Vec<(PhysExpr, Field)> = exprs
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                let a = a as usize % (width + 1);
                plain &= a < width && b % 4 != 0;
                let e = match b % 4 {
                    // Raises on a mismatched pair of values.
                    0 => binary(PhysExpr::Column(a), BinaryOp::Add, PhysExpr::Column(b as usize % width)),
                    _ => PhysExpr::Column(a),
                };
                (e, Field::new(format!("p{i}"), DataType::Int))
            })
            .collect();
        let all = 0..case.sel.len();
        let on_lanes = drain(Box::new(Project::new(one_batch(case.lane_batch(all.clone())), exprs.clone())));
        let on_rows = drain(Box::new(Project::new(one_batch(case.row_batch(all)), exprs.clone())));
        match (&on_lanes, &on_rows) {
            (Ok((unbuilt, lane_rows)), Ok((_, rows))) => {
                prop_assert_eq!(lane_rows, rows);
                for &u in unbuilt {
                    prop_assert_eq!(u, plain, "{:?}", exprs);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{exprs:?}: lanes {a:?} vs rows {b:?}"),
        }
    }

    // The frames the server encodes from a result's batches — cut at random
    // points, each piece lanes or rows — are the `Rows` frames of the same
    // rows chunked `chunk_rows` at a time, byte for byte, and decode back to
    // those rows.
    #[test]
    fn result_frames_from_batches_are_the_frames_of_their_rows(
        case in arb_lane_case(),
        cuts in prop::collection::vec((any::<u64>(), any::<bool>()), 0..5),
    ) {
        let n = case.sel.len();
        let mut at: Vec<usize> = cuts.iter().map(|&(c, _)| (c % (n as u64 + 1)) as usize).collect();
        at.extend([0, n]);
        at.sort_unstable();
        let batches: Vec<RowBatch> = at
            .windows(2)
            .zip(cuts.iter().map(|&(_, lanes)| lanes).chain([true]))
            .map(|(w, lanes)| match lanes {
                true => case.lane_batch(w[0]..w[1]),
                false => case.row_batch(w[0]..w[1]),
            })
            .collect();
        let rows = case.row_batch(0..n).into_rows();
        for chunk_rows in [1, 3, 1024] {
            let frames = QueryResponse::encode_rows_frames(&batches, chunk_rows);
            let expect: Vec<Vec<u8>> = rows
                .chunks(chunk_rows)
                .map(QueryResponse::encode_rows_chunk)
                .collect();
            prop_assert_eq!(&frames, &expect, "chunk_rows = {}", chunk_rows);
            for (frame, chunk) in frames.into_iter().zip(rows.chunks(chunk_rows)) {
                let decoded = QueryResponse::decode_shared(&Arc::new(frame)).unwrap();
                prop_assert_eq!(decoded, QueryResponse::Rows(chunk.to_vec()));
            }
        }
        prop_assert!(batches.iter().all(|b| b.lanes().is_none() || !b.is_materialized()),
            "encoding builds no row of a lane batch");
    }
}

// ---- shipped-byte accounting: threaded vs simulated ------------------------

fn ship_runtime() -> Arc<ClientRuntime> {
    let rt = ClientRuntime::new();
    rt.register(Arc::new(ObjectUdf::sized("Analyze", 96)))
        .unwrap();
    Arc::new(rt)
}

fn ship_schema() -> Schema {
    Schema::new(vec![
        Field::new("Id", DataType::Int),
        Field::new("Sym", DataType::Str),
        Field::new("Arg", DataType::Blob),
    ])
}

fn ship_rows(n: usize, distinct: usize, arg_size: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::from(format!("S{:02}", i % 7)),
                Value::Blob(csq_common::Blob::synthetic(
                    arg_size,
                    (i % distinct.max(1)) as u64,
                )),
            ])
        })
        .collect()
}

fn analyze_app() -> UdfApplication {
    UdfApplication::new("Analyze", vec![2], Field::new("res", DataType::Blob))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn semijoin_shipped_bytes_agree_between_backends(
        n in 1usize..48,
        distinct_sel in 1usize..48,
        arg_size in 1usize..200,
        k in 1usize..10,
        batch in 1usize..5,
        sorted in any::<bool>(),
    ) {
        let distinct = distinct_sel.min(n);
        let data = ship_rows(n, distinct, arg_size);
        let mut spec = SemiJoinSpec::new(vec![analyze_app()], k);
        spec.batch_size = batch;
        spec.sorted = sorted;

        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(ship_runtime(), client).unwrap();
        let input = Box::new(RowsOp::new(ship_schema(), data.clone()));
        let mut op = ThreadedSemiJoin::new(input, spec.clone(), server).unwrap();
        let t_rows = csq_exec::collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();

        let sim = simulate_semijoin(&ship_schema(), data, &spec, ship_runtime(),
                                    &NetworkSpec::lan()).unwrap();
        prop_assert_eq!(t_rows, sim.rows);
        prop_assert_eq!(stats.down_bytes(), sim.down_bytes);
        prop_assert_eq!(stats.up_bytes(), sim.up_bytes);
        prop_assert_eq!(stats.down_messages(), sim.down_messages);
        prop_assert_eq!(stats.up_messages(), sim.up_messages);
    }

    #[test]
    fn client_join_shipped_bytes_agree_between_backends(
        n in 1usize..48,
        arg_size in 1usize..200,
        batch in 1usize..5,
    ) {
        let data = ship_rows(n, n, arg_size);
        let mut spec = ClientJoinSpec::new(vec![analyze_app()]);
        spec.batch_size = batch;

        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(ship_runtime(), client).unwrap();
        let input = Box::new(RowsOp::new(ship_schema(), data.clone()));
        let mut op = ThreadedClientJoin::new(input, spec.clone(), server).unwrap();
        let t_rows = csq_exec::collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();

        let sim = simulate_client_join(&ship_schema(), data, &spec, ship_runtime(),
                                       &NetworkSpec::lan()).unwrap();
        prop_assert_eq!(t_rows, sim.rows);
        prop_assert_eq!(stats.down_bytes(), sim.down_bytes);
        prop_assert_eq!(stats.up_bytes(), sim.up_bytes);
        prop_assert_eq!(stats.down_messages(), sim.down_messages);
        prop_assert_eq!(stats.up_messages(), sim.up_messages);
    }
}
