//! Exchange/repartition: partitioned execution of key-based operators
//! (DESIGN.md §4).
//!
//! [`Exchange`] hash-partitions its input on a key (via [`Row::key_hash`])
//! across a [`WorkerPool`]: a feeder thread routes each input row to the
//! worker owning its partition, every worker runs a private operator chain
//! over its partition's stream (fed through an inbox channel), and the
//! gather side merges worker output batches as they complete (partitioned
//! operators are inherently order-destroying; wrap results in a `Sort` when
//! order matters).
//!
//! Because equal keys always land in the same partition, key-based
//! operators run *unsynchronized* per worker and stay exactly as correct as
//! their serial forms: [`Exchange::hash_join`] builds and probes one hash
//! table per worker (build rows are pre-partitioned on the build key),
//! [`Exchange::distinct_on`]/[`Exchange::distinct_all`] dedup disjoint key
//! sets (the feeder preserves input order within a partition, so
//! first-occurrence-wins semantics are preserved row-for-row), and
//! [`Exchange::with_builders`] is the extension point for other
//! aggregation-style operators (anything that groups by a key).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};

use csq_common::{CsqError, Result, Row, RowBatch, Schema};

use crate::aggregate::{AggSpec, HashAggregate};
use crate::join::HashJoin;
use crate::ops::{batch_operator, collect, Distinct, Operator};
use crate::parallel::ParallelOpts;
use crate::pool::WorkerPool;
use crate::BoxOp;

/// Builds one partition's operator chain over that partition's inbox
/// stream. `FnOnce` so builders can move per-partition state (e.g. a hash
/// join's pre-partitioned build rows) into the chain.
pub type PartitionBuilder = Box<dyn FnOnce(BoxOp) -> Result<BoxOp> + Send>;

/// An operator pulling batches from a partition's inbox channel — the
/// source each per-partition chain runs over.
struct InboxOp {
    schema: Arc<Schema>,
    rx: Receiver<Vec<Row>>,
}

impl InboxOp {
    fn produce(&mut self) -> Result<Option<RowBatch>> {
        match self.rx.recv() {
            Ok(rows) => Ok(Some(RowBatch::from_rows(self.schema.clone(), rows))),
            Err(_) => Ok(None), // feeder done (or gone)
        }
    }
}

batch_operator!(InboxOp);

enum ExMsg {
    Batch(RowBatch),
    Err(CsqError),
}

/// The partitioned-execution operator (gather side). See module docs.
pub struct Exchange {
    // Field order is drop order: receiver first (so blocked workers see the
    // disconnect), then feeder join, then the pool join.
    out_rx: Receiver<ExMsg>,
    done_parts: Arc<AtomicUsize>,
    feeder_ok: Arc<AtomicBool>,
    parts: usize,
    failed: bool,
    schema: Arc<Schema>,
    feeder: Option<JoinHandle<()>>,
    _pool: WorkerPool,
}

impl Exchange {
    /// Generic partitioned execution: route `input` rows by `route_key`
    /// (whole-row hashing when `None`) to `builders.len()` partitions, run
    /// each builder's chain over its partition, merge the outputs (which
    /// must all have schema `out_schema`).
    pub fn with_builders(
        input: BoxOp,
        route_key: Option<Vec<usize>>,
        out_schema: Arc<Schema>,
        builders: Vec<PartitionBuilder>,
        opts: &ParallelOpts,
    ) -> Exchange {
        // Misuse fails eagerly and clearly, not as an out-of-bounds panic
        // inside the feeder thread once the first row routes nowhere.
        assert!(
            !builders.is_empty(),
            "Exchange needs at least one partition builder"
        );
        let parts = builders.len();
        let morsel_rows = opts.resolved_morsel_rows();
        let input_schema = Arc::new(input.schema().clone());

        let (out_tx, out_rx) = bounded(parts * 2);
        let done_parts = Arc::new(AtomicUsize::new(0));
        let feeder_ok = Arc::new(AtomicBool::new(false));

        let mut inbox_txs: Vec<Sender<Vec<Row>>> = Vec::with_capacity(parts);
        let pool = WorkerPool::new(parts);
        for builder in builders {
            let (tx, rx) = bounded(4);
            inbox_txs.push(tx);
            let schema = input_schema.clone();
            let out_tx = out_tx.clone();
            let done = done_parts.clone();
            pool.spawn(move || {
                let inbox: BoxOp = Box::new(InboxOp { schema, rx });
                let mut op = match builder(inbox) {
                    Ok(op) => op,
                    Err(e) => {
                        let _ = out_tx.send(ExMsg::Err(e));
                        return;
                    }
                };
                loop {
                    match op.next_batch() {
                        Ok(Some(b)) => {
                            if out_tx.send(ExMsg::Batch(b)).is_err() {
                                return; // consumer gone
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = out_tx.send(ExMsg::Err(e));
                            return;
                        }
                    }
                }
                done.fetch_add(1, Ordering::AcqRel);
            });
        }

        let feeder = {
            let out_tx = out_tx.clone();
            let feeder_ok = feeder_ok.clone();
            let token = opts.token.clone();
            let mut input = input;
            std::thread::Builder::new()
                .name("csq-exchange-feeder".into())
                .spawn(move || {
                    let key = route_key.as_deref();
                    let mut bufs: Vec<Vec<Row>> = (0..parts).map(|_| Vec::new()).collect();
                    loop {
                        // The feeder is the exchange's serialized stage, so
                        // one checkpoint per input batch bounds how long a
                        // cancelled repartition keeps routing rows.
                        if let Err(e) = token.check() {
                            let _ = out_tx.send(ExMsg::Err(e));
                            return;
                        }
                        match input.next_batch() {
                            Ok(Some(batch)) => {
                                for row in batch.into_rows() {
                                    let p = row.partition_of(key, parts);
                                    bufs[p].push(row);
                                    if bufs[p].len() >= morsel_rows {
                                        let full = std::mem::take(&mut bufs[p]);
                                        if inbox_txs[p].send(full).is_err() {
                                            return; // partition worker gone
                                        }
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(e) => {
                                let _ = out_tx.send(ExMsg::Err(e));
                                return;
                            }
                        }
                    }
                    for (p, buf) in bufs.into_iter().enumerate() {
                        if !buf.is_empty() && inbox_txs[p].send(buf).is_err() {
                            return;
                        }
                    }
                    feeder_ok.store(true, Ordering::Release);
                    // Dropping the inbox senders ends every partition.
                })
                .expect("failed to spawn exchange feeder")
        };
        drop(out_tx); // workers + feeder hold the remaining senders

        Exchange {
            out_rx,
            done_parts,
            feeder_ok,
            parts,
            failed: false,
            schema: out_schema,
            feeder: Some(feeder),
            _pool: pool,
        }
    }

    /// Partitioned hash equi-join: the build side is drained and
    /// hash-partitioned on `right_key` up front; probe rows route by
    /// `left_key`, so each worker joins one disjoint key range with a
    /// private hash table. Output is the same multiset of joined rows as
    /// the serial [`HashJoin`], in partition-interleaved order.
    pub fn hash_join(
        left: BoxOp,
        mut right: BoxOp,
        left_key: Vec<usize>,
        right_key: Vec<usize>,
        opts: &ParallelOpts,
    ) -> Result<Exchange> {
        assert_eq!(left_key.len(), right_key.len(), "join key arity mismatch");
        let parts = opts.resolved_workers();
        let schema = Arc::new(left.schema().join(right.schema()));
        let right_schema = right.schema().clone();
        let build_rows = collect(right.as_mut())?;
        let build_parts = RowBatch::from_rows(Arc::new(right_schema.clone()), build_rows)
            .partition_by_hash(Some(&right_key), parts);
        let builders: Vec<PartitionBuilder> = build_parts
            .into_iter()
            .map(|rows| {
                let rs = right_schema.clone();
                let lk = left_key.clone();
                let rk = right_key.clone();
                Box::new(move |inbox: BoxOp| -> Result<BoxOp> {
                    Ok(Box::new(HashJoin::new(
                        inbox,
                        Box::new(crate::ops::RowsOp::new(rs, rows)),
                        lk,
                        rk,
                    )))
                }) as PartitionBuilder
            })
            .collect();
        Ok(Exchange::with_builders(
            left,
            Some(left_key),
            schema,
            builders,
            opts,
        ))
    }

    /// Partitioned grouped aggregation: rows route by the group key, each
    /// worker runs a private single-phase [`HashAggregate`] over a disjoint
    /// key range, and the gather side merges — the same multiset of groups
    /// (and the same per-group values, accumulated in input order) as the
    /// serial operator. A global aggregate (empty `key`) has exactly one
    /// group, so it runs on a single partition regardless of `opts.workers`
    /// (otherwise every idle worker would emit its own identity group).
    pub fn hash_aggregate(
        input: BoxOp,
        key: Vec<usize>,
        aggs: Vec<AggSpec>,
        opts: &ParallelOpts,
    ) -> Exchange {
        let parts = if key.is_empty() {
            1
        } else {
            opts.resolved_workers()
        };
        let out_schema = Arc::new(crate::aggregate::aggregate_output_schema(
            input.schema(),
            &key,
            &aggs,
        ));
        let builders: Vec<PartitionBuilder> = (0..parts)
            .map(|_| {
                let key = key.clone();
                let aggs = aggs.clone();
                Box::new(move |inbox: BoxOp| -> Result<BoxOp> {
                    Ok(Box::new(HashAggregate::new(inbox, key, aggs)))
                }) as PartitionBuilder
            })
            .collect();
        Exchange::with_builders(input, Some(key), out_schema, builders, opts)
    }

    /// Partitioned duplicate elimination on `key` columns. Equal keys share
    /// a partition and arrive in input order, so exactly the serial
    /// first-occurrence rows survive (in partition-interleaved order).
    pub fn distinct_on(input: BoxOp, key: Vec<usize>, opts: &ParallelOpts) -> Exchange {
        let parts = opts.resolved_workers();
        let schema = Arc::new(input.schema().clone());
        let builders: Vec<PartitionBuilder> = (0..parts)
            .map(|_| {
                let key = key.clone();
                Box::new(move |inbox: BoxOp| -> Result<BoxOp> {
                    Ok(Box::new(Distinct::on(inbox, key)))
                }) as PartitionBuilder
            })
            .collect();
        Exchange::with_builders(input, Some(key), schema, builders, opts)
    }

    /// Partitioned duplicate elimination on whole rows.
    pub fn distinct_all(input: BoxOp, opts: &ParallelOpts) -> Exchange {
        let parts = opts.resolved_workers();
        let schema = Arc::new(input.schema().clone());
        let builders: Vec<PartitionBuilder> = (0..parts)
            .map(|_| {
                Box::new(|inbox: BoxOp| -> Result<BoxOp> { Ok(Box::new(Distinct::all(inbox))) })
                    as PartitionBuilder
            })
            .collect();
        Exchange::with_builders(input, None, schema, builders, opts)
    }

    fn produce(&mut self) -> Result<Option<RowBatch>> {
        if self.failed {
            return Ok(None);
        }
        loop {
            match self.out_rx.recv() {
                Ok(ExMsg::Batch(b)) => {
                    if !b.is_empty() {
                        return Ok(Some(b));
                    }
                }
                Ok(ExMsg::Err(e)) => {
                    self.failed = true;
                    return Err(e);
                }
                Err(_) => {
                    // Every sender gone: verify the run was complete.
                    let clean = self.done_parts.load(Ordering::Acquire) == self.parts
                        && self.feeder_ok.load(Ordering::Acquire);
                    self.join_feeder();
                    if !clean {
                        self.failed = true;
                        return Err(CsqError::Exec(
                            "exchange worker or feeder terminated without completing".into(),
                        ));
                    }
                    return Ok(None);
                }
            }
        }
    }
}

// Teardown on early drop needs no custom Drop: fields drop in declaration
// order, so `out_rx` disconnects first (each worker's next output send
// fails and it exits, which disconnects its inbox and unwinds the feeder),
// then the pool joins the workers. A feeder still draining a slow input
// detaches like the threaded shipping senders do and exits on its next
// inbox send.
batch_operator!(Exchange);

impl Exchange {
    /// Join the feeder thread explicitly (also happens at clean completion).
    fn join_feeder(&mut self) {
        if let Some(h) = self.feeder.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::RowsOp;
    use csq_common::{DataType, Field, Value};

    fn two_int_schema(a: &str, b: &str) -> Schema {
        Schema::new(vec![
            Field::new(a, DataType::Int),
            Field::new(b, DataType::Int),
        ])
    }

    fn sorted_display(mut rows: Vec<Row>) -> Vec<String> {
        rows.sort_by_key(|r| format!("{r}"));
        rows.into_iter().map(|r| format!("{r}")).collect()
    }

    fn opts(workers: usize) -> ParallelOpts {
        ParallelOpts {
            workers,
            morsel_rows: 8,
            ordered: false,
            ..ParallelOpts::default()
        }
    }

    #[test]
    fn partitioned_hash_join_matches_serial_as_multiset() {
        let probe: Vec<Row> = (0..300)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 40)]))
            .collect();
        let build: Vec<Row> = (0..40)
            .map(|k| Row::new(vec![Value::Int(k), Value::Int(k * 100)]))
            .collect();
        let serial = {
            let l = Box::new(RowsOp::new(two_int_schema("id", "k"), probe.clone()));
            let r = Box::new(RowsOp::new(two_int_schema("k", "v"), build.clone()));
            let mut j = HashJoin::new(l, r, vec![1], vec![0]);
            collect(&mut j).unwrap()
        };
        for workers in [1, 2, 4] {
            let l = Box::new(RowsOp::new(two_int_schema("id", "k"), probe.clone()));
            let r = Box::new(RowsOp::new(two_int_schema("k", "v"), build.clone()));
            let mut j = Exchange::hash_join(l, r, vec![1], vec![0], &opts(workers)).unwrap();
            assert_eq!(j.schema().len(), 4);
            let par = collect(&mut j).unwrap();
            assert_eq!(
                sorted_display(par),
                sorted_display(serial.clone()),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn partitioned_join_skips_null_probe_keys_like_serial() {
        let probe = vec![
            Row::new(vec![Value::Int(0), Value::Int(1)]),
            Row::new(vec![Value::Int(1), Value::Null]),
            Row::new(vec![Value::Int(2), Value::Int(1)]),
        ];
        let build = vec![Row::new(vec![Value::Int(1), Value::Int(7)])];
        let l = Box::new(RowsOp::new(two_int_schema("id", "k"), probe));
        let r = Box::new(RowsOp::new(two_int_schema("k", "v"), build));
        let mut j = Exchange::hash_join(l, r, vec![1], vec![0], &opts(3)).unwrap();
        let out = collect(&mut j).unwrap();
        assert_eq!(out.len(), 2, "NULL keys never match");
    }

    #[test]
    fn partitioned_distinct_keeps_serial_survivors() {
        let rows: Vec<Row> = (0..400)
            .map(|i| Row::new(vec![Value::Int(i % 23), Value::Int(i)]))
            .collect();
        let serial = {
            let scan = Box::new(RowsOp::new(two_int_schema("k", "seq"), rows.clone()));
            let mut d = Distinct::on(scan, vec![0]);
            collect(&mut d).unwrap()
        };
        for workers in [1, 2, 4, 8] {
            let scan = Box::new(RowsOp::new(two_int_schema("k", "seq"), rows.clone()));
            let mut d = Exchange::distinct_on(scan, vec![0], &opts(workers));
            let par = collect(&mut d).unwrap();
            // Not just the same keys: the same *rows* (first occurrence per
            // key, identified by the seq column) survive.
            assert_eq!(
                sorted_display(par),
                sorted_display(serial.clone()),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn partitioned_distinct_all_deduplicates_whole_rows() {
        let rows: Vec<Row> = (0..200)
            .map(|i| Row::new(vec![Value::Int(i % 10), Value::Int((i % 10) * 2)]))
            .collect();
        let scan = Box::new(RowsOp::new(two_int_schema("a", "b"), rows));
        let mut d = Exchange::distinct_all(scan, &opts(4));
        assert_eq!(collect(&mut d).unwrap().len(), 10);
    }

    #[test]
    fn input_error_poisons_the_exchange() {
        // A Sort over an incomparable column errors while feeding.
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Int(1)]),
            Row::new(vec![Value::from("x"), Value::Int(2)]),
        ];
        let scan = Box::new(RowsOp::new(two_int_schema("k", "v"), rows));
        let bad = Box::new(crate::Sort::new(scan, vec![0]));
        let mut d = Exchange::distinct_on(bad, vec![0], &opts(2));
        assert!(collect(&mut d).is_err());
        assert!(d.next_batch().unwrap().is_none(), "failed, not wedged");
        d.join_feeder();
    }

    #[test]
    fn tripped_token_poisons_the_exchange_with_typed_error() {
        use csq_common::CancelToken;
        let rows: Vec<Row> = (0..400)
            .map(|i| Row::new(vec![Value::Int(i % 23), Value::Int(i)]))
            .collect();
        let token = CancelToken::new();
        token.cancel();
        let scan = Box::new(RowsOp::new(two_int_schema("k", "seq"), rows));
        let o = opts(2).with_token(token);
        let mut d = Exchange::distinct_on(scan, vec![0], &o);
        let err = collect(&mut d).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert!(d.next_batch().unwrap().is_none(), "failed, not wedged");
        d.join_feeder();
    }

    #[test]
    fn early_drop_shuts_exchange_down() {
        let rows: Vec<Row> = (0..20_000)
            .map(|i| Row::new(vec![Value::Int(i % 97), Value::Int(i)]))
            .collect();
        let scan = Box::new(RowsOp::new(two_int_schema("k", "seq"), rows));
        let mut d = Exchange::distinct_on(scan, vec![0], &opts(4));
        let _ = d.next_batch().unwrap();
        drop(d); // must not hang
    }
}
