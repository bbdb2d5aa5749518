//! Threaded execution of the three strategies over a real endpoint.
//!
//! The architecture is Figure 3/4 of the paper: a *sender* thread pulls
//! input rows, ships argument (or whole-record) batches to the client, and —
//! for the semi-join — hands the full records, one message's span per
//! hand-off, to the *receiver* under **credit back-pressure**: at most the
//! pipeline concurrency factor's worth of spans are unpaired at once. The
//! receiver is the operator itself (the calling thread): it takes records,
//! pairs them with results arriving from the client, and emits joined rows.
//! The client runs in its own thread (see [`csq_client::spawn_client`]).
//!
//! The operators carry the endpoints' clocks, so the same code runs in real
//! time over an in-memory or TCP duplex and in virtual time over
//! [`csq_net::virtual_duplex`] (see [`crate::sim`]): a receive moves the
//! receiver's clock, a credit moves the sender's, and the naive operator's
//! blocking round trip keeps one clock for both directions.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use csq_common::{CsqError, Result, Row, RowBatch, Schema, DEFAULT_BATCH_SIZE};
use csq_exec::{Operator, Sort};
use csq_net::{Endpoint, NetReceiver, NetSender, SimTime};

use csq_client::{Request, Response};

use crate::spec::{ClientJoinSpec, SemiJoinSpec, UdfApplication};

/// A record in the sender → receiver buffer.
struct Rec {
    row: Row,
    /// Shipping ordinal of the record's argument tuple: the sender numbers
    /// distinct arguments in the order it ships them, which is the order
    /// their results come back in.
    arg: usize,
}

/// Decode one received response message to its rows; `closed` is the
/// caller's wording for a peer that hung up first (`None`).
fn response_rows(received: Option<Vec<u8>>, closed: &str) -> Result<Vec<Row>> {
    let Some(buf) = received else {
        return Err(CsqError::Net(closed.into()));
    };
    // Zero-copy: result payloads stay views of the message buffer.
    let buf = Arc::new(buf);
    match Response::decode_shared(&buf)? {
        Response::Batch(rows) => Ok(rows),
        Response::Error(msg) => Err(CsqError::Client(format!("client-site failure: {msg}"))),
    }
}

/// The semi-join operator (Figure 3): sender thread + credit-bounded
/// buffer + receiver pulling matched rows.
pub struct ThreadedSemiJoin {
    schema: Arc<Schema>,
    /// One item per hand-off: the records of a shipped span, or the
    /// sender's failure (input error or network error).
    buffer_rx: Receiver<Result<Vec<Rec>>>,
    /// One credit per paired hand-off, stamped with the receiver's clock.
    credits_tx: Sender<SimTime>,
    /// The span being paired.
    span: std::vec::IntoIter<Rec>,
    net_rx: NetReceiver,
    /// Results by shipping ordinal, from `received - results.len()` up:
    /// every one for unsorted input, the latest for sorted input
    /// (duplicates are adjacent, so O(1) memory — the "merge-join" receiver
    /// of §2.3.1).
    results: Vec<Row>,
    /// Results taken off the response stream so far.
    received: usize,
    sorted: bool,
    results_fifo: VecDeque<Row>,
    sender: Option<JoinHandle<()>>,
    failed: bool,
}

impl ThreadedSemiJoin {
    /// Start the pipeline. `endpoint` is the server side of a duplex whose
    /// client side is served by [`csq_client::spawn_client`].
    pub fn new(
        input: Box<dyn Operator + Send>,
        spec: SemiJoinSpec,
        endpoint: Endpoint,
    ) -> Result<ThreadedSemiJoin> {
        let input_schema = input.schema().clone();
        let schema = Arc::new(spec.output_schema(&input_schema));
        let task = spec.client_task(&input_schema)?;
        let (net_tx, net_rx) = endpoint.split();
        let (buffer_tx, buffer_rx) = unbounded();
        let (credits_tx, credits_rx) = unbounded();
        let sorted = spec.sorted;
        let sender = std::thread::Builder::new()
            .name("csq-sj-sender".into())
            .spawn(move || semijoin_sender(input, task, spec, net_tx, buffer_tx, credits_rx))
            .map_err(|e| CsqError::Exec(format!("failed to spawn semi-join sender: {e}")))?;
        Ok(ThreadedSemiJoin {
            schema,
            buffer_rx,
            credits_tx,
            span: Vec::new().into_iter(),
            net_rx,
            results: Vec::new(),
            received: 0,
            sorted,
            results_fifo: VecDeque::new(),
            sender: Some(sender),
            failed: false,
        })
    }

    fn next_result(&mut self) -> Result<Row> {
        loop {
            if let Some(r) = self.results_fifo.pop_front() {
                return Ok(r);
            }
            self.results_fifo.extend(response_rows(
                self.net_rx.recv(),
                "client closed connection before all results arrived",
            )?);
        }
    }

    /// Pair one buffered record with its UDF result: the next row of the
    /// response stream for a newly shipped argument, the kept one for a
    /// duplicate.
    fn pair(&mut self, rec: Rec) -> Result<Row> {
        if rec.arg == self.received {
            let result = self.next_result()?;
            if self.sorted {
                self.results.clear();
            }
            self.results.push(result);
            self.received += 1;
        }
        let first = self.received - self.results.len();
        let result = rec
            .arg
            .checked_sub(first)
            .and_then(|i| self.results.get(i))
            .ok_or_else(|| {
                CsqError::Exec(
                    "semi-join receiver: no result received for a record's \
                     argument (sender/receiver protocol violation)"
                        .into(),
                )
            })?;
        Ok(rec.row.join(result))
    }

    /// The next buffered record: from the span in hand, else from the next
    /// hand-off. `None` once the sender has finished and the buffer drained.
    fn next_rec(&mut self) -> Option<Result<Rec>> {
        loop {
            if let Some(rec) = self.span.next() {
                return Some(Ok(rec));
            }
            match self.buffer_rx.recv() {
                Ok(Ok(span)) => self.span = span.into_iter(),
                Ok(Err(e)) => return Some(Err(e)),
                Err(_) => return None,
            }
        }
    }

    fn join_sender(&mut self) {
        if let Some(h) = self.sender.take() {
            let _ = h.join();
        }
    }
}

impl Operator for ThreadedSemiJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.failed {
            return Ok(None);
        }
        let mut rows = Vec::new();
        while rows.len() < DEFAULT_BATCH_SIZE {
            let joined = match self.next_rec() {
                None => {
                    self.join_sender();
                    break;
                }
                Some(Err(e)) => {
                    self.join_sender();
                    Err(e)
                }
                Some(Ok(rec)) => self.pair(rec),
            };
            match joined {
                Ok(row) => {
                    rows.push(row);
                    if self.span.as_slice().is_empty() {
                        // The hand-off is paired: its slot goes back to the
                        // sender, at the receiver's time. A sender that is
                        // gone needs no credit.
                        let _ = self.credits_tx.send(self.net_rx.now());
                    }
                }
                Err(e) => {
                    // Latch: the partial batch is discarded and every later
                    // pull reports end of stream.
                    self.failed = true;
                    return Err(e);
                }
            }
        }
        if rows.is_empty() {
            return Ok(None);
        }
        Ok(Some(RowBatch::from_rows(self.schema.clone(), rows)))
    }
}

/// Sender-thread body for the semi-join — the loop of Figure 3: dedup,
/// stage the record, wait for a slot, send the open span's message, hand
/// the staged records to the receiver. Consumes the input operator one
/// [`RowBatch`] at a time (the sorted mode wraps it in a `Sort`, which
/// itself streams batches out of its materialized buffer). A distinct
/// argument is hashed once, when it is numbered; the receiver finds its
/// result by that number. Records are handed off only after every argument
/// they refer to is on the wire — the sender/receiver pairing protocol —
/// and one hand-off carries all of a message's records.
fn semijoin_sender(
    input: Box<dyn Operator + Send>,
    task: csq_client::ClientTask,
    spec: SemiJoinSpec,
    net_tx: NetSender,
    buffer_tx: Sender<Result<Vec<Rec>>>,
    credits_rx: Receiver<SimTime>,
) {
    if net_tx.send(Request::Install(task).encode()).is_err() {
        let _ = buffer_tx.send(Err(CsqError::Net("client unreachable".into())));
        return;
    }
    let (sorted, batch_size) = (spec.sorted, spec.batch_size.max(1));
    let arg_cols = spec.arg_union(input.schema().len());

    // Sort when requested (makes argument duplicates adjacent).
    let mut source: Box<dyn Operator + Send> = if sorted {
        Box::new(Sort::new(input, arg_cols.clone()))
    } else {
        input
    };

    // Shipping ordinals of the arguments seen (unsorted input), or the
    // latest argument (sorted input: a duplicate is adjacent).
    let mut seen: HashMap<Arc<Row>, usize> = HashMap::new();
    let mut prev_key: Option<Arc<Row>> = None;
    // Arguments numbered so far.
    let mut shipped = 0usize;
    // The open span's arguments, not yet sent, and the records staged since
    // the last hand-off.
    let mut batch_args: Vec<Arc<Row>> = Vec::with_capacity(batch_size);
    let mut staged: Vec<Rec> = Vec::new();
    // K is in tuples and a hand-off is a span of `batch_size` shipped
    // arguments, so ⌈K/m⌉ hand-offs may be unpaired at once.
    let slots = spec.concurrency.div_ceil(batch_size).max(1);
    let mut unpaired = 0;
    // Hand the staged records off, with the open span's message if there is
    // one: wait until fewer than `slots` hand-offs are unpaired (moving the
    // sender's clock up to each credit's stamp), send the message, release
    // the records. False when the client or the receiver (e.g. under a
    // LIMIT) is gone: stop quietly.
    let mut hand_off = |args: &mut Vec<Arc<Row>>, staged: &mut Vec<Rec>| {
        while unpaired >= slots {
            let Ok(at) = credits_rx.recv() else {
                return false;
            };
            net_tx.advance_to(at);
            unpaired -= 1;
        }
        if !args.is_empty() {
            let msg = Request::encode_batch(args.iter().map(|a| a.as_ref()));
            args.clear();
            if net_tx.send(msg).is_err() {
                return false;
            }
        }
        unpaired += 1;
        buffer_tx.send(Ok(std::mem::take(staged))).is_ok()
    };

    loop {
        let batch = match source.next_batch() {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(e) => {
                // What is staged dies with the input; the error follows
                // exactly what was delivered.
                let _ = buffer_tx.send(Err(e));
                return;
            }
        };
        for row in batch.into_rows() {
            let key = Arc::new(row.project(&arg_cols));
            let arg = if !sorted {
                *seen.entry(key.clone()).or_insert(shipped)
            } else if prev_key.as_ref() == Some(&key) {
                shipped - 1
            } else {
                prev_key = Some(key.clone());
                shipped
            };
            if arg == shipped {
                shipped += 1;
                batch_args.push(key);
            }
            staged.push(Rec { row, arg });
            if batch_args.len() >= batch_size && !hand_off(&mut batch_args, &mut staged) {
                return;
            }
        }
        // With no span open, what is staged repeats shipped arguments: its
        // results are in flight or kept, so it needs no message of its own
        // (but a slot, like any hand-off).
        if batch_args.is_empty() && !staged.is_empty() && !hand_off(&mut batch_args, &mut staged) {
            return;
        }
    }
    if !batch_args.is_empty() && !hand_off(&mut batch_args, &mut staged) {
        return;
    }
    let _ = net_tx.send(Request::Finish.encode());
    // Dropping the hand-off sender closes the buffer; the receiver then
    // terminates.
}

/// The client-site join operator (Figure 4): sender streams whole records,
/// the client filters/projects, the receiver forwards returned rows. No
/// sender↔receiver synchronization is required.
pub struct ThreadedClientJoin {
    schema: Arc<Schema>,
    tickets_rx: Receiver<Result<()>>,
    net_rx: NetReceiver,
    sender: Option<JoinHandle<()>>,
    failed: bool,
}

impl ThreadedClientJoin {
    /// Start the pipeline.
    pub fn new(
        input: Box<dyn Operator + Send>,
        spec: ClientJoinSpec,
        endpoint: Endpoint,
    ) -> Result<ThreadedClientJoin> {
        let input_schema = input.schema().clone();
        let schema = Arc::new(spec.output_schema(&input_schema));
        let task = spec.client_task(&input_schema)?;
        let (net_tx, net_rx) = endpoint.split();
        let (tickets_tx, tickets_rx) = unbounded();
        let batch_size = spec.batch_size.max(1);
        let sort_cols = if spec.sort_on_args {
            Some(spec.arg_union(input_schema.len()))
        } else {
            None
        };
        let sender = std::thread::Builder::new()
            .name("csq-csj-sender".into())
            .spawn(move || {
                client_join_sender(input, task, batch_size, sort_cols, net_tx, tickets_tx)
            })
            .map_err(|e| CsqError::Exec(format!("failed to spawn client-join sender: {e}")))?;
        Ok(ThreadedClientJoin {
            schema,
            tickets_rx,
            net_rx,
            sender: Some(sender),
            failed: false,
        })
    }

    fn join_sender(&mut self) {
        if let Some(h) = self.sender.take() {
            let _ = h.join();
        }
    }
}

impl Operator for ThreadedClientJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// One decoded response chunk is one batch.
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.failed {
            return Ok(None);
        }
        loop {
            let chunk = match self.tickets_rx.recv() {
                Err(_) => {
                    self.join_sender();
                    return Ok(None);
                }
                Ok(Err(e)) => {
                    self.join_sender();
                    Err(e)
                }
                // The response chunk this ticket announced.
                Ok(Ok(())) => {
                    response_rows(self.net_rx.recv(), "client closed connection mid-query")
                }
            };
            match chunk {
                // Fully filtered chunk; wait for the next.
                Ok(rows) if rows.is_empty() => continue,
                Ok(rows) => return Ok(Some(RowBatch::from_rows(self.schema.clone(), rows))),
                Err(e) => {
                    // Latch: a later pull must not take the next ticket and
                    // hand out the rows after the failed chunk.
                    self.failed = true;
                    return Err(e);
                }
            }
        }
    }
}

/// Sender-thread body for the client-site join: consumes operator batches
/// directly and re-chunks them into `batch_size`-row wire messages (so byte
/// and message accounting is independent of the engine's batch capacity).
/// Chunk, send, ticket: a message's ticket is issued only once it is on the
/// wire.
fn client_join_sender(
    input: Box<dyn Operator + Send>,
    task: csq_client::ClientTask,
    batch_size: usize,
    sort_cols: Option<Vec<usize>>,
    net_tx: NetSender,
    tickets_tx: Sender<Result<()>>,
) {
    if net_tx.send(Request::Install(task).encode()).is_err() {
        let _ = tickets_tx.send(Err(CsqError::Net("client unreachable".into())));
        return;
    }
    let mut source: Box<dyn Operator + Send> = if let Some(cols) = sort_cols {
        Box::new(Sort::new(input, cols))
    } else {
        input
    };

    // False when the client or the receiver is gone: stop quietly.
    let ship_chunk = |rows: &mut Vec<Row>| {
        let msg = Request::encode_batch(rows.iter());
        rows.clear();
        net_tx.send(msg).is_ok() && tickets_tx.send(Ok(())).is_ok()
    };
    let mut pending: Vec<Row> = Vec::with_capacity(batch_size);
    loop {
        let batch = match source.next_batch() {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(e) => {
                // Queued behind the tickets of the messages already sent, so
                // the receiver consumes exactly what was shipped.
                let _ = tickets_tx.send(Err(e));
                return;
            }
        };
        for row in batch.into_rows() {
            pending.push(row);
            if pending.len() >= batch_size && !ship_chunk(&mut pending) {
                return;
            }
        }
    }
    if !pending.is_empty() && !ship_chunk(&mut pending) {
        return;
    }
    let _ = net_tx.send(Request::Finish.encode());
}

/// The naive strategy of §2.1: treat the client-site UDF like a server-site
/// UDF that happens to make a blocking remote call per tuple. One message
/// round-trip per distinct argument (with \[HN97]-style result caching, as
/// the "established approach" does), full latency exposed on every call.
/// The endpoint stays whole: one clock for both directions, so each call
/// leaves when the previous answer arrived.
pub struct NaiveRemoteUdf {
    input: Box<dyn Operator + Send>,
    schema: Arc<Schema>,
    arg_cols: Vec<usize>,
    endpoint: Endpoint,
    cache: HashMap<Row, Row>,
    use_cache: bool,
    installed: bool,
    task: csq_client::ClientTask,
    finished: bool,
}

impl NaiveRemoteUdf {
    /// Build the naive executor for `udfs` over `input`.
    pub fn new(
        input: Box<dyn Operator + Send>,
        udfs: Vec<UdfApplication>,
        endpoint: Endpoint,
        use_cache: bool,
    ) -> Result<NaiveRemoteUdf> {
        let spec = SemiJoinSpec::new(udfs, 1);
        let input_schema = input.schema().clone();
        let schema = Arc::new(spec.output_schema(&input_schema));
        let task = spec.client_task(&input_schema)?;
        let arg_cols = spec.arg_union(input_schema.len());
        Ok(NaiveRemoteUdf {
            input,
            schema,
            arg_cols,
            endpoint,
            cache: HashMap::new(),
            use_cache,
            installed: false,
            task,
            finished: false,
        })
    }

    /// One blocking round trip for one argument tuple — the whole point of
    /// §2.1's critique.
    fn call(&mut self, key: &Row) -> Result<Row> {
        self.endpoint
            .send(Request::encode_batch(std::iter::once(key)))?;
        let rows = response_rows(self.endpoint.recv(), "client closed connection")?;
        let n = rows.len();
        match (rows.into_iter().next(), n) {
            (Some(result), 1) => Ok(result),
            _ => Err(CsqError::Exec(format!(
                "naive execution expected 1 result, got {n}"
            ))),
        }
    }
}

impl Operator for NaiveRemoteUdf {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Maps one input batch to one output batch, still paying one round
    /// trip per (uncached) row inside it.
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.finished {
            return Ok(None);
        }
        if !self.installed {
            self.endpoint
                .send(Request::Install(self.task.clone()).encode())?;
            self.installed = true;
        }
        let Some(batch) = self.input.next_batch()? else {
            self.finished = true;
            let _ = self.endpoint.send(Request::Finish.encode());
            return Ok(None);
        };
        let mut out = Vec::with_capacity(batch.len());
        for row in batch.into_rows() {
            let key = row.project(&self.arg_cols);
            // Only ever populated when `use_cache` is set.
            if let Some(result) = self.cache.get(&key) {
                out.push(row.join(result));
                continue;
            }
            let result = self.call(&key)?;
            out.push(row.join(&result));
            if self.use_cache {
                self.cache.insert(key, result);
            }
        }
        Ok(Some(RowBatch::from_rows(self.schema.clone(), out)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_client::{spawn_client, ClientRuntime};
    use csq_common::{Blob, DataType, Field, Value};
    use csq_exec::{collect, RowsOp};
    use csq_expr::{BinaryOp, PhysExpr};
    use csq_net::in_memory_duplex;
    use std::sync::Arc;

    fn runtime() -> Arc<ClientRuntime> {
        use csq_client::synthetic::{ObjectUdf, PredicateUdf};
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 16)))
            .unwrap();
        rt.register(Arc::new(PredicateUdf::new("Keep", 0.5)))
            .unwrap();
        Arc::new(rt)
    }

    fn input_schema() -> Schema {
        Schema::new(vec![
            Field::qualified("R", "Id", DataType::Int),
            Field::qualified("R", "Arg", DataType::Blob),
        ])
    }

    fn rows(n: usize, distinct: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64),
                    Value::Blob(Blob::synthetic(40, (i % distinct) as u64)),
                ])
            })
            .collect()
    }

    fn analyze_app() -> UdfApplication {
        UdfApplication::new("Analyze", vec![1], Field::new("result", DataType::Blob))
    }

    fn run_semijoin(spec: SemiJoinSpec, data: Vec<Row>) -> Result<Vec<Row>> {
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), data));
        let mut op = ThreadedSemiJoin::new(input, spec, server)?;
        let out = collect(&mut op);
        drop(op);
        let _ = handle.join().unwrap();
        out
    }

    #[test]
    fn semijoin_produces_one_output_per_input() {
        let out = run_semijoin(SemiJoinSpec::new(vec![analyze_app()], 5), rows(20, 20)).unwrap();
        assert_eq!(out.len(), 20);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.value(0), &Value::Int(i as i64), "input order preserved");
            assert_eq!(r.value(2).as_blob().unwrap().len(), 16);
        }
    }

    #[test]
    fn semijoin_deduplicates_arguments() {
        let rt = runtime();
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(rt.clone(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), rows(30, 3)));
        let mut op =
            ThreadedSemiJoin::new(input, SemiJoinSpec::new(vec![analyze_app()], 4), server)
                .unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 30);
        assert_eq!(rt.invocations(), 3, "only distinct arguments shipped");
        // 1 install + 3 argument messages + finish.
        assert_eq!(stats.down_messages(), 5);
        // Duplicates share results.
        assert_eq!(out[0].value(2), out[3].value(2));
    }

    #[test]
    fn semijoin_sorted_mode_matches_unsorted_results() {
        let data = rows(24, 6);
        let mut a = run_semijoin(SemiJoinSpec::new(vec![analyze_app()], 4), data.clone()).unwrap();
        let mut spec = SemiJoinSpec::new(vec![analyze_app()], 4);
        spec.sorted = true;
        let mut b = run_semijoin(spec, data).unwrap();
        let key = |r: &Row| format!("{r}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn semijoin_batched_messages() {
        let rt = runtime();
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(rt, client).unwrap();
        let mut spec = SemiJoinSpec::new(vec![analyze_app()], 8);
        spec.batch_size = 4;
        let input = Box::new(RowsOp::new(input_schema(), rows(16, 16)));
        let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 16);
        // 1 install + 4 batches + finish.
        assert_eq!(stats.down_messages(), 6);
    }

    #[test]
    fn semijoin_concurrency_one_still_completes() {
        let out = run_semijoin(SemiJoinSpec::new(vec![analyze_app()], 1), rows(10, 10)).unwrap();
        assert_eq!(out.len(), 10);
    }

    /// Replays its rows, then fails where a healthy input would end.
    struct FailsAtEnd(RowsOp);

    impl Operator for FailsAtEnd {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }

        fn next_batch(&mut self) -> Result<Option<RowBatch>> {
            match self.0.next_batch()? {
                Some(batch) => Ok(Some(batch)),
                None => Err(CsqError::Type("input broke".into())),
            }
        }
    }

    #[test]
    fn sender_error_follows_exactly_the_delivered_prefix() {
        // The semi-join receiver discards a partial output batch when it
        // latches, so the delivered prefix is a whole number of them; the
        // last `batch_size - 1` rows open a span (or chunk) the failing
        // input never lets fill, and they die with it.
        let delivered = 3 * DEFAULT_BATCH_SIZE;
        type Input = Box<dyn Operator + Send>;
        let check = |batch_size: usize, make: &dyn Fn(Input, Endpoint) -> Box<dyn Operator>| {
            let n = delivered + batch_size - 1;
            let rt = runtime();
            let (server, client, stats) = in_memory_duplex();
            let handle = spawn_client(rt.clone(), client).unwrap();
            let input = Box::new(FailsAtEnd(RowsOp::new(input_schema(), rows(n, n))));
            let mut op = make(input, server);
            let mut out = Vec::new();
            let err = loop {
                match op.next_batch() {
                    Ok(Some(batch)) => out.extend(batch.into_rows()),
                    Ok(None) => panic!("the input error was swallowed"),
                    Err(e) => break e,
                }
            };
            assert_eq!(err.kind(), "type");
            for _ in 0..3 {
                assert!(op.next_batch().unwrap().is_none());
            }
            assert_eq!(out.len(), delivered);
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.value(0), &Value::Int(i as i64), "input order preserved");
            }
            drop(op);
            let _ = handle.join().unwrap();
            // Install plus one message per full span: neither the open span
            // nor Finish was ever sent.
            assert_eq!(stats.down_messages(), (1 + delivered / batch_size) as u64);
            assert_eq!(rt.invocations(), delivered as u64);
        };
        for batch_size in [1, 3] {
            for concurrency in [1, 4] {
                check(batch_size, &|input, server| {
                    let mut spec = SemiJoinSpec::new(vec![analyze_app()], concurrency);
                    spec.batch_size = batch_size;
                    Box::new(ThreadedSemiJoin::new(input, spec, server).unwrap())
                });
            }
            // One ticket per shipped message is honoured before the error
            // ticket.
            check(batch_size, &|input, server| {
                let mut spec = ClientJoinSpec::new(vec![analyze_app()]);
                spec.batch_size = batch_size;
                Box::new(ThreadedClientJoin::new(input, spec, server).unwrap())
            });
        }
    }

    #[test]
    fn duplicates_after_the_last_message_still_arrive() {
        // Six distinct arguments fill two messages exactly; the rows after
        // them repeat shipped arguments with no span open, so they reach the
        // buffer without a message of their own.
        let run = |data: Vec<Row>| {
            let (server, client, stats) = in_memory_duplex();
            let handle = spawn_client(runtime(), client).unwrap();
            let mut spec = SemiJoinSpec::new(vec![analyze_app()], 2);
            spec.batch_size = 3;
            let input = Box::new(RowsOp::new(input_schema(), data));
            let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
            let out = collect(&mut op).unwrap();
            drop(op);
            let _ = handle.join().unwrap();
            (out, stats.down_messages())
        };
        let (head, head_messages) = run(rows(6, 6));
        let (all, all_messages) = run(rows(10, 6));
        assert_eq!(all.len(), 10);
        assert_eq!(all[..6], head[..]);
        for (i, r) in all.iter().enumerate().skip(6) {
            assert_eq!(r.value(0), &Value::Int(i as i64));
            assert_eq!(r.value(2), all[i % 6].value(2), "duplicates share results");
        }
        // install + 2 argument messages + finish, with or without the tail.
        assert_eq!(head_messages, 4);
        assert_eq!(all_messages, head_messages);
    }

    #[test]
    fn client_join_filters_at_client() {
        let rt = runtime();
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(rt, client).unwrap();
        let keep = UdfApplication::new("Keep", vec![1], Field::new("keep", DataType::Bool));
        let mut spec = ClientJoinSpec::new(vec![keep]);
        spec.pushed_predicate = Some(PhysExpr::Binary {
            left: Box::new(PhysExpr::Column(2)),
            op: BinaryOp::Eq,
            right: Box::new(PhysExpr::Literal(Value::Bool(true))),
        });
        spec.return_cols = Some(vec![0, 2]);
        let input = Box::new(RowsOp::new(input_schema(), rows(100, 100)));
        let mut op = ThreadedClientJoin::new(input, spec, server).unwrap();
        assert_eq!(op.schema().len(), 2);
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert!(!out.is_empty() && out.len() < 100);
        for r in &out {
            assert_eq!(r.value(1), &Value::Bool(true));
        }
    }

    #[test]
    fn client_join_ships_duplicates_but_caches_invocations() {
        let rt = runtime();
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(rt.clone(), client).unwrap();
        let mut spec = ClientJoinSpec::new(vec![analyze_app()]);
        spec.sort_on_args = true;
        spec.client_cache = true;
        let input = Box::new(RowsOp::new(input_schema(), rows(30, 3)));
        let mut op = ThreadedClientJoin::new(input, spec, server).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 30);
        // All 30 records cross the network — no transfer dedup:
        // install + 30 batches + finish...
        assert_eq!(stats.down_messages(), 32);
        // ...but the client invoked each distinct argument only once.
        assert_eq!(rt.invocations(), 3);
        assert_eq!(rt.cache_hits(), 27);
    }

    #[test]
    fn naive_blocking_roundtrips() {
        let rt = runtime();
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(rt.clone(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), rows(12, 4)));
        let mut op = NaiveRemoteUdf::new(input, vec![analyze_app()], server, true).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(rt.invocations(), 4, "cache eliminates duplicate calls");
        // install + 4 round trips + finish.
        assert_eq!(stats.down_messages(), 6);
        assert_eq!(stats.up_messages(), 4);
    }

    #[test]
    fn naive_without_cache_reinvokes() {
        let rt = runtime();
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(rt.clone(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), rows(12, 4)));
        let mut op = NaiveRemoteUdf::new(input, vec![analyze_app()], server, false).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(rt.invocations(), 12);
    }

    #[test]
    fn all_strategies_agree_on_results() {
        let data = rows(25, 5);
        let sj = run_semijoin(SemiJoinSpec::new(vec![analyze_app()], 6), data.clone()).unwrap();

        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), data.clone()));
        let mut op =
            ThreadedClientJoin::new(input, ClientJoinSpec::new(vec![analyze_app()]), server)
                .unwrap();
        let csj = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();

        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), data));
        let mut op = NaiveRemoteUdf::new(input, vec![analyze_app()], server, true).unwrap();
        let naive = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();

        assert_eq!(sj, csj);
        assert_eq!(sj, naive);
    }

    #[test]
    fn semijoin_over_real_tcp_matches_in_memory() {
        // The shipped plan must be transport-agnostic: running the same
        // pipeline over a loopback socket pair yields the same rows, the
        // same message counts, and byte counts that differ from the
        // in-memory duplex by exactly the 4-byte frame header per message
        // (NetStats charges what actually crossed the socket).
        let data = rows(30, 6);
        let run = |tcp: bool| {
            let rt = runtime();
            let (server, client, stats) = if tcp {
                csq_net::tcp_duplex().unwrap()
            } else {
                let (s, c, st) = in_memory_duplex();
                (s, c, st)
            };
            let handle = spawn_client(rt, client).unwrap();
            let mut spec = SemiJoinSpec::new(vec![analyze_app()], 5);
            spec.batch_size = 4;
            let input = Box::new(RowsOp::new(input_schema(), data.clone()));
            let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
            let out = collect(&mut op).unwrap();
            drop(op);
            let _ = handle.join().unwrap();
            (out, stats)
        };
        let (mem_rows, mem_stats) = run(false);
        let (tcp_rows, tcp_stats) = run(true);
        assert_eq!(tcp_rows, mem_rows);
        assert_eq!(tcp_stats.down_messages(), mem_stats.down_messages());
        assert_eq!(tcp_stats.up_messages(), mem_stats.up_messages());
        let header = csq_net::FRAME_HEADER_BYTES as u64;
        assert_eq!(
            tcp_stats.down_bytes(),
            mem_stats.down_bytes() + header * mem_stats.down_messages()
        );
        assert_eq!(
            tcp_stats.up_bytes(),
            mem_stats.up_bytes() + header * mem_stats.up_messages()
        );
    }

    #[test]
    fn client_join_over_real_tcp_matches_in_memory() {
        let data = rows(40, 40);
        let run = |tcp: bool| {
            let rt = runtime();
            let (server, client, _) = if tcp {
                csq_net::tcp_duplex().unwrap()
            } else {
                let (s, c, st) = in_memory_duplex();
                (s, c, st)
            };
            let handle = spawn_client(rt, client).unwrap();
            let keep = UdfApplication::new("Keep", vec![1], Field::new("keep", DataType::Bool));
            let mut spec = ClientJoinSpec::new(vec![keep]);
            spec.pushed_predicate = Some(PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(2)),
                op: BinaryOp::Eq,
                right: Box::new(PhysExpr::Literal(Value::Bool(true))),
            });
            spec.return_cols = Some(vec![0, 2]);
            spec.batch_size = 8;
            let input = Box::new(RowsOp::new(input_schema(), data.clone()));
            let mut op = ThreadedClientJoin::new(input, spec, server).unwrap();
            let out = collect(&mut op).unwrap();
            drop(op);
            let _ = handle.join().unwrap();
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn early_drop_of_receiver_shuts_pipeline_down() {
        // LIMIT-style early termination: dropping the operator with most of
        // its input still unsent must not hang. One hand-off may be unpaired
        // (K = 2 tuples at 1 or 8 per message), so the sender is waiting for
        // the credit of a record, or of a whole span, when the receiver goes
        // away.
        for batch_size in [1, 8] {
            let (server, client, _) = in_memory_duplex();
            let handle = spawn_client(runtime(), client).unwrap();
            let n = 3 * DEFAULT_BATCH_SIZE;
            let input = Box::new(RowsOp::new(input_schema(), rows(n, n)));
            let mut spec = SemiJoinSpec::new(vec![analyze_app()], 2);
            spec.batch_size = batch_size;
            let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
            let first = op.next_batch().unwrap().unwrap();
            assert_eq!(first.len(), DEFAULT_BATCH_SIZE);
            assert_eq!(first.rows()[0].value(0), &Value::Int(0));
            drop(op);
            let _ = handle.join().unwrap();
        }
    }

    #[test]
    fn client_join_latches_after_codec_error() {
        // A hand-rolled client answers the first two four-tuple batches with
        // a malformed frame and a well-formed one: the pull that decodes the
        // garbage fails typed, and no later pull may take the next ticket (or
        // span) and hand out the rows behind the corrupt chunk.
        type Input = Box<dyn Operator + Send>;
        let check = |make: &dyn Fn(Input, Endpoint) -> Box<dyn Operator>| {
            let (server, client, _) = in_memory_duplex();
            let fake = std::thread::spawn(move || {
                let mut batches = 0;
                while let Some(buf) = client.recv() {
                    if !matches!(Request::decode(&buf), Ok(Request::Batch(_))) {
                        continue;
                    }
                    batches += 1;
                    let reply = match batches {
                        1 => vec![0xff, 0xff, 0xff],
                        _ => Response::Batch(rows(4, 4)).encode(),
                    };
                    if client.send(reply).is_err() {
                        break;
                    }
                }
            });
            let input = Box::new(RowsOp::new(input_schema(), rows(12, 12)));
            let mut op = make(input, server);
            assert_eq!(op.next_batch().unwrap_err().kind(), "codec");
            for _ in 0..3 {
                assert!(op.next_batch().unwrap().is_none());
            }
            drop(op);
            fake.join().unwrap();
        };
        check(&|input, server| {
            let mut spec = ClientJoinSpec::new(vec![analyze_app()]);
            spec.batch_size = 4;
            Box::new(ThreadedClientJoin::new(input, spec, server).unwrap())
        });
        check(&|input, server| {
            let mut spec = SemiJoinSpec::new(vec![analyze_app()], 8);
            spec.batch_size = 4;
            Box::new(ThreadedSemiJoin::new(input, spec, server).unwrap())
        });
    }

    #[test]
    fn grouped_udfs_ship_argument_union_once() {
        let rt = runtime();
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(rt.clone(), client).unwrap();
        let apps = vec![
            analyze_app(),
            UdfApplication::new("Keep", vec![1], Field::new("keep", DataType::Bool)),
        ];
        let input = Box::new(RowsOp::new(input_schema(), rows(10, 10)));
        let mut op = ThreadedSemiJoin::new(input, SemiJoinSpec::new(apps, 4), server).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].len(), 4); // id, arg, analyze result, keep result
        assert_eq!(rt.invocations(), 20); // two UDFs × 10 distinct args
    }
}
