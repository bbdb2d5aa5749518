//! Threaded execution of the three strategies over a real endpoint.
//!
//! The architecture is Figure 3/4 of the paper: a *sender* thread pulls
//! input batches, ships argument (or whole-record) batches to the client,
//! and — for the semi-join — hands the records, one message's span per
//! hand-off, to the *receiver* under **credit back-pressure**: at most the
//! pipeline concurrency factor's worth of spans are unpaired at once. The
//! receiver is the operator itself (the calling thread): it takes records,
//! pairs them with results arriving from the client, and emits joined rows.
//! The client runs in its own thread (see [`csq_client::spawn_client`]).
//!
//! A lane-backed input stays lanes (DESIGN.md §2): the semi-join numbers
//! arguments from the lanes, hands off the shared lanes with the records'
//! ordinals and appends one result lane per UDF to them; rows get their
//! results pushed on in place.
//!
//! The operators carry the endpoints' clocks, so the same code runs in real
//! time over an in-memory or TCP duplex and in virtual time over
//! [`csq_net::virtual_duplex`] (see [`crate::sim`]): a receive moves the
//! receiver's clock, and a credit moves the sender's.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};

use csq_common::codec::encode_batch_rows;
use csq_common::{
    ArgIndex, CsqError, Lane, Result, Row, RowBatch, Schema, Selection, Value, DEFAULT_BATCH_SIZE,
};
use csq_exec::Operator;
use csq_net::{Endpoint, NetReceiver, NetSender, SimTime};

use csq_client::{Request, Response};

use crate::spec::{ClientJoinSpec, SemiJoinSpec};

/// Records of one input batch — its shared lanes and the records' lane
/// ordinals, or its rows — with, per record, the shipping ordinal of its
/// argument tuple (`args`, in the sender → receiver buffer: results come
/// back in that order) or its result cells (`cells`, one per UDF, in the
/// receiver's output).
#[derive(Default)]
struct Records {
    lanes: Option<Vec<Arc<Lane>>>,
    ords: Vec<usize>,
    rows: Vec<Row>,
    args: Vec<usize>,
    cells: Vec<Value>,
}

impl Records {
    fn len(&self) -> usize {
        self.ords.len() + self.rows.len()
    }

    /// The records staged so far; `self` goes on empty, over the same lanes.
    fn split(&mut self) -> Records {
        Records {
            lanes: self.lanes.clone(),
            ords: std::mem::take(&mut self.ords),
            rows: std::mem::take(&mut self.rows),
            args: std::mem::take(&mut self.args),
            cells: Vec::new(),
        }
    }

    /// True when `other`'s records may join these in one batch.
    fn takes(&self, other: &Records) -> bool {
        match (&self.lanes, &other.lanes) {
            _ if self.len() == 0 => true,
            (Some(a), Some(b)) => a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(a, b)),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// The output batch: on lanes, the input lanes plus one lane per result
    /// column, typed as a sealed column of the results would be.
    fn into_batch(self, schema: &Arc<Schema>) -> Option<RowBatch> {
        let Some(mut lanes) = self.lanes else {
            return (!self.rows.is_empty()).then(|| RowBatch::from_rows(schema.clone(), self.rows));
        };
        let len = self.ords.iter().max().map_or(0, |m| m + 1);
        let width = schema.len() - lanes.len();
        for k in 0..width {
            let cells = self.cells.iter().skip(k).step_by(width);
            let cells = self.ords.iter().copied().zip(cells);
            lanes.push(Arc::new(Lane::from_cells(len, cells)));
        }
        let sel = Selection::Rows(self.ords);
        Some(RowBatch::from_lanes(schema.clone(), lanes, sel))
    }
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
    /// One item per hand-off: how many arguments its message shipped (none
    /// when its records repeat shipped arguments) and the records of the
    /// span, or the sender's failure (input error or network error).
    buffer_rx: Receiver<Result<(usize, Vec<Records>)>>,
    /// One credit per paired hand-off, stamped with the receiver's clock.
    credits_tx: Sender<SimTime>,
    /// The hand-off being paired, and how many records of its first piece
    /// are paired.
    span: VecDeque<Records>,
    paired: usize,
    net_rx: NetReceiver,
    /// Results by shipping ordinal, `udfs` values each.
    results: Vec<Row>,
    udfs: usize,
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
        let udfs = spec.udfs.len();
        let sender = std::thread::Builder::new()
            .name("csq-sj-sender".into())
            .spawn(move || semijoin_sender(input, task, spec, net_tx, buffer_tx, credits_rx))
            .map_err(|e| CsqError::Exec(format!("failed to spawn semi-join sender: {e}")))?;
        Ok(ThreadedSemiJoin {
            schema,
            buffer_rx,
            credits_tx,
            span: VecDeque::new(),
            paired: 0,
            net_rx,
            results: Vec::new(),
            udfs,
            sender: Some(sender),
            failed: false,
        })
    }

    /// Take the reply to a hand-off's message of `shipped` arguments: one
    /// result per argument, one value per UDF, or a `client` error.
    fn receive(&mut self, shipped: usize) -> Result<()> {
        if shipped == 0 {
            return Ok(());
        }
        let rows = response_rows(
            self.net_rx.recv(),
            "client closed connection before all results arrived",
        )?;
        if rows.len() != shipped || rows.iter().any(|r| r.len() != self.udfs) {
            return Err(CsqError::Client(format!(
                "semi-join: the client's reply to {shipped} arguments is not \
                 {shipped} results of {} values",
                self.udfs
            )));
        }
        self.results.extend(rows);
        Ok(())
    }

    /// Pair the next buffered record with its result into `out`; once its
    /// hand-off is paired, its slot goes back to the sender.
    fn pair(&mut self, out: &mut Records) -> Result<()> {
        let missing = || {
            CsqError::Exec(
                "semi-join receiver: no record, or no result for its argument, to pair \
                 (sender/receiver protocol violation)"
                    .into(),
            )
        };
        let piece = self.span.front_mut().ok_or_else(missing)?;
        let result = piece
            .args
            .get(self.paired)
            .and_then(|&arg| self.results.get(arg))
            .ok_or_else(missing)?;
        if let Some(lanes) = &piece.lanes {
            out.lanes.get_or_insert_with(|| lanes.clone());
            out.ords.push(piece.ords[self.paired]);
            out.cells.extend_from_slice(result.values());
        } else {
            let mut row = std::mem::take(&mut piece.rows[self.paired]);
            for v in result.values() {
                row.push_value(v.clone());
            }
            out.rows.push(row);
        }
        self.paired += 1;
        if self.paired == piece.args.len() {
            self.span.pop_front();
            self.paired = 0;
            if self.span.is_empty() {
                // At the receiver's time. A sender that is gone needs no
                // credit.
                let _ = self.credits_tx.send(self.net_rx.now());
            }
        }
        Ok(())
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
        let mut out = Records::default();
        while out.len() < DEFAULT_BATCH_SIZE {
            if self.span.is_empty() {
                let span = match self.buffer_rx.recv() {
                    Ok(Ok((shipped, span))) => self.receive(shipped).map(|()| span),
                    Ok(Err(e)) => {
                        self.join_sender();
                        Err(e)
                    }
                    Err(_) => {
                        self.join_sender();
                        break;
                    }
                };
                match span {
                    Ok(span) => self.span = span.into(),
                    Err(e) => {
                        self.failed = true;
                        return Err(e);
                    }
                }
            }
            // A piece over other lanes than the batch's, or rows after
            // lanes, starts the next batch.
            if !self.span.front().is_some_and(|p| out.takes(p)) {
                break;
            }
            if let Err(e) = self.pair(&mut out) {
                // Latch: the partial batch is discarded and every later
                // pull reports end of stream.
                self.failed = true;
                return Err(e);
            }
        }
        Ok(out.into_batch(&self.schema))
    }
}

/// Sender-thread body for the semi-join — the loop of Figure 3: number the
/// record's arguments, stage the record, and once a span is full wait for a
/// slot, send its message and hand the staged records to the receiver.
/// Consumes the input operator one [`RowBatch`] at a time, a lane batch
/// read and staged as its lanes. Every distinct argument tuple is numbered
/// in an [`ArgIndex`] in shipping order (each record's arguments are hashed
/// once, there), and the receiver finds a record's result by that ordinal.
/// Records are handed off only after every argument they refer to is on the
/// wire — the sender/receiver pairing protocol — and one hand-off carries
/// all of a message's records.
fn semijoin_sender(
    mut input: Box<dyn Operator + Send>,
    task: csq_client::ClientTask,
    spec: SemiJoinSpec,
    net_tx: NetSender,
    buffer_tx: Sender<Result<(usize, Vec<Records>)>>,
    credits_rx: Receiver<SimTime>,
) {
    if net_tx.send(Request::Install(task).encode()).is_err() {
        let _ = buffer_tx.send(Err(CsqError::Net("client unreachable".into())));
        return;
    }
    let batch_size = spec.batch_size.max(1);
    let mut args = ArgIndex::new(spec.arg_union(input.schema().len()));
    // Arguments carried by a message so far; the rest form the open span.
    let mut sent = 0;
    // The records staged since the last hand-off.
    let mut staged: Vec<Records> = Vec::new();
    // K is in tuples and a hand-off is a span of `batch_size` shipped
    // arguments, so ⌈K/m⌉ hand-offs may be unpaired at once.
    let slots = spec.concurrency.div_ceil(batch_size).max(1);
    let mut unpaired = 0;
    // Hand the staged records off, with the open span's message if there
    // is one (the span closes): wait until fewer than `slots` hand-offs are
    // unpaired (moving the sender's clock up to each credit's stamp), send
    // the message, release the records. False when the client or the
    // receiver (e.g. under a LIMIT) is gone: stop quietly.
    let mut hand_off = |args: &ArgIndex, sent: &mut usize, staged: &mut Vec<Records>| {
        let shipped = args.len() - *sent;
        let msg = (shipped > 0).then(|| Request::encode_batch(args.keys(*sent)));
        *sent = args.len();
        while unpaired >= slots {
            let Ok(at) = credits_rx.recv() else {
                return false;
            };
            net_tx.advance_to(at);
            unpaired -= 1;
        }
        if let Some(msg) = msg {
            if net_tx.send(msg).is_err() {
                return false;
            }
        }
        unpaired += 1;
        buffer_tx
            .send(Ok((shipped, std::mem::take(staged))))
            .is_ok()
    };

    loop {
        let batch = match input.next_batch() {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(e) => {
                // What is staged dies with the input; the error follows
                // exactly what was delivered.
                let _ = buffer_tx.send(Err(e));
                return;
            }
        };
        let n = batch.len();
        let (lanes, sel, rows) = match batch.lanes() {
            Some((lanes, sel)) => (Some(lanes.to_vec()), sel.clone(), Vec::new()),
            None => (None, Selection::Window(0..0), batch.into_rows()),
        };
        let mut rows = rows.into_iter();
        let mut piece = Records {
            lanes,
            ..Records::default()
        };
        for p in 0..n {
            match &piece.lanes {
                Some(lanes) => {
                    let i = sel.ordinal(p);
                    piece.args.push(args.insert_by(|c| lanes[c].cell(i)).0);
                    piece.ords.push(i);
                }
                None => {
                    let Some(row) = rows.next() else { break };
                    piece
                        .args
                        .push(args.insert_by(|c| Cow::Borrowed(row.value(c))).0);
                    piece.rows.push(row);
                }
            }
            if args.len() - sent >= batch_size {
                staged.push(piece.split());
                if !hand_off(&args, &mut sent, &mut staged) {
                    return;
                }
            }
        }
        if !piece.args.is_empty() {
            staged.push(piece);
        }
        // With no span open, what is staged repeats shipped arguments: its
        // results are in flight or kept, so it needs no message of its own
        // (but a slot, like any hand-off).
        if args.len() == sent && !staged.is_empty() && !hand_off(&args, &mut sent, &mut staged) {
            return;
        }
    }
    if args.len() > sent && !hand_off(&args, &mut sent, &mut staged) {
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
        let sender = std::thread::Builder::new()
            .name("csq-csj-sender".into())
            .spawn(move || client_join_sender(input, task, batch_size, net_tx, tickets_tx))
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
                // The response chunk this ticket announced, a row of the
                // output schema's width each.
                Ok(Ok(())) => {
                    let width = self.schema.len();
                    response_rows(self.net_rx.recv(), "client closed connection mid-query")
                        .and_then(|rows| match rows.iter().find(|r| r.len() != width) {
                            Some(r) => Err(CsqError::Client(format!(
                                "client-site join: the client returned a row of {} values \
                                 for {width} columns",
                                r.len()
                            ))),
                            None => Ok(rows),
                        })
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
/// and message accounting is independent of the engine's batch capacity),
/// written by [`encode_batch_rows`] from rows or lanes alike; a short last
/// chunk has its row count patched. Chunk, send, ticket: a message's ticket
/// is issued only once it is on the wire.
fn client_join_sender(
    mut input: Box<dyn Operator + Send>,
    task: csq_client::ClientTask,
    batch_size: usize,
    net_tx: NetSender,
    tickets_tx: Sender<Result<()>>,
) {
    if net_tx.send(Request::Install(task).encode()).is_err() {
        let _ = tickets_tx.send(Err(CsqError::Net("client unreachable".into())));
        return;
    }
    // False when the client or the receiver is gone: stop quietly.
    let ship_chunk = |msg: Vec<u8>| net_tx.send(msg).is_ok() && tickets_tx.send(Ok(())).is_ok();
    let mut msg = Request::batch_head(batch_size);
    let mut pending = 0;
    loop {
        let batch = match input.next_batch() {
            Ok(Some(b)) => b,
            Ok(None) => break,
            Err(e) => {
                // Queued behind the tickets of the messages already sent, so
                // the receiver consumes exactly what was shipped.
                let _ = tickets_tx.send(Err(e));
                return;
            }
        };
        let mut pos = 0;
        while pos < batch.len() {
            let take = (batch_size - pending).min(batch.len() - pos);
            encode_batch_rows(&batch, pos..pos + take, &mut msg);
            (pos, pending) = (pos + take, pending + take);
            if pending == batch_size {
                pending = 0;
                if !ship_chunk(std::mem::replace(&mut msg, Request::batch_head(batch_size))) {
                    return;
                }
            }
        }
    }
    if pending > 0 {
        let head = Request::batch_head(pending);
        msg[..head.len()].copy_from_slice(&head);
        if !ship_chunk(msg) {
            return;
        }
    }
    let _ = net_tx.send(Request::Finish.encode());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::UdfApplication;
    use csq_client::{spawn_client, ClientRuntime};
    use csq_common::{Blob, DataType, Field};
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
        let spec = ClientJoinSpec::new(vec![analyze_app()]);
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
        // The naive strategy is the semi-join at K = 1, one tuple a message:
        // a round trip per distinct argument, duplicates served from the
        // results kept by ordinal.
        let rt = runtime();
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(rt.clone(), client).unwrap();
        let input = Box::new(RowsOp::new(input_schema(), rows(12, 4)));
        let spec = SemiJoinSpec::new(vec![analyze_app()], 1);
        let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
        let out = collect(&mut op).unwrap();
        drop(op);
        let _ = handle.join().unwrap();
        assert_eq!(out.len(), 12);
        assert_eq!(rt.invocations(), 4, "duplicates are not shipped again");
        // install + 4 round trips + finish.
        assert_eq!(stats.down_messages(), 6);
        assert_eq!(stats.up_messages(), 4);
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

        let naive = run_semijoin(SemiJoinSpec::new(vec![analyze_app()], 1), data).unwrap();

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
    fn receivers_reject_replies_of_the_wrong_shape() {
        // A hand-rolled client answers every batch of `m` tuples with
        // `reply(m)`. A semi-join reply that is not one result per shipped
        // argument, one value per UDF, or a client-join row that is not the
        // output schema's width fails the pull that takes it with a typed
        // `client` error and latches, over row and lane input alike.
        type Input = Box<dyn Operator + Send>;
        type Reply = fn(usize) -> Vec<Row>;
        let check = |reply: Reply, make: &dyn Fn(Input, Endpoint) -> Box<dyn Operator>| {
            for on_lanes in [false, true] {
                let (server, client, _) = in_memory_duplex();
                let fake = std::thread::spawn(move || {
                    while let Some(buf) = client.recv() {
                        let Ok(Request::Batch(tuples)) = Request::decode(&buf) else {
                            continue;
                        };
                        if client
                            .send(Response::Batch(reply(tuples.len())).encode())
                            .is_err()
                        {
                            break;
                        }
                    }
                });
                let (data, schema) = (rows(12, 12), Arc::new(input_schema()));
                let batch = if on_lanes {
                    let lanes = (0..2).map(|c| Arc::new(Lane::build(&data, c))).collect();
                    RowBatch::from_lanes(schema.clone(), lanes, Selection::Window(0..12))
                } else {
                    RowBatch::from_rows(schema.clone(), data)
                };
                let input = Box::new(Batches(schema, vec![batch].into_iter()));
                let mut op = make(input, server);
                let err = op.next_batch().unwrap_err();
                assert_eq!(err.kind(), "client", "lanes: {on_lanes}: {err}");
                for _ in 0..3 {
                    assert!(op.next_batch().unwrap().is_none());
                }
                drop(op);
                fake.join().unwrap();
            }
        };
        let semijoin = |input, server| -> Box<dyn Operator> {
            let mut spec = SemiJoinSpec::new(vec![analyze_app()], 8);
            spec.batch_size = 4;
            Box::new(ThreadedSemiJoin::new(input, spec, server).unwrap())
        };
        // Two values for one UDF.
        let pair = |m| {
            let pair = |i| Row::new(vec![Value::Int(i as i64), Value::Int(99)]);
            (0..m).map(pair).collect()
        };
        check(pair, &semijoin);
        // One result short, one over.
        check(|m| vec![Row::new(vec![Value::Int(0)]); m - 1], &semijoin);
        check(|m| vec![Row::new(vec![Value::Int(0)]); m + 1], &semijoin);
        // One column for the three of the output schema.
        let client_join = |input, server| -> Box<dyn Operator> {
            let mut spec = ClientJoinSpec::new(vec![analyze_app()]);
            spec.batch_size = 4;
            Box::new(ThreadedClientJoin::new(input, spec, server).unwrap())
        };
        check(|m| vec![Row::new(vec![Value::Int(0)]); m], &client_join);
    }

    /// Hands out `batches` as they are.
    struct Batches(Arc<Schema>, std::vec::IntoIter<RowBatch>);

    impl Operator for Batches {
        fn schema(&self) -> &Schema {
            &self.0
        }

        fn next_batch(&mut self) -> Result<Option<RowBatch>> {
            Ok(self.1.next())
        }
    }

    #[test]
    fn semijoin_appends_typed_result_lanes_to_the_input_lanes() {
        // Two batches over one set of lanes, every other row selected: the
        // output is one batch over the same lanes plus a BLOB result lane
        // (`Values`) and a BOOL one, under the records' ordinals.
        let data = rows(40, 7);
        let lanes: Vec<Arc<Lane>> = (0..2).map(|c| Arc::new(Lane::build(&data, c))).collect();
        let schema = Arc::new(input_schema());
        let batches = [(0..20), (20..40)].map(|half| {
            let sel = Selection::Rows(half.filter(|i| i % 2 == 1).collect());
            RowBatch::from_lanes(schema.clone(), lanes.clone(), sel)
        });
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        let apps = || {
            let keep = UdfApplication::new("Keep", vec![1], Field::new("keep", DataType::Bool));
            vec![analyze_app(), keep]
        };
        let mut spec = SemiJoinSpec::new(apps(), 4);
        spec.batch_size = 3;
        let input = Box::new(Batches(schema, Vec::from(batches).into_iter()));
        let mut op = ThreadedSemiJoin::new(input, spec, server).unwrap();
        let out = op.next_batch().unwrap().unwrap();
        assert!(op.next_batch().unwrap().is_none());
        drop(op);
        let _ = handle.join().unwrap();
        let (out_lanes, sel) = out.lanes().expect("lane output");
        assert!(!out.is_materialized());
        assert_eq!(sel.len(), 20);
        assert!(Arc::ptr_eq(&out_lanes[0], &lanes[0]) && Arc::ptr_eq(&out_lanes[1], &lanes[1]));
        assert!(matches!(*out_lanes[2], Lane::Values(_)));
        assert!(matches!(*out_lanes[3], Lane::Bool { .. }));
        let odd: Vec<Row> = data.iter().skip(1).step_by(2).cloned().collect();
        let expect = run_semijoin(SemiJoinSpec::new(apps(), 4), odd).unwrap();
        assert_eq!(out.into_rows(), expect);
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
