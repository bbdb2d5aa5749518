//! The shipping operators (Figures 3 and 4), each driving its own window
//! from `next_batch` on the calling thread: stage input and send while the
//! window of the pipeline concurrency factor has room, then receive one
//! reply. The semi-join's window is ⌈K/m⌉ unpaired hand-offs (one message's
//! span of records each, its slot returned as a **credit** once paired);
//! the client-site join's is ⌈K/m⌉ unanswered messages. The client answers
//! inline ([`Endpoint::with_client`](csq_net::Endpoint::with_client)) or
//! from its own thread ([`csq_client::spawn_client`]); over a socket the
//! window is what keeps the one thread from deadlocking (DESIGN.md §5).
//!
//! A lane-backed input stays lanes (DESIGN.md §2): the semi-join numbers
//! arguments from the lanes and appends one result lane per UDF to them.
//! A send leaves at the sending clock and a receive moves the receiving
//! clock, so the same code runs in real and in virtual time ([`crate::sim`]);
//! redeeming a credit moves the sending clock up to the credit's stamp.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use csq_common::codec::encode_batch_rows;
use csq_common::{
    CancelToken, CsqError, KeyIndex, Lane, Result, Row, RowBatch, Schema, Selection, Value,
    DEFAULT_BATCH_SIZE,
};
use csq_exec::Operator;
use csq_net::{Endpoint, NetReceiver, NetSender, SimTime};

use csq_client::{Request, Response};

use crate::spec::{ClientJoinSpec, SemiJoinSpec};

type Input = Box<dyn Operator + Send>;

/// Records of one input batch — its shared lanes and the records' lane
/// ordinals, or its rows — with, per record, the shipping ordinal of its
/// argument tuple (`args`, while staged and in flight: results come back in
/// that order) or its result cells (`cells`, one per UDF, in the output).
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

/// Decode one received reply to its rows (`None`: the client closed).
fn response_rows(received: Option<Vec<u8>>) -> Result<Vec<Row>> {
    let Some(buf) = received else {
        return Err(CsqError::Net("client closed before its reply".into()));
    };
    // Zero-copy: result payloads stay views of the message buffer.
    let buf = Arc::new(buf);
    match Response::decode_shared(&buf)? {
        Response::Batch(rows) => Ok(rows),
        Response::Error(msg) => Err(CsqError::Client(format!("client-site failure: {msg}"))),
    }
}

/// An operator's side of the link: the endpoint split into its sending and
/// receiving clocks, and the query's token, checked before every message.
struct Wire {
    tx: NetSender,
    rx: NetReceiver,
    cancel: CancelToken,
}

impl Wire {
    /// Split `endpoint` and install `task` on the client.
    fn open(endpoint: Endpoint, task: csq_client::ClientTask) -> Result<Wire> {
        let (tx, rx) = endpoint.split();
        tx.send(Request::Install(task).encode())?;
        let cancel = CancelToken::new();
        Ok(Wire { tx, rx, cancel })
    }

    /// Send a batch message unless the query must stop (a client that is
    /// gone is found by the receive that waits for its reply).
    fn ship(&self, msg: Vec<u8>) -> Result<()> {
        self.cancel.check()?;
        let _ = self.tx.send(msg);
        Ok(())
    }
}

/// An operator's input: open, drained (`Finish` is due once all is sent),
/// or done: after `Finish`, or with the input's error to report last.
enum Feed {
    Open(Input),
    Drained,
    Done(Option<CsqError>),
}

impl Feed {
    /// The next input batch; `None` once the input is over or failed.
    fn pull(&mut self) -> Option<RowBatch> {
        let Feed::Open(input) = self else {
            return None;
        };
        match input.next_batch() {
            Ok(Some(batch)) => return Some(batch),
            Ok(None) => *self = Feed::Drained,
            Err(e) => *self = Feed::Done(Some(e)),
        }
        None
    }

    /// Send `Finish` once the input is drained.
    fn finish(&mut self, wire: &Wire) {
        if let Feed::Drained = self {
            let _ = wire.tx.send(Request::Finish.encode());
            *self = Feed::Done(None);
        }
    }

    /// The input's error, once nothing is in flight.
    fn end(&mut self) -> Result<()> {
        match self {
            Feed::Done(e) => e.take().map_or(Ok(()), Err),
            _ => Ok(()),
        }
    }
}

/// The semi-join operator (Figure 3): argument batches out, each record
/// paired with its argument's result in a credit-bounded window.
pub struct ThreadedSemiJoin {
    schema: Arc<Schema>,
    feed: Feed,
    wire: Wire,
    /// The argument columns (input ordinals), and the distinct argument
    /// tuples by shipping ordinal; of them, `sent` are on the wire and
    /// `closed` in a closed span.
    arg_cols: Vec<usize>,
    args: KeyIndex,
    batch_size: usize,
    sent: usize,
    closed: usize,
    /// Records staged since the last span closed.
    staged: Vec<Records>,
    /// Hand-offs (how many arguments each one's message ships, and its
    /// records) waiting for a slot, then sent and waiting to be paired.
    ready: VecDeque<(usize, Vec<Records>)>,
    in_flight: VecDeque<(usize, Vec<Records>)>,
    /// ⌈K/m⌉ slots, held by `unpaired` hand-offs; a paired one's comes back
    /// as a credit stamped with the receiving clock.
    slots: usize,
    unpaired: usize,
    credits: VecDeque<SimTime>,
    /// The hand-off being paired, and how many records of its first piece
    /// are.
    span: VecDeque<Records>,
    paired: usize,
    /// Results by shipping ordinal, `udfs` values each.
    results: Vec<Row>,
    udfs: usize,
    failed: bool,
}

impl ThreadedSemiJoin {
    /// Install the client task over `endpoint`, the server end of a duplex
    /// whose client answers as [`csq_client::ClientSession`] does.
    pub fn new(input: Input, spec: SemiJoinSpec, endpoint: Endpoint) -> Result<ThreadedSemiJoin> {
        let input_schema = input.schema().clone();
        let batch_size = spec.batch_size.max(1);
        let arg_cols = spec.arg_union(input_schema.len());
        Ok(ThreadedSemiJoin {
            schema: Arc::new(spec.output_schema(&input_schema)),
            wire: Wire::open(endpoint, spec.client_task(&input_schema)?)?,
            args: KeyIndex::new(arg_cols.len(), 0),
            arg_cols,
            feed: Feed::Open(input),
            batch_size,
            sent: 0,
            closed: 0,
            staged: Vec::new(),
            ready: VecDeque::new(),
            in_flight: VecDeque::new(),
            slots: spec.concurrency.div_ceil(batch_size).max(1),
            unpaired: 0,
            credits: VecDeque::new(),
            span: VecDeque::new(),
            paired: 0,
            results: Vec::new(),
            udfs: spec.udfs.len(),
            failed: false,
        })
    }

    /// Number `batch`'s arguments in shipping order and stage its records;
    /// every `batch_size` new arguments close a span.
    fn stage(&mut self, batch: RowBatch) {
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
                    // Hashed and compared in place: only a new argument's
                    // cells are built.
                    let (i, cols) = (sel.ordinal(p), &self.arg_cols);
                    let hash = cols.iter().fold(0, |h, &c| {
                        KeyIndex::fold(h, self.args.hash_lane(&lanes[c], i))
                    });
                    let (o, _) = self.args.insert(
                        hash,
                        |key| cols.iter().zip(key).all(|(&c, k)| lanes[c].eq_value(i, k)),
                        |out| out.extend(cols.iter().map(|&c| lanes[c].value(i))),
                    );
                    piece.args.push(o);
                    piece.ords.push(i);
                }
                None => {
                    let Some(row) = rows.next() else { break };
                    let cell = |c| Cow::Borrowed(row.value(c));
                    piece.args.push(self.args.insert_by(&self.arg_cols, cell).0);
                    piece.rows.push(row);
                }
            }
            if self.args.len() - self.closed >= self.batch_size {
                self.staged.push(piece.split());
                self.close_span();
            }
        }
        if !piece.args.is_empty() {
            self.staged.push(piece);
        }
        // With no span open, what is staged repeats shipped arguments: its
        // results are in flight or kept, so it needs no message of its own
        // (but a slot, like any hand-off).
        if self.args.len() == self.closed && !self.staged.is_empty() {
            self.close_span();
        }
    }

    /// The open span's arguments and the records staged since the last
    /// span closed become one hand-off.
    fn close_span(&mut self) {
        let shipped = self.args.len() - self.closed;
        self.closed = self.args.len();
        self.ready
            .push_back((shipped, std::mem::take(&mut self.staged)));
    }

    /// Hand off while a slot is free (redeeming credits in order), staging
    /// input as needed, then `Finish`. A record is handed off only once
    /// every argument it refers to is on the wire.
    fn fill(&mut self) -> Result<()> {
        loop {
            if let Some(&(shipped, _)) = self.ready.front() {
                if self.unpaired < self.slots {
                    if shipped > 0 {
                        let keys = self.args.keys(self.sent).take(shipped);
                        self.wire.ship(Request::encode_batch(keys))?;
                        self.sent += shipped;
                    }
                    self.unpaired += 1;
                    self.in_flight.extend(self.ready.pop_front());
                } else if let Some(at) = self.credits.pop_front() {
                    self.wire.tx.advance_to(at);
                    self.unpaired -= 1;
                } else {
                    return Ok(());
                }
            } else if let Some(batch) = self.feed.pull() {
                self.stage(batch);
            } else if self.args.len() > self.closed && matches!(self.feed, Feed::Drained) {
                self.close_span();
            } else {
                self.feed.finish(&self.wire);
                return Ok(());
            }
        }
    }

    /// Take the reply to a hand-off's message of `shipped` arguments: one
    /// result per argument, one value per UDF, or a `client` error.
    fn receive(&mut self, shipped: usize) -> Result<()> {
        if shipped == 0 {
            return Ok(());
        }
        let rows = response_rows(self.wire.rx.recv())?;
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

    /// Pair the next record with its result into `out`; once its hand-off
    /// is paired, its slot comes back as a credit.
    fn pair(&mut self, out: &mut Records) -> Result<()> {
        let missing = || CsqError::Exec("semi-join: no record, or no result, to pair".into());
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
                self.credits.push_back(self.wire.rx.now());
            }
        }
        Ok(())
    }

    /// Pair up to a batch of records, taking each hand-off's reply in turn.
    fn pull(&mut self) -> Result<Option<RowBatch>> {
        let mut out = Records::default();
        while out.len() < DEFAULT_BATCH_SIZE {
            if self.span.is_empty() {
                self.fill()?;
                let Some((shipped, span)) = self.in_flight.pop_front() else {
                    // The input's error discards the partial batch.
                    self.feed.end()?;
                    break;
                };
                self.receive(shipped)?;
                self.span = span.into();
            }
            // A piece over other lanes than the batch's, or rows after
            // lanes, starts the next batch.
            if !self.span.front().is_some_and(|p| out.takes(p)) {
                break;
            }
            self.pair(&mut out)?;
        }
        Ok(out.into_batch(&self.schema))
    }
}

/// The client-site join operator (Figure 4): whole records out, written by
/// [`encode_batch_rows`] from rows or lanes, `batch_size` to a message
/// whatever the engine's batch capacity; each reply's rows are a batch. The
/// sending clock never moves: a message leaves when the downlink takes it.
pub struct ThreadedClientJoin {
    schema: Arc<Schema>,
    feed: Feed,
    wire: Wire,
    batch_size: usize,
    /// The input batch being cut into messages, and how far it is cut.
    cutting: Option<(RowBatch, usize)>,
    /// The open message and its record count.
    msg: Vec<u8>,
    pending: usize,
    /// ⌈K/m⌉ messages may be unanswered at once.
    window: usize,
    unanswered: usize,
    failed: bool,
}

impl ThreadedClientJoin {
    /// Install the client task over `endpoint`, the server end of a duplex
    /// whose client answers as [`csq_client::ClientSession`] does.
    pub fn new(
        input: Input,
        spec: ClientJoinSpec,
        endpoint: Endpoint,
    ) -> Result<ThreadedClientJoin> {
        let input_schema = input.schema().clone();
        let batch_size = spec.batch_size.max(1);
        Ok(ThreadedClientJoin {
            schema: Arc::new(spec.output_schema(&input_schema)),
            wire: Wire::open(endpoint, spec.client_task(&input_schema)?)?,
            feed: Feed::Open(input),
            batch_size,
            cutting: None,
            msg: Request::batch_head(batch_size),
            pending: 0,
            window: spec.concurrency.div_ceil(batch_size).max(1),
            unanswered: 0,
            failed: false,
        })
    }

    /// Send the open message, its record count patched. The next one
    /// starts at this one's capacity, so a steady input allocates each
    /// message once.
    fn ship(&mut self) -> Result<()> {
        let head = Request::batch_head(self.pending);
        let mut next = Vec::with_capacity(self.msg.capacity());
        next.extend_from_slice(&Request::batch_head(self.batch_size));
        let mut msg = std::mem::replace(&mut self.msg, next);
        msg[..head.len()].copy_from_slice(&head);
        self.pending = 0;
        self.unanswered += 1;
        self.wire.ship(msg)
    }

    /// Cut input into messages while fewer than the window's are
    /// unanswered, then `Finish`.
    fn fill(&mut self) -> Result<()> {
        while self.unanswered < self.window {
            if let Some((batch, pos)) = &mut self.cutting {
                let take = (self.batch_size - self.pending).min(batch.len() - *pos);
                encode_batch_rows(batch, *pos..*pos + take, &mut self.msg);
                (*pos, self.pending) = (*pos + take, self.pending + take);
                if *pos == batch.len() {
                    self.cutting = None;
                }
                if self.pending == self.batch_size {
                    self.ship()?;
                }
            } else if let Some(batch) = self.feed.pull() {
                self.cutting = Some((batch, 0));
            } else if self.pending > 0 && matches!(self.feed, Feed::Drained) {
                self.ship()?;
            } else {
                self.feed.finish(&self.wire);
                break;
            }
        }
        Ok(())
    }

    /// The next reply with rows, each of the output schema's width.
    fn pull(&mut self) -> Result<Option<RowBatch>> {
        let width = self.schema.len();
        loop {
            self.fill()?;
            if self.unanswered == 0 {
                self.feed.end()?;
                return Ok(None);
            }
            self.unanswered -= 1;
            let rows = response_rows(self.wire.rx.recv())?;
            if let Some(r) = rows.iter().find(|r| r.len() != width) {
                return Err(CsqError::Client(format!(
                    "client-site join: the client returned a row of {} values \
                     for {width} columns",
                    r.len()
                )));
            }
            if !rows.is_empty() {
                return Ok(Some(RowBatch::from_rows(self.schema.clone(), rows)));
            }
        }
    }
}

/// The cancellation hook and the [`Operator`] impl of a shipping operator:
/// its `pull` behind a latch — after an error the partial batch is
/// discarded and every later pull reports end of stream.
macro_rules! shipping_operator {
    ($op:ty) => {
        impl $op {
            /// Check `token` before every message: once it trips, the pull
            /// that would send fails with its error.
            pub fn with_cancel(mut self, token: CancelToken) -> $op {
                self.wire.cancel = token;
                self
            }
        }

        impl Operator for $op {
            fn schema(&self) -> &Schema {
                &self.schema
            }

            fn next_batch(&mut self) -> Result<Option<RowBatch>> {
                if self.failed {
                    return Ok(None);
                }
                self.pull().inspect_err(|_| self.failed = true)
            }
        }
    };
}

shipping_operator!(ThreadedSemiJoin);
shipping_operator!(ThreadedClientJoin);

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
        // The semi-join discards a partial output batch when it
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
            // Every shipped message is answered before the input's error.
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
        // window without a message of their own.
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
    fn client_join_messages_start_at_the_last_ones_capacity() {
        // Equal-sized records, four to a message: the first message grows
        // to its size once, and every later one starts there.
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        let mut spec = ClientJoinSpec::new(vec![analyze_app()]);
        spec.batch_size = 4;
        let data = rows(40, 40);
        let size = 5 + 4 * data[0].wire_size();
        let input = Box::new(RowsOp::new(input_schema(), data));
        let mut op = ThreadedClientJoin::new(input, spec, server).unwrap();
        let mut capacities = Vec::new();
        while op.next_batch().unwrap().is_some() {
            capacities.push(op.msg.capacity());
        }
        drop(op);
        let _ = handle.join().unwrap();
        // install + 10 messages + finish.
        assert_eq!(stats.down_messages(), 12);
        assert!(capacities[0] >= size, "{capacities:?} vs {size}");
        assert!(
            capacities.iter().all(|&c| c == capacities[0]),
            "{capacities:?}"
        );
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
        // (K = 2 tuples at 1 or 8 per message), so a hand-off is waiting for
        // the credit of a record, or of a whole span, when the operator goes
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
        // garbage fails typed, and no later pull may take the next reply (or
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
