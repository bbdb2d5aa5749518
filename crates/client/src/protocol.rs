//! The server↔client wire protocol.
//!
//! A session executes one *client task*: an ordered list of UDF steps (each
//! appends a result column to the incoming row), an optional **pushable
//! predicate** evaluated at the client, and an optional **pushable
//! projection** selecting which columns are returned. This is exactly the
//! client half of the paper's strategies:
//!
//! * semi-join — rows are (deduplicated) argument tuples; no predicate may
//!   be pushed (results must return 1:1, §2.3.1); returned columns are the
//!   UDF results.
//! * client-site join — rows are whole records; pushable selections and
//!   projections run at the client (§2.3.2), shrinking the uplink stream.
//!
//! Everything is encoded with the `csq-common` codec so the byte counts the
//! network model charges are the real encoded sizes.

use csq_common::codec::{encode_value, tagged_rows, Decoder};
use csq_common::{CsqError, Result, Row, Value};
use csq_expr::{BinaryOp, PhysExpr, UnaryOp};

/// Which strategy this task implements (affects validation, not execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskMode {
    /// Semi-join: argument tuples in, result columns out, strict 1:1.
    SemiJoin,
    /// Client-site join: whole records in, filtered/projected records out.
    ClientJoin,
}

/// One UDF application step: invoke `udf` on the columns at `arg_cols` of
/// the *current* row (input columns plus results of earlier steps) and
/// append the result as a new column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfStep {
    /// Registered UDF name.
    pub udf: String,
    /// Argument column ordinals into the extended row.
    pub arg_cols: Vec<u32>,
}

/// The full description of what the client does to each incoming row.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientTask {
    /// Strategy mode.
    pub mode: TaskMode,
    /// Width of incoming rows (validated on every batch).
    pub input_width: u32,
    /// UDF steps applied in order.
    pub steps: Vec<UdfStep>,
    /// Pushable predicate over the extended row (`ClientJoin` only).
    pub predicate: Option<PhysExpr>,
    /// Pushable projection: ordinals of the extended row to return.
    /// `None` returns the whole extended row.
    pub return_cols: Option<Vec<u32>>,
    /// Memoize UDF results per distinct argument tuple at the client
    /// (\[HN97]-style caching); saves invocations when the server ships
    /// argument duplicates (client-site join on sorted input).
    pub dedup_cache: bool,
}

impl ClientTask {
    /// Validate internal consistency (step/predicate/projection ordinals in
    /// range, SJ restrictions).
    pub fn validate(&self) -> Result<()> {
        let mut width = self.input_width;
        for (i, s) in self.steps.iter().enumerate() {
            for &c in &s.arg_cols {
                if c >= width {
                    return Err(CsqError::Plan(format!(
                        "task step {i} ('{}'): argument column {c} out of range (width {width})",
                        s.udf
                    )));
                }
            }
            width += 1;
        }
        if self.mode == TaskMode::SemiJoin && self.predicate.is_some() {
            return Err(CsqError::Plan(
                "semi-join tasks cannot push predicates: results must map 1:1 \
                 to argument tuples"
                    .into(),
            ));
        }
        if let Some(p) = &self.predicate {
            check_expr_width(p, width as usize)?;
        }
        if let Some(cols) = &self.return_cols {
            for &c in cols {
                if c >= width {
                    return Err(CsqError::Plan(format!(
                        "task projection: column {c} out of range (width {width})"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Check that every column `e` reads is below `width`: a `plan` error
/// naming the first that is not. An expression from outside the program
/// passes this before anything evaluates it.
pub fn check_expr_width(e: &PhysExpr, width: usize) -> Result<()> {
    match e {
        PhysExpr::Literal(_) => Ok(()),
        PhysExpr::Column(i) => {
            if *i < width {
                Ok(())
            } else {
                Err(CsqError::Plan(format!(
                    "column {i} out of range (width {width})"
                )))
            }
        }
        PhysExpr::Unary { expr, .. } => check_expr_width(expr, width),
        PhysExpr::Binary { left, right, .. } => {
            check_expr_width(left, width)?;
            check_expr_width(right, width)
        }
    }
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Install the session's task (sent once, first).
    Install(ClientTask),
    /// A batch of rows to process.
    Batch(Vec<Row>),
    /// No more batches; the client finishes and closes.
    Finish,
}

/// Client→server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Processed rows for one request batch (may be empty after filtering).
    Batch(Vec<Row>),
    /// The task failed; the session is dead.
    Error(String),
}

// ---- encoding ------------------------------------------------------------

const REQ_INSTALL: u8 = 1;
const REQ_BATCH: u8 = 2;
const REQ_FINISH: u8 = 3;
const RESP_BATCH: u8 = 1;
const RESP_ERROR: u8 = 2;

const EXPR_LIT: u8 = 0;
const EXPR_COL: u8 = 1;
const EXPR_UNARY: u8 = 2;
const EXPR_BINARY: u8 = 3;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

fn binary_op_code(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Add => 0,
        BinaryOp::Sub => 1,
        BinaryOp::Mul => 2,
        BinaryOp::Div => 3,
        BinaryOp::Eq => 4,
        BinaryOp::NotEq => 5,
        BinaryOp::Lt => 6,
        BinaryOp::LtEq => 7,
        BinaryOp::Gt => 8,
        BinaryOp::GtEq => 9,
        BinaryOp::And => 10,
        BinaryOp::Or => 11,
    }
}

fn binary_op_from(code: u8) -> Result<BinaryOp> {
    Ok(match code {
        0 => BinaryOp::Add,
        1 => BinaryOp::Sub,
        2 => BinaryOp::Mul,
        3 => BinaryOp::Div,
        4 => BinaryOp::Eq,
        5 => BinaryOp::NotEq,
        6 => BinaryOp::Lt,
        7 => BinaryOp::LtEq,
        8 => BinaryOp::Gt,
        9 => BinaryOp::GtEq,
        10 => BinaryOp::And,
        11 => BinaryOp::Or,
        other => return Err(CsqError::Codec(format!("bad binary op code {other}"))),
    })
}

/// Append the encoding of a physical expression.
pub fn encode_expr(e: &PhysExpr, out: &mut Vec<u8>) {
    match e {
        PhysExpr::Literal(v) => {
            out.push(EXPR_LIT);
            encode_value(v, out);
        }
        PhysExpr::Column(i) => {
            out.push(EXPR_COL);
            put_u32(out, *i as u32);
        }
        PhysExpr::Unary { op, expr } => {
            out.push(EXPR_UNARY);
            out.push(match op {
                UnaryOp::Not => 0,
                UnaryOp::Neg => 1,
            });
            encode_expr(expr, out);
        }
        PhysExpr::Binary { left, op, right } => {
            out.push(EXPR_BINARY);
            out.push(binary_op_code(*op));
            encode_expr(left, out);
            encode_expr(right, out);
        }
    }
}

/// Deepest expression [`decode_expr`] accepts: a frame nesting deeper is a
/// `codec` error, never a decoder recursing until the stack overflows.
const MAX_EXPR_DEPTH: usize = 256;

/// Decode a physical expression.
pub fn decode_expr(d: &mut Decoder<'_>) -> Result<PhysExpr> {
    decode_expr_within(d, MAX_EXPR_DEPTH)
}

fn decode_expr_within(d: &mut Decoder<'_>, depth: usize) -> Result<PhysExpr> {
    let Some(depth) = depth.checked_sub(1) else {
        return Err(CsqError::Codec(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH}"
        )));
    };
    match d.take_u8()? {
        EXPR_LIT => Ok(PhysExpr::Literal(d.value()?)),
        EXPR_COL => Ok(PhysExpr::Column(d.take_u32()? as usize)),
        EXPR_UNARY => {
            let op = match d.take_u8()? {
                0 => UnaryOp::Not,
                1 => UnaryOp::Neg,
                other => return Err(CsqError::Codec(format!("bad unary op code {other}"))),
            };
            Ok(PhysExpr::Unary {
                op,
                expr: Box::new(decode_expr_within(d, depth)?),
            })
        }
        EXPR_BINARY => {
            let op = binary_op_from(d.take_u8()?)?;
            let left = Box::new(decode_expr_within(d, depth)?);
            let right = Box::new(decode_expr_within(d, depth)?);
            Ok(PhysExpr::Binary { left, op, right })
        }
        other => Err(CsqError::Codec(format!("bad expr tag {other}"))),
    }
}

pub(crate) fn take_str(d: &mut Decoder<'_>) -> Result<String> {
    let len = d.take_u32()? as usize;
    let bytes = d.take_bytes(len)?;
    std::str::from_utf8(bytes)
        .map(|s| s.to_string())
        .map_err(|e| CsqError::Codec(format!("invalid UTF-8: {e}")))
}

pub(crate) fn take_bool(d: &mut Decoder<'_>) -> Result<bool> {
    match d.take_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(CsqError::Codec(format!("bad bool byte {other}"))),
    }
}

fn encode_task(task: &ClientTask, out: &mut Vec<u8>) {
    out.push(match task.mode {
        TaskMode::SemiJoin => 0,
        TaskMode::ClientJoin => 1,
    });
    put_u32(out, task.input_width);
    put_u32(out, task.steps.len() as u32);
    for s in &task.steps {
        put_str(out, &s.udf);
        put_u32(out, s.arg_cols.len() as u32);
        for &c in &s.arg_cols {
            put_u32(out, c);
        }
    }
    match &task.predicate {
        Some(p) => {
            put_bool(out, true);
            encode_expr(p, out);
        }
        None => put_bool(out, false),
    }
    match &task.return_cols {
        Some(cols) => {
            put_bool(out, true);
            put_u32(out, cols.len() as u32);
            for &c in cols {
                put_u32(out, c);
            }
        }
        None => put_bool(out, false),
    }
    put_bool(out, task.dedup_cache);
}

fn decode_task(d: &mut Decoder<'_>) -> Result<ClientTask> {
    let mode = match d.take_u8()? {
        0 => TaskMode::SemiJoin,
        1 => TaskMode::ClientJoin,
        other => return Err(CsqError::Codec(format!("bad task mode {other}"))),
    };
    let input_width = d.take_u32()?;
    let n_steps = d.take_count(9)?; // name len + arg count at minimum
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let udf = take_str(d)?;
        let n_args = d.take_count(4)?;
        let mut arg_cols = Vec::with_capacity(n_args);
        for _ in 0..n_args {
            arg_cols.push(d.take_u32()?);
        }
        steps.push(UdfStep { udf, arg_cols });
    }
    let predicate = if take_bool(d)? {
        Some(decode_expr(d)?)
    } else {
        None
    };
    let return_cols = if take_bool(d)? {
        let n = d.take_count(4)?;
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            cols.push(d.take_u32()?);
        }
        Some(cols)
    } else {
        None
    };
    let dedup_cache = take_bool(d)?;
    Ok(ClientTask {
        mode,
        input_width,
        steps,
        predicate,
        return_cols,
        dedup_cache,
    })
}

impl Request {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Install(task) => {
                let mut out = vec![REQ_INSTALL];
                encode_task(task, &mut out);
                out
            }
            Request::Batch(rows) => Request::encode_batch(rows.iter().map(Row::values)),
            Request::Finish => vec![REQ_FINISH],
        }
    }

    /// Encode a `Request::Batch` message directly from borrowed rows' values
    /// — byte-identical to `Request::Batch(rows.to_vec()).encode()` without
    /// building the rows first. This is what the shipping senders use on
    /// their hot path.
    pub fn encode_batch<'r, I>(rows: I) -> Vec<u8>
    where
        I: ExactSizeIterator<Item = &'r [Value]> + Clone,
    {
        tagged_rows(REQ_BATCH, rows)
    }

    /// The head of a `Request::Batch` message of `rows` rows: what
    /// [`encode_batch`](Self::encode_batch) writes before the first row.
    /// The rows follow as [`csq_common::codec::encode_batch_rows`] writes
    /// them, rows and lanes alike.
    pub fn batch_head(rows: usize) -> Vec<u8> {
        let mut out = vec![REQ_BATCH];
        put_u32(&mut out, rows as u32);
        out
    }

    fn decode_with(d: &mut Decoder<'_>, spare: usize) -> Result<Request> {
        let req = match d.take_u8()? {
            REQ_INSTALL => Request::Install(decode_task(d)?),
            REQ_BATCH => Request::Batch(d.rows(spare)?),
            REQ_FINISH => Request::Finish,
            other => return Err(CsqError::Codec(format!("bad request tag {other}"))),
        };
        if !d.is_exhausted() {
            return Err(CsqError::Codec("trailing bytes after request".into()));
        }
        Ok(req)
    }

    /// Decode from wire bytes (copies string/blob payloads).
    pub fn decode(buf: &[u8]) -> Result<Request> {
        Request::decode_with(&mut Decoder::new(buf), 0)
    }

    /// Zero-copy decode: `Str`/`Blob` values in a `Batch` borrow their
    /// payloads from the shared message buffer, and each row has room for
    /// `spare` more values (the UDF results the client appends).
    pub fn decode_shared(buf: &std::sync::Arc<Vec<u8>>, spare: usize) -> Result<Request> {
        Request::decode_with(&mut Decoder::shared(buf), spare)
    }
}

impl Response {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Batch(rows) => tagged_rows(RESP_BATCH, rows.iter().map(Row::values)),
            Response::Error(msg) => {
                let mut out = vec![RESP_ERROR];
                put_str(&mut out, msg);
                out
            }
        }
    }

    fn decode_with(d: &mut Decoder<'_>) -> Result<Response> {
        let resp = match d.take_u8()? {
            RESP_BATCH => Response::Batch(d.rows(0)?),
            RESP_ERROR => Response::Error(take_str(d)?),
            other => return Err(CsqError::Codec(format!("bad response tag {other}"))),
        };
        if !d.is_exhausted() {
            return Err(CsqError::Codec("trailing bytes after response".into()));
        }
        Ok(resp)
    }

    /// Decode from wire bytes (copies string/blob payloads).
    pub fn decode(buf: &[u8]) -> Result<Response> {
        Response::decode_with(&mut Decoder::new(buf))
    }

    /// Zero-copy decode: `Str`/`Blob` values in a `Batch` borrow their
    /// payloads from the shared message buffer.
    pub fn decode_shared(buf: &std::sync::Arc<Vec<u8>>) -> Result<Response> {
        Response::decode_with(&mut Decoder::shared(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Value;

    fn demo_task() -> ClientTask {
        ClientTask {
            mode: TaskMode::ClientJoin,
            input_width: 3,
            steps: vec![
                UdfStep {
                    udf: "ClientAnalysis".into(),
                    arg_cols: vec![1],
                },
                UdfStep {
                    udf: "Volatility".into(),
                    arg_cols: vec![1, 2],
                },
            ],
            predicate: Some(PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(3)),
                op: BinaryOp::Gt,
                right: Box::new(PhysExpr::Literal(Value::Int(500))),
            }),
            return_cols: Some(vec![0, 3, 4]),
            dedup_cache: true,
        }
    }

    #[test]
    fn task_roundtrips() {
        let task = demo_task();
        let req = Request::Install(task.clone());
        let decoded = Request::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }

    #[test]
    fn batch_and_finish_roundtrip() {
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::from("a")]),
            Row::new(vec![Value::Int(2), Value::Null]),
        ];
        let req = Request::Batch(rows.clone());
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        assert_eq!(
            Request::decode(&Request::Finish.encode()).unwrap(),
            Request::Finish
        );
    }

    #[test]
    fn response_roundtrips() {
        let resp = Response::Batch(vec![Row::new(vec![Value::Bool(true)])]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let err = Response::Error("boom".into());
        assert_eq!(Response::decode(&err.encode()).unwrap(), err);
    }

    #[test]
    fn expr_roundtrips_nested() {
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(PhysExpr::Column(7)),
            }),
            op: BinaryOp::Or,
            right: Box::new(PhysExpr::Binary {
                left: Box::new(PhysExpr::Literal(Value::Float(1.5))),
                op: BinaryOp::LtEq,
                right: Box::new(PhysExpr::Column(0)),
            }),
        };
        let mut buf = Vec::new();
        encode_expr(&e, &mut buf);
        let mut d = Decoder::new(&buf);
        assert_eq!(decode_expr(&mut d).unwrap(), e);
        assert!(d.is_exhausted());
    }

    #[test]
    fn validate_catches_bad_ordinals() {
        let mut t = demo_task();
        t.validate().unwrap();
        t.steps[0].arg_cols = vec![9];
        assert_eq!(t.validate().unwrap_err().kind(), "plan");

        let mut t = demo_task();
        t.return_cols = Some(vec![99]);
        assert_eq!(t.validate().unwrap_err().kind(), "plan");
    }

    #[test]
    fn semijoin_rejects_pushed_predicate() {
        let mut t = demo_task();
        t.mode = TaskMode::SemiJoin;
        assert_eq!(t.validate().unwrap_err().kind(), "plan");
        t.predicate = None;
        t.validate().unwrap();
    }

    #[test]
    fn steps_widen_visible_columns() {
        // Step 1 result (col 3) usable as step 2 argument.
        let t = ClientTask {
            mode: TaskMode::SemiJoin,
            input_width: 3,
            steps: vec![
                UdfStep {
                    udf: "a".into(),
                    arg_cols: vec![0],
                },
                UdfStep {
                    udf: "b".into(),
                    arg_cols: vec![3],
                },
            ],
            predicate: None,
            return_cols: Some(vec![4]),
            dedup_cache: false,
        };
        t.validate().unwrap();
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(&[42]).is_err());
        assert!(Response::decode(&[]).is_err());
        let mut good = Request::Finish.encode();
        good.push(0);
        assert!(Request::decode(&good).is_err());
    }
}
