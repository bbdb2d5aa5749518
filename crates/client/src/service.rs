//! The client-site service: task execution, one request at a time.
//!
//! [`TaskExecutor`] is the client half of both shipping strategies: it
//! extends each incoming row with UDF result columns, applies the pushable
//! predicate, and projects the returned columns. [`ClientSession`] is the
//! protocol around it as a step — request bytes in; reply bytes, UDF CPU µs
//! and a done flag out — called inline by the sender
//! ([`Endpoint::with_client`]), or from a thread over any endpoint by
//! [`spawn_client`].

use std::borrow::Cow;
use std::sync::Arc;
use std::thread::JoinHandle;

use csq_common::{CsqError, KeyIndex, Result, Row, Value};
use csq_net::{Answer, Endpoint};

use crate::protocol::{ClientTask, Request, Response};
use crate::runtime::{ClientRuntime, UdfCost};

/// Executes one installed [`ClientTask`] row batch by row batch.
pub struct TaskExecutor {
    runtime: Arc<ClientRuntime>,
    task: ClientTask,
    /// One per task step, resolved at installation.
    steps: Vec<Step>,
    /// The task's `return_cols` as row ordinals.
    return_idx: Option<Vec<usize>>,
    /// Total simulated CPU µs consumed by UDF invocations (cache hits are
    /// free). Each answer carries what its batch added.
    cpu_us: u64,
}

/// What [`TaskExecutor::process`] needs of one [`crate::protocol::UdfStep`].
struct Step {
    /// The step's argument columns (row ordinals); with the task's
    /// `dedup_cache`, the memo's keys (\[HN97]-style): every distinct
    /// argument tuple whose result is in `results`, numbered in
    /// first-occurrence order.
    cols: Vec<usize>,
    args: KeyIndex,
    /// The memo's results, by argument ordinal.
    results: Vec<Value>,
    /// Cost model of the UDF registered under the step's name.
    cost: UdfCost,
}

impl TaskExecutor {
    /// Validate the task and resolve every referenced UDF.
    pub fn new(runtime: Arc<ClientRuntime>, task: ClientTask) -> Result<TaskExecutor> {
        task.validate()?;
        let steps = task
            .steps
            .iter()
            .map(|s| {
                Ok(Step {
                    cols: s.arg_cols.iter().map(|&c| c as usize).collect(),
                    args: KeyIndex::new(s.arg_cols.len(), 0),
                    results: Vec::new(),
                    cost: runtime.get(&s.udf)?.cost(),
                })
            })
            .collect::<Result<_>>()?;
        let return_idx = task
            .return_cols
            .as_ref()
            .map(|cols| cols.iter().map(|&c| c as usize).collect());
        Ok(TaskExecutor {
            runtime,
            task,
            steps,
            return_idx,
            cpu_us: 0,
        })
    }

    /// Simulated client CPU time consumed so far, µs.
    pub fn cpu_us(&self) -> u64 {
        self.cpu_us
    }

    /// Process one batch: extend, filter, project. Each step pushes its
    /// result onto every row in place; a [`ClientSession`] decodes the rows
    /// with room for them, so no row is reallocated.
    ///
    /// Vectorized: each UDF step sweeps the whole batch — with the task's
    /// `dedup_cache`, each row's argument tuple is numbered in the step's
    /// memo (hashed once; a tuple seen before, in this batch or an earlier
    /// one, is a cache hit) — then every argument tuple left to evaluate
    /// goes through one [`ClientRuntime::invoke_batch`] call, so
    /// per-invocation setup (registry lookup, VM stack) is paid per batch.
    /// On success, accounting (invocations, cache hits, CPU µs) matches
    /// a row-at-a-time loop over a memo exactly. On a failed batch the
    /// counters cover the whole attempted batch, and the memo forgets the
    /// tuples the batch numbered: it holds only tuples whose results exist.
    pub fn process(&mut self, rows: Vec<Row>) -> Result<Vec<Row>> {
        let width = self.task.input_width as usize;
        for row in &rows {
            if row.len() != width {
                return Err(CsqError::Client(format!(
                    "batch row has width {}, task expects {}",
                    row.len(),
                    self.task.input_width
                )));
            }
        }
        let mut extended = rows;
        for (step, task_step) in self.steps.iter_mut().zip(&self.task.steps) {
            let invoke = |args: &[&[Value]], cpu_us: &mut u64| {
                for a in args {
                    *cpu_us += step
                        .cost
                        .invocation_us(a.iter().map(Value::wire_size).sum());
                }
                if args.is_empty() {
                    return Ok(Vec::new());
                }
                self.runtime.invoke_batch(&task_step.udf, args)
            };
            if !self.task.dedup_cache {
                let cols = &step.cols;
                let mut flat = Vec::with_capacity(extended.len() * cols.len());
                for r in &extended {
                    flat.extend(cols.iter().map(|&c| r.value(c).clone()));
                }
                let arg_refs: Vec<&[Value]> = (0..extended.len())
                    .map(|i| &flat[i * cols.len()..][..cols.len()])
                    .collect();
                let invoked = invoke(&arg_refs, &mut self.cpu_us)?;
                for (row, v) in extended.iter_mut().zip(invoked) {
                    row.push_value(v);
                }
                continue;
            }
            let known = step.results.len();
            let mut ordinals = Vec::with_capacity(extended.len());
            for row in &extended {
                let cell = |c| Cow::Borrowed(row.value(c));
                let (ordinal, new) = step.args.insert_by(&step.cols, cell);
                if !new {
                    self.runtime.record_cache_hit();
                }
                ordinals.push(ordinal);
            }
            let fresh: Vec<&[Value]> = step.args.keys(known).collect();
            match invoke(&fresh, &mut self.cpu_us) {
                Ok(invoked) => step.results.extend(invoked),
                Err(e) => {
                    step.args.truncate(known);
                    return Err(e);
                }
            }
            for (row, ordinal) in extended.iter_mut().zip(ordinals) {
                row.push_value(step.results[ordinal].clone());
            }
        }
        let mut out = Vec::with_capacity(extended.len());
        for row in extended {
            if let Some(pred) = &self.task.predicate {
                if !pred.eval_predicate(&row)? {
                    continue;
                }
            }
            let returned = match &self.return_idx {
                Some(idx) => row.project(idx),
                None => row,
            };
            out.push(returned);
        }
        Ok(out)
    }
}

/// The client's side of one shipping session, a request at a time: first
/// [`Request::Install`], then any number of [`Request::Batch`] (each
/// answered by one [`Response::Batch`], carrying its UDFs' CPU µs), then
/// [`Request::Finish`] (or the server just closes). A failure is answered
/// with [`Response::Error`] and ends the session.
pub struct ClientSession {
    runtime: Arc<ClientRuntime>,
    executor: Option<TaskExecutor>,
    /// What ended the session early, if anything did.
    failure: Option<CsqError>,
}

impl ClientSession {
    /// A session that has installed no task yet.
    pub fn new(runtime: Arc<ClientRuntime>) -> ClientSession {
        ClientSession {
            runtime,
            executor: None,
            failure: None,
        }
    }

    /// Answer one request: the reply (none to `Install` and `Finish`), the
    /// UDF CPU µs it cost, and whether the session is over.
    pub fn step(&mut self, request: Vec<u8>) -> Answer {
        self.answer(request).unwrap_or_else(|e| {
            let reply = Some(Response::Error(e.to_string()).encode());
            self.failure = Some(e);
            Answer {
                reply,
                done: true,
                ..Answer::default()
            }
        })
    }

    fn answer(&mut self, request: Vec<u8>) -> Result<Answer> {
        // Zero-copy: batch argument payloads stay views of the message, and
        // each row has room for the results its task's steps append.
        let spare = self.executor.as_ref().map_or(0, |ex| ex.steps.len());
        Ok(match Request::decode_shared(&Arc::new(request), spare)? {
            Request::Install(task) => {
                self.executor = Some(TaskExecutor::new(self.runtime.clone(), task)?);
                Answer::default()
            }
            Request::Batch(rows) => {
                let ex = self.executor.as_mut().ok_or_else(|| {
                    CsqError::Client("batch received before task installation".into())
                })?;
                let before = ex.cpu_us();
                let out = ex.process(rows)?;
                Answer {
                    reply: Some(Response::Batch(out).encode()),
                    work_us: ex.cpu_us() - before,
                    done: false,
                }
            }
            Request::Finish => Answer {
                done: true,
                ..Answer::default()
            },
        })
    }
}

/// Serve a [`ClientSession`] over `endpoint` in a new thread until the
/// session is over or the server closes. Fails only when the OS refuses to
/// spawn the thread (resource exhaustion).
pub fn spawn_client(
    runtime: Arc<ClientRuntime>,
    endpoint: Endpoint,
) -> Result<JoinHandle<Result<()>>> {
    let run = move || {
        let mut session = ClientSession::new(runtime);
        let mut serve = |request| endpoint.answer(session.step(request));
        while endpoint.recv().is_some_and(&mut serve) {}
        session.failure.map_or(Ok(()), Err)
    };
    std::thread::Builder::new()
        .name("csq-client".into())
        .spawn(run)
        .map_err(|e| CsqError::Client(format!("failed to spawn client thread: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{TaskMode, UdfStep};
    use crate::synthetic::{ObjectUdf, PredicateUdf};
    use csq_common::Blob;
    use csq_expr::{BinaryOp, PhysExpr};
    use csq_net::in_memory_duplex;

    fn runtime() -> Arc<ClientRuntime> {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 32)))
            .unwrap();
        rt.register(Arc::new(PredicateUdf::new("Keep", 0.5)))
            .unwrap();
        Arc::new(rt)
    }

    fn record(i: u64) -> Row {
        Row::new(vec![
            Value::Int(i as i64),
            Value::Blob(Blob::synthetic(50, i)),
        ])
    }

    fn sj_task() -> ClientTask {
        // Input: just the argument column.
        ClientTask {
            mode: TaskMode::SemiJoin,
            input_width: 1,
            steps: vec![UdfStep {
                udf: "Analyze".into(),
                arg_cols: vec![0],
            }],
            predicate: None,
            return_cols: Some(vec![1]),
            dedup_cache: false,
        }
    }

    fn csj_task() -> ClientTask {
        // Input: full record (id, blob); run Keep(blob) and filter on it,
        // return (id, keep-result).
        ClientTask {
            mode: TaskMode::ClientJoin,
            input_width: 2,
            steps: vec![UdfStep {
                udf: "Keep".into(),
                arg_cols: vec![1],
            }],
            predicate: Some(PhysExpr::Binary {
                left: Box::new(PhysExpr::Column(2)),
                op: BinaryOp::Eq,
                right: Box::new(PhysExpr::Literal(Value::Bool(true))),
            }),
            return_cols: Some(vec![0, 2]),
            dedup_cache: false,
        }
    }

    #[test]
    fn semijoin_task_returns_results_one_to_one() {
        let rt = runtime();
        let mut ex = TaskExecutor::new(rt, sj_task()).unwrap();
        let args: Vec<Row> = (0..5)
            .map(|i| Row::new(vec![Value::Blob(Blob::synthetic(50, i))]))
            .collect();
        let out = ex.process(args).unwrap();
        assert_eq!(out.len(), 5);
        for r in &out {
            assert_eq!(r.len(), 1);
            assert_eq!(r.value(0).as_blob().unwrap().len(), 32);
        }
    }

    #[test]
    fn csj_task_filters_and_projects() {
        let rt = runtime();
        let mut ex = TaskExecutor::new(rt, csj_task()).unwrap();
        let rows: Vec<Row> = (0..200).map(record).collect();
        let out = ex.process(rows).unwrap();
        assert!(!out.is_empty() && out.len() < 200, "got {}", out.len());
        for r in &out {
            assert_eq!(r.len(), 2);
            assert_eq!(r.value(1), &Value::Bool(true));
        }
    }

    #[test]
    fn dedup_cache_avoids_invocations() {
        let rt = runtime();
        let mut task = sj_task();
        task.dedup_cache = true;
        let mut ex = TaskExecutor::new(rt.clone(), task).unwrap();
        let dup = Row::new(vec![Value::Blob(Blob::synthetic(50, 1))]);
        let out = ex
            .process(vec![dup.clone(), dup.clone(), dup.clone()])
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(rt.invocations(), 1);
        assert_eq!(rt.cache_hits(), 2);
        // Identical results for duplicates.
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn executor_rejects_unknown_udf_and_bad_width() {
        let rt = runtime();
        let mut t = sj_task();
        t.steps[0].udf = "Missing".into();
        let err = match TaskExecutor::new(rt.clone(), t) {
            Err(e) => e,
            Ok(_) => panic!("expected unknown-UDF error"),
        };
        assert_eq!(err.kind(), "client");
        let mut ex = TaskExecutor::new(rt, sj_task()).unwrap();
        let bad = Row::new(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(ex.process(vec![bad]).unwrap_err().kind(), "client");
    }

    #[test]
    fn cpu_accounting_uses_cost_model() {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(ObjectUdf::sized("f", 8).with_cost(
            crate::runtime::UdfCost {
                fixed_us: 100.0,
                per_byte_us: 0.0,
            },
        )))
        .unwrap();
        let mut ex = TaskExecutor::new(
            Arc::new(rt),
            ClientTask {
                mode: TaskMode::SemiJoin,
                input_width: 1,
                steps: vec![UdfStep {
                    udf: "f".into(),
                    arg_cols: vec![0],
                }],
                predicate: None,
                return_cols: Some(vec![1]),
                dedup_cache: false,
            },
        )
        .unwrap();
        let rows: Vec<Row> = (0..3)
            .map(|i| Row::new(vec![Value::Blob(Blob::synthetic(10, i))]))
            .collect();
        ex.process(rows).unwrap();
        assert_eq!(ex.cpu_us(), 300);
    }

    #[test]
    fn client_loop_end_to_end() {
        let (server, client, stats) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();

        server.send(Request::Install(csj_task()).encode()).unwrap();
        let rows: Vec<Row> = (0..50).map(record).collect();
        server.send(Request::Batch(rows).encode()).unwrap();
        let resp = Response::decode(&server.recv().unwrap()).unwrap();
        let Response::Batch(out) = resp else {
            panic!("expected batch")
        };
        assert!(!out.is_empty());
        server.send(Request::Finish.encode()).unwrap();
        drop(server);
        handle.join().unwrap().unwrap();
        assert!(stats.down_bytes() > 0);
        assert!(stats.up_bytes() > 0);
    }

    #[test]
    fn a_session_answers_each_request_as_a_step() {
        let rt = ClientRuntime::new();
        let cost = crate::runtime::UdfCost {
            fixed_us: 7.0,
            per_byte_us: 0.0,
        };
        rt.register(Arc::new(ObjectUdf::sized("Analyze", 8).with_cost(cost)))
            .unwrap();
        let mut session = ClientSession::new(Arc::new(rt));
        let installed = session.step(Request::Install(sj_task()).encode());
        assert!(installed.reply.is_none() && installed.work_us == 0 && !installed.done);
        let args: Vec<Row> = (0..3)
            .map(|i| Row::new(vec![Value::Blob(Blob::synthetic(20, i))]))
            .collect();
        let answered = session.step(Request::Batch(args).encode());
        let Ok(Response::Batch(out)) = Response::decode(&answered.reply.unwrap()) else {
            panic!("expected a batch");
        };
        assert_eq!((out.len(), answered.work_us, answered.done), (3, 21, false));
        let finished = session.step(Request::Finish.encode());
        assert!(finished.reply.is_none() && finished.done);
        assert!(session.failure.is_none());
        // A failure is answered, ends the session and is kept.
        let mut fresh = ClientSession::new(runtime());
        let failed = fresh.step(Request::Batch(Vec::new()).encode());
        let reply = Response::decode(&failed.reply.unwrap()).unwrap();
        assert!(matches!(reply, Response::Error(_)) && failed.done);
        assert_eq!(fresh.failure.unwrap().kind(), "client");
    }

    #[test]
    fn client_loop_reports_batch_before_install() {
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(runtime(), client).unwrap();
        server.send(Request::Batch(vec![]).encode()).unwrap();
        let resp = Response::decode(&server.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error(_)));
        drop(server);
        assert!(handle.join().unwrap().is_err());
    }

    #[test]
    fn client_loop_reports_udf_failure() {
        let rt = ClientRuntime::new();
        // Register a UDF that always fails by type-erroring on its input.
        rt.register(Arc::new(ObjectUdf::sized("f", 8))).unwrap();
        let (server, client, _) = in_memory_duplex();
        let handle = spawn_client(Arc::new(rt), client).unwrap();
        server
            .send(
                Request::Install(ClientTask {
                    mode: TaskMode::SemiJoin,
                    input_width: 1,
                    steps: vec![UdfStep {
                        udf: "f".into(),
                        arg_cols: vec![0],
                    }],
                    predicate: None,
                    return_cols: Some(vec![1]),
                    dedup_cache: false,
                })
                .encode(),
            )
            .unwrap();
        // Int where a Blob is expected → signature failure at invoke time.
        server
            .send(Request::Batch(vec![Row::new(vec![Value::Int(1)])]).encode())
            .unwrap();
        let resp = Response::decode(&server.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error(_)));
        drop(server);
        assert!(handle.join().unwrap().is_err());
    }

    /// `Unlucky(INT) -> INT`: ten times its argument, and an error on 13.
    struct Unlucky(crate::runtime::UdfSignature);

    impl crate::runtime::ScalarUdf for Unlucky {
        fn signature(&self) -> &crate::runtime::UdfSignature {
            &self.0
        }

        fn invoke(&self, args: &[Value]) -> Result<Value> {
            match args[0] {
                Value::Int(13) => Err(CsqError::Client("13 is unlucky".into())),
                Value::Int(i) => Ok(Value::Int(i * 10)),
                _ => Ok(Value::Null),
            }
        }
    }

    #[test]
    fn the_memo_holds_only_arguments_whose_results_exist() {
        // Batch 1 fails on 13 after numbering 1 and 2; batch 2 repeats them.
        // They have no results, so they are invoked again, not served from a
        // half-filled memo, and the answers are a fresh executor's.
        use csq_common::DataType;
        let rt = ClientRuntime::new();
        let sig = crate::runtime::UdfSignature::new("Unlucky", vec![DataType::Int], DataType::Int);
        rt.register(Arc::new(Unlucky(sig))).unwrap();
        let rt = Arc::new(rt);
        let mut task = sj_task();
        task.steps[0].udf = "Unlucky".into();
        task.dedup_cache = true;
        let ints =
            |v: &[i64]| -> Vec<Row> { v.iter().map(|&i| Row::new(vec![Value::Int(i)])).collect() };
        let mut ex = TaskExecutor::new(rt.clone(), task.clone()).unwrap();
        assert_eq!(
            ex.process(ints(&[1, 2, 13, 2])).unwrap_err().kind(),
            "client"
        );
        let (invocations, hits) = (rt.invocations(), rt.cache_hits());
        let out = ex.process(ints(&[2, 1, 2, 3])).unwrap();
        assert_eq!(rt.invocations() - invocations, 3, "1, 2 and 3 are invoked");
        assert_eq!(rt.cache_hits() - hits, 1, "the second 2 is a hit");
        let fresh = TaskExecutor::new(rt, task)
            .unwrap()
            .process(ints(&[2, 1, 2, 3]))
            .unwrap();
        assert_eq!(out, fresh);
        assert_eq!(out, ints(&[20, 10, 20, 30]));
    }
}
