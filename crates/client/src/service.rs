//! The client-site service: task execution and the network event loop.
//!
//! [`TaskExecutor`] is the client half of both shipping strategies: it
//! extends each incoming row with UDF result columns, applies the pushable
//! predicate, and projects the returned columns. [`spawn_client`] runs it as
//! a thread over an [`Endpoint`] — in-memory, virtual-time or TCP — and
//! puts the simulated CPU time it spends on the endpoint's clock.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use csq_common::{CancelToken, CsqError, Result, Row, Value};
use csq_net::Endpoint;

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
    /// free). The client loop puts it on its endpoint's clock.
    cpu_us: u64,
}

/// What [`TaskExecutor::process`] needs of one [`crate::protocol::UdfStep`].
struct Step {
    /// The step's argument columns as row ordinals.
    arg_idx: Vec<usize>,
    /// Cost model of the UDF registered under the step's name.
    cost: UdfCost,
    /// Memo cache keyed by argument tuple (\[HN97]-style).
    cache: HashMap<Row, Value>,
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
                    arg_idx: s.arg_cols.iter().map(|&c| c as usize).collect(),
                    cost: runtime.get(&s.udf)?.cost(),
                    cache: HashMap::new(),
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

    /// Process one batch: extend, filter, project.
    ///
    /// Vectorized: each UDF step sweeps the whole batch — cached results
    /// are resolved first, then every remaining (deduplicated) argument
    /// tuple goes through one [`ClientRuntime::invoke_batch`] call, so
    /// per-invocation setup (registry lookup, VM stack) is paid per batch.
    /// On success, accounting (invocations, cache hits, CPU µs) matches
    /// the previous row-at-a-time loop exactly. On a failed batch the
    /// counters cover the whole attempted batch (the row-at-a-time loop
    /// stopped counting at the failing tuple); a failure poisons the
    /// session either way, so nothing downstream reads the difference.
    pub fn process(&mut self, rows: Vec<Row>) -> Result<Vec<Row>> {
        /// Where a row's step result comes from.
        enum Slot {
            /// Served from the memo cache.
            Ready(Value),
            /// The n-th entry of this step's invocation batch.
            Invoked(usize),
        }

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
        let dedup = self.task.dedup_cache;
        for (step, task_step) in self.steps.iter_mut().zip(&self.task.steps) {
            let mut slots: Vec<Slot> = Vec::with_capacity(extended.len());
            let mut to_invoke: Vec<Row> = Vec::new();
            // First-occurrence index of each argument tuple in `to_invoke`
            // (dedup mode only): an in-batch duplicate counts as a cache
            // hit, exactly as it would row-at-a-time once the first
            // occurrence had populated the cache.
            let mut pending: HashMap<Row, usize> = HashMap::new();
            for row in &extended {
                let args = row.project(&step.arg_idx);
                if dedup {
                    if let Some(v) = step.cache.get(&args) {
                        self.runtime.record_cache_hit();
                        slots.push(Slot::Ready(v.clone()));
                    } else if let Some(&n) = pending.get(&args) {
                        self.runtime.record_cache_hit();
                        slots.push(Slot::Invoked(n));
                    } else {
                        let n = to_invoke.len();
                        pending.insert(args.clone(), n);
                        to_invoke.push(args);
                        slots.push(Slot::Invoked(n));
                    }
                } else {
                    slots.push(Slot::Invoked(to_invoke.len()));
                    to_invoke.push(args);
                }
            }
            for args in &to_invoke {
                self.cpu_us += step.cost.invocation_us(args.wire_size());
            }
            let invoked = if to_invoke.is_empty() {
                Vec::new()
            } else {
                let arg_refs: Vec<&[Value]> = to_invoke.iter().map(|r| r.values()).collect();
                self.runtime.invoke_batch(&task_step.udf, &arg_refs)?
            };
            if dedup {
                for (args, v) in to_invoke.iter().zip(invoked.iter()) {
                    step.cache.insert(args.clone(), v.clone());
                }
            }
            for (row, slot) in extended.iter_mut().zip(slots) {
                let v = match slot {
                    Slot::Ready(v) => v,
                    Slot::Invoked(n) => invoked[n].clone(),
                };
                row.push_value(v);
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

/// Run the client event loop over `endpoint` in a new thread. Fails only
/// when the OS refuses to spawn the thread (resource exhaustion).
///
/// Protocol: the server first sends [`Request::Install`], then any number of
/// [`Request::Batch`] (each answered by exactly one [`Response::Batch`] or
/// [`Response::Error`]), then [`Request::Finish`] (or just closes). A batch
/// is answered once its UDFs have run: their CPU µs pass on the endpoint's
/// clock before the answer is sent.
pub fn spawn_client(
    runtime: Arc<ClientRuntime>,
    endpoint: Endpoint,
) -> Result<JoinHandle<Result<()>>> {
    spawn_client_with_token(runtime, endpoint, CancelToken::new())
}

/// Like [`spawn_client`], but the event loop polls `token` before every
/// batch: once the query is cancelled or over deadline, queued batches are
/// not processed — the loop exits as if the server had closed the
/// connection (the server side already has its own typed error; the
/// client's job is just to stop burning CPU promptly).
pub fn spawn_client_with_token(
    runtime: Arc<ClientRuntime>,
    endpoint: Endpoint,
    token: CancelToken,
) -> Result<JoinHandle<Result<()>>> {
    std::thread::Builder::new()
        .name("csq-client".into())
        .spawn(move || client_loop(runtime, endpoint, token))
        .map_err(|e| CsqError::Client(format!("failed to spawn client thread: {e}")))
}

fn client_loop(runtime: Arc<ClientRuntime>, endpoint: Endpoint, token: CancelToken) -> Result<()> {
    let mut executor: Option<TaskExecutor> = None;
    while let Some(buf) = endpoint.recv() {
        if token.should_stop() {
            return Ok(());
        }
        // Zero-copy: batch argument payloads stay views of the message.
        let buf = Arc::new(buf);
        match Request::decode_shared(&buf)? {
            Request::Install(task) => match TaskExecutor::new(runtime.clone(), task) {
                Ok(ex) => executor = Some(ex),
                Err(e) => {
                    // Installation failures poison the session.
                    let _ = endpoint.send(Response::Error(e.to_string()).encode());
                    return Err(e);
                }
            },
            Request::Batch(rows) => {
                let Some(ex) = executor.as_mut() else {
                    let msg = "batch received before task installation";
                    let _ = endpoint.send(Response::Error(msg.into()).encode());
                    return Err(CsqError::Client(msg.into()));
                };
                let before = ex.cpu_us();
                match ex.process(rows) {
                    Ok(out) => {
                        endpoint.advance(ex.cpu_us() - before);
                        if endpoint.send(Response::Batch(out).encode()).is_err() {
                            // Server went away; nothing more to do.
                            return Ok(());
                        }
                    }
                    Err(e) => {
                        let _ = endpoint.send(Response::Error(e.to_string()).encode());
                        return Err(e);
                    }
                }
            }
            Request::Finish => break,
        }
    }
    Ok(())
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
}
