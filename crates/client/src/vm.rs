//! A sandboxed stack-machine VM for untrusted client extensions.
//!
//! Plays the role of the paper's safe Java execution environment
//! (\[GMHE98]) with the resource controls of \[CSM98]: every instruction
//! consumes *fuel*, blob operations consume fuel proportional to the bytes
//! touched, the value stack is bounded, and blob allocations are bounded.
//! A program exceeding any limit is terminated with a [`CsqError::Limit`]
//! error — the host (and the rest of the query) survives.
//!
//! Programs can be written directly as [`Instr`] vectors or assembled from
//! a small textual form (see [`assemble`]):
//!
//! ```text
//! load_arg 0      -- push argument 0 (a blob)
//! blob_len        -- its payload length
//! push_int 500
//! gt
//! ret
//! ```

use std::collections::HashMap;

use csq_common::{Blob, CancelToken, CsqError, DataType, Result, Value};

use crate::runtime::{ScalarUdf, UdfCost, UdfSignature};

/// Instructions executed between cancellation checkpoints. A power of two
/// so the checkpoint test compiles to a mask; small enough that even a
/// fuel-raised program observes a kill within microseconds, large enough
/// that the atomic load never shows up in profiles.
const CANCEL_CHECK_INTERVAL: u64 = 4096;

/// VM instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a float constant.
    PushFloat(f64),
    /// Push a boolean constant.
    PushBool(bool),
    /// Push NULL.
    PushNull,
    /// Push argument `n`.
    LoadArg(u8),
    /// Pop two numbers, push their sum.
    Add,
    /// Pop two numbers, push their difference.
    Sub,
    /// Pop two numbers, push their product.
    Mul,
    /// Pop two numbers, push their quotient (division by zero errors).
    Div,
    /// Pop two values, push whether they compare equal.
    Eq,
    /// Pop two values, push whether they compare unequal.
    Ne,
    /// Pop two values, push left < right.
    Lt,
    /// Pop two values, push left <= right.
    Le,
    /// Pop two values, push left > right.
    Gt,
    /// Pop two values, push left >= right.
    Ge,
    /// Pop two booleans, push their conjunction (NULL-propagating).
    And,
    /// Pop two booleans, push their disjunction (NULL-propagating).
    Or,
    /// Pop a boolean, push its negation.
    Not,
    /// Pop a number, push its arithmetic negation.
    Neg,
    /// Duplicate the top of stack.
    Dup,
    /// Discard the top of stack.
    Pop,
    /// Swap the two topmost values.
    Swap,
    /// Pop a blob, push its payload length as Int.
    BlobLen,
    /// Pop index then blob, push the byte at that index as Int.
    BlobByte,
    /// Pop a blob, push a 64-bit content hash as Int (costs fuel per byte).
    BlobHash,
    /// Pop seed then size (both Int), push a synthetic blob of that size
    /// (costs fuel per byte and counts against the memory limit).
    BlobFill,
    /// Relative jump (offset from the *next* instruction).
    Jump(i32),
    /// Pop a bool; jump if false (NULL counts as false).
    JumpIfFalse(i32),
    /// Return the top of stack as the UDF result.
    Return,
}

/// Resource limits for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmLimits {
    /// Maximum fuel (≈ instructions; blob ops cost extra per 16 bytes).
    pub fuel: u64,
    /// Maximum value-stack depth.
    pub stack: usize,
    /// Maximum total bytes of blobs the program may allocate.
    pub alloc_bytes: usize,
}

impl Default for VmLimits {
    fn default() -> Self {
        VmLimits {
            fuel: 1_000_000,
            stack: 1024,
            alloc_bytes: 64 << 20,
        }
    }
}

/// A validated program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Validate jump targets and construct.
    pub fn new(instrs: Vec<Instr>) -> Result<Program> {
        let n = instrs.len() as i64;
        for (i, ins) in instrs.iter().enumerate() {
            if let Instr::Jump(off) | Instr::JumpIfFalse(off) = ins {
                let target = i as i64 + 1 + *off as i64;
                if target < 0 || target > n {
                    return Err(CsqError::Client(format!(
                        "instruction {i}: jump target {target} out of range 0..={n}"
                    )));
                }
            }
        }
        Ok(Program { instrs })
    }

    /// The instructions.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }
}

/// Execute `program` on `args` under `limits`.
pub fn execute(program: &Program, args: &[Value], limits: VmLimits) -> Result<Value> {
    let mut stack: Vec<Value> = Vec::with_capacity(16);
    execute_with_stack(program, args, limits, &mut stack)
}

/// Like [`execute`], but reuses a caller-provided value stack so batch
/// invocations ([`VmUdf::invoke_batch`]) pay the stack allocation once per
/// batch instead of once per row. The stack is cleared on entry.
pub fn execute_with_stack(
    program: &Program,
    args: &[Value],
    limits: VmLimits,
    stack: &mut Vec<Value>,
) -> Result<Value> {
    execute_inner(program, args, limits, None, stack)
}

/// Like [`execute_with_stack`], but additionally polls `token` every
/// `CANCEL_CHECK_INTERVAL` (4096) instructions: a tripped token terminates the
/// program mid-flight with a typed `Cancelled`/`Timeout` error. This is
/// the fuel-checkpoint granularity of DESIGN.md §10 — fuel bounds how much
/// a program can *ever* run, the token bounds how long it keeps running
/// once nobody wants the answer.
pub fn execute_cancellable(
    program: &Program,
    args: &[Value],
    limits: VmLimits,
    token: &CancelToken,
    stack: &mut Vec<Value>,
) -> Result<Value> {
    execute_inner(program, args, limits, Some(token), stack)
}

fn execute_inner(
    program: &Program,
    args: &[Value],
    limits: VmLimits,
    token: Option<&CancelToken>,
    stack: &mut Vec<Value>,
) -> Result<Value> {
    stack.clear();
    let mut fuel = limits.fuel;
    let mut steps: u64 = 0;
    let mut allocated = 0usize;
    let mut pc: usize = 0;
    let instrs = &program.instrs;

    macro_rules! burn {
        ($amount:expr) => {{
            let amount: u64 = $amount;
            if fuel < amount {
                return Err(CsqError::Limit(format!(
                    "fuel exhausted at instruction {pc}"
                )));
            }
            fuel -= amount;
        }};
    }

    macro_rules! pop {
        () => {
            stack
                .pop()
                .ok_or_else(|| CsqError::Client(format!("stack underflow at instruction {pc}")))?
        };
    }

    macro_rules! push {
        ($v:expr) => {{
            if stack.len() >= limits.stack {
                return Err(CsqError::Limit(format!(
                    "stack limit {} exceeded at instruction {pc}",
                    limits.stack
                )));
            }
            stack.push($v);
        }};
    }

    while pc < instrs.len() {
        burn!(1);
        steps += 1;
        if steps.is_multiple_of(CANCEL_CHECK_INTERVAL) {
            if let Some(t) = token {
                t.check()?;
            }
        }
        match &instrs[pc] {
            Instr::PushInt(i) => push!(Value::Int(*i)),
            Instr::PushFloat(f) => push!(Value::Float(*f)),
            Instr::PushBool(b) => push!(Value::Bool(*b)),
            Instr::PushNull => push!(Value::Null),
            Instr::LoadArg(n) => {
                let v = args
                    .get(*n as usize)
                    .ok_or_else(|| CsqError::Client(format!("argument {n} out of range")))?;
                push!(v.clone());
            }
            Instr::Add | Instr::Sub | Instr::Mul | Instr::Div => {
                let r = pop!();
                let l = pop!();
                let op = match &instrs[pc] {
                    Instr::Add => csq_expr::BinaryOp::Add,
                    Instr::Sub => csq_expr::BinaryOp::Sub,
                    Instr::Mul => csq_expr::BinaryOp::Mul,
                    _ => csq_expr::BinaryOp::Div,
                };
                push!(csq_expr::physical::eval_binary(op, &l, &r)?);
            }
            Instr::Eq | Instr::Ne | Instr::Lt | Instr::Le | Instr::Gt | Instr::Ge => {
                let r = pop!();
                let l = pop!();
                let op = match &instrs[pc] {
                    Instr::Eq => csq_expr::BinaryOp::Eq,
                    Instr::Ne => csq_expr::BinaryOp::NotEq,
                    Instr::Lt => csq_expr::BinaryOp::Lt,
                    Instr::Le => csq_expr::BinaryOp::LtEq,
                    Instr::Gt => csq_expr::BinaryOp::Gt,
                    _ => csq_expr::BinaryOp::GtEq,
                };
                push!(csq_expr::physical::eval_binary(op, &l, &r)?);
            }
            Instr::And | Instr::Or => {
                let r = pop!().as_bool()?;
                let l = pop!().as_bool()?;
                let out = match (&instrs[pc], l, r) {
                    (Instr::And, Some(false), _) | (Instr::And, _, Some(false)) => Some(false),
                    (Instr::And, Some(true), Some(true)) => Some(true),
                    (Instr::Or, Some(true), _) | (Instr::Or, _, Some(true)) => Some(true),
                    (Instr::Or, Some(false), Some(false)) => Some(false),
                    _ => None,
                };
                push!(out.map(Value::Bool).unwrap_or(Value::Null));
            }
            Instr::Not => {
                let v = pop!().as_bool()?;
                push!(v.map(|b| Value::Bool(!b)).unwrap_or(Value::Null));
            }
            Instr::Neg => {
                let v = pop!();
                match v {
                    Value::Int(i) => push!(Value::Int(-i)),
                    Value::Float(f) => push!(Value::Float(-f)),
                    Value::Null => push!(Value::Null),
                    other => {
                        return Err(CsqError::Client(format!(
                            "cannot negate {:?}",
                            other.data_type()
                        )))
                    }
                }
            }
            Instr::Dup => {
                let v = pop!();
                push!(v.clone());
                push!(v);
            }
            Instr::Pop => {
                let _ = pop!();
            }
            Instr::Swap => {
                let a = pop!();
                let b = pop!();
                push!(a);
                push!(b);
            }
            Instr::BlobLen => {
                let b = pop!();
                let b = b.as_blob()?;
                push!(Value::Int(b.len() as i64));
            }
            Instr::BlobByte => {
                let idx = pop!().as_i64()?;
                let b = pop!();
                let b = b.as_blob()?;
                let byte =
                    b.as_bytes().get(idx as usize).copied().ok_or_else(|| {
                        CsqError::Client(format!("blob index {idx} out of range"))
                    })?;
                push!(Value::Int(byte as i64));
            }
            Instr::BlobHash => {
                let b = pop!();
                let b = b.as_blob()?;
                burn!((b.len() as u64) / 16);
                push!(Value::Int(crate::fnv1a(b.as_bytes()) as i64));
            }
            Instr::BlobFill => {
                let seed = pop!().as_i64()?;
                let size = pop!().as_i64()?;
                if size < 0 {
                    return Err(CsqError::Client("negative blob size".into()));
                }
                let size = size as usize;
                burn!((size as u64) / 16);
                allocated = allocated.saturating_add(size);
                if allocated > limits.alloc_bytes {
                    return Err(CsqError::Limit(format!(
                        "allocation limit {} bytes exceeded",
                        limits.alloc_bytes
                    )));
                }
                push!(Value::Blob(Blob::synthetic(size, seed as u64)));
            }
            Instr::Jump(off) => {
                pc = (pc as i64 + 1 + *off as i64) as usize;
                continue;
            }
            Instr::JumpIfFalse(off) => {
                let cond = pop!().as_bool()?.unwrap_or(false);
                if !cond {
                    pc = (pc as i64 + 1 + *off as i64) as usize;
                    continue;
                }
            }
            Instr::Return => {
                return Ok(pop!());
            }
        }
        pc += 1;
    }
    Err(CsqError::Client(
        "program fell off the end without Return".into(),
    ))
}

/// Assemble the textual form: one instruction per line, `--` comments,
/// `name:` labels, `jump <label>` / `jif <label>` branches.
pub fn assemble(src: &str) -> Result<Program> {
    // Pass 1: collect labels and raw instruction lines.
    let mut labels: HashMap<String, usize> = HashMap::new();
    let mut lines: Vec<(usize, String)> = Vec::new();
    for (lineno, raw) in src.lines().enumerate() {
        let line = raw.split("--").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(label) = line.strip_suffix(':') {
            if labels
                .insert(label.trim().to_ascii_lowercase(), lines.len())
                .is_some()
            {
                return Err(CsqError::Client(format!(
                    "line {}: duplicate label '{label}'",
                    lineno + 1
                )));
            }
        } else {
            lines.push((lineno + 1, line.to_string()));
        }
    }
    // Pass 2: translate.
    let mut instrs = Vec::with_capacity(lines.len());
    for (idx, (lineno, line)) in lines.iter().enumerate() {
        let mut parts = line.split_whitespace();
        // Pass 1 dropped blank lines, so an instruction is never empty; the
        // error arm keeps that invariant local instead of panicking on it.
        let op = parts
            .next()
            .ok_or_else(|| CsqError::Client(format!("line {lineno}: empty instruction")))?
            .to_ascii_lowercase();
        let arg = parts.next();
        let err = |msg: &str| CsqError::Client(format!("line {lineno}: {msg}"));
        fn need(a: Option<&str>, lineno: usize) -> Result<&str> {
            a.ok_or_else(|| CsqError::Client(format!("line {lineno}: missing operand")))
        }
        let resolve = |a: Option<&str>| -> Result<i32> {
            let label = need(a, *lineno)?.to_ascii_lowercase();
            let target = labels
                .get(&label)
                .ok_or_else(|| err(&format!("unknown label '{label}'")))?;
            Ok(*target as i32 - (idx as i32 + 1))
        };
        let ins = match op.as_str() {
            "push_int" => Instr::PushInt(
                need(arg, *lineno)?
                    .parse()
                    .map_err(|_| err("bad integer operand"))?,
            ),
            "push_float" => Instr::PushFloat(
                need(arg, *lineno)?
                    .parse()
                    .map_err(|_| err("bad float operand"))?,
            ),
            "push_true" => Instr::PushBool(true),
            "push_false" => Instr::PushBool(false),
            "push_null" => Instr::PushNull,
            "load_arg" => Instr::LoadArg(
                need(arg, *lineno)?
                    .parse()
                    .map_err(|_| err("bad argument index"))?,
            ),
            "add" => Instr::Add,
            "sub" => Instr::Sub,
            "mul" => Instr::Mul,
            "div" => Instr::Div,
            "eq" => Instr::Eq,
            "ne" => Instr::Ne,
            "lt" => Instr::Lt,
            "le" => Instr::Le,
            "gt" => Instr::Gt,
            "ge" => Instr::Ge,
            "and" => Instr::And,
            "or" => Instr::Or,
            "not" => Instr::Not,
            "neg" => Instr::Neg,
            "dup" => Instr::Dup,
            "pop" => Instr::Pop,
            "swap" => Instr::Swap,
            "blob_len" => Instr::BlobLen,
            "blob_byte" => Instr::BlobByte,
            "blob_hash" => Instr::BlobHash,
            "blob_fill" => Instr::BlobFill,
            "jump" => Instr::Jump(resolve(arg)?),
            "jif" => Instr::JumpIfFalse(resolve(arg)?),
            "ret" => Instr::Return,
            other => return Err(err(&format!("unknown instruction '{other}'"))),
        };
        instrs.push(ins);
    }
    Program::new(instrs)
}

/// A UDF whose body is a sandboxed VM program.
pub struct VmUdf {
    sig: UdfSignature,
    program: Program,
    limits: VmLimits,
    cost: UdfCost,
    token: Option<CancelToken>,
}

impl VmUdf {
    /// Wrap a program as a UDF.
    pub fn new(
        name: &str,
        arg_types: Vec<DataType>,
        return_type: DataType,
        program: Program,
    ) -> VmUdf {
        VmUdf {
            sig: UdfSignature::new(name, arg_types, return_type),
            program,
            limits: VmLimits::default(),
            cost: UdfCost::default(),
            token: None,
        }
    }

    /// Override the resource limits (builder style).
    pub fn with_limits(mut self, limits: VmLimits) -> VmUdf {
        self.limits = limits;
        self
    }

    /// Attach a CPU cost model (builder style).
    pub fn with_cost(mut self, cost: UdfCost) -> VmUdf {
        self.cost = cost;
        self
    }

    /// Bind a cancellation token (builder style): every invocation then
    /// runs through [`execute_cancellable`] and dies mid-program when the
    /// token trips, instead of running its full fuel budget down.
    pub fn with_token(mut self, token: CancelToken) -> VmUdf {
        self.token = Some(token);
        self
    }

    fn check_return(&self, out: &Value) -> Result<()> {
        if let Some(dt) = out.data_type() {
            if !self.sig.return_type.accepts(dt) {
                return Err(CsqError::Client(format!(
                    "VM UDF '{}' returned {dt}, declared {}",
                    self.sig.name, self.sig.return_type
                )));
            }
        }
        Ok(())
    }
}

impl ScalarUdf for VmUdf {
    fn signature(&self) -> &UdfSignature {
        &self.sig
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let out = execute_inner(
            &self.program,
            args,
            self.limits,
            self.token.as_ref(),
            &mut stack,
        )?;
        self.check_return(&out)?;
        Ok(out)
    }

    fn invoke_batch(&self, batch: &[&[Value]]) -> Result<Vec<Value>> {
        // One value stack for the whole batch: per-row execution only
        // clears it, so the allocation is amortized across ~a thousand
        // invocations.
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut out = Vec::with_capacity(batch.len());
        for args in batch {
            let v = execute_inner(
                &self.program,
                args,
                self.limits,
                self.token.as_ref(),
                &mut stack,
            )?;
            self.check_return(&v)?;
            out.push(v);
        }
        Ok(out)
    }

    fn cost(&self) -> UdfCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, args: &[Value]) -> Result<Value> {
        execute(&assemble(src).unwrap(), args, VmLimits::default())
    }

    #[test]
    fn arithmetic_program() {
        let v = run("push_int 2\npush_int 3\nmul\npush_int 4\nadd\nret", &[]).unwrap();
        assert_eq!(v, Value::Int(10));
    }

    #[test]
    fn blob_threshold_predicate() {
        // The Figure 1 idea: ClientAnalysis(blob) > 500, as "blob length > 500".
        let src = "load_arg 0\nblob_len\npush_int 500\ngt\nret";
        let small = Value::Blob(Blob::synthetic(100, 1));
        let big = Value::Blob(Blob::synthetic(600, 1));
        assert_eq!(run(src, &[small]).unwrap(), Value::Bool(false));
        assert_eq!(run(src, &[big]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn loop_with_labels() {
        // Count down from arg0 to 0: while (top-1) > 0 loop.
        let src = r"
            load_arg 0
        loop:
            push_int 1
            sub
            dup
            push_int 0
            gt
            jif done        -- exit when counter <= 0
            jump loop
        done:
            ret
        ";
        assert_eq!(run(src, &[Value::Int(5)]).unwrap(), Value::Int(0));
        assert_eq!(run(src, &[Value::Int(1)]).unwrap(), Value::Int(0));
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let src = "start:\njump start";
        let p = assemble(src).unwrap();
        let err = execute(
            &p,
            &[],
            VmLimits {
                fuel: 10_000,
                ..VmLimits::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), "limit");
    }

    #[test]
    fn tripped_token_kills_a_fuel_raised_loop() {
        // With fuel effectively unbounded, only the cancellation checkpoint
        // can stop this loop — and it must report the typed error.
        let src = "start:\njump start";
        let p = assemble(src).unwrap();
        let limits = VmLimits {
            fuel: u64::MAX,
            ..VmLimits::default()
        };
        let mut stack = Vec::new();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = execute_cancellable(&p, &[], limits, &cancelled, &mut stack).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        let expired = CancelToken::with_timeout(std::time::Duration::ZERO);
        let err = execute_cancellable(&p, &[], limits, &expired, &mut stack).unwrap_err();
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn live_token_does_not_perturb_results() {
        let token = CancelToken::new();
        let p = assemble("push_int 2\npush_int 3\nmul\nret").unwrap();
        let mut stack = Vec::new();
        assert_eq!(
            execute_cancellable(&p, &[], VmLimits::default(), &token, &mut stack).unwrap(),
            Value::Int(6)
        );
    }

    #[test]
    fn vm_udf_with_token_dies_mid_program() {
        let src = "start:\njump start";
        let p = assemble(src).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let udf = VmUdf::new("spin", vec![], DataType::Int, p)
            .with_limits(VmLimits {
                fuel: u64::MAX,
                ..VmLimits::default()
            })
            .with_token(token);
        assert_eq!(udf.invoke(&[]).unwrap_err().kind(), "cancelled");
    }

    #[test]
    fn stack_limit_enforced() {
        let src = "start:\npush_int 1\njump start";
        let p = assemble(src).unwrap();
        let err = execute(
            &p,
            &[],
            VmLimits {
                fuel: u64::MAX,
                stack: 64,
                alloc_bytes: 1024,
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), "limit");
    }

    #[test]
    fn alloc_limit_enforced() {
        let src = "push_int 1000000\npush_int 1\nblob_fill\nret";
        let p = assemble(src).unwrap();
        let err = execute(
            &p,
            &[],
            VmLimits {
                fuel: u64::MAX,
                stack: 64,
                alloc_bytes: 1000,
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), "limit");
    }

    #[test]
    fn blob_fill_and_hash() {
        let src = "push_int 100\npush_int 7\nblob_fill\nblob_hash\nret";
        let v = run(src, &[]).unwrap();
        assert!(matches!(v, Value::Int(_)));
        // Deterministic.
        assert_eq!(run(src, &[]).unwrap(), v);
    }

    #[test]
    fn stack_underflow_is_client_error() {
        assert_eq!(run("add\nret", &[]).unwrap_err().kind(), "client");
    }

    #[test]
    fn falling_off_end_errors() {
        assert_eq!(run("push_int 1", &[]).unwrap_err().kind(), "client");
    }

    #[test]
    fn invalid_jump_rejected_at_load() {
        let p = Program::new(vec![Instr::Jump(100)]);
        assert!(p.is_err());
    }

    #[test]
    fn unknown_label_and_instruction_errors() {
        assert!(assemble("jump nowhere").is_err());
        assert!(assemble("frobnicate").is_err());
        assert!(assemble("x:\nx:\nret").is_err());
    }

    #[test]
    fn vm_udf_checks_return_type() {
        let p = assemble("push_int 1\nret").unwrap();
        let udf = VmUdf::new("f", vec![], DataType::Bool, p);
        assert_eq!(udf.invoke(&[]).unwrap_err().kind(), "client");
        let p = assemble("push_true\nret").unwrap();
        let udf = VmUdf::new("g", vec![], DataType::Bool, p);
        assert_eq!(udf.invoke(&[]).unwrap(), Value::Bool(true));
    }
}
