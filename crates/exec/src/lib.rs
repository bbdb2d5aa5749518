//! # csq-exec — the vectorized batch execution engine
//!
//! Operators follow the Volcano pull model (§2.1 of the paper shows the
//! pseudo-code), but pull a whole [`csq_common::RowBatch`] per call via
//! [`Operator::next_batch`] — dynamic dispatch, predicate setup, and buffer
//! allocation are paid once per ~1024 rows instead of once per row (the
//! local-engine analogue of the paper's batching-beats-per-tuple thesis).
//! `next_batch` is the only way to drive an operator; the threaded shipping
//! receivers in `csq-ship` implement the same contract and compose into the
//! same plans. See DESIGN.md §2.
//!
//! Operators provided here: scan, filter, project, sort, hash join,
//! nested-loop join, grouped aggregation, the cancellation checkpoint and
//! in-memory row sources — what `csq_core::lower` and `csq-ship` build
//! (`HashJoin` is the one no statement reaches yet). [`MemoryTracker`] is
//! the byte budget the blocking operators spill under, and [`WorkerPool`]
//! is the thread pool the query service schedules sessions on.

pub mod aggregate;
pub mod join;
pub mod ops;
pub mod pool;
pub mod spill;

pub use aggregate::{aggregate_output_schema, aggregate_state_schema, AggSpec, HashAggregate};
pub use join::{HashJoin, NestedLoopJoin};
pub use ops::{
    collect, compare_values, CancelCheck, ColumnarScan, Filter, Operator, Project, Projection,
    RowsOp, Sort,
};
pub use pool::WorkerPool;
pub use spill::MemoryTracker;

/// A boxed operator, the unit of plan composition.
pub type BoxOp = Box<dyn Operator + Send>;
