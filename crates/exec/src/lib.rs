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
//! Operators provided here: scan, filter, project, the hash join (every SQL
//! join; with no key, the cross product), grouped aggregation, the
//! cancellation checkpoint and in-memory row sources — what
//! `csq_core::lower` and `csq-ship` build; both hash operators number their
//! keys through [`csq_common::KeyIndex`]. [`MemoryTracker`] is
//! the byte budget the blocking operators spill under. The crate starts no
//! thread: the query service's workers are its own (`csq_core::service`).

pub mod aggregate;
pub mod join;
pub mod ops;
pub mod spill;

pub use aggregate::{aggregate_output_schema, aggregate_state_schema, AggSpec, HashAggregate};
pub use join::HashJoin;
pub use ops::{
    collect, compare_values, CancelCheck, ColumnarScan, Filter, Operator, Project, Projection,
    RowsOp,
};
pub use spill::MemoryTracker;

/// A boxed operator, the unit of plan composition.
pub type BoxOp = Box<dyn Operator + Send>;
