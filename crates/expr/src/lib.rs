//! # csq-expr — scalar expressions
//!
//! Expressions appear at two levels:
//!
//! * [`Expr`] — *logical* expressions referencing columns by
//!   `[qualifier.]name` and functions by name. This is what the SQL front end
//!   produces and what the optimizer rearranges. Client-site UDF calls are
//!   ordinary [`Expr::Udf`] nodes here; the optimizer is responsible for
//!   extracting them into dedicated shipping operators.
//! * [`PhysExpr`] — *physical* expressions bound to a concrete row layout
//!   (columns by ordinal), evaluable against a [`csq_common::Row`].
//!
//! [`analysis`] provides the helpers the planner and optimizer need:
//! conjunct splitting, referenced-column collection, type inference, and
//! selectivity heuristics.

pub mod analysis;
pub mod logical;
pub mod physical;

pub use analysis::{columns_referenced, split_conjuncts};
pub use logical::{AggFunc, BinaryOp, ColumnRef, Expr, UnaryOp};
pub use physical::{bind, AggSpec, PhysExpr};
