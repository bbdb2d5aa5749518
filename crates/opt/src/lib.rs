//! # csq-opt — query optimization for client-site UDFs (§5)
//!
//! The paper shows that rank-order placement of expensive predicates breaks
//! down for client-site UDFs because (a) a client-site operator's cost
//! depends on its *neighbours* (grouped UDFs ship shared arguments once;
//! a UDF adjacent to the final result operator never ships results back),
//! and (b) semi-join costs depend on input duplicates, which join operators
//! change. Their fix — reproduced here — is a System-R bottom-up dynamic
//! program where:
//!
//! * every base relation **and every client-site UDF call** is a *join
//!   unit* (the UDF joins with a virtual, index-only UDF table, §2.2);
//! * plans carry a new physical property, the **site** of their result —
//!   generalized to the *set of columns resident at the client* so that
//!   semi-join grouping (§5.1.2) falls out of ordinary property matching;
//! * pushable selections and projections are placed at the client when the
//!   chosen strategy allows it (client-site joins and final-merged UDFs).
//!
//! Entry point: [`optimize`] over a parsed query + [`OptContext`] metadata.
//! The result is a [`PlanNode`] tree with estimated costs, printable via
//! [`PlanNode::explain`], plus a [`rank_order_baseline`] implementing the
//! pre-paper strategy for the ablation benches.

pub mod context;
pub mod dp;
pub mod plan;
pub mod query;
pub mod rank;
pub mod shard;

pub use context::{OptContext, TableStats, UdfMeta};
pub use csq_cost::{AggPlacement, ShipParams};
pub use dp::{optimize, OptimizedPlan};
pub use plan::{GatherMode, PlanNode, UdfStrategy};
pub use query::{AggCall, AggregateSpec, QueryGraph, Unit};
pub use rank::rank_order_baseline;
