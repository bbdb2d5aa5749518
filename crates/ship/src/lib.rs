//! # csq-ship — client-site UDF execution strategies
//!
//! The paper's three strategies for applying client-site UDFs to a relation
//! (§2–§3), each available in two backends:
//!
//! | strategy | threaded operator | virtual-time executor |
//! |---|---|---|
//! | naive tuple-at-a-time | [`NaiveRemoteUdf`] | [`simulate_naive`] |
//! | semi-join (Fig. 3)    | [`ThreadedSemiJoin`] | [`simulate_semijoin`] |
//! | client-site join (Fig. 4) | [`ThreadedClientJoin`] | [`simulate_client_join`] |
//!
//! The threaded backend runs a real sender thread and receiver (the calling
//! thread) around a bounded buffer sized by the paper's **pipeline
//! concurrency factor**, talking to a real client thread over a
//! [`csq_net::Endpoint`]. The virtual-time backend executes the *same*
//! client code ([`csq_client::service::TaskExecutor`]) and the *same* wire
//! encoding, but models transfer times with the discrete-event link model —
//! it returns a [`SimRun`] with the completion time and per-link byte/busy
//! accounting. Integration tests assert the two backends produce identical
//! rows and identical byte counts.

pub mod partial;
pub mod sim;
pub mod spec;
pub mod threaded;

pub use partial::PartialAggSpec;
pub use sim::{simulate_client_join, simulate_naive, simulate_semijoin, SimRun};
pub use spec::{ClientJoinSpec, SemiJoinSpec, UdfApplication};
pub use threaded::{NaiveRemoteUdf, ThreadedClientJoin, ThreadedSemiJoin};
