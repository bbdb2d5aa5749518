//! # csq-ship — client-site UDF execution strategies
//!
//! The paper's three strategies for applying client-site UDFs to a relation
//! (§2–§3), run by two threaded operators over either clock — the naive
//! strategy is the semi-join with one tuple in flight:
//!
//! | strategy | operator | in virtual time |
//! |---|---|---|
//! | naive tuple-at-a-time | [`ThreadedSemiJoin`] at K = 1, one tuple a message | [`simulate_naive`] |
//! | semi-join (Fig. 3)    | [`ThreadedSemiJoin`] | [`simulate_semijoin`] |
//! | client-site join (Fig. 4) | [`ThreadedClientJoin`] | [`simulate_client_join`] |
//!
//! An operator runs a real sender thread and receiver (the calling thread),
//! the semi-join's bounded by credits for the paper's **pipeline
//! concurrency factor**, talking to a real client thread over a
//! [`csq_net::Endpoint`]. Over an in-memory or TCP duplex that is the
//! engine; over a virtual-time duplex ([`csq_net::virtual_duplex`]) the
//! same operator and client are timed by the discrete-event link model, and
//! the `simulate_*` functions return a [`SimRun`] with the completion time
//! and per-link byte/busy accounting.
//! Integration tests assert the two duplexes carry identical rows and
//! identical byte counts.
//!
//! Only UDF applications ship through this crate. An aggregate placement
//! lowers to `csq-exec`'s `HashAggregate` phases directly (DESIGN.md §7).

pub mod sim;
pub mod spec;
pub mod threaded;

pub use sim::{simulate_client_join, simulate_naive, simulate_semijoin, SimRun};
pub use spec::{ClientJoinSpec, SemiJoinSpec, UdfApplication};
pub use threaded::{ThreadedClientJoin, ThreadedSemiJoin};
