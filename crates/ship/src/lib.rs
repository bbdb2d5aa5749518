//! # csq-ship — client-site UDF execution strategies
//!
//! The paper's three strategies for applying client-site UDFs to a relation
//! (§2–§3), run by two shipping operators over one link, the virtual-time
//! [`client_link`] — the naive strategy is the semi-join with one tuple in
//! flight:
//!
//! | strategy | operator | in virtual time |
//! |---|---|---|
//! | naive tuple-at-a-time | [`ThreadedSemiJoin`] at K = 1, one tuple a message | [`simulate_naive`] |
//! | semi-join (Fig. 3)    | [`ThreadedSemiJoin`] | [`simulate_semijoin`] |
//! | client-site join (Fig. 4) | [`ThreadedClientJoin`] | [`simulate_client_join`] |
//!
//! An operator drives its own window of the paper's **pipeline concurrency
//! factor** on the calling thread ([`threaded`]), talking to a
//! [`csq_client::ClientSession`] that answers inline, so a statement starts
//! no thread. On a [`client_link`] the operator and client are timed by the
//! discrete-event link model: a statement folds each link into its result,
//! and the `simulate_*` functions return a [`SimRun`] with the completion
//! time and per-link byte/busy accounting. The operators also run over the
//! unstamped `csq_net::in_memory_duplex`; integration tests hold the two
//! duplexes to identical rows and byte counts.
//!
//! Only UDF applications ship through this crate. An aggregate placement
//! lowers to `csq-exec`'s `HashAggregate` phases directly (DESIGN.md §7).

pub mod sim;
pub mod spec;
pub mod threaded;

pub use sim::{client_link, simulate_client_join, simulate_naive, simulate_semijoin, SimRun};
pub use spec::{ClientJoinSpec, SemiJoinSpec, UdfApplication};
pub use threaded::{ThreadedClientJoin, ThreadedSemiJoin};
