//! # csq-client — the client-site UDF runtime
//!
//! The paper ran client UDFs in a Java runtime at the client machine; the key
//! properties were (a) the server never sees UDF code or client-private data,
//! (b) untrusted extension code cannot harm its host, and (c) the client
//! executes one tuple at a time while the network pipelines around it.
//!
//! This crate reproduces that runtime in Rust:
//!
//! * [`ScalarUdf`] + [`ClientRuntime`] — the UDF trait and per-client
//!   registry, with invocation accounting and per-invocation CPU cost hints
//!   that the client loop puts on its endpoint's virtual clock.
//! * [`synthetic`] — the paper's experiment UDFs ("takes an object, returns
//!   another object of a given size" / "returns true or false with a given
//!   selectivity"), deterministic and parameterized exactly like §4.
//! * [`vm`] — a sandboxed stack-machine VM with fuel and stack limits, the
//!   stand-in for the paper's safe Java execution (\[GMHE98]/\[CSM98]); the
//!   repro hint's WASM role is played by this VM since no WASM runtime is in
//!   the allowed dependency set.
//! * [`protocol`] — the wire protocol: install a [`ClientTask`] (UDF steps +
//!   pushable predicate + pushable projection), then stream argument or
//!   record batches and receive result batches.
//! * [`service`] — the client event loop run as a thread over a
//!   [`csq_net::Endpoint`], in real or virtual time.
//! * [`qproto`] + [`pool`] — the *query service* side of being a client:
//!   the SQL-in/rows-out wire protocol spoken to `csq-core`'s socket
//!   server, a single framed [`ServiceConn`], and a bounded blocking
//!   [`ConnectionPool`] with prepared-statement support.

#![warn(missing_docs)]

pub mod backoff;
pub mod pool;
pub mod protocol;
pub mod qproto;
pub mod runtime;
pub mod service;
pub mod synthetic;
pub mod vm;

pub use backoff::Backoff;
pub use pool::{
    ConnectionPool, PooledConn, QueryOptions, RemoteResult, RetryPolicy, ServiceConn,
    SessionTicket, StatementHandle,
};
pub use protocol::{ClientTask, Request, Response, TaskMode, UdfStep};
pub use qproto::{QueryRequest, QueryResponse};
pub use runtime::{ClientRuntime, ScalarUdf, UdfCost, UdfSignature};
pub use service::{spawn_client, spawn_client_with_token};
