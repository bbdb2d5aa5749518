//! # csq-common — core data model for Client-Site Query Extensions
//!
//! This crate provides the shared vocabulary of the whole system: typed
//! [`Value`]s (including opaque [`Blob`] "data objects" as used in the paper's
//! experiments and refcounted [`Str`] strings), [`Schema`]s with qualified
//! column names, [`Row`]s, [`RowBatch`] chunks (the unit of the vectorized
//! execution engine: rows, or typed column [`Lane`]s plus a [`Selection`]),
//! error types, and a compact binary [`codec`] — with
//! zero-copy decoding — whose encoded sizes are the *byte accounting* used
//! by the network simulator and the cost model.
//!
//! The paper's experiments are all about how many bytes cross the client
//! uplink and downlink, so "how big is this value on the wire" is a
//! first-class concept here: see [`Value::wire_size`] and [`Row::wire_size`].

pub mod batch;
pub mod cancel;
pub mod codec;
pub mod error;
pub mod lane;
pub mod row;
pub mod schema;
pub mod value;

pub use batch::{RowBatch, DEFAULT_BATCH_SIZE};
pub use cancel::{CancelToken, Deadline};
pub use error::{CsqError, Result};
pub use lane::{IntLane, Lane, NullBitmap, Selection};
pub use row::Row;
pub use schema::{Field, Schema};
pub use value::{Blob, DataType, Str, Value};
