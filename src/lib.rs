//! Facade crate: re-exports the public API of the workspace.
//!
//! Most programs only need [`prelude`]:
//!
//! ```no_run
//! use csq::prelude::*;
//!
//! let db = std::sync::Arc::new(Database::new(NetworkSpec::symmetric(100_000.0, 0)));
//! let svc = csq::service::start(db, ServiceConfig::default()).unwrap();
//! let pool = ConnectionPool::new(svc.local_addr(), 2).unwrap();
//! let result = pool.query_with("SELECT 1", &QueryOptions::new()).unwrap();
//! assert_eq!(result.rows.len(), 1);
//! svc.shutdown();
//! ```
#![warn(missing_docs)]

pub use csq_core::*;

/// Everything a typical embedder or service client needs, in one import.
///
/// Curated rather than a blanket glob: the engine (`Database`), the service
/// surface (`ServiceConfig`/`ServiceHandle` plus `csq::service::start`), the
/// client surface (`ConnectionPool`, `ServiceConn`, `QueryOptions`,
/// `RetryPolicy`), and the value/error vocabulary shared by all of them.
/// Internals (operators, planner types, wire codecs) stay behind their
/// module paths.
pub mod prelude {
    pub use csq_core::{ConnectionPool, QueryOptions, RetryPolicy, ServiceConn};
    pub use csq_core::{CoordStats, Coordinator, CoordinatorConfig};
    pub use csq_core::{CsqError, DataType, NetworkSpec, Result, Row, Schema, Value};
    pub use csq_core::{Database, QueryResult, ServiceConfig, ServiceHandle, ServiceStats};
}
