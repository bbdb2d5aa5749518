//! UDF trait, signatures, and the client registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use csq_common::{CsqError, DataType, Result, Value};

/// Declared interface of a UDF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfSignature {
    /// Function name as referenced in SQL (case-insensitive lookup).
    pub name: String,
    /// Argument types in order.
    pub arg_types: Vec<DataType>,
    /// Result type.
    pub return_type: DataType,
}

impl UdfSignature {
    /// Build a signature.
    pub fn new(name: impl Into<String>, arg_types: Vec<DataType>, return_type: DataType) -> Self {
        UdfSignature {
            name: name.into(),
            arg_types,
            return_type,
        }
    }

    /// Check an argument list against this signature.
    pub fn check_args(&self, args: &[Value]) -> Result<()> {
        if args.len() != self.arg_types.len() {
            return Err(CsqError::Client(format!(
                "UDF '{}': expected {} arguments, got {}",
                self.name,
                self.arg_types.len(),
                args.len()
            )));
        }
        for (i, (v, expected)) in args.iter().zip(&self.arg_types).enumerate() {
            if let Some(dt) = v.data_type() {
                if !expected.accepts(dt) {
                    return Err(CsqError::Client(format!(
                        "UDF '{}', argument {i}: expected {expected}, got {dt}",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Per-invocation CPU cost model for the virtual-time simulator, in µs:
/// `fixed + per_byte × argument_bytes`. The paper assumes the client is not
/// the pipeline bottleneck; the default (zero) encodes that assumption, and
/// the ablation benches override it to explore client-bound regimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdfCost {
    /// Fixed cost per invocation, µs.
    pub fixed_us: f64,
    /// Additional cost per argument byte, µs.
    pub per_byte_us: f64,
}

impl Default for UdfCost {
    fn default() -> Self {
        UdfCost {
            fixed_us: 0.0,
            per_byte_us: 0.0,
        }
    }
}

impl UdfCost {
    /// Cost of one invocation over `arg_bytes` bytes of arguments, µs.
    pub fn invocation_us(&self, arg_bytes: usize) -> u64 {
        (self.fixed_us + self.per_byte_us * arg_bytes as f64).ceil() as u64
    }
}

/// A scalar user-defined function executing at the client site.
pub trait ScalarUdf: Send + Sync {
    /// Name, argument types, result type.
    fn signature(&self) -> &UdfSignature;

    /// Evaluate on one argument tuple.
    fn invoke(&self, args: &[Value]) -> Result<Value>;

    /// Evaluate on a batch of argument tuples. The default maps
    /// [`ScalarUdf::invoke`]; implementations override to amortize
    /// per-invocation setup across the batch (the VM reuses one value
    /// stack, see `csq_client::vm::VmUdf`).
    fn invoke_batch(&self, batch: &[&[Value]]) -> Result<Vec<Value>> {
        batch.iter().map(|args| self.invoke(args)).collect()
    }

    /// Expected wire size of one result, bytes — the paper's `R`, used by
    /// the cost model and optimizer. `None` when unknown (a default is
    /// assumed).
    fn result_size_hint(&self) -> Option<usize> {
        None
    }

    /// Expected selectivity when the result is used as a predicate
    /// (`UDF(x) > c` etc.). `None` when unknown.
    fn selectivity_hint(&self) -> Option<f64> {
        None
    }

    /// CPU cost model for the simulator.
    fn cost(&self) -> UdfCost {
        UdfCost::default()
    }
}

/// The client-site function registry with invocation accounting.
///
/// The server holds only signatures (via signature-level
/// metadata exchanged at session setup); implementations never leave the
/// client — the confidentiality property motivating client-site UDFs.
#[derive(Default)]
pub struct ClientRuntime {
    udfs: RwLock<HashMap<String, Arc<dyn ScalarUdf>>>,
    invocations: AtomicU64,
    cache_hits: AtomicU64,
}

impl ClientRuntime {
    /// Empty runtime.
    pub fn new() -> ClientRuntime {
        ClientRuntime::default()
    }

    /// Register a UDF. Errors on duplicate names.
    pub fn register(&self, udf: Arc<dyn ScalarUdf>) -> Result<()> {
        let key = udf.signature().name.to_ascii_lowercase();
        let mut udfs = self.udfs.write();
        if udfs.contains_key(&key) {
            return Err(CsqError::Client(format!(
                "UDF '{}' already registered",
                udf.signature().name
            )));
        }
        udfs.insert(key, udf);
        Ok(())
    }

    /// Register a UDF, replacing any existing implementation under the same
    /// (case-insensitive) name. Returns `true` when a previous
    /// implementation was replaced. Re-registration is how a long-lived
    /// client rolls out a new UDF version mid-session; the query service's
    /// plan cache watches for it (re-registration bumps the database's plan
    /// epoch, invalidating cached plans whose UDF metadata went stale).
    pub fn replace(&self, udf: Arc<dyn ScalarUdf>) -> bool {
        let key = udf.signature().name.to_ascii_lowercase();
        self.udfs.write().insert(key, udf).is_some()
    }

    /// Look up a UDF by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Result<Arc<dyn ScalarUdf>> {
        self.udfs
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| CsqError::Client(format!("unknown UDF '{name}'")))
    }

    /// Invoke `name` on `args`, with signature checking and accounting.
    pub fn invoke(&self, name: &str, args: &[Value]) -> Result<Value> {
        let udf = self.get(name)?;
        udf.signature().check_args(args)?;
        self.invocations.fetch_add(1, Ordering::Relaxed);
        udf.invoke(args)
    }

    /// Invoke `name` on a whole batch of argument tuples: signatures are
    /// checked per tuple, the invocation counter advances by the batch
    /// size, and the UDF's (possibly amortized) batch entry point runs.
    /// The counter covers the whole batch even when the UDF fails midway
    /// (errors poison the session, so per-tuple precision on the error
    /// path buys nothing).
    pub fn invoke_batch(&self, name: &str, batch: &[&[Value]]) -> Result<Vec<Value>> {
        let udf = self.get(name)?;
        for args in batch {
            udf.signature().check_args(args)?;
        }
        self.invocations
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let out = udf.invoke_batch(batch)?;
        // A custom override returning the wrong arity would otherwise panic
        // downstream consumers indexing result slots.
        if out.len() != batch.len() {
            return Err(CsqError::Client(format!(
                "UDF '{name}' batch returned {} results for {} argument tuples",
                out.len(),
                batch.len()
            )));
        }
        Ok(out)
    }

    /// Record a duplicate-elimination cache hit (the invocation was avoided).
    pub fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Total UDF invocations executed.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Total invocations avoided via duplicate caching.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Blob;

    struct Doubler {
        sig: UdfSignature,
    }

    impl Doubler {
        fn new() -> Doubler {
            Doubler {
                sig: UdfSignature::new("Double", vec![DataType::Int], DataType::Int),
            }
        }
    }

    impl ScalarUdf for Doubler {
        fn signature(&self) -> &UdfSignature {
            &self.sig
        }
        fn invoke(&self, args: &[Value]) -> Result<Value> {
            Ok(Value::Int(args[0].as_i64()? * 2))
        }
    }

    #[test]
    fn register_invoke_account() {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(Doubler::new())).unwrap();
        assert_eq!(
            rt.invoke("double", &[Value::Int(21)]).unwrap(),
            Value::Int(42)
        );
        assert_eq!(rt.invocations(), 1);
        rt.record_cache_hit();
        assert_eq!(rt.cache_hits(), 1);
    }

    #[test]
    fn duplicate_registration_rejected() {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(Doubler::new())).unwrap();
        assert_eq!(
            rt.register(Arc::new(Doubler::new())).unwrap_err().kind(),
            "client"
        );
    }

    #[test]
    fn unknown_udf_is_client_error() {
        let rt = ClientRuntime::new();
        assert_eq!(rt.invoke("nope", &[]).unwrap_err().kind(), "client");
    }

    #[test]
    fn signature_checks_arity_and_types() {
        let rt = ClientRuntime::new();
        rt.register(Arc::new(Doubler::new())).unwrap();
        assert!(rt.invoke("Double", &[]).is_err());
        assert!(rt
            .invoke("Double", &[Value::Blob(Blob::synthetic(4, 0))])
            .is_err());
        // NULL passes the type check (SQL semantics); the UDF itself decides.
        assert!(rt.invoke("Double", &[Value::Null]).is_err()); // as_i64 on NULL
    }

    #[test]
    fn cost_model_arithmetic() {
        let c = UdfCost {
            fixed_us: 10.0,
            per_byte_us: 0.5,
        };
        assert_eq!(c.invocation_us(100), 60);
        assert_eq!(UdfCost::default().invocation_us(1 << 20), 0);
    }
}
