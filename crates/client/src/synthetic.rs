//! The paper's synthetic experiment UDFs.
//!
//! §4.1: "`UDF` is a simple function that returned another object of the
//! same size" — [`ObjectUdf`].
//! §4.2 (Figure 7): "`UDF1` takes an object from the Argument column and
//! returns true or false" with a controlled selectivity — [`PredicateUdf`];
//! "`UDF2` takes the same object and returns a result of known size" —
//! [`ObjectUdf`] with an explicit result size.
//!
//! Both are deterministic functions of their argument bytes so duplicate
//! arguments give duplicate results (required for semantic equivalence of
//! semi-join duplicate elimination) and runs are reproducible.

use csq_common::{Blob, DataType, Result, Value};

use crate::fnv1a;
use crate::runtime::{ScalarUdf, UdfCost, UdfSignature};

/// Blob → Blob UDF producing a result of fixed size, deterministically
/// derived from the argument. With `result_size: None` the result has the
/// same size as the argument payload (§4.1's "object of the same size").
pub struct ObjectUdf {
    sig: UdfSignature,
    result_size: Option<usize>,
    cost: UdfCost,
}

impl ObjectUdf {
    /// `name(BLOB) -> BLOB` returning `result_size` bytes (payload).
    pub fn sized(name: &str, result_size: usize) -> ObjectUdf {
        ObjectUdf {
            sig: UdfSignature::new(name, vec![DataType::Blob], DataType::Blob),
            result_size: Some(result_size),
            cost: UdfCost::default(),
        }
    }

    /// `name(BLOB, ..., BLOB) -> BLOB` with `arity` blob arguments,
    /// returning `result_size` bytes derived from all of them (e.g. the
    /// paper's `Volatility(S.Quotes, S.FuturePrices)`).
    pub fn sized_n(name: &str, arity: usize, result_size: usize) -> ObjectUdf {
        assert!(arity >= 1, "UDFs need at least one argument");
        ObjectUdf {
            sig: UdfSignature::new(name, vec![DataType::Blob; arity], DataType::Blob),
            result_size: Some(result_size),
            cost: UdfCost::default(),
        }
    }

    /// `name(BLOB) -> BLOB` returning an object the size of its argument.
    pub fn same_size(name: &str) -> ObjectUdf {
        ObjectUdf {
            sig: UdfSignature::new(name, vec![DataType::Blob], DataType::Blob),
            result_size: None,
            cost: UdfCost::default(),
        }
    }

    /// Attach a CPU cost model (builder style).
    pub fn with_cost(mut self, cost: UdfCost) -> ObjectUdf {
        self.cost = cost;
        self
    }
}

impl ScalarUdf for ObjectUdf {
    fn signature(&self) -> &UdfSignature {
        &self.sig
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        // Seed from every argument so multi-argument results depend on all
        // inputs, while staying deterministic for duplicate tuples.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        let mut first_len = 0;
        for (i, a) in args.iter().enumerate() {
            let b = a.as_blob()?;
            if i == 0 {
                first_len = b.len();
            }
            seed ^= fnv1a(b.as_bytes()).rotate_left(i as u32);
        }
        let size = self.result_size.unwrap_or(first_len);
        Ok(Value::Blob(Blob::synthetic(size, seed)))
    }

    fn result_size_hint(&self) -> Option<usize> {
        // Wire size of a Blob is payload + 5; the paper's `R` counts the
        // object size, so report the payload-based wire size when known.
        self.result_size.map(|s| s + 5)
    }

    fn cost(&self) -> UdfCost {
        self.cost
    }
}

/// Blob → Bool UDF with a controlled selectivity: a deterministic hash of
/// the argument is compared against the selectivity threshold, so over
/// distinct random arguments the pass fraction converges to `selectivity`.
pub struct PredicateUdf {
    sig: UdfSignature,
    selectivity: f64,
    cost: UdfCost,
}

impl PredicateUdf {
    /// `name(BLOB) -> BOOL` passing ≈`selectivity` of distinct arguments.
    pub fn new(name: &str, selectivity: f64) -> PredicateUdf {
        assert!(
            (0.0..=1.0).contains(&selectivity),
            "selectivity must be in [0,1]"
        );
        PredicateUdf {
            sig: UdfSignature::new(name, vec![DataType::Blob], DataType::Bool),
            selectivity,
            cost: UdfCost::default(),
        }
    }

    /// Attach a CPU cost model (builder style).
    pub fn with_cost(mut self, cost: UdfCost) -> PredicateUdf {
        self.cost = cost;
        self
    }

    /// The configured selectivity.
    pub fn selectivity(&self) -> f64 {
        self.selectivity
    }
}

impl ScalarUdf for PredicateUdf {
    fn signature(&self) -> &UdfSignature {
        &self.sig
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let arg = args[0].as_blob()?;
        // Map the hash to [0,1) and compare. A second mix constant decouples
        // this from ObjectUdf's seeding.
        let h = fnv1a(arg.as_bytes()).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        Ok(Value::Bool(unit < self.selectivity))
    }

    fn result_size_hint(&self) -> Option<usize> {
        Some(Value::Bool(true).wire_size())
    }

    fn selectivity_hint(&self) -> Option<f64> {
        Some(self.selectivity)
    }

    fn cost(&self) -> UdfCost {
        self.cost
    }
}

/// Blob → Int UDF mapping an object to a rating in `0..buckets`, used for
/// the Figure 11 query (`ClientAnalysis(S.Quotes) = E.Rating`).
pub struct RatingUdf {
    sig: UdfSignature,
    buckets: i64,
    cost: UdfCost,
}

impl RatingUdf {
    /// `name(BLOB) -> INT` in `0..buckets`.
    pub fn new(name: &str, buckets: i64) -> RatingUdf {
        assert!(buckets > 0);
        RatingUdf {
            sig: UdfSignature::new(name, vec![DataType::Blob], DataType::Int),
            buckets,
            cost: UdfCost::default(),
        }
    }
}

impl ScalarUdf for RatingUdf {
    fn signature(&self) -> &UdfSignature {
        &self.sig
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let arg = args[0].as_blob()?;
        Ok(Value::Int(
            (fnv1a(arg.as_bytes()) % self.buckets as u64) as i64,
        ))
    }

    fn result_size_hint(&self) -> Option<usize> {
        Some(Value::Int(0).wire_size())
    }

    fn cost(&self) -> UdfCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_udf_same_size_and_sized() {
        let same = ObjectUdf::same_size("f");
        let arg = Value::Blob(Blob::synthetic(100, 1));
        let out = same.invoke(std::slice::from_ref(&arg)).unwrap();
        assert_eq!(out.as_blob().unwrap().len(), 100);

        let sized = ObjectUdf::sized("g", 2000);
        let out = sized.invoke(std::slice::from_ref(&arg)).unwrap();
        assert_eq!(out.as_blob().unwrap().len(), 2000);
        assert_eq!(sized.result_size_hint(), Some(2005));
    }

    #[test]
    fn object_udf_deterministic_on_duplicates() {
        let udf = ObjectUdf::sized("f", 64);
        let a1 = Value::Blob(Blob::synthetic(50, 7));
        let a2 = Value::Blob(Blob::synthetic(50, 7));
        let b = Value::Blob(Blob::synthetic(50, 8));
        assert_eq!(
            udf.invoke(std::slice::from_ref(&a1)).unwrap(),
            udf.invoke(std::slice::from_ref(&a2)).unwrap()
        );
        assert_ne!(
            udf.invoke(std::slice::from_ref(&a1)).unwrap(),
            udf.invoke(std::slice::from_ref(&b)).unwrap()
        );
    }

    #[test]
    fn predicate_udf_selectivity_converges() {
        for s in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let udf = PredicateUdf::new("p", s);
            let n = 2000;
            let mut passed = 0;
            for i in 0..n {
                let arg = Value::Blob(Blob::synthetic(32, i as u64));
                if udf.invoke(std::slice::from_ref(&arg)).unwrap() == Value::Bool(true) {
                    passed += 1;
                }
            }
            let observed = passed as f64 / n as f64;
            assert!(
                (observed - s).abs() < 0.05,
                "target {s}, observed {observed}"
            );
        }
    }

    #[test]
    fn predicate_udf_deterministic() {
        let udf = PredicateUdf::new("p", 0.5);
        let arg = Value::Blob(Blob::synthetic(32, 99));
        let a = udf.invoke(std::slice::from_ref(&arg)).unwrap();
        let b = udf.invoke(std::slice::from_ref(&arg)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rating_udf_in_range() {
        let udf = RatingUdf::new("r", 10);
        for i in 0..100 {
            let arg = Value::Blob(Blob::synthetic(16, i));
            let v = udf.invoke(std::slice::from_ref(&arg)).unwrap();
            let r = v.as_i64().unwrap();
            assert!((0..10).contains(&r));
        }
    }

    #[test]
    fn selectivity_bounds_enforced() {
        let r = std::panic::catch_unwind(|| PredicateUdf::new("p", 1.5));
        assert!(r.is_err());
    }
}
