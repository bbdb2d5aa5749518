//! Physical (bound) expressions: columns resolved to ordinals, evaluable.
//!
//! UDF calls cannot be bound here: by the time a plan reaches execution,
//! every client-site UDF has been extracted into a shipping operator and its
//! result is just a column of the input. Attempting to bind a residual
//! [`Expr::Udf`] is a planning bug and reported as such.

use csq_common::{CsqError, DataType, Field, Result, Row, Schema, Value};

use crate::logical::{AggFunc, BinaryOp, Expr, UnaryOp};

/// A bound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    /// A constant.
    Literal(Value),
    /// Input column at this ordinal.
    Column(usize),
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<PhysExpr> },
    /// Binary operation.
    Binary {
        left: Box<PhysExpr>,
        op: BinaryOp,
        right: Box<PhysExpr>,
    },
}

/// One aggregate call, as `csq_exec::HashAggregate` evaluates it: a function
/// over an optional bound argument expression (`None` = `COUNT(*)`), plus
/// the output column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Bound argument expression (`None` only for `COUNT(*)`).
    pub arg: Option<PhysExpr>,
    /// Output column name.
    pub name: String,
}

impl AggSpec {
    /// Convenience constructor.
    pub fn new(func: AggFunc, arg: Option<PhysExpr>, name: impl Into<String>) -> AggSpec {
        AggSpec {
            func,
            arg,
            name: name.into(),
        }
    }

    /// The finished-value output field, with the result type inferred from
    /// the argument's type under `input` when possible.
    pub fn result_field(&self, input: &Schema) -> Field {
        let at = self.arg.as_ref().and_then(|a| a.infer_type(input).ok());
        Field::new(self.name.clone(), self.func.result_type(at))
    }

    /// The partial-state fields this call ships between the partial and
    /// final phases (AVG decomposes into running sum + count).
    pub fn state_fields(&self, input: &Schema) -> Vec<Field> {
        match self.func {
            AggFunc::Avg => vec![
                // The running sum keeps the argument's type (an Int column
                // accumulates Int sums); only `finish` divides into Float.
                Field::new(
                    format!("{}$sum", self.name),
                    self.arg
                        .as_ref()
                        .and_then(|a| a.infer_type(input).ok())
                        .unwrap_or(DataType::Float),
                ),
                Field::new(format!("{}$n", self.name), DataType::Int),
            ],
            AggFunc::Count => vec![Field::new(self.name.clone(), DataType::Int)],
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![self.result_field(input)],
        }
    }

    /// Number of partial-state columns (1, or 2 for AVG). Inlined: the
    /// final phase asks it once per merged row and call.
    #[inline]
    pub fn state_width(&self) -> usize {
        match self.func {
            AggFunc::Avg => 2,
            _ => 1,
        }
    }
}

/// Bind `expr` against `schema`, resolving column references to ordinals.
pub fn bind(expr: &Expr, schema: &Schema) -> Result<PhysExpr> {
    match expr {
        Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
        Expr::Column(c) => {
            let idx = schema.index_of(c.qualifier.as_deref(), &c.name)?;
            Ok(PhysExpr::Column(idx))
        }
        Expr::Unary { op, expr } => Ok(PhysExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, schema)?),
        }),
        Expr::Binary { left, op, right } => Ok(PhysExpr::Binary {
            left: Box::new(bind(left, schema)?),
            op: *op,
            right: Box::new(bind(right, schema)?),
        }),
        Expr::Udf { name, .. } => Err(CsqError::Plan(format!(
            "UDF '{name}' reached physical binding; it should have been \
             extracted into a shipping operator by the optimizer"
        ))),
        Expr::Aggregate { func, .. } => Err(CsqError::Plan(format!(
            "aggregate {} reached physical binding; it should have been \
             rewritten into a result-column reference by the planner",
            func.name()
        ))),
    }
}

impl PhysExpr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            PhysExpr::Literal(v) => Ok(v.clone()),
            PhysExpr::Column(i) => {
                if *i >= row.len() {
                    return Err(CsqError::Exec(format!(
                        "column ordinal {i} out of bounds for row of width {}",
                        row.len()
                    )));
                }
                Ok(row.value(*i).clone())
            }
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                eval_unary(*op, v)
            }
            PhysExpr::Binary { left, op, right } => {
                // Short-circuit AND/OR with SQL three-valued logic.
                if op.is_logical() {
                    return eval_logical(*op, left, right, row);
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
        }
    }

    /// Evaluate as a predicate: NULL (unknown) is treated as false, per SQL
    /// WHERE semantics.
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)?.as_bool()?.unwrap_or(false))
    }

    /// Infer the output type given the input schema (used by projections).
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType> {
        match self {
            PhysExpr::Literal(v) => v
                .data_type()
                .ok_or_else(|| CsqError::Type("cannot infer type of bare NULL literal".into())),
            PhysExpr::Column(i) => Ok(schema.field(*i).dtype),
            PhysExpr::Unary { op, expr } => match op {
                UnaryOp::Not => Ok(DataType::Bool),
                UnaryOp::Neg => expr.infer_type(schema),
            },
            PhysExpr::Binary { left, op, right } => {
                if op.is_comparison() || op.is_logical() {
                    Ok(DataType::Bool)
                } else {
                    let (lt, rt) = (left.infer_type(schema)?, right.infer_type(schema)?);
                    if lt == DataType::Float || rt == DataType::Float || *op == BinaryOp::Div {
                        Ok(DataType::Float)
                    } else {
                        Ok(DataType::Int)
                    }
                }
            }
        }
    }
}

fn eval_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Not => match v.as_bool()? {
            Some(b) => Ok(Value::Bool(!b)),
            None => Ok(Value::Null),
        },
        UnaryOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(CsqError::Type(format!(
                "cannot negate {:?}",
                other.data_type()
            ))),
        },
    }
}

fn eval_logical(op: BinaryOp, left: &PhysExpr, right: &PhysExpr, row: &Row) -> Result<Value> {
    let l = left.eval(row)?.as_bool()?;
    match (op, l) {
        // Short circuits.
        (BinaryOp::And, Some(false)) => Ok(Value::Bool(false)),
        (BinaryOp::Or, Some(true)) => Ok(Value::Bool(true)),
        _ => {
            let r = right.eval(row)?.as_bool()?;
            let out = match op {
                BinaryOp::And => match (l, r) {
                    (Some(true), Some(true)) => Some(true),
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    _ => None,
                },
                BinaryOp::Or => match (l, r) {
                    (Some(false), Some(false)) => Some(false),
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    _ => None,
                },
                _ => unreachable!("eval_logical called with non-logical op"),
            };
            Ok(out.map(Value::Bool).unwrap_or(Value::Null))
        }
    }
}

/// Evaluate a non-logical binary operator on two values.
pub fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if op.is_comparison() {
        let ord = l.sql_cmp(r)?;
        return Ok(ord.map_or(Value::Null, |o| Value::Bool(op.accepts(o))));
    }
    // An operand beside a NULL is NULL whatever its type; any other operand
    // must be numeric.
    let operand = |v: &Value| match v {
        Value::Int(i) => Ok(Some(Num::Int(*i))),
        Value::Float(f) => Ok(Some(Num::Float(*f))),
        _ if l.is_null() || r.is_null() => Ok(None),
        other => Err(CsqError::Type(format!(
            "expected numeric, got {:?}",
            other.data_type()
        ))),
    };
    Ok(arith(op, operand(l)?, operand(r)?)?.map_or(Value::Null, Num::value))
}

/// A non-NULL arithmetic operand or result.
#[derive(Debug, Clone, Copy)]
pub enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    /// The number as the `Value` it is.
    #[inline]
    pub fn value(self) -> Value {
        match self {
            Num::Int(i) => Value::Int(i),
            Num::Float(f) => Value::Float(f),
        }
    }

    /// The number widened to FLOAT.
    #[inline]
    fn float(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
        }
    }
}

/// The arithmetic rules, written once for the general evaluator
/// ([`eval_binary`]) and the typed lane loop of `csq-storage`'s compiled
/// conjuncts: a NULL (`None`) operand makes a NULL; INT ⊕ INT is INT, an
/// overflow raising; anything else — INT ÷ INT included — is FLOAT, and
/// ÷ 0 (of either sign) raises.
#[inline]
pub fn arith(op: BinaryOp, l: Option<Num>, r: Option<Num>) -> Result<Option<Num>> {
    let (Some(l), Some(r)) = (l, r) else {
        return Ok(None);
    };
    match (l, r) {
        (Num::Int(a), Num::Int(b)) if op != BinaryOp::Div => {
            let out = match op {
                BinaryOp::Add => a.checked_add(b),
                BinaryOp::Sub => a.checked_sub(b),
                BinaryOp::Mul => a.checked_mul(b),
                _ => unreachable!(),
            };
            out.map(|i| Some(Num::Int(i)))
                .ok_or_else(|| CsqError::Exec("integer overflow".into()))
        }
        _ => {
            let (a, b) = (l.float(), r.float());
            let out = match op {
                BinaryOp::Add => a + b,
                BinaryOp::Sub => a - b,
                BinaryOp::Mul => a * b,
                BinaryOp::Div => {
                    if b == 0.0 {
                        return Err(CsqError::Exec("division by zero".into()));
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            Ok(Some(Num::Float(out)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("S", "Change", DataType::Float),
            Field::qualified("S", "Close", DataType::Float),
            Field::qualified("S", "Name", DataType::Str),
        ])
    }

    fn row() -> Row {
        Row::new(vec![
            Value::Float(30.0),
            Value::Float(100.0),
            Value::from("acme"),
        ])
    }

    #[test]
    fn bind_and_eval_paper_predicate() {
        // S.Change / S.Close > 0.2  — the server-site predicate of Figure 1.
        let e = Expr::binary(
            Expr::binary(
                Expr::col("S", "Change"),
                BinaryOp::Div,
                Expr::col("S", "Close"),
            ),
            BinaryOp::Gt,
            Expr::lit(0.2),
        );
        let p = bind(&e, &schema()).unwrap();
        assert!(p.eval_predicate(&row()).unwrap());
        assert_eq!(p.infer_type(&schema()).unwrap(), DataType::Bool);
    }

    #[test]
    fn binding_udf_is_plan_error() {
        let e = Expr::udf("ClientAnalysis", vec![Expr::col("S", "Name")]);
        let err = bind(&e, &schema()).unwrap_err();
        assert_eq!(err.kind(), "plan");
    }

    #[test]
    fn unknown_column_fails_bind() {
        let e = Expr::col("S", "Volume");
        assert_eq!(bind(&e, &schema()).unwrap_err().kind(), "catalog");
    }

    #[test]
    fn three_valued_logic() {
        // NULL AND false = false; NULL AND true = NULL; NULL OR true = true.
        let null = PhysExpr::Literal(Value::Null);
        let t = PhysExpr::Literal(Value::Bool(true));
        let f = PhysExpr::Literal(Value::Bool(false));
        let r = Row::new(vec![]);
        let and_nf = PhysExpr::Binary {
            left: Box::new(null.clone()),
            op: BinaryOp::And,
            right: Box::new(f.clone()),
        };
        assert_eq!(and_nf.eval(&r).unwrap(), Value::Bool(false));
        let and_nt = PhysExpr::Binary {
            left: Box::new(null.clone()),
            op: BinaryOp::And,
            right: Box::new(t.clone()),
        };
        assert_eq!(and_nt.eval(&r).unwrap(), Value::Null);
        let or_nt = PhysExpr::Binary {
            left: Box::new(null),
            op: BinaryOp::Or,
            right: Box::new(t),
        };
        assert_eq!(or_nt.eval(&r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn predicate_treats_null_as_false() {
        let p = PhysExpr::Literal(Value::Null);
        assert!(!p.eval_predicate(&Row::new(vec![])).unwrap());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let r = Row::new(vec![]);
        let add = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(2))),
            op: BinaryOp::Add,
            right: Box::new(PhysExpr::Literal(Value::Int(3))),
        };
        assert_eq!(add.eval(&r).unwrap(), Value::Int(5));
        let div = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(PhysExpr::Literal(Value::Int(2))),
        };
        assert_eq!(div.eval(&r).unwrap(), Value::Float(0.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let div = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(PhysExpr::Literal(Value::Int(0))),
        };
        assert_eq!(div.eval(&Row::new(vec![])).unwrap_err().kind(), "exec");
    }

    #[test]
    fn overflow_errors() {
        let mul = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(i64::MAX))),
            op: BinaryOp::Mul,
            right: Box::new(PhysExpr::Literal(Value::Int(2))),
        };
        assert_eq!(mul.eval(&Row::new(vec![])).unwrap_err().kind(), "exec");
    }

    #[test]
    fn short_circuit_avoids_rhs_error() {
        // false AND (1/0) must not evaluate the division.
        let bad = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(PhysExpr::Literal(Value::Int(0))),
        };
        let e = PhysExpr::Binary {
            left: Box::new(PhysExpr::Literal(Value::Bool(false))),
            op: BinaryOp::And,
            right: Box::new(bad),
        };
        assert_eq!(e.eval(&Row::new(vec![])).unwrap(), Value::Bool(false));
    }

    #[test]
    fn out_of_bounds_column_is_exec_error() {
        let c = PhysExpr::Column(5);
        assert_eq!(c.eval(&Row::new(vec![])).unwrap_err().kind(), "exec");
    }
}
