//! Logical (unbound) expressions.

use csq_common::Value;
use std::cmp::Ordering;
use std::fmt;

/// A column reference `[qualifier.]name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Optional table alias.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Qualified reference.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    /// True for comparison operators producing BOOL from two comparables.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// Whether this comparison holds when its left operand orders as `o`
    /// against its right: the workspace's one copy of the comparison truth
    /// table (`eval_binary` here, the compiled conjuncts of `csq-storage`).
    /// Only comparison operators ([`is_comparison`](Self::is_comparison)) have
    /// a row in it.
    #[inline]
    pub fn accepts(self, o: Ordering) -> bool {
        match self {
            BinaryOp::Eq => o == Ordering::Equal,
            BinaryOp::NotEq => o != Ordering::Equal,
            BinaryOp::Lt => o == Ordering::Less,
            BinaryOp::LtEq => o != Ordering::Greater,
            BinaryOp::Gt => o == Ordering::Greater,
            BinaryOp::GtEq => o != Ordering::Less,
            _ => unreachable!("{self:?} is not a comparison"),
        }
    }

    /// True for `AND` / `OR`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// True for arithmetic operators.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div
        )
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// SQL aggregate functions over a group of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)` — rows, or rows with a non-NULL argument.
    Count,
    /// `SUM(expr)` — NULL over an all-NULL (or empty) group.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)` — always a FLOAT; NULL over an all-NULL group.
    Avg,
}

impl AggFunc {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// Recognize an aggregate function name (case-insensitive).
    pub fn parse(name: &str) -> Option<AggFunc> {
        [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ]
        .into_iter()
        .find(|f| name.eq_ignore_ascii_case(f.name()))
    }

    /// Result type given the argument type (`None` for `COUNT(*)` or an
    /// argument whose type is unknown).
    pub fn result_type(self, arg: Option<csq_common::DataType>) -> csq_common::DataType {
        use csq_common::DataType;
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Int),
        }
    }
}

/// A logical scalar expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant.
    Literal(Value),
    /// A column reference.
    Column(ColumnRef),
    /// Unary operation.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operation.
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// A user-defined function call `name(args...)`. Whether it is
    /// client-site is a property of the registered function, not the syntax.
    Udf { name: String, args: Vec<Expr> },
    /// An aggregate call `FUNC(expr)` / `COUNT(*)` (`arg` is `None`).
    /// Only meaningful in SELECT items and HAVING; the planner rewrites
    /// every call into a reference to its synthetic result column.
    Aggregate {
        func: AggFunc,
        arg: Option<Box<Expr>>,
    },
}

impl Expr {
    /// `left op right` convenience constructor.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// A qualified column expression.
    pub fn col(qualifier: &str, name: &str) -> Expr {
        Expr::Column(ColumnRef::qualified(qualifier, name))
    }

    /// An unqualified column expression.
    pub fn col_bare(name: &str) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    /// A literal expression.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// A UDF call expression.
    pub fn udf(name: &str, args: Vec<Expr>) -> Expr {
        Expr::Udf {
            name: name.to_string(),
            args,
        }
    }

    /// An aggregate call expression (`arg = None` is `COUNT(*)`).
    pub fn agg(func: AggFunc, arg: Option<Expr>) -> Expr {
        Expr::Aggregate {
            func,
            arg: arg.map(Box::new),
        }
    }

    /// `AND` of two expressions.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(self, BinaryOp::And, other)
    }

    /// Depth-first walk over this expression and all children.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Udf { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
        }
    }

    /// Rewrite every node bottom-up with `f`.
    pub fn rewrite(self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Literal(_) | Expr::Column(_) => self,
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(expr.rewrite(f)),
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(left.rewrite(f)),
                op,
                right: Box::new(right.rewrite(f)),
            },
            Expr::Udf { name, args } => Expr::Udf {
                name,
                args: args.into_iter().map(|a| a.rewrite(f)).collect(),
            },
            Expr::Aggregate { func, arg } => Expr::Aggregate {
                func,
                arg: arg.map(|a| Box::new(a.rewrite(f))),
            },
        };
        f(rebuilt)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "NOT ({expr})"),
                UnaryOp::Neg => write!(f, "-({expr})"),
            },
            Expr::Binary { left, op, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            Expr::Udf { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Aggregate { func, arg } => match arg {
                Some(a) => write!(f, "{}({a})", func.name()),
                None => write!(f, "{}(*)", func.name()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_roundtrips_shape() {
        let e = Expr::binary(
            Expr::binary(
                Expr::col("S", "Change"),
                BinaryOp::Div,
                Expr::col("S", "Close"),
            ),
            BinaryOp::Gt,
            Expr::lit(0.2),
        );
        assert_eq!(e.to_string(), "((S.Change / S.Close) > 0.2)");
    }

    #[test]
    fn udf_display() {
        let e = Expr::binary(
            Expr::udf("ClientAnalysis", vec![Expr::col("S", "Quotes")]),
            BinaryOp::Gt,
            Expr::lit(500i64),
        );
        assert_eq!(e.to_string(), "(ClientAnalysis(S.Quotes) > 500)");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::udf("f", vec![Expr::col_bare("a"), Expr::lit(1i64)]).and(Expr::lit(true));
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 5); // and, udf, a, 1, true
    }

    #[test]
    fn rewrite_replaces_columns() {
        let e = Expr::col_bare("a").and(Expr::col_bare("b"));
        let rewritten = e.rewrite(&|x| match x {
            Expr::Column(_) => Expr::lit(true),
            other => other,
        });
        assert_eq!(rewritten.to_string(), "(true AND true)");
    }
}
