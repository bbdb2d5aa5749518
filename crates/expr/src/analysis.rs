//! Expression analysis used by the planner and optimizer.

use std::collections::BTreeSet;

use crate::logical::{BinaryOp, ColumnRef, Expr};

/// Split a predicate into its top-level AND conjuncts.
///
/// `a AND (b AND c)` → `[a, b, c]`. OR is never split.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    collect_conjuncts(expr, &mut out);
    out
}

fn collect_conjuncts(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
}

/// Re-assemble conjuncts into a single predicate (`None` if empty).
pub fn conjoin(conjuncts: Vec<Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(Expr::and)
}

/// All column references in the expression (sorted, deduplicated).
pub fn columns_referenced(expr: &Expr) -> BTreeSet<ColumnRef> {
    let mut out = BTreeSet::new();
    expr.walk(&mut |e| {
        if let Expr::Column(c) = e {
            out.insert(c.clone());
        }
    });
    out
}

/// True when the expression contains at least one UDF call.
pub fn contains_udf(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Udf { .. }) {
            found = true;
        }
    });
    found
}

/// True when the expression contains at least one aggregate call.
/// (Grouping validation itself runs on the planner's *rewritten*
/// expressions — aggregate calls already replaced by `$aN` references — so
/// plain [`columns_referenced`] covers the "outside aggregates" check.)
pub fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = false;
    expr.walk(&mut |e| {
        if matches!(e, Expr::Aggregate { .. }) {
            found = true;
        }
    });
    found
}

/// Heuristic selectivity for a predicate, used when no explicit annotation is
/// available. Mirrors the classic System-R defaults.
pub fn estimate_selectivity(expr: &Expr) -> f64 {
    match expr {
        Expr::Literal(csq_common::Value::Bool(true)) => 1.0,
        Expr::Literal(csq_common::Value::Bool(false)) => 0.0,
        Expr::Binary { op, left, right } => match op {
            BinaryOp::Eq => 0.1,
            BinaryOp::NotEq => 0.9,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => 1.0 / 3.0,
            BinaryOp::And => estimate_selectivity(left) * estimate_selectivity(right),
            BinaryOp::Or => {
                let (l, r) = (estimate_selectivity(left), estimate_selectivity(right));
                (l + r - l * r).clamp(0.0, 1.0)
            }
            _ => 1.0,
        },
        Expr::Unary {
            op: crate::logical::UnaryOp::Not,
            expr,
        } => 1.0 - estimate_selectivity(expr),
        _ => 0.5,
    }
}

/// If `expr` is an equi-comparison between exactly two columns from two
/// different qualifier sets, return the pair — used to recognize join
/// predicates like `S.Name = E.CompanyName`.
pub fn as_equijoin(expr: &Expr) -> Option<(ColumnRef, ColumnRef)> {
    if let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = expr
    {
        if let (Expr::Column(l), Expr::Column(r)) = (left.as_ref(), right.as_ref()) {
            return Some((l.clone(), r.clone()));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::Expr;

    fn fig1_where() -> Expr {
        // S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500
        let simple = Expr::binary(
            Expr::binary(
                Expr::col("S", "Change"),
                BinaryOp::Div,
                Expr::col("S", "Close"),
            ),
            BinaryOp::Gt,
            Expr::lit(0.2),
        );
        let udf = Expr::binary(
            Expr::udf("ClientAnalysis", vec![Expr::col("S", "Quotes")]),
            BinaryOp::Gt,
            Expr::lit(500i64),
        );
        simple.and(udf)
    }

    #[test]
    fn split_conjuncts_flattens() {
        let cs = split_conjuncts(&fig1_where());
        assert_eq!(cs.len(), 2);
        assert!(!contains_udf(&cs[0]));
        assert!(contains_udf(&cs[1]));
    }

    #[test]
    fn split_does_not_break_or() {
        let e = Expr::binary(Expr::lit(true), BinaryOp::Or, Expr::lit(false));
        assert_eq!(split_conjuncts(&e).len(), 1);
    }

    #[test]
    fn conjoin_inverts_split() {
        let e = fig1_where();
        let re = conjoin(split_conjuncts(&e)).unwrap();
        assert_eq!(re, e);
    }

    #[test]
    fn columns_and_udfs_collected() {
        let e = fig1_where();
        let cols = columns_referenced(&e);
        assert_eq!(cols.len(), 3);
        assert!(cols.contains(&ColumnRef::qualified("S", "Quotes")));
        assert!(contains_udf(&e));
    }

    #[test]
    fn selectivity_heuristics() {
        let eq = Expr::binary(Expr::col_bare("a"), BinaryOp::Eq, Expr::lit(1i64));
        assert!((estimate_selectivity(&eq) - 0.1).abs() < 1e-12);
        let both = eq.clone().and(eq.clone());
        assert!((estimate_selectivity(&both) - 0.01).abs() < 1e-12);
        let or = Expr::binary(eq.clone(), BinaryOp::Or, eq);
        assert!((estimate_selectivity(&or) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn equijoin_recognized() {
        let e = Expr::binary(
            Expr::col("S", "Name"),
            BinaryOp::Eq,
            Expr::col("E", "CompanyName"),
        );
        let (l, r) = as_equijoin(&e).unwrap();
        assert_eq!(l, ColumnRef::qualified("S", "Name"));
        assert_eq!(r, ColumnRef::qualified("E", "CompanyName"));
        let not_join = Expr::binary(Expr::col("S", "Name"), BinaryOp::Eq, Expr::lit("x"));
        assert!(as_equijoin(&not_join).is_none());
    }
}
