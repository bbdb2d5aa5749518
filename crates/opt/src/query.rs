//! Query-graph extraction: relations and UDF calls become *units*,
//! predicates are classified by the units they require, and every
//! client-site UDF call in the query text is replaced by a reference to its
//! synthetic result column.

use std::collections::BTreeSet;

use csq_common::{CsqError, Result};
use csq_expr::{analysis, AggFunc, ColumnRef, Expr};
use csq_sql::ast::{SelectItem, SelectStmt};

use crate::context::{OptContext, TableStats, UdfMeta};

/// One optimization unit: a base relation or a client-site UDF call
/// (a virtual join with the UDF's virtual table, §2.2).
#[derive(Debug, Clone)]
pub enum Unit {
    /// A base relation from the FROM clause.
    Rel {
        /// FROM alias.
        alias: String,
        /// Catalog table name.
        table: String,
        /// Statistics snapshot.
        stats: TableStats,
    },
    /// A client-site UDF call.
    Udf {
        /// Registered name.
        name: String,
        /// Metadata (result size, selectivity).
        meta: UdfMeta,
        /// Argument columns (qualified, or references to other UDFs'
        /// synthetic result columns).
        args: Vec<ColumnRef>,
        /// Synthetic result column name (`$u0`, `$u1`, ...).
        result_col: String,
    },
}

impl Unit {
    /// Display label for EXPLAIN output.
    pub fn label(&self) -> String {
        match self {
            Unit::Rel { alias, table, .. } => {
                if alias.eq_ignore_ascii_case(table) {
                    table.clone()
                } else {
                    format!("{table} {alias}")
                }
            }
            Unit::Udf { name, args, .. } => {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                format!("{name}({})", args.join(", "))
            }
        }
    }
}

/// A classified predicate.
#[derive(Debug, Clone)]
pub struct PredInfo {
    /// The (UDF-rewritten) predicate expression.
    pub expr: Expr,
    /// Bitmask of units whose columns it references (must all be applied
    /// before the predicate can be evaluated anywhere).
    pub required: u64,
    /// Estimated selectivity.
    pub selectivity: f64,
    /// True when it references at least one UDF result column — these are
    /// the *pushable predicate* candidates of §2.
    pub references_udf: bool,
}

/// One aggregate call of a grouped query, rewritten into a synthetic
/// result-column reference (`$a0`, `$a1`, ...).
#[derive(Debug, Clone)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` = `COUNT(*)`); plain scalar, no UDFs.
    pub arg: Option<Expr>,
    /// Synthetic result column name.
    pub result_col: String,
}

/// The grouped-aggregation layer of a query: extracted GROUP BY keys,
/// aggregate calls, HAVING, and the final (post-aggregation) SELECT list.
/// The graph's own [`QueryGraph::output`] holds the *pre-aggregation*
/// columns (group keys + aggregate argument columns) the inner plan must
/// produce; the placement of the partial phase is the optimizer's choice
/// ([`crate::dp::optimize`]).
#[derive(Debug, Clone)]
pub struct AggregateSpec {
    /// Grouping columns (canonicalized to `alias.name`).
    pub group_by: Vec<ColumnRef>,
    /// Aggregate calls in result-column order.
    pub calls: Vec<AggCall>,
    /// HAVING predicate over group columns and `$aN` references.
    pub having: Option<Expr>,
    /// Final SELECT list over group columns and `$aN` references, with
    /// display names.
    pub output: Vec<(Expr, String)>,
}

/// The extracted query: units, predicates, output.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    /// Relations first, then UDF units.
    pub units: Vec<Unit>,
    /// How many leading units are relations.
    pub n_rels: usize,
    /// Classified WHERE conjuncts.
    pub predicates: Vec<PredInfo>,
    /// Output expressions (UDF-rewritten) with display names. For grouped
    /// queries these are the *pre-aggregation* columns (group keys +
    /// aggregate arguments); the post-aggregation list lives in
    /// [`QueryGraph::aggregate`].
    pub output: Vec<(Expr, String)>,
    /// The grouped-aggregation layer, when the query has GROUP BY/HAVING or
    /// aggregate calls.
    pub aggregate: Option<AggregateSpec>,
}

impl QueryGraph {
    /// Total number of units.
    pub fn n_units(&self) -> usize {
        self.units.len()
    }

    /// Bitmask with every unit set.
    pub fn full_mask(&self) -> u64 {
        (1u64 << self.units.len()) - 1
    }

    /// The unit index owning a column reference, if any.
    pub fn owner_of(&self, col: &ColumnRef) -> Option<usize> {
        // Synthetic UDF result columns.
        for (i, u) in self.units.iter().enumerate() {
            if let Unit::Udf { result_col, .. } = u {
                if col.qualifier.is_none() && col.name == *result_col {
                    return Some(i);
                }
            }
        }
        // Relation columns by qualifier, then by unique name.
        if let Some(q) = &col.qualifier {
            for (i, u) in self.units.iter().enumerate() {
                if let Unit::Rel { alias, .. } = u {
                    if alias.eq_ignore_ascii_case(q) {
                        return Some(i);
                    }
                }
            }
            return None;
        }
        let mut found = None;
        for (i, u) in self.units.iter().enumerate() {
            if let Unit::Rel { stats, .. } = u {
                if stats.schema.index_of(None, &col.name).is_ok() {
                    if found.is_some() {
                        return None; // ambiguous
                    }
                    found = Some(i);
                }
            }
        }
        found
    }

    /// Bitmask of units required by an expression.
    pub fn required_units(&self, expr: &Expr) -> Result<u64> {
        let mut mask = 0u64;
        for col in analysis::columns_referenced(expr) {
            let owner = self
                .owner_of(&col)
                .ok_or_else(|| CsqError::Plan(format!("unresolvable column '{col}' in query")))?;
            mask |= 1 << owner;
            // A UDF result reference also requires the UDF's prerequisites;
            // handled transitively by the DP (the UDF unit itself encodes
            // them), so the direct bit is enough here.
        }
        Ok(mask)
    }

    /// Prerequisite mask of a unit: relations providing a UDF's argument
    /// columns plus any UDF units whose results it consumes. Relations have
    /// no prerequisites.
    pub fn prereq_mask(&self, unit: usize) -> u64 {
        match &self.units[unit] {
            Unit::Rel { .. } => 0,
            Unit::Udf { args, .. } => {
                let mut mask = 0u64;
                for a in args {
                    if let Some(o) = self.owner_of(a) {
                        mask |= 1 << o;
                        mask |= self.prereq_mask(o);
                    }
                }
                mask
            }
        }
    }

    /// Average wire size of a column, bytes.
    pub fn col_bytes(&self, col: &ColumnRef) -> f64 {
        match self.owner_of(col) {
            Some(i) => match &self.units[i] {
                Unit::Rel { stats, .. } => stats
                    .schema
                    .index_of(None, &col.name)
                    .map(|idx| stats.col_bytes[idx])
                    .unwrap_or(16.0),
                Unit::Udf { meta, .. } => meta.result_bytes,
            },
            None => 16.0,
        }
    }

    /// The SELECT list execution projects onto: the post-aggregation list
    /// for grouped queries, the plain output otherwise.
    pub fn final_output(&self) -> &[(Expr, String)] {
        match &self.aggregate {
            Some(a) => &a.output,
            None => &self.output,
        }
    }

    /// Canonical display name of a column reference: bare relation columns
    /// resolve to `alias.name`, UDF results to their synthetic column.
    pub fn canonical_name(&self, c: &ColumnRef) -> String {
        if c.qualifier.is_some() {
            return c.to_string();
        }
        if let Some(i) = self.owner_of(c) {
            match &self.units[i] {
                Unit::Udf { result_col, .. } => result_col.clone(),
                Unit::Rel { alias, .. } => format!("{alias}.{}", c.name),
            }
        } else {
            c.to_string()
        }
    }

    /// All columns referenced by the output and by predicates/UDF args not
    /// yet applied — what later stages still need.
    pub fn needed_columns(&self, applied_preds: u64, applied_units: u64) -> BTreeSet<ColumnRef> {
        let mut need = BTreeSet::new();
        for (e, _) in &self.output {
            need.extend(analysis::columns_referenced(e));
        }
        for (pi, p) in self.predicates.iter().enumerate() {
            if applied_preds & (1 << pi) == 0 {
                need.extend(analysis::columns_referenced(&p.expr));
            }
        }
        for (ui, u) in self.units.iter().enumerate() {
            if applied_units & (1 << ui) == 0 {
                if let Unit::Udf { args, .. } = u {
                    need.extend(args.iter().cloned());
                }
            }
        }
        need
    }
}

/// Extract aggregate calls bottom-up, replacing each with a reference to
/// its synthetic result column (identical calls share one column).
fn extract_aggs(e: Expr, calls: &mut Vec<AggCall>) -> Result<Expr> {
    Ok(match e {
        Expr::Aggregate { func, arg } => {
            let arg = arg.map(|a| *a);
            if let Some(a) = &arg {
                if analysis::contains_aggregate(a) {
                    return Err(CsqError::Plan(format!(
                        "aggregate calls cannot be nested inside {}",
                        func.name()
                    )));
                }
                if analysis::contains_udf(a) {
                    return Err(CsqError::Plan(format!(
                        "client-site UDF calls inside {} arguments are unsupported",
                        func.name()
                    )));
                }
            }
            for c in calls.iter() {
                if c.func == func
                    && c.arg.as_ref().map(|x| x.to_string()) == arg.as_ref().map(|x| x.to_string())
                {
                    return Ok(Expr::Column(ColumnRef::bare(c.result_col.clone())));
                }
            }
            let result_col = format!("$a{}", calls.len());
            calls.push(AggCall {
                func,
                arg,
                result_col: result_col.clone(),
            });
            Expr::Column(ColumnRef::bare(result_col))
        }
        Expr::Literal(_) | Expr::Column(_) => e,
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(extract_aggs(*expr, calls)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(extract_aggs(*left, calls)?),
            op,
            right: Box::new(extract_aggs(*right, calls)?),
        },
        Expr::Udf { name, args } => Expr::Udf {
            name,
            args: args
                .into_iter()
                .map(|a| extract_aggs(a, calls))
                .collect::<Result<_>>()?,
        },
    })
}

/// Extract the query graph from a parsed SELECT, rewriting client-site UDF
/// calls into synthetic result-column references.
pub fn extract(stmt: &SelectStmt, ctx: &OptContext) -> Result<QueryGraph> {
    // Relations.
    let mut units = Vec::new();
    for t in &stmt.from {
        let stats = ctx.table(&t.name)?.clone();
        units.push(Unit::Rel {
            alias: t.alias.clone(),
            table: t.name.clone(),
            stats,
        });
    }
    let n_rels = units.len();

    let agg_mode = !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || stmt.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => analysis::contains_aggregate(expr),
            SelectItem::Wildcard => false,
        });
    if stmt.having.is_some() && stmt.group_by.is_empty() {
        return Err(CsqError::Plan("HAVING requires a GROUP BY clause".into()));
    }
    if let Some(w) = &stmt.where_clause {
        if analysis::contains_aggregate(w) {
            return Err(CsqError::Plan(
                "aggregate calls are not allowed in WHERE (use HAVING)".into(),
            ));
        }
    }

    // Walk every expression, extracting client UDF calls bottom-up.
    let mut udf_units: Vec<Unit> = Vec::new();
    let mut rewrite = |e: &Expr| -> Result<Expr> { extract_udfs(e.clone(), ctx, &mut udf_units) };

    // In aggregate mode the SELECT list and HAVING are rewritten over
    // synthetic aggregate result columns; the graph's own output becomes
    // the pre-aggregation columns the inner plan must produce.
    let mut agg_calls: Vec<AggCall> = Vec::new();
    let mut agg_final: Vec<(Expr, String)> = Vec::new();
    let mut agg_having: Option<Expr> = None;

    let mut output = Vec::new();
    if agg_mode {
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(CsqError::Plan(
                        "SELECT * cannot be combined with GROUP BY or aggregates".into(),
                    ));
                }
                SelectItem::Expr { expr, alias } => {
                    let rewritten = extract_aggs(expr.clone(), &mut agg_calls)?;
                    if analysis::contains_udf(&rewritten) {
                        return Err(CsqError::Plan(
                            "client-site UDF calls in a grouped SELECT list are unsupported \
                             (apply the UDF in WHERE or a subquery-free projection instead)"
                                .into(),
                        ));
                    }
                    let name = alias.clone().unwrap_or_else(|| expr.to_string());
                    agg_final.push((rewritten, name));
                }
            }
        }
        if let Some(h) = &stmt.having {
            let rewritten = extract_aggs(h.clone(), &mut agg_calls)?;
            if analysis::contains_udf(&rewritten) {
                return Err(CsqError::Plan(
                    "client-site UDF calls in HAVING are unsupported".into(),
                ));
            }
            agg_having = Some(rewritten);
        }
    } else {
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    for u in &units {
                        if let Unit::Rel { alias, stats, .. } = u {
                            for f in stats.schema.fields() {
                                output.push((
                                    Expr::Column(ColumnRef::qualified(
                                        alias.clone(),
                                        f.name.clone(),
                                    )),
                                    f.name.clone(),
                                ));
                            }
                        }
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let rewritten = rewrite(expr)?;
                    let name = alias.clone().unwrap_or_else(|| expr.to_string());
                    output.push((rewritten, name));
                }
            }
        }
    }

    let mut conjuncts = Vec::new();
    if let Some(w) = &stmt.where_clause {
        for c in analysis::split_conjuncts(w) {
            conjuncts.push(rewrite(&c)?);
        }
    }

    units.extend(udf_units);

    let mut graph_partial = QueryGraph {
        units,
        n_rels,
        predicates: vec![],
        output,
        aggregate: None,
    };

    if agg_mode {
        // Canonicalize the grouping columns and validate that every
        // non-aggregate reference in the SELECT list / HAVING is grouped.
        let mut group_by = Vec::new();
        let mut group_set = BTreeSet::new();
        for e in &stmt.group_by {
            let Expr::Column(c) = e else {
                return Err(CsqError::Plan(format!(
                    "GROUP BY expressions must be plain columns, got '{e}'"
                )));
            };
            let Some(owner) = graph_partial.owner_of(c) else {
                return Err(CsqError::Plan(format!(
                    "unresolvable column '{c}' in GROUP BY"
                )));
            };
            let Unit::Rel { alias, .. } = &graph_partial.units[owner] else {
                return Err(CsqError::Plan(format!(
                    "GROUP BY column '{c}' must come from a base relation"
                )));
            };
            let canon = ColumnRef::qualified(alias.clone(), c.name.clone());
            // Duplicate keys (`GROUP BY t.k, t.k` or `t.k, k`) are legal
            // SQL and group identically — keep one.
            if group_set.insert(canon.to_string()) {
                group_by.push(canon);
            }
        }
        let result_cols: BTreeSet<&str> = agg_calls.iter().map(|c| c.result_col.as_str()).collect();
        let check_grouped = |e: &Expr| -> Result<()> {
            for c in analysis::columns_referenced(e) {
                if c.qualifier.is_none() && result_cols.contains(c.name.as_str()) {
                    continue;
                }
                if !group_set.contains(&graph_partial.canonical_name(&c)) {
                    return Err(CsqError::Plan(format!(
                        "column '{c}' must appear in GROUP BY or inside an aggregate"
                    )));
                }
            }
            Ok(())
        };
        for (e, _) in &agg_final {
            check_grouped(e)?;
        }
        if let Some(h) = &agg_having {
            check_grouped(h)?;
        }

        // Pre-aggregation output: group keys + aggregate argument columns.
        let mut pre = Vec::new();
        let mut seen = BTreeSet::new();
        for g in &group_by {
            if seen.insert(g.to_string()) {
                pre.push((Expr::Column(g.clone()), g.to_string()));
            }
        }
        for call in &agg_calls {
            if let Some(a) = &call.arg {
                for c in analysis::columns_referenced(a) {
                    let canon = graph_partial.canonical_name(&c);
                    if seen.insert(canon.clone()) {
                        pre.push((Expr::Column(c), canon));
                    }
                }
            }
        }
        graph_partial.output = pre;
        graph_partial.aggregate = Some(AggregateSpec {
            group_by,
            calls: agg_calls,
            having: agg_having,
            output: agg_final,
        });
    }

    let mut predicates = Vec::new();
    for c in conjuncts {
        let required = graph_partial.required_units(&c)?;
        let references_udf = {
            let mut refs = false;
            for col in analysis::columns_referenced(&c) {
                if let Some(i) = graph_partial.owner_of(&col) {
                    if matches!(graph_partial.units[i], Unit::Udf { .. }) {
                        refs = true;
                    }
                }
            }
            refs
        };
        let selectivity = estimate_pred_selectivity(&c, &graph_partial, ctx);
        predicates.push(PredInfo {
            expr: c,
            required,
            selectivity,
            references_udf,
        });
    }

    let mut graph = graph_partial;
    graph.predicates = predicates;

    // Validate output columns resolve.
    for (e, _) in &graph.output {
        graph.required_units(e)?;
    }
    Ok(graph)
}

/// Recursively extract client-site UDF calls, appending units and replacing
/// calls with synthetic column references. Non-client UDFs are rejected
/// (this system optimizes client-site extensions; server UDFs would be a
/// different code path).
fn extract_udfs(e: Expr, ctx: &OptContext, units: &mut Vec<Unit>) -> Result<Expr> {
    Ok(match e {
        Expr::Udf { name, args } => {
            if !ctx.is_client_udf(&name) {
                return Err(CsqError::Plan(format!(
                    "unknown or non-client UDF '{name}' (register it with the client \
                     and advertise metadata to the server)"
                )));
            }
            let meta = ctx.udf(&name)?.clone();
            // Arguments must reduce to plain column references (possibly of
            // other UDF results after extraction).
            let mut arg_cols = Vec::with_capacity(args.len());
            for a in args {
                let a = extract_udfs(a, ctx, units)?;
                match a {
                    Expr::Column(c) => arg_cols.push(c),
                    other => {
                        return Err(CsqError::Plan(format!(
                            "UDF '{name}': argument '{other}' is not a plain column; \
                             computed arguments to client-site UDFs are unsupported"
                        )))
                    }
                }
            }
            if meta.arg_types.len() != arg_cols.len() {
                return Err(CsqError::Plan(format!(
                    "UDF '{name}': expected {} arguments, got {}",
                    meta.arg_types.len(),
                    arg_cols.len()
                )));
            }
            // Re-use an existing unit for an identical call (common when
            // the same call appears in SELECT and WHERE).
            for u in units.iter() {
                if let Unit::Udf {
                    name: n,
                    args: a,
                    result_col,
                    ..
                } = u
                {
                    if n.eq_ignore_ascii_case(&name) && *a == arg_cols {
                        return Ok(Expr::Column(ColumnRef::bare(result_col.clone())));
                    }
                }
            }
            let result_col = format!("$u{}", units.len());
            units.push(Unit::Udf {
                name,
                meta,
                args: arg_cols,
                result_col: result_col.clone(),
            });
            Expr::Column(ColumnRef::bare(result_col))
        }
        Expr::Literal(_) | Expr::Column(_) => e,
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(extract_udfs(*expr, ctx, units)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(extract_udfs(*left, ctx, units)?),
            op,
            right: Box::new(extract_udfs(*right, ctx, units)?),
        },
        Expr::Aggregate { func, .. } => {
            // Aggregates are extracted (into `$aN` references) before UDF
            // extraction runs; reaching one here means it sits somewhere
            // aggregates are not allowed (e.g. WHERE).
            return Err(CsqError::Plan(format!(
                "aggregate {} is not allowed here",
                func.name()
            )));
        }
    })
}

/// Selectivity of a rewritten predicate: UDF-result comparisons use the
/// UDF's advertised selectivity; everything else uses the standard
/// heuristics.
fn estimate_pred_selectivity(e: &Expr, graph: &QueryGraph, _ctx: &OptContext) -> f64 {
    // If the predicate references exactly one UDF result and compares it,
    // use that UDF's advertised selectivity.
    let mut udf_sel: Option<f64> = None;
    for col in analysis::columns_referenced(e) {
        if let Some(i) = graph.owner_of(&col) {
            if let Unit::Udf { meta, .. } = &graph.units[i] {
                udf_sel = Some(match udf_sel {
                    None => meta.selectivity,
                    Some(s) => s.min(meta.selectivity),
                });
            }
        }
    }
    match udf_sel {
        Some(s) => s,
        None => analysis::estimate_selectivity(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csq_common::{DataType, Field, Schema};
    use csq_net::NetworkSpec;
    use csq_sql::parse_statement;

    fn ctx() -> OptContext {
        let mut ctx = OptContext::new(NetworkSpec::modem_28_8());
        ctx.add_table(
            "StockQuotes",
            TableStats {
                schema: Schema::new(vec![
                    Field::new("Name", DataType::Str),
                    Field::new("Quotes", DataType::Blob),
                    Field::new("FuturePrices", DataType::Blob),
                    Field::new("Change", DataType::Float),
                    Field::new("Close", DataType::Float),
                ]),
                rows: 100.0,
                row_bytes: 1000.0,
                col_bytes: vec![20.0, 480.0, 482.0, 9.0, 9.0],
                segments: Default::default(),
            },
        );
        ctx.add_table(
            "Estimations",
            TableStats {
                schema: Schema::new(vec![
                    Field::new("CompanyName", DataType::Str),
                    Field::new("BrokerName", DataType::Str),
                    Field::new("Rating", DataType::Int),
                ]),
                rows: 500.0,
                row_bytes: 49.0,
                col_bytes: vec![20.0, 20.0, 9.0],
                segments: Default::default(),
            },
        );
        ctx.add_udf(
            UdfMeta::client("ClientAnalysis", vec![DataType::Blob], DataType::Int)
                .with_result_bytes(9.0)
                .with_selectivity(0.2),
        );
        ctx.add_udf(
            UdfMeta::client(
                "Volatility",
                vec![DataType::Blob, DataType::Blob],
                DataType::Float,
            )
            .with_result_bytes(9.0),
        );
        ctx
    }

    fn fig11() -> SelectStmt {
        let s = parse_statement(
            "SELECT S.Name, E.BrokerName \
             FROM StockQuotes S, Estimations E \
             WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating",
        )
        .unwrap();
        match s {
            csq_sql::Statement::Select(sel) => sel,
            _ => unreachable!(),
        }
    }

    #[test]
    fn fig11_units_and_predicates() {
        let g = extract(&fig11(), &ctx()).unwrap();
        assert_eq!(g.n_rels, 2);
        assert_eq!(g.n_units(), 3);
        assert_eq!(g.units[2].label(), "ClientAnalysis(S.Quotes)");
        assert_eq!(g.predicates.len(), 2);
        // Join predicate requires S and E.
        assert_eq!(g.predicates[0].required, 0b011);
        assert!(!g.predicates[0].references_udf);
        // UDF predicate requires E and the UDF unit.
        assert_eq!(g.predicates[1].required & 0b100, 0b100);
        assert!(g.predicates[1].references_udf);
        // UDF unit prerequisite is S.
        assert_eq!(g.prereq_mask(2), 0b001);
    }

    #[test]
    fn duplicate_udf_calls_share_a_unit() {
        let stmt = parse_statement(
            "SELECT ClientAnalysis(S.Quotes) FROM StockQuotes S \
             WHERE ClientAnalysis(S.Quotes) > 100",
        )
        .unwrap();
        let sel = match stmt {
            csq_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let g = extract(&sel, &ctx()).unwrap();
        assert_eq!(g.n_units(), 2, "one relation + one shared UDF unit");
    }

    #[test]
    fn nested_udfs_create_dependent_units() {
        let stmt = parse_statement(
            "SELECT Volatility(S.Quotes, S.FuturePrices) FROM StockQuotes S \
             WHERE ClientAnalysis(S.Quotes) > 0",
        )
        .unwrap();
        let sel = match stmt {
            csq_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let g = extract(&sel, &ctx()).unwrap();
        assert_eq!(g.n_units(), 3);
        // Both UDFs depend only on S.
        assert_eq!(g.prereq_mask(1), 0b001);
        assert_eq!(g.prereq_mask(2), 0b001);
    }

    #[test]
    fn computed_udf_arguments_rejected() {
        let stmt = parse_statement("SELECT ClientAnalysis(S.Change / S.Close) FROM StockQuotes S")
            .unwrap();
        let sel = match stmt {
            csq_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert_eq!(extract(&sel, &ctx()).unwrap_err().kind(), "plan");
    }

    #[test]
    fn unknown_udf_rejected() {
        let stmt = parse_statement("SELECT Mystery(S.Quotes) FROM StockQuotes S").unwrap();
        let sel = match stmt {
            csq_sql::Statement::Select(s) => s,
            _ => unreachable!(),
        };
        assert_eq!(extract(&sel, &ctx()).unwrap_err().kind(), "plan");
    }

    #[test]
    fn udf_selectivity_used_for_predicates() {
        let g = extract(&fig11(), &ctx()).unwrap();
        // ClientAnalysis advertises 0.2.
        assert!((g.predicates[1].selectivity - 0.2).abs() < 1e-9);
    }

    #[test]
    fn needed_columns_shrink_as_preds_apply() {
        let g = extract(&fig11(), &ctx()).unwrap();
        let all = g.needed_columns(0, 0);
        assert!(all.contains(&ColumnRef::qualified("S", "Quotes")));
        let after = g.needed_columns(0b11, g.full_mask());
        // Only output columns remain.
        assert!(after.contains(&ColumnRef::qualified("S", "Name")));
        assert!(!after.contains(&ColumnRef::qualified("S", "Quotes")));
    }
}
