//! Recursive-descent parser.
//!
//! Expression grammar (lowest to highest precedence):
//!
//! ```text
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | cmp_expr
//! cmp_expr   := add_expr ((= | <> | < | <= | > | >=) add_expr)?
//! add_expr   := mul_expr ((+ | -) mul_expr)*
//! mul_expr   := unary ((* | /) unary)*
//! unary      := - unary | primary
//! primary    := literal | ident args? | ident.ident | ( or_expr )
//! ```

use csq_common::{CsqError, DataType, Result, Value};
use csq_expr::{analysis, AggFunc, BinaryOp, ColumnRef, Expr, UnaryOp};

use crate::ast::{SelectItem, SelectStmt, Statement, TableRef};
use crate::lexer::{tokenize, Token, TokenKind};

/// Parse a single statement (an optional trailing `;` is allowed).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let mut p = Parser::new(src)?;
    let stmt = p.statement()?;
    p.eat_if(&TokenKind::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script: each statement with its own text, the
/// source from its first token up to the `;` or the end that closes it,
/// trailing whitespace trimmed.
pub fn parse_statements(src: &str) -> Result<Vec<(Statement, &str)>> {
    let mut p = Parser::new(src)?;
    let mut out = Vec::new();
    loop {
        while p.eat_if(&TokenKind::Semicolon) {}
        if p.peek_kind() == &TokenKind::Eof {
            break;
        }
        let start = p.peek().offset;
        let stmt = p.statement()?;
        out.push((stmt, src[start..p.peek().offset].trim_end()));
        if p.peek_kind() != &TokenKind::Eof && !p.eat_if(&TokenKind::Semicolon) {
            return Err(p.err_here("expected ';' between statements"));
        }
    }
    Ok(out)
}

/// Parse a standalone scalar expression (used by tests and the REPL-ish API).
pub fn parse_expression(src: &str) -> Result<Expr> {
    let mut p = Parser::new(src)?;
    let e = p.or_expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Parser<'a>> {
        Ok(Parser {
            src,
            tokens: tokenize(src)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_if(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_kind().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<Token> {
        if self.peek_kind() == kind {
            Ok(self.advance())
        } else {
            Err(self.err_here(&format!("expected {what}")))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err_here(&format!("expected keyword {kw}")))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String> {
        match self.peek_kind().clone() {
            TokenKind::Ident(s) if !is_reserved(&s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.err_here(&format!("expected {what}"))),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek_kind() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(self.err_here("unexpected trailing input"))
        }
    }

    fn err_here(&self, msg: &str) -> CsqError {
        let t = self.peek();
        crate::lexer::err_at(self.src, t.offset, &format!("{msg} (found {:?})", t.kind))
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kind().is_keyword("CREATE") {
            self.create_table()
        } else if self.peek_kind().is_keyword("INSERT") {
            self.insert()
        } else if self.peek_kind().is_keyword("SELECT") {
            Ok(Statement::Select(self.select()?))
        } else {
            Err(self.err_here("expected CREATE, INSERT, or SELECT"))
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let name = self.expect_ident("table name")?;
        self.expect(&TokenKind::LParen, "'('")?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident("column name")?;
            let ty_name = self.expect_ident("type name")?;
            let dtype = DataType::parse(&ty_name)?;
            columns.push((col, dtype));
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "')'")?;
        if columns.is_empty() {
            return Err(CsqError::Parse(
                "CREATE TABLE needs at least one column".into(),
            ));
        }
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.expect_ident("table name")?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&TokenKind::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.or_expr()?);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "')'")?;
            rows.push(row);
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let mut items = Vec::new();
        loop {
            if self.eat_if(&TokenKind::Star) {
                items.push(SelectItem::Wildcard);
            } else {
                let expr = self.or_expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.expect_ident("output alias")?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let mut from = Vec::new();
        loop {
            let name = self.expect_ident("table name")?;
            // Optional alias: a bare identifier that isn't a clause keyword.
            let alias = match self.peek_kind() {
                TokenKind::Ident(s) if !is_reserved(s) => {
                    let a = s.clone();
                    self.advance();
                    a
                }
                _ => name.clone(),
            };
            from.push(TableRef { name, alias });
            if !self.eat_if(&TokenKind::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.or_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                let e = self.or_expr()?;
                if analysis::contains_aggregate(&e) {
                    return Err(self.err_here("aggregate calls are not allowed in GROUP BY"));
                }
                group_by.push(e);
                if !self.eat_if(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.or_expr()?)
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_clause,
            group_by,
            having,
        })
    }

    // ---- expressions -----------------------------------------------------

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            })
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek_kind() {
            TokenKind::Eq => Some(BinaryOp::Eq),
            TokenKind::NotEq => Some(BinaryOp::NotEq),
            TokenKind::Lt => Some(BinaryOp::Lt),
            TokenKind::LtEq => Some(BinaryOp::LtEq),
            TokenKind::Gt => Some(BinaryOp::Gt),
            TokenKind::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.add_expr()?;
            Ok(Expr::binary(left, op, right))
        } else {
            Ok(left)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Plus => BinaryOp::Add,
                TokenKind::Minus => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.mul_expr()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinaryOp::Mul,
                TokenKind::Slash => BinaryOp::Div,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_if(&TokenKind::Minus) {
            let inner = self.unary()?;
            // Fold negation of numeric literals so INSERT can use -5 directly.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek_kind().clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(i)))
            }
            TokenKind::Float(f) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(f)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::from(s)))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.or_expr()?;
                self.expect(&TokenKind::RParen, "')'")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                if name.eq_ignore_ascii_case("TRUE") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if name.eq_ignore_ascii_case("FALSE") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if name.eq_ignore_ascii_case("NULL") {
                    self.advance();
                    return Ok(Expr::Literal(Value::Null));
                }
                if is_reserved(&name) {
                    return Err(self.err_here("expected expression"));
                }
                self.advance();
                // Aggregate call? (COUNT/SUM/MIN/MAX/AVG are contextual:
                // only special when directly followed by an argument list.)
                if let Some(func) = AggFunc::parse(&name) {
                    if self.peek_kind() == &TokenKind::LParen {
                        return self.aggregate_call(func);
                    }
                }
                // Function call?
                if self.eat_if(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if self.peek_kind() != &TokenKind::RParen {
                        loop {
                            args.push(self.or_expr()?);
                            if !self.eat_if(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen, "')'")?;
                    return Ok(Expr::Udf { name, args });
                }
                // Qualified column?
                if self.eat_if(&TokenKind::Dot) {
                    let col = self.expect_ident("column name")?;
                    return Ok(Expr::Column(ColumnRef::qualified(name, col)));
                }
                Ok(Expr::Column(ColumnRef::bare(name)))
            }
            _ => Err(self.err_here("expected expression")),
        }
    }

    /// Parse the argument list of an aggregate call; the name and the
    /// lookahead `(` have already been seen.
    fn aggregate_call(&mut self, func: AggFunc) -> Result<Expr> {
        self.expect(&TokenKind::LParen, "'('")?;
        // COUNT(*) — the only aggregate that takes `*`.
        if func == AggFunc::Count && self.eat_if(&TokenKind::Star) {
            self.expect(&TokenKind::RParen, "')'")?;
            return Ok(Expr::agg(AggFunc::Count, None));
        }
        if self.peek_kind() == &TokenKind::RParen {
            return Err(self.err_here(&format!(
                "{} takes exactly one argument (or * for COUNT)",
                func.name()
            )));
        }
        let arg = self.or_expr()?;
        if analysis::contains_aggregate(&arg) {
            return Err(self.err_here(&format!(
                "aggregate calls cannot be nested inside {}",
                func.name()
            )));
        }
        if self.eat_if(&TokenKind::Comma) {
            return Err(self.err_here(&format!("{} takes exactly one argument", func.name())));
        }
        self.expect(&TokenKind::RParen, "')'")?;
        Ok(Expr::agg(func, Some(arg)))
    }
}

/// Keywords that cannot be identifiers (kept minimal so e.g. `Name` works).
fn is_reserved(s: &str) -> bool {
    const KW: &[&str] = &[
        "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "AS", "CREATE", "TABLE", "INSERT", "INTO",
        "VALUES", "TRUE", "FALSE", "NULL", "GROUP", "BY", "HAVING",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SelectItem;

    #[test]
    fn parses_figure1_query() {
        let stmt = parse_statement(
            "SELECT S.Name, S.Report \
             FROM StockQuotes S \
             WHERE S.Change / S.Close > 0.2 AND ClientAnalysis(S.Quotes) > 500",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!("expected SELECT")
        };
        assert_eq!(sel.items.len(), 2);
        assert_eq!(
            sel.from,
            vec![TableRef {
                name: "StockQuotes".into(),
                alias: "S".into()
            }]
        );
        let w = sel.where_clause.unwrap();
        assert_eq!(
            w.to_string(),
            "(((S.Change / S.Close) > 0.2) AND (ClientAnalysis(S.Quotes) > 500))"
        );
    }

    #[test]
    fn parses_figure11_two_table_query() {
        let stmt = parse_statement(
            "SELECT S.Name, E.BrokerName \
             FROM StockQuotes S, Estimations E \
             WHERE S.Name = E.CompanyName AND ClientAnalysis(S.Quotes) = E.Rating",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.from.len(), 2);
        assert_eq!(sel.from[1].alias, "E");
    }

    #[test]
    fn parses_udf_in_select_list() {
        // The Volatility extension of Section 5.1.2.
        let stmt = parse_statement(
            "SELECT S.Name, Volatility(S.Quotes, S.FuturePrices) FROM StockQuotes S",
        )
        .unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        match &sel.items[1] {
            SelectItem::Expr { expr, .. } => {
                assert_eq!(expr.to_string(), "Volatility(S.Quotes, S.FuturePrices)");
            }
            _ => panic!("expected expression item"),
        }
    }

    #[test]
    fn select_star_and_alias() {
        let stmt = parse_statement("SELECT *, Close AS c FROM q").unwrap();
        let Statement::Select(sel) = stmt else {
            panic!()
        };
        assert_eq!(sel.items[0], SelectItem::Wildcard);
        match &sel.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("c")),
            _ => panic!(),
        }
        assert_eq!(sel.from[0].alias, "q");
    }

    #[test]
    fn create_table_parses_types() {
        let stmt =
            parse_statement("CREATE TABLE t (a INT, b FLOAT, c STRING, d BLOB, e BOOL)").unwrap();
        let Statement::CreateTable { name, columns } = stmt else {
            panic!()
        };
        assert_eq!(name, "t");
        assert_eq!(columns.len(), 5);
        assert_eq!(columns[3].1, DataType::Blob);
    }

    #[test]
    fn insert_multi_row_with_negatives() {
        let stmt = parse_statement("INSERT INTO t VALUES (1, -2.5, 'x'), (-3, 4.0, NULL)").unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][1], Expr::Literal(Value::Float(-2.5)));
        assert_eq!(rows[1][0], Expr::Literal(Value::Int(-3)));
        assert_eq!(rows[1][2], Expr::Literal(Value::Null));
    }

    #[test]
    fn precedence_and_parens() {
        let e = parse_expression("1 + 2 * 3 > 6 AND NOT false OR a = b").unwrap();
        assert_eq!(
            e.to_string(),
            "((((1 + (2 * 3)) > 6) AND NOT (false)) OR (a = b))"
        );
        let e = parse_expression("(1 + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "((1 + 2) * 3)");
    }

    #[test]
    fn script_parsing() {
        let stmts =
            parse_statements("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
        let texts: Vec<&str> = stmts.iter().map(|(_, text)| *text).collect();
        assert_eq!(
            texts,
            [
                "CREATE TABLE t (a INT)",
                "INSERT INTO t VALUES (1)",
                "SELECT a FROM t"
            ]
        );
        for (stmt, text) in &stmts {
            assert_eq!(&parse_statement(text).unwrap(), stmt);
        }
    }

    #[test]
    fn errors_carry_positions() {
        let e = parse_statement("SELECT FROM t").unwrap_err();
        assert_eq!(e.kind(), "parse");
        assert!(e.message().contains("line 1"), "{}", e.message());
        assert!(parse_statement("SELECT a FROM").is_err());
        assert!(parse_statement("CREATE TABLE t ()").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("SELECT a FROM t extra garbage here").is_err());
    }

    #[test]
    fn reserved_words_cannot_be_identifiers() {
        assert!(parse_statement("SELECT a FROM select").is_err());
    }

    #[test]
    fn function_with_no_args() {
        let e = parse_expression("now()").unwrap();
        assert_eq!(e, Expr::udf("now", vec![]));
    }
}
