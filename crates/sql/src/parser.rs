//! Recursive-descent SQL parser, parameterized by dialect.
//!
//! The same token stream parses differently — or not at all — depending on
//! the session dialect, reproducing the paper's "colliding syntaxes"
//! behaviour (§II.C.2): `LIMIT 5` is Netezza/PostgreSQL, `FETCH FIRST 5
//! ROWS ONLY` is ANSI/DB2, `WHERE ROWNUM <= 5` is Oracle; `x::int` only
//! casts under Netezza/PostgreSQL; `FROM DUAL`, `(+)` markers, `CONNECT
//! BY` and `seq.NEXTVAL` only exist under Oracle; `NEXT VALUE FOR seq` and
//! standalone `VALUES` only under DB2.

use crate::ast::*;
use crate::lexer::{tokenize, Token, TokenKind};
use dash_common::dialect::Dialect;
use dash_common::{date, DashError, Datum, Result};

/// Parse one SQL statement under the given dialect.
pub fn parse_statement(sql: &str, dialect: Dialect) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        dialect,
        sql,
    };
    let stmt = p.statement()?;
    p.eat_symbol(";");
    p.expect_eof()?;
    Ok(stmt)
}

/// Split a script into its statements: the source text between top-level
/// `;` tokens, so string literals, quoted identifiers and comments never
/// split. A compound `BEGIN … END` block stays whole; `BEGIN` opens one
/// unless the statement ends right after it or it is `BEGIN WORK` /
/// `BEGIN TRANSACTION` (a transaction start), and `CASE … END` nests
/// inside it. Empty statements are dropped. The whole script is tokenized
/// first, so a script that does not tokenize fails before any statement
/// is returned.
pub fn split_statements(text: &str) -> Result<Vec<String>> {
    let tokens = tokenize(text)?;
    let mut out = Vec::new();
    // Offset of the current statement's first token.
    let mut start: Option<usize> = None;
    let mut depth = 0usize;
    for (k, tok) in tokens.iter().enumerate() {
        let ends = match &tok.kind {
            TokenKind::Eof => true,
            TokenKind::Symbol(";") => depth == 0,
            TokenKind::Ident(w) if w == "BEGIN" => {
                // `Eof` ends every token list, so a next token exists.
                let next = &tokens[k + 1].kind;
                let starts_txn = matches!(next, TokenKind::Symbol(";") | TokenKind::Eof)
                    || matches!(next.ident(), Some("WORK" | "TRANSACTION"));
                depth += !starts_txn as usize;
                false
            }
            TokenKind::Ident(w) if w == "CASE" => {
                depth += 1;
                false
            }
            TokenKind::Ident(w) if w == "END" => {
                depth = depth.saturating_sub(1);
                false
            }
            _ => false,
        };
        if !ends {
            start.get_or_insert(tok.offset);
        } else if let Some(s) = start.take() {
            out.push(text[s..tok.offset].trim_end().to_string());
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Token>,
    pos: usize,
    dialect: Dialect,
    /// The source text, which `CREATE VIEW` keeps as the view's body.
    sql: &'a str,
}

impl Parser<'_> {
    // ---- token utilities ------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(DashError::parse(
                format!("expected {kw}, found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn at_symbol(&self, s: &str) -> bool {
        matches!(self.peek(), TokenKind::Symbol(x) if *x == s)
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if self.at_symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(DashError::parse(
                format!("expected '{s}', found {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(DashError::parse(
                format!("unexpected trailing input: {:?}", self.peek()),
                self.offset(),
            ))
        }
    }

    fn identifier(&mut self) -> Result<String> {
        match self.advance() {
            TokenKind::Ident(s) => Ok(s),
            TokenKind::QuotedIdent(s) => Ok(s),
            other => Err(DashError::parse(
                format!("expected identifier, found {other:?}"),
                self.offset(),
            )),
        }
    }

    fn integer(&mut self) -> Result<i64> {
        match self.advance() {
            TokenKind::IntLit(v) => Ok(v),
            other => Err(DashError::parse(
                format!("expected integer, found {other:?}"),
                self.offset(),
            )),
        }
    }

    fn dialect_gate(&self, feature: &str, allowed: &[Dialect]) -> Result<()> {
        if allowed.contains(&self.dialect) {
            Ok(())
        } else {
            Err(DashError::parse(
                format!(
                    "{feature} is not available in the {} dialect",
                    self.dialect
                ),
                self.offset(),
            ))
        }
    }

    // ---- statements ------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.at_keyword("EXPLAIN") {
            self.advance();
            return Ok(Statement::Explain(Box::new(self.statement()?)));
        }
        if self.at_keyword("SELECT") || self.at_keyword("WITH") {
            return Ok(Statement::Select(Box::new(self.select_stmt()?)));
        }
        if self.at_keyword("VALUES") {
            self.dialect_gate("standalone VALUES", &[Dialect::Db2])?;
            self.advance();
            return Ok(Statement::Values(self.values_rows()?));
        }
        if self.eat_keyword("INSERT") {
            return self.insert_stmt();
        }
        if self.eat_keyword("UPDATE") {
            return self.update_stmt();
        }
        if self.eat_keyword("DELETE") {
            self.expect_keyword("FROM")?;
            let table = self.identifier()?;
            let selection = if self.eat_keyword("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, selection });
        }
        if self.eat_keyword("TRUNCATE") {
            self.eat_keyword("TABLE");
            let name = self.identifier()?;
            return Ok(Statement::Truncate { name });
        }
        if self.at_keyword("CREATE") || self.at_keyword("DECLARE") {
            return self.create_stmt();
        }
        if self.eat_keyword("DROP") {
            return self.drop_stmt();
        }
        if self.at_keyword("BEGIN") {
            // Disambiguate from compound blocks: a BEGIN followed by the
            // end of the statement (or WORK/TRANSACTION) opens an explicit
            // transaction in every dialect.
            let txn_begin = match self.peek_at(1) {
                TokenKind::Eof => true,
                TokenKind::Symbol(s) if *s == ";" => true,
                TokenKind::Ident(s) if s == "WORK" || s == "TRANSACTION" => true,
                _ => false,
            };
            if txn_begin {
                self.advance();
                if !self.eat_keyword("WORK") {
                    self.eat_keyword("TRANSACTION");
                }
                return Ok(Statement::Begin);
            }
            self.dialect_gate(
                "compound SQL blocks",
                &[Dialect::Db2, Dialect::Oracle],
            )?;
            self.advance();
            let mut stmts = Vec::new();
            while !self.at_keyword("END") {
                if matches!(self.peek(), TokenKind::Eof) {
                    return Err(DashError::parse("unterminated BEGIN block", self.offset()));
                }
                stmts.push(self.statement()?);
                // Statement separators inside the block.
                while self.eat_symbol(";") {}
            }
            self.expect_keyword("END")?;
            return Ok(Statement::Block(stmts));
        }
        if self.eat_keyword("START") {
            self.expect_keyword("TRANSACTION")?;
            return Ok(Statement::Begin);
        }
        if self.eat_keyword("COMMIT") {
            self.eat_keyword("WORK");
            return Ok(Statement::Commit);
        }
        if self.eat_keyword("ROLLBACK") {
            self.eat_keyword("WORK");
            return Ok(Statement::Rollback);
        }
        if self.eat_keyword("SET") {
            // SET SQL_DIALECT [=] <name>
            let var = self.identifier()?;
            if var != "SQL_DIALECT" {
                return Err(DashError::unsupported(format!(
                    "unknown session variable {var}"
                )));
            }
            self.eat_symbol("=");
            let name = self.identifier()?;
            let d = Dialect::parse(&name).ok_or_else(|| {
                DashError::parse(format!("unknown dialect '{name}'"), self.offset())
            })?;
            return Ok(Statement::SetDialect(d));
        }
        Err(DashError::parse(
            format!("unexpected start of statement: {:?}", self.peek()),
            self.offset(),
        ))
    }

    fn insert_stmt(&mut self) -> Result<Statement> {
        self.expect_keyword("INTO")?;
        let table = self.identifier()?;
        let mut columns = Vec::new();
        if self.eat_symbol("(") {
            loop {
                columns.push(self.identifier()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        let source = if self.eat_keyword("VALUES") {
            InsertSource::Values(self.values_rows()?)
        } else if self.at_keyword("SELECT") || self.at_keyword("WITH") {
            InsertSource::Select(Box::new(self.select_stmt()?))
        } else {
            return Err(DashError::parse(
                "expected VALUES or SELECT in INSERT",
                self.offset(),
            ));
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    fn update_stmt(&mut self) -> Result<Statement> {
        let table = self.identifier()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_symbol("=")?;
            assignments.push((col, self.expr()?));
            if !self.eat_symbol(",") {
                break;
            }
        }
        let selection = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            selection,
        })
    }

    fn create_stmt(&mut self) -> Result<Statement> {
        if self.eat_keyword("DECLARE") {
            // DB2: DECLARE GLOBAL TEMPORARY TABLE.
            self.dialect_gate("DECLARE GLOBAL TEMPORARY TABLE", &[Dialect::Db2])?;
            self.expect_keyword("GLOBAL")?;
            self.expect_keyword("TEMPORARY")?;
            self.expect_keyword("TABLE")?;
            return self.create_table_body(true);
        }
        self.expect_keyword("CREATE")?;
        let or_replace = if self.eat_keyword("OR") {
            self.expect_keyword("REPLACE")?;
            true
        } else {
            false
        };
        let _ = or_replace; // views below handle replace implicitly
        if self.eat_keyword("TEMP") || self.eat_keyword("TEMPORARY") {
            self.dialect_gate(
                "CREATE TEMP TABLE",
                &[Dialect::Netezza, Dialect::PostgreSql],
            )?;
            self.expect_keyword("TABLE")?;
            return self.create_table_body(true);
        }
        if self.eat_keyword("GLOBAL") {
            self.dialect_gate("CREATE GLOBAL TEMPORARY TABLE", &[Dialect::Oracle])?;
            self.expect_keyword("TEMPORARY")?;
            self.expect_keyword("TABLE")?;
            return self.create_table_body(true);
        }
        if self.eat_keyword("TABLE") {
            return self.create_table_body(false);
        }
        if self.eat_keyword("VIEW") {
            let name = self.identifier()?;
            self.expect_keyword("AS")?;
            let body_start = self.tokens[self.pos].offset;
            let select = self.select_stmt()?;
            let text = self.sql[body_start..].trim_end_matches(';').trim().to_string();
            return Ok(Statement::CreateView {
                name,
                select: Box::new(select),
                text,
            });
        }
        if self.eat_keyword("SEQUENCE") {
            let name = self.identifier()?;
            let mut start = 1i64;
            let mut increment = 1i64;
            loop {
                if self.eat_keyword("START") {
                    self.eat_keyword("WITH");
                    start = self.signed_integer()?;
                } else if self.eat_keyword("INCREMENT") {
                    self.eat_keyword("BY");
                    increment = self.signed_integer()?;
                } else {
                    break;
                }
            }
            return Ok(Statement::CreateSequence {
                name,
                start,
                increment,
            });
        }
        if self.eat_keyword("ALIAS") {
            self.dialect_gate("CREATE ALIAS", &[Dialect::Db2])?;
            let name = self.identifier()?;
            self.expect_keyword("FOR")?;
            let target = self.identifier()?;
            return Ok(Statement::CreateAlias { name, target });
        }
        Err(DashError::parse(
            format!("unsupported CREATE object: {:?}", self.peek()),
            self.offset(),
        ))
    }

    fn signed_integer(&mut self) -> Result<i64> {
        if self.eat_symbol("-") {
            Ok(-self.integer()?)
        } else {
            self.integer()
        }
    }

    fn create_table_body(&mut self, temporary: bool) -> Result<Statement> {
        let mut if_not_exists = false;
        if self.eat_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            if_not_exists = true;
        }
        let name = self.identifier()?;
        if self.eat_keyword("AS") {
            let select = self.select_stmt()?;
            return Ok(Statement::CreateTable {
                name,
                columns: Vec::new(),
                temporary,
                if_not_exists,
                as_select: Some(Box::new(select)),
            });
        }
        self.expect_symbol("(")?;
        let mut columns = Vec::new();
        loop {
            columns.push(self.column_def()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_symbol(")")?;
        // Ignore trailing table options (ON COMMIT ..., ORGANIZE BY ...).
        while !matches!(self.peek(), TokenKind::Eof) && !self.at_symbol(";") {
            self.advance();
        }
        Ok(Statement::CreateTable {
            name,
            columns,
            temporary,
            if_not_exists,
            as_select: None,
        })
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.identifier()?;
        let mut type_name = self.identifier()?;
        // Two-word types: DOUBLE PRECISION.
        if type_name == "DOUBLE" && self.eat_keyword("PRECISION") {
            type_name = "DOUBLE PRECISION".to_string();
        }
        let mut type_args = Vec::new();
        if self.eat_symbol("(") {
            loop {
                type_args.push(self.integer()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        let mut not_null = false;
        let mut unique = false;
        loop {
            if self.eat_keyword("NOT") {
                self.expect_keyword("NULL")?;
                not_null = true;
            } else if self.eat_keyword("NULL") {
                // explicit nullable
            } else if self.eat_keyword("UNIQUE") {
                unique = true;
            } else if self.eat_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                unique = true;
                not_null = true;
            } else if self.eat_keyword("DEFAULT") {
                // Parse and discard the default expression.
                let _ = self.expr()?;
            } else {
                break;
            }
        }
        Ok(ColumnDef {
            name,
            type_name,
            type_args,
            not_null,
            unique,
        })
    }

    fn drop_stmt(&mut self) -> Result<Statement> {
        if self.eat_keyword("TABLE") {
            let mut if_exists = false;
            if self.eat_keyword("IF") {
                self.expect_keyword("EXISTS")?;
                if_exists = true;
            }
            let name = self.identifier()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_keyword("VIEW") {
            let mut if_exists = false;
            if self.eat_keyword("IF") {
                self.expect_keyword("EXISTS")?;
                if_exists = true;
            }
            let name = self.identifier()?;
            return Ok(Statement::DropView { name, if_exists });
        }
        if self.eat_keyword("SEQUENCE") {
            let name = self.identifier()?;
            return Ok(Statement::DropSequence { name });
        }
        Err(DashError::parse(
            format!("unsupported DROP object: {:?}", self.peek()),
            self.offset(),
        ))
    }

    fn values_rows(&mut self) -> Result<Vec<Vec<AstExpr>>> {
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(rows)
    }

    // ---- SELECT ----------------------------------------------------------

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let mut ctes = Vec::new();
        if self.eat_keyword("WITH") {
            loop {
                let name = self.identifier()?;
                self.expect_keyword("AS")?;
                self.expect_symbol("(")?;
                let body = self.select_stmt()?;
                self.expect_symbol(")")?;
                ctes.push((name, body));
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let mut stmt = self.select_body()?;
        stmt.ctes = ctes;
        // Set operations. ORDER BY / OFFSET / LIMIT after the last arm sort
        // the whole compound, so they move from that arm onto it; on any
        // other arm they are a syntax error.
        if self.at_keyword("UNION") {
            if !stmt.order_by.is_empty() || stmt.limit.is_some() || stmt.offset.is_some() {
                return Err(DashError::parse(
                    "ORDER BY, OFFSET and LIMIT may only follow the last arm of a UNION",
                    self.offset(),
                ));
            }
            self.advance();
            let op = if self.eat_keyword("ALL") {
                SetOp::UnionAll
            } else {
                SetOp::Union
            };
            let mut rhs = self.select_stmt()?;
            stmt.order_by = std::mem::take(&mut rhs.order_by);
            stmt.limit = rhs.limit.take();
            stmt.offset = rhs.offset.take();
            stmt.set_op = Some((op, Box::new(rhs)));
        }
        Ok(stmt)
    }

    fn select_body(&mut self) -> Result<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let mut stmt = SelectStmt::default();
        if self.eat_keyword("DISTINCT") {
            stmt.distinct = true;
        } else {
            self.eat_keyword("ALL");
        }
        // Projection.
        loop {
            stmt.projection.push(self.select_item()?);
            if !self.eat_symbol(",") {
                break;
            }
        }
        // FROM.
        if self.eat_keyword("FROM") {
            loop {
                stmt.from.push(self.table_ref()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_keyword("WHERE") {
            stmt.selection = Some(self.expr()?);
        }
        // Oracle hierarchical clauses, in either order.
        for _ in 0..2 {
            if self.at_keyword("START") {
                self.dialect_gate("START WITH", &[Dialect::Oracle])?;
                self.advance();
                self.expect_keyword("WITH")?;
                stmt.start_with = Some(self.expr()?);
            } else if self.at_keyword("CONNECT") {
                self.dialect_gate("CONNECT BY", &[Dialect::Oracle])?;
                self.advance();
                self.expect_keyword("BY")?;
                self.eat_keyword("NOCYCLE");
                stmt.connect_by = Some(self.connect_by_condition()?);
            }
        }
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                stmt.group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        if self.eat_keyword("HAVING") {
            stmt.having = Some(self.expr()?);
        }
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_keyword("DESC") {
                    false
                } else {
                    self.eat_keyword("ASC");
                    true
                };
                let nulls_last = if self.eat_keyword("NULLS") {
                    if self.eat_keyword("LAST") {
                        Some(true)
                    } else {
                        self.expect_keyword("FIRST")?;
                        Some(false)
                    }
                } else {
                    None
                };
                stmt.order_by.push(OrderItem {
                    expr,
                    asc,
                    nulls_last,
                });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        // LIMIT / OFFSET (Netezza, PostgreSQL).
        if self.at_keyword("LIMIT") {
            self.dialect_gate("LIMIT", &[Dialect::Netezza, Dialect::PostgreSql])?;
            self.advance();
            stmt.limit = Some(self.integer()? as u64);
            if self.eat_keyword("OFFSET") {
                stmt.offset = Some(self.integer()? as u64);
            }
        } else if self.at_keyword("OFFSET") {
            self.dialect_gate("OFFSET", &[Dialect::Netezza, Dialect::PostgreSql])?;
            self.advance();
            stmt.offset = Some(self.integer()? as u64);
            if self.eat_keyword("LIMIT") {
                stmt.limit = Some(self.integer()? as u64);
            }
        } else if self.at_keyword("FETCH") {
            // FETCH FIRST n ROWS ONLY (ANSI / DB2).
            self.dialect_gate("FETCH FIRST", &[Dialect::Ansi, Dialect::Db2])?;
            self.advance();
            self.expect_keyword("FIRST")?;
            let n = self.integer()? as u64;
            if !self.eat_keyword("ROWS") {
                self.expect_keyword("ROW")?;
            }
            self.expect_keyword("ONLY")?;
            stmt.limit = Some(n);
        }
        Ok(stmt)
    }

    /// `PRIOR parent = child` or `child = PRIOR parent` → (parent, child).
    fn connect_by_condition(&mut self) -> Result<(String, String)> {
        if self.eat_keyword("PRIOR") {
            let parent = self.column_name()?;
            self.expect_symbol("=")?;
            let child = self.column_name()?;
            Ok((parent, child))
        } else {
            let child = self.column_name()?;
            self.expect_symbol("=")?;
            self.expect_keyword("PRIOR")?;
            let parent = self.column_name()?;
            Ok((parent, child))
        }
    }

    fn column_name(&mut self) -> Result<String> {
        let first = self.identifier()?;
        if self.eat_symbol(".") {
            self.identifier()
        } else {
            Ok(first)
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol("*") {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* form.
        if let TokenKind::Ident(name) = self.peek().clone() {
            if matches!(self.peek_at(1), TokenKind::Symbol("."))
                && matches!(self.peek_at(2), TokenKind::Symbol("*"))
            {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.identifier()?)
        } else {
            match self.peek() {
                // Bare alias: an identifier that is not a clause keyword.
                TokenKind::Ident(s)
                    if !is_clause_keyword(s) =>
                {
                    Some(self.identifier()?)
                }
                TokenKind::QuotedIdent(_) => Some(self.identifier()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // ---- FROM / joins ----------------------------------------------------

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_primary()?;
        loop {
            let kind = if self.eat_keyword("CROSS") {
                self.expect_keyword("JOIN")?;
                JoinKind::Cross
            } else if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
                JoinKind::Inner
            } else if self.eat_keyword("LEFT") {
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else if self.eat_keyword("RIGHT") {
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Right
            } else if self.eat_keyword("JOIN") {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.table_primary()?;
            let constraint = if kind == JoinKind::Cross {
                JoinConstraint::None
            } else if self.eat_keyword("ON") {
                JoinConstraint::On(self.expr()?)
            } else if self.at_keyword("USING") {
                self.dialect_gate(
                    "JOIN USING",
                    &[Dialect::Netezza, Dialect::PostgreSql, Dialect::Ansi],
                )?;
                self.advance();
                self.expect_symbol("(")?;
                let mut cols = Vec::new();
                loop {
                    cols.push(self.identifier()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
                self.expect_symbol(")")?;
                JoinConstraint::Using(cols)
            } else {
                return Err(DashError::parse(
                    "JOIN requires ON or USING",
                    self.offset(),
                ));
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                constraint,
            };
        }
        Ok(left)
    }

    fn table_primary(&mut self) -> Result<TableRef> {
        if self.eat_symbol("(") {
            let select = self.select_stmt()?;
            self.expect_symbol(")")?;
            self.eat_keyword("AS");
            let alias = self.identifier()?;
            return Ok(TableRef::Subquery {
                select: Box::new(select),
                alias,
            });
        }
        let name = self.identifier()?;
        if name == "DUAL" {
            self.dialect_gate("DUAL", &[Dialect::Oracle])?;
            return Ok(TableRef::Dual);
        }
        let alias = if self.eat_keyword("AS") {
            Some(self.identifier()?)
        } else {
            match self.peek() {
                TokenKind::Ident(s) if !is_clause_keyword(s) && !is_join_keyword(s) => {
                    Some(self.identifier()?)
                }
                _ => None,
            }
        };
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<AstExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = AstExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = AstExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<AstExpr> {
        if self.eat_keyword("NOT") {
            Ok(AstExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<AstExpr> {
        let mut expr = self.additive()?;
        loop {
            // Comparison operators.
            let cmp = if self.eat_symbol("=") {
                Some(BinOp::Eq)
            } else if self.eat_symbol("<>") || self.eat_symbol("!=") {
                Some(BinOp::Ne)
            } else if self.eat_symbol("<=") {
                Some(BinOp::Le)
            } else if self.eat_symbol(">=") {
                Some(BinOp::Ge)
            } else if self.eat_symbol("<") {
                Some(BinOp::Lt)
            } else if self.eat_symbol(">") {
                Some(BinOp::Gt)
            } else {
                None
            };
            if let Some(op) = cmp {
                let right = self.additive()?;
                expr = AstExpr::Binary {
                    op,
                    left: Box::new(expr),
                    right: Box::new(right),
                };
                continue;
            }
            // IS [NOT] NULL / TRUE / FALSE.
            if self.eat_keyword("IS") {
                let negated = self.eat_keyword("NOT");
                if self.eat_keyword("NULL") {
                    expr = AstExpr::IsNull {
                        expr: Box::new(expr),
                        negated,
                    };
                } else if self.eat_keyword("TRUE") {
                    expr = AstExpr::IsBool {
                        expr: Box::new(expr),
                        value: true,
                        negated,
                    };
                } else if self.eat_keyword("FALSE") {
                    expr = AstExpr::IsBool {
                        expr: Box::new(expr),
                        value: false,
                        negated,
                    };
                } else {
                    return Err(DashError::parse(
                        "expected NULL, TRUE or FALSE after IS",
                        self.offset(),
                    ));
                }
                continue;
            }
            // Netezza/PostgreSQL postfix forms.
            if self.at_keyword("ISNULL") || self.at_keyword("NOTNULL") {
                self.dialect_gate(
                    "ISNULL/NOTNULL",
                    &[Dialect::Netezza, Dialect::PostgreSql],
                )?;
                let negated = self.at_keyword("NOTNULL");
                self.advance();
                expr = AstExpr::IsNull {
                    expr: Box::new(expr),
                    negated,
                };
                continue;
            }
            if self.at_keyword("ISTRUE") || self.at_keyword("ISFALSE") {
                self.dialect_gate(
                    "ISTRUE/ISFALSE",
                    &[Dialect::Netezza, Dialect::PostgreSql],
                )?;
                let value = self.at_keyword("ISTRUE");
                self.advance();
                expr = AstExpr::IsBool {
                    expr: Box::new(expr),
                    value,
                    negated: false,
                };
                continue;
            }
            // [NOT] BETWEEN / IN / LIKE.
            let negated = if self.at_keyword("NOT")
                && matches!(self.peek_at(1), TokenKind::Ident(k) if k == "BETWEEN" || k == "IN" || k == "LIKE")
            {
                self.advance();
                true
            } else {
                false
            };
            if self.eat_keyword("BETWEEN") {
                let low = self.additive()?;
                self.expect_keyword("AND")?;
                let high = self.additive()?;
                expr = AstExpr::Between {
                    expr: Box::new(expr),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if self.eat_keyword("IN") {
                self.expect_symbol("(")?;
                if self.at_keyword("SELECT") || self.at_keyword("WITH") {
                    let sub = self.select_stmt()?;
                    self.expect_symbol(")")?;
                    expr = AstExpr::InSubquery {
                        expr: Box::new(expr),
                        subquery: Box::new(sub),
                        negated,
                    };
                } else {
                    let mut list = Vec::new();
                    loop {
                        list.push(self.expr()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                    expr = AstExpr::InList {
                        expr: Box::new(expr),
                        list,
                        negated,
                    };
                }
                continue;
            }
            if self.eat_keyword("LIKE") {
                let pattern = self.additive()?;
                expr = AstExpr::Like {
                    expr: Box::new(expr),
                    pattern: Box::new(pattern),
                    negated,
                };
                continue;
            }
            if negated {
                return Err(DashError::parse(
                    "expected BETWEEN, IN or LIKE after NOT",
                    self.offset(),
                ));
            }
            break;
        }
        Ok(expr)
    }

    fn additive(&mut self) -> Result<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_symbol("+") {
                BinOp::Add
            } else if self.eat_symbol("-") {
                BinOp::Sub
            } else if self.eat_symbol("||") {
                BinOp::Concat
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_symbol("*") {
                BinOp::Mul
            } else if self.eat_symbol("/") {
                BinOp::Div
            } else if self.eat_symbol("%") {
                BinOp::Rem
            } else {
                break;
            };
            let right = self.unary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<AstExpr> {
        if self.eat_symbol("-") {
            return Ok(AstExpr::Neg(Box::new(self.unary()?)));
        }
        if self.eat_symbol("+") {
            return self.unary();
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<AstExpr> {
        let mut expr = self.primary()?;
        loop {
            if self.at_symbol("::") {
                self.dialect_gate(
                    "::type cast",
                    &[Dialect::Netezza, Dialect::PostgreSql],
                )?;
                self.advance();
                let type_name = self.identifier()?;
                let mut type_args = Vec::new();
                if self.eat_symbol("(") {
                    loop {
                        type_args.push(self.integer()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                }
                expr = AstExpr::Cast {
                    expr: Box::new(expr),
                    type_name,
                    type_args,
                };
                continue;
            }
            if self.at_symbol("(+)") {
                self.dialect_gate("(+) outer join syntax", &[Dialect::Oracle])?;
                self.advance();
                expr = AstExpr::OuterJoinMarker(Box::new(expr));
                continue;
            }
            // OVERLAPS needs the left operand to have been a row pair;
            // handled in primary() when parsing `( .. , .. )`.
            break;
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<AstExpr> {
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.advance();
                Ok(AstExpr::Lit(Datum::Int(v)))
            }
            TokenKind::NumberLit(text) => {
                self.advance();
                let f: f64 = text.parse().map_err(|_| {
                    DashError::parse(format!("bad numeric literal {text}"), self.offset())
                })?;
                Ok(AstExpr::Lit(Datum::Float(f)))
            }
            TokenKind::StringLit(s) => {
                self.advance();
                Ok(AstExpr::Lit(Datum::str(s)))
            }
            TokenKind::Symbol("(") => {
                self.advance();
                if self.at_keyword("SELECT") || self.at_keyword("WITH") {
                    let sub = self.select_stmt()?;
                    self.expect_symbol(")")?;
                    return Ok(AstExpr::ScalarSubquery(Box::new(sub)));
                }
                let first = self.expr()?;
                if self.eat_symbol(",") {
                    // Row pair — only valid as an OVERLAPS operand.
                    let second = self.expr()?;
                    self.expect_symbol(")")?;
                    self.dialect_gate(
                        "OVERLAPS",
                        &[Dialect::Netezza, Dialect::PostgreSql],
                    )?;
                    self.expect_keyword("OVERLAPS")?;
                    self.expect_symbol("(")?;
                    let third = self.expr()?;
                    self.expect_symbol(",")?;
                    let fourth = self.expr()?;
                    self.expect_symbol(")")?;
                    return Ok(AstExpr::Overlaps {
                        left: (Box::new(first), Box::new(second)),
                        right: (Box::new(third), Box::new(fourth)),
                    });
                }
                self.expect_symbol(")")?;
                Ok(first)
            }
            TokenKind::Ident(name) => self.ident_expr(name),
            TokenKind::QuotedIdent(name) => {
                self.advance();
                if self.eat_symbol(".") {
                    let col = self.identifier()?;
                    Ok(AstExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    })
                } else {
                    Ok(AstExpr::Column {
                        qualifier: None,
                        name,
                    })
                }
            }
            other => Err(DashError::parse(
                format!("unexpected token in expression: {other:?}"),
                self.offset(),
            )),
        }
    }

    fn ident_expr(&mut self, name: String) -> Result<AstExpr> {
        self.advance(); // consume the identifier
        match name.as_str() {
            "NULL" => return Ok(AstExpr::Lit(Datum::Null)),
            "TRUE" => return Ok(AstExpr::Lit(Datum::Bool(true))),
            "FALSE" => return Ok(AstExpr::Lit(Datum::Bool(false))),
            // Typed literals: DATE '...' / TIMESTAMP '...'.
            "DATE" => {
                if let TokenKind::StringLit(s) = self.peek().clone() {
                    self.advance();
                    let d = date::parse_date(&s).ok_or_else(|| {
                        DashError::parse(format!("bad date literal '{s}'"), self.offset())
                    })?;
                    return Ok(AstExpr::Lit(Datum::Date(d)));
                }
            }
            "TIMESTAMP" => {
                if let TokenKind::StringLit(s) = self.peek().clone() {
                    self.advance();
                    let t = date::parse_timestamp(&s).ok_or_else(|| {
                        DashError::parse(format!("bad timestamp literal '{s}'"), self.offset())
                    })?;
                    return Ok(AstExpr::Lit(Datum::Timestamp(t)));
                }
            }
            "CAST" => {
                self.expect_symbol("(")?;
                let inner = self.expr()?;
                self.expect_keyword("AS")?;
                let mut type_name = self.identifier()?;
                if type_name == "DOUBLE" && self.eat_keyword("PRECISION") {
                    type_name = "DOUBLE PRECISION".to_string();
                }
                let mut type_args = Vec::new();
                if self.eat_symbol("(") {
                    loop {
                        type_args.push(self.integer()?);
                        if !self.eat_symbol(",") {
                            break;
                        }
                    }
                    self.expect_symbol(")")?;
                }
                self.expect_symbol(")")?;
                return Ok(AstExpr::Cast {
                    expr: Box::new(inner),
                    type_name,
                    type_args,
                });
            }
            "CASE" => return self.case_expr(),
            "EXISTS" => {
                self.expect_symbol("(")?;
                let sub = self.select_stmt()?;
                self.expect_symbol(")")?;
                return Ok(AstExpr::Exists {
                    subquery: Box::new(sub),
                    negated: false,
                });
            }
            "EXTRACT"
                // EXTRACT(field FROM expr) → EXTRACT('field', expr).
                if self.at_symbol("(") => {
                    self.advance();
                    let field = self.identifier()?;
                    self.expect_keyword("FROM")?;
                    let inner = self.expr()?;
                    self.expect_symbol(")")?;
                    return Ok(AstExpr::Func {
                        name: "EXTRACT".into(),
                        args: vec![AstExpr::Lit(Datum::str(field)), inner],
                        distinct: false,
                        star: false,
                    });
                }
            "NEXT"
                // DB2: NEXT VALUE FOR seq.
                if self.at_keyword("VALUE") => {
                    self.dialect_gate("NEXT VALUE FOR", &[Dialect::Db2])?;
                    self.advance();
                    self.expect_keyword("FOR")?;
                    let seq = self.identifier()?;
                    return Ok(AstExpr::NextVal(seq));
                }
            "PREVIOUS"
                if self.at_keyword("VALUE") => {
                    self.dialect_gate("PREVIOUS VALUE FOR", &[Dialect::Db2])?;
                    self.advance();
                    self.expect_keyword("FOR")?;
                    let seq = self.identifier()?;
                    return Ok(AstExpr::CurrVal(seq));
                }
            "PRIOR" => {
                self.dialect_gate("PRIOR", &[Dialect::Oracle])?;
                let inner = self.primary()?;
                return Ok(AstExpr::Prior(Box::new(inner)));
            }
            _ => {}
        }
        // seq.NEXTVAL / seq.CURRVAL (Oracle) and qualified columns.
        if self.at_symbol(".") {
            match self.peek_at(1) {
                TokenKind::Ident(n) if n == "NEXTVAL" => {
                    self.dialect_gate("NEXTVAL", &[Dialect::Oracle])?;
                    self.advance();
                    self.advance();
                    return Ok(AstExpr::NextVal(name));
                }
                TokenKind::Ident(n) if n == "CURRVAL" => {
                    self.dialect_gate("CURRVAL", &[Dialect::Oracle])?;
                    self.advance();
                    self.advance();
                    return Ok(AstExpr::CurrVal(name));
                }
                TokenKind::Ident(_) | TokenKind::QuotedIdent(_) => {
                    self.advance();
                    let col = self.identifier()?;
                    return Ok(AstExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                _ => {}
            }
        }
        // Function call.
        if self.at_symbol("(") {
            self.advance();
            let mut distinct = false;
            let mut star = false;
            let mut args = Vec::new();
            if self.eat_symbol("*") {
                star = true;
            } else if !self.at_symbol(")") {
                if self.eat_keyword("DISTINCT") {
                    distinct = true;
                }
                loop {
                    args.push(self.expr()?);
                    if !self.eat_symbol(",") {
                        break;
                    }
                }
            }
            self.expect_symbol(")")?;
            return Ok(AstExpr::Func {
                name,
                args,
                distinct,
                star,
            });
        }
        // Plain column (ROWNUM and LEVEL arrive here; planner gates them).
        Ok(AstExpr::Column {
            qualifier: None,
            name,
        })
    }

    fn case_expr(&mut self) -> Result<AstExpr> {
        let operand = if self.at_keyword("WHEN") {
            None
        } else {
            Some(Box::new(self.expr()?))
        };
        let mut branches = Vec::new();
        while self.eat_keyword("WHEN") {
            let when = self.expr()?;
            self.expect_keyword("THEN")?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        let otherwise = if self.eat_keyword("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_keyword("END")?;
        if branches.is_empty() {
            return Err(DashError::parse(
                "CASE requires at least one WHEN branch",
                self.offset(),
            ));
        }
        Ok(AstExpr::Case {
            operand,
            branches,
            otherwise,
        })
    }
}

fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s,
        "FROM"
            | "WHERE"
            | "GROUP"
            | "HAVING"
            | "ORDER"
            | "LIMIT"
            | "OFFSET"
            | "FETCH"
            | "UNION"
            | "AND"
            | "OR"
            | "ON"
            | "USING"
            | "AS"
            | "SET"
            | "VALUES"
            | "WHEN"
            | "THEN"
            | "ELSE"
            | "END"
            | "START"
            | "CONNECT"
            | "NULLS"
            | "ASC"
            | "DESC"
            | "NOT"
            | "IS"
            | "IN"
            | "BETWEEN"
            | "LIKE"
            | "ISNULL"
            | "NOTNULL"
            | "ISTRUE"
            | "ISFALSE"
            | "OVERLAPS"
    )
}

fn is_join_keyword(s: &str) -> bool {
    matches!(s, "JOIN" | "INNER" | "LEFT" | "RIGHT" | "CROSS" | "FULL")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str, d: Dialect) -> SelectStmt {
        match parse_statement(sql, d).unwrap() {
            Statement::Select(s) => *s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn transaction_control_statements() {
        for d in [Dialect::Ansi, Dialect::Db2, Dialect::Oracle, Dialect::Netezza] {
            assert_eq!(parse_statement("BEGIN", d).unwrap(), Statement::Begin);
            assert_eq!(parse_statement("BEGIN;", d).unwrap(), Statement::Begin);
            assert_eq!(parse_statement("BEGIN WORK", d).unwrap(), Statement::Begin);
            assert_eq!(
                parse_statement("begin transaction", d).unwrap(),
                Statement::Begin
            );
            assert_eq!(
                parse_statement("START TRANSACTION", d).unwrap(),
                Statement::Begin
            );
            assert_eq!(parse_statement("COMMIT", d).unwrap(), Statement::Commit);
            assert_eq!(parse_statement("COMMIT WORK", d).unwrap(), Statement::Commit);
            assert_eq!(parse_statement("ROLLBACK", d).unwrap(), Statement::Rollback);
            assert_eq!(
                parse_statement("rollback work;", d).unwrap(),
                Statement::Rollback
            );
        }
        // A BEGIN with a statement after it is still a compound block.
        assert!(matches!(
            parse_statement("BEGIN INSERT INTO t VALUES (1); END", Dialect::Db2).unwrap(),
            Statement::Block(_)
        ));
    }

    #[test]
    fn split_keeps_transaction_begin_flat() {
        let stmts = split_statements(
            "BEGIN; INSERT INTO t VALUES (1); COMMIT; BEGIN WORK; ROLLBACK; \
             BEGIN UPDATE t SET v = 1; END; SELECT 1",
        )
        .unwrap();
        assert_eq!(
            stmts,
            vec![
                "BEGIN",
                "INSERT INTO t VALUES (1)",
                "COMMIT",
                "BEGIN WORK",
                "ROLLBACK",
                "BEGIN UPDATE t SET v = 1; END",
                "SELECT 1",
            ]
        );
    }

    #[test]
    fn simple_select() {
        let s = sel(
            "SELECT a, b AS bee, t.c FROM t WHERE a > 1 ORDER BY 1 DESC",
            Dialect::Ansi,
        );
        assert_eq!(s.projection.len(), 3);
        assert!(s.selection.is_some());
        assert!(!s.order_by[0].asc);
    }

    #[test]
    fn limit_dialect_gating() {
        assert!(parse_statement("SELECT a FROM t LIMIT 5", Dialect::PostgreSql).is_ok());
        assert!(parse_statement("SELECT a FROM t LIMIT 5", Dialect::Netezza).is_ok());
        let e = parse_statement("SELECT a FROM t LIMIT 5", Dialect::Ansi).unwrap_err();
        assert!(e.to_string().contains("LIMIT"));
        // ANSI/DB2 spelling.
        assert!(
            parse_statement("SELECT a FROM t FETCH FIRST 5 ROWS ONLY", Dialect::Db2).is_ok()
        );
        assert!(
            parse_statement("SELECT a FROM t FETCH FIRST 5 ROWS ONLY", Dialect::Oracle)
                .is_err()
        );
    }

    #[test]
    fn pg_cast_gating() {
        let s = sel("SELECT a::INT4 FROM t", Dialect::PostgreSql);
        match &s.projection[0] {
            SelectItem::Expr {
                expr: AstExpr::Cast { type_name, .. },
                ..
            } => assert_eq!(type_name, "INT4"),
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("SELECT a::INT4 FROM t", Dialect::Oracle).is_err());
    }

    #[test]
    fn oracle_dual_and_rownum() {
        let s = sel("SELECT 1 + 1 FROM DUAL WHERE ROWNUM <= 1", Dialect::Oracle);
        assert_eq!(s.from, vec![TableRef::Dual]);
        assert!(parse_statement("SELECT 1 FROM DUAL", Dialect::Ansi).is_err());
    }

    #[test]
    fn oracle_outer_join_marker() {
        let s = sel(
            "SELECT * FROM a, b WHERE a.id = b.id (+)",
            Dialect::Oracle,
        );
        let w = s.selection.unwrap();
        match w {
            AstExpr::Binary { op: BinOp::Eq, right, .. } => {
                assert!(matches!(*right, AstExpr::OuterJoinMarker(_)));
            }
            other => panic!("{other:?}"),
        }
        assert!(
            parse_statement("SELECT * FROM a, b WHERE a.id = b.id (+)", Dialect::Db2).is_err()
        );
    }

    #[test]
    fn connect_by_parses() {
        let s = sel(
            "SELECT emp, LEVEL FROM org START WITH mgr IS NULL CONNECT BY PRIOR emp = mgr",
            Dialect::Oracle,
        );
        assert!(s.start_with.is_some());
        assert_eq!(s.connect_by, Some(("EMP".into(), "MGR".into())));
        // Reversed form.
        let s = sel(
            "SELECT emp FROM org CONNECT BY mgr = PRIOR emp START WITH mgr IS NULL",
            Dialect::Oracle,
        );
        assert_eq!(s.connect_by, Some(("EMP".into(), "MGR".into())));
    }

    #[test]
    fn sequences_oracle_and_db2() {
        let s = sel("SELECT seq1.NEXTVAL FROM DUAL", Dialect::Oracle);
        match &s.projection[0] {
            SelectItem::Expr {
                expr: AstExpr::NextVal(n),
                ..
            } => assert_eq!(n, "SEQ1"),
            other => panic!("{other:?}"),
        }
        match parse_statement("VALUES (NEXT VALUE FOR seq1)", Dialect::Db2).unwrap() {
            Statement::Values(rows) => {
                assert_eq!(rows[0][0], AstExpr::NextVal("SEQ1".into()));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("SELECT seq1.NEXTVAL FROM t", Dialect::Db2).is_err());
    }

    #[test]
    fn join_using_and_on() {
        let s = sel(
            "SELECT * FROM a JOIN b USING (id, dt) LEFT JOIN c ON a.x = c.x",
            Dialect::Netezza,
        );
        match &s.from[0] {
            TableRef::Join { kind, constraint, .. } => {
                assert_eq!(*kind, JoinKind::Left);
                assert!(matches!(constraint, JoinConstraint::On(_)));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("SELECT * FROM a JOIN b USING (id)", Dialect::Oracle).is_err());
    }

    #[test]
    fn netezza_postfix_null_tests() {
        let s = sel("SELECT a FROM t WHERE a ISNULL OR b NOTNULL", Dialect::Netezza);
        assert!(s.selection.is_some());
        assert!(parse_statement("SELECT a FROM t WHERE a ISNULL", Dialect::Db2).is_err());
    }

    #[test]
    fn overlaps_operator() {
        let s = sel(
            "SELECT 1 FROM t WHERE (d1, d2) OVERLAPS (d3, d4)",
            Dialect::PostgreSql,
        );
        assert!(matches!(s.selection, Some(AstExpr::Overlaps { .. })));
        assert!(parse_statement(
            "SELECT 1 FROM t WHERE (d1, d2) OVERLAPS (d3, d4)",
            Dialect::Ansi
        )
        .is_err());
    }

    #[test]
    fn group_having_ctes_union() {
        let s = sel(
            "WITH top AS (SELECT a FROM t) \
             SELECT a, COUNT(*) FROM top GROUP BY a HAVING COUNT(*) > 2 \
             UNION ALL SELECT b, 0 FROM u",
            Dialect::Ansi,
        );
        assert_eq!(s.ctes.len(), 1);
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(matches!(s.set_op, Some((SetOp::UnionAll, _))));
    }

    #[test]
    fn insert_update_delete() {
        let i = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')",
            Dialect::Ansi,
        )
        .unwrap();
        match i {
            Statement::Insert { columns, source, .. } => {
                assert_eq!(columns, vec!["A", "B"]);
                assert!(matches!(source, InsertSource::Values(v) if v.len() == 2));
            }
            other => panic!("{other:?}"),
        }
        let u = parse_statement("UPDATE t SET a = a + 1 WHERE b = 'x'", Dialect::Ansi).unwrap();
        assert!(matches!(u, Statement::Update { .. }));
        let d = parse_statement("DELETE FROM t", Dialect::Ansi).unwrap();
        assert!(matches!(d, Statement::Delete { selection: None, .. }));
    }

    #[test]
    fn create_table_variants() {
        let c = parse_statement(
            "CREATE TABLE t (id INT8 NOT NULL PRIMARY KEY, name VARCHAR(20) DEFAULT 'x', amt NUMBER(10,2))",
            Dialect::Oracle,
        )
        .unwrap();
        match c {
            Statement::CreateTable { columns, temporary, .. } => {
                assert!(!temporary);
                assert_eq!(columns.len(), 3);
                assert!(columns[0].unique && columns[0].not_null);
                assert_eq!(columns[2].type_args, vec![10, 2]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_statement("CREATE TEMP TABLE x (a INT4)", Dialect::Netezza).unwrap(),
            Statement::CreateTable { temporary: true, .. }
        ));
        assert!(parse_statement("CREATE TEMP TABLE x (a INT4)", Dialect::Oracle).is_err());
        assert!(matches!(
            parse_statement(
                "CREATE GLOBAL TEMPORARY TABLE x (a INT)",
                Dialect::Oracle
            )
            .unwrap(),
            Statement::CreateTable { temporary: true, .. }
        ));
        assert!(matches!(
            parse_statement(
                "DECLARE GLOBAL TEMPORARY TABLE x (a INT)",
                Dialect::Db2
            )
            .unwrap(),
            Statement::CreateTable { temporary: true, .. }
        ));
    }

    #[test]
    fn ctas_and_views() {
        assert!(matches!(
            parse_statement("CREATE TABLE t2 AS SELECT * FROM t", Dialect::Ansi).unwrap(),
            Statement::CreateTable { as_select: Some(_), .. }
        ));
        match parse_statement("CREATE VIEW v AS SELECT a FROM t", Dialect::Ansi).unwrap() {
            Statement::CreateView { name, text, .. } => {
                assert_eq!(name, "V");
                assert_eq!(text, "SELECT a FROM t");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequence_ddl() {
        match parse_statement(
            "CREATE SEQUENCE s START WITH 100 INCREMENT BY 5",
            Dialect::Ansi,
        )
        .unwrap()
        {
            Statement::CreateSequence { start, increment, .. } => {
                assert_eq!((start, increment), (100, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alias_db2_only() {
        assert!(matches!(
            parse_statement("CREATE ALIAS o FOR orders", Dialect::Db2).unwrap(),
            Statement::CreateAlias { .. }
        ));
        assert!(parse_statement("CREATE ALIAS o FOR orders", Dialect::Ansi).is_err());
    }

    #[test]
    fn explain_and_set_dialect() {
        assert!(matches!(
            parse_statement("EXPLAIN SELECT 1 FROM DUAL", Dialect::Oracle).unwrap(),
            Statement::Explain(_)
        ));
        assert!(matches!(
            parse_statement("SET SQL_DIALECT = ORACLE", Dialect::Ansi).unwrap(),
            Statement::SetDialect(Dialect::Oracle)
        ));
    }

    #[test]
    fn typed_literals_and_case() {
        let s = sel(
            "SELECT CASE WHEN d >= DATE '2017-01-01' THEN 'new' ELSE 'old' END FROM t",
            Dialect::Ansi,
        );
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Case { branches, .. }, .. } => {
                assert_eq!(branches.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_call_parses_as_function() {
        let s = sel(
            "SELECT DECODE(status, 1, 'ok', 'bad') FROM t",
            Dialect::Oracle,
        );
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Func { name, args, .. }, .. } => {
                assert_eq!(name, "DECODE");
                assert_eq!(args.len(), 4);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subqueries() {
        let s = sel(
            "SELECT a FROM t WHERE a IN (SELECT b FROM u) AND EXISTS (SELECT 1 FROM v)",
            Dialect::Ansi,
        );
        assert!(s.selection.is_some());
        let s = sel("SELECT x FROM (SELECT a AS x FROM t) sub", Dialect::Ansi);
        assert!(matches!(s.from[0], TableRef::Subquery { .. }));
    }

    #[test]
    fn compound_blocks() {
        let stmt = parse_statement(
            "BEGIN INSERT INTO t VALUES (1); UPDATE t SET x = 2; END",
            Dialect::Db2,
        )
        .unwrap();
        match stmt {
            Statement::Block(inner) => assert_eq!(inner.len(), 2),
            other => panic!("{other:?}"),
        }
        // Oracle anonymous blocks accepted too; ANSI rejects.
        assert!(parse_statement("BEGIN DELETE FROM t; END", Dialect::Oracle).is_ok());
        assert!(parse_statement("BEGIN DELETE FROM t; END", Dialect::Ansi).is_err());
        assert!(parse_statement("BEGIN DELETE FROM t;", Dialect::Db2).is_err());
    }

    #[test]
    fn split_statements_keeps_blocks_whole() {
        let stmts = split_statements(
            "CREATE TABLE t (x INT); BEGIN INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); END; SELECT * FROM t",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3, "{stmts:?}");
        assert!(stmts[1].starts_with("BEGIN"));
        assert!(stmts[1].contains("VALUES (2)"));
    }

    #[test]
    fn split_statements_respects_strings() {
        let stmts = split_statements(
            "INSERT INTO t VALUES ('a;b'); -- c;\nSELECT 1; /* ; */ SELECT 2",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(stmts[0].contains("a;b"));
        // Quoted identifiers are tokens too, and CASE … END nests in a block.
        let stmts = split_statements(
            "SELECT 1 AS \"a;b\"; BEGIN UPDATE t SET v = CASE WHEN v > 0 THEN 1 END; END; SELECT 2",
        )
        .unwrap();
        assert_eq!(
            stmts,
            vec![
                "SELECT 1 AS \"a;b\"",
                "BEGIN UPDATE t SET v = CASE WHEN v > 0 THEN 1 END; END",
                "SELECT 2",
            ]
        );
        // A script that does not tokenize is refused whole.
        let e = split_statements("SELECT 1; SELECT 'unterminated").unwrap_err();
        assert_eq!(e.class(), "42601");
    }

    #[test]
    fn count_distinct_and_star() {
        let s = sel("SELECT COUNT(*), COUNT(DISTINCT a) FROM t", Dialect::Ansi);
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Func { star, .. }, .. } => assert!(star),
            other => panic!("{other:?}"),
        }
        match &s.projection[1] {
            SelectItem::Expr { expr: AstExpr::Func { distinct, .. }, .. } => assert!(distinct),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extract_sugar() {
        let s = sel("SELECT EXTRACT(YEAR FROM d) FROM t", Dialect::Ansi);
        match &s.projection[0] {
            SelectItem::Expr { expr: AstExpr::Func { name, args, .. }, .. } => {
                assert_eq!(name, "EXTRACT");
                assert_eq!(args[0], AstExpr::Lit(Datum::str("YEAR")));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn group_by_ordinal_and_name() {
        let s = sel(
            "SELECT region r, SUM(x) FROM t GROUP BY 1 ORDER BY 2",
            Dialect::Netezza,
        );
        assert_eq!(s.group_by[0], AstExpr::Lit(Datum::Int(1)));
    }
}
