//! Analyzer and planner: AST → `dash_exec::PhysicalPlan`.
//!
//! Responsibilities:
//! * name resolution against the catalog (tables, views — with the view's
//!   *creation* dialect, per §II.C.2 — CTEs, aliases);
//! * column pruning (scans project only referenced columns — where the
//!   columnar architecture's I/O advantage comes from);
//! * predicate pushdown into [`dash_exec::scan::ScanConfig`] so simple
//!   comparisons run on compressed codes;
//! * join planning: explicit JOIN ... ON/USING, comma-lists joined through
//!   WHERE equalities, Oracle `(+)` outer-join markers;
//! * aggregation, HAVING, DISTINCT, ORDER BY (ordinals, aliases),
//!   LIMIT/OFFSET/FETCH FIRST, ROWNUM, CONNECT BY, sequences;
//! * scalar/IN/EXISTS subqueries (uncorrelated; evaluated eagerly at plan
//!   time);
//! * typing: every lowered expression evaluates to the type it is declared
//!   with, by the rules of `dash_exec::functions` — a value that must change
//!   type gets an explicit `Cast` here, and the executor converts nothing.

use crate::ast::*;
use dash_common::dialect::Dialect;
use dash_common::row::coerce_datum;
use dash_common::{DashError, DataType, Datum, Field, Result, Schema};
use dash_exec::agg::{AggExpr, AggFunc};
use dash_exec::expr::{ArithOp, CmpOp, Expr};
use dash_exec::batch::Batch;
use dash_encoding::column::ColumnValues;
use dash_encoding::strs::StrColumn;
use dash_exec::functions::{arith_type, same_repr, supertype, EvalContext, FunctionRegistry};
use dash_exec::join::JoinType;
use dash_exec::key::KeyMode;
use dash_exec::plan::{aggregate_input, PhysicalPlan, SharedTable};
use dash_exec::scan::{ColumnPredicate, ScanConfig};
use dash_exec::sort::SortKey;
use dash_storage::bufferpool::BufferPool;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A resolved table: catalog id plus the shared storage handle.
#[derive(Clone)]
pub struct TableHandle {
    /// Catalog table id (used for buffer-pool page keys).
    pub id: u32,
    /// The storage object.
    pub table: SharedTable,
}

/// What the planner needs from the catalog.
pub trait SchemaProvider {
    /// Resolve a base table (following DB2 aliases).
    fn table(&self, name: &str) -> Result<TableHandle>;

    /// Resolve a view: its defining SQL and the dialect it was created
    /// under (views keep their creation dialect, §II.C.2).
    fn view(&self, name: &str) -> Option<(String, Dialect)>;

    /// The shared buffer pool, if the session tracks one.
    fn pool(&self) -> Option<Arc<Mutex<BufferPool>>> {
        None
    }

    /// Look up a user-defined extension function (§II.C.4). UDXes shadow
    /// builtins of the same name. Default: no UDXes.
    fn udx(&self, _name: &str) -> Option<Arc<dash_exec::functions::ScalarFunction>> {
        None
    }

    /// Intra-query scan parallelism (strides scheduled across threads,
    /// §II.B.6). Default: serial.
    fn parallelism(&self) -> usize {
        1
    }

    /// Whether simple conjuncts become scan predicates evaluated on
    /// compressed codes, with synopsis skipping (§II.B). `false` is the
    /// decode-then-compare ablation: every conjunct still reaches the
    /// scan, but as its residual. Default: `true`.
    fn compressed_predicates(&self) -> bool {
        true
    }

    /// The session's snapshot-isolation view, if it reads under one.
    /// `None` (the default) scans latest-committed state — which keeps
    /// providers that predate transactions working unchanged.
    fn snapshot(&self) -> Option<dash_common::txn::SnapshotView> {
        None
    }
}

/// Plan a SELECT statement into a physical plan.
pub fn plan_select(
    stmt: &SelectStmt,
    provider: &dyn SchemaProvider,
    dialect: Dialect,
    ctx: &EvalContext,
) -> Result<PhysicalPlan> {
    plan_select_over(stmt, None, provider, dialect, ctx)
}

/// Plan a SELECT in which `relation`, if given, binds its name to a batch
/// the way a CTE binds its name to a query — how a distributed query's
/// final statement reads what its shards returned.
pub fn plan_select_over(
    stmt: &SelectStmt,
    relation: Option<(&str, Batch)>,
    provider: &dyn SchemaProvider,
    dialect: Dialect,
    ctx: &EvalContext,
) -> Result<PhysicalPlan> {
    let mut planner = Planner::new(provider, dialect, ctx);
    if let Some((name, batch)) = relation {
        let scope = Scope::from_schema(Some(name), batch.schema());
        planner.ctes.insert(name.to_ascii_uppercase(), Rc::new((PhysicalPlan::values(batch), scope)));
    }
    let (plan, _) = planner.plan_query(stmt)?;
    Ok(pushdown(plan, provider))
}

/// Plan a standalone `VALUES` list into one `Values` node. Each column is
/// typed as UNION ALL types its arms — the supertype of its values, to
/// which a NULL literal contributes nothing — and every value is cast to
/// that type and evaluated once, here.
pub fn plan_values(
    rows: &[Vec<AstExpr>],
    provider: &dyn SchemaProvider,
    dialect: Dialect,
    ctx: &EvalContext,
) -> Result<PhysicalPlan> {
    let width = rows.first().map_or(0, Vec::len);
    if rows.iter().any(|r| r.len() != width) {
        return Err(DashError::analysis("VALUES rows have unequal arity"));
    }
    let mut planner = Planner::new(provider, dialect, ctx);
    let lowered = rows
        .iter()
        .map(|r| r.iter().map(|e| planner.lower(e, &Scope::default())).collect())
        .collect::<Result<Vec<Vec<(Expr, DataType)>>>>()?;
    let types: Vec<DataType> = (0..width)
        .map(|i| supertype(lowered.iter().filter_map(|r| constraint(&r[i].0, r[i].1))))
        .collect();
    let one = Batch::unit();
    let mut columns: Vec<ColumnValues> = types.iter().map(|&dt| ColumnValues::empty_for(dt)).collect();
    for row in lowered {
        for ((column, (e, dt)), &to) in columns.iter_mut().zip(row).zip(&types) {
            column.push_datum(to, &cast(e, dt, to).eval(&one, 0, ctx)?)?;
        }
    }
    let fields = types.iter().enumerate().map(|(i, dt)| Field::new(format!("COL{}", i + 1), *dt));
    Ok(PhysicalPlan::values(Batch::new(Schema::new_unchecked(fields.collect()), columns)?))
}

/// Lower a standalone expression (no table scope) — used by INSERT VALUES
/// and UPDATE assignments in `dash-core`.
pub fn lower_standalone_expr(
    ast: &AstExpr,
    provider: &dyn SchemaProvider,
    dialect: Dialect,
    ctx: &EvalContext,
) -> Result<Expr> {
    let mut planner = Planner::new(provider, dialect, ctx);
    let (e, _) = planner.lower(ast, &Scope::default())?;
    Ok(e)
}

/// Lower an expression against a single table's schema, with the type it
/// evaluates to (used by UPDATE assignments and UPDATE / DELETE WHERE
/// clauses in `dash-core`). Column ordinals reference the table schema
/// directly.
pub fn lower_table_expr(
    ast: &AstExpr,
    schema: &Schema,
    provider: &dyn SchemaProvider,
    dialect: Dialect,
    ctx: &EvalContext,
) -> Result<(Expr, DataType)> {
    let mut planner = Planner::new(provider, dialect, ctx);
    let scope = Scope::from_schema(None, schema);
    planner.lower(ast, &scope)
}

// ---- scopes -------------------------------------------------------------

#[derive(Debug, Clone)]
struct ScopeCol {
    qualifier: Option<String>,
    name: String,
    dt: DataType,
    nullable: bool,
}

/// A name-resolution scope: one entry per output ordinal of the current
/// plan node.
#[derive(Debug, Clone, Default)]
struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn from_schema(qualifier: Option<&str>, schema: &Schema) -> Scope {
        Scope {
            cols: schema
                .fields()
                .iter()
                .map(|f| ScopeCol {
                    qualifier: qualifier.map(|q| q.to_ascii_uppercase()),
                    name: f.name.clone(),
                    dt: f.data_type,
                    nullable: f.nullable,
                })
                .collect(),
        }
    }

    fn join(&self, other: &Scope) -> Scope {
        let mut cols = self.cols.clone();
        cols.extend(other.cols.iter().cloned());
        Scope { cols }
    }

    /// Resolve a column reference. Unqualified names resolve to the
    /// leftmost match (permissive resolution: JOIN USING and self-joins
    /// with identical column names pick the left input).
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        let name = name.to_ascii_uppercase();
        let q = qualifier.map(|s| s.to_ascii_uppercase());
        self.cols.iter().position(|c| {
            c.name == name
                && match &q {
                    Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
                    None => true,
                }
        })
    }

    fn to_schema(&self) -> Schema {
        Schema::new_unchecked(
            self.cols
                .iter()
                .map(|c| Field {
                    name: c.name.clone(),
                    data_type: c.dt,
                    nullable: c.nullable,
                })
                .collect(),
        )
    }
}

// ---- the planner ----------------------------------------------------------

struct Planner<'a> {
    provider: &'a dyn SchemaProvider,
    dialect: Dialect,
    registry: &'static FunctionRegistry,
    ctx: &'a EvalContext,
    /// CTEs visible in the current query (name → (plan, scope)), shared
    /// so a nested block saves and restores them without copying plans.
    ctes: HashMap<String, Rc<(PhysicalPlan, Scope)>>,
    depth: usize,
}

const MAX_SUBQUERY_DEPTH: usize = 16;

impl<'a> Planner<'a> {
    fn new(provider: &'a dyn SchemaProvider, dialect: Dialect, ctx: &'a EvalContext) -> Planner<'a> {
        Planner {
            provider,
            dialect,
            registry: dash_exec::functions::builtin_registry(),
            ctx,
            ctes: HashMap::new(),
            depth: 0,
        }
    }

    fn plan_query(&mut self, stmt: &SelectStmt) -> Result<(PhysicalPlan, Scope)> {
        self.depth += 1;
        if self.depth > MAX_SUBQUERY_DEPTH {
            return Err(DashError::analysis("query nesting too deep"));
        }
        let result = self.plan_query_inner(stmt);
        self.depth -= 1;
        result
    }

    fn plan_query_inner(&mut self, stmt: &SelectStmt) -> Result<(PhysicalPlan, Scope)> {
        // CTEs: plan each and register (restored on exit via clone).
        let saved_ctes = self.ctes.clone();
        for (name, body) in &stmt.ctes {
            let (plan, scope) = self.plan_query(body)?;
            // Re-qualify the CTE's columns under its name.
            let scope = Scope {
                cols: scope
                    .cols
                    .iter()
                    .map(|c| ScopeCol {
                        qualifier: Some(name.clone()),
                        ..c.clone()
                    })
                    .collect(),
            };
            self.ctes.insert(name.clone(), Rc::new((plan, scope)));
        }
        let out = self.plan_block(stmt);
        self.ctes = saved_ctes;
        let (mut plan, mut scope) = out?;

        // Set operations.
        if let Some((op, rhs)) = &stmt.set_op {
            let (rplan, rscope) = self.plan_query(rhs)?;
            if rscope.cols.len() != scope.cols.len() {
                return Err(DashError::analysis(format!(
                    "UNION arms have {} vs {} columns",
                    scope.cols.len(),
                    rscope.cols.len()
                )));
            }
            // Promote per-column types to a common supertype and coerce
            // each arm (standard UNION typing; a bare NULL constrains
            // nothing, as in CASE and COALESCE).
            let merged: Vec<DataType> = scope
                .cols
                .iter()
                .zip(&rscope.cols)
                .enumerate()
                .map(|(i, (l, r))| {
                    let arms = [arm_constraint(&plan, i, l.dt), arm_constraint(&rplan, i, r.dt)];
                    supertype(arms.into_iter().flatten())
                })
                .collect();
            let plan_l = coerce_arm(plan, &scope, &merged);
            let plan_r = coerce_arm(rplan, &rscope, &merged);
            for (c, dt) in scope.cols.iter_mut().zip(&merged) {
                c.dt = *dt;
            }
            plan = PhysicalPlan::UnionAll {
                inputs: vec![plan_l, plan_r],
            };
            if *op == SetOp::Union {
                plan = self.distinct(plan);
            }
            // Column names come from the left arm.
            scope = Scope {
                cols: scope
                    .cols
                    .iter()
                    .map(|c| ScopeCol {
                        qualifier: None,
                        ..c.clone()
                    })
                    .collect(),
            };
            // The compound's ORDER BY, OFFSET and LIMIT, which the parser
            // lifts off the last arm: keys name the output only.
            let mut keys = Vec::with_capacity(stmt.order_by.len());
            for item in &stmt.order_by {
                let key = self.output_key(&item.expr, &scope)?;
                keys.push((key, item.asc, item.nulls_last.unwrap_or(true)));
            }
            plan = self.sort(plan, keys, stmt.limit, stmt.offset, scope.to_schema());
        }
        Ok((plan, scope))
    }

    /// Plan one query block (no CTEs/set ops).
    fn plan_block(&mut self, stmt: &SelectStmt) -> Result<(PhysicalPlan, Scope)> {
        // ---- FROM ----
        let (mut plan, mut scope) = self.plan_from(stmt)?;

        // ---- CONNECT BY (before WHERE, Oracle semantics) ----
        if let Some((parent, child)) = &stmt.connect_by {
            let start = match &stmt.start_with {
                Some(e) => self.lower(e, &scope)?.0,
                None => Expr::lit(true),
            };
            let p = scope
                .resolve(None, parent)
                .ok_or_else(|| DashError::not_found("column", parent))?;
            let c = scope
                .resolve(None, child)
                .ok_or_else(|| DashError::not_found("column", child))?;
            plan = PhysicalPlan::ConnectBy {
                input: Box::new(plan),
                start_with: start,
                parent: p,
                child: c,
            };
            scope.cols.push(ScopeCol {
                qualifier: None,
                name: "LEVEL".into(),
                dt: DataType::Int64,
                nullable: false,
            });
        }

        // ---- WHERE ----
        let mut rownum_conjuncts: Vec<AstExpr> = Vec::new();
        if let Some(selection) = &stmt.selection {
            let mut conjuncts = Vec::new();
            split_conjuncts(selection, &mut conjuncts);
            // Oracle ROWNUM conjuncts apply after the rest of the WHERE.
            let mut normal = Vec::new();
            for c in conjuncts {
                if self.dialect == Dialect::Oracle && references_rownum(&c) {
                    rownum_conjuncts.push(c);
                } else {
                    normal.push(c);
                }
            }
            if !normal.is_empty() {
                let lowered = self.lower_conjuncts(&normal, &scope)?;
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: lowered,
                };
            }
        }
        // ROWNUM support: materialize the pseudo-column if referenced.
        let needs_rownum = !rownum_conjuncts.is_empty()
            || (self.dialect == Dialect::Oracle && block_references_rownum(stmt));
        if needs_rownum {
            plan = PhysicalPlan::RowNumber {
                input: Box::new(plan),
                name: "ROWNUM".into(),
            };
            scope.cols.push(ScopeCol {
                qualifier: None,
                name: "ROWNUM".into(),
                dt: DataType::Int64,
                nullable: false,
            });
            if !rownum_conjuncts.is_empty() {
                let lowered = self.lower_conjuncts(&rownum_conjuncts, &scope)?;
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: lowered,
                };
            }
        }

        // ---- aggregation ----
        let has_agg = stmt.group_by.is_empty()
            && (stmt
                .projection
                .iter()
                .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
                || stmt.having.as_ref().is_some_and(|h| h.contains_aggregate()));
        let grouped = !stmt.group_by.is_empty() || has_agg;

        let mut projection_asts: Vec<(AstExpr, Option<String>)> = Vec::new();
        for item in &stmt.projection {
            match item {
                SelectItem::Wildcard => {
                    for c in &scope.cols {
                        if c.name == "_TSN" {
                            continue;
                        }
                        projection_asts.push((
                            AstExpr::Column {
                                qualifier: c.qualifier.clone(),
                                name: c.name.clone(),
                            },
                            Some(c.name.clone()),
                        ));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let qu = q.to_ascii_uppercase();
                    let mut any = false;
                    for c in &scope.cols {
                        if c.qualifier.as_deref() == Some(qu.as_str()) {
                            projection_asts.push((
                                AstExpr::Column {
                                    qualifier: c.qualifier.clone(),
                                    name: c.name.clone(),
                                },
                                Some(c.name.clone()),
                            ));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(DashError::not_found("table alias", q));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    projection_asts.push((expr.clone(), alias.clone()));
                }
            }
        }

        // Output column names derive from the *original* projection (the
        // aggregation rewrite below replaces expressions with internal
        // _AGGn references, which must not leak into result schemas).
        let display_names: Vec<String> = projection_asts
            .iter()
            .enumerate()
            .map(|(i, (ast, alias))| {
                alias.clone().unwrap_or_else(|| derive_name(ast, i))
            })
            .collect();
        let mut having_ast = stmt.having.clone();
        // A compound's ORDER BY, OFFSET and LIMIT sort the whole set
        // operation (`plan_query_inner`), not its first arm.
        let tail = stmt.set_op.is_none();
        let order_by: &[OrderItem] = if tail { &stmt.order_by } else { &[] };
        let mut order_asts: Vec<AstExpr> = order_by.iter().map(|o| o.expr.clone()).collect();
        if grouped {
            let (new_plan, new_scope, rewritten_proj, rewritten_having, rewritten_order) = self
                .plan_aggregation(
                    plan,
                    &scope,
                    &stmt.group_by,
                    &projection_asts,
                    having_ast.as_ref(),
                    &order_asts,
                )?;
            plan = new_plan;
            scope = new_scope;
            projection_asts = rewritten_proj;
            having_ast = rewritten_having;
            order_asts = rewritten_order;
            if let Some(h) = &having_ast {
                let (pred, _) = self.lower(h, &scope)?;
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: pred,
                };
            }
        } else if stmt.having.is_some() {
            return Err(DashError::analysis("HAVING requires GROUP BY or aggregates"));
        }

        // ---- projection ----
        let mut exprs = Vec::with_capacity(projection_asts.len());
        let mut out_cols = Vec::with_capacity(projection_asts.len());
        for (i, (ast, _)) in projection_asts.iter().enumerate() {
            let (e, dt) = self.lower(ast, &scope)?;
            out_cols.push(ScopeCol {
                qualifier: None,
                name: display_names[i].to_ascii_uppercase(),
                dt,
                nullable: true,
            });
            exprs.push(e);
        }
        let out_scope = Scope { cols: out_cols };
        let out_schema = out_scope.to_schema();
        // Pure pass-through projection elision: `SELECT *` keeps the child.
        let passthrough = exprs.len() == scope.cols.len()
            && exprs
                .iter()
                .enumerate()
                .all(|(i, e)| matches!(e, Expr::Col(j) if *j == i))
            && out_schema
                .fields()
                .iter()
                .zip(scope.cols.iter())
                .all(|(f, c)| f.name == c.name);

        // ---- ORDER BY ----
        // A key is an output column or an expression over the output
        // (`output_key`), else an expression over the input: a hidden
        // column the projection appends, stripped after the sort.
        let out_width = out_scope.cols.len();
        let mut keys = Vec::with_capacity(order_by.len());
        let mut hidden: Vec<(Expr, Field)> = Vec::new();
        for (k, (item, ast)) in order_by.iter().zip(&order_asts).enumerate() {
            let key = match self.output_key(ast, &out_scope) {
                Ok(key) => key,
                Err(e) if matches!(ast, AstExpr::Lit(Datum::Int(_))) => return Err(e),
                Err(_) => {
                    let (e, dt) = self.lower(ast, &scope)?;
                    hidden.push((e, Field::new(format!("_SORT{k}"), dt)));
                    (Expr::col(out_width + hidden.len() - 1), dt)
                }
            };
            keys.push((key, item.asc, item.nulls_last.unwrap_or(true)));
        }
        if !hidden.is_empty() && stmt.distinct {
            return Err(DashError::analysis(
                "ORDER BY column must appear in the SELECT DISTINCT list",
            ));
        }
        if !passthrough || !hidden.is_empty() {
            let mut fields = out_schema.fields().to_vec();
            for (e, f) in hidden {
                exprs.push(e);
                fields.push(f);
            }
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: Schema::new_unchecked(fields),
            };
        }
        if stmt.distinct {
            plan = self.distinct(plan);
        }
        let (limit, offset) = if tail { (stmt.limit, stmt.offset) } else { (None, None) };
        Ok((self.sort(plan, keys, limit, offset, out_schema), out_scope))
    }

    /// An ORDER BY key over a query's output columns `out`: an ordinal, an
    /// expression over them, or a qualified name whose bare name is an
    /// output column (`ORDER BY d.label` finds LABEL).
    fn output_key(&mut self, ast: &AstExpr, out: &Scope) -> Result<(Expr, DataType)> {
        match ast {
            AstExpr::Lit(Datum::Int(n)) => {
                let idx = *n as usize;
                if idx == 0 || idx > out.cols.len() {
                    return Err(DashError::analysis(format!(
                        "ORDER BY position {idx} is out of range"
                    )));
                }
                Ok((Expr::col(idx - 1), out.cols[idx - 1].dt))
            }
            AstExpr::Column {
                qualifier: Some(_),
                name,
            } => self
                .lower(ast, out)
                .or_else(|_| self.lower(&AstExpr::column(name), out)),
            _ => self.lower(ast, out),
        }
    }

    /// Sort `plan` by `keys` — expressions over its columns, with their
    /// types, direction and NULL placement — apply OFFSET/LIMIT, and hand
    /// on its leading `out` columns. A key that is not a bare column is
    /// evaluated once, into a hidden `_SORTi` column a `Project` appends
    /// beneath the sort.
    fn sort(
        &self,
        mut plan: PhysicalPlan,
        keys: Vec<((Expr, DataType), bool, bool)>,
        limit: Option<u64>,
        offset: Option<u64>,
        out: Schema,
    ) -> PhysicalPlan {
        if keys.is_empty() && limit.is_none() && offset.is_none() {
            return plan;
        }
        // Nullable, so the appending projection moves the plan's columns.
        let mut fields: Vec<Field> = plan
            .schema()
            .fields()
            .iter()
            .map(|f| Field::new(f.name.clone(), f.data_type))
            .collect();
        let width = fields.len();
        let mut exprs: Vec<Expr> = (0..width).map(Expr::col).collect();
        let mut sort_keys = Vec::with_capacity(keys.len());
        for (k, ((e, dt), asc, nulls_last)) in keys.into_iter().enumerate() {
            let col = match e {
                Expr::Col(c) => c,
                e => {
                    exprs.push(e);
                    fields.push(Field::new(format!("_SORT{k}"), dt));
                    fields.len() - 1
                }
            };
            sort_keys.push(SortKey { col, asc, nulls_last });
        }
        if fields.len() > width {
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                exprs,
                schema: Schema::new_unchecked(fields.clone()),
            };
        }
        plan = PhysicalPlan::Sort {
            input: Box::new(plan),
            keys: sort_keys,
            limit: limit.map(|l| l as usize),
            offset: offset.unwrap_or(0) as usize,
            parallelism: self.provider.parallelism(),
            run_rows: dash_exec::sort::DEFAULT_SORT_RUN_ROWS,
        };
        if fields.len() > out.len() {
            plan = PhysicalPlan::Project {
                input: Box::new(plan),
                exprs: (0..out.len()).map(Expr::col).collect(),
                schema: out,
            };
        }
        plan
    }

    /// `SELECT DISTINCT` / `UNION` de-duplication is `GROUP BY` every
    /// column with no aggregates: each row's first occurrence, NULLs
    /// together, in first-appearance order.
    fn distinct(&self, input: PhysicalPlan) -> PhysicalPlan {
        let schema = input.schema();
        let group: Vec<usize> = (0..schema.len()).collect();
        PhysicalPlan::HashAggregate {
            key_mode: KeyMode::for_group(&group),
            input: Box::new(input),
            group,
            aggs: Vec::new(),
            schema,
            parallelism: self.provider.parallelism(),
        }
    }

    // ---- FROM clause ------------------------------------------------------

    fn plan_from(&mut self, stmt: &SelectStmt) -> Result<(PhysicalPlan, Scope)> {
        if stmt.from.is_empty() {
            // SELECT without FROM: one empty row.
            return Ok((PhysicalPlan::values(Batch::unit()), Scope::default()));
        }
        // Column pruning needs the set of referenced names for this block.
        let referenced = collect_block_columns(stmt);
        let mut items: Vec<(PhysicalPlan, Scope)> = Vec::new();
        for tr in &stmt.from {
            items.push(self.plan_table_ref(tr, &referenced)?);
        }
        if items.len() == 1 {
            return items
                .pop()
                .ok_or_else(|| DashError::internal("single FROM item vanished"));
        }
        // Comma-list: connect through WHERE equalities (including Oracle
        // `(+)` markers); fall back to cross joins.
        let mut conjuncts = Vec::new();
        if let Some(sel) = &stmt.selection {
            split_conjuncts(sel, &mut conjuncts);
        }
        let (mut plan, mut scope) = items.remove(0);
        while !items.is_empty() {
            // Find a conjunct that links the current scope to some item.
            let mut linked: Option<(usize, usize, usize, bool)> = None; // (item, left_ord, right_ord, outer)
            'search: for (idx, (_, iscope)) in items.iter().enumerate() {
                for c in &conjuncts {
                    if let Some((lq, ln, rq, rn, outer_on_right)) = equi_pair(c) {
                        // left side resolves in current scope, right in item?
                        let combos = [
                            ((lq.as_deref(), ln.as_str()), (rq.as_deref(), rn.as_str()), outer_on_right),
                            ((rq.as_deref(), rn.as_str()), (lq.as_deref(), ln.as_str()), !outer_on_right && equi_has_marker(c)),
                        ];
                        for ((aq, an), (bq, bn), outer) in combos {
                            if let (Some(l), Some(r)) =
                                (scope.resolve(aq, an), iscope.resolve(bq, bn))
                            {
                                // Make sure the "b" side doesn't also resolve in
                                // the current scope with the same qualifier
                                // (self-join safety): qualified refs are exact.
                                let _ = r;
                                linked = Some((idx, l, r, outer));
                                break 'search;
                            }
                        }
                    }
                }
            }
            match linked {
                Some((idx, l, r, outer)) => {
                    let (rplan, rscope) = items.remove(idx);
                    let jt = if outer { JoinType::Left } else { JoinType::Inner };
                    let on = vec![(l, r)];
                    let key_mode = KeyMode::for_join(&plan.schema(), &rplan.schema(), &on);
                    plan = PhysicalPlan::HashJoin {
                        left: Box::new(plan),
                        right: Box::new(rplan),
                        on,
                        join_type: jt,
                        key_mode,
                        parallelism: self.provider.parallelism(),
                    };
                    scope = scope.join(&rscope);
                }
                None => {
                    let (rplan, rscope) = items.remove(0);
                    plan = PhysicalPlan::CrossJoin {
                        left: Box::new(plan),
                        right: Box::new(rplan),
                    };
                    scope = scope.join(&rscope);
                }
            }
        }
        Ok((plan, scope))
    }

    fn plan_table_ref(
        &mut self,
        tr: &TableRef,
        referenced: &Option<Vec<(Option<String>, String)>>,
    ) -> Result<(PhysicalPlan, Scope)> {
        match tr {
            TableRef::Dual => {
                let schema = Schema::new_unchecked(vec![Field::new("DUMMY", DataType::Utf8)]);
                let scope = Scope::from_schema(Some("DUAL"), &schema);
                let dummy = ColumnValues::Str(StrColumn::from_values([Some("X")]));
                Ok((PhysicalPlan::values(Batch::new(schema, vec![dummy])?), scope))
            }
            TableRef::Named { name, alias } => {
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                // CTE?
                if let Some((plan, scope)) = self.ctes.get(name).map(|cte| &**cte) {
                    let scope = Scope {
                        cols: scope
                            .cols
                            .iter()
                            .map(|c| ScopeCol {
                                qualifier: Some(qualifier.clone()),
                                ..c.clone()
                            })
                            .collect(),
                    };
                    return Ok((plan.clone(), scope));
                }
                // View? Parse under its creation dialect.
                if let Some((text, view_dialect)) = self.provider.view(name) {
                    let stmt = crate::parser::parse_statement(&text, view_dialect)?;
                    let select = match stmt {
                        Statement::Select(s) => s,
                        _ => return Err(DashError::internal("view body is not a SELECT")),
                    };
                    let saved = self.dialect;
                    self.dialect = view_dialect;
                    let out = self.plan_query(&select);
                    self.dialect = saved;
                    let (plan, scope) = out?;
                    let scope = Scope {
                        cols: scope
                            .cols
                            .iter()
                            .map(|c| ScopeCol {
                                qualifier: Some(qualifier.clone()),
                                ..c.clone()
                            })
                            .collect(),
                    };
                    return Ok((plan, scope));
                }
                // Base table.
                let handle = self.provider.table(name)?;
                let schema = handle.table.read().schema().clone();
                // Column pruning: keep referenced columns only.
                let projection: Vec<usize> = match referenced {
                    None => (0..schema.len()).collect(),
                    Some(refs) => {
                        let mut keep: Vec<usize> = Vec::new();
                        for (q, n) in refs {
                            let applies = match q {
                                Some(q) => q.eq_ignore_ascii_case(&qualifier),
                                None => true,
                            };
                            if applies {
                                if let Some(i) = schema.index_of(n) {
                                    if !keep.contains(&i) {
                                        keep.push(i);
                                    }
                                }
                            }
                        }
                        // Empty for e.g. COUNT(*): the scan decodes nothing
                        // and emits its survivor counts.
                        keep.sort_unstable();
                        keep
                    }
                };
                let scan_schema = schema.project(&projection);
                let config = ScanConfig {
                    pool: self.provider.pool(),
                    parallelism: self.provider.parallelism(),
                    snapshot: self.provider.snapshot(),
                    ..ScanConfig::full(handle.id, projection)
                };
                Ok((
                    PhysicalPlan::ColumnScan {
                        table: handle.table,
                        config,
                    },
                    Scope::from_schema(Some(&qualifier), &scan_schema),
                ))
            }
            TableRef::Subquery { select, alias } => {
                let (plan, scope) = self.plan_query(select)?;
                let scope = Scope {
                    cols: scope
                        .cols
                        .iter()
                        .map(|c| ScopeCol {
                            qualifier: Some(alias.to_ascii_uppercase()),
                            ..c.clone()
                        })
                        .collect(),
                };
                Ok((plan, scope))
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                let (lplan, lscope) = self.plan_table_ref(left, referenced)?;
                let (rplan, rscope) = self.plan_table_ref(right, referenced)?;
                let combined = lscope.join(&rscope);
                match kind {
                    JoinKind::Cross => Ok((
                        PhysicalPlan::CrossJoin {
                            left: Box::new(lplan),
                            right: Box::new(rplan),
                        },
                        combined,
                    )),
                    JoinKind::Inner | JoinKind::Left | JoinKind::Right => {
                        let (on, residual) = self.join_keys(
                            constraint, &lscope, &rscope, &combined,
                        )?;
                        let (mut plan, scope) = if *kind == JoinKind::Right {
                            // RIGHT JOIN = LEFT JOIN with sides swapped, then
                            // re-project into the original column order.
                            let flipped: Vec<(usize, usize)> =
                                on.iter().map(|&(l, r)| (r, l)).collect();
                            let key_mode = KeyMode::for_join(
                                &rplan.schema(),
                                &lplan.schema(),
                                &flipped,
                            );
                            let inner = PhysicalPlan::HashJoin {
                                left: Box::new(rplan),
                                right: Box::new(lplan),
                                on: flipped,
                                join_type: JoinType::Left,
                                key_mode,
                                parallelism: self.provider.parallelism(),
                            };
                            let nl = lscope.cols.len();
                            let nr = rscope.cols.len();
                            let reorder: Vec<Expr> = (0..nl)
                                .map(|i| Expr::col(nr + i))
                                .chain((0..nr).map(Expr::col))
                                .collect();
                            let plan = PhysicalPlan::Project {
                                input: Box::new(inner),
                                exprs: reorder,
                                schema: combined.to_schema(),
                            };
                            (plan, combined)
                        } else {
                            let jt = if *kind == JoinKind::Left {
                                JoinType::Left
                            } else {
                                JoinType::Inner
                            };
                            let key_mode =
                                KeyMode::for_join(&lplan.schema(), &rplan.schema(), &on);
                            (
                                PhysicalPlan::HashJoin {
                                    left: Box::new(lplan),
                                    right: Box::new(rplan),
                                    on,
                                    join_type: jt,
                                    key_mode,
                                    parallelism: self.provider.parallelism(),
                                },
                                combined,
                            )
                        };
                        if let Some(res) = residual {
                            plan = PhysicalPlan::Filter {
                                input: Box::new(plan),
                                predicate: res,
                            };
                        }
                        Ok((plan, scope))
                    }
                }
            }
        }
    }

    /// Extract hash-join key pairs from a join constraint; non-equi parts
    /// become a residual filter over the combined scope.
    #[allow(clippy::type_complexity)]
    fn join_keys(
        &mut self,
        constraint: &JoinConstraint,
        lscope: &Scope,
        rscope: &Scope,
        combined: &Scope,
    ) -> Result<(Vec<(usize, usize)>, Option<Expr>)> {
        match constraint {
            JoinConstraint::None => Err(DashError::analysis("join requires a condition")),
            JoinConstraint::Using(cols) => {
                let mut on = Vec::new();
                for c in cols {
                    let l = lscope
                        .resolve(None, c)
                        .ok_or_else(|| DashError::not_found("column", c))?;
                    let r = rscope
                        .resolve(None, c)
                        .ok_or_else(|| DashError::not_found("column", c))?;
                    on.push((l, r));
                }
                Ok((on, None))
            }
            JoinConstraint::On(expr) => {
                let mut conjuncts = Vec::new();
                split_conjuncts(expr, &mut conjuncts);
                let mut on = Vec::new();
                let mut residual = Vec::new();
                for c in &conjuncts {
                    let mut matched = false;
                    if let Some((lq, ln, rq, rn, _)) = equi_pair(c) {
                        if let (Some(l), Some(r)) = (
                            lscope.resolve(lq.as_deref(), &ln),
                            rscope.resolve(rq.as_deref(), &rn),
                        ) {
                            on.push((l, lscope.cols.len() + r - lscope.cols.len()));
                            // r is an ordinal within rscope already.
                            let last = on.len() - 1;
                            on[last] = (l, r);
                            matched = true;
                        } else if let (Some(r), Some(l)) = (
                            rscope.resolve(lq.as_deref(), &ln),
                            lscope.resolve(rq.as_deref(), &rn),
                        ) {
                            on.push((l, r));
                            matched = true;
                        }
                    }
                    if !matched {
                        residual.push((*c).clone());
                    }
                }
                if on.is_empty() {
                    return Err(DashError::analysis(
                        "join condition must include at least one equality between the two inputs",
                    ));
                }
                let residual = if residual.is_empty() {
                    None
                } else {
                    Some(self.lower_conjuncts(&residual, combined)?)
                };
                Ok((on, residual))
            }
        }
    }

    fn lower_conjuncts(&mut self, conjuncts: &[AstExpr], scope: &Scope) -> Result<Expr> {
        let mut parts = Vec::with_capacity(conjuncts.len());
        for c in conjuncts {
            let (e, _) = self.lower(c, scope)?;
            parts.push(e);
        }
        match (parts.len(), parts.pop()) {
            (1, Some(e)) => Ok(e),
            (_, Some(last)) => {
                parts.push(last);
                Ok(Expr::And(parts))
            }
            (_, None) => Err(DashError::internal("lower_conjuncts on empty list")),
        }
    }

    // ---- aggregation --------------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn plan_aggregation(
        &mut self,
        input: PhysicalPlan,
        scope: &Scope,
        group_by: &[AstExpr],
        projection: &[(AstExpr, Option<String>)],
        having: Option<&AstExpr>,
        order_by: &[AstExpr],
    ) -> Result<(
        PhysicalPlan,
        Scope,
        Vec<(AstExpr, Option<String>)>,
        Option<AstExpr>,
        Vec<AstExpr>,
    )> {
        // Resolve GROUP BY items: ordinals and output-name references
        // (Netezza) map onto projection expressions.
        let mut group_asts: Vec<AstExpr> = Vec::new();
        for g in group_by {
            let resolved = match g {
                AstExpr::Lit(Datum::Int(n)) => {
                    let idx = *n as usize;
                    if idx == 0 || idx > projection.len() {
                        return Err(DashError::analysis(format!(
                            "GROUP BY position {idx} is out of range"
                        )));
                    }
                    projection[idx - 1].0.clone()
                }
                AstExpr::Column { qualifier: None, name }
                    if scope.resolve(None, name).is_none() =>
                {
                    // Output-column-name grouping (Netezza/PostgreSQL).
                    if !matches!(self.dialect, Dialect::Netezza | Dialect::PostgreSql) {
                        return Err(DashError::not_found("column", name));
                    }
                    let found = projection.iter().find(|(_, alias)| {
                        alias.as_deref().is_some_and(|a| a.eq_ignore_ascii_case(name))
                    });
                    match found {
                        Some((e, _)) => e.clone(),
                        None => return Err(DashError::not_found("column", name)),
                    }
                }
                other => other.clone(),
            };
            group_asts.push(resolved);
        }

        // Collect aggregate calls from projection + having + order by.
        let mut agg_calls: Vec<AstExpr> = Vec::new();
        for (e, _) in projection {
            collect_aggregates(e, &mut agg_calls);
        }
        if let Some(h) = having {
            collect_aggregates(h, &mut agg_calls);
        }
        for o in order_by {
            collect_aggregates(o, &mut agg_calls);
        }

        // Lower group keys, then aggregate arguments: the aggregate's
        // input columns.
        let mut cols: Vec<(Expr, DataType)> = Vec::new();
        let mut out_cols: Vec<ScopeCol> = Vec::new();
        for (i, g) in group_asts.iter().enumerate() {
            let (e, dt) = self.lower(g, scope)?;
            let name = match g {
                AstExpr::Column { name, .. } => name.clone(),
                _ => format!("_GROUP{i}"),
            };
            out_cols.push(ScopeCol {
                qualifier: None,
                name,
                dt,
                nullable: true,
            });
            cols.push((e, dt));
        }
        // Lower aggregates.
        let mut aggs = Vec::new();
        for (i, call) in agg_calls.iter().enumerate() {
            let AstExpr::Func {
                name,
                args,
                distinct,
                star,
            } = call
            else {
                return Err(DashError::internal("non-func aggregate call"));
            };
            let (func, arg_asts): (AggFunc, Vec<AstExpr>) = if *star {
                (AggFunc::CountStar, Vec::new())
            } else if name == "PERCENTILE_CONT" || name == "PERCENTILE_DISC" {
                // Simplified 2-arg form: PERCENTILE_CONT(q, x).
                if args.len() != 2 {
                    return Err(DashError::analysis(format!(
                        "{name} takes (fraction, expression)"
                    )));
                }
                let q = match &args[0] {
                    AstExpr::Lit(d) => d.as_float().ok_or_else(|| {
                        DashError::analysis(format!("{name} fraction must be numeric"))
                    })?,
                    _ => {
                        return Err(DashError::analysis(format!(
                            "{name} fraction must be a literal"
                        )))
                    }
                };
                let f = if name == "PERCENTILE_CONT" {
                    AggFunc::PercentileCont(q)
                } else {
                    AggFunc::PercentileDisc(q)
                };
                (f, vec![args[1].clone()])
            } else {
                let f = AggFunc::from_name(name)
                    .ok_or_else(|| DashError::not_found("aggregate function", name))?;
                if args.len() != f.arg_count() {
                    return Err(DashError::analysis(format!(
                        "{name} takes {} argument(s), got {}",
                        f.arg_count(),
                        args.len()
                    )));
                }
                (f, args.clone())
            };
            let mut arg_types = Vec::with_capacity(arg_asts.len());
            for a in &arg_asts {
                let (e, dt) = self.lower(a, scope)?;
                cols.push((e, dt));
                arg_types.push(dt);
            }
            let out_dt = func.output_type(&arg_types).map_err(|e| e.with_context(name))?;
            out_cols.push(ScopeCol {
                qualifier: None,
                name: format!("_AGG{i}"),
                dt: out_dt,
                nullable: true,
            });
            aggs.push(AggExpr {
                func,
                args: Vec::new(),
                distinct: *distinct,
                arg_types,
            });
        }
        let agg_scope = Scope { cols: out_cols };
        let (input, ordinals) = aggregate_input(input, &cols);
        let mut ordinals = ordinals.into_iter();
        let group: Vec<usize> = ordinals.by_ref().take(group_asts.len()).collect();
        for agg in &mut aggs {
            agg.args = ordinals.by_ref().take(agg.arg_types.len()).collect();
        }
        let plan = PhysicalPlan::HashAggregate {
            input: Box::new(input),
            key_mode: KeyMode::for_group(&group),
            group,
            aggs,
            schema: agg_scope.to_schema(),
            parallelism: self.provider.parallelism(),
        };

        // Rewrite projection/having/order to reference the aggregate
        // output, an aggregate call taking precedence over a group key.
        let (group_cols, agg_cols) = agg_scope.cols.split_at(group_asts.len());
        let subst: Vec<(AstExpr, AstExpr)> = agg_calls
            .iter()
            .zip(agg_cols)
            .chain(group_asts.iter().zip(group_cols))
            .map(|(from, col)| (from.clone(), AstExpr::column(&col.name)))
            .collect();
        let rewritten_proj: Vec<(AstExpr, Option<String>)> = projection
            .iter()
            .map(|(e, a)| (rewrite_post_agg(e, &subst), a.clone()))
            .collect();
        let rewritten_having = having.map(|h| rewrite_post_agg(h, &subst));
        let rewritten_order = order_by
            .iter()
            .map(|o| rewrite_post_agg(o, &subst))
            .collect();
        Ok((plan, agg_scope, rewritten_proj, rewritten_having, rewritten_order))
    }

    // ---- expression lowering ------------------------------------------------

    fn lower(&mut self, ast: &AstExpr, scope: &Scope) -> Result<(Expr, DataType)> {
        match ast {
            AstExpr::Column { qualifier, name } => {
                match scope.resolve(qualifier.as_deref(), name) {
                    Some(i) => Ok((Expr::col(i), scope.cols[i].dt)),
                    None => Err(DashError::not_found("column", name)),
                }
            }
            AstExpr::Lit(d) => {
                let dt = d.data_type().unwrap_or(DataType::Utf8);
                Ok((Expr::Lit(d.clone()), dt))
            }
            AstExpr::Neg(e) => {
                let (inner, dt) = self.lower(e, scope)?;
                // `-5` parses as Neg(Lit(5)): fold it, so `col <op> -5` is a
                // column/literal comparison the scan can push down.
                // `-i64::MIN` has no literal and stays an expression; so
                // does `-0.0`, which compares equal to `0.0` as an
                // expression but sorts below it as a pushed code bound.
                let folded = match &inner {
                    Expr::Lit(Datum::Int(n)) => n.checked_neg().map(Datum::Int),
                    Expr::Lit(Datum::Float(f)) if *f != 0.0 => Some(Datum::Float(-f)),
                    Expr::Lit(Datum::Decimal(d, s)) => d.checked_neg().map(|d| Datum::Decimal(d, *s)),
                    _ => None,
                };
                Ok((folded.map_or_else(|| Expr::Neg(Box::new(inner)), Expr::Lit), dt))
            }
            AstExpr::Not(e) => {
                let (inner, _) = self.lower(e, scope)?;
                Ok((Expr::Not(Box::new(inner)), DataType::Bool))
            }
            AstExpr::Binary { op, left, right } => self.lower_binary(*op, left, right, scope),
            AstExpr::OuterJoinMarker(e) => {
                // Markers are consumed by join planning; one surviving here
                // (e.g. inside a one-table query) degrades to its operand.
                self.lower(e, scope)
            }
            AstExpr::IsNull { expr, negated } => {
                let (inner, _) = self.lower(expr, scope)?;
                Ok((
                    Expr::IsNull {
                        expr: Box::new(inner),
                        negated: *negated,
                    },
                    DataType::Bool,
                ))
            }
            AstExpr::IsBool {
                expr,
                value,
                negated,
            } => {
                let (inner, _) = self.lower(expr, scope)?;
                // x ISTRUE ⇔ COALESCE(x = true, false).
                let cmp = Expr::Cmp(
                    CmpOp::Eq,
                    Box::new(inner),
                    Box::new(Expr::lit(*value)),
                );
                let coalesce = self.registry.resolve("COALESCE", Dialect::Ansi)?;
                let base = Expr::Func(coalesce, vec![cmp, Expr::lit(false)]);
                let e = if *negated {
                    Expr::Not(Box::new(base))
                } else {
                    base
                };
                Ok((e, DataType::Bool))
            }
            AstExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (v, vdt) = self.lower(expr, scope)?;
                let lo = compared(self.lower(low, scope)?.0, vdt)?;
                let hi = compared(self.lower(high, scope)?.0, vdt)?;
                let range = Expr::And(vec![
                    Expr::Cmp(CmpOp::Ge, Box::new(v.clone()), Box::new(lo)),
                    Expr::Cmp(CmpOp::Le, Box::new(v), Box::new(hi)),
                ]);
                let e = if *negated {
                    Expr::Not(Box::new(range))
                } else {
                    range
                };
                Ok((e, DataType::Bool))
            }
            AstExpr::InList {
                expr,
                list,
                negated,
            } => {
                let (v, vdt) = self.lower(expr, scope)?;
                let mut datums = Vec::with_capacity(list.len());
                for item in list {
                    match compared(self.lower(item, scope)?.0, vdt)? {
                        Expr::Lit(d) => datums.push(d),
                        _ => {
                            // Non-literal IN items: expand to OR of equalities.
                            let mut ors = Vec::with_capacity(list.len());
                            for item in list {
                                let rhs = compared(self.lower(item, scope)?.0, vdt)?;
                                ors.push(Expr::Cmp(
                                    CmpOp::Eq,
                                    Box::new(v.clone()),
                                    Box::new(rhs),
                                ));
                            }
                            let e = Expr::Or(ors);
                            let e = if *negated { Expr::Not(Box::new(e)) } else { e };
                            return Ok((e, DataType::Bool));
                        }
                    }
                }
                Ok((
                    Expr::InList {
                        expr: Box::new(v),
                        list: datums,
                        negated: *negated,
                    },
                    DataType::Bool,
                ))
            }
            AstExpr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let (v, _) = self.lower(expr, scope)?;
                let rows = self.execute_subquery(subquery, 1)?;
                let list: Vec<Datum> = (0..rows.len()).map(|i| rows.value(i, 0)).collect();
                Ok((
                    Expr::InList {
                        expr: Box::new(v),
                        list,
                        negated: *negated,
                    },
                    DataType::Bool,
                ))
            }
            AstExpr::Exists { subquery, negated } => {
                let rows = self.execute_subquery(subquery, usize::MAX)?;
                Ok((Expr::lit(rows.is_empty() == *negated), DataType::Bool))
            }
            AstExpr::ScalarSubquery(subquery) => {
                let rows = self.execute_subquery(subquery, 1)?;
                if rows.len() > 1 {
                    return Err(DashError::exec(
                        "scalar subquery returned more than one row",
                    ));
                }
                let d = if rows.is_empty() { Datum::Null } else { rows.value(0, 0) };
                let dt = d.data_type().unwrap_or(DataType::Utf8);
                Ok((Expr::Lit(d), dt))
            }
            AstExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let (v, _) = self.lower(expr, scope)?;
                let pattern = match self.lower(pattern, scope)? {
                    (Expr::Lit(Datum::Str(s)), _) => s.to_string(),
                    _ => {
                        return Err(DashError::analysis(
                            "LIKE pattern must be a string literal",
                        ))
                    }
                };
                Ok((
                    Expr::Like {
                        expr: Box::new(v),
                        pattern,
                        negated: *negated,
                    },
                    DataType::Bool,
                ))
            }
            AstExpr::Func {
                name,
                args,
                distinct,
                star,
            } => {
                if *star || AggFunc::from_name(name).is_some() {
                    return Err(DashError::analysis(format!(
                        "aggregate {name} is not allowed in this context"
                    )));
                }
                if *distinct {
                    return Err(DashError::analysis(
                        "DISTINCT is only valid inside aggregates",
                    ));
                }
                let f = match self.provider.udx(name) {
                    Some(udx) if udx.dialects.contains(self.dialect) => udx,
                    _ => self.registry.resolve(name, self.dialect)?,
                };
                let mut lowered = Vec::with_capacity(args.len());
                for a in args {
                    lowered.push(self.lower(a, scope)?);
                }
                if lowered.len() < f.min_args || lowered.len() > f.max_args {
                    return Err(DashError::analysis(format!(
                        "{} takes {}..{} arguments, got {}",
                        f.name,
                        f.min_args,
                        if f.max_args == usize::MAX {
                            "N".to_string()
                        } else {
                            f.max_args.to_string()
                        },
                        lowered.len()
                    )));
                }
                // The function's own rule types it; the arguments it may
                // return are cast to that type.
                let types: Vec<Option<DataType>> = lowered.iter().map(|(e, dt)| constraint(e, *dt)).collect();
                let dt = f.result_type(&types);
                let n = lowered.len();
                let args = lowered
                    .into_iter()
                    .enumerate()
                    .map(|(i, (e, t))| if f.takes_value(i, n) { cast(e, t, dt) } else { e })
                    .collect();
                Ok((Expr::Func(f, args), dt))
            }
            AstExpr::Cast {
                expr,
                type_name,
                type_args,
            } => {
                let (inner, _) = self.lower(expr, scope)?;
                let dt = DataType::from_sql_name(type_name, type_args).ok_or_else(|| {
                    DashError::analysis(format!("unknown type {type_name}"))
                })?;
                Ok((Expr::Cast(Box::new(inner), dt), dt))
            }
            AstExpr::Case {
                operand,
                branches,
                otherwise,
            } => {
                let op = match operand {
                    Some(o) => Some(Box::new(self.lower(o, scope)?.0)),
                    None => None,
                };
                let mut whens = Vec::with_capacity(branches.len());
                let mut results = Vec::with_capacity(branches.len() + 1);
                for (w, t) in branches {
                    whens.push(self.lower(w, scope)?.0);
                    results.push(self.lower(t, scope)?);
                }
                if let Some(o) = otherwise {
                    results.push(self.lower(o, scope)?);
                }
                // The result is the common supertype of every THEN and the
                // ELSE, each cast to it.
                let dt = supertype(results.iter().filter_map(|(e, t)| constraint(e, *t)));
                let mut results = results.into_iter().map(|(e, t)| cast(e, t, dt));
                let branches = whens.into_iter().zip(&mut results).collect();
                let otherwise = results.next().map(Box::new);
                Ok((
                    Expr::Case {
                        operand: op,
                        branches,
                        otherwise,
                    },
                    dt,
                ))
            }
            AstExpr::NextVal(seq) => Ok((Expr::SeqNext(seq.clone()), DataType::Int64)),
            AstExpr::CurrVal(seq) => Ok((Expr::SeqCurr(seq.clone()), DataType::Int64)),
            AstExpr::Overlaps { left, right } => {
                // (s1, e1) OVERLAPS (s2, e2) ⇔ s1 < e2 AND s2 < e1.
                let (s1, _) = self.lower(&left.0, scope)?;
                let (e1, _) = self.lower(&left.1, scope)?;
                let (s2, _) = self.lower(&right.0, scope)?;
                let (e2, _) = self.lower(&right.1, scope)?;
                Ok((
                    Expr::And(vec![
                        Expr::Cmp(CmpOp::Lt, Box::new(s1), Box::new(e2)),
                        Expr::Cmp(CmpOp::Lt, Box::new(s2), Box::new(e1)),
                    ]),
                    DataType::Bool,
                ))
            }
            AstExpr::Prior(_) => Err(DashError::analysis(
                "PRIOR is only valid inside CONNECT BY",
            )),
        }
    }

    fn lower_binary(
        &mut self,
        op: BinOp,
        left: &AstExpr,
        right: &AstExpr,
        scope: &Scope,
    ) -> Result<(Expr, DataType)> {
        let (l, ldt) = self.lower(left, scope)?;
        let (r, rdt) = self.lower(right, scope)?;
        let cmp = |c: CmpOp, l: Expr, r: Expr| -> Result<(Expr, DataType)> {
            let (l, r) = (compared(l, rdt)?, compared(r, ldt)?);
            Ok((Expr::Cmp(c, Box::new(l), Box::new(r)), DataType::Bool))
        };
        Ok(match op {
            BinOp::Eq => cmp(CmpOp::Eq, l, r)?,
            BinOp::Ne => cmp(CmpOp::Ne, l, r)?,
            BinOp::Lt => cmp(CmpOp::Lt, l, r)?,
            BinOp::Le => cmp(CmpOp::Le, l, r)?,
            BinOp::Gt => cmp(CmpOp::Gt, l, r)?,
            BinOp::Ge => cmp(CmpOp::Ge, l, r)?,
            BinOp::And => (Expr::And(vec![l, r]), DataType::Bool),
            BinOp::Or => (Expr::Or(vec![l, r]), DataType::Bool),
            BinOp::Concat => {
                let f = self.registry.resolve("CONCAT", Dialect::Ansi)?;
                (Expr::Func(f, vec![l, r]), DataType::Utf8)
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let aop = match op {
                    BinOp::Add => ArithOp::Add,
                    BinOp::Sub => ArithOp::Sub,
                    BinOp::Mul => ArithOp::Mul,
                    BinOp::Div => ArithOp::Div,
                    _ => ArithOp::Rem,
                };
                // Without a rule the operands are no numbers and the
                // evaluator refuses any non-NULL pair.
                let (dt, [lt, rt]) = arith_type(aop, ldt, rdt).unwrap_or((DataType::Float64, [ldt, rdt]));
                (Expr::Arith(aop, Box::new(cast(l, ldt, lt)), Box::new(cast(r, rdt, rt))), dt)
            }
        })
    }

    /// Plan and run an uncorrelated subquery, returning all its rows
    /// (`max_cols` validates the column count).
    fn execute_subquery(&mut self, subquery: &SelectStmt, max_cols: usize) -> Result<Batch> {
        let (plan, scope) = self.plan_query(subquery)?;
        if max_cols != usize::MAX && scope.cols.len() != max_cols {
            return Err(DashError::analysis(format!(
                "subquery must return {max_cols} column(s), returned {}",
                scope.cols.len()
            )));
        }
        let plan = pushdown(plan, self.provider);
        let (batch, _) = dash_exec::plan::execute(&plan, self.ctx)?;
        Ok(batch)
    }
}

// ---- helpers ---------------------------------------------------------------

/// `e`, a value of type `from`, as one of type `to`: an explicit `Cast`
/// where the value's representation changes, folded at plan time for a
/// literal (a NULL literal is of every type already).
fn cast(e: Expr, from: DataType, to: DataType) -> Expr {
    match e {
        e if same_repr(from, to) => e,
        Expr::Lit(d) => match coerce_datum(d.clone(), to) {
            Ok(v) => Expr::Lit(v),
            // Fails at run time, as the cast would have.
            Err(_) => Expr::Cast(Box::new(Expr::Lit(d)), to),
        },
        e => Expr::Cast(Box::new(e), to),
    }
}

/// `e` as an operand compared with one of type `other`: a string literal
/// compared with a DATE or TIMESTAMP is cast to that type here — as a
/// pushed scan bound is — so every plan of the comparison compares the
/// same values. A literal that does not parse is the cast's error.
fn compared(e: Expr, other: DataType) -> Result<Expr> {
    match e {
        Expr::Lit(d @ Datum::Str(_)) if matches!(other, DataType::Date | DataType::Timestamp) => {
            Ok(Expr::Lit(coerce_datum(d, other)?))
        }
        e => Ok(e),
    }
}

/// The type `e` constrains a common supertype with: its own, or none for
/// a NULL literal (typed `VARCHAR` only for want of a type).
fn constraint(e: &Expr, dt: DataType) -> Option<DataType> {
    (!matches!(e, Expr::Lit(Datum::Null))).then_some(dt)
}

/// The type column `i` of UNION arm `plan` constrains the merged type
/// with: none where the arm's value there is a bare NULL literal (or,
/// for a nested set operation, where every arm's is).
fn arm_constraint(plan: &PhysicalPlan, i: usize, dt: DataType) -> Option<DataType> {
    fn untyped(plan: &PhysicalPlan, i: usize) -> bool {
        match plan {
            PhysicalPlan::Project { exprs, .. } => matches!(exprs[i], Expr::Lit(Datum::Null)),
            PhysicalPlan::UnionAll { inputs } => inputs.iter().all(|p| untyped(p, i)),
            PhysicalPlan::HashAggregate { input, group, aggs, .. } if aggs.is_empty() => {
                untyped(input, group[i])
            }
            _ => false,
        }
    }
    (!untyped(plan, i)).then_some(dt)
}

/// Cast a UNION arm's columns to the merged types, where they differ.
fn coerce_arm(plan: PhysicalPlan, scope: &Scope, merged: &[DataType]) -> PhysicalPlan {
    if scope.cols.iter().zip(merged).all(|(c, m)| c.dt == *m) {
        return plan;
    }
    let exprs = (0..merged.len()).map(|i| cast(Expr::col(i), scope.cols[i].dt, merged[i])).collect();
    let fields: Vec<Field> = scope
        .cols
        .iter()
        .zip(merged)
        .map(|(c, m)| Field {
            name: c.name.clone(),
            data_type: *m,
            nullable: true,
        })
        .collect();
    PhysicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new_unchecked(fields),
    }
}

/// The output name of unaliased select item `i`.
pub fn derive_name(ast: &AstExpr, i: usize) -> String {
    match ast {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Func { name, .. } => name.clone(),
        AstExpr::NextVal(_) => "NEXTVAL".to_string(),
        AstExpr::CurrVal(_) => "CURRVAL".to_string(),
        _ => format!("COL{}", i + 1),
    }
}

fn split_conjuncts(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(left, out);
            split_conjuncts(right, out);
        }
        other => out.push(other.clone()),
    }
    let _ = e;
}

/// If the conjunct is `col = col` (possibly with an Oracle `(+)` marker),
/// return (left qualifier, left name, right qualifier, right name,
/// outer_marker_on_right).
#[allow(clippy::type_complexity)]
fn equi_pair(
    e: &AstExpr,
) -> Option<(Option<String>, String, Option<String>, String, bool)> {
    let AstExpr::Binary {
        op: BinOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    fn unwrap_col(e: &AstExpr) -> Option<(Option<String>, String, bool)> {
        match e {
            AstExpr::Column { qualifier, name } => {
                Some((qualifier.clone(), name.clone(), false))
            }
            AstExpr::OuterJoinMarker(inner) => {
                let (q, n, _) = unwrap_col(inner)?;
                Some((q, n, true))
            }
            _ => None,
        }
    }
    let (lq, ln, lmark) = unwrap_col(left)?;
    let (rq, rn, rmark) = unwrap_col(right)?;
    let _ = lmark;
    Some((lq, ln, rq, rn, rmark))
}

fn equi_has_marker(e: &AstExpr) -> bool {
    if let AstExpr::Binary { left, right, .. } = e {
        matches!(**left, AstExpr::OuterJoinMarker(_))
            || matches!(**right, AstExpr::OuterJoinMarker(_))
    } else {
        false
    }
}

fn references_rownum(e: &AstExpr) -> bool {
    match e {
        AstExpr::Column { name, .. } => name == "ROWNUM",
        AstExpr::Binary { left, right, .. } => {
            references_rownum(left) || references_rownum(right)
        }
        AstExpr::Neg(i) | AstExpr::Not(i) => references_rownum(i),
        _ => false,
    }
}

fn block_references_rownum(stmt: &SelectStmt) -> bool {
    stmt.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => references_rownum(expr),
        _ => false,
    })
}

/// Append every aggregate call in `e` that `out` does not hold yet.
pub fn collect_aggregates(e: &AstExpr, out: &mut Vec<AstExpr>) {
    match e {
        AstExpr::Func { name, args, star, .. } => {
            if *star || AggFunc::from_name(name).is_some() {
                if !out.contains(e) {
                    out.push(e.clone());
                }
                return; // nested aggregates are invalid anyway
            }
            for a in args {
                collect_aggregates(a, out);
            }
        }
        AstExpr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        AstExpr::Neg(i) | AstExpr::Not(i) | AstExpr::Prior(i) => collect_aggregates(i, out),
        AstExpr::IsNull { expr, .. }
        | AstExpr::IsBool { expr, .. }
        | AstExpr::OuterJoinMarker(expr) => collect_aggregates(expr, out),
        AstExpr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        AstExpr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for l in list {
                collect_aggregates(l, out);
            }
        }
        AstExpr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        AstExpr::Cast { expr, .. } => collect_aggregates(expr, out),
        AstExpr::Case {
            operand,
            branches,
            otherwise,
        } => {
            if let Some(o) = operand {
                collect_aggregates(o, out);
            }
            for (w, t) in branches {
                collect_aggregates(w, out);
                collect_aggregates(t, out);
            }
            if let Some(o) = otherwise {
                collect_aggregates(o, out);
            }
        }
        _ => {}
    }
}

/// Rewrite an expression after aggregation: wherever a `from` expression
/// of `subst` occurs (the aggregate calls and GROUP BY expressions, first
/// match wins), put its `to` — a reference to the column that now holds it.
pub fn rewrite_post_agg(e: &AstExpr, subst: &[(AstExpr, AstExpr)]) -> AstExpr {
    if let Some((_, to)) = subst.iter().find(|(from, _)| from == e) {
        return to.clone();
    }
    match e {
        AstExpr::Binary { op, left, right } => AstExpr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(left, subst)),
            right: Box::new(rewrite_post_agg(right, subst)),
        },
        AstExpr::Neg(i) => AstExpr::Neg(Box::new(rewrite_post_agg(i, subst))),
        AstExpr::Not(i) => AstExpr::Not(Box::new(rewrite_post_agg(i, subst))),
        AstExpr::IsNull { expr, negated } => AstExpr::IsNull {
            expr: Box::new(rewrite_post_agg(expr, subst)),
            negated: *negated,
        },
        AstExpr::Between {
            expr,
            low,
            high,
            negated,
        } => AstExpr::Between {
            expr: Box::new(rewrite_post_agg(expr, subst)),
            low: Box::new(rewrite_post_agg(low, subst)),
            high: Box::new(rewrite_post_agg(high, subst)),
            negated: *negated,
        },
        AstExpr::InList {
            expr,
            list,
            negated,
        } => AstExpr::InList {
            expr: Box::new(rewrite_post_agg(expr, subst)),
            list: list
                .iter()
                .map(|l| rewrite_post_agg(l, subst))
                .collect(),
            negated: *negated,
        },
        AstExpr::Cast {
            expr,
            type_name,
            type_args,
        } => AstExpr::Cast {
            expr: Box::new(rewrite_post_agg(expr, subst)),
            type_name: type_name.clone(),
            type_args: type_args.clone(),
        },
        AstExpr::Func {
            name,
            args,
            distinct,
            star,
        } => AstExpr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_post_agg(a, subst))
                .collect(),
            distinct: *distinct,
            star: *star,
        },
        AstExpr::Case {
            operand,
            branches,
            otherwise,
        } => AstExpr::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(rewrite_post_agg(o, subst))),
            branches: branches
                .iter()
                .map(|(w, t)| {
                    (
                        rewrite_post_agg(w, subst),
                        rewrite_post_agg(t, subst),
                    )
                })
                .collect(),
            otherwise: otherwise
                .as_ref()
                .map(|o| Box::new(rewrite_post_agg(o, subst))),
        },
        other => other.clone(),
    }
}

/// Collect every column referenced in a query block (its own clauses, not
/// nested subquery bodies). `None` when a wildcard makes pruning unsafe.
fn collect_block_columns(stmt: &SelectStmt) -> Option<Vec<(Option<String>, String)>> {
    let mut out = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => return None,
            SelectItem::Expr { expr, .. } => collect_expr_columns(expr, &mut out),
        }
    }
    if let Some(w) = &stmt.selection {
        collect_expr_columns(w, &mut out);
    }
    for g in &stmt.group_by {
        collect_expr_columns(g, &mut out);
    }
    if let Some(h) = &stmt.having {
        collect_expr_columns(h, &mut out);
    }
    for o in &stmt.order_by {
        collect_expr_columns(&o.expr, &mut out);
    }
    if let Some(sw) = &stmt.start_with {
        collect_expr_columns(sw, &mut out);
    }
    if let Some((p, c)) = &stmt.connect_by {
        out.push((None, p.clone()));
        out.push((None, c.clone()));
    }
    // JOIN constraints reference columns too.
    fn walk_tr(tr: &TableRef, out: &mut Vec<(Option<String>, String)>) {
        if let TableRef::Join {
            left,
            right,
            constraint,
            ..
        } = tr
        {
            walk_tr(left, out);
            walk_tr(right, out);
            match constraint {
                JoinConstraint::On(e) => collect_expr_columns(e, out),
                JoinConstraint::Using(cols) => {
                    for c in cols {
                        out.push((None, c.clone()));
                    }
                }
                JoinConstraint::None => {}
            }
        }
    }
    for tr in &stmt.from {
        walk_tr(tr, &mut out);
    }
    Some(out)
}

/// Append every column reference in `e` as `(qualifier, name)`.
pub fn collect_expr_columns(e: &AstExpr, out: &mut Vec<(Option<String>, String)>) {
    match e {
        AstExpr::Column { qualifier, name } => out.push((qualifier.clone(), name.clone())),
        AstExpr::Binary { left, right, .. } => {
            collect_expr_columns(left, out);
            collect_expr_columns(right, out);
        }
        AstExpr::Neg(i) | AstExpr::Not(i) | AstExpr::Prior(i) | AstExpr::OuterJoinMarker(i) => {
            collect_expr_columns(i, out)
        }
        AstExpr::IsNull { expr, .. } | AstExpr::IsBool { expr, .. } => {
            collect_expr_columns(expr, out)
        }
        AstExpr::Between {
            expr, low, high, ..
        } => {
            collect_expr_columns(expr, out);
            collect_expr_columns(low, out);
            collect_expr_columns(high, out);
        }
        AstExpr::InList { expr, list, .. } => {
            collect_expr_columns(expr, out);
            for l in list {
                collect_expr_columns(l, out);
            }
        }
        AstExpr::InSubquery { expr, .. } => collect_expr_columns(expr, out),
        AstExpr::Like { expr, pattern, .. } => {
            collect_expr_columns(expr, out);
            collect_expr_columns(pattern, out);
        }
        AstExpr::Func { args, .. } => {
            for a in args {
                collect_expr_columns(a, out);
            }
        }
        AstExpr::Cast { expr, .. } => collect_expr_columns(expr, out),
        AstExpr::Case {
            operand,
            branches,
            otherwise,
        } => {
            if let Some(o) = operand {
                collect_expr_columns(o, out);
            }
            for (w, t) in branches {
                collect_expr_columns(w, out);
                collect_expr_columns(t, out);
            }
            if let Some(o) = otherwise {
                collect_expr_columns(o, out);
            }
        }
        AstExpr::Overlaps { left, right } => {
            collect_expr_columns(&left.0, out);
            collect_expr_columns(&left.1, out);
            collect_expr_columns(&right.0, out);
            collect_expr_columns(&right.1, out);
        }
        _ => {}
    }
}

// ---- predicate pushdown -----------------------------------------------------

/// AND a conjunct list without panicking at any arity: `None` for an
/// empty list, the sole predicate for one, `Expr::And` otherwise.
fn and_all(mut preds: Vec<Expr>) -> Option<Expr> {
    match preds.len() {
        0 => None,
        1 => preds.pop(),
        _ => Some(Expr::And(preds)),
    }
}

/// Push simple filter conjuncts into column scans so they evaluate on
/// compressed codes with synopsis pruning. Applied bottom-up. When the
/// provider turns [`SchemaProvider::compressed_predicates`] off, conjuncts
/// still move below joins and into the scan, but only as its residual.
pub fn pushdown(plan: PhysicalPlan, provider: &dyn SchemaProvider) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Filter { input, predicate } => {
            // Push conjuncts through inner/cross joins toward the side
            // whose columns they reference, then recurse so they can merge
            // into the scans.
            let input = match *input {
                PhysicalPlan::HashJoin {
                    left,
                    right,
                    on,
                    join_type: JoinType::Inner,
                    key_mode,
                    parallelism,
                } => {
                    let lw = left.schema().len();
                    let mut conjuncts = Vec::new();
                    flatten_and(predicate, &mut conjuncts);
                    let (mut lpreds, mut rpreds, mut keep) = (Vec::new(), Vec::new(), Vec::new());
                    for c in conjuncts {
                        let mut cols = Vec::new();
                        c.referenced_columns(&mut cols);
                        if !cols.is_empty() && cols.iter().all(|&i| i < lw) {
                            lpreds.push(c);
                        } else if !cols.is_empty() && cols.iter().all(|&i| i >= lw) {
                            rpreds.push(shift_cols(c, lw));
                        } else {
                            keep.push(c);
                        }
                    }
                    let wrap = |child: PhysicalPlan, preds: Vec<Expr>| match and_all(preds) {
                        Some(predicate) => PhysicalPlan::Filter {
                            input: Box::new(child),
                            predicate,
                        },
                        None => child,
                    };
                    let join = PhysicalPlan::HashJoin {
                        left: Box::new(pushdown(wrap(*left, lpreds), provider)),
                        right: Box::new(pushdown(wrap(*right, rpreds), provider)),
                        on,
                        join_type: JoinType::Inner,
                        key_mode,
                        parallelism,
                    };
                    return match and_all(keep) {
                        Some(predicate) => PhysicalPlan::Filter {
                            input: Box::new(join),
                            predicate,
                        },
                        None => join,
                    };
                }
                other => pushdown(other, provider),
            };
            if let PhysicalPlan::ColumnScan { table, mut config } = input {
                let mut conjuncts = Vec::new();
                flatten_and(predicate, &mut conjuncts);
                let compressed = provider.compressed_predicates();
                let schema = table.read().schema().clone();
                let mut residual: Vec<Expr> = Vec::new();
                for c in conjuncts {
                    let pushed = if compressed {
                        to_column_predicate(&c, &config.projection, &table)
                    } else {
                        None
                    };
                    match pushed {
                        Some(p) => push_intersected(&mut config.predicates, p, &schema),
                        None => residual.push(c),
                    }
                }
                // Residual expressions inside the scan reference table
                // ordinals; remap from scan-output ordinals.
                let remapped: Vec<Expr> = residual
                    .into_iter()
                    .map(|e| e.map_columns(&|i| config.projection[i]))
                    .collect();
                if let Some(combined) = and_all(remapped) {
                    config.residual = Some(match config.residual.take() {
                        Some(prev) => Expr::And(vec![prev, combined]),
                        None => combined,
                    });
                }
                PhysicalPlan::ColumnScan { table, config }
            } else {
                PhysicalPlan::Filter {
                    input: Box::new(input),
                    predicate,
                }
            }
        }
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
        } => PhysicalPlan::Project {
            input: Box::new(pushdown(*input, provider)),
            exprs,
            schema,
        },
        PhysicalPlan::HashJoin {
            left,
            right,
            on,
            join_type,
            key_mode,
            parallelism,
        } => PhysicalPlan::HashJoin {
            left: Box::new(pushdown(*left, provider)),
            right: Box::new(pushdown(*right, provider)),
            on,
            join_type,
            key_mode,
            parallelism,
        },
        PhysicalPlan::CrossJoin { left, right } => PhysicalPlan::CrossJoin {
            left: Box::new(pushdown(*left, provider)),
            right: Box::new(pushdown(*right, provider)),
        },
        PhysicalPlan::HashAggregate {
            input,
            group,
            aggs,
            schema,
            key_mode,
            parallelism,
        } => PhysicalPlan::HashAggregate {
            input: Box::new(pushdown(*input, provider)),
            group,
            aggs,
            schema,
            key_mode,
            parallelism,
        },
        PhysicalPlan::Sort {
            input,
            keys,
            limit,
            offset,
            parallelism,
            run_rows,
        } => PhysicalPlan::Sort {
            input: Box::new(pushdown(*input, provider)),
            keys,
            limit,
            offset,
            parallelism,
            run_rows,
        },
        PhysicalPlan::UnionAll { inputs } => PhysicalPlan::UnionAll {
            inputs: inputs.into_iter().map(|p| pushdown(p, provider)).collect(),
        },
        PhysicalPlan::RowNumber { input, name } => PhysicalPlan::RowNumber {
            input: Box::new(pushdown(*input, provider)),
            name,
        },
        PhysicalPlan::ConnectBy {
            input,
            start_with,
            parent,
            child,
        } => PhysicalPlan::ConnectBy {
            input: Box::new(pushdown(*input, provider)),
            start_with,
            parent,
            child,
        },
        leaf @ (PhysicalPlan::ColumnScan { .. } | PhysicalPlan::Values { .. }) => leaf,
    }
}

fn flatten_and(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(parts) => {
            for p in parts {
                flatten_and(p, out);
            }
        }
        other => out.push(other),
    }
}

/// Try converting a lowered conjunct over scan *output* ordinals into a
/// pushable [`ColumnPredicate`] over *table* ordinals.
fn to_column_predicate(
    e: &Expr,
    projection: &[usize],
    table: &SharedTable,
) -> Option<ColumnPredicate> {
    let schema = table.read().schema().clone();
    match e {
        Expr::IsNull { expr, negated } => {
            if let Expr::Col(i) = **expr {
                Some(ColumnPredicate::IsNull {
                    col: projection[i],
                    negated: *negated,
                })
            } else {
                None
            }
        }
        Expr::Cmp(op, l, r) => {
            let (col, lit, op) = match (&**l, &**r) {
                (Expr::Col(i), Expr::Lit(d)) => (*i, d.clone(), *op),
                (Expr::Lit(d), Expr::Col(i)) => (*i, d.clone(), op.flip()),
                _ => return None,
            };
            if lit.is_null() {
                // `col = NULL` is never true; leave as residual (correctly
                // evaluates to no rows).
                return None;
            }
            let table_col = projection[col];
            let dt = schema.field(table_col).data_type;
            // A numeric bound becomes a code range only if the column's
            // type holds it exactly; `b > 2.5` on an integer column, or a
            // bound outside the type's range, stays a residual, which
            // compares as `Expr::eval` does.
            if lit.is_numeric() && dt.is_numeric() {
                match coerce_datum(lit.clone(), dt) {
                    Ok(Datum::Decimal(v, _)) if i64::try_from(v).is_err() => return None,
                    Ok(v) if v.sql_cmp(&lit) == std::cmp::Ordering::Equal => {}
                    _ => return None,
                }
            }
            let (lo, hi) = match op {
                CmpOp::Eq => (Some(lit.clone()), Some(lit)),
                CmpOp::Le => (None, Some(lit)),
                CmpOp::Ge => (Some(lit), None),
                CmpOp::Lt => (None, Some(exclusive_to_inclusive(lit, dt, false)?)),
                CmpOp::Gt => (Some(exclusive_to_inclusive(lit, dt, true)?), None),
                CmpOp::Ne => return None,
            };
            Some(ColumnPredicate::Range {
                col: table_col,
                lo,
                hi,
            })
        }
        _ => None,
    }
}

/// Push `p`, intersecting a `Range` into an already pushed `Range` on the
/// same column, so `x BETWEEN a AND b` costs one kernel pass and one
/// synopsis probe per stride, not two. Each bound has passed
/// [`to_column_predicate`]'s exactness rule; bounds that do not compare
/// exactly in the column's type are pushed side by side as before.
fn push_intersected(preds: &mut Vec<ColumnPredicate>, p: ColumnPredicate, schema: &Schema) {
    if let ColumnPredicate::Range { col, lo, hi } = &p {
        let dt = schema.field(*col).data_type;
        for q in preds.iter_mut() {
            let ColumnPredicate::Range { col: qcol, lo: qlo, hi: qhi } = q else {
                continue;
            };
            if qcol != col {
                continue;
            }
            let lo = tighter_bound(qlo, lo, dt, std::cmp::Ordering::Greater);
            let hi = tighter_bound(qhi, hi, dt, std::cmp::Ordering::Less);
            if let (Some(lo), Some(hi)) = (lo, hi) {
                (*qlo, *qhi) = (lo, hi);
                return;
            }
        }
    }
    preds.push(p);
}

/// The tighter of two optional bounds on a column of type `dt`: the one
/// that compares as `keep` against the other (`Greater` for lower bounds,
/// `Less` for upper). `None` when the two do not compare exactly.
fn tighter_bound(
    a: &Option<Datum>,
    b: &Option<Datum>,
    dt: DataType,
    keep: std::cmp::Ordering,
) -> Option<Option<Datum>> {
    let (x, y) = match (a, b) {
        (None, other) | (other, None) => return Some(other.clone()),
        (Some(x), Some(y)) => (x, y),
    };
    let order = match (coerce_datum(x.clone(), dt).ok()?, coerce_datum(y.clone(), dt).ok()?) {
        (Datum::Float(u), Datum::Float(v)) => u.partial_cmp(&v)?,
        (Datum::Decimal(u, s), Datum::Decimal(v, t)) if s == t => u.cmp(&v),
        (Datum::Decimal(..), _) | (_, Datum::Decimal(..)) => return None,
        (u, v) if std::mem::discriminant(&u) == std::mem::discriminant(&v) => u.sql_cmp(&v),
        _ => return None,
    };
    Some(Some(if order == keep { x.clone() } else { y.clone() }))
}

/// Convert an exclusive bound to an inclusive one where the domain allows
/// (`x < 5` ⇔ `x <= 4` for integers/dates; floats use next_down/up;
/// strings cannot be adjusted).
fn exclusive_to_inclusive(d: Datum, dt: DataType, lower: bool) -> Option<Datum> {
    match (dt.is_integer_encodable(), d) {
        (true, Datum::Int(v)) => Some(Datum::Int(if lower { v.checked_add(1)? } else { v.checked_sub(1)? })),
        (true, Datum::Date(v)) => Some(Datum::Date(if lower { v.checked_add(1)? } else { v.checked_sub(1)? })),
        (true, Datum::Timestamp(v)) => {
            Some(Datum::Timestamp(if lower { v.checked_add(1)? } else { v.checked_sub(1)? }))
        }
        (_, Datum::Float(f)) => Some(Datum::Float(if lower { f.next_up() } else { f.next_down() })),
        (true, Datum::Str(s)) if dt == DataType::Date => {
            let days = dash_common::date::parse_date(&s)?;
            Some(Datum::Date(if lower { days + 1 } else { days - 1 }))
        }
        _ => None,
    }
}

/// Shift column ordinals down by `lw` (right-side conjuncts pushed below a
/// join reference the right child's own ordinals).
fn shift_cols(e: Expr, lw: usize) -> Expr {
    e.map_columns(&|i| i - lw)
}

