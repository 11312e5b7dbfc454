//! Whole-sheet semantic analysis: name resolution, dependency order,
//! dimension inference, and plausibility checks.
//!
//! The analyzer is an *exact static simulation* of the evaluation
//! semantics in `powerplay_sheet::plan`: globals are dependency-ordered
//! with the same toposort the engine uses, rows are walked in the same
//! order the engine would evaluate them, and `P_`/`A_` availability is
//! tracked point-by-point. That precision is what makes the headline
//! guarantee hold: a sheet with zero `Error` diagnostics evaluates
//! without structural errors — the only failures left are ones that
//! depend on runtime *values* (a formula producing a negative
//! capacitance from particular inputs).

use std::collections::{BTreeMap, BTreeSet};

use powerplay_expr::{Expr, BUILTIN_FUNCTIONS};
use powerplay_library::{ElementClass, LibraryElement, Registry};
use powerplay_sheet::{toposort, Row, RowModel, Sheet};
use powerplay_units::dim::Dim;

use crate::diag::{codes, Diagnostic, LintReport};
use crate::dims::{check_constant_folds, convention_dim, infer_dims, DimInfo};
use crate::element::slots;

/// Options controlling a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Diagnostic codes to suppress ("we know, it's intentional").
    pub allow: Vec<String>,
}

/// Lints a sheet against a registry. See the module docs for what the
/// passes guarantee.
pub fn lint_sheet(sheet: &Sheet, registry: &Registry) -> LintReport {
    let metrics = crate::obs::lint_metrics();
    metrics.reports_total.inc();
    let _timer = metrics.sheet_pass_seconds.start_timer();
    let _span = powerplay_telemetry::profile::span_lazy(|| format!("lint {}", sheet.name()));
    let mut out = LintReport::new();
    lint_level(sheet, registry, "", &Ambient::new(), &mut out);
    out
}

/// [`lint_sheet`] with [`LintOptions`] applied.
pub fn lint_sheet_with(sheet: &Sheet, registry: &Registry, options: &LintOptions) -> LintReport {
    let allowed: Vec<&str> = options.allow.iter().map(String::as_str).collect();
    lint_sheet(sheet, registry).allow(&allowed)
}

/// A name inherited from enclosing scopes, with whether resolving it
/// depends on the engine's evaluation order rather than a tracked
/// dependency (a parent row's `P_`/`A_` seen from inside a sub-sheet).
#[derive(Debug, Clone, Copy)]
struct AmbientEntry {
    dim: DimInfo,
    order_dependent: bool,
}

type Ambient = BTreeMap<String, AmbientEntry>;

/// Row-reference context for resolving `P_`/`A_` names at one sheet
/// level.
struct RowRefCtx<'a> {
    /// Nonempty row idents mapped to textual index.
    idents: &'a BTreeMap<String, usize>,
    /// Display names by textual index.
    names: &'a [String],
    /// Whether each row contributes an `A_` value.
    has_area: &'a [bool],
    /// Textual indices of rows already evaluated at this point of the
    /// engine's order.
    processed: &'a BTreeSet<usize>,
    /// Textual index of the row being analyzed.
    current: usize,
    /// True when the expression is one of the current row's own
    /// bindings — the only place `compile_rows` records dependency
    /// edges, which guarantee the referenced row evaluates first.
    dep_edged: bool,
}

/// Everything a variable can resolve against at one point.
struct VarCtx<'a> {
    /// Row-local names: element parameter defaults plus bindings
    /// evaluated so far.
    local: &'a BTreeMap<String, DimInfo>,
    /// This level's globals.
    gdims: &'a BTreeMap<String, DimInfo>,
    /// Names inherited from enclosing scopes.
    ambient: &'a Ambient,
    /// Row-reference context; `None` while linting globals (which the
    /// engine evaluates before any row's `P_`/`A_` exists).
    rows: Option<RowRefCtx<'a>>,
    /// In globals context: this level's row idents, used only to word
    /// the "globals are evaluated before rows" error.
    globals_hint: Option<&'a BTreeMap<String, usize>>,
}

/// Outcome of resolving one variable.
enum Res {
    /// Resolves; carries the dimension.
    Ok(DimInfo),
    /// Resolves today, but only because of evaluation order (W111).
    OrderDependent(DimInfo, String),
    /// Resolves via a dependency edge to a textually later row (I202).
    Forward(DimInfo, String),
    /// A row's model references its own power (E008).
    SelfPower,
    /// Reference to a row evaluated after this one, with no dependency
    /// edge to reorder it (E008).
    NotYetEvaluated(String),
    /// `A_` reference to a row whose model has no area (E009).
    NoArea(String),
    /// `P_`/`A_` identifier matching no row (E008).
    UnknownRow(String),
    /// Global referencing a row result (E008).
    RowsInvisible(String),
    /// Nothing anywhere defines it (E001).
    Unbound,
}

fn plain_lookup(var: &str, ctx: &VarCtx<'_>) -> Option<Res> {
    if let Some(d) = ctx.local.get(var) {
        return Some(Res::Ok(*d));
    }
    if let Some(d) = ctx.gdims.get(var) {
        return Some(Res::Ok(*d));
    }
    if let Some(e) = ctx.ambient.get(var) {
        return Some(if e.order_dependent {
            Res::OrderDependent(e.dim, "a parent sheet's row".to_owned())
        } else {
            Res::Ok(e.dim)
        });
    }
    None
}

fn resolve(var: &str, ctx: &VarCtx<'_>) -> Res {
    // `P_x` / `A_x` row references resolve through the power layer,
    // which sits between row-local names and the globals. Collisions
    // between a row ident and a local/global of the same spelled name
    // are pathological; the row reference wins here, as it does in the
    // engine whenever the row has been evaluated.
    if let Some(rc) = &ctx.rows {
        let target = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_"));
        if let Some(ident) = target {
            if let Some(&j) = rc.idents.get(ident) {
                let is_area = var.starts_with("A_");
                let dim = DimInfo::Known(if is_area { Dim::SQ_METRE } else { Dim::WATT });
                if j == rc.current {
                    // In a binding this is a row cycle, already reported
                    // by the dependency phase; in a model formula the
                    // value simply does not exist yet.
                    return if rc.dep_edged {
                        Res::Ok(dim)
                    } else {
                        Res::SelfPower
                    };
                }
                if is_area && !rc.has_area[j] {
                    // The engine never sets `A_x` for area-less rows, so
                    // the lookup falls through to plain scopes.
                    return plain_lookup(var, ctx).unwrap_or(Res::NoArea(rc.names[j].clone()));
                }
                if rc.dep_edged {
                    return if j > rc.current {
                        Res::Forward(dim, rc.names[j].clone())
                    } else {
                        Res::Ok(dim)
                    };
                }
                // No dependency edge (a model formula, not a binding):
                // availability is whatever the evaluation order left us.
                if rc.processed.contains(&j) {
                    return Res::OrderDependent(dim, format!("row `{}`", rc.names[j]));
                }
                return plain_lookup(var, ctx).unwrap_or(Res::NotYetEvaluated(rc.names[j].clone()));
            }
        }
    }
    if let Some(res) = plain_lookup(var, ctx) {
        return res;
    }
    if let Some(ident) = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_")) {
        if !ident.is_empty() {
            if let Some(hint) = ctx.globals_hint {
                if hint.contains_key(ident) {
                    return Res::RowsInvisible(ident.to_owned());
                }
            }
            if ctx.rows.is_some() {
                return Res::UnknownRow(ident.to_owned());
            }
        }
    }
    Res::Unbound
}

/// Reports name-analysis diagnostics for every free variable and call
/// of `expr`, then returns a dimension-lookup closure's worth of
/// knowledge via [`resolve`].
fn report_names(expr: &Expr, path: &str, ctx: &VarCtx<'_>, out: &mut LintReport) {
    for var in expr.free_variables() {
        match resolve(&var, ctx) {
            Res::Ok(_) => {}
            Res::OrderDependent(_, owner) => out.push(
                Diagnostic::warning(
                    codes::ORDER_DEPENDENT_REF,
                    path,
                    format!(
                        "`{var}` resolves to {owner}, but only because of the current \
                         evaluation order; no dependency is tracked for this reference"
                    ),
                )
                .with_suggestion(
                    "reference it from a row binding at the same sheet level so the \
                     engine orders evaluation explicitly",
                ),
            ),
            Res::Forward(_, name) => out.push(Diagnostic::info(
                codes::FORWARD_REF,
                path,
                format!(
                    "`{var}` refers to row `{name}`, defined later in the sheet \
                     (dependency analysis reorders evaluation, so this works)"
                ),
            )),
            Res::SelfPower => out.push(Diagnostic::error(
                codes::REF_UNKNOWN_ROW,
                path,
                format!("`{var}` is this row's own result, which does not exist while the row is being evaluated"),
            )),
            Res::NotYetEvaluated(name) => out.push(
                Diagnostic::error(
                    codes::REF_UNKNOWN_ROW,
                    path,
                    format!(
                        "`{var}` refers to row `{name}`, which is evaluated after this row; \
                         model formulas do not create dependency edges"
                    ),
                )
                .with_suggestion("bind the value through a row parameter instead"),
            ),
            Res::NoArea(name) => out.push(
                Diagnostic::error(
                    codes::AREA_REF_NO_AREA,
                    path,
                    format!("`{var}` refers to row `{name}`, whose model has no area"),
                )
                .with_suggestion("give that row's model an `area` formula"),
            ),
            Res::UnknownRow(ident) => out.push(Diagnostic::error(
                codes::REF_UNKNOWN_ROW,
                path,
                format!("`{var}` references a row result, but no row folds to identifier `{ident}`"),
            )),
            Res::RowsInvisible(ident) => out.push(Diagnostic::error(
                codes::REF_UNKNOWN_ROW,
                path,
                format!(
                    "`{var}` references row `{ident}`, but globals are evaluated \
                     before any row; row results are not visible here"
                ),
            )),
            Res::Unbound => out.push(Diagnostic::error(
                codes::UNBOUND_VARIABLE,
                path,
                format!("nothing in scope defines `{var}`"),
            )),
        }
    }
    check_calls(expr, path, out);
}

/// Recursively validates every function call: unknown names and wrong
/// arities are structural errors (they fail at evaluation).
fn check_calls(expr: &Expr, path: &str, out: &mut LintReport) {
    match expr {
        Expr::Call(name, args) => {
            check_call(name, args.len(), path, out);
            for a in args {
                check_calls(a, path, out);
            }
        }
        Expr::Unary(_, inner) => check_calls(inner, path, out),
        Expr::Binary(_, lhs, rhs) => {
            check_calls(lhs, path, out);
            check_calls(rhs, path, out);
        }
        Expr::Number(_) | Expr::Variable(_) => {}
    }
}

/// One call site of [`check_calls`], kept out of the recursion so each
/// level's frame stays small.
fn check_call(name: &str, found: usize, path: &str, out: &mut LintReport) {
    match BUILTIN_FUNCTIONS.iter().find(|(n, _)| *n == name) {
        None => out.push(
            Diagnostic::error(
                codes::UNKNOWN_FUNCTION,
                path,
                format!("unknown function `{name}`"),
            )
            .with_suggestion(format!(
                "builtins: {}",
                BUILTIN_FUNCTIONS
                    .iter()
                    .map(|(n, _)| *n)
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        ),
        Some((_, arity)) if found != *arity => out.push(Diagnostic::error(
            codes::WRONG_ARITY,
            path,
            format!(
                "`{name}` takes {arity} argument{}, found {found}",
                if *arity == 1 { "" } else { "s" },
            ),
        )),
        _ => {}
    }
}

/// Whether a row will publish an `A_<ident>` value when evaluated.
/// Unresolvable elements answer `true` so a missing element (already an
/// E004) does not cascade into spurious area errors.
fn row_has_area(row: &Row, registry: &Registry) -> bool {
    match row.model() {
        RowModel::Element(path) => registry.get(path).is_none_or(|e| e.model().area.is_some()),
        RowModel::Inline(e) => e.model().area.is_some(),
        RowModel::SubSheet(sub) => sub.rows().iter().any(|r| row_has_area(r, registry)),
    }
}

/// Every variable mentioned anywhere in the sheet's subtree: global
/// formulas, bindings, model formulas (inline and resolved registry
/// elements), recursively through sub-sheets.
fn subtree_free_vars(sheet: &Sheet, registry: &Registry, used: &mut BTreeSet<String>) {
    for (_, expr) in sheet.globals() {
        used.extend(expr.free_variables());
    }
    for row in sheet.rows() {
        for (_, expr) in row.bindings() {
            used.extend(expr.free_variables());
        }
        match row.model() {
            RowModel::Element(path) => {
                if let Some(e) = registry.get(path) {
                    for (_, expr, _) in slots(e) {
                        used.extend(expr.free_variables());
                    }
                }
            }
            RowModel::Inline(e) => {
                for (_, expr, _) in slots(e) {
                    used.extend(expr.free_variables());
                }
            }
            RowModel::SubSheet(sub) => subtree_free_vars(sub, registry, used),
        }
    }
}

/// The element a row instantiates, when resolvable.
fn row_element<'a>(row: &'a Row, registry: &'a Registry) -> Option<&'a LibraryElement> {
    match row.model() {
        RowModel::Element(path) => registry.get(path),
        RowModel::Inline(e) => Some(e),
        RowModel::SubSheet(_) => None,
    }
}

/// Lints one hierarchy level and recurses into sub-sheets.
fn lint_level(
    sheet: &Sheet,
    registry: &Registry,
    prefix: &str,
    ambient: &Ambient,
    out: &mut LintReport,
) {
    // ----- row identity, shared by the globals hint and the row pass -----
    let idents: Vec<String> = sheet.rows().iter().map(Row::ident).collect();
    let row_names: Vec<String> = sheet.rows().iter().map(|r| r.name().to_owned()).collect();
    let ident_index: BTreeMap<String, usize> = idents
        .iter()
        .enumerate()
        .filter(|(_, ident)| !ident.is_empty())
        .map(|(i, ident)| (ident.clone(), i))
        .collect();
    let has_area: Vec<bool> = sheet
        .rows()
        .iter()
        .map(|r| row_has_area(r, registry))
        .collect();

    // E005: duplicate row idents (the engine refuses to evaluate these).
    {
        let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
        for (ident, name) in idents.iter().zip(&row_names) {
            if ident.is_empty() {
                continue;
            }
            if let Some(first) = seen.get(ident.as_str()) {
                out.push(Diagnostic::error(
                    codes::DUPLICATE_ROW_IDENT,
                    format!("{prefix}rows/{name}"),
                    format!("rows `{first}` and `{name}` both fold to identifier `{ident}`"),
                ));
            } else {
                seen.insert(ident, name);
            }
        }
    }

    // ----- globals: dependency order, names, dimensions -----
    let global_exprs = sheet.globals();
    let gindex: BTreeMap<&str, usize> = global_exprs
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), i))
        .collect();
    let mut gdeps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (i, (name, expr)) in global_exprs.iter().enumerate() {
        let free = expr.free_variables();
        if free.contains(name) {
            out.push(Diagnostic::error(
                codes::CIRCULAR_GLOBALS,
                format!("{prefix}globals/{name}"),
                format!("global `{name}` refers to itself"),
            ));
        }
        let entry = gdeps.entry(i).or_default();
        for var in &free {
            if let Some(&j) = gindex.get(var.as_str()) {
                if j != i {
                    entry.insert(j);
                }
            }
        }
    }
    let gorder = match toposort(global_exprs.len(), &gdeps) {
        Ok(order) => order,
        Err(cycle) => {
            let names: Vec<&str> = cycle.iter().map(|&i| global_exprs[i].0.as_str()).collect();
            let first = names.first().copied().unwrap_or("");
            out.push(Diagnostic::error(
                codes::CIRCULAR_GLOBALS,
                format!("{prefix}globals/{first}"),
                format!("global definitions form a cycle: {}", names.join(" -> ")),
            ));
            (0..global_exprs.len()).collect()
        }
    };

    let mut gdims: BTreeMap<String, DimInfo> = BTreeMap::new();
    // Constant global values, for plausibility checks further down.
    let mut gconsts: BTreeMap<String, f64> = BTreeMap::new();
    let empty_local: BTreeMap<String, DimInfo> = BTreeMap::new();
    for &i in &gorder {
        let (name, expr) = &global_exprs[i];
        let path = format!("{prefix}globals/{name}");
        let ctx = VarCtx {
            local: &empty_local,
            gdims: &gdims,
            ambient,
            rows: None,
            globals_hint: Some(&ident_index),
        };
        // A global may reference any other global (dependency edges
        // order them), so seed names not yet dimensioned as Any.
        let gctx_lookup = |v: &str| -> DimInfo {
            if gindex.contains_key(v) {
                return gdims.get(v).copied().unwrap_or(DimInfo::Any);
            }
            match resolve(v, &ctx) {
                Res::Ok(d) | Res::OrderDependent(d, _) | Res::Forward(d, _) => d,
                _ => DimInfo::Any,
            }
        };
        // Name analysis: a reference to another global is fine even
        // before "its turn" — the dependency graph orders them.
        for var in expr.free_variables() {
            if var != *name && gindex.contains_key(var.as_str()) {
                continue;
            }
            if var == *name {
                continue; // self-reference already reported above
            }
            let single = Expr::Variable(var.clone());
            report_names(&single, &path, &ctx, out);
        }
        check_calls(expr, &path, out);
        check_constant_folds(expr, &path, out);
        let inferred = infer_dims(expr, &path, &gctx_lookup, out);
        let conv = convention_dim(name);
        if let (Some(c), Some(d)) = (conv, inferred.known()) {
            if c != d {
                out.push(Diagnostic::warning(
                    codes::BINDING_TARGET_DIM,
                    &path,
                    format!("`{name}` is conventionally {c}, but its formula has dimension {d}"),
                ));
            }
        }
        if let Some(v) = expr.constant_value() {
            if v.is_finite() {
                gconsts.insert(name.clone(), v);
                if let Some(c) = conv.filter(|_| v < 0.0) {
                    out.push(Diagnostic::warning(
                        codes::NEGATIVE_CONSTANT_BINDING,
                        &path,
                        format!("`{name}` is the physical quantity {c} and is always {v}"),
                    ));
                }
            }
        }
        let dim = match inferred.known() {
            Some(d) => DimInfo::Known(d),
            None => conv.map(DimInfo::Known).unwrap_or(DimInfo::Any),
        };
        gdims.insert(name.clone(), dim);
    }

    // W105: globals nothing in the subtree reads. `vdd`/`f` are exempt:
    // elements read them implicitly through the scope chain.
    {
        let mut rows_used = BTreeSet::new();
        for row in sheet.rows() {
            for (_, expr) in row.bindings() {
                rows_used.extend(expr.free_variables());
            }
            match row.model() {
                RowModel::Inline(e) => {
                    for (_, expr, _) in slots(e) {
                        rows_used.extend(expr.free_variables());
                    }
                }
                RowModel::Element(path) => {
                    if let Some(e) = registry.get(path) {
                        for (_, expr, _) in slots(e) {
                            rows_used.extend(expr.free_variables());
                        }
                    }
                }
                RowModel::SubSheet(sub) => subtree_free_vars(sub, registry, &mut rows_used),
            }
        }
        for (name, _) in global_exprs {
            if name == "vdd" || name == "f" {
                continue;
            }
            // Its own formula does not count as a use.
            let read_by_global = global_exprs
                .iter()
                .filter(|(n, _)| n != name)
                .any(|(_, e)| e.free_variables().contains(name));
            if !read_by_global && !rows_used.contains(name) {
                out.push(
                    Diagnostic::warning(
                        codes::DEAD_GLOBAL,
                        format!("{prefix}globals/{name}"),
                        format!("global `{name}` is never read"),
                    )
                    .with_suggestion("remove it, or reference it from a formula"),
                );
            }
        }
    }

    // ----- row dependency graph, mirroring `compile_rows` -----
    let mut rdeps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (i, row) in sheet.rows().iter().enumerate() {
        let mut wanted = BTreeSet::new();
        for (_, expr) in row.bindings() {
            wanted.extend(expr.free_variables());
        }
        let entry = rdeps.entry(i).or_default();
        for var in &wanted {
            let target = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_"));
            let Some(&j) = target.and_then(|t| ident_index.get(t)) else {
                continue;
            };
            if i == j {
                out.push(Diagnostic::error(
                    codes::CIRCULAR_ROWS,
                    format!("{prefix}rows/{}", row.name()),
                    format!("row `{}` references its own result `{var}`", row.name()),
                ));
            } else {
                entry.insert(j);
            }
        }
    }
    let rorder = match toposort(sheet.rows().len(), &rdeps) {
        Ok(order) => order,
        Err(cycle) => {
            let names: Vec<&str> = cycle.iter().map(|&i| row_names[i].as_str()).collect();
            let first = names.first().copied().unwrap_or("");
            out.push(Diagnostic::error(
                codes::CIRCULAR_ROWS,
                format!("{prefix}rows/{first}"),
                format!("row dependencies form a cycle: {}", names.join(" -> ")),
            ));
            (0..sheet.rows().len()).collect()
        }
    };

    // ----- walk rows in evaluation order -----
    let global_names: BTreeSet<&str> = global_exprs.iter().map(|(n, _)| n.as_str()).collect();
    let mut processed: BTreeSet<usize> = BTreeSet::new();
    for &i in &rorder {
        let row = &sheet.rows()[i];
        let rpath = format!("{prefix}rows/{}", row.name());
        let element = row_element(row, registry);
        if let RowModel::Element(path) = row.model() {
            if element.is_none() {
                out.push(
                    Diagnostic::error(
                        codes::UNKNOWN_ELEMENT,
                        &rpath,
                        format!("no element `{path}` in the library"),
                    )
                    .with_suggestion(
                        "check the registry path (namespace/name) or upload the model first",
                    ),
                );
            }
        }

        // Row-local names: parameter defaults, then bindings in order.
        let mut local: BTreeMap<String, DimInfo> = BTreeMap::new();
        if let Some(e) = element {
            for p in e.params() {
                local.insert(p.name.clone(), DimInfo::Any);
            }
        }

        // Which binding names anything actually reads.
        let read_by_row: BTreeSet<String> = {
            let mut used: BTreeSet<String> = BTreeSet::new();
            used.insert("vdd".to_owned());
            used.insert("f".to_owned());
            if let Some(e) = element {
                used.extend(e.params().iter().map(|p| p.name.clone()));
                for (_, expr, _) in slots(e) {
                    used.extend(expr.free_variables());
                }
            }
            if let RowModel::SubSheet(sub) = row.model() {
                subtree_free_vars(sub, registry, &mut used);
            }
            used
        };

        for (k, (param, expr)) in row.bindings().iter().enumerate() {
            let bpath = format!("{rpath}/bindings/{param}");

            // I201: shadowing a same-level global is a feature (per-row
            // `f` overrides) but worth surfacing.
            if global_names.contains(param.as_str()) {
                out.push(Diagnostic::info(
                    codes::SHADOWED_GLOBAL,
                    &bpath,
                    format!(
                        "binding `{param}` shadows the sheet global of the same name for this row"
                    ),
                ));
            }

            // W106: nothing reads this binding.
            let read_later = row.bindings()[k + 1..]
                .iter()
                .any(|(_, e)| e.free_variables().contains(param));
            if !read_by_row.contains(param) && !read_later {
                let mut d = Diagnostic::warning(
                    codes::DEAD_BINDING,
                    &bpath,
                    format!("binding `{param}` matches no parameter and is never read"),
                );
                if let Some(e) = element {
                    let params: Vec<&str> = e.params().iter().map(|p| p.name.as_str()).collect();
                    if !params.is_empty() {
                        d = d.with_suggestion(format!(
                            "`{}` declares: {}",
                            e.name(),
                            params.join(", ")
                        ));
                    }
                }
                out.push(d);
            }

            let ctx = VarCtx {
                local: &local,
                gdims: &gdims,
                ambient,
                rows: Some(RowRefCtx {
                    idents: &ident_index,
                    names: &row_names,
                    has_area: &has_area,
                    processed: &processed,
                    current: i,
                    dep_edged: true,
                }),
                globals_hint: None,
            };
            report_names(expr, &bpath, &ctx, out);
            check_constant_folds(expr, &bpath, out);
            let lookup = |v: &str| -> DimInfo {
                match resolve(v, &ctx) {
                    Res::Ok(d) | Res::OrderDependent(d, _) | Res::Forward(d, _) => d,
                    _ => DimInfo::Any,
                }
            };
            let inferred = infer_dims(expr, &bpath, &lookup, out);
            let conv = convention_dim(param);
            if let (Some(c), Some(d)) = (conv, inferred.known()) {
                if c != d {
                    out.push(Diagnostic::warning(
                        codes::BINDING_TARGET_DIM,
                        &bpath,
                        format!("`{param}` is conventionally {c}, but the bound formula has dimension {d}"),
                    ));
                }
            }
            if let (Some(v), Some(c)) = (expr.constant_value(), conv) {
                if v.is_finite() && v < 0.0 {
                    out.push(Diagnostic::warning(
                        codes::NEGATIVE_CONSTANT_BINDING,
                        &bpath,
                        format!("`{param}` is the physical quantity {c} and is always {v}"),
                    ));
                }
            }
            let dim = match inferred.known() {
                Some(d) => DimInfo::Known(d),
                None => conv.map(DimInfo::Known).unwrap_or(DimInfo::Any),
            };
            local.insert(param.clone(), dim);
        }

        // Model formulas resolve through the full runtime scope chain
        // (an inline model may read globals or even parent results), but
        // with no dependency edges recorded for them.
        if let Some(e) = element {
            let is_inline = matches!(row.model(), RowModel::Inline(_));
            for (slot, expr, expected) in slots(e) {
                let spath = format!("{rpath}/model/{slot}");
                let ctx = VarCtx {
                    local: &local,
                    gdims: &gdims,
                    ambient,
                    rows: Some(RowRefCtx {
                        idents: &ident_index,
                        names: &row_names,
                        has_area: &has_area,
                        processed: &processed,
                        current: i,
                        dep_edged: false,
                    }),
                    globals_hint: None,
                };
                report_names(expr, &spath, &ctx, out);
                // Dimension/plausibility checks for registry elements
                // belong to the registry lint (at upload); repeating
                // them per sheet row would only duplicate noise.
                if is_inline {
                    check_constant_folds(expr, &spath, out);
                    let lookup = |v: &str| -> DimInfo {
                        match resolve(v, &ctx) {
                            Res::Ok(d) | Res::OrderDependent(d, _) | Res::Forward(d, _) => d,
                            _ => DimInfo::Any,
                        }
                    };
                    let inferred = infer_dims(expr, &spath, &lookup, out);
                    if let Some(d) = inferred.known() {
                        if d != expected {
                            out.push(Diagnostic::warning(
                                codes::RESULT_DIM,
                                &spath,
                                format!(
                                    "formula has dimension {d}, but this slot holds {expected}"
                                ),
                            ));
                        }
                    }
                    if let Some(v) = expr.constant_value() {
                        if v.is_finite() && v < 0.0 {
                            out.push(Diagnostic::error(
                                codes::NEGATIVE_CONSTANT_MODEL,
                                &spath,
                                format!(
                                    "formula always evaluates to {v}; physical values must be >= 0"
                                ),
                            ));
                        }
                    }
                }
            }

            // E014: the EQ-1 template needs an operating point.
            let model = e.model();
            let needs_vdd = model.cap_full.is_some()
                || model.cap_partial.is_some()
                || model.static_current.is_some();
            let needs_f = model.cap_full.is_some() || model.cap_partial.is_some();
            let resolvable = |name: &str| {
                local.contains_key(name) || gdims.contains_key(name) || ambient.contains_key(name)
            };
            if needs_vdd && !resolvable("vdd") {
                out.push(
                    Diagnostic::error(
                        codes::MISSING_OPERATING_POINT,
                        &rpath,
                        format!("element `{}` needs `vdd`, but no global, binding, or parent defines it", e.name()),
                    )
                    .with_suggestion("add a `vdd` global to the sheet"),
                );
            }
            if needs_f && !resolvable("f") {
                out.push(
                    Diagnostic::error(
                        codes::MISSING_OPERATING_POINT,
                        &rpath,
                        format!("element `{}` is clocked and needs `f`, but no global, binding, or parent defines it", e.name()),
                    )
                    .with_suggestion("add an `f` global to the sheet"),
                );
            }

            // W107: a clocked element at a constant zero rate.
            if needs_f {
                let bound_f = row
                    .bindings()
                    .iter()
                    .find(|(n, _)| n == "f")
                    .and_then(|(_, e)| e.constant_value());
                let eff_f = bound_f.or_else(|| gconsts.get("f").copied());
                if eff_f == Some(0.0) {
                    out.push(Diagnostic::warning(
                        codes::ZERO_FREQUENCY,
                        &rpath,
                        "clocked element evaluated at a constant 0 Hz; its dynamic power will be zero".to_owned(),
                    ));
                }
            }

            // W108: reduced swing above the supply rail.
            let const_of = |name: &str| -> Option<f64> {
                row.bindings()
                    .iter()
                    .find(|(n, _)| n == name)
                    .and_then(|(_, ex)| ex.constant_value())
                    .or_else(|| {
                        e.params()
                            .iter()
                            .find(|p| p.name == name)
                            .map(|p| p.default)
                    })
            };
            if e.params().iter().any(|p| p.name == "swing") {
                let vdd_v = row
                    .bindings()
                    .iter()
                    .find(|(n, _)| n == "vdd")
                    .and_then(|(_, ex)| ex.constant_value())
                    .or_else(|| gconsts.get("vdd").copied());
                if let (Some(s), Some(v)) = (const_of("swing"), vdd_v) {
                    if s > v {
                        out.push(Diagnostic::warning(
                            codes::SWING_EXCEEDS_VDD,
                            &rpath,
                            format!("reduced swing {s} V exceeds the supply vdd = {v} V"),
                        ));
                    }
                }
            }

            // W109: converter efficiency outside (0, 1].
            if e.class() == ElementClass::Converter {
                if let Some(eta) = const_of("eta") {
                    if !(eta > 0.0 && eta <= 1.0) {
                        out.push(Diagnostic::warning(
                            codes::ETA_OUT_OF_RANGE,
                            &rpath,
                            format!("converter efficiency eta = {eta} is outside (0, 1]"),
                        ));
                    }
                }
            }
        }

        // Recurse into sub-sheets with the scope the engine hands them:
        // our ambient, this level's globals, the results evaluated so
        // far (order-dependent!), and this row's bindings.
        if let RowModel::SubSheet(sub) = row.model() {
            let mut inner: Ambient = ambient.clone();
            for (name, dim) in &gdims {
                inner.insert(
                    name.clone(),
                    AmbientEntry {
                        dim: *dim,
                        order_dependent: false,
                    },
                );
            }
            for &j in &processed {
                if idents[j].is_empty() {
                    continue;
                }
                inner.insert(
                    format!("P_{}", idents[j]),
                    AmbientEntry {
                        dim: DimInfo::Known(Dim::WATT),
                        order_dependent: true,
                    },
                );
                if has_area[j] {
                    inner.insert(
                        format!("A_{}", idents[j]),
                        AmbientEntry {
                            dim: DimInfo::Known(Dim::SQ_METRE),
                            order_dependent: true,
                        },
                    );
                }
            }
            for (name, dim) in &local {
                inner.insert(
                    name.clone(),
                    AmbientEntry {
                        dim: *dim,
                        order_dependent: false,
                    },
                );
            }
            lint_level(sub, registry, &format!("{rpath}/"), &inner, out);
        }

        processed.insert(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;
    use powerplay_library::ElementModel;

    fn codes_of(report: &LintReport) -> Vec<&str> {
        report
            .diagnostics()
            .iter()
            .map(|d| d.code.as_str())
            .collect()
    }

    fn find<'a>(report: &'a LintReport, code: &str) -> Option<&'a Diagnostic> {
        report.diagnostics().iter().find(|d| d.code == code)
    }

    #[test]
    fn clean_sheet_has_no_errors_and_plays() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("clean");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bits", "16")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert!(!report.has_errors(), "{}", report.render_text());
        sheet.play(&lib).expect("zero-error sheet must play");
    }

    #[test]
    fn unbound_variable_is_e001_with_binding_path() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bits", "word_width")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::UNBOUND_VARIABLE).expect("E001");
        assert_eq!(d.path, "rows/Adder/bindings/bits");
        assert!(d.message.contains("word_width"));
    }

    #[test]
    fn power_plus_capacitance_is_e010() {
        // The acceptance scenario: adding a power to a capacitance.
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("c_load", "100f").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bits", "16")])
            .unwrap();
        sheet
            .add_element_row("Pads", "ucb/pads", [("c_pad", "P_adder + c_load")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::DIM_MISMATCH).expect("E010");
        assert_eq!(d.path, "rows/Pads/bindings/c_pad");
        assert!(report.has_errors());
    }

    #[test]
    fn p_ref_to_missing_row_is_e008() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("DC", "ucb/dcdc", [("p_load", "P_nonexistent_row")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::REF_UNKNOWN_ROW).expect("E008");
        assert_eq!(d.path, "rows/DC/bindings/p_load");
        assert!(d.message.contains("nonexistent_row"));
    }

    #[test]
    fn a_ref_to_area_less_row_is_e009() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        // ucb/wire has no area formula.
        sheet
            .add_element_row("Wire", "ucb/wire", [("length_mm", "2")])
            .unwrap();
        sheet
            .add_element_row("Clock", "ucb/clock_net", [("area_mm2", "A_wire * 1e6")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::AREA_REF_NO_AREA).expect("E009");
        assert_eq!(d.path, "rows/Clock/bindings/area_mm2");
    }

    #[test]
    fn circular_globals_report_the_path() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("a", "b * 2").unwrap();
        sheet.set_global("b", "a / 2").unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::CIRCULAR_GLOBALS).expect("E006");
        assert!(d.message.contains("->"), "{}", d.message);
        assert!(d.message.contains('a') && d.message.contains('b'));
    }

    #[test]
    fn self_referential_global_is_e006() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "vdd + 0.1").unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert_eq!(
            find(&report, codes::CIRCULAR_GLOBALS).expect("E006").path,
            "globals/vdd"
        );
    }

    #[test]
    fn circular_rows_report_the_path() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("One", "ucb/dcdc", [("p_load", "P_two")])
            .unwrap();
        sheet
            .add_element_row("Two", "ucb/dcdc", [("p_load", "P_one")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::CIRCULAR_ROWS).expect("E007");
        assert!(d.message.contains("->"), "{}", d.message);
    }

    #[test]
    fn row_self_reference_is_e007() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("Loop", "ucb/dcdc", [("p_load", "P_loop * 0.1")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert!(find(&report, codes::CIRCULAR_ROWS).is_some());
    }

    #[test]
    fn duplicate_row_idents_are_e005() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.add_element_row("Read Bank", "ucb/sram", []).unwrap();
        sheet.add_element_row("read bank", "ucb/sram", []).unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::DUPLICATE_ROW_IDENT).expect("E005");
        assert!(d.message.contains("read_bank"));
    }

    #[test]
    fn unknown_element_is_e004() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("Mystery", "ucb/does_not_exist", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert_eq!(
            find(&report, codes::UNKNOWN_ELEMENT).expect("E004").path,
            "rows/Mystery"
        );
    }

    #[test]
    fn shadowing_global_is_i201_and_not_an_error() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Slow Adder", "ucb/ripple_adder", [("f", "f / 16")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::SHADOWED_GLOBAL).expect("I201");
        assert_eq!(d.path, "rows/Slow Adder/bindings/f");
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn forward_reference_is_i202_and_plays() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("DC", "ucb/dcdc", [("p_load", "P_adder")])
            .unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::FORWARD_REF).expect("I202");
        assert_eq!(d.path, "rows/DC/bindings/p_load");
        assert!(!report.has_errors(), "{}", report.render_text());
        sheet.play(&lib).expect("dependency analysis reorders this");
    }

    #[test]
    fn missing_operating_point_is_e014() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let hits: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::MISSING_OPERATING_POINT)
            .collect();
        assert_eq!(
            hits.len(),
            2,
            "vdd and f both missing: {:?}",
            codes_of(&report)
        );
        assert!(sheet.play(&lib).is_err());
    }

    #[test]
    fn zero_frequency_under_clocked_template_is_w107() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "0").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert!(find(&report, codes::ZERO_FREQUENCY).is_some());
    }

    #[test]
    fn swing_above_vdd_is_w108() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.1").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("SRAM", "ucb/sram_lowswing", [("swing", "1.8")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert!(find(&report, codes::SWING_EXCEEDS_VDD).is_some());
    }

    #[test]
    fn converter_eta_out_of_range_is_w109() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet
            .add_element_row("DC", "ucb/dcdc", [("p_load", "1"), ("eta", "1.4")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        assert!(find(&report, codes::ETA_OUT_OF_RANGE).is_some());
    }

    #[test]
    fn dead_global_is_w105_but_vdd_f_exempt() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("scratch", "42").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let dead: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == codes::DEAD_GLOBAL)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].path, "globals/scratch");
    }

    #[test]
    fn dead_binding_is_w106_with_param_list() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [("bitz", "16")])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::DEAD_BINDING).expect("W106");
        assert_eq!(d.path, "rows/Adder/bindings/bitz");
        assert!(d.suggestion.as_deref().unwrap_or("").contains("bits"));
    }

    #[test]
    fn model_formula_reading_parent_row_is_w111() {
        // An inline model reading another row's P_ works only because of
        // evaluation order — no dependency edge exists for model slots.
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let monitor = LibraryElement::new(
            "inline/monitor",
            ElementClass::System,
            "",
            vec![],
            ElementModel {
                power_direct: Some(Expr::parse("P_adder * 0.01").unwrap()),
                ..ElementModel::default()
            },
        );
        sheet.add_inline_row("Monitor", monitor);
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::ORDER_DEPENDENT_REF).expect("W111");
        assert_eq!(d.path, "rows/Monitor/model/power_direct");
    }

    #[test]
    fn model_formula_reading_later_row_is_e008() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        let monitor = LibraryElement::new(
            "inline/monitor",
            ElementClass::System,
            "",
            vec![],
            ElementModel {
                power_direct: Some(Expr::parse("P_adder * 0.01").unwrap()),
                ..ElementModel::default()
            },
        );
        sheet.add_inline_row("Monitor", monitor);
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::REF_UNKNOWN_ROW).expect("E008");
        assert_eq!(d.path, "rows/Monitor/model/power_direct");
        assert!(sheet.play(&lib).is_err());
    }

    #[test]
    fn global_referencing_row_power_is_e008() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("budget", "P_adder * 2").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::REF_UNKNOWN_ROW).expect("E008");
        assert_eq!(d.path, "globals/budget");
        assert!(d.message.contains("before any row"));
    }

    #[test]
    fn subsheet_diagnostics_are_prefixed_and_globals_inherited() {
        let lib = ucb_library();
        let mut inner = Sheet::new("inner");
        // Inherits vdd/f from the parent; references something unbound.
        inner
            .add_element_row("Core", "ucb/ripple_adder", [("bits", "missing_width")])
            .unwrap();
        let mut sheet = Sheet::new("outer");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.add_subsheet_row("Custom Hardware", inner);
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::UNBOUND_VARIABLE).expect("E001");
        assert_eq!(d.path, "rows/Custom Hardware/rows/Core/bindings/bits");
        // No E014: vdd/f resolve through the parent's globals.
        assert!(find(&report, codes::MISSING_OPERATING_POINT).is_none());
    }

    #[test]
    fn subsheet_reading_parent_row_power_is_w111() {
        let lib = ucb_library();
        let mut inner = Sheet::new("inner");
        inner
            .add_element_row("DC", "ucb/dcdc", [("p_load", "P_adder")])
            .unwrap();
        let mut sheet = Sheet::new("outer");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        sheet.add_subsheet_row("Converters", inner);
        let report = lint_sheet(&sheet, &lib);
        let d = find(&report, codes::ORDER_DEPENDENT_REF).expect("W111");
        assert_eq!(d.path, "rows/Converters/rows/DC/bindings/p_load");
        assert!(!report.has_errors(), "{}", report.render_text());
        sheet
            .play(&lib)
            .expect("order-dependent but evaluates today");
    }

    #[test]
    fn allow_suppresses_codes() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("s");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet.set_global("scratch", "42").unwrap();
        sheet
            .add_element_row("Adder", "ucb/ripple_adder", [])
            .unwrap();
        let options = LintOptions {
            allow: vec![codes::DEAD_GLOBAL.to_owned()],
        };
        let report = lint_sheet_with(&sheet, &lib, &options);
        assert!(find(&report, codes::DEAD_GLOBAL).is_none());
    }
}
