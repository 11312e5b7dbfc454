//! Compiled evaluation plans: the *Play* button, amortized.
//!
//! [`Sheet::play`] re-derives both dependency graphs, re-resolves every
//! element path, and deep-clones model state on every call. That is
//! fine for one press of Play, but what-if exploration (sweeps,
//! sensitivities, Monte-Carlo) evaluates the same design hundreds of
//! times with only a few global values changing. [`CompiledSheet`]
//! splits the work:
//!
//! * **compile** (once): globals toposorted, row `P_`/`A_` reference
//!   edges resolved in linear time, elements resolved to shared
//!   [`Arc<LibraryElement>`] handles, per-row binding lists and
//!   reference names flattened, sub-sheets compiled recursively;
//! * **play** (many): [`CompiledSheet::play_with`] evaluates the plan
//!   against a set of global overrides without cloning the sheet or
//!   touching the registry.
//!
//! The compiled form is faithful to [`Sheet::play`] *bit for bit*,
//! including every error case and error precedence: structural errors
//! discovered at compile time (duplicate idents, row cycles, unknown
//! elements) are deferred and surface at exactly the point in the
//! evaluation sequence where the uncompiled engine would have found
//! them. Global overrides are literals, which can change the *global*
//! dependency graph (an override can break a cycle, and overriding an
//! undefined name can introduce edges into it), so the tiny global plan
//! is recomputed per play when overrides are present; the expensive row
//! plan never depends on overrides and is always reused.
//!
//! A plan snapshots the sheet and registry at compile time: recompile
//! after editing rows, bindings, global *formulas*, or library
//! contents ([`CompiledSheet::recompile`] keeps the compiled rows and
//! program when only global formulas changed). Changing global *values*
//! is what [`CompiledSheet::play_with`] is for.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use powerplay_expr::{Expr, Scope};
use powerplay_library::{LibraryElement, Registry};
use powerplay_telemetry::{profile, Counter, Histogram};

use crate::bytecode::{bytecode_metrics, Program, TrapHit};
use crate::engine::{toposort, EvaluateSheetError};
use crate::report::{RowReport, SheetReport};
use crate::row::{Row, RowModel};
use crate::same;
use crate::sheet::Sheet;

/// Engine-layer metrics, registered once in the process-global registry.
/// Only the *top-level* compile/play entry points record here; sub-sheet
/// recursion goes through the `*_impl` twins so a hierarchical design
/// counts as one compile and one play (rows are counted at every level).
pub(crate) struct PlanMetrics {
    compile_seconds: Histogram,
    compile_reused_total: Counter,
    replay_seconds: Histogram,
    plays_total: Counter,
    pub(crate) rows_evaluated_total: Counter,
    delta_replay_seconds: Histogram,
    delta_replays_total: Counter,
    delta_fallbacks_total: Counter,
    delta_memo_hits_total: Counter,
    delta_dirty_rows: Histogram,
}

pub(crate) fn plan_metrics() -> &'static PlanMetrics {
    static METRICS: OnceLock<PlanMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        PlanMetrics {
            compile_seconds: g.histogram(
                "powerplay_sheet_compile_seconds",
                "Time to compile a sheet into an evaluation plan",
            ),
            compile_reused_total: g.counter(
                "powerplay_sheet_compile_reused_total",
                "Recompiles that kept the previous plan's rows and program (global-only edits)",
            ),
            replay_seconds: g.histogram(
                "powerplay_sheet_replay_seconds",
                "Time to replay a compiled plan (one top-level play)",
            ),
            plays_total: g.counter(
                "powerplay_sheet_plays_total",
                "Top-level plays of compiled plans",
            ),
            rows_evaluated_total: g.counter(
                "powerplay_sheet_rows_evaluated_total",
                "Rows evaluated, sub-sheet rows included",
            ),
            delta_replay_seconds: g.histogram(
                "powerplay_sheet_delta_replay_seconds",
                "Time per incremental delta replay (memo hits included)",
            ),
            delta_replays_total: g.counter(
                "powerplay_sheet_delta_replays_total",
                "Incremental delta replays of compiled plans",
            ),
            delta_fallbacks_total: g.counter(
                "powerplay_sheet_delta_fallbacks_total",
                "Delta replays that fell back to a full replay (dirty frontier over threshold)",
            ),
            delta_memo_hits_total: g.counter(
                "powerplay_sheet_delta_memo_hits_total",
                "Delta replays answered from the previous report (no global changed)",
            ),
            delta_dirty_rows: g.value_histogram(
                "powerplay_sheet_delta_dirty_rows",
                "Top-level rows re-evaluated per delta replay",
            ),
        }
    })
}

/// Process-unique plan identities, so a [`ReplayState`] can tell when it
/// is handed to a different plan than the one that filled it.
static PLAN_IDS: AtomicU64 = AtomicU64::new(1);

/// Per-thread scratch register file for bytecode replays, so repeated
/// plays on one thread reuse a single allocation.
fn with_scratch_regs<T>(f: impl FnOnce(&mut Vec<f64>) -> T) -> T {
    thread_local! {
        static REGS: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    REGS.with(|cell| f(&mut cell.borrow_mut()))
}

/// A sheet compiled against a registry, ready for repeated evaluation.
///
/// ```
/// use powerplay_library::builtin::ucb_library;
/// use powerplay_sheet::{CompiledSheet, Sheet};
///
/// let mut sheet = Sheet::new("demo");
/// sheet.set_global("vdd", "1.5").unwrap();
/// sheet.set_global("f", "2MHz").unwrap();
/// sheet.add_element_row("Reg", "ucb/register", [("bits", "16")]).unwrap();
///
/// let lib = ucb_library();
/// let plan = CompiledSheet::compile(&sheet, &lib);
/// let base = plan.play().unwrap().total_power();
/// let doubled = plan.play_with(&[("vdd", 3.0)]).unwrap().total_power();
/// assert!((doubled / base - 4.0).abs() < 1e-9);
/// ```
///
/// A plan is two parts: a per-revision *globals half* (the top-level
/// global formulas and their evaluation order) and a shared *body* (the
/// row plan and the bytecode program). Top-level globals reach the body
/// only as named register slots seeded on every play, so an edit that
/// changes only global formulas can keep the body — see
/// [`CompiledSheet::recompile`]. Clones share the body.
#[derive(Debug, Clone)]
pub struct CompiledSheet {
    /// Process-unique identity (clones share it — same content).
    id: u64,
    pub(crate) name: Arc<str>,
    pub(crate) globals: Vec<CompiledGlobal>,
    /// Global evaluation order for the un-overridden sheet (recomputed
    /// per play when overrides are present — see module docs).
    pub(crate) base_global_plan: Result<Vec<usize>, EvaluateSheetError>,
    /// Everything that does not depend on top-level global formulas.
    pub(crate) body: Arc<PlanBody>,
}

/// The half of a [`CompiledSheet`] that global-only edits reuse: it
/// depends on the rows, the registry contents and the top-level global
/// *names* (their register slots), never on the global formulas.
#[derive(Debug)]
pub(crate) struct PlanBody {
    /// Row plan, or the structural error the engine would report.
    pub(crate) structure: Result<RowsPlan, EvaluateSheetError>,
    /// The sheet lowered to one flat register-machine program (see
    /// [`crate::bytecode`]); `None` when the top-level structure errored
    /// or this plan is a sub-sheet (already inlined by its parent's
    /// program). Attached by [`CompiledSheet::compile`] only.
    pub(crate) program: Option<Program>,
    /// The registry generation the rows were resolved against.
    generation: u64,
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledGlobal {
    pub(crate) name: Arc<str>,
    pub(crate) expr: Expr,
    /// Free variables of `expr`, precomputed so per-play graph repair
    /// under overrides never re-walks the AST.
    pub(crate) free: BTreeSet<String>,
}

#[derive(Debug, Clone)]
pub(crate) struct RowsPlan {
    pub(crate) rows: Vec<CompiledRow>,
    /// Dependency-respecting evaluation order over `rows` indices.
    pub(crate) order: Vec<usize>,
    /// Per-row *watched* name sets: every name whose value in the
    /// enclosing scope can influence the row's report. An
    /// over-approximation (union of binding free variables, element
    /// model free variables minus declared parameters, the reserved `f`
    /// rate, or a sub-sheet's external frees) — extra names only cause
    /// extra re-evaluation, never a stale result.
    watched: Vec<BTreeSet<String>>,
    /// Inverted watch index: name → rows watching it (dirty seeding).
    pub(crate) watchers: BTreeMap<String, Vec<usize>>,
    /// Forward `P_`/`A_` edges: row → rows watching its outputs
    /// (dirty propagation when a re-evaluated row's output changes).
    pub(crate) dependents: Vec<Vec<usize>>,
}

/// Every name a play touches is interned here as a shared `Arc<str>`, so
/// per-play scope bindings and report fields are reference-count bumps,
/// not string allocations.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRow {
    pub(crate) name: Arc<str>,
    pub(crate) ident: Arc<str>,
    pub(crate) doc_link: Option<Arc<str>>,
    pub(crate) bindings: Vec<(Arc<str>, Expr)>,
    /// `P_<ident>` / `A_<ident>`, formatted once at compile time.
    pub(crate) power_ref: Option<Arc<str>>,
    pub(crate) area_ref: Option<Arc<str>>,
    /// Element parameter defaults, prebuilt so each play seeds the row's
    /// scope with one table copy instead of per-parameter inserts.
    pub(crate) defaults: Scope<'static>,
    /// `(name, default)` pairs sorted by name, precomputed so the
    /// diagnostics path ([`RowView::param_defaults`]) never re-sorts.
    defaults_sorted: Vec<(Arc<str>, f64)>,
    /// Element parameter names in declaration order (report column).
    pub(crate) param_names: Vec<Arc<str>>,
    /// The element's display name, interned for the report.
    pub(crate) element_name: Option<Arc<str>>,
    pub(crate) kind: CompiledRowKind,
}

#[derive(Debug, Clone)]
pub(crate) enum CompiledRowKind {
    /// A resolved library or inline element, shared with the registry.
    Element(Arc<LibraryElement>),
    /// A path the registry could not resolve; erroring is deferred to
    /// evaluation so error precedence matches the uncompiled engine.
    Missing { path: String },
    /// A nested design, itself compiled.
    SubSheet(Box<CompiledSheet>),
}

impl CompiledSheet {
    /// Compiles `sheet` against `registry`.
    ///
    /// Never fails: errors the uncompiled engine would raise (circular
    /// globals, duplicate idents, row cycles, unknown elements) are
    /// recorded in the plan and returned by the play methods at the
    /// point evaluation would have reached them.
    pub fn compile(sheet: &Sheet, registry: &Registry) -> CompiledSheet {
        let _timer = plan_metrics().compile_seconds.start_timer();
        let mut plan = Self::compile_impl(sheet, registry);
        // Lower the whole hierarchy (sub-sheets inlined) into one flat
        // register-machine program. Only the top level carries one: a
        // sub-plan's rows are spans inside its parent's program.
        let body = Arc::get_mut(&mut plan.body).expect("a fresh body is unshared");
        body.program = body
            .structure
            .as_ref()
            .ok()
            .map(|rows| Program::lower(&plan.globals, rows));
        plan
    }

    /// The plan for `next`, given that `self` is the plan compiled from
    /// `prev` against `registry` (or against an earlier state of the
    /// same registry value: generations order the states of one value,
    /// not contents across values). When `next` differs from `prev` only
    /// in top-level global formulas, the body is shared and only the
    /// globals half is rebuilt; otherwise this is
    /// [`CompiledSheet::compile`]. The body is reused only when all
    /// three hold:
    ///
    /// * `next`'s rows are bit-identical to `prev`'s (every `f64`
    ///   compared by bit pattern: the constant pool keeps `0.0` and
    ///   `-0.0` apart, `Row: PartialEq` does not);
    /// * `next`'s top-level global names are `self`'s, in order (each
    ///   names a register slot of the program);
    /// * the registry generation is the one the body was built against.
    ///
    /// Either way the result plays bit-for-bit like a fresh compile of
    /// `next`. A reuse is not a compile: it is counted in
    /// `powerplay_sheet_compile_reused_total`, not in
    /// `powerplay_sheet_compile_seconds`.
    pub fn recompile(&self, prev: &Sheet, next: &Sheet, registry: &Registry) -> CompiledSheet {
        let reusable = self.body.generation == registry.generation()
            && self.globals.len() == next.globals().len()
            && self
                .globals
                .iter()
                .zip(next.globals())
                .all(|(g, (name, _))| *g.name == **name)
            && same::rows_identical(prev.rows(), next.rows());
        if !reusable {
            return Self::compile(next, registry);
        }
        plan_metrics().compile_reused_total.inc();
        let (globals, base_global_plan) = compile_globals(next);
        CompiledSheet {
            id: PLAN_IDS.fetch_add(1, Ordering::Relaxed),
            name: Arc::from(next.name()),
            globals,
            base_global_plan,
            body: Arc::clone(&self.body),
        }
    }

    /// [`CompiledSheet::compile`] minus the metrics and the lowering, so
    /// sub-sheet recursion inside `compile_rows` doesn't count extra
    /// compiles.
    pub(crate) fn compile_impl(sheet: &Sheet, registry: &Registry) -> CompiledSheet {
        let _span = profile::span_lazy(|| format!("compile {}", sheet.name()));
        let (globals, base_global_plan) = compile_globals(sheet);
        CompiledSheet {
            id: PLAN_IDS.fetch_add(1, Ordering::Relaxed),
            name: Arc::from(sheet.name()),
            globals,
            base_global_plan,
            body: Arc::new(PlanBody {
                structure: compile_rows(sheet, registry),
                program: None,
                generation: registry.generation(),
            }),
        }
    }

    /// True when `self` and `other` share one body (the row plan and
    /// program) — what [`CompiledSheet::recompile`] returns on reuse.
    pub fn shares_body_with(&self, other: &CompiledSheet) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// Number of top-level rows (0 when the sheet has a structural
    /// error). Useful to compare against [`ReplayState::last_dirty_rows`].
    pub fn row_count(&self) -> usize {
        self.body
            .structure
            .as_ref()
            .map(|p| p.rows.len())
            .unwrap_or(0)
    }

    /// Names this sheet may read from an enclosing scope when played as
    /// a sub-sheet: global formula frees and row watched names, minus
    /// the sheet's own global names and its internal `P_`/`A_` refs
    /// (both always shadow the parent). Over-approximate by design.
    fn external_free(&self) -> BTreeSet<String> {
        let global_names: BTreeSet<&str> = self.globals.iter().map(|g| &*g.name).collect();
        let mut out = BTreeSet::new();
        for g in &self.globals {
            out.extend(
                g.free
                    .iter()
                    .filter(|v| !global_names.contains(v.as_str()))
                    .cloned(),
            );
        }
        if let Ok(plan) = &self.body.structure {
            let internal_refs: BTreeSet<&str> = plan
                .rows
                .iter()
                .flat_map(|r| [r.power_ref.as_deref(), r.area_ref.as_deref()])
                .flatten()
                .collect();
            for w in &plan.watched {
                out.extend(
                    w.iter()
                        .filter(|v| {
                            !global_names.contains(v.as_str())
                                && !internal_refs.contains(v.as_str())
                        })
                        .cloned(),
                );
            }
        }
        out
    }

    /// Evaluates the plan with no overrides — equivalent to
    /// [`Sheet::play`] on the compiled sheet.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sheet::play`].
    pub fn play(&self) -> Result<SheetReport, EvaluateSheetError> {
        self.play_with(&[])
    }

    /// Evaluates the plan with the given global value overrides —
    /// equivalent to cloning the sheet, calling
    /// [`Sheet::set_global_value`] for each pair in order, and playing,
    /// but with no clone and no dependency re-analysis of the rows.
    ///
    /// Overriding a name not currently a global appends it, exactly as
    /// [`Sheet::set_global_value`] would.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sheet::play`] on the overridden sheet.
    pub fn play_with(&self, overrides: &[(&str, f64)]) -> Result<SheetReport, EvaluateSheetError> {
        self.play_with_in(&Scope::new(), overrides)
    }

    /// Like [`CompiledSheet::play_with`] but with externally supplied
    /// bindings (used when this sheet is nested inside another design).
    ///
    /// # Errors
    ///
    /// Same as [`CompiledSheet::play_with`].
    pub fn play_with_in(
        &self,
        parent: &Scope<'_>,
        overrides: &[(&str, f64)],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.plays_total.inc();
        let _timer = metrics.replay_seconds.start_timer();
        self.play_impl(parent, overrides)
    }

    /// Like [`CompiledSheet::play_with`] but forcing the tree-walking
    /// evaluator even when a bytecode program is available — the
    /// reference oracle the parity test suite (and the throughput
    /// benches) compare the bytecode engine against.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`].
    pub fn play_with_tree(
        &self,
        overrides: &[(&str, f64)],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.plays_total.inc();
        let _timer = metrics.replay_seconds.start_timer();
        self.play_impl_mode(&Scope::new(), overrides, false)
    }

    /// [`CompiledSheet::play_with_in`] minus the top-level metrics, so a
    /// nested design counts as one play and one replay-latency sample.
    pub(crate) fn play_impl(
        &self,
        parent: &Scope<'_>,
        overrides: &[(&str, f64)],
    ) -> Result<SheetReport, EvaluateSheetError> {
        self.play_impl_mode(parent, overrides, true)
    }

    /// True when a play with `parent` bindings and `overrides` can be
    /// answered by the bytecode program: top-level scope (a non-empty
    /// parent could rebind any name the program resolved statically) and
    /// no override touching a name the lowering left unresolved (an
    /// appended override global is visible to the scope lookups the
    /// program compiled as errors or defaults).
    fn bytecode_for(&self, parent: &Scope<'_>, names: &[&str]) -> Option<&Program> {
        if !parent.is_empty_root() {
            return None;
        }
        let prog = self.body.program.as_ref()?;
        if names.iter().any(|n| prog.is_unresolved(n)) {
            return None;
        }
        Some(prog)
    }

    fn play_impl_mode(
        &self,
        parent: &Scope<'_>,
        overrides: &[(&str, f64)],
        use_bytecode: bool,
    ) -> Result<SheetReport, EvaluateSheetError> {
        let _span = profile::span_lazy(|| format!("play {}", self.name));
        let mut globals_scope = parent.child();
        let resolved_globals = if overrides.is_empty() {
            let order = self.base_global_plan.as_ref().map_err(Clone::clone)?;
            let mut resolved: Vec<Option<(String, f64)>> = vec![None; self.globals.len()];
            for &i in order {
                let global = &self.globals[i];
                let value = global.expr.eval(&globals_scope).map_err(|source| {
                    EvaluateSheetError::Global {
                        name: global.name.to_string(),
                        source,
                    }
                })?;
                globals_scope.set(global.name.clone(), value);
                resolved[i] = Some((global.name.to_string(), value));
            }
            resolved
                .into_iter()
                .map(|slot| slot.expect("every global evaluated"))
                .collect()
        } else {
            self.eval_overridden_globals(&mut globals_scope, overrides)?
        };

        let plan = self.body.structure.as_ref().map_err(Clone::clone)?;

        if use_bytecode {
            let names: Vec<&str> = overrides.iter().map(|&(n, _)| n).collect();
            if let Some(prog) = self.bytecode_for(parent, &names) {
                return with_scratch_regs(|regs| {
                    prog.replay_full(self.name.clone(), resolved_globals, regs)
                });
            }
        }

        let rows = eval_rows_full(plan, &globals_scope)?;

        Ok(SheetReport::new(self.name.clone(), resolved_globals, rows))
    }

    /// Global evaluation under overrides. Overridden globals become
    /// literals, which removes their outgoing dependency edges (and can
    /// dissolve cycles); overriding an undefined name appends a new
    /// global that existing formulas may now resolve against. Both
    /// reshape the graph, so it is re-planned here from the precomputed
    /// free-variable sets — a few comparisons over a handful of
    /// globals, not an AST re-walk.
    fn eval_overridden_globals(
        &self,
        globals_scope: &mut Scope<'_>,
        overrides: &[(&str, f64)],
    ) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
        // Apply overrides in sequence: replace the value of an existing
        // global, or append a fresh one (later duplicates win).
        let mut base_value: Vec<Option<f64>> = vec![None; self.globals.len()];
        let mut appended: Vec<(String, f64)> = Vec::new();
        for &(name, value) in overrides {
            if let Some(i) = self.globals.iter().position(|g| &*g.name == name) {
                base_value[i] = Some(value);
            } else if let Some(slot) = appended.iter_mut().find(|(n, _)| n == name) {
                slot.1 = value;
            } else {
                appended.push((name.to_owned(), value));
            }
        }

        enum Node<'a> {
            Formula(&'a CompiledGlobal),
            Literal(&'a str, f64),
        }
        let nodes: Vec<Node<'_>> = self
            .globals
            .iter()
            .enumerate()
            .map(|(i, g)| match base_value[i] {
                Some(v) => Node::Literal(&g.name, v),
                None => Node::Formula(g),
            })
            .chain(appended.iter().map(|(n, v)| Node::Literal(n, *v)))
            .collect();

        let index_of: BTreeMap<&str, usize> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match node {
                Node::Formula(g) => (&*g.name, i),
                Node::Literal(name, _) => (*name, i),
            })
            .collect();
        let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            let entry = deps.entry(i).or_default();
            if let Node::Formula(g) = node {
                if g.free.contains(&*g.name) {
                    return Err(EvaluateSheetError::CircularGlobals(vec![g
                        .name
                        .to_string()]));
                }
                for var in &g.free {
                    if let Some(&j) = index_of.get(var.as_str()) {
                        if j != i {
                            entry.insert(j);
                        }
                    }
                }
            }
        }
        let order = toposort(nodes.len(), &deps).map_err(|cycle| {
            EvaluateSheetError::CircularGlobals(
                cycle
                    .into_iter()
                    .map(|i| match &nodes[i] {
                        Node::Formula(g) => g.name.to_string(),
                        Node::Literal(name, _) => (*name).to_owned(),
                    })
                    .collect(),
            )
        })?;

        let mut resolved: Vec<Option<(String, f64)>> = vec![None; nodes.len()];
        for i in order {
            let (name, value) = match &nodes[i] {
                Node::Literal(name, value) => ((*name).to_owned(), *value),
                Node::Formula(g) => {
                    let value = g.expr.eval(globals_scope).map_err(|source| {
                        EvaluateSheetError::Global {
                            name: g.name.to_string(),
                            source,
                        }
                    })?;
                    (g.name.to_string(), value)
                }
            };
            globals_scope.set(name.clone(), value);
            resolved[i] = Some((name, value));
        }
        Ok(resolved
            .into_iter()
            .map(|slot| slot.expect("every global evaluated"))
            .collect())
    }

    /// Precomputes everything about a set of override *names* that
    /// [`CompiledSheet::eval_overridden_globals`] would otherwise redo
    /// per play: name → global-slot resolution, the reshaped global
    /// dependency graph, and its toposort (or the `CircularGlobals`
    /// error every play with these names would raise). The graph shape
    /// depends only on the names, never the values, so a sweep resolves
    /// it once and plays each point with [`CompiledSheet::play_with_plan`].
    ///
    /// Duplicate names collapse to one slot (later values win, matching
    /// [`Sheet::set_global_value`] applied in sequence).
    pub fn override_plan(&self, names: &[&str]) -> OverridePlan {
        let mut uniq: Vec<String> = Vec::new();
        for &n in names {
            if !uniq.iter().any(|u| u == n) {
                uniq.push(n.to_owned());
            }
        }
        let inner = self.build_override_inner(&uniq);
        OverridePlan {
            plan_id: self.id,
            names: uniq,
            inner,
        }
    }

    /// Mirrors the graph construction of `eval_overridden_globals`,
    /// including its error precedence: a self-referential formula errors
    /// first (lowest node index), then cycles surface from the toposort.
    fn build_override_inner(
        &self,
        names: &[String],
    ) -> Result<OverridePlanInner, EvaluateSheetError> {
        let mut global_slot: Vec<Option<usize>> = vec![None; self.globals.len()];
        let mut appended: Vec<usize> = Vec::new();
        for (slot, name) in names.iter().enumerate() {
            if let Some(i) = self.globals.iter().position(|g| &*g.name == name.as_str()) {
                global_slot[i] = Some(slot);
            } else {
                appended.push(slot);
            }
        }
        let node_count = self.globals.len() + appended.len();
        let name_of = |k: usize| -> &str {
            if k < self.globals.len() {
                &self.globals[k].name
            } else {
                &names[appended[k - self.globals.len()]]
            }
        };
        let index_of: BTreeMap<&str, usize> = (0..node_count).map(|k| (name_of(k), k)).collect();
        let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for k in 0..node_count {
            deps.entry(k).or_default();
        }
        for (k, (slot, g)) in global_slot.iter().zip(&self.globals).enumerate() {
            if slot.is_some() {
                continue; // overridden: a constant, no formula deps
            }
            if g.free.contains(&*g.name) {
                return Err(EvaluateSheetError::CircularGlobals(vec![g
                    .name
                    .to_string()]));
            }
            let entry = deps.entry(k).or_default();
            for var in &g.free {
                if let Some(&j) = index_of.get(var.as_str()) {
                    if j != k {
                        entry.insert(j);
                    }
                }
            }
        }
        let order = toposort(node_count, &deps).map_err(|cycle| {
            EvaluateSheetError::CircularGlobals(
                cycle.into_iter().map(|k| name_of(k).to_owned()).collect(),
            )
        })?;
        Ok(OverridePlanInner {
            global_slot,
            appended,
            order,
        })
    }

    /// Resolves globals through a precomputed [`OverridePlan`]; output
    /// is identical to `eval_overridden_globals` on the corresponding
    /// `(name, value)` pairs.
    fn eval_globals_with_plan(
        &self,
        globals_scope: &mut Scope<'_>,
        plan: &OverridePlan,
        inner: &OverridePlanInner,
        values: &[f64],
    ) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
        let node_count = self.globals.len() + inner.appended.len();
        let mut resolved: Vec<Option<(String, f64)>> = vec![None; node_count];
        for &k in &inner.order {
            let (name, value) = if k < self.globals.len() {
                let g = &self.globals[k];
                let value =
                    match inner.global_slot[k] {
                        Some(slot) => values[slot],
                        None => g.expr.eval(globals_scope).map_err(|source| {
                            EvaluateSheetError::Global {
                                name: g.name.to_string(),
                                source,
                            }
                        })?,
                    };
                globals_scope.set(g.name.clone(), value);
                (g.name.to_string(), value)
            } else {
                let slot = inner.appended[k - self.globals.len()];
                let name = plan.names[slot].clone();
                globals_scope.set(Arc::<str>::from(name.as_str()), values[slot]);
                (name, values[slot])
            };
            resolved[k] = Some((name, value));
        }
        Ok(resolved
            .into_iter()
            .map(|slot| slot.expect("every global evaluated"))
            .collect())
    }

    /// A full (non-incremental) play through a precomputed
    /// [`OverridePlan`]. `values` align with [`OverridePlan::names`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`] on the
    /// corresponding `(name, value)` pairs.
    pub fn play_with_plan(
        &self,
        plan: &OverridePlan,
        values: &[f64],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.plays_total.inc();
        let _timer = metrics.replay_seconds.start_timer();
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        assert_eq!(
            values.len(),
            plan.names.len(),
            "one value per planned override name"
        );
        let _span = profile::span_lazy(|| format!("play {}", self.name));
        let inner = plan.inner.as_ref().map_err(Clone::clone)?;
        let mut globals_scope = Scope::new();
        let resolved = self.eval_globals_with_plan(&mut globals_scope, plan, inner, values)?;
        let rows_plan = self.body.structure.as_ref().map_err(Clone::clone)?;

        let names: Vec<&str> = plan.names.iter().map(String::as_str).collect();
        if let Some(prog) = self.bytecode_for(&Scope::new(), &names) {
            return with_scratch_regs(|regs| prog.replay_full(self.name.clone(), resolved, regs));
        }

        let rows = eval_rows_full(rows_plan, &globals_scope)?;
        Ok(SheetReport::new(self.name.clone(), resolved, rows))
    }

    /// Incremental replay: re-evaluates only the rows whose watched
    /// names changed since the last successful replay recorded in
    /// `state`, reusing the previous report for clean rows. Falls back
    /// to a full replay when the potential dirty frontier exceeds
    /// [`DELTA_FALLBACK_NUM`]/[`DELTA_FALLBACK_DEN`] of the rows.
    ///
    /// The result is bit-for-bit identical to
    /// [`CompiledSheet::play_with`] with the same overrides. On error
    /// `state` keeps its last successful baseline. Delta replay targets
    /// *top-level* plays (empty parent scope); sub-sheet rows are
    /// macro-lumped — a dirty sub-sheet row replays its whole subtree.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`].
    pub fn replay_delta(
        &self,
        state: &mut ReplayState,
        overrides: &[(&str, f64)],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let mut names: Vec<&str> = Vec::with_capacity(overrides.len());
        let mut values: Vec<f64> = Vec::with_capacity(overrides.len());
        for &(name, value) in overrides {
            if let Some(p) = names.iter().position(|&n| n == name) {
                values[p] = value;
            } else {
                names.push(name);
                values.push(value);
            }
        }
        let cached = state.override_plan.as_ref().filter(|p| {
            p.plan_id == self.id
                && p.names.len() == names.len()
                && p.names.iter().zip(&names).all(|(a, b)| a == b)
        });
        let plan = match cached {
            Some(p) => p.clone(),
            None => {
                let p = Arc::new(self.override_plan(&names));
                state.override_plan = Some(p.clone());
                p
            }
        };
        self.replay_delta_with_plan(&plan, state, &values)
    }

    /// [`CompiledSheet::replay_delta`] with the override-name resolution
    /// already hoisted into `plan` (see [`CompiledSheet::override_plan`]).
    /// `values` align with [`OverridePlan::names`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`CompiledSheet::play_with`].
    pub fn replay_delta_with_plan(
        &self,
        plan: &OverridePlan,
        state: &mut ReplayState,
        values: &[f64],
    ) -> Result<SheetReport, EvaluateSheetError> {
        let metrics = plan_metrics();
        metrics.delta_replays_total.inc();
        let _timer = metrics.delta_replay_seconds.start_timer();
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        assert_eq!(
            values.len(),
            plan.names.len(),
            "one value per planned override name"
        );
        let _span = profile::span_lazy(|| format!("delta-play {}", self.name));

        let inner = plan.inner.as_ref().map_err(Clone::clone)?;
        let mut globals_scope = Scope::new();
        let resolved = self.eval_globals_with_plan(&mut globals_scope, plan, inner, values)?;
        let rows_plan = self.body.structure.as_ref().map_err(Clone::clone)?;
        let names: Vec<&str> = plan.names.iter().map(String::as_str).collect();
        let prog = self.bytecode_for(&Scope::new(), &names);

        // No usable baseline: full evaluation, then remember it.
        if state.plan_id != Some(self.id) || state.report.is_none() {
            metrics.plays_total.inc();
            let report =
                self.full_replay_for_delta(prog, rows_plan, &globals_scope, resolved, state)?;
            state.commit(self.id, &report, rows_plan.rows.len(), DeltaOutcome::Full);
            metrics
                .delta_dirty_rows
                .observe_value(rows_plan.rows.len() as u64);
            return Ok(report);
        }

        let prev = state.report.as_ref().expect("checked above");
        let prev_globals: BTreeMap<&str, f64> = prev
            .globals()
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let mut changed: BTreeSet<&str> = BTreeSet::new();
        for (name, value) in &resolved {
            match prev_globals.get(name.as_str()) {
                Some(pv) if pv.to_bits() == value.to_bits() => {}
                _ => {
                    changed.insert(name);
                }
            }
        }
        if prev_globals.len() != resolved.len() {
            let new_names: BTreeSet<&str> = resolved.iter().map(|(n, _)| n.as_str()).collect();
            for name in prev_globals.keys() {
                if !new_names.contains(name) {
                    changed.insert(name);
                }
            }
        }

        // Memoized point: nothing changed, so the previous rows stand
        // verbatim (the globals vector is rebuilt — its order follows
        // this call's override plan, as a fresh play's would).
        if changed.is_empty() {
            metrics.delta_memo_hits_total.inc();
            metrics.delta_dirty_rows.observe_value(0);
            let report = SheetReport::new(self.name.clone(), resolved, prev.rows().to_vec());
            state.commit(self.id, &report, 0, DeltaOutcome::Memo);
            return Ok(report);
        }

        // Seed the dirty set from the watch index.
        state.dirty.clear();
        state.dirty.resize(rows_plan.rows.len(), false);
        for name in &changed {
            if let Some(watchers) = rows_plan.watchers.get(*name) {
                for &i in watchers {
                    state.dirty[i] = true;
                }
            }
        }

        // Threshold decision on the transitive closure (an upper bound:
        // the targeted walk below stops propagating when a re-evaluated
        // row's outputs come back bit-identical).
        let mut closure = state.dirty.clone();
        let mut stack: Vec<usize> = closure
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect();
        let mut potential = stack.len();
        while let Some(i) = stack.pop() {
            for &d in &rows_plan.dependents[i] {
                if !closure[d] {
                    closure[d] = true;
                    potential += 1;
                    stack.push(d);
                }
            }
        }
        if potential * DELTA_FALLBACK_DEN > rows_plan.rows.len() * DELTA_FALLBACK_NUM {
            metrics.delta_fallbacks_total.inc();
            metrics.plays_total.inc();
            let report =
                self.full_replay_for_delta(prog, rows_plan, &globals_scope, resolved, state)?;
            state.commit(
                self.id,
                &report,
                rows_plan.rows.len(),
                DeltaOutcome::Fallback,
            );
            metrics
                .delta_dirty_rows
                .observe_value(rows_plan.rows.len() as u64);
            return Ok(report);
        }

        // Targeted walk in plan order; errors leave `state` at its last
        // successful baseline (clean rows cannot error — identical
        // inputs evaluated successfully last time). Routed through the
        // bytecode program when its register file can mirror the
        // baseline, otherwise through the tree walker.
        let prev = state.report.take().expect("checked above");
        let use_bytecode = match prog {
            Some(p) => self.ensure_regs(p, state, &prev),
            None => {
                state.regs_plan = None;
                false
            }
        };
        let walk = if use_bytecode {
            let p = prog.expect("use_bytecode implies a program");
            let ReplayState { dirty, regs, .. } = state;
            delta_walk_bytecode(p, rows_plan, &resolved, &prev, dirty, regs)
        } else {
            delta_walk(rows_plan, &globals_scope, &prev, &mut state.dirty)
        };
        match walk {
            Ok((rows, evaluated)) => {
                metrics.rows_evaluated_total.add(evaluated as u64);
                metrics.delta_dirty_rows.observe_value(evaluated as u64);
                let report = SheetReport::new(self.name.clone(), resolved, rows);
                state.commit(self.id, &report, evaluated, DeltaOutcome::Incremental);
                Ok(report)
            }
            Err(err) => {
                if use_bytecode {
                    state.regs_plan = None;
                }
                state.report = Some(prev);
                Err(err)
            }
        }
    }

    /// The full-evaluation path shared by the no-baseline and
    /// over-threshold branches of [`CompiledSheet::replay_delta_with_plan`]:
    /// a bytecode replay into the state's persistent register file when a
    /// program is available (leaving the file valid for targeted walks),
    /// the tree walker otherwise.
    fn full_replay_for_delta(
        &self,
        prog: Option<&Program>,
        rows_plan: &RowsPlan,
        globals_scope: &Scope<'_>,
        resolved: Vec<(String, f64)>,
        state: &mut ReplayState,
    ) -> Result<SheetReport, EvaluateSheetError> {
        if let Some(prog) = prog {
            return match prog.replay_full(self.name.clone(), resolved, &mut state.regs) {
                Ok(report) => {
                    state.regs_plan = Some(self.id);
                    Ok(report)
                }
                Err(err) => {
                    state.regs_plan = None;
                    Err(err)
                }
            };
        }
        state.regs_plan = None;
        let rows = eval_rows_full(rows_plan, globals_scope)?;
        Ok(SheetReport::new(self.name.clone(), resolved, rows))
    }

    /// Makes `state.regs` a valid register image of the baseline report
    /// `prev`: already valid when the last successful execution through
    /// this state was bytecode, otherwise rebuilt by replaying the whole
    /// program at the baseline's global values. Returns `false` (state
    /// invalidated) when the baseline cannot be reproduced — the caller
    /// then walks the tree, which needs no register file.
    fn ensure_regs(&self, prog: &Program, state: &mut ReplayState, prev: &SheetReport) -> bool {
        if state.regs_plan == Some(self.id) {
            return true;
        }
        let globals = prev.globals();
        if globals.len() < prog.global_count() {
            state.regs_plan = None;
            return false;
        }
        prog.seed(&mut state.regs);
        prog.seed_globals(globals.iter().map(|(_, v)| *v), &mut state.regs);
        match prog.exec(0, prog.code_len(), &mut state.regs) {
            Ok(()) => {
                state.regs_plan = Some(self.id);
                true
            }
            Err(_) => {
                state.regs_plan = None;
                false
            }
        }
    }
}

/// Fall back to a full replay when the potential dirty frontier exceeds
/// `DELTA_FALLBACK_NUM / DELTA_FALLBACK_DEN` of the top-level rows: past
/// that point the targeted walk re-evaluates nearly everything anyway
/// and the bookkeeping is pure overhead.
pub const DELTA_FALLBACK_NUM: usize = 3;
/// See [`DELTA_FALLBACK_NUM`].
pub const DELTA_FALLBACK_DEN: usize = 4;

/// The override-name resolution and reshaped global plan shared by every
/// point of a sweep — built once by [`CompiledSheet::override_plan`].
#[derive(Debug, Clone)]
pub struct OverridePlan {
    plan_id: u64,
    names: Vec<String>,
    inner: Result<OverridePlanInner, EvaluateSheetError>,
}

impl OverridePlan {
    /// The de-duplicated override names; values passed to
    /// [`CompiledSheet::play_with_plan`] and
    /// [`CompiledSheet::replay_delta_with_plan`] align with this order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[derive(Debug, Clone)]
struct OverridePlanInner {
    /// Per compiled global: the `names` slot overriding it, if any.
    global_slot: Vec<Option<usize>>,
    /// `names` slots that append new globals, in append order.
    appended: Vec<usize>,
    /// Toposorted node order (nodes: globals, then appended).
    order: Vec<usize>,
}

/// How the last [`CompiledSheet::replay_delta`] answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeltaOutcome {
    /// No replay recorded yet.
    #[default]
    None,
    /// First play into this state: full evaluation.
    Full,
    /// Dirty frontier over threshold: full evaluation.
    Fallback,
    /// No global changed: previous rows reused verbatim.
    Memo,
    /// Targeted walk: only dirty rows re-evaluated.
    Incremental,
}

/// Mutable baseline for [`CompiledSheet::replay_delta`]: the last
/// successful report plus reusable scratch. One per worker; reuse across
/// points of a sweep is what makes delta replay allocation-free on the
/// clean-row path.
#[derive(Debug, Clone, Default)]
pub struct ReplayState {
    plan_id: Option<u64>,
    report: Option<SheetReport>,
    override_plan: Option<Arc<OverridePlan>>,
    dirty: Vec<bool>,
    last_dirty_rows: Option<usize>,
    last_outcome: DeltaOutcome,
    /// Persistent bytecode register file. Valid (mirrors `report`) only
    /// while `regs_plan` matches the plan that last filled it via a
    /// *successful* bytecode execution; tree-walk commits and bytecode
    /// errors invalidate it.
    regs: Vec<f64>,
    regs_plan: Option<u64>,
}

impl ReplayState {
    /// An empty state; the first replay through it is a full one.
    pub fn new() -> ReplayState {
        ReplayState::default()
    }

    /// Top-level rows re-evaluated by the most recent replay (the full
    /// row count on `Full`/`Fallback`, 0 on `Memo`).
    pub fn last_dirty_rows(&self) -> Option<usize> {
        self.last_dirty_rows
    }

    /// How the most recent replay answered.
    pub fn last_outcome(&self) -> DeltaOutcome {
        self.last_outcome
    }

    fn commit(&mut self, plan_id: u64, report: &SheetReport, dirty: usize, outcome: DeltaOutcome) {
        self.plan_id = Some(plan_id);
        self.report = Some(report.clone());
        self.last_dirty_rows = Some(dirty);
        self.last_outcome = outcome;
    }
}

/// A batched bytecode sweep kernel: evaluates up to
/// [`BatchKernel::WIDTH`] override points per instruction-dispatch pass.
///
/// Built once per sweep by [`CompiledSheet::batch_kernel`], it replays a
/// baseline (un-overridden) play, then derives a *value-independent*
/// dirty superset — every row whose inputs can depend on any override
/// name, directly or through non-overridden global formulas or
/// `P_`/`A_` chains. Each [`BatchKernel::replay_chunk`] call resolves
/// globals per lane with the scalar path (which owns override graph
/// repair and global error precedence), seeds a slot-major SoA register
/// file from the baseline image, and executes only the dirty rows' code
/// spans across all lanes at once. Clean rows reuse the baseline report
/// verbatim — they cannot differ, because none of their watched inputs
/// can change.
///
/// Results are bit-for-bit those of [`CompiledSheet::play_with_plan`]
/// per point, including which error surfaces first.
pub struct BatchKernel<'a> {
    plan: &'a CompiledSheet,
    oplan: &'a OverridePlan,
    inner: &'a OverridePlanInner,
    prog: &'a Program,
    rows_plan: &'a RowsPlan,
    /// Value-independent dirty superset over top-level rows.
    dirty: Vec<bool>,
    /// Plan-order traversal of the dirty rows.
    dirty_order: Vec<usize>,
    /// Register image of the baseline play.
    baseline_regs: Vec<f64>,
    baseline: SheetReport,
}

impl CompiledSheet {
    /// Builds a batched sweep kernel for the override names in `plan`,
    /// or `None` when batching cannot reproduce the scalar path exactly:
    /// no bytecode program, an override name the lowering left
    /// unresolved, a structural/global-plan error (every point fails the
    /// same way — the scalar path reports it), or a baseline play that
    /// itself errors (the clean-row reuse needs a valid baseline).
    pub fn batch_kernel<'a>(&'a self, plan: &'a OverridePlan) -> Option<BatchKernel<'a>> {
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        let names: Vec<&str> = plan.names.iter().map(String::as_str).collect();
        let prog = self.bytecode_for(&Scope::new(), &names)?;
        let inner = plan.inner.as_ref().ok()?;
        let rows_plan = self.body.structure.as_ref().ok()?;

        // Baseline: the un-overridden play, through the program so its
        // register image is available for lane seeding.
        let order = self.base_global_plan.as_ref().ok()?;
        let mut scope = Scope::new();
        let mut decl: Vec<Option<(String, f64)>> = vec![None; self.globals.len()];
        for &i in order {
            let g = &self.globals[i];
            let value = g.expr.eval(&scope).ok()?;
            scope.set(g.name.clone(), value);
            decl[i] = Some((g.name.to_string(), value));
        }
        let resolved: Vec<(String, f64)> = decl
            .into_iter()
            .map(|slot| slot.expect("every global evaluated"))
            .collect();
        let mut baseline_regs = Vec::new();
        let baseline = prog
            .replay_full(self.name.clone(), resolved, &mut baseline_regs)
            .ok()?;

        // Names whose value can differ from the baseline at some point
        // of the sweep: the override names plus the fixpoint of
        // non-overridden global formulas reading any of them.
        let mut changed: BTreeSet<&str> = names.iter().copied().collect();
        loop {
            let mut grew = false;
            for (i, g) in self.globals.iter().enumerate() {
                if inner.global_slot[i].is_some() || changed.contains(&*g.name) {
                    continue;
                }
                if g.free.iter().any(|v| changed.contains(v.as_str())) {
                    changed.insert(&g.name);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        // Dirty superset: watchers of any changed name, closed over
        // `P_`/`A_` dependents (value-independent, so no bitwise
        // propagation pruning — extra rows only cost execution).
        let mut dirty = vec![false; rows_plan.rows.len()];
        let mut stack: Vec<usize> = Vec::new();
        for name in &changed {
            if let Some(watchers) = rows_plan.watchers.get(*name) {
                for &i in watchers {
                    if !dirty[i] {
                        dirty[i] = true;
                        stack.push(i);
                    }
                }
            }
        }
        while let Some(i) = stack.pop() {
            for &d in &rows_plan.dependents[i] {
                if !dirty[d] {
                    dirty[d] = true;
                    stack.push(d);
                }
            }
        }
        let dirty_order: Vec<usize> = rows_plan
            .order
            .iter()
            .copied()
            .filter(|&i| dirty[i])
            .collect();

        Some(BatchKernel {
            plan: self,
            oplan: plan,
            inner,
            prog,
            rows_plan,
            dirty,
            dirty_order,
            baseline_regs,
            baseline,
        })
    }
}

impl BatchKernel<'_> {
    /// Natural chunk size for [`BatchKernel::replay_chunk`]: wide enough
    /// to amortize dispatch and fill SIMD lanes, small enough to keep
    /// the SoA register file in cache.
    pub const WIDTH: usize = 8;

    /// Plays one point per element of `points` (each a values slice
    /// aligned with the kernel's override-plan names), batching all
    /// lanes through each dirty row's code span in one dispatch pass.
    pub fn replay_chunk<P: AsRef<[f64]>>(
        &self,
        points: &[P],
    ) -> Vec<Result<SheetReport, EvaluateSheetError>> {
        let metrics = plan_metrics();
        let n = points.len();
        let mut out: Vec<Option<Result<SheetReport, EvaluateSheetError>>> =
            (0..n).map(|_| None).collect();

        // Scalar global resolution per lane; a lane whose globals error
        // is answered immediately and excluded from the batch.
        let mut lanes: Vec<(usize, Vec<(String, f64)>)> = Vec::with_capacity(n);
        for (idx, point) in points.iter().enumerate() {
            let values = point.as_ref();
            assert_eq!(
                values.len(),
                self.oplan.names.len(),
                "one value per planned override name"
            );
            let mut scope = Scope::new();
            match self
                .plan
                .eval_globals_with_plan(&mut scope, self.oplan, self.inner, values)
            {
                Ok(resolved) => lanes.push((idx, resolved)),
                Err(err) => out[idx] = Some(Err(err)),
            }
        }

        let m = lanes.len();
        if m > 0 {
            metrics.plays_total.add(m as u64);
            metrics
                .rows_evaluated_total
                .add((self.dirty_order.len() * m) as u64);
            bytecode_metrics().batch_width.observe_value(m as u64);

            // Slot-major SoA register file: lane `l` of slot `s` at
            // `s * m + l`. Baseline image per slot, then each lane's
            // own top-level global values.
            let reg_count = self.prog.reg_count();
            let mut soa = vec![0.0f64; reg_count * m];
            for (slot, &value) in self.baseline_regs.iter().enumerate() {
                soa[slot * m..(slot + 1) * m].fill(value);
            }
            for (l, (_, resolved)) in lanes.iter().enumerate() {
                for (gi, (_, value)) in resolved.iter().take(self.prog.global_count()).enumerate() {
                    soa[self.prog.global_slot(gi) as usize * m + l] = *value;
                }
            }

            let mut errs: Vec<Option<TrapHit>> = vec![None; m];
            let mut instrs = 0u64;
            for &i in &self.dirty_order {
                let (start, end) = self.prog.row_span(i);
                instrs += u64::from(end - start) * m as u64;
                self.prog.exec_batch(start, end, &mut soa, m, &mut errs);
                if errs.iter().all(Option::is_some) {
                    break;
                }
            }
            bytecode_metrics().instrs_total.add(instrs);

            for (l, (idx, resolved)) in lanes.into_iter().enumerate() {
                let result = match errs[l] {
                    Some(hit) => Err(self.prog.materialize(hit)),
                    None => {
                        let get = |slot: u32| soa[slot as usize * m + l];
                        let rows = (0..self.rows_plan.rows.len())
                            .map(|i| {
                                if self.dirty[i] {
                                    self.prog.build_row_report(i, &get)
                                } else {
                                    self.baseline.rows()[i].clone()
                                }
                            })
                            .collect();
                        Ok(SheetReport::new(self.plan.name.clone(), resolved, rows))
                    }
                };
                out[idx] = Some(result);
            }
        }

        out.into_iter()
            .map(|o| o.expect("every lane answered"))
            .collect()
    }
}

/// The row loop shared by full plays: evaluates every row in plan order,
/// threading `P_`/`A_` outputs through the power layer.
fn eval_rows_full(
    plan: &RowsPlan,
    globals_scope: &Scope<'_>,
) -> Result<Vec<RowReport>, EvaluateSheetError> {
    plan_metrics()
        .rows_evaluated_total
        .add(plan.order.len() as u64);
    let mut power_layer = globals_scope.child();
    let mut reports: Vec<Option<RowReport>> = vec![None; plan.rows.len()];
    for &i in &plan.order {
        let row = &plan.rows[i];
        let report = evaluate_compiled_row(row, &power_layer)?;
        set_row_outputs(row, &report, &mut power_layer);
        reports[i] = Some(report);
    }
    Ok(reports
        .into_iter()
        .map(|r| r.expect("every row evaluated"))
        .collect())
}

/// Publishes a row's `P_`/`A_` values into the power layer.
fn set_row_outputs(row: &CompiledRow, report: &RowReport, power_layer: &mut Scope<'_>) {
    if let Some(power_ref) = &row.power_ref {
        power_layer.set(power_ref.clone(), report.power().value());
        if let Some(area) = report.area() {
            let area_ref = row.area_ref.clone().expect("paired with power_ref");
            power_layer.set(area_ref, area.value());
        }
    }
}

/// The targeted walk of an incremental replay: dirty rows re-evaluate
/// (propagating to dependents only when their outputs actually change,
/// compared bitwise), clean rows reuse the previous report. Scopes seen
/// by evaluated rows are identical to a full replay's by induction, so
/// the result is bit-for-bit the same.
fn delta_walk(
    plan: &RowsPlan,
    globals_scope: &Scope<'_>,
    prev: &SheetReport,
    dirty: &mut [bool],
) -> Result<(Vec<RowReport>, usize), EvaluateSheetError> {
    let mut power_layer = globals_scope.child();
    let mut reports: Vec<Option<RowReport>> = vec![None; plan.rows.len()];
    let mut evaluated = 0usize;
    for &i in &plan.order {
        let row = &plan.rows[i];
        let prev_row = &prev.rows()[i];
        let report = if dirty[i] {
            evaluated += 1;
            let fresh = evaluate_compiled_row(row, &power_layer)?;
            let power_changed =
                fresh.power().value().to_bits() != prev_row.power().value().to_bits();
            let area_changed = fresh.area().map(|a| a.value().to_bits())
                != prev_row.area().map(|a| a.value().to_bits());
            if power_changed || area_changed {
                for &d in &plan.dependents[i] {
                    dirty[d] = true;
                }
            }
            fresh
        } else {
            prev_row.clone()
        };
        set_row_outputs(row, &report, &mut power_layer);
        reports[i] = Some(report);
    }
    Ok((
        reports
            .into_iter()
            .map(|r| r.expect("every row evaluated"))
            .collect(),
        evaluated,
    ))
}

/// [`delta_walk`] over the bytecode program: dirty rows re-execute their
/// code spans against the persistent register file (`regs`, a valid
/// image of `prev` — see [`CompiledSheet::ensure_regs`]), clean rows
/// reuse the previous report verbatim. Change propagation compares the
/// same power/area bits the tree walk does. On success `regs` mirrors
/// the returned rows (clean rows' slots were already consistent and
/// dirty rows' slots were just recomputed); on error it must be
/// invalidated by the caller, since a trapped span leaves partial
/// writes.
fn delta_walk_bytecode(
    prog: &Program,
    plan: &RowsPlan,
    resolved: &[(String, f64)],
    prev: &SheetReport,
    dirty: &mut [bool],
    regs: &mut [f64],
) -> Result<(Vec<RowReport>, usize), EvaluateSheetError> {
    prog.seed_globals(resolved.iter().map(|(_, v)| *v), regs);
    let mut reports: Vec<Option<RowReport>> = vec![None; plan.rows.len()];
    let mut evaluated = 0usize;
    let mut instrs = 0u64;
    for &i in &plan.order {
        let prev_row = &prev.rows()[i];
        if !dirty[i] {
            reports[i] = Some(prev_row.clone());
            continue;
        }
        evaluated += 1;
        let (start, end) = prog.row_span(i);
        instrs += u64::from(end - start);
        if let Err(hit) = prog.exec(start, end, regs) {
            bytecode_metrics().instrs_total.add(instrs);
            return Err(prog.materialize(hit));
        }
        let fresh = prog.build_row_report(i, &|slot: u32| regs[slot as usize]);
        let power_changed = fresh.power().value().to_bits() != prev_row.power().value().to_bits();
        let area_changed = fresh.area().map(|a| a.value().to_bits())
            != prev_row.area().map(|a| a.value().to_bits());
        if power_changed || area_changed {
            for &d in &plan.dependents[i] {
                dirty[d] = true;
            }
        }
        reports[i] = Some(fresh);
    }
    bytecode_metrics().instrs_total.add(instrs);
    Ok((
        reports
            .into_iter()
            .map(|r| r.expect("every row evaluated"))
            .collect(),
        evaluated,
    ))
}

/// The globals half of a plan: `sheet`'s top-level globals with their
/// free variables, and their un-overridden evaluation order. Shared by
/// [`CompiledSheet::compile`] and the reuse path of
/// [`CompiledSheet::recompile`].
fn compile_globals(sheet: &Sheet) -> (Vec<CompiledGlobal>, Result<Vec<usize>, EvaluateSheetError>) {
    let globals: Vec<CompiledGlobal> = sheet
        .globals()
        .iter()
        .map(|(name, expr)| CompiledGlobal {
            name: Arc::from(name.as_str()),
            free: expr.free_variables(),
            expr: expr.clone(),
        })
        .collect();
    let base_global_plan = plan_globals(&globals);
    (globals, base_global_plan)
}

/// Plans global evaluation order for the un-overridden sheet,
/// replicating the engine's scan: a self-reference errors first (lowest
/// declaration index wins), then cycles surface from the toposort.
fn plan_globals(globals: &[CompiledGlobal]) -> Result<Vec<usize>, EvaluateSheetError> {
    let index_of: BTreeMap<&str, usize> = globals
        .iter()
        .enumerate()
        .map(|(i, g)| (&*g.name, i))
        .collect();
    let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (i, global) in globals.iter().enumerate() {
        if global.free.contains(&*global.name) {
            return Err(EvaluateSheetError::CircularGlobals(vec![global
                .name
                .to_string()]));
        }
        let entry = deps.entry(i).or_default();
        for var in &global.free {
            if let Some(&j) = index_of.get(var.as_str()) {
                if j != i {
                    entry.insert(j);
                }
            }
        }
    }
    toposort(globals.len(), &deps).map_err(|cycle| {
        EvaluateSheetError::CircularGlobals(
            cycle
                .into_iter()
                .map(|i| globals[i].name.to_string())
                .collect(),
        )
    })
}

/// Compiles the row layer: duplicate-ident check, then the `P_`/`A_`
/// reference graph in one linear pass over precomputed free variables
/// (the engine's original scan formatted two candidate names per row
/// *pair* — quadratic in rows), then element resolution to shared
/// handles.
fn compile_rows(sheet: &Sheet, registry: &Registry) -> Result<RowsPlan, EvaluateSheetError> {
    let idents: Vec<String> = sheet.rows().iter().map(Row::ident).collect();
    {
        let mut seen = BTreeSet::new();
        for ident in &idents {
            if !ident.is_empty() && !seen.insert(ident.clone()) {
                return Err(EvaluateSheetError::DuplicateRowIdent(ident.clone()));
            }
        }
    }

    let index_of: BTreeMap<&str, usize> = idents
        .iter()
        .enumerate()
        .filter(|(_, ident)| !ident.is_empty())
        .map(|(i, ident)| (ident.as_str(), i))
        .collect();
    let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (i, row) in sheet.rows().iter().enumerate() {
        let mut wanted = BTreeSet::new();
        for (_, expr) in row.bindings() {
            wanted.extend(expr.free_variables());
        }
        let entry = deps.entry(i).or_default();
        for var in &wanted {
            // Rows may reference other rows' power (`P_x`, the converter
            // load of EQ 19) and area (`A_x`: interconnect dissipation as
            // a function of the active area of the composing modules).
            let target = var.strip_prefix("P_").or_else(|| var.strip_prefix("A_"));
            let Some(&j) = target.and_then(|t| index_of.get(t)) else {
                continue;
            };
            if i == j {
                return Err(EvaluateSheetError::CircularRows(vec![row
                    .name()
                    .to_owned()]));
            }
            entry.insert(j);
        }
    }
    let order = toposort(sheet.rows().len(), &deps).map_err(|cycle| {
        EvaluateSheetError::CircularRows(
            cycle
                .into_iter()
                .map(|i| sheet.rows()[i].name().to_owned())
                .collect(),
        )
    })?;

    let rows: Vec<CompiledRow> = sheet
        .rows()
        .iter()
        .zip(&idents)
        .map(|(row, ident)| {
            let kind = match row.model() {
                RowModel::Element(path) => match registry.get_shared(path) {
                    Some(element) => CompiledRowKind::Element(element),
                    None => CompiledRowKind::Missing { path: path.clone() },
                },
                RowModel::Inline(element) => CompiledRowKind::Element(Arc::new(element.clone())),
                RowModel::SubSheet(sub) => {
                    CompiledRowKind::SubSheet(Box::new(CompiledSheet::compile_impl(sub, registry)))
                }
            };
            let mut defaults = Scope::new();
            let mut param_names = Vec::new();
            let mut element_name = None;
            if let CompiledRowKind::Element(element) = &kind {
                param_names.reserve_exact(element.params().len());
                for p in element.params() {
                    let name: Arc<str> = Arc::from(p.name.as_str());
                    defaults.set(name.clone(), p.default);
                    param_names.push(name);
                }
                element_name = Some(Arc::from(element.name()));
            }
            let mut defaults_sorted: Vec<(Arc<str>, f64)> = param_names
                .iter()
                .map(|n| (n.clone(), defaults.get(n).expect("default just set")))
                .collect();
            defaults_sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            CompiledRow {
                name: Arc::from(row.name()),
                power_ref: (!ident.is_empty()).then(|| Arc::from(format!("P_{ident}"))),
                area_ref: (!ident.is_empty()).then(|| Arc::from(format!("A_{ident}"))),
                ident: Arc::from(ident.as_str()),
                doc_link: row.doc_link().map(Arc::from),
                bindings: row
                    .bindings()
                    .iter()
                    .map(|(param, expr)| (Arc::from(param.as_str()), expr.clone()))
                    .collect(),
                defaults,
                defaults_sorted,
                param_names,
                element_name,
                kind,
            }
        })
        .collect();
    let WatchIndex {
        watched,
        watchers,
        dependents,
    } = build_watch_index(&rows, &index_of);
    Ok(RowsPlan {
        rows,
        order,
        watched,
        watchers,
        dependents,
    })
}

/// The compile-time dirtiness machinery of a [`RowsPlan`], built by
/// [`build_watch_index`].
struct WatchIndex {
    watched: Vec<BTreeSet<String>>,
    watchers: BTreeMap<String, Vec<usize>>,
    dependents: Vec<Vec<usize>>,
}

/// Per-row watched name sets, their inverted index, and the forward
/// `P_`/`A_` dependency edges — the compile-time half of delta replay.
///
/// A row's watched set over-approximates every name it can read from the
/// enclosing scope: free variables of its bindings, its element model's
/// free variables (minus declared parameters — always shadowed by the
/// seeded defaults) plus the reserved `f` rate the report captures, or a
/// sub-sheet's external frees. Extra names cost extra re-evaluation;
/// missing ones would cost correctness, so nothing else is subtracted.
fn build_watch_index(rows: &[CompiledRow], index_of: &BTreeMap<&str, usize>) -> WatchIndex {
    let watched: Vec<BTreeSet<String>> = rows
        .iter()
        .map(|row| {
            let mut w = BTreeSet::new();
            for (_, expr) in &row.bindings {
                w.extend(expr.free_variables());
            }
            match &row.kind {
                CompiledRowKind::Element(element) => {
                    w.extend(element_model_free(element));
                    w.retain(|v| !element.params().iter().any(|p| p.name == *v));
                    // The report records the access rate from scope.
                    w.insert("f".to_owned());
                }
                CompiledRowKind::SubSheet(sub) => {
                    w.extend(sub.external_free());
                }
                // Evaluation always errors; dirtiness is irrelevant.
                CompiledRowKind::Missing { .. } => {}
            }
            w
        })
        .collect();
    let mut watchers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for (i, w) in watched.iter().enumerate() {
        for name in w {
            watchers.entry(name.clone()).or_default().push(i);
            let target = name.strip_prefix("P_").or_else(|| name.strip_prefix("A_"));
            if let Some(&j) = target.and_then(|t| index_of.get(t)) {
                if j != i {
                    dependents[j].push(i);
                }
            }
        }
    }
    for d in &mut dependents {
        d.sort_unstable();
        d.dedup();
    }
    WatchIndex {
        watched,
        watchers,
        dependents,
    }
}

/// Union of the free variables of every formula in an element's model.
fn element_model_free(element: &LibraryElement) -> BTreeSet<String> {
    let model = element.model();
    let mut vars = BTreeSet::new();
    for expr in [
        model.cap_full.as_ref(),
        model.static_current.as_ref(),
        model.power_direct.as_ref(),
        model.area.as_ref(),
        model.delay.as_ref(),
    ]
    .into_iter()
    .flatten()
    {
        vars.extend(expr.free_variables());
    }
    if let Some((cap, swing)) = &model.cap_partial {
        vars.extend(cap.free_variables());
        vars.extend(swing.free_variables());
    }
    vars
}

/// Evaluates one compiled row against the scope holding globals and the
/// already-evaluated rows' `P_`/`A_` values.
fn evaluate_compiled_row(
    row: &CompiledRow,
    outer: &Scope<'_>,
) -> Result<RowReport, EvaluateSheetError> {
    let _span = profile::span_lazy(|| format!("row {}", row.name));
    // Element resolution errors precede binding errors, matching the
    // uncompiled engine.
    if let CompiledRowKind::Missing { path } = &row.kind {
        return Err(EvaluateSheetError::UnknownElement {
            row: row.name.to_string(),
            element: path.clone(),
        });
    }

    // Element parameter defaults first (pre-flattened into the row's
    // template at compile time), so bindings can shadow them and
    // reference them (e.g. `bits = words / 4`).
    let mut param_scope = outer.child_seeded(&row.defaults);
    for (param, expr) in &row.bindings {
        let value = expr
            .eval(&param_scope)
            .map_err(|source| EvaluateSheetError::Binding {
                row: row.name.to_string(),
                param: param.to_string(),
                source,
            })?;
        param_scope.set(param.clone(), value);
    }

    match &row.kind {
        CompiledRowKind::SubSheet(sub) => {
            let sub_report =
                sub.play_impl(&param_scope, &[])
                    .map_err(|source| EvaluateSheetError::Nested {
                        row: row.name.to_string(),
                        source: Box::new(source),
                    })?;
            let params: Vec<(Arc<str>, f64)> = row
                .bindings
                .iter()
                .filter_map(|(name, _)| param_scope.get(name).map(|v| (name.clone(), v)))
                .collect();
            Ok(RowReport::for_subsheet(
                row.name.clone(),
                row.ident.clone(),
                params,
                row.doc_link.clone(),
                sub_report,
            ))
        }
        CompiledRowKind::Element(element) => {
            let eval =
                element
                    .evaluate(&param_scope)
                    .map_err(|source| EvaluateSheetError::Element {
                        row: row.name.to_string(),
                        source,
                    })?;
            let params: Vec<(Arc<str>, f64)> = row
                .param_names
                .iter()
                .filter_map(|name| param_scope.get(name).map(|v| (name.clone(), v)))
                .collect();
            Ok(RowReport::for_element(
                row.name.clone(),
                row.ident.clone(),
                row.element_name.clone().expect("element rows have a name"),
                params,
                param_scope.get("f"),
                row.doc_link.clone(),
                eval,
            ))
        }
        CompiledRowKind::Missing { .. } => unreachable!("rejected above"),
    }
}

// ---------------------------------------------------------------------------
// Read-only structural views.
//
// The compiled plan's internals stay private (the replay machinery owns
// them), but external analyzers — notably the abstract interpreter in
// `powerplay-analysis` — need to walk the *same* toposorted structure
// the replay loop walks, so their verdicts line up with what a play
// would actually compute. These views expose the structure without
// exposing any mutability.
// ---------------------------------------------------------------------------

/// One compiled global: its name and formula.
#[derive(Debug, Clone, Copy)]
pub struct GlobalView<'a> {
    name: &'a str,
    expr: &'a Expr,
}

impl<'a> GlobalView<'a> {
    /// The global's name.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// The global's formula.
    pub fn expr(&self) -> &'a Expr {
        self.expr
    }
}

/// The compiled row structure: rows in declaration order plus the
/// dependency-respecting evaluation order the replay loop uses.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    plan: &'a RowsPlan,
}

impl<'a> RowsView<'a> {
    /// Number of top-level rows.
    pub fn len(&self) -> usize {
        self.plan.rows.len()
    }

    /// True when the sheet has no rows.
    pub fn is_empty(&self) -> bool {
        self.plan.rows.is_empty()
    }

    /// Row indices in the evaluation (toposort) order a play uses.
    pub fn order(&self) -> &'a [usize] {
        &self.plan.order
    }

    /// The row at declaration index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> RowView<'a> {
        RowView {
            row: &self.plan.rows[i],
        }
    }

    /// Rows in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = RowView<'a>> + '_ {
        self.plan.rows.iter().map(|row| RowView { row })
    }
}

/// One compiled row: bindings, output references, and its element or
/// sub-sheet.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    row: &'a CompiledRow,
}

/// What a row instantiates.
#[derive(Debug, Clone, Copy)]
pub enum RowKindView<'a> {
    /// A resolved library (or inline) element.
    Element(&'a LibraryElement),
    /// An element path the registry could not resolve.
    Missing(&'a str),
    /// A nested compiled design.
    SubSheet(&'a CompiledSheet),
}

impl<'a> RowView<'a> {
    /// The row's display name.
    pub fn name(&self) -> &'a str {
        &self.row.name
    }

    /// The row's folded identifier (the `<ident>` of `P_<ident>`).
    pub fn ident(&self) -> &'a str {
        &self.row.ident
    }

    /// Parameter bindings in declaration order (evaluated in order,
    /// later bindings may read earlier ones).
    pub fn bindings(&self) -> impl Iterator<Item = (&'a str, &'a Expr)> + '_ {
        self.row.bindings.iter().map(|(name, expr)| (&**name, expr))
    }

    /// The `P_<ident>` power reference this row publishes, if any.
    pub fn power_ref(&self) -> Option<&'a str> {
        self.row.power_ref.as_deref()
    }

    /// The `A_<ident>` area reference this row publishes, if any.
    pub fn area_ref(&self) -> Option<&'a str> {
        self.row.area_ref.as_deref()
    }

    /// Element parameter defaults seeded before bindings run, as
    /// `(name, default)` pairs sorted by name.
    pub fn param_defaults(&self) -> Vec<(&'a str, f64)> {
        // Sorted once at compile time — no per-call allocation of a
        // fresh name table and re-sort (this runs on diagnostics paths
        // for every row of every lint pass).
        self.row
            .defaults_sorted
            .iter()
            .map(|(name, value)| (&**name, *value))
            .collect()
    }

    /// What the row instantiates.
    pub fn kind(&self) -> RowKindView<'a> {
        match &self.row.kind {
            CompiledRowKind::Element(element) => RowKindView::Element(element),
            CompiledRowKind::Missing { path } => RowKindView::Missing(path),
            CompiledRowKind::SubSheet(sub) => RowKindView::SubSheet(sub),
        }
    }
}

impl CompiledSheet {
    /// The compiled sheet's name.
    pub fn plan_name(&self) -> &str {
        &self.name
    }

    /// The compiled globals in declaration order.
    pub fn globals_view(&self) -> impl Iterator<Item = GlobalView<'_>> + '_ {
        self.globals.iter().map(|g| GlobalView {
            name: &g.name,
            expr: &g.expr,
        })
    }

    /// Global evaluation order for the un-overridden sheet, as indices
    /// into [`CompiledSheet::globals_view`].
    ///
    /// # Errors
    ///
    /// The `CircularGlobals` error every play would raise.
    pub fn global_order(&self) -> Result<&[usize], &EvaluateSheetError> {
        match &self.base_global_plan {
            Ok(order) => Ok(order),
            Err(err) => Err(err),
        }
    }

    /// The compiled row structure.
    ///
    /// # Errors
    ///
    /// The structural error every play would raise.
    pub fn rows_view(&self) -> Result<RowsView<'_>, &EvaluateSheetError> {
        match &self.body.structure {
            Ok(plan) => Ok(RowsView { plan }),
            Err(err) => Err(err),
        }
    }

    /// Human-readable listing of the lowered bytecode program: register
    /// file with slot names, constants pool, per-row code spans, and the
    /// instruction stream. Returns a one-line notice when the sheet has
    /// no program (top-level structural error).
    pub fn disassemble(&self) -> String {
        match &self.body.program {
            Some(prog) => prog.disassemble(),
            None => "no bytecode program: top-level structure failed to compile\n".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;

    fn sheet() -> Sheet {
        let mut s = Sheet::new("s");
        s.set_global("vdd", "1.5").unwrap();
        s.set_global("f", "2MHz").unwrap();
        s.add_element_row("Reg", "ucb/register", [("bits", "16")])
            .unwrap();
        s.add_element_row("Conv", "ucb/dcdc", [("p_load", "P_reg * 2")])
            .unwrap();
        s
    }

    /// Bit-exact rendering of a play result (`Debug` prints `-0.0` and
    /// `NaN` apart from `0.0`).
    fn bits(plan: &CompiledSheet) -> String {
        format!("{:?}", plan.play())
    }

    #[test]
    fn body_is_shared_exactly_when_the_three_conditions_hold() {
        let mut lib = ucb_library();
        let prev = sheet();
        let plan = CompiledSheet::compile(&prev, &lib);
        let shares = |next: &Sheet, lib: &Registry| {
            let derived = plan.recompile(&prev, next, lib);
            let fresh = CompiledSheet::compile(next, lib);
            assert_eq!(bits(&derived), bits(&fresh));
            assert_eq!(derived.disassemble(), fresh.disassemble());
            Arc::ptr_eq(&plan.body, &derived.body)
        };

        // Global formulas only (and the sheet name): shared.
        let mut next = prev.clone();
        next.set_global("vdd", "3.3").unwrap();
        next.set_global("f", "vdd * 1MHz").unwrap();
        assert!(shares(&next, &lib));
        let mut renamed_sheet = Sheet::new("t");
        renamed_sheet.set_global("vdd", "1.2").unwrap();
        renamed_sheet.set_global("f", "2MHz").unwrap();
        for row in prev.rows() {
            renamed_sheet.add_row(row.clone());
        }
        assert!(shares(&renamed_sheet, &lib));
        // A formula that no longer evaluates still keeps the body.
        let mut broken = prev.clone();
        broken.set_global("f", "ghost * 2").unwrap();
        assert!(shares(&broken, &lib));

        // Global added, removed, renamed or reordered: compiled fresh.
        let mut added = prev.clone();
        added.set_global("k", "1").unwrap();
        assert!(!shares(&added, &lib));
        let mut removed = Sheet::new("s");
        removed.set_global("vdd", "1.5").unwrap();
        for row in prev.rows() {
            removed.add_row(row.clone());
        }
        assert!(!shares(&removed, &lib));
        let mut swapped = Sheet::new("s");
        swapped.set_global("f", "2MHz").unwrap();
        swapped.set_global("vdd", "1.5").unwrap();
        for row in prev.rows() {
            swapped.add_row(row.clone());
        }
        assert!(!shares(&swapped, &lib));

        // Any row edit: compiled fresh.
        let mut row_edit = prev.clone();
        row_edit.rows_mut()[0].bind("bits", "32").unwrap();
        assert!(!shares(&row_edit, &lib));

        // A registry change between the two: compiled fresh.
        let extra = lib.get("ucb/register").unwrap().clone();
        lib.insert(extra);
        let mut next = prev.clone();
        next.set_global("vdd", "3.3").unwrap();
        assert!(!shares(&next, &lib));
    }

    #[test]
    fn reuse_chains_keep_the_first_body() {
        let lib = ucb_library();
        let mut prev = sheet();
        let first = CompiledSheet::compile(&prev, &lib);
        let mut plan = first.clone();
        for vdd in ["1.0", "2.0", "3.0"] {
            let mut next = prev.clone();
            next.set_global("vdd", vdd).unwrap();
            let derived = plan.recompile(&prev, &next, &lib);
            assert!(Arc::ptr_eq(&first.body, &derived.body));
            assert_ne!(derived.id, plan.id, "every revision gets a fresh id");
            assert_eq!(bits(&derived), bits(&CompiledSheet::compile(&next, &lib)));
            (prev, plan) = (next, derived);
        }
    }

    #[test]
    fn literal_zero_to_programmatic_negative_zero_compiles_fresh() {
        let lib = ucb_library();
        let with_k = |k: f64| {
            let mut sub = Sheet::new("sub");
            sub.set_global_value("k", k);
            sub.add_element_row("Reg", "ucb/register", [("bits", "16 + k")])
                .unwrap();
            let mut s = sheet();
            s.add_subsheet_row("Sub", sub);
            s
        };
        let mut prev = with_k(0.0);
        prev.set_global("vdd", "1.5").unwrap();
        let mut next = with_k(-0.0);
        next.set_global("vdd", "2.5").unwrap();
        assert_eq!(
            prev.rows(),
            next.rows(),
            "Row: PartialEq treats 0.0 == -0.0"
        );

        let plan = CompiledSheet::compile(&prev, &lib);
        let derived = plan.recompile(&prev, &next, &lib);
        assert!(!Arc::ptr_eq(&plan.body, &derived.body));
        let fresh = CompiledSheet::compile(&next, &lib);
        assert_eq!(derived.disassemble(), fresh.disassemble());
        assert_ne!(
            plan.disassemble(),
            fresh.disassemble(),
            "the constant pool tells the zeros apart"
        );
        assert_eq!(bits(&derived), bits(&fresh));
    }
}
