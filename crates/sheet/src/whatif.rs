//! What-if exploration: parameter sweeps, sensitivities, and
//! voltage-scaling searches over a design.
//!
//! "The table is parameterized; that is, parameters such as bit-widths
//! and supply voltages can be varied dynamically" — these helpers are the
//! programmatic form of turning those knobs.
//!
//! Every helper compiles the sheet to a [`CompiledSheet`] once, hoists
//! the override-name resolution into one [`crate::plan::OverridePlan`]
//! per sweep, and replays points *incrementally*. Sweeps and Monte-Carlo
//! studies go through the batched bytecode kernel when one is available
//! ([`CompiledSheet::batch_kernel`]): points are grouped into
//! [`BatchKernel::WIDTH`]-lane chunks and every dirty row's code span is
//! executed across all lanes per instruction-dispatch pass. Otherwise
//! each worker owns a reusable [`ReplayState`] and goes through
//! [`CompiledSheet::replay_delta_with_plan`], so a point re-evaluates
//! only the rows its changed globals actually reach. Identical points
//! (sensitivity sweeps revisiting a base) are deduplicated before
//! dispatch and answered from the first evaluation. Results are
//! returned in input order and, per point, are bit-identical to the
//! serial reference implementations (kept as `*_serial` for
//! benchmarking and as oracles); on failure the error reported is the
//! one the earliest point in input order produced.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use powerplay_library::Registry;
use powerplay_telemetry::{Counter, Gauge, Histogram};
use powerplay_units::{Power, Voltage};

use crate::engine::EvaluateSheetError;
use crate::plan::{BatchKernel, CompiledSheet, ReplayState};
use crate::report::SheetReport;
use crate::sheet::Sheet;

/// Worker-pool metrics, registered once in the process-global registry.
struct WhatifMetrics {
    task_seconds: Histogram,
    points_total: Counter,
    queue_depth: Gauge,
    memo_hits_total: Counter,
    memo_misses_total: Counter,
}

fn whatif_metrics() -> &'static WhatifMetrics {
    static METRICS: OnceLock<WhatifMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        WhatifMetrics {
            task_seconds: g.histogram(
                "powerplay_whatif_task_seconds",
                "Time to evaluate one what-if point on the worker pool",
            ),
            points_total: g.counter(
                "powerplay_whatif_points_total",
                "What-if points dispatched to the worker pool",
            ),
            queue_depth: g.gauge(
                "powerplay_whatif_queue_depth",
                "What-if points accepted but not yet claimed by a worker",
            ),
            memo_hits_total: g.counter(
                "powerplay_whatif_memo_hits_total",
                "Sweep points answered from an identical already-evaluated point",
            ),
            memo_misses_total: g.counter(
                "powerplay_whatif_memo_misses_total",
                "Sweep points that had to be evaluated",
            ),
        }
    })
}

/// Number of worker threads what-if helpers spread evaluation over.
fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on a scoped worker pool, returning results in
/// input order. Workers claim items from a shared counter, so an
/// expensive item does not stall its neighbours; the `(index, result)`
/// pairs are scattered back after the join, which keeps the output
/// deterministic regardless of scheduling. Falls back to a plain serial
/// map for a single item or a single-core host.
#[cfg(test)]
fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_with(items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker mutable state: every worker builds
/// one `S` with `init` when it starts and threads it through all the
/// items it claims. This is how sweep workers reuse a [`ReplayState`]
/// (and the delta baseline inside it) across points instead of paying a
/// full replay and fresh allocations per point.
///
/// The per-point *results* must not depend on claim order for the output
/// to stay deterministic — delta replay guarantees that (bit-for-bit
/// equal to a full replay regardless of the baseline).
fn parallel_map_with<T, R, S, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let metrics = whatif_metrics();
    metrics.points_total.add(items.len() as u64);
    let workers = worker_count().min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items
            .iter()
            .map(|item| {
                let _timer = metrics.task_seconds.start_timer();
                f(&mut state, item)
            })
            .collect();
    }
    metrics.queue_depth.add(items.len() as i64);
    let next = AtomicUsize::new(0);
    let chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        metrics.queue_depth.sub(1);
                        let timer = metrics.task_seconds.start_timer();
                        out.push((i, f(&mut state, item)));
                        timer.stop();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("what-if worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, r) in chunks.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed"))
        .collect()
}

/// Evaluates the design once per value of `global`, returning
/// `(value, report)` pairs. Points are evaluated in parallel from one
/// compiled plan; the result order (and every report in it) is identical
/// to [`sweep_global_serial`].
///
/// # Errors
///
/// Returns the [`EvaluateSheetError`] of the first failing value in
/// input order.
///
/// ```
/// use powerplay_library::builtin::ucb_library;
/// use powerplay_sheet::{whatif, Sheet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = ucb_library();
/// let mut sheet = Sheet::new("s");
/// sheet.set_global("vdd", "1.5")?;
/// sheet.set_global("f", "2MHz")?;
/// sheet.add_element_row("M", "ucb/multiplier", [])?;
/// let curve = whatif::sweep_global(&sheet, &lib, "vdd", &[1.0, 2.0, 3.0])?;
/// assert!(curve[2].1.total_power() > curve[0].1.total_power());
/// # Ok(())
/// # }
/// ```
pub fn sweep_global(
    sheet: &Sheet,
    registry: &Registry,
    global: &str,
    values: &[f64],
) -> Result<Vec<(f64, SheetReport)>, EvaluateSheetError> {
    let plan = CompiledSheet::compile(sheet, registry);
    sweep_compiled(&plan, global, values)
}

/// [`sweep_global`] over an already compiled plan — what the web app's
/// sweep endpoint uses so repeated sweeps of the same design skip
/// recompilation.
///
/// The override-name resolution is hoisted into one
/// [`crate::plan::OverridePlan`] for the whole sweep, duplicate values
/// are evaluated once (cross-point memoization, counted in
/// `powerplay_whatif_memo_*`), and each worker replays points
/// incrementally through a reused [`ReplayState`].
///
/// # Errors
///
/// Returns the [`EvaluateSheetError`] of the first failing value in
/// input order.
pub fn sweep_compiled(
    plan: &CompiledSheet,
    global: &str,
    values: &[f64],
) -> Result<Vec<(f64, SheetReport)>, EvaluateSheetError> {
    let metrics = whatif_metrics();
    let override_plan = plan.override_plan(&[global]);

    // Deduplicate points by exact bit pattern; duplicates are answered
    // from the first occurrence's report after the join (deterministic,
    // and identical to evaluating them — replay is a pure function of
    // the override tuple).
    let mut slot_by_bits: BTreeMap<u64, usize> = BTreeMap::new();
    let mut unique: Vec<f64> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(values.len());
    for &value in values {
        match slot_by_bits.get(&value.to_bits()) {
            Some(&slot) => {
                metrics.memo_hits_total.inc();
                slot_of.push(slot);
            }
            None => {
                metrics.memo_misses_total.inc();
                slot_by_bits.insert(value.to_bits(), unique.len());
                slot_of.push(unique.len());
                unique.push(value);
            }
        }
    }

    // Batched bytecode kernel when the program covers the sweep exactly;
    // otherwise per-point incremental replay. Both are bit-for-bit the
    // scalar reference per point, so the choice is invisible downstream.
    let results: Vec<Result<SheetReport, EvaluateSheetError>> =
        match plan.batch_kernel(&override_plan) {
            Some(kernel) => {
                let chunks: Vec<&[f64]> = unique.chunks(BatchKernel::WIDTH).collect();
                parallel_map_with(
                    &chunks,
                    || (),
                    |(), chunk| {
                        let points: Vec<[f64; 1]> = chunk.iter().map(|&v| [v]).collect();
                        kernel.replay_chunk(&points)
                    },
                )
                .into_iter()
                .flatten()
                .collect()
            }
            None => parallel_map_with(&unique, ReplayState::new, |state, &value| {
                plan.replay_delta_with_plan(&override_plan, state, &[value])
            }),
        };
    if unique.len() == values.len() {
        // No duplicates: hand the reports over without cloning.
        return values
            .iter()
            .zip(results)
            .map(|(&value, report)| Ok((value, report?)))
            .collect();
    }
    values
        .iter()
        .zip(&slot_of)
        .map(|(&value, &slot)| match &results[slot] {
            Ok(report) => Ok((value, report.clone())),
            Err(err) => Err(err.clone()),
        })
        .collect()
}

/// Serial reference implementation of [`sweep_global`]: clone the sheet,
/// mutate the global, re-play — once per value. Kept as the oracle the
/// parallel path is tested against and as the baseline the benchmarks
/// compare compiled replay to.
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn sweep_global_serial(
    sheet: &Sheet,
    registry: &Registry,
    global: &str,
    values: &[f64],
) -> Result<Vec<(f64, SheetReport)>, EvaluateSheetError> {
    let mut results = Vec::with_capacity(values.len());
    for &value in values {
        let mut variant = sheet.clone();
        variant.set_global_value(global, value);
        results.push((value, variant.play(registry)?));
    }
    Ok(results)
}

/// Relative sensitivity of total power to each global:
/// `S_x = (∂P/P) / (∂x/x)` by central differences with ±1% perturbation.
///
/// Sorted by descending magnitude — the "where should effort go" view
/// that the paper motivates ("identify both the major power consumers
/// and the point of diminishing returns").
///
/// Globals whose value is zero are skipped (no relative perturbation
/// exists).
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn sensitivities(
    sheet: &Sheet,
    registry: &Registry,
) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
    let plan = CompiledSheet::compile(sheet, registry);
    sensitivities_compiled(&plan)
}

/// [`sensitivities`] over an already compiled plan — what the web app's
/// sensitivities endpoint uses so repeated analyses of a cached design
/// skip recompilation.
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn sensitivities_compiled(
    plan: &CompiledSheet,
) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
    let base = plan.play()?;
    let p0 = base.total_power().value();
    let probes: Vec<(String, f64)> = base
        .globals()
        .iter()
        .filter(|(_, value)| *value != 0.0 && p0 != 0.0)
        .cloned()
        .collect();
    // One worker task per global; the up/down pair stays together so the
    // first error for a global is its upward perturbation's, exactly as
    // in the serial loop. The down perturbation replays incrementally
    // from the up perturbation's state (same override name, so the
    // cached per-name plan is reused too).
    let results = parallel_map_with(&probes, ReplayState::new, |state, (name, value)| {
        let h = 0.01 * value;
        let p_up = plan
            .replay_delta(state, &[(name.as_str(), value + h)])?
            .total_power()
            .value();
        let p_down = plan
            .replay_delta(state, &[(name.as_str(), value - h)])?
            .total_power()
            .value();
        let dp_dx = (p_up - p_down) / (2.0 * h);
        Ok((name.clone(), dp_dx * value / p0))
    });
    let mut out = results
        .into_iter()
        .collect::<Result<Vec<_>, EvaluateSheetError>>()?;
    out.sort_by(|a, b| b.1.abs().partial_cmp(&a.1.abs()).expect("finite"));
    Ok(out)
}

/// Finds the lowest supply in `[vdd_min, vdd_max]` at which every row's
/// modeled delay still fits one period of that row's access rate, and
/// returns it with the resulting report.
///
/// The search is a parallel multisection: each round probes one interior
/// supply per worker concurrently and keeps the bracket between the
/// highest failing and lowest passing probe, shrinking the interval by a
/// factor of the worker count per round (on a single-core host this is
/// exactly the classic bisection). The probe grid is fixed by the bounds
/// and worker count, so the result is deterministic for a given host.
///
/// Rows without delay models are unconstrained. Returns `None` when even
/// `vdd_max` fails timing.
///
/// # Errors
///
/// Returns the [`EvaluateSheetError`] of the lowest-supply failing probe.
pub fn min_vdd_meeting_timing(
    sheet: &Sheet,
    registry: &Registry,
    vdd_min: Voltage,
    vdd_max: Voltage,
) -> Result<Option<(Voltage, SheetReport)>, EvaluateSheetError> {
    let plan = CompiledSheet::compile(sheet, registry);
    let override_plan = plan.override_plan(&["vdd"]);
    let meets_timing = |report: &SheetReport| {
        report
            .rows()
            .iter()
            .all(|row| match (row.delay(), row.rate()) {
                (Some(delay), Some(rate)) if rate > 0.0 => delay.value() <= 1.0 / rate,
                _ => true,
            })
    };
    let probe =
        |state: &mut ReplayState, vdd: f64| -> Result<(bool, SheetReport), EvaluateSheetError> {
            let report = plan.replay_delta_with_plan(&override_plan, state, &[vdd])?;
            let ok = meets_timing(&report);
            Ok((ok, report))
        };

    let mut bracket_state = ReplayState::new();
    let (ok_max, report_max) = probe(&mut bracket_state, vdd_max.value())?;
    if !ok_max {
        return Ok(None);
    }
    let (ok_min, report_min) = probe(&mut bracket_state, vdd_min.value())?;
    if ok_min {
        return Ok(Some((Voltage::new(vdd_min.value()), report_min)));
    }

    let mut lo = vdd_min.value();
    let mut hi = vdd_max.value();
    let mut best = (hi, report_max);
    // `sections` subintervals per round; shrink until the bracket is as
    // tight as 60 halvings would have made it.
    let sections = worker_count().clamp(2, 16) as f64;
    let rounds = (60.0 / sections.log2()).ceil() as usize;
    for _ in 0..rounds {
        let step = (hi - lo) / sections;
        let probes: Vec<f64> = (1..sections as usize)
            .map(|i| lo + step * i as f64)
            .collect();
        if probes.is_empty() || step == 0.0 {
            break;
        }
        let outcomes =
            parallel_map_with(&probes, ReplayState::new, |state, &vdd| probe(state, vdd));
        // Timing degrades monotonically as the supply drops, so the
        // lowest passing probe bounds the answer from above and its left
        // neighbour bounds it from below.
        let mut passing = None;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let (ok, report) = outcome?;
            if ok {
                passing = Some((i, report));
                break;
            }
        }
        match passing {
            Some((i, report)) => {
                hi = probes[i];
                lo = if i == 0 { lo } else { probes[i - 1] };
                best = (hi, report);
            }
            None => lo = *probes.last().expect("probes nonempty"),
        }
    }
    Ok(Some((Voltage::new(best.0), best.1)))
}

/// The power saved by the best voltage scaling, relative to operating at
/// `vdd_nominal`: `(P_nominal, P_scaled, vdd_scaled)`.
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn voltage_scaling_gain(
    sheet: &Sheet,
    registry: &Registry,
    vdd_nominal: Voltage,
) -> Result<Option<(Power, Power, Voltage)>, EvaluateSheetError> {
    let p_nominal = CompiledSheet::compile(sheet, registry)
        .play_with(&[("vdd", vdd_nominal.value())])?
        .total_power();
    match min_vdd_meeting_timing(sheet, registry, Voltage::new(0.75), vdd_nominal)? {
        None => Ok(None),
        Some((vdd, report)) => Ok(Some((p_nominal, report.total_power(), vdd))),
    }
}

/// Summary statistics of a Monte-Carlo power study.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloSummary {
    /// Sampled totals, sorted ascending.
    pub samples: Vec<f64>,
}

impl MonteCarloSummary {
    /// The `q`-quantile (0..=1) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Power {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        Power::new(self.samples[idx])
    }

    /// The median total.
    pub fn median(&self) -> Power {
        self.quantile(0.5)
    }

    /// The `[p10, p90]` spread as a ratio — the "how uncertain is this
    /// estimate" number a reviewer asks for.
    pub fn spread(&self) -> f64 {
        self.quantile(0.9) / self.quantile(0.1)
    }
}

/// Monte-Carlo uncertainty analysis: every listed global is perturbed by
/// an independent uniform factor in `[1-rel, 1+rel]` per trial, and the
/// resulting total-power distribution summarized.
///
/// Early-stage coefficients and parameters are guesses; this quantifies
/// how much the bottom line moves when they wobble — the quantitative
/// form of the paper's "as accurate as possible *given the current state
/// of a design*".
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
///
/// # Panics
///
/// Panics if `trials` is zero or `rel` is not in `(0, 1)`.
pub fn monte_carlo(
    sheet: &Sheet,
    registry: &Registry,
    globals: &[&str],
    rel: f64,
    trials: usize,
    seed: u64,
) -> Result<MonteCarloSummary, EvaluateSheetError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(trials > 0, "need at least one trial");
    assert!(
        rel > 0.0 && rel < 1.0,
        "relative perturbation must be in (0, 1)"
    );
    let plan = CompiledSheet::compile(sheet, registry);
    let base = plan.play()?;
    // Globals absent from the report draw nothing; resolve the present
    // set once so every trial perturbs the same names and one hoisted
    // override plan covers the whole study.
    let present: Vec<(&str, f64)> = globals
        .iter()
        .filter_map(|name| base.global(name).map(|value| (*name, value)))
        .collect();
    let names: Vec<&str> = present.iter().map(|(name, _)| *name).collect();
    let override_plan = plan.override_plan(&names);
    // Draw every trial's perturbations serially first — the RNG stream
    // (and so the sampled distribution for a given seed) is independent
    // of how the evaluations are later scheduled.
    let mut rng = StdRng::seed_from_u64(seed);
    let trial_values: Vec<Vec<f64>> = (0..trials)
        .map(|_| {
            present
                .iter()
                .map(|(_, value)| {
                    let factor: f64 = rng.gen_range(1.0 - rel..1.0 + rel);
                    value * factor
                })
                .collect()
        })
        .collect();
    let results: Vec<Result<f64, EvaluateSheetError>> = match plan.batch_kernel(&override_plan) {
        Some(kernel) => {
            let chunks: Vec<&[Vec<f64>]> = trial_values.chunks(BatchKernel::WIDTH).collect();
            parallel_map_with(&chunks, || (), |(), chunk| kernel.replay_chunk(chunk))
                .into_iter()
                .flatten()
                .map(|r| r.map(|report| report.total_power().value()))
                .collect()
        }
        None => parallel_map_with(&trial_values, ReplayState::new, |state, trial| {
            plan.replay_delta_with_plan(&override_plan, state, trial)
                .map(|r| r.total_power().value())
        }),
    };
    let mut samples = results
        .into_iter()
        .collect::<Result<Vec<_>, EvaluateSheetError>>()?;
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite powers"));
    Ok(MonteCarloSummary { samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;

    fn sheet() -> Sheet {
        let mut s = Sheet::new("s");
        s.set_global("vdd", "3.3").unwrap();
        s.set_global("f", "2MHz").unwrap();
        s.add_element_row("Mem", "ucb/sram", [("words", "2048"), ("bits", "8")])
            .unwrap();
        s.add_element_row("Mult", "ucb/multiplier", [("bw_a", "8"), ("bw_b", "8")])
            .unwrap();
        s
    }

    #[test]
    fn vdd_sweep_is_quadratic_for_full_rail() {
        let lib = ucb_library();
        let curve = sweep_global(&sheet(), &lib, "vdd", &[1.0, 2.0, 4.0]).unwrap();
        let p: Vec<f64> = curve.iter().map(|(_, r)| r.total_power().value()).collect();
        assert!((p[1] / p[0] - 4.0).abs() < 1e-9);
        assert!((p[2] / p[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_sweep_is_linear() {
        let lib = ucb_library();
        let curve = sweep_global(&sheet(), &lib, "f", &[1e6, 2e6, 4e6]).unwrap();
        let p: Vec<f64> = curve.iter().map(|(_, r)| r.total_power().value()).collect();
        assert!((p[1] / p[0] - 2.0).abs() < 1e-9);
        assert!((p[2] / p[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sensitivities_rank_vdd_over_f() {
        let lib = ucb_library();
        let sens = sensitivities(&sheet(), &lib).unwrap();
        let get = |name: &str| sens.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
        // Full-rail design: S_vdd = 2 (quadratic), S_f = 1 (linear).
        assert!((get("vdd").unwrap() - 2.0).abs() < 1e-3);
        assert!((get("f").unwrap() - 1.0).abs() < 1e-3);
        // Sorted by magnitude: vdd first.
        assert_eq!(sens[0].0, "vdd");
    }

    #[test]
    fn min_vdd_meets_timing_and_saves_power() {
        let lib = ucb_library();
        let result = min_vdd_meeting_timing(&sheet(), &lib, Voltage::new(0.75), Voltage::new(3.3))
            .unwrap()
            .expect("2 MHz timing must be reachable");
        let (vdd, report) = result;
        assert!(vdd.value() < 3.3);
        // All rows meet timing at the found supply.
        for row in report.rows() {
            if let (Some(d), Some(r)) = (row.delay(), row.rate()) {
                assert!(d.value() <= 1.0 / r, "{} misses timing", row.name());
            }
        }
        // And scaling gains power quadratically-ish.
        let (p_nom, p_scaled, _) = voltage_scaling_gain(&sheet(), &lib, Voltage::new(3.3))
            .unwrap()
            .unwrap();
        assert!(p_scaled.value() < p_nom.value() / 2.0);
    }

    #[test]
    fn unreachable_timing_returns_none() {
        let lib = ucb_library();
        let mut fast = sheet();
        fast.set_global("f", "200MHz").unwrap(); // SRAM can't cycle at 5 ns here
        let result =
            min_vdd_meeting_timing(&fast, &lib, Voltage::new(0.75), Voltage::new(3.3)).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn monte_carlo_brackets_the_nominal() {
        let lib = ucb_library();
        let s = sheet();
        let nominal = s.play(&lib).unwrap().total_power().value();
        let mc = monte_carlo(&s, &lib, &["vdd", "f"], 0.1, 200, 42).unwrap();
        assert_eq!(mc.samples.len(), 200);
        // The nominal sits inside the sampled distribution.
        assert!(mc.quantile(0.0).value() < nominal);
        assert!(mc.quantile(1.0).value() > nominal);
        let median = mc.median().value();
        assert!((median / nominal - 1.0).abs() < 0.1, "median {median}");
        // ±10% on vdd (quadratic) and f (linear) gives a finite, modest
        // spread.
        let spread = mc.spread();
        assert!(spread > 1.1 && spread < 2.5, "spread {spread:.2}");
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let lib = ucb_library();
        let s = sheet();
        let a = monte_carlo(&s, &lib, &["vdd"], 0.2, 50, 7).unwrap();
        let b = monte_carlo(&s, &lib, &["vdd"], 0.2, 50, 7).unwrap();
        assert_eq!(a, b);
        let c = monte_carlo(&s, &lib, &["vdd"], 0.2, 50, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn monte_carlo_wider_uncertainty_wider_spread() {
        let lib = ucb_library();
        let s = sheet();
        let narrow = monte_carlo(&s, &lib, &["vdd"], 0.05, 150, 1).unwrap();
        let wide = monte_carlo(&s, &lib, &["vdd"], 0.3, 150, 1).unwrap();
        assert!(wide.spread() > narrow.spread());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let summary = MonteCarloSummary { samples: vec![1.0] };
        let _ = summary.quantile(1.5);
    }

    #[test]
    fn sweep_preserves_other_globals() {
        let lib = ucb_library();
        let curve = sweep_global(&sheet(), &lib, "vdd", &[1.5]).unwrap();
        assert_eq!(curve[0].1.global("f"), Some(2e6));
        assert_eq!(curve[0].1.global("vdd"), Some(1.5));
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let lib = ucb_library();
        let s = sheet();
        let values: Vec<f64> = (0..100).map(|i| 0.9 + 0.025 * i as f64).collect();
        let parallel = sweep_global(&s, &lib, "vdd", &values).unwrap();
        let serial = sweep_global_serial(&s, &lib, "vdd", &values).unwrap();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sweep_reports_first_failing_value_in_input_order() {
        let lib = ucb_library();
        let mut s = Sheet::new("s");
        s.set_global("vdd", "1.5").unwrap();
        s.set_global("f", "2MHz").unwrap();
        // A negative supply drives the wire's switched capacitance
        // negative, which the element rejects — so failures depend on
        // the swept value, and each failing value carries a distinct
        // error payload.
        s.add_element_row("W", "ucb/wire", [("length_mm", "vdd")])
            .unwrap();
        let values = [1.0, -4.0, -9.0];
        let parallel = sweep_global(&s, &lib, "vdd", &values).unwrap_err();
        let serial = sweep_global_serial(&s, &lib, "vdd", &values).unwrap_err();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panics_surface_on_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let payload = std::panic::catch_unwind(|| {
            parallel_map(&items, |&i| {
                assert!(i != 17, "point 17 failed");
                i
            })
        })
        .expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        // A pool reports the join failure; a one-core host maps serially
        // and the item's own panic arrives unwrapped.
        let expected = if worker_count() > 1 {
            "what-if worker panicked"
        } else {
            "point 17 failed"
        };
        assert!(message.contains(expected), "{message}");
    }

    #[test]
    fn sweep_memoizes_duplicate_points() {
        let lib = ucb_library();
        let s = sheet();
        let plan = CompiledSheet::compile(&s, &lib);
        let metrics = whatif_metrics();
        let hits_before = metrics.memo_hits_total.get();
        // 2.0 appears three times; the duplicates must be memo hits and
        // the output must still match the straightforward sweep.
        let values = [1.0, 2.0, 2.0, 3.0, 2.0];
        let memoized = sweep_compiled(&plan, "vdd", &values).unwrap();
        assert!(metrics.memo_hits_total.get() >= hits_before + 2);
        let reference = sweep_global_serial(&s, &lib, "vdd", &values).unwrap();
        assert_eq!(memoized, reference);
    }

    #[test]
    fn sweep_memoized_error_is_shared_across_duplicates() {
        let lib = ucb_library();
        let mut s = Sheet::new("s");
        s.set_global("vdd", "1.5").unwrap();
        s.set_global("f", "2MHz").unwrap();
        s.add_element_row("W", "ucb/wire", [("length_mm", "vdd")])
            .unwrap();
        // The duplicate failing point must surface the same error the
        // serial oracle reports for the earliest failure in input order.
        let values = [1.0, -4.0, -4.0, -9.0];
        let plan = CompiledSheet::compile(&s, &lib);
        let memoized = sweep_compiled(&plan, "vdd", &values).unwrap_err();
        let serial = sweep_global_serial(&s, &lib, "vdd", &values).unwrap_err();
        assert_eq!(memoized, serial);
    }

    #[test]
    fn compiled_sweep_reuses_one_plan() {
        let lib = ucb_library();
        let s = sheet();
        let plan = CompiledSheet::compile(&s, &lib);
        let a = sweep_compiled(&plan, "vdd", &[1.0, 2.0]).unwrap();
        let b = sweep_global(&s, &lib, "vdd", &[1.0, 2.0]).unwrap();
        assert_eq!(a, b);
    }
}
