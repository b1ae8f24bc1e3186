//! Budgeted, fault-tolerant progressive retrieval with graceful
//! degradation.
//!
//! The strict engines ([`crate::engine`]) abort on the first failed page
//! read and run until the bound proof closes. Real archive queries get
//! neither luxury: pages go missing and interactive callers impose work
//! ceilings. [`resilient_top_k`] is the pyramid descent re-run under both
//! pressures:
//!
//! * **Lost pages degrade, they don't abort.** A base read failing with
//!   [`ArchiveError::PageIo`], [`ArchiveError::PageQuarantined`], or
//!   [`ArchiveError::PageCorrupt`] (detected silent corruption) parks
//!   the cell instead. A lost cell whose frontier bound falls under the
//!   final K-th floor is *resolved* (provably outside the top-K, exactly
//!   like a healthy pruned cell); the rest are carried as *degraded*
//!   candidates bounded by their parent aggregate (the deepest index level
//!   that does not depend on the lost data) and their pages are reported
//!   skipped. Because the exclusion uses the deterministic bound rather
//!   than evaluation order, the degradation report is reproducible — the
//!   parallel engine ([`crate::parallel`]) produces the same one.
//! * **Budgets stop work at cooperative checkpoints.** An
//!   [`ExecutionBudget`] caps multiply-adds, page reads, and a virtual
//!   tick deadline; it is checked once per frontier pop. On exhaustion the
//!   remaining frontier — the deepest fully-bounded pyramid frontier — is
//!   converted to degraded candidates instead of being discarded.
//! * **Cancellation is cooperative too.** [`resilient_top_k_cancellable`]
//!   polls a [`CancelToken`] at the same
//!   page-granular checkpoint and stops with [`BudgetStop::Cancelled`]
//!   under the same degradation contract. When several stop reasons trip
//!   in the same step, precedence is fixed: Cancelled > WallClock >
//!   Budget dimensions — deterministic at every thread count.
//!
//! The result is honest about what it knows: every hit carries sound
//! [`ScoreBounds`], the [`completeness`](ResilientTopK::completeness)
//! fraction reports how much of the archive is provably accounted for,
//! and [`skipped_pages`](ResilientTopK::skipped_pages) lists exactly what
//! was lost. With a healthy source and an unlimited budget the output is
//! bit-identical to [`pyramid_top_k`](crate::engine::pyramid_top_k).

use crate::coarse::CoarseGrid;
use crate::engine::{
    read_base_vector_into, region_bound_into, validate_grid_inputs, EffortReport, QueryScratch,
    Region, ScoredCell,
};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::source::CellSource;
use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Work ceilings for one retrieval, checked at cooperative checkpoints
/// (once per frontier pop). `None` fields are unlimited; the default is
/// fully unlimited.
///
/// # Examples
///
/// ```
/// use mbir_core::resilient::ExecutionBudget;
///
/// let budget = ExecutionBudget::unlimited()
///     .with_max_page_reads(100)
///     .with_deadline_ticks(5_000);
/// assert!(budget.check(0, 99, 0).is_none());
/// assert!(budget.check(0, 100, 0).is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionBudget {
    /// Cap on model multiply-adds.
    pub max_multiply_adds: Option<u64>,
    /// Cap on pages read through the source.
    pub max_page_reads: Option<u64>,
    /// Virtual deadline in I/O ticks (see
    /// [`AccessStats::ticks_elapsed`](mbir_archive::stats::AccessStats::ticks_elapsed)).
    pub deadline_ticks: Option<u64>,
    /// Wall-clock deadline measured from query start. Unlike the virtual
    /// tick deadline this is real time — interactive callers' "answer in
    /// 50 ms, whatever you have" contract. Checked through a
    /// [`WallDeadline`] latch at the same cooperative checkpoints, so
    /// expiry degrades with the same sound-bounds semantics as any other
    /// budget stop.
    pub wall_deadline: Option<Duration>,
}

impl ExecutionBudget {
    /// No ceilings at all.
    pub fn unlimited() -> Self {
        ExecutionBudget::default()
    }

    /// Caps model multiply-adds (builder style).
    pub fn with_max_multiply_adds(mut self, cap: u64) -> Self {
        self.max_multiply_adds = Some(cap);
        self
    }

    /// Caps page reads (builder style).
    pub fn with_max_page_reads(mut self, cap: u64) -> Self {
        self.max_page_reads = Some(cap);
        self
    }

    /// Sets the virtual tick deadline (builder style).
    pub fn with_deadline_ticks(mut self, deadline: u64) -> Self {
        self.deadline_ticks = Some(deadline);
        self
    }

    /// Sets the wall-clock deadline (builder style).
    pub fn with_wall_deadline(mut self, deadline: Duration) -> Self {
        self.wall_deadline = Some(deadline);
        self
    }

    /// Evaluates the ceilings against spent work; `Some` names the first
    /// exhausted dimension. A checkpoint at or beyond a cap stops the run.
    pub fn check(&self, multiply_adds: u64, page_reads: u64, ticks: u64) -> Option<BudgetStop> {
        if self
            .max_multiply_adds
            .is_some_and(|cap| multiply_adds >= cap)
        {
            return Some(BudgetStop::MultiplyAdds);
        }
        if self.max_page_reads.is_some_and(|cap| page_reads >= cap) {
            return Some(BudgetStop::PageReads);
        }
        if self.deadline_ticks.is_some_and(|cap| ticks >= cap) {
            return Some(BudgetStop::Deadline);
        }
        None
    }
}

/// Which budget dimension stopped a run early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStop {
    /// The multiply-add cap was reached.
    MultiplyAdds,
    /// The page-read cap was reached.
    PageReads,
    /// The virtual tick deadline passed.
    Deadline,
    /// The wall-clock deadline passed.
    WallClock,
    /// The caller cancelled the query via its
    /// [`CancelToken`].
    Cancelled,
}

impl fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetStop::MultiplyAdds => "multiply-add cap",
            BudgetStop::PageReads => "page-read cap",
            BudgetStop::Deadline => "tick deadline",
            BudgetStop::WallClock => "wall-clock deadline",
            BudgetStop::Cancelled => "cancelled",
        })
    }
}

/// A shared, latching wall-clock deadline observed at engine checkpoints.
///
/// One instance is created per query ([`WallDeadline::starting_now`]) and
/// shared by every worker of a parallel run, alongside the
/// [`SharedBound`](crate::parallel::SharedBound). Expiry *latches*: once
/// any checkpoint observes the deadline passed, every later check on any
/// thread reports expired, so all workers stop at their next checkpoint
/// even if the clock were to misbehave. A `None` limit never expires and
/// costs no clock reads.
#[derive(Debug)]
pub struct WallDeadline {
    started: Instant,
    limit: Option<Duration>,
    tripped: AtomicBool,
}

impl WallDeadline {
    /// Starts the clock now against `budget.wall_deadline`.
    pub fn starting_now(budget: &ExecutionBudget) -> Self {
        WallDeadline {
            started: Instant::now(),
            limit: budget.wall_deadline,
            tripped: AtomicBool::new(false),
        }
    }

    /// Whether the deadline has passed (latching; see the type docs).
    pub fn expired(&self) -> bool {
        let Some(limit) = self.limit else {
            return false;
        };
        if self.tripped.load(Ordering::Relaxed) {
            return true;
        }
        if self.started.elapsed() >= limit {
            self.tripped.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// A sound score interval for one hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreBounds {
    /// Guaranteed lower bound.
    pub lo: f64,
    /// Guaranteed upper bound.
    pub hi: f64,
}

impl ScoreBounds {
    /// A zero-width interval around an exactly known score.
    pub fn exact(score: f64) -> Self {
        ScoreBounds {
            lo: score,
            hi: score,
        }
    }

    /// Interval width (0 for exact hits).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// One entry of a resilient result: an exactly evaluated cell, or a
/// degraded stand-in for data the run could not reach.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientHit {
    /// Base-level cell; for an unrefined region (`level > 0`) this is the
    /// region's top-left base cell.
    pub cell: CellCoord,
    /// Pyramid level of the entry: 0 is a single cell; `l > 0` is an
    /// unrefined region covering up to `4^l` base cells whose refinement
    /// the budget cut off.
    pub level: usize,
    /// Exact model score (`exact == true`) or the model evaluated at the
    /// deepest available aggregate means (`exact == false`).
    pub score: f64,
    /// Sound interval containing every base score the entry stands for.
    pub bounds: ScoreBounds,
    /// Whether `score` is an exact base-level evaluation.
    pub exact: bool,
}

/// Best-effort top-K result with explicit degradation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientTopK {
    /// Up to K entries, descending by `score`. Exact and degraded entries
    /// are ranked together; each carries its own bounds.
    pub results: Vec<ResilientHit>,
    /// Work accounting (degraded estimates are charged too).
    pub effort: EffortReport,
    /// Fraction of base cells provably accounted for: evaluated exactly,
    /// or excluded by a sound bound. 1.0 means the answer is exact.
    pub completeness: f64,
    /// Pages whose failed reads left cells unresolved, ascending. A page
    /// that failed but whose every touched cell was excluded by a sound
    /// bound does not appear: nothing was lost from the answer.
    pub skipped_pages: Vec<usize>,
    /// `Some` when a budget dimension stopped the run early.
    pub budget_stop: Option<BudgetStop>,
}

impl ResilientTopK {
    /// Whether anything separates this answer from the exact one.
    pub fn is_degraded(&self) -> bool {
        self.completeness < 1.0
            || self.budget_stop.is_some()
            || self.results.iter().any(|h| !h.exact)
    }

    /// The exact entries as plain scored cells (what a strict engine
    /// would have been able to certify).
    pub fn exact_cells(&self) -> Vec<ScoredCell> {
        self.results
            .iter()
            .filter(|h| h.exact)
            .map(|h| ScoredCell {
                cell: h.cell,
                score: h.score,
            })
            .collect()
    }
}

/// Pyramid descent that degrades gracefully instead of aborting.
///
/// Behaves exactly like
/// [`pyramid_top_k_with_source`](crate::engine::pyramid_top_k_with_source)
/// until a base read fails or the budget runs out; see the module docs for
/// the degradation contract. Never panics on lost pages, never silently
/// drops what it could not certify.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for the same input validation as
/// [`pyramid_top_k`](crate::engine::pyramid_top_k), and propagates archive
/// errors that are *not* page losses (e.g. out-of-bounds reads, which are
/// engine bugs rather than archive faults).
pub fn resilient_top_k<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
) -> Result<ResilientTopK, CoreError> {
    resilient_top_k_with_scratch(model, pyramids, k, source, budget, &mut QueryScratch::new())
}

/// [`resilient_top_k`] polling a [`CancelToken`] at every page-granular
/// checkpoint. Cancellation is just another early stop: the run latches
/// [`BudgetStop::Cancelled`] and degrades with sound bounds and
/// completeness accounting, exactly like a budget or deadline stop. A
/// token that is never cancelled changes nothing: results are
/// bit-identical to [`resilient_top_k`].
///
/// # Errors
///
/// Same as [`resilient_top_k`].
pub fn resilient_top_k_cancellable<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    cancel: &CancelToken,
) -> Result<ResilientTopK, CoreError> {
    resilient_top_k_inner(
        model,
        pyramids,
        k,
        source,
        budget,
        Some(cancel),
        None,
        &mut QueryScratch::new(),
    )
}

/// [`resilient_top_k`] consulting a quantized [`CoarseGrid`] before each
/// exact child bound: children whose i8 cell bound falls strictly below
/// the current K-th floor are pruned without touching the per-attribute
/// pyramids. The coarse pass is prune-only (see [`crate::coarse`]), so
/// results, completeness, and skipped pages are bit-identical to
/// [`resilient_top_k`] under any fault pattern.
///
/// A subtlety worth knowing: in *this* sequential engine the check is
/// provably inert. The frontier pops in descending `ub` order, and an
/// evaluated cell's `ub` is its exact score, so every evaluation that
/// precedes a pop scored at least the popped `ub`; once `k` evaluations
/// exist the floor therefore already dominates the popped bound and the
/// engine breaks before expanding. This function exists as the oracle the
/// parallel engines are tested against and for API parity — the pass
/// earns its keep where a floor arrives from *outside* the local pop
/// order: [`par_resilient_top_k_coarse`](crate::parallel) workers
/// pruning against the shared bound, and sharded scatter-gather leaves
/// pruning against an earlier shard's published floor.
///
/// # Errors
///
/// Same as [`resilient_top_k`], plus [`CoreError::Query`] when the coarse
/// grid's arity does not match the model.
pub fn resilient_top_k_coarse<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    coarse: &CoarseGrid,
) -> Result<ResilientTopK, CoreError> {
    resilient_top_k_inner(
        model,
        pyramids,
        k,
        source,
        budget,
        None,
        Some(coarse),
        &mut QueryScratch::new(),
    )
}

/// [`resilient_top_k_coarse`] with descent buffers (including the
/// prepared per-level coarse coefficients) reused from `scratch`.
///
/// # Errors
///
/// Same as [`resilient_top_k_coarse`].
pub fn resilient_top_k_coarse_with_scratch<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    coarse: &CoarseGrid,
    scratch: &mut QueryScratch,
) -> Result<ResilientTopK, CoreError> {
    resilient_top_k_inner(
        model,
        pyramids,
        k,
        source,
        budget,
        None,
        Some(coarse),
        scratch,
    )
}

/// [`resilient_top_k`] with descent buffers reused from `scratch` (see
/// [`pyramid_top_k_with_scratch`](crate::engine::pyramid_top_k_with_scratch)).
/// Results are bit-identical to [`resilient_top_k`].
///
/// # Errors
///
/// Same as [`resilient_top_k`].
pub fn resilient_top_k_with_scratch<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    scratch: &mut QueryScratch,
) -> Result<ResilientTopK, CoreError> {
    resilient_top_k_inner(model, pyramids, k, source, budget, None, None, scratch)
}

#[allow(clippy::too_many_arguments)]
fn resilient_top_k_inner<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    cancel: Option<&CancelToken>,
    coarse: Option<&CoarseGrid>,
    scratch: &mut QueryScratch,
) -> Result<ResilientTopK, CoreError> {
    let (shape, levels) = validate_grid_inputs(model, pyramids, k)?;
    let (rows, cols) = shape;
    let total_cells = (rows * cols) as u64;
    let n = model.arity() as u64;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * total_cells,
    };
    let pages_at_entry = source.pages_read();
    let ticks_at_entry = source.ticks_elapsed();
    let deadline = WallDeadline::starting_now(budget);

    let caps = scratch.caps();
    let QueryScratch {
        children,
        x,
        ranges,
        frontier,
        qcoeff,
        qmeta,
        ..
    } = scratch;
    frontier.clear();
    if let Some(cg) = coarse {
        cg.prepare_into(model, qcoeff, qmeta)?;
    }
    let mut heap = TopKHeap::new(k);
    let top = levels - 1;
    let root_bound = region_bound_into(model, pyramids, top, 0, 0, ranges, &mut effort)?;
    frontier.push(Region {
        ub: root_bound,
        level: top,
        row: 0,
        col: 0,
    });

    // Cells whose page read failed (with the failing page), and frontier
    // regions a budget stop left unrefined.
    let mut lost: Vec<(Region, usize)> = Vec::new();
    let mut leftover: Vec<Region> = Vec::new();
    let mut skipped: BTreeSet<usize> = BTreeSet::new();
    let mut budget_stop: Option<BudgetStop> = None;

    while let Some(region) = frontier.pop() {
        if let Some(floor) = heap.floor() {
            if floor >= region.ub {
                // Bound proof closed: everything left is excluded.
                break;
            }
        }
        // Cooperative checkpoint: one stop evaluation per pop, in the
        // fixed precedence order Cancelled > WallClock > Budget, so a
        // step that trips several dimensions at once reports the same
        // reason on every run and at every thread count.
        let stop = checkpoint_stop(
            cancel,
            &deadline,
            budget,
            effort.multiply_adds,
            source.pages_read().saturating_sub(pages_at_entry),
            source.ticks_elapsed().saturating_sub(ticks_at_entry),
        );
        if let Some(stop) = stop {
            budget_stop = Some(stop);
            leftover.push(region);
            leftover.extend(frontier.drain());
            break;
        }
        if region.level == 0 {
            match read_base_vector_into(source, model.arity(), region.row, region.col, x) {
                Ok(()) => {
                    effort.multiply_adds += n;
                    heap.offer(ScoredItem {
                        index: region.row * cols + region.col,
                        score: model.evaluate(x),
                    });
                }
                Err(CoreError::Archive(
                    ArchiveError::PageIo { page }
                    | ArchiveError::PageQuarantined { page }
                    | ArchiveError::PageCorrupt { page },
                )) => {
                    let page = source.page_of(region.row, region.col).unwrap_or(page);
                    lost.push((region, page));
                }
                Err(e) => return Err(e),
            }
            continue;
        }
        pyramids[0].children_into(region.level, region.row, region.col, children);
        for child in children.iter() {
            // Coarse pass: one O(n) i8 bound per child. Strictly below the
            // floor ⇒ no cell under the child can reach the top-K even on
            // a tie, so skipping the push is sound, and because the
            // frontier order is total the survivors pop in the same
            // sequence as the unpruned run — results stay bit-identical.
            // The check performs no f64 model arithmetic, so it charges no
            // multiply-adds: the report's drop measures exactly the exact
            // bound evaluations the i8 pass replaced.
            if let Some(cg) = coarse {
                if let Some(f) = heap.floor() {
                    if cg.cell_upper_bound(qcoeff, qmeta, region.level - 1, child.row, child.col)
                        < f
                    {
                        continue;
                    }
                }
            }
            let ub = region_bound_into(
                model,
                pyramids,
                region.level - 1,
                child.row,
                child.col,
                ranges,
                &mut effort,
            )?;
            frontier.push(Region {
                ub,
                level: region.level - 1,
                row: child.row,
                col: child.col,
            });
        }
    }

    // Only a full heap gives a sound exclusion floor.
    let floor = heap.floor();
    let excluded = |hi: f64| floor.is_some_and(|f| f >= hi);

    let mut unresolved_cells = 0u64;
    let mut hits: Vec<ResilientHit> = heap
        .into_sorted()
        .into_iter()
        .map(|item| ResilientHit {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            level: 0,
            score: item.score,
            bounds: ScoreBounds::exact(item.score),
            exact: true,
        })
        .collect();

    // Unrefined frontier regions: bound from their own aggregates (the
    // deepest fully-bounded frontier the budget allowed).
    for region in leftover {
        let (candidate, count) = region_candidate(
            model,
            pyramids,
            region.level,
            region.row,
            region.col,
            &mut effort,
        )?;
        if excluded(candidate.bounds.hi) {
            continue; // Provably outside the top-K: resolved.
        }
        unresolved_cells += count;
        hits.push(candidate);
    }

    // Lost cells: first exclude by the deterministic frontier bound (the
    // level-0 index bound is exact, so this is the same test the descent
    // applies to healthy cells — and it makes the surviving set, and thus
    // `skipped_pages` and completeness, independent of evaluation order).
    // Survivors are bounded from the parent aggregate — the deepest index
    // level that does not depend on the missing page.
    let parent_level = 1.min(levels - 1);
    for (region, page) in lost {
        if excluded(region.ub) {
            continue; // Provably outside the top-K: resolved, nothing lost.
        }
        skipped.insert(page);
        let (mut candidate, _) = region_candidate(
            model,
            pyramids,
            parent_level,
            region.row >> parent_level,
            region.col >> parent_level,
            &mut effort,
        )?;
        candidate.cell = CellCoord::new(region.row, region.col);
        candidate.level = 0;
        unresolved_cells += 1;
        hits.push(candidate);
    }

    // Rank by upper bound first: for exact hits hi == score, so complete
    // answers keep the plain score order, while under degradation the
    // truncation to k can never drop the only candidate that might still
    // be the true winner — every surviving hit's hi is at least as large.
    hits.sort_by(|a, b| {
        b.bounds
            .hi
            .total_cmp(&a.bounds.hi)
            .then_with(|| b.score.total_cmp(&a.score))
            .then_with(|| a.cell.cmp(&b.cell))
    });
    hits.truncate(k);

    scratch.note_regrowth(&caps);
    Ok(ResilientTopK {
        results: hits,
        effort,
        completeness: 1.0 - unresolved_cells as f64 / total_cells as f64,
        skipped_pages: skipped.into_iter().collect(),
        budget_stop,
    })
}

/// One cooperative-checkpoint stop evaluation, shared by every engine that
/// degrades under pressure (sequential, parallel, and sharded). The fixed
/// precedence Cancelled > WallClock > Budget dimensions guarantees a step
/// that trips several dimensions at once reports the same reason on every
/// run and at every thread count.
pub(crate) fn checkpoint_stop(
    cancel: Option<&CancelToken>,
    deadline: &WallDeadline,
    budget: &ExecutionBudget,
    multiply_adds: u64,
    page_reads: u64,
    ticks: u64,
) -> Option<BudgetStop> {
    cancel
        .is_some_and(CancelToken::is_cancelled)
        .then_some(BudgetStop::Cancelled)
        .or_else(|| deadline.expired().then_some(BudgetStop::WallClock))
        .or_else(|| budget.check(multiply_adds, page_reads, ticks))
}

/// Builds a degraded candidate from a pyramid region: score = model at the
/// region means, bounds = sound box bounds, plus the region's base-cell
/// count.
pub(crate) fn region_candidate(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    level: usize,
    row: usize,
    col: usize,
    effort: &mut EffortReport,
) -> Result<(ResilientHit, u64), CoreError> {
    let n = model.arity() as u64;
    let mut ranges = Vec::with_capacity(pyramids.len());
    let mut means = Vec::with_capacity(pyramids.len());
    let mut count = 0u64;
    for p in pyramids {
        let s = p.cell(level, row, col)?;
        ranges.push((s.min, s.max));
        means.push(s.mean);
        count = s.count;
    }
    let (lo, hi) = model.bound_over_box(&ranges)?;
    effort.multiply_adds += 2 * n; // bound + estimate
    let scale = 1usize << level;
    // The mean estimate is mathematically inside the box bounds, but its
    // summation order differs from bound_over_box's, so on degenerate
    // (single-cell) boxes it can land an ulp outside — clamp to keep the
    // documented `lo <= score <= hi` invariant exact.
    let score = model.evaluate(&means).clamp(lo, hi);
    Ok((
        ResilientHit {
            cell: CellCoord::new(row * scale, col * scale),
            level,
            score,
            bounds: ScoreBounds { lo, hi },
            exact: false,
        },
        count,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::pyramid_top_k;
    use crate::source::{PyramidSource, TileSource};
    use mbir_archive::fault::{FaultProfile, ResilienceConfig, RetryPolicy};
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn smooth_grid(i: usize, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
        })
    }

    fn world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (
        LinearModel,
        Vec<AggregatePyramid>,
        Vec<TileStore>,
        AccessStats,
    ) {
        let grids: Vec<Grid2<f64>> = (0..arity).map(|i| smooth_grid(i, rows, cols)).collect();
        let pyramids = grids.iter().map(AggregatePyramid::build).collect();
        let stats = AccessStats::new();
        let stores = grids
            .iter()
            .map(|g| {
                TileStore::new(g.clone(), tile)
                    .unwrap()
                    .with_stats(stats.clone())
            })
            .collect();
        let coeffs: Vec<f64> = (0..arity).map(|i| 1.0 - 0.3 * i as f64).collect();
        (
            LinearModel::new(coeffs, 0.25).unwrap(),
            pyramids,
            stores,
            stats,
        )
    }

    #[test]
    fn healthy_unlimited_matches_strict_engine_exactly() {
        let (model, pyramids, stores, _) = world(3, 48, 48, 8);
        let strict = pyramid_top_k(&model, &pyramids, 7).unwrap();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, 7, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(!r.is_degraded());
        assert_eq!(r.completeness, 1.0);
        assert!(r.skipped_pages.is_empty());
        assert_eq!(r.budget_stop, None);
        assert_eq!(r.effort, strict.effort);
        assert_eq!(r.results.len(), strict.results.len());
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.score, b.score, "bit-identical scores");
            assert!(a.exact);
            assert_eq!(a.bounds, ScoreBounds::exact(b.score));
        }
    }

    #[test]
    fn pyramid_source_is_also_bit_identical() {
        let (model, pyramids, _, _) = world(2, 32, 32, 8);
        let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();
        let src = PyramidSource::new(&pyramids);
        let r = resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!((a.cell, a.score), (b.cell, b.score));
        }
    }

    #[test]
    fn lost_pages_degrade_without_aborting() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        // Find the strict winner's page and fail it everywhere.
        let strict = pyramid_top_k(&model, &pyramids, 3).unwrap();
        let winner = strict.results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(page)))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, 3, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(r.is_degraded());
        assert!(r.completeness < 1.0, "completeness {}", r.completeness);
        assert_eq!(r.skipped_pages, vec![page]);
        assert_eq!(r.results.len(), 3);
        // The lost winner is represented by a degraded candidate whose
        // bounds contain the true score.
        let degraded: Vec<&ResilientHit> = r.results.iter().filter(|h| !h.exact).collect();
        assert!(!degraded.is_empty(), "lost hot cell must surface");
        let covering = degraded.iter().find(|h| {
            h.bounds.lo <= strict.results[0].score && strict.results[0].score <= h.bounds.hi
        });
        assert!(
            covering.is_some(),
            "some degraded bound covers the lost winner"
        );
    }

    #[test]
    fn transient_faults_healed_by_retries_stay_exact() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| {
                s.with_faults(FaultProfile::new(0).transient(0, 2).transient(5, 1))
                    .with_resilience(ResilienceConfig::new(RetryPolicy::retries(3), None))
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let strict = pyramid_top_k(&model, &pyramids, 4).unwrap();
        let r = resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(!r.is_degraded());
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!((a.cell, a.score), (b.cell, b.score));
        }
    }

    #[test]
    fn budget_stop_reports_frontier_not_nothing() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        // A multiply-add cap hit after the root bound: nothing evaluated.
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_max_multiply_adds(1),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
        assert!(r.is_degraded());
        assert_eq!(r.completeness, 0.0, "nothing was resolved");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        assert!(r.results.iter().all(|h| !h.exact));
        // No work beyond the root bound and its candidate estimate.
        assert!(r.effort.multiply_adds <= 3 * model.arity() as u64);
        assert!(r.effort.speedup_checked().is_some());
    }

    #[test]
    fn page_budget_gives_partial_but_bounded_answer() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let unlimited =
            resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let pages_needed = stores[0].stats().pages_read();
        assert!(pages_needed > 4, "test premise: needs several pages");
        stores[0].stats().reset();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_max_page_reads(pages_needed / 2),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::PageReads));
        assert!(r.completeness < 1.0);
        assert!(r.completeness > 0.0);
        assert_eq!(r.results.len(), 5);
        // Sound bounds: every degraded hit's interval must contain the
        // model evaluated at any covered base cell — spot-check against
        // the unlimited run's exact scores.
        for hit in r.results.iter().filter(|h| !h.exact) {
            assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
        }
        // The exact top-1 must be either confirmed exactly or covered by
        // some degraded candidate's upper bound.
        let best = unlimited.results[0].score;
        assert!(
            r.results
                .iter()
                .any(|h| { (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best) }),
            "true winner neither confirmed nor covered"
        );
    }

    #[test]
    fn deadline_budget_stops_on_injected_latency() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        // Every page is slow: 100 ticks each.
        let profile =
            (0..stores[0].page_count()).fold(FaultProfile::new(0), |p, page| p.latency(page, 100));
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(profile.clone()))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_deadline_ticks(350),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::Deadline));
        assert!(r.completeness < 1.0);
    }

    #[test]
    fn quarantined_pages_fail_fast_into_degradation() {
        let (model, pyramids, stores, stats) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| {
                s.with_faults(FaultProfile::new(0).permanent(page))
                    .with_resilience(ResilienceConfig::new(RetryPolicy::retries(2), Some(2)))
            })
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(r.skipped_pages.contains(&page));
        // After quarantine trips, further touches of page 0 cost no
        // retries: retry count stays bounded by the breaker threshold.
        assert!(stats.retries() <= 2, "retries {}", stats.retries());
        assert!(stats.quarantines() >= 1);
    }

    #[test]
    fn zero_wall_deadline_stops_at_the_first_checkpoint() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let r = resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::WallClock));
        assert_eq!(r.completeness, 0.0, "nothing resolved before expiry");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        assert!(r.results.iter().all(|h| !h.exact));
        for h in &r.results {
            assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
        }
    }

    #[test]
    fn generous_wall_deadline_never_interferes() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let src = TileSource::new(&stores).unwrap();
        let strict = pyramid_top_k(&model, &pyramids, 4).unwrap();
        let r = resilient_top_k(
            &model,
            &pyramids,
            4,
            &src,
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::from_secs(3600)),
        )
        .unwrap();
        assert_eq!(r.budget_stop, None);
        assert!(!r.is_degraded());
        for (a, b) in r.results.iter().zip(&strict.results) {
            assert_eq!((a.cell, a.score), (b.cell, b.score));
        }
    }

    #[test]
    fn wall_deadline_latch_is_sticky() {
        let expired = WallDeadline::starting_now(
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO),
        );
        assert!(expired.expired());
        assert!(expired.expired(), "latched");
        let unlimited = WallDeadline::starting_now(&ExecutionBudget::unlimited());
        assert!(!unlimited.expired());
        let generous = WallDeadline::starting_now(
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::from_secs(3600)),
        );
        assert!(!generous.expired());
    }

    #[test]
    fn detected_corruption_degrades_like_a_lost_page() {
        use crate::source::CachedTileSource;
        let (model, pyramids, stores, stats) = world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        // Corrupt the winner's page on every store; the verifying cached
        // source detects it and the engine degrades instead of returning
        // silently wrong scores.
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(page)))
            .collect();
        let src = CachedTileSource::new(&stores, 8).unwrap();
        let r = resilient_top_k(&model, &pyramids, 3, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(r.is_degraded());
        assert!(r.skipped_pages.contains(&page));
        assert!(stats.corruptions() > 0);
        let strict = pyramid_top_k(&model, &pyramids, 1).unwrap();
        let covered = r.results.iter().any(|h| {
            (h.exact && h.score == strict.results[0].score)
                || (!h.exact
                    && h.bounds.lo <= strict.results[0].score
                    && strict.results[0].score <= h.bounds.hi)
        });
        assert!(covered, "true winner must be confirmed or covered");
    }

    #[test]
    fn validates_like_the_strict_engine() {
        let (model, pyramids, stores, _) = world(2, 16, 16, 8);
        let src = TileSource::new(&stores).unwrap();
        assert!(
            resilient_top_k(&model, &pyramids, 0, &src, &ExecutionBudget::unlimited()).is_err()
        );
        assert!(resilient_top_k(
            &model,
            &pyramids[..1],
            1,
            &src,
            &ExecutionBudget::unlimited()
        )
        .is_err());
    }

    /// Delegating source that cancels a token once the inner source has
    /// read `after` pages — deterministic page-granular cancellation.
    struct CancelAfterPages<'a, S: CellSource> {
        inner: &'a S,
        token: CancelToken,
        after: u64,
    }

    impl<S: CellSource> CellSource for CancelAfterPages<'_, S> {
        fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
            let v = self.inner.base_cell(attr, row, col);
            if self.inner.pages_read() >= self.after {
                self.token.cancel();
            }
            v
        }
        fn page_of(&self, row: usize, col: usize) -> Option<usize> {
            self.inner.page_of(row, col)
        }
        fn pages_read(&self) -> u64 {
            self.inner.pages_read()
        }
        fn ticks_elapsed(&self) -> u64 {
            self.inner.ticks_elapsed()
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let src = TileSource::new(&stores).unwrap();
        let plain =
            resilient_top_k(&model, &pyramids, 5, &src, &ExecutionBudget::unlimited()).unwrap();
        let token = CancelToken::new();
        let r = resilient_top_k_cancellable(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited(),
            &token,
        )
        .unwrap();
        assert_eq!(r, plain, "live token is free");
    }

    #[test]
    fn mid_flight_cancellation_degrades_with_sound_bounds() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let strict = pyramid_top_k(&model, &pyramids, 5).unwrap();
        let inner = TileSource::new(&stores).unwrap();
        let token = CancelToken::new();
        let src = CancelAfterPages {
            inner: &inner,
            token: token.clone(),
            after: 3,
        };
        let r = resilient_top_k_cancellable(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited(),
            &token,
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
        assert!(r.is_degraded());
        assert!(r.completeness < 1.0);
        for h in &r.results {
            assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
        }
        // The true winner is either confirmed exactly or covered by some
        // surviving candidate's bounds — same contract as a budget stop.
        let best = strict.results[0].score;
        assert!(
            r.results
                .iter()
                .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
            "true winner neither confirmed nor covered"
        );
    }

    #[test]
    fn cancellation_takes_precedence_over_deadline_and_budget() {
        let (model, pyramids, stores, _) = world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        // All three stop families trip at the very first checkpoint: a
        // pre-cancelled token, an expired wall deadline, and an exhausted
        // multiply-add cap. The fixed precedence reports Cancelled.
        let budget = ExecutionBudget::unlimited()
            .with_max_multiply_adds(1)
            .with_wall_deadline(Duration::ZERO);
        let token = CancelToken::new();
        token.cancel();
        let r = resilient_top_k_cancellable(&model, &pyramids, 5, &src, &budget, &token).unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
        assert_eq!(r.completeness, 0.0, "nothing resolved before the stop");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        // Without the token, the same racing budget reports WallClock —
        // the next rung of the precedence order.
        let r2 = resilient_top_k(&model, &pyramids, 5, &src, &budget).unwrap();
        assert_eq!(r2.budget_stop, Some(BudgetStop::WallClock));
    }

    #[test]
    fn coarse_pass_is_bit_identical_and_free_in_the_sequential_engine() {
        // In the sequential engine the coarse check is provably inert:
        // every cell evaluated before region R popped had `ub = score >=
        // R.ub` (max-heap order), so once k evaluations exist the floor
        // already dominates R.ub and the engine breaks instead of
        // expanding. The pass can therefore never fire here — with any
        // data, any k, any fault pattern — and the run must be *exactly*
        // as cheap as the plain one, not merely no dearer. Real pruning
        // needs a floor that arrives from outside the local pop order;
        // see the parallel and shard tests.
        let (model, pyramids, stores, _) = world(3, 64, 64, 8);
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        for k in [1usize, 5, 10] {
            let plain = resilient_top_k(&model, &pyramids, k, &src, &budget).unwrap();
            let pruned =
                resilient_top_k_coarse(&model, &pyramids, k, &src, &budget, &coarse).unwrap();
            assert_eq!(pruned.results, plain.results, "k={k}");
            assert_eq!(pruned.completeness, plain.completeness);
            assert_eq!(pruned.skipped_pages, plain.skipped_pages);
            assert_eq!(pruned.budget_stop, plain.budget_stop);
            assert_eq!(
                pruned.effort.multiply_adds, plain.effort.multiply_adds,
                "k={k}: the sequential coarse pass must be a provable no-op"
            );
        }
    }

    #[test]
    fn coarse_pass_is_bit_identical_under_faults() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        // Kill the strict winner's page so the degraded path is exercised.
        let strict = pyramid_top_k(&model, &pyramids, 3).unwrap();
        let winner = strict.results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(page)))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let plain = resilient_top_k(&model, &pyramids, 3, &src, &budget).unwrap();
        let pruned = resilient_top_k_coarse(&model, &pyramids, 3, &src, &budget, &coarse).unwrap();
        assert!(plain.is_degraded(), "fault must actually degrade the run");
        assert_eq!(pruned.results, plain.results);
        assert_eq!(pruned.completeness, plain.completeness);
        assert_eq!(pruned.skipped_pages, plain.skipped_pages);
    }

    #[test]
    fn coarse_scratch_reuse_stops_allocating() {
        let (model, pyramids, stores, _) = world(2, 32, 32, 8);
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let mut scratch = QueryScratch::new();
        resilient_top_k_coarse_with_scratch(
            &model,
            &pyramids,
            4,
            &src,
            &budget,
            &coarse,
            &mut scratch,
        )
        .unwrap();
        let warmed = scratch.regrowths();
        resilient_top_k_coarse_with_scratch(
            &model,
            &pyramids,
            4,
            &src,
            &budget,
            &coarse,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(scratch.regrowths(), warmed, "second query allocated");
    }

    #[test]
    fn coarse_arity_mismatch_is_a_query_error() {
        let (model, pyramids, stores, _) = world(2, 16, 16, 8);
        let narrow = CoarseGrid::build(&pyramids[..1]).unwrap();
        let src = TileSource::new(&stores).unwrap();
        assert!(matches!(
            resilient_top_k_coarse(
                &model,
                &pyramids,
                3,
                &src,
                &ExecutionBudget::unlimited(),
                &narrow
            ),
            Err(CoreError::Query(_))
        ));
    }
}
