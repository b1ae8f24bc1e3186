//! Parallel counterparts of the strict and resilient grid engines, plus
//! the partitioned staged-model scan.
//!
//! All three engines follow the same shape:
//!
//! 1. **Partition.** A short sequential warm-up descent expands the
//!    pyramid frontier until it holds enough independent subtrees (the
//!    staged engine just splits the tuple range), then deals the work
//!    across workers in a deterministic order.
//! 2. **Descend.** Each worker runs the ordinary best-first loop over its
//!    own subtrees, pruning against `max(local K-th floor, shared bound)`.
//!    Floors discovered by one worker are published through a
//!    [`SharedBound`], so pruning progress propagates across workers
//!    without locks.
//! 3. **Merge.** Per-worker [`TopKHeap`]s are concatenated, sorted by the
//!    global `(score desc, index asc)` order, and truncated to K;
//!    per-worker [`EffortReport`]s are summed.
//!
//! Because every published floor is the K-th best of a *subset* of the
//! evaluated cells, it can never exceed the true K-th best score — so no
//! true top-K cell is ever pruned, and (absent exact score ties at the
//! K-th boundary) the merged result is bit-identical to the sequential
//! engines at every thread count. DESIGN.md §9 spells the argument out.

use crate::coarse::CoarseGrid;
use crate::engine::{
    read_base_vector_into, region_bound_into, validate_grid_inputs, EffortReport, GridTopK,
    QueryScratch, Region, ScoredCell, TupleTopK,
};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::parallel::pool::{SharedBound, WorkerPool};
use crate::resilient::{checkpoint_stop, region_candidate, BudgetStop, ExecutionBudget};
use crate::resilient::{ResilientHit, ResilientTopK, ScoreBounds, WallDeadline};
use crate::source::{CellSource, PyramidSource};
use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::{sort_desc, ScoredItem};
use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
use mbir_progressive::pyramid::AggregatePyramid;
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering as AtomicOrdering};

/// Warm-up expands the frontier until it holds `threads * FRONTIER_FANOUT`
/// subtrees, so the deal gives every worker several independent regions.
pub(crate) const FRONTIER_FANOUT: usize = 4;

/// Deterministic total order used to deal frontier regions to workers:
/// upper bound descending, then (level, row, col) ascending as an
/// unambiguous tiebreak.
fn region_order(a: &Region, b: &Region) -> Ordering {
    b.ub.total_cmp(&a.ub)
        .then_with(|| a.level.cmp(&b.level))
        .then_with(|| a.row.cmp(&b.row))
        .then_with(|| a.col.cmp(&b.col))
}

/// Sequential warm-up: best-first expansion (level-0 pops are parked, not
/// evaluated) until the frontier holds `target` regions or bottoms out.
/// The checkpoint closure is evaluated once per pop, mirroring the
/// resilient engine's cooperative budget checks; returning `Some` stops
/// the expansion. The returned regions are sorted by [`region_order`].
fn expand_frontier(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    levels: usize,
    target: usize,
    effort: &mut EffortReport,
    mut checkpoint: impl FnMut(&EffortReport) -> Option<BudgetStop>,
) -> Result<(Vec<Region>, Option<BudgetStop>), CoreError> {
    let top = levels - 1;
    let mut scratch = QueryScratch::new();
    let QueryScratch {
        children, ranges, ..
    } = &mut scratch;
    let root = region_bound_into(model, pyramids, top, 0, 0, ranges, effort)?;
    let mut frontier: BinaryHeap<Region> = BinaryHeap::new();
    frontier.push(Region {
        ub: root,
        level: top,
        row: 0,
        col: 0,
    });
    let mut parked: Vec<Region> = Vec::new();
    let mut stop = None;
    while frontier.len() + parked.len() < target {
        if let Some(s) = checkpoint(effort) {
            stop = Some(s);
            break;
        }
        let Some(region) = frontier.pop() else { break };
        if region.level == 0 {
            parked.push(region);
            continue;
        }
        pyramids[0].children_into(region.level, region.row, region.col, children);
        for child in children.iter() {
            let ub = region_bound_into(
                model,
                pyramids,
                region.level - 1,
                child.row,
                child.col,
                ranges,
                effort,
            )?;
            frontier.push(Region {
                ub,
                level: region.level - 1,
                row: child.row,
                col: child.col,
            });
        }
    }
    let mut regions = frontier.into_vec();
    regions.append(&mut parked);
    regions.sort_by(region_order);
    Ok((regions, stop))
}

/// Deals sorted regions round-robin across `workers` buckets, so every
/// worker starts with a comparable spread of upper bounds.
fn deal(regions: Vec<Region>, workers: usize) -> Vec<Vec<Region>> {
    let mut parts: Vec<Vec<Region>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, region) in regions.into_iter().enumerate() {
        parts[i % workers].push(region);
    }
    parts
}

struct StrictWorkerOut {
    items: Vec<ScoredItem>,
    effort: EffortReport,
    error: Option<CoreError>,
}

/// One worker's best-first descent over its dealt subtrees (strict
/// failure semantics: the first archive error stops the worker).
fn strict_worker<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    cols: usize,
    k: usize,
    source: &S,
    shared: &SharedBound,
    seed: Vec<Region>,
) -> StrictWorkerOut {
    let n = model.arity() as u64;
    let mut effort = EffortReport::default();
    let mut heap = TopKHeap::new(k);
    let mut frontier: BinaryHeap<Region> = seed.into();
    let mut error = None;
    // Per-worker scratch: the descent loop allocates nothing once warm.
    let mut scratch = QueryScratch::new();
    let QueryScratch {
        children,
        x,
        ranges,
        ..
    } = &mut scratch;
    'descent: while let Some(region) = frontier.pop() {
        let mut bound = shared.get();
        if let Some(floor) = heap.floor() {
            bound = bound.max(floor);
        }
        if bound >= region.ub {
            break; // Everything left in this partition is excluded.
        }
        if region.level == 0 {
            match read_base_vector_into(source, model.arity(), region.row, region.col, x) {
                Ok(()) => {
                    effort.multiply_adds += n;
                    heap.offer(ScoredItem {
                        index: region.row * cols + region.col,
                        score: model.evaluate(x),
                    });
                    if let Some(floor) = heap.floor() {
                        shared.offer(floor);
                    }
                }
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
            continue;
        }
        pyramids[0].children_into(region.level, region.row, region.col, children);
        for child in children.iter() {
            match region_bound_into(
                model,
                pyramids,
                region.level - 1,
                child.row,
                child.col,
                ranges,
                &mut effort,
            ) {
                Ok(ub) => frontier.push(Region {
                    ub,
                    level: region.level - 1,
                    row: child.row,
                    col: child.col,
                }),
                Err(e) => {
                    error = Some(e);
                    break 'descent;
                }
            }
        }
    }
    StrictWorkerOut {
        items: heap.into_sorted(),
        effort,
        error,
    }
}

/// Parallel [`pyramid_top_k`](crate::engine::pyramid_top_k): the same
/// exact quad-descent, partitioned over the pool's workers with shared
/// bound propagation. Results are bit-identical to the sequential engine
/// at every thread count (same cells, same scores, same tie-breaking);
/// only the effort split differs.
///
/// # Errors
///
/// Same as [`pyramid_top_k`](crate::engine::pyramid_top_k).
pub fn par_pyramid_top_k(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    pool: &WorkerPool,
) -> Result<GridTopK, CoreError> {
    par_pyramid_top_k_with_source(model, pyramids, k, &PyramidSource::new(pyramids), pool)
}

/// [`par_pyramid_top_k`] with base reads routed through a shared
/// [`CellSource`]. Strict failure semantics: any failed base read fails
/// the query (workers already running may finish their subtree first; the
/// reported error is the lowest-indexed worker's).
///
/// # Errors
///
/// Same as [`pyramid_top_k_with_source`](crate::engine::pyramid_top_k_with_source).
pub fn par_pyramid_top_k_with_source<S: CellSource + Sync>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    pool: &WorkerPool,
) -> Result<GridTopK, CoreError> {
    let ((rows, cols), levels) = validate_grid_inputs(model, pyramids, k)?;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: model.arity() as u64 * (rows * cols) as u64,
    };
    let target = pool.threads() * FRONTIER_FANOUT;
    let (regions, _) = expand_frontier(model, pyramids, levels, target, &mut effort, |_| None)?;
    let workers = pool.threads().min(regions.len()).max(1);
    let shared = SharedBound::new();
    let shared_ref = &shared;
    let outs = pool.run(
        deal(regions, workers)
            .into_iter()
            .map(|seed| {
                move |_wi: usize| strict_worker(model, pyramids, cols, k, source, shared_ref, seed)
            })
            .collect(),
    );
    let mut items = Vec::new();
    for out in outs {
        if let Some(e) = out.error {
            return Err(e);
        }
        effort += out.effort;
        items.extend(out.items);
    }
    sort_desc(&mut items);
    items.truncate(k);
    let results = items
        .into_iter()
        .map(|item| ScoredCell {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            score: item.score,
        })
        .collect();
    Ok(GridTopK { results, effort })
}

/// One worker's staged-model scan over a contiguous tuple range.
fn staged_worker(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
    start: usize,
    end: usize,
    shared: &SharedBound,
) -> (Vec<ScoredItem>, EffortReport) {
    let mut effort = EffortReport::default();
    if start >= end {
        return (Vec::new(), effort);
    }
    let n_terms = model.stages();
    let order = model.term_order();
    let coeffs = model.model().coefficients();
    let ranges = model.ranges();
    let mut alive: Vec<usize> = (start..end).collect();
    let mut partial: Vec<f64> = vec![model.model().intercept(); end - start];
    // Reused across stages so each pruning pass allocates nothing.
    let mut lows: Vec<f64> = Vec::new();
    for stage in 1..=n_terms {
        let term = order[stage - 1];
        let (rlo, rhi) = ranges[term];
        for &idx in &alive {
            partial[idx - start] += coeffs[term] * tuples[idx][term].clamp(rlo, rhi);
            effort.multiply_adds += 1;
        }
        if stage == n_terms || alive.is_empty() {
            break;
        }
        // Stage constants recovered through one representative evaluation,
        // exactly as in the sequential engine (they are tuple-independent).
        let probe = model.evaluate_stage(&tuples[alive[0]], stage);
        let suffix_mid = (probe.lo + probe.hi) / 2.0 - partial[alive[0] - start];
        let half_width = (probe.hi - probe.lo) / 2.0;
        let mut floor = shared.get();
        if alive.len() > k {
            lows.clear();
            lows.extend(
                alive
                    .iter()
                    .map(|&idx| partial[idx - start] + suffix_mid - half_width),
            );
            lows.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
            let local = lows[k - 1];
            shared.offer(local);
            floor = floor.max(local);
        }
        if floor > f64::NEG_INFINITY {
            alive.retain(|&idx| partial[idx - start] + suffix_mid + half_width >= floor);
        }
    }
    let mut heap = TopKHeap::new(k);
    for &idx in &alive {
        heap.offer(ScoredItem {
            index: idx,
            score: partial[idx - start],
        });
    }
    (heap.into_sorted(), effort)
}

/// Parallel [`staged_top_k`](crate::engine::staged_top_k): the tuple range
/// is split into contiguous chunks, one per worker; each worker runs the
/// staged pruning loop over its chunk, sharing K-th lower bounds through a
/// [`SharedBound`] so one worker's pruning floor drops candidates in every
/// other chunk. Results are bit-identical to the sequential engine at
/// every thread count.
///
/// # Errors
///
/// Same as [`staged_top_k`](crate::engine::staged_top_k).
pub fn par_staged_top_k(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
    pool: &WorkerPool,
) -> Result<TupleTopK, CoreError> {
    if k == 0 {
        return Err(CoreError::Query("k must be >= 1".into()));
    }
    if tuples.is_empty() {
        return Err(CoreError::Query("no tuples to search".into()));
    }
    let n_terms = model.stages();
    for t in tuples {
        if t.len() != n_terms {
            return Err(CoreError::Model(
                mbir_models::error::ModelError::ArityMismatch {
                    expected: n_terms,
                    actual: t.len(),
                },
            ));
        }
    }
    let workers = pool.threads().min(tuples.len());
    let chunk = tuples.len().div_ceil(workers);
    let shared = SharedBound::new();
    let shared_ref = &shared;
    let outs = pool.run(
        (0..workers)
            .map(|wi| {
                move |_i: usize| {
                    let start = (wi * chunk).min(tuples.len());
                    let end = ((wi + 1) * chunk).min(tuples.len());
                    staged_worker(model, tuples, k, start, end, shared_ref)
                }
            })
            .collect(),
    );
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: (n_terms * tuples.len()) as u64,
    };
    let mut items = Vec::new();
    for (worker_items, worker_effort) in outs {
        effort += worker_effort;
        items.extend(worker_items);
    }
    sort_desc(&mut items);
    items.truncate(k);
    Ok(TupleTopK {
        results: items,
        effort,
    })
}

pub(crate) const STOP_NONE: u8 = 0;

pub(crate) fn stop_code(stop: BudgetStop) -> u8 {
    match stop {
        BudgetStop::MultiplyAdds => 1,
        BudgetStop::PageReads => 2,
        BudgetStop::Deadline => 3,
        BudgetStop::WallClock => 4,
        BudgetStop::Cancelled => 5,
    }
}

pub(crate) fn code_stop(code: u8) -> Option<BudgetStop> {
    match code {
        1 => Some(BudgetStop::MultiplyAdds),
        2 => Some(BudgetStop::PageReads),
        3 => Some(BudgetStop::Deadline),
        4 => Some(BudgetStop::WallClock),
        5 => Some(BudgetStop::Cancelled),
        _ => None,
    }
}

/// Shared read-only context of one parallel resilient run.
struct ResilientCtx<'a, S: CellSource> {
    model: &'a LinearModel,
    pyramids: &'a [AggregatePyramid],
    cols: usize,
    k: usize,
    source: &'a S,
    budget: &'a ExecutionBudget,
    /// Shared wall-clock deadline latch, observed by every worker at the
    /// budget checkpoint (alongside the shared bound).
    deadline: &'a WallDeadline,
    /// Caller-held cancellation latch, polled first at every checkpoint
    /// (stop precedence: Cancelled > WallClock > Budget).
    cancel: Option<&'a CancelToken>,
    bound: &'a SharedBound,
    /// Optional quantized coarse pass: children strictly below the
    /// worker's pruning bound are rejected before the exact child bound
    /// (prune-only, see [`crate::coarse`]).
    coarse: Option<&'a CoarseGrid>,
    /// Budget dimension: multiply-adds spent across *all* workers.
    multiply_adds: &'a AtomicU64,
    /// First exhausted budget dimension (0 = still within budget).
    stop: &'a AtomicU8,
    pages_at_entry: u64,
    ticks_at_entry: u64,
}

struct ResilientWorkerOut {
    items: Vec<ScoredItem>,
    /// Level-0 regions whose page read failed, with the failing page.
    lost: Vec<(Region, usize)>,
    /// Regions a budget stop left unrefined.
    leftover: Vec<Region>,
    effort: EffortReport,
    error: Option<CoreError>,
}

/// One worker's resilient descent: lost pages park the cell instead of
/// failing, and the shared budget is checked at every pop. Local effort is
/// flushed into the shared counter per pop so the budget sees global work.
fn resilient_worker<S: CellSource>(
    ctx: &ResilientCtx<'_, S>,
    seed: Vec<Region>,
) -> ResilientWorkerOut {
    let n = ctx.model.arity() as u64;
    let mut heap = TopKHeap::new(ctx.k);
    let mut frontier: BinaryHeap<Region> = seed.into();
    // Per-worker scratch: the descent loop allocates nothing once warm.
    let mut scratch = QueryScratch::new();
    let QueryScratch {
        children,
        x,
        ranges,
        qcoeff,
        qmeta,
        ..
    } = &mut scratch;
    let mut out = ResilientWorkerOut {
        items: Vec::new(),
        lost: Vec::new(),
        leftover: Vec::new(),
        effort: EffortReport::default(),
        error: None,
    };
    if let Some(cg) = ctx.coarse {
        if let Err(e) = cg.prepare_into(ctx.model, qcoeff, qmeta) {
            out.error = Some(e);
            return out;
        }
    }
    while let Some(region) = frontier.pop() {
        let mut bound = ctx.bound.get();
        if let Some(floor) = heap.floor() {
            bound = bound.max(floor);
        }
        if bound >= region.ub {
            break; // Sound exclusion of this partition's remainder.
        }
        if ctx.stop.load(AtomicOrdering::Relaxed) != STOP_NONE {
            // Another worker exhausted the budget: surrender the frontier.
            out.leftover.push(region);
            out.leftover.extend(frontier.drain());
            break;
        }
        // Fixed stop precedence Cancelled > WallClock > Budget: a step
        // that trips several dimensions at once latches the same reason
        // on every run and at every thread count.
        let checked = checkpoint_stop(
            ctx.cancel,
            ctx.deadline,
            ctx.budget,
            ctx.multiply_adds.load(AtomicOrdering::Relaxed),
            ctx.source.pages_read().saturating_sub(ctx.pages_at_entry),
            ctx.source
                .ticks_elapsed()
                .saturating_sub(ctx.ticks_at_entry),
        );
        if let Some(stop) = checked {
            let _ = ctx.stop.compare_exchange(
                STOP_NONE,
                stop_code(stop),
                AtomicOrdering::Relaxed,
                AtomicOrdering::Relaxed,
            );
            out.leftover.push(region);
            out.leftover.extend(frontier.drain());
            break;
        }
        if region.level == 0 {
            match read_base_vector_into(ctx.source, ctx.model.arity(), region.row, region.col, x) {
                Ok(()) => {
                    out.effort.multiply_adds += n;
                    ctx.multiply_adds.fetch_add(n, AtomicOrdering::Relaxed);
                    heap.offer(ScoredItem {
                        index: region.row * ctx.cols + region.col,
                        score: ctx.model.evaluate(x),
                    });
                    if let Some(floor) = heap.floor() {
                        ctx.bound.offer(floor);
                    }
                }
                Err(CoreError::Archive(
                    ArchiveError::PageIo { page }
                    | ArchiveError::PageQuarantined { page }
                    | ArchiveError::PageCorrupt { page },
                )) => {
                    let page = ctx.source.page_of(region.row, region.col).unwrap_or(page);
                    out.lost.push((region, page));
                }
                Err(e) => {
                    out.error = Some(e);
                    break;
                }
            }
            continue;
        }
        let mut local = EffortReport::default();
        let mut failed = None;
        ctx.pyramids[0].children_into(region.level, region.row, region.col, children);
        for child in children.iter() {
            // Coarse pass against the pop-time pruning bound (max of the
            // shared bound and the local floor — both only ever rise, and
            // both are K-th floors of evaluated subsets, so a strict
            // `cub < bound` can never reject a true top-K cell, tie or
            // not). Prune-only: survivors get the exact bound unchanged.
            // No multiply-adds charged — pure i8 side-structure work.
            if let Some(cg) = ctx.coarse {
                if bound > f64::NEG_INFINITY
                    && cg.cell_upper_bound(qcoeff, qmeta, region.level - 1, child.row, child.col)
                        < bound
                {
                    continue;
                }
            }
            match region_bound_into(
                ctx.model,
                ctx.pyramids,
                region.level - 1,
                child.row,
                child.col,
                ranges,
                &mut local,
            ) {
                Ok(ub) => frontier.push(Region {
                    ub,
                    level: region.level - 1,
                    row: child.row,
                    col: child.col,
                }),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        out.effort += local;
        ctx.multiply_adds
            .fetch_add(local.multiply_adds, AtomicOrdering::Relaxed);
        if let Some(e) = failed {
            out.error = Some(e);
            break;
        }
    }
    out.items = heap.into_sorted();
    out
}

/// Parallel [`resilient_top_k`](crate::resilient::resilient_top_k):
/// partitioned descent with per-worker lost/leftover tracking merged into
/// one honest degradation report, under a *shared* budget (atomic
/// counters checked at the same cooperative checkpoints — once per pop).
///
/// With a healthy source or deterministic page faults and an unlimited
/// budget the output is bit-identical to the sequential resilient engine
/// at every thread count: lost cells are excluded by their deterministic
/// frontier bound, not by which worker reached them first. A mid-run
/// budget stop is inherently schedule-dependent — the results are still
/// sound and honestly accounted, but not reproducible across thread
/// counts (DESIGN.md §9).
///
/// # Errors
///
/// Same as [`resilient_top_k`](crate::resilient::resilient_top_k).
pub fn par_resilient_top_k<S: CellSource + Sync>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    pool: &WorkerPool,
) -> Result<ResilientTopK, CoreError> {
    par_resilient_top_k_inner(model, pyramids, k, source, budget, None, None, pool)
}

/// [`par_resilient_top_k`] with the quantized coarse pass of
/// [`resilient_top_k_coarse`](crate::resilient::resilient_top_k_coarse):
/// every worker consults the shared [`CoarseGrid`] before computing an
/// exact child bound, pruning against `max(shared bound, local floor)`.
/// Prune-only, so the healthy/deterministic-fault unlimited-budget output
/// stays bit-identical to both [`par_resilient_top_k`] and the sequential
/// engines at every thread count; a `max_multiply_adds` budget stop lands
/// at a different (later) point of the same descent, as in the sequential
/// coarse engine.
///
/// # Errors
///
/// Same as [`par_resilient_top_k`], plus
/// [`CoreError::Query`](crate::error::CoreError) when the coarse grid's
/// arity does not match the model.
pub fn par_resilient_top_k_coarse<S: CellSource + Sync>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    coarse: &CoarseGrid,
    pool: &WorkerPool,
) -> Result<ResilientTopK, CoreError> {
    par_resilient_top_k_inner(model, pyramids, k, source, budget, None, Some(coarse), pool)
}

/// [`par_resilient_top_k`] polling a
/// [`CancelToken`] at every worker
/// checkpoint. Cancellation latches
/// [`BudgetStop::Cancelled`](crate::resilient::BudgetStop) through the
/// shared stop flag, so every worker surrenders its frontier at its next
/// pop and the merged report stays sound. A token cancelled *before* the
/// call stops the run at the warm-up checkpoint, which makes the degraded
/// answer bit-identical at every thread count (mid-run cancellation is
/// schedule-dependent, like any mid-run budget stop). A token that is
/// never cancelled changes nothing.
///
/// # Errors
///
/// Same as [`resilient_top_k`](crate::resilient::resilient_top_k).
pub fn par_resilient_top_k_cancellable<S: CellSource + Sync>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    cancel: &CancelToken,
    pool: &WorkerPool,
) -> Result<ResilientTopK, CoreError> {
    par_resilient_top_k_inner(model, pyramids, k, source, budget, Some(cancel), None, pool)
}

#[allow(clippy::too_many_arguments)]
fn par_resilient_top_k_inner<S: CellSource + Sync>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    budget: &ExecutionBudget,
    cancel: Option<&CancelToken>,
    coarse: Option<&CoarseGrid>,
    pool: &WorkerPool,
) -> Result<ResilientTopK, CoreError> {
    let ((rows, cols), levels) = validate_grid_inputs(model, pyramids, k)?;
    let total_cells = (rows * cols) as u64;
    let n = model.arity() as u64;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * total_cells,
    };
    let pages_at_entry = source.pages_read();
    let ticks_at_entry = source.ticks_elapsed();
    let deadline = WallDeadline::starting_now(budget);

    let target = pool.threads() * FRONTIER_FANOUT;
    let (regions, warm_stop) =
        expand_frontier(model, pyramids, levels, target, &mut effort, |e| {
            // Same fixed stop precedence as the worker checkpoints:
            // Cancelled > WallClock > Budget.
            checkpoint_stop(
                cancel,
                &deadline,
                budget,
                e.multiply_adds,
                source.pages_read().saturating_sub(pages_at_entry),
                source.ticks_elapsed().saturating_sub(ticks_at_entry),
            )
        })?;

    let shared = SharedBound::new();
    let shared_ma = AtomicU64::new(effort.multiply_adds);
    let stop_flag = AtomicU8::new(warm_stop.map(stop_code).unwrap_or(STOP_NONE));

    let mut all_items: Vec<ScoredItem> = Vec::new();
    let mut all_lost: Vec<(Region, usize)> = Vec::new();
    let mut all_leftover: Vec<Region> = Vec::new();

    if warm_stop.is_some() {
        all_leftover = regions;
    } else {
        let ctx = ResilientCtx {
            model,
            pyramids,
            cols,
            k,
            source,
            budget,
            deadline: &deadline,
            cancel,
            bound: &shared,
            coarse,
            multiply_adds: &shared_ma,
            stop: &stop_flag,
            pages_at_entry,
            ticks_at_entry,
        };
        let ctx_ref = &ctx;
        let workers = pool.threads().min(regions.len()).max(1);
        let outs = pool.run(
            deal(regions, workers)
                .into_iter()
                .map(|seed| move |_wi: usize| resilient_worker(ctx_ref, seed))
                .collect(),
        );
        for out in outs {
            if let Some(e) = out.error {
                return Err(e);
            }
            effort += out.effort;
            all_items.extend(out.items);
            all_lost.extend(out.lost);
            all_leftover.extend(out.leftover);
        }
    }

    let budget_stop = code_stop(stop_flag.load(AtomicOrdering::Relaxed));

    sort_desc(&mut all_items);
    all_items.truncate(k);
    // Only a full merged heap yields a sound exclusion floor.
    let floor = if all_items.len() == k {
        all_items.last().map(|i| i.score)
    } else {
        None
    };

    let mut unresolved = 0u64;
    let mut skipped: BTreeSet<usize> = BTreeSet::new();
    let mut hits: Vec<ResilientHit> = all_items
        .into_iter()
        .map(|item| ResilientHit {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            level: 0,
            score: item.score,
            bounds: ScoreBounds::exact(item.score),
            exact: true,
        })
        .collect();

    for region in all_leftover {
        let (candidate, count) = region_candidate(
            model,
            pyramids,
            region.level,
            region.row,
            region.col,
            &mut effort,
        )?;
        if floor.is_some_and(|f| f >= candidate.bounds.hi) {
            continue; // Provably outside the top-K: resolved.
        }
        unresolved += count;
        hits.push(candidate);
    }

    // Lost cells: excluded by their deterministic frontier bound (the
    // level-0 index bound), reported against the parent aggregate — the
    // same contract as the sequential resilient engine.
    let parent_level = 1.min(levels - 1);
    for (region, page) in all_lost {
        if floor.is_some_and(|f| f >= region.ub) {
            continue;
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
        unresolved += 1;
        hits.push(candidate);
    }

    // Rank by upper bound first — mirrors the sequential engine: exact
    // hits have hi == score, and under degradation the truncation to k
    // can never drop the only candidate that might still be the winner.
    hits.sort_by(|a, b| {
        b.bounds
            .hi
            .total_cmp(&a.bounds.hi)
            .then_with(|| b.score.total_cmp(&a.score))
            .then_with(|| a.cell.cmp(&b.cell))
    });
    hits.truncate(k);

    Ok(ResilientTopK {
        results: hits,
        effort,
        completeness: 1.0 - unresolved as f64 / total_cells as f64,
        skipped_pages: skipped.into_iter().collect(),
        budget_stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{naive_grid_top_k, pyramid_top_k, staged_top_k};
    use crate::resilient::{resilient_top_k, resilient_top_k_cancellable};
    use crate::source::TileSource;
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn pseudo_grid(seed: u64, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            let h = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((r * 8191 + c * 127) as u64)
                .wrapping_mul(2862933555777941757);
            (h >> 11) as f64 / (1u64 << 53) as f64 * 100.0
        })
    }

    fn build_inputs(
        seed: u64,
        rows: usize,
        cols: usize,
        arity: usize,
    ) -> (LinearModel, Vec<AggregatePyramid>) {
        let coeffs: Vec<f64> = (0..arity)
            .map(|i| match i % 4 {
                0 => 2.0,
                1 => -1.0,
                2 => 0.25,
                _ => 0.05,
            })
            .collect();
        let model = LinearModel::new(coeffs, 0.5).unwrap();
        let pyramids: Vec<AggregatePyramid> = (0..arity)
            .map(|i| AggregatePyramid::build(&pseudo_grid(seed + i as u64, rows, cols)))
            .collect();
        (model, pyramids)
    }

    fn progressive_of(
        model: &LinearModel,
        pyramids: &[AggregatePyramid],
    ) -> ProgressiveLinearModel {
        let ranges: Vec<(f64, f64)> = pyramids
            .iter()
            .map(|p| {
                let root = p.root();
                (root.min, root.max)
            })
            .collect();
        ProgressiveLinearModel::new(model.clone(), &ranges).unwrap()
    }

    #[test]
    fn par_pyramid_is_bit_identical_at_every_thread_count() {
        let (model, pyramids) = build_inputs(11, 48, 40, 3);
        for k in [1usize, 5, 17] {
            let sequential = pyramid_top_k(&model, &pyramids, k).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let parallel = par_pyramid_top_k(&model, &pyramids, k, &pool).unwrap();
                assert_eq!(
                    parallel.results, sequential.results,
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_pyramid_matches_naive_scores() {
        let (model, pyramids) = build_inputs(2, 32, 32, 4);
        let naive = naive_grid_top_k(&model, &pyramids, 9).unwrap();
        let pool = WorkerPool::new(4);
        let parallel = par_pyramid_top_k(&model, &pyramids, 9, &pool).unwrap();
        assert_eq!(parallel.results, naive.results);
        assert!(parallel.effort.naive_multiply_adds == naive.effort.naive_multiply_adds);
    }

    #[test]
    fn par_pyramid_validates_like_sequential() {
        let (model, pyramids) = build_inputs(5, 8, 8, 2);
        let pool = WorkerPool::new(2);
        assert!(par_pyramid_top_k(&model, &pyramids, 0, &pool).is_err());
        assert!(par_pyramid_top_k(&model, &pyramids[..1], 1, &pool).is_err());
    }

    #[test]
    fn par_pyramid_small_grid_returns_all_cells() {
        let (model, pyramids) = build_inputs(7, 3, 3, 2);
        let pool = WorkerPool::new(8);
        let r = par_pyramid_top_k(&model, &pyramids, 100, &pool).unwrap();
        let s = pyramid_top_k(&model, &pyramids, 100).unwrap();
        assert_eq!(r.results, s.results);
        assert_eq!(r.results.len(), 9);
    }

    #[test]
    fn par_staged_is_bit_identical_at_every_thread_count() {
        let (model, pyramids) = build_inputs(3, 24, 24, 4);
        let prog = progressive_of(&model, &pyramids);
        let tuples: Vec<Vec<f64>> = (0..24 * 24)
            .map(|i| {
                (0..4)
                    .map(|a| pyramids[a].cell(0, i / 24, i % 24).unwrap().mean)
                    .collect()
            })
            .collect();
        for k in [1usize, 10] {
            let sequential = staged_top_k(&prog, &tuples, k).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let parallel = par_staged_top_k(&prog, &tuples, k, &pool).unwrap();
                assert_eq!(
                    parallel.results, sequential.results,
                    "k={k} threads={threads}"
                );
                if threads == 1 {
                    assert_eq!(parallel.effort, sequential.effort, "1 thread = same work");
                }
            }
        }
    }

    #[test]
    fn par_staged_handles_more_workers_than_tuples() {
        let (model, pyramids) = build_inputs(9, 2, 2, 2);
        let prog = progressive_of(&model, &pyramids);
        let tuples: Vec<Vec<f64>> = (0..3)
            .map(|i| {
                (0..2)
                    .map(|a| pyramids[a].cell(0, i / 2, i % 2).unwrap().mean)
                    .collect()
            })
            .collect();
        let pool = WorkerPool::new(16);
        let parallel = par_staged_top_k(&prog, &tuples, 2, &pool).unwrap();
        let sequential = staged_top_k(&prog, &tuples, 2).unwrap();
        assert_eq!(parallel.results, sequential.results);
    }

    #[test]
    fn par_staged_validates_like_sequential() {
        let (model, pyramids) = build_inputs(5, 8, 8, 2);
        let prog = progressive_of(&model, &pyramids);
        let pool = WorkerPool::new(2);
        assert!(par_staged_top_k(&prog, &[], 1, &pool).is_err());
        assert!(par_staged_top_k(&prog, &[vec![1.0]], 1, &pool).is_err());
        assert!(par_staged_top_k(&prog, &[vec![1.0, 2.0]], 0, &pool).is_err());
    }

    fn smooth_world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
    ) -> (LinearModel, Vec<AggregatePyramid>, Vec<TileStore>) {
        let grids: Vec<Grid2<f64>> = (0..arity)
            .map(|i| {
                Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
                })
            })
            .collect();
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
        (LinearModel::new(coeffs, 0.25).unwrap(), pyramids, stores)
    }

    #[test]
    fn par_resilient_healthy_matches_sequential_resilient() {
        let (model, pyramids, stores) = smooth_world(3, 48, 48, 8);
        let src = TileSource::new(&stores).unwrap();
        let sequential =
            resilient_top_k(&model, &pyramids, 7, &src, &ExecutionBudget::unlimited()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let parallel = par_resilient_top_k(
                &model,
                &pyramids,
                7,
                &src,
                &ExecutionBudget::unlimited(),
                &pool,
            )
            .unwrap();
            assert_eq!(parallel.results, sequential.results, "threads={threads}");
            assert_eq!(parallel.completeness, 1.0);
            assert_eq!(parallel.budget_stop, None);
            assert!(parallel.skipped_pages.is_empty());
        }
    }

    #[test]
    fn par_resilient_lost_pages_match_sequential_report() {
        let (model, pyramids, stores) = smooth_world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(page)))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let sequential =
            resilient_top_k(&model, &pyramids, 3, &src, &ExecutionBudget::unlimited()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let parallel = par_resilient_top_k(
                &model,
                &pyramids,
                3,
                &src,
                &ExecutionBudget::unlimited(),
                &pool,
            )
            .unwrap();
            assert_eq!(parallel.results, sequential.results, "threads={threads}");
            assert_eq!(parallel.completeness, sequential.completeness);
            assert_eq!(parallel.skipped_pages, sequential.skipped_pages);
            assert!(parallel.skipped_pages.contains(&page));
        }
    }

    #[test]
    fn par_resilient_budget_stop_is_sound() {
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let unlimited = par_resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited(),
            &WorkerPool::new(4),
        )
        .unwrap();
        let best = unlimited.results[0].score;
        // Half of the measured full-run effort: enough to get past warm-up,
        // far too little to finish.
        let budget =
            ExecutionBudget::unlimited().with_max_multiply_adds(unlimited.effort.multiply_adds / 2);
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(&model, &pyramids, 5, &src, &budget, &pool).unwrap();
            assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
            assert!(r.completeness >= 0.0 && r.completeness <= 1.0);
            assert!(r.results.len() <= 5);
            // The true winner is either confirmed exactly, covered by some
            // degraded candidate's upper bound, or pushed out of a *full*
            // report by k candidates with higher estimates.
            assert!(
                r.results.len() == 5
                    || r.results
                        .iter()
                        .any(|h| (h.exact && h.score == best) || (!h.exact && h.bounds.hi >= best)),
                "threads={threads}: winner neither confirmed nor covered"
            );
            for hit in r.results.iter().filter(|h| !h.exact) {
                assert!(hit.bounds.lo <= hit.score && hit.score <= hit.bounds.hi);
            }
        }
    }

    #[test]
    fn par_resilient_zero_wall_deadline_is_consistent_across_threads() {
        use std::time::Duration;
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited().with_wall_deadline(Duration::ZERO);
        let reference = resilient_top_k(&model, &pyramids, 5, &src, &budget).unwrap();
        assert_eq!(reference.budget_stop, Some(BudgetStop::WallClock));
        assert_eq!(reference.completeness, 0.0);
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let r = par_resilient_top_k(&model, &pyramids, 5, &src, &budget, &pool).unwrap();
            assert_eq!(
                r.budget_stop,
                Some(BudgetStop::WallClock),
                "threads={threads}"
            );
            // An already-expired deadline stops every schedule at its first
            // checkpoint: completeness and bounds match at every width.
            assert_eq!(r.completeness, reference.completeness, "threads={threads}");
            assert_eq!(r.results, reference.results, "threads={threads}");
            assert!(r.results.iter().all(|h| !h.exact));
            for h in &r.results {
                assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
            }
        }
    }

    #[test]
    fn cancelled_stop_beats_deadline_and_budget_at_every_thread_count() {
        use crate::lifecycle::CancelToken;
        use std::time::Duration;
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        // All three stop families trip at the first checkpoint: a
        // pre-cancelled token, an expired wall deadline, and an exhausted
        // multiply-add cap. The fixed precedence Cancelled > WallClock >
        // Budget must hold on every schedule.
        let budget = ExecutionBudget::unlimited()
            .with_max_multiply_adds(1)
            .with_wall_deadline(Duration::ZERO);
        let token = CancelToken::new();
        token.cancel();
        let reference =
            resilient_top_k_cancellable(&model, &pyramids, 5, &src, &budget, &token).unwrap();
        assert_eq!(reference.budget_stop, Some(BudgetStop::Cancelled));
        assert_eq!(reference.completeness, 0.0);
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let r =
                par_resilient_top_k_cancellable(&model, &pyramids, 5, &src, &budget, &token, &pool)
                    .unwrap();
            assert_eq!(
                r.budget_stop,
                Some(BudgetStop::Cancelled),
                "threads={threads}"
            );
            // A pre-cancelled token stops every schedule at the warm-up
            // checkpoint: the degraded answer matches at every width.
            assert_eq!(r.completeness, reference.completeness, "threads={threads}");
            assert_eq!(r.results, reference.results, "threads={threads}");
            for h in &r.results {
                assert!(h.bounds.lo <= h.score && h.score <= h.bounds.hi);
            }
        }
    }

    #[test]
    fn par_resilient_uncancelled_token_changes_nothing() {
        use crate::lifecycle::CancelToken;
        let (model, pyramids, stores) = smooth_world(2, 48, 48, 8);
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let token = CancelToken::new();
        let plain = resilient_top_k(&model, &pyramids, 6, &src, &budget).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let r =
                par_resilient_top_k_cancellable(&model, &pyramids, 6, &src, &budget, &token, &pool)
                    .unwrap();
            assert_eq!(r.results, plain.results, "threads={threads}");
            assert_eq!(r.budget_stop, None);
            assert_eq!(r.completeness, 1.0);
        }
    }

    #[test]
    fn par_resilient_generous_wall_deadline_changes_nothing() {
        use std::time::Duration;
        let (model, pyramids, stores) = smooth_world(2, 48, 48, 8);
        let src = TileSource::new(&stores).unwrap();
        let plain = par_resilient_top_k(
            &model,
            &pyramids,
            6,
            &src,
            &ExecutionBudget::unlimited(),
            &WorkerPool::new(4),
        )
        .unwrap();
        let timed = par_resilient_top_k(
            &model,
            &pyramids,
            6,
            &src,
            &ExecutionBudget::unlimited().with_wall_deadline(Duration::from_secs(3600)),
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!(timed.budget_stop, None);
        assert_eq!(timed.results, plain.results);
    }

    #[test]
    fn par_resilient_detected_corruption_matches_sequential() {
        use crate::source::CachedTileSource;
        let (model, pyramids, stores) = smooth_world(2, 32, 32, 8);
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).corrupt(page)))
            .collect();
        let src = CachedTileSource::new(&stores, 16).unwrap();
        let sequential =
            resilient_top_k(&model, &pyramids, 4, &src, &ExecutionBudget::unlimited()).unwrap();
        assert!(sequential.skipped_pages.contains(&page));
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let parallel = par_resilient_top_k(
                &model,
                &pyramids,
                4,
                &src,
                &ExecutionBudget::unlimited(),
                &pool,
            )
            .unwrap();
            assert_eq!(parallel.results, sequential.results, "threads={threads}");
            assert_eq!(parallel.skipped_pages, sequential.skipped_pages);
            assert_eq!(parallel.completeness, sequential.completeness);
        }
    }

    #[test]
    fn par_resilient_immediate_budget_exhaustion_reports_frontier() {
        let (model, pyramids, stores) = smooth_world(2, 64, 64, 8);
        let src = TileSource::new(&stores).unwrap();
        let r = par_resilient_top_k(
            &model,
            &pyramids,
            5,
            &src,
            &ExecutionBudget::unlimited().with_max_multiply_adds(1),
            &WorkerPool::new(4),
        )
        .unwrap();
        assert_eq!(r.budget_stop, Some(BudgetStop::MultiplyAdds));
        assert_eq!(r.completeness, 0.0, "nothing was resolved");
        assert!(!r.results.is_empty(), "the frontier itself is reported");
        assert!(r.results.iter().all(|h| !h.exact));
    }

    #[test]
    fn par_resilient_coarse_is_bit_identical_at_every_thread_count() {
        let (model, pyramids, stores) = smooth_world(3, 64, 64, 8);
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let sequential = resilient_top_k(&model, &pyramids, 7, &src, &budget).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let pruned =
                par_resilient_top_k_coarse(&model, &pyramids, 7, &src, &budget, &coarse, &pool)
                    .unwrap();
            assert_eq!(pruned.results, sequential.results, "threads={threads}");
            assert_eq!(pruned.completeness, 1.0);
            assert_eq!(pruned.budget_stop, None);
            assert!(pruned.skipped_pages.is_empty());
        }
    }

    #[test]
    fn par_resilient_coarse_matches_plain_under_faults() {
        let (model, pyramids, stores) = smooth_world(2, 32, 32, 8);
        let coarse = CoarseGrid::build(&pyramids).unwrap();
        let winner = pyramid_top_k(&model, &pyramids, 1).unwrap().results[0].cell;
        let page = stores[0].page_of(winner.row, winner.col);
        let stores: Vec<TileStore> = stores
            .into_iter()
            .map(|s| s.with_faults(FaultProfile::new(0).permanent(page)))
            .collect();
        let src = TileSource::new(&stores).unwrap();
        let budget = ExecutionBudget::unlimited();
        let plain = resilient_top_k(&model, &pyramids, 3, &src, &budget).unwrap();
        assert!(plain.is_degraded(), "fault must actually degrade the run");
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let pruned =
                par_resilient_top_k_coarse(&model, &pyramids, 3, &src, &budget, &coarse, &pool)
                    .unwrap();
            assert_eq!(pruned.results, plain.results, "threads={threads}");
            assert_eq!(pruned.skipped_pages, plain.skipped_pages);
            assert_eq!(pruned.completeness, plain.completeness);
        }
    }
}
