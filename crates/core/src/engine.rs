//! The progressive execution engine (paper §3.1 / §4.2).
//!
//! Three exact engines, each reporting its work in model multiply-adds so
//! the §4.2 ratios are measurable:
//!
//! * [`staged_top_k`] — **progressive model** over flat tuples: evaluate
//!   contribution-ranked terms one stage at a time, pruning candidates
//!   whose sound upper bound falls under the current K-th lower bound.
//!   Its reduction ratio is the paper's `p_m`.
//! * [`pyramid_top_k`] — **progressive data**: best-first quad-descent over
//!   aggregate pyramids, bounding the full model over each region box.
//!   Its reduction ratio is `p_d`.
//! * [`combined_top_k`] — both at once: coarse regions are bounded with
//!   *truncated* models (fewer terms ⇒ cheaper bound), refining both the
//!   region and the model together; the paper's `O(nN/(p_m p_d))`.
//!
//! Every engine returns exactly the scores a naive full scan returns
//! (property-tested); only the work differs.

use crate::error::CoreError;
use crate::query::{Objective, TopKQuery};
use crate::source::{CellSource, PyramidSource};
use mbir_archive::extent::CellCoord;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::ScoredItem;
use mbir_models::linear::{LinearModel, ProgressiveLinearModel};
use mbir_progressive::pyramid::AggregatePyramid;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Work accounting in model multiply-adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EffortReport {
    /// Multiply-adds actually spent.
    pub multiply_adds: u64,
    /// Multiply-adds a naive full-model full-data scan would spend
    /// (`n * N` in §4.2).
    pub naive_multiply_adds: u64,
}

impl EffortReport {
    /// The §4.2 speedup `naive / actual` (∞-safe: 0 work reports 1.0).
    ///
    /// The 1.0 is a neutral placeholder, not a measurement — use
    /// [`speedup_checked`](Self::speedup_checked) to tell "no work was
    /// performed" apart from "exactly break-even".
    pub fn speedup(&self) -> f64 {
        self.speedup_checked().unwrap_or(1.0)
    }

    /// The §4.2 speedup, or `None` when no work was performed (e.g. a run
    /// stopped by a budget before its first multiply-add).
    pub fn speedup_checked(&self) -> Option<f64> {
        if self.multiply_adds == 0 {
            return None;
        }
        Some(self.naive_multiply_adds as f64 / self.multiply_adds as f64)
    }
}

impl std::ops::Add for EffortReport {
    type Output = EffortReport;

    fn add(self, rhs: EffortReport) -> EffortReport {
        EffortReport {
            multiply_adds: self.multiply_adds + rhs.multiply_adds,
            naive_multiply_adds: self.naive_multiply_adds + rhs.naive_multiply_adds,
        }
    }
}

impl std::ops::AddAssign for EffortReport {
    fn add_assign(&mut self, rhs: EffortReport) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for EffortReport {
    fn sum<I: Iterator<Item = EffortReport>>(iter: I) -> EffortReport {
        iter.fold(EffortReport::default(), |acc, e| acc + e)
    }
}

impl fmt::Display for EffortReport {
    /// Distinguishes zero work from break-even: a run that never evaluated
    /// anything prints "no work performed" rather than a fictitious 1.0x.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.speedup_checked() {
            Some(speedup) => write!(
                f,
                "{} of {} multiply-adds ({speedup:.2}x speedup)",
                self.multiply_adds, self.naive_multiply_adds
            ),
            None => write!(
                f,
                "0 of {} multiply-adds (no work performed; speedup undefined)",
                self.naive_multiply_adds
            ),
        }
    }
}

/// Reusable buffers for the descent/staged engines, so steady-state
/// query loops perform no per-query heap allocation: child coordinates,
/// the base attribute vector, region range boxes, the best-first
/// frontier, and the staged engine's candidate sets all live here and
/// are cleared (capacity kept) between queries.
///
/// One scratch belongs to one engine call at a time — sequential callers
/// keep a single instance, parallel engines keep one per worker. A fresh
/// scratch warms up over the first query (buffers grow to the query's
/// working-set size) and then stops allocating;
/// [`regrowths`](Self::regrowths) counts how many buffer growth events
/// have happened, so tests can assert a warmed scratch stays
/// allocation-free.
#[derive(Debug, Default)]
pub struct QueryScratch {
    pub(crate) children: Vec<CellCoord>,
    pub(crate) x: Vec<f64>,
    pub(crate) ranges: Vec<(f64, f64)>,
    pub(crate) frontier: BinaryHeap<Region>,
    pub(crate) alive: Vec<usize>,
    pub(crate) partial: Vec<f64>,
    pub(crate) lows: Vec<f64>,
    pub(crate) qcoeff: Vec<f64>,
    pub(crate) qmeta: Vec<f64>,
    regrowths: u64,
}

impl QueryScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Cumulative number of internal-buffer growth events since creation.
    /// Stable across two identical consecutive queries ⇔ the second query
    /// allocated nothing.
    pub fn regrowths(&self) -> u64 {
        self.regrowths
    }
}

/// Capacity snapshot used to detect buffer regrowth across one engine run.
pub(crate) struct ScratchCaps([usize; 9]);

impl QueryScratch {
    pub(crate) fn caps(&self) -> ScratchCaps {
        ScratchCaps([
            self.children.capacity(),
            self.x.capacity(),
            self.ranges.capacity(),
            self.frontier.capacity(),
            self.alive.capacity(),
            self.partial.capacity(),
            self.lows.capacity(),
            self.qcoeff.capacity(),
            self.qmeta.capacity(),
        ])
    }

    pub(crate) fn note_regrowth(&mut self, before: &ScratchCaps) {
        let after = self.caps();
        self.regrowths += after
            .0
            .iter()
            .zip(before.0.iter())
            .map(|(a, b)| u64::from(a > b))
            .sum::<u64>();
    }
}

/// A scored grid cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredCell {
    /// Base-resolution cell.
    pub cell: CellCoord,
    /// Exact model value at the cell.
    pub score: f64,
}

/// Result of a grid engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTopK {
    /// Top-K cells, descending score.
    pub results: Vec<ScoredCell>,
    /// Work accounting.
    pub effort: EffortReport,
}

/// Result of a tuple engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleTopK {
    /// Top-K tuples, descending score.
    pub results: Vec<ScoredItem>,
    /// Work accounting.
    pub effort: EffortReport,
}

/// Progressive-model scan over flat tuples (the `p_m` engine).
///
/// Terms are added one stage at a time in contribution order; after each
/// stage, candidates whose upper bound is below the K-th best lower bound
/// are dropped. Each stage costs one multiply-add per surviving candidate,
/// so the total is `Σ_s alive(s)` against the naive `n·N`.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for `k == 0` or an empty tuple list, and
/// [`CoreError::Model`] for arity mismatches.
pub fn staged_top_k(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
) -> Result<TupleTopK, CoreError> {
    staged_top_k_with_scratch(model, tuples, k, &mut QueryScratch::new())
}

/// [`staged_top_k`] with candidate/partial-sum/lower-bound buffers reused
/// from `scratch` — the allocation-free form for callers issuing many
/// queries. Results are bit-identical to [`staged_top_k`].
///
/// # Errors
///
/// Same as [`staged_top_k`].
pub fn staged_top_k_with_scratch(
    model: &ProgressiveLinearModel,
    tuples: &[Vec<f64>],
    k: usize,
    scratch: &mut QueryScratch,
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
    let order = model.term_order();
    let coeffs = model.model().coefficients();
    let ranges = model.ranges();

    let caps = scratch.caps();
    let QueryScratch {
        alive,
        partial,
        lows,
        ..
    } = scratch;

    // Incremental partial sums: one multiply-add per stage per candidate.
    alive.clear();
    alive.extend(0..tuples.len());
    partial.clear();
    partial.resize(tuples.len(), model.model().intercept());
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: (n_terms * tuples.len()) as u64,
    };
    for stage in 1..=n_terms {
        let term = order[stage - 1];
        let (rlo, rhi) = ranges[term];
        for &idx in alive.iter() {
            partial[idx] += coeffs[term] * tuples[idx][term].clamp(rlo, rhi);
            effort.multiply_adds += 1;
        }
        if stage == n_terms {
            break;
        }
        // Interval for candidate idx: partial + suffix_mid ± residual —
        // reconstructed via the model's stage bound helpers through one
        // representative evaluation (cheap: residual and suffix midpoint
        // are stage constants).
        let probe = model.evaluate_stage(&tuples[alive[0]], stage);
        let center_offset = probe.lo + probe.hi;
        let probe_partial = partial[alive[0]];
        let suffix_mid = center_offset / 2.0 - probe_partial;
        let half_width = (probe.hi - probe.lo) / 2.0;

        // K-th largest lower bound among the alive.
        lows.clear();
        lows.extend(
            alive
                .iter()
                .map(|&idx| partial[idx] + suffix_mid - half_width),
        );
        if lows.len() > k {
            lows.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
            let floor = lows[k - 1];
            alive.retain(|&idx| partial[idx] + suffix_mid + half_width >= floor);
        }
    }
    let mut heap = TopKHeap::new(k);
    for &idx in alive.iter() {
        heap.offer(ScoredItem {
            index: idx,
            score: partial[idx],
        });
    }
    scratch.note_regrowth(&caps);
    Ok(TupleTopK {
        results: heap.into_sorted(),
        effort,
    })
}

/// [`staged_top_k`] over grid cells, with attribute values pulled through a
/// [`CellSource`] instead of a resident tuple list.
///
/// Cells are enumerated row-major, so a result's `index` is
/// `row * cols + col`. The staged engine touches every tuple at stage 1
/// anyway, so the source is drained upfront; failures are strict (any
/// failed read aborts the query).
///
/// # Errors
///
/// Same as [`staged_top_k`], plus [`CoreError::Archive`] for failed base
/// reads.
pub fn staged_grid_top_k<S: CellSource>(
    model: &ProgressiveLinearModel,
    source: &S,
    rows: usize,
    cols: usize,
    k: usize,
) -> Result<TupleTopK, CoreError> {
    if rows == 0 || cols == 0 {
        return Err(CoreError::Query("empty grid".into()));
    }
    let mut tuples = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            tuples.push(read_base_vector(source, model.stages(), r, c)?);
        }
    }
    staged_top_k(model, &tuples, k)
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Region {
    pub(crate) ub: f64,
    pub(crate) level: usize,
    pub(crate) row: usize,
    pub(crate) col: usize,
}

impl PartialEq for Region {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Region {}
impl PartialOrd for Region {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Region {
    /// A *total* order: upper bound first, then coordinates as a
    /// tie-break (smaller coordinates pop first from the max-heap). With
    /// ub-only ordering, equal-bound regions would pop in
    /// insertion-history order, so a coarse pass that prunes some pushes
    /// (see [`crate::coarse`]) could reorder the survivors' evaluation;
    /// the deterministic tie-break is what keeps pruned and unpruned runs
    /// bit-identical.
    fn cmp(&self, other: &Self) -> Ordering {
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| other.level.cmp(&self.level))
            .then_with(|| other.row.cmp(&self.row))
            .then_with(|| other.col.cmp(&self.col))
    }
}

/// Progressive-data engine (the `p_d` engine): best-first quad-descent over
/// per-attribute aggregate pyramids with full-model box bounds.
///
/// # Errors
///
/// Returns [`CoreError::Query`] for `k == 0`, empty/misaligned pyramids, or
/// a pyramid/model arity mismatch.
pub fn pyramid_top_k(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<GridTopK, CoreError> {
    pyramid_top_k_with_source(model, pyramids, k, &PyramidSource::new(pyramids))
}

/// [`pyramid_top_k`] with base-level reads routed through a [`CellSource`].
///
/// The pyramids act as the resident bounding index; exact base values come
/// from `source` (e.g. a paged [`TileSource`](crate::source::TileSource)).
/// Execution is strict: any failed base read aborts the query. For
/// skip-and-degrade semantics use
/// [`resilient_top_k`](crate::resilient::resilient_top_k).
///
/// # Errors
///
/// Same as [`pyramid_top_k`], plus [`CoreError::Archive`] for failed base
/// reads.
pub fn pyramid_top_k_with_source<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
) -> Result<GridTopK, CoreError> {
    pyramid_top_k_with_scratch(model, pyramids, k, source, &mut QueryScratch::new())
}

/// [`pyramid_top_k_with_source`] with the frontier, child list, range box,
/// and attribute vector reused from `scratch` — the steady-state descent
/// loop performs no heap allocation once the scratch has warmed up.
/// Results are bit-identical to [`pyramid_top_k_with_source`].
///
/// # Errors
///
/// Same as [`pyramid_top_k_with_source`].
pub fn pyramid_top_k_with_scratch<S: CellSource>(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    scratch: &mut QueryScratch,
) -> Result<GridTopK, CoreError> {
    let (shape, levels) = validate_grid_inputs(model, pyramids, k)?;
    let (rows, cols) = shape;
    let n = model.arity() as u64;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * (rows * cols) as u64,
    };
    let caps = scratch.caps();
    let QueryScratch {
        children,
        x,
        ranges,
        frontier,
        ..
    } = scratch;
    frontier.clear();
    let mut heap = TopKHeap::new(k);
    let top = levels - 1;
    let root_bound = region_bound_into(model, pyramids, top, 0, 0, ranges, &mut effort)?;
    frontier.push(Region {
        ub: root_bound,
        level: top,
        row: 0,
        col: 0,
    });
    let mut results = Vec::new();
    while let Some(region) = frontier.pop() {
        if let Some(floor) = heap.floor() {
            if floor >= region.ub {
                break;
            }
        }
        if region.level == 0 {
            // Exact evaluation at base resolution, through the source.
            read_base_vector_into(source, model.arity(), region.row, region.col, x)?;
            effort.multiply_adds += n;
            heap.offer(ScoredItem {
                index: region.row * cols + region.col,
                score: model.evaluate(x),
            });
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
    for item in heap.into_sorted() {
        results.push(ScoredCell {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            score: item.score,
        });
    }
    scratch.note_regrowth(&caps);
    Ok(GridTopK { results, effort })
}

/// Reads the full attribute vector of one base cell through a source.
pub(crate) fn read_base_vector<S: CellSource>(
    source: &S,
    arity: usize,
    row: usize,
    col: usize,
) -> Result<Vec<f64>, CoreError> {
    let mut out = Vec::with_capacity(arity);
    read_base_vector_into(source, arity, row, col, &mut out)?;
    Ok(out)
}

/// [`read_base_vector`] into a reused buffer (cleared first).
pub(crate) fn read_base_vector_into<S: CellSource>(
    source: &S,
    arity: usize,
    row: usize,
    col: usize,
    out: &mut Vec<f64>,
) -> Result<(), CoreError> {
    out.clear();
    for attr in 0..arity {
        out.push(
            source
                .base_cell(attr, row, col)
                .map_err(CoreError::Archive)?,
        );
    }
    Ok(())
}

/// Combined engine (`p_m · p_d`): quad-descent where coarse levels are
/// bounded with *truncated* models. Level `l` of `L` uses the first
/// `ceil(arity · (L - l) / L)` contribution-ranked terms, so the root is
/// bounded almost for free and bounds sharpen as regions shrink.
///
/// # Errors
///
/// Same as [`pyramid_top_k`].
pub fn combined_top_k(
    model: &ProgressiveLinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<GridTopK, CoreError> {
    combined_top_k_with_source(model, pyramids, k, &PyramidSource::new(pyramids))
}

/// [`combined_top_k`] with base-level reads routed through a [`CellSource`].
///
/// Strict execution: a failed base read aborts the query (see
/// [`pyramid_top_k_with_source`] for the contract).
///
/// # Errors
///
/// Same as [`combined_top_k`], plus [`CoreError::Archive`] for failed base
/// reads.
pub fn combined_top_k_with_source<S: CellSource>(
    model: &ProgressiveLinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
) -> Result<GridTopK, CoreError> {
    combined_top_k_with_scratch(model, pyramids, k, source, &mut QueryScratch::new())
}

/// [`combined_top_k_with_source`] with frontier/child/attribute buffers
/// reused from `scratch` (see [`pyramid_top_k_with_scratch`]). Results are
/// bit-identical to [`combined_top_k_with_source`].
///
/// # Errors
///
/// Same as [`combined_top_k_with_source`].
pub fn combined_top_k_with_scratch<S: CellSource>(
    model: &ProgressiveLinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
    source: &S,
    scratch: &mut QueryScratch,
) -> Result<GridTopK, CoreError> {
    let (shape, levels) = validate_grid_inputs(model.model(), pyramids, k)?;
    let (rows, cols) = shape;
    let n_terms = model.stages();
    let n = n_terms as u64;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * (rows * cols) as u64,
    };
    let stage_for_level = |level: usize| -> usize {
        if level == 0 {
            n_terms
        } else {
            // Coarser level -> fewer terms, never below 1.
            let frac = (levels - level) as f64 / levels as f64;
            ((n_terms as f64 * frac).ceil() as usize).clamp(1, n_terms)
        }
    };
    let caps = scratch.caps();
    let QueryScratch {
        children,
        x,
        frontier,
        ..
    } = scratch;
    frontier.clear();
    let mut heap = TopKHeap::new(k);
    let top = levels - 1;
    let root_ub = staged_region_bound(
        model,
        pyramids,
        top,
        0,
        0,
        stage_for_level(top),
        &mut effort,
    )?;
    frontier.push(Region {
        ub: root_ub,
        level: top,
        row: 0,
        col: 0,
    });
    let mut results = Vec::new();
    while let Some(region) = frontier.pop() {
        if let Some(floor) = heap.floor() {
            if floor >= region.ub {
                break;
            }
        }
        if region.level == 0 {
            read_base_vector_into(source, n_terms, region.row, region.col, x)?;
            effort.multiply_adds += n;
            heap.offer(ScoredItem {
                index: region.row * cols + region.col,
                score: model.evaluate_exact(x),
            });
            continue;
        }
        let child_stage = stage_for_level(region.level - 1);
        pyramids[0].children_into(region.level, region.row, region.col, children);
        for child in children.iter() {
            let ub = staged_region_bound(
                model,
                pyramids,
                region.level - 1,
                child.row,
                child.col,
                child_stage,
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
    for item in heap.into_sorted() {
        results.push(ScoredCell {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            score: item.score,
        });
    }
    scratch.note_regrowth(&caps);
    Ok(GridTopK { results, effort })
}

/// Naive full scan over the pyramids' base level — the §4.2 `O(nN)`
/// baseline, exposed so experiments can measure against it directly.
///
/// # Errors
///
/// Same validation as [`pyramid_top_k`].
pub fn naive_grid_top_k(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<GridTopK, CoreError> {
    let ((rows, cols), _) = validate_grid_inputs(model, pyramids, k)?;
    let n = model.arity() as u64;
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * (rows * cols) as u64,
    };
    let mut heap = TopKHeap::new(k);
    for r in 0..rows {
        for c in 0..cols {
            let x: Vec<f64> = pyramids
                .iter()
                .map(|p| p.cell(0, r, c).map(|s| s.mean).expect("in-bounds"))
                .collect();
            effort.multiply_adds += n;
            heap.offer(ScoredItem {
                index: r * cols + c,
                score: model.evaluate(&x),
            });
        }
    }
    let results = heap
        .into_sorted()
        .into_iter()
        .map(|item| ScoredCell {
            cell: CellCoord::new(item.index / cols, item.index % cols),
            score: item.score,
        })
        .collect();
    Ok(GridTopK { results, effort })
}

/// Query-directed grid retrieval: dispatches on the [`TopKQuery`]'s
/// objective by negating the model for minimization (scores reported are
/// the *original* model values, ascending for a minimizing query).
///
/// # Errors
///
/// Same as [`pyramid_top_k`].
pub fn grid_query(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    query: TopKQuery,
) -> Result<GridTopK, CoreError> {
    match query.objective() {
        Objective::Maximize => pyramid_top_k(model, pyramids, query.k()),
        Objective::Minimize => {
            let negated = LinearModel::new(
                model.coefficients().iter().map(|a| -a).collect(),
                -model.intercept(),
            )
            .map_err(CoreError::Model)?;
            let mut result = pyramid_top_k(&negated, pyramids, query.k())?;
            for sc in &mut result.results {
                sc.score = -sc.score;
            }
            Ok(result)
        }
    }
}

pub(crate) fn validate_grid_inputs(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    k: usize,
) -> Result<((usize, usize), usize), CoreError> {
    if k == 0 {
        return Err(CoreError::Query("k must be >= 1".into()));
    }
    if pyramids.is_empty() {
        return Err(CoreError::Query("no attribute pyramids supplied".into()));
    }
    if pyramids.len() != model.arity() {
        return Err(CoreError::Query(format!(
            "model arity {} but {} pyramids",
            model.arity(),
            pyramids.len()
        )));
    }
    let shape = pyramids[0].base_shape();
    let levels = pyramids[0].levels();
    for p in pyramids {
        if p.base_shape() != shape || p.levels() != levels {
            return Err(CoreError::Query("pyramids must share a shape".into()));
        }
    }
    Ok((shape, levels))
}

/// Full-model interval upper bound over a pyramid region, with the
/// per-attribute range box assembled in a reused buffer (cleared first)
/// instead of a fresh allocation per call.
pub(crate) fn region_bound_into(
    model: &LinearModel,
    pyramids: &[AggregatePyramid],
    level: usize,
    row: usize,
    col: usize,
    ranges: &mut Vec<(f64, f64)>,
    effort: &mut EffortReport,
) -> Result<f64, CoreError> {
    ranges.clear();
    for p in pyramids {
        let s = p.cell(level, row, col)?;
        ranges.push((s.min, s.max));
    }
    effort.multiply_adds += model.arity() as u64;
    let (_, hi) = model.bound_over_box(ranges)?;
    Ok(hi)
}

/// Truncated-model interval upper bound: the first `stage` ranked terms use
/// the region box; the rest contribute their *global* residual envelope.
fn staged_region_bound(
    model: &ProgressiveLinearModel,
    pyramids: &[AggregatePyramid],
    level: usize,
    row: usize,
    col: usize,
    stage: usize,
    effort: &mut EffortReport,
) -> Result<f64, CoreError> {
    let coeffs = model.model().coefficients();
    let mut hi = model.model().intercept();
    for &term in &model.term_order()[..stage] {
        let s = pyramids[term].cell(level, row, col)?;
        let a = coeffs[term];
        hi += if a >= 0.0 { a * s.max } else { a * s.min };
        effort.multiply_adds += 1;
    }
    // Global envelope of the unevaluated suffix, a stage constant baked
    // into the progressive model: suffix_mid + residual == max suffix.
    let suffix_hi = suffix_upper(model, stage);
    Ok(hi + suffix_hi)
}

/// Max possible contribution of the terms after `stage` (over the global
/// attribute ranges the progressive model was built with).
fn suffix_upper(model: &ProgressiveLinearModel, stage: usize) -> f64 {
    let coeffs = model.model().coefficients();
    let ranges = model.ranges();
    model.term_order()[stage..]
        .iter()
        .map(|&term| {
            let a = coeffs[term];
            let (lo, hi) = ranges[term];
            if a >= 0.0 {
                a * hi
            } else {
                a * lo
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbir_archive::grid::Grid2;
    use proptest::prelude::*;

    #[test]
    fn effort_report_distinguishes_zero_work_from_break_even() {
        let idle = EffortReport {
            multiply_adds: 0,
            naive_multiply_adds: 1000,
        };
        assert_eq!(idle.speedup_checked(), None);
        assert_eq!(idle.speedup(), 1.0); // neutral placeholder
        assert_eq!(
            idle.to_string(),
            "0 of 1000 multiply-adds (no work performed; speedup undefined)"
        );
        let break_even = EffortReport {
            multiply_adds: 1000,
            naive_multiply_adds: 1000,
        };
        assert_eq!(break_even.speedup_checked(), Some(1.0));
        assert_eq!(
            break_even.to_string(),
            "1000 of 1000 multiply-adds (1.00x speedup)"
        );
    }

    #[test]
    fn effort_report_sums_field_by_field() {
        let a = EffortReport {
            multiply_adds: 3,
            naive_multiply_adds: 10,
        };
        let b = EffortReport {
            multiply_adds: 7,
            naive_multiply_adds: 90,
        };
        assert_eq!(
            a + b,
            EffortReport {
                multiply_adds: 10,
                naive_multiply_adds: 100,
            }
        );
        let mut acc = EffortReport::default();
        acc += a;
        acc += b;
        assert_eq!(acc, a + b);
        let summed: EffortReport = [a, b].into_iter().sum();
        assert_eq!(summed, a + b);
    }

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
    fn pyramid_engine_matches_naive() {
        let (model, pyramids) = build_inputs(1, 40, 56, 3);
        for k in [1usize, 5, 17] {
            let fast = pyramid_top_k(&model, &pyramids, k).unwrap();
            let slow = naive_grid_top_k(&model, &pyramids, k).unwrap();
            let fs: Vec<f64> = fast.results.iter().map(|r| r.score).collect();
            let ss: Vec<f64> = slow.results.iter().map(|r| r.score).collect();
            for (a, b) in fs.iter().zip(&ss) {
                assert!((a - b).abs() < 1e-9, "k={k}: {fs:?} vs {ss:?}");
            }
            // No speedup assertion here: these grids are spatially
            // uncorrelated noise, the worst case for region bounds (the
            // smooth-data case below demonstrates the speedup).
        }
    }

    #[test]
    fn pyramid_engine_speeds_up_on_smooth_data() {
        let rows = 64;
        let cols = 64;
        let pyramids: Vec<AggregatePyramid> = (0..3)
            .map(|i| {
                AggregatePyramid::build(&Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 7.0 + i as f64).sin() + (c as f64 / 13.0).cos()) * 40.0
                }))
            })
            .collect();
        let model = LinearModel::new(vec![1.0, 0.5, -0.75], 0.0).unwrap();
        let fast = pyramid_top_k(&model, &pyramids, 3).unwrap();
        let slow = naive_grid_top_k(&model, &pyramids, 3).unwrap();
        for (a, b) in fast.results.iter().zip(&slow.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        assert!(
            fast.effort.speedup() > 2.0,
            "smooth data should prune well, got {}",
            fast.effort.speedup()
        );
    }

    #[test]
    fn staged_engine_matches_scan() {
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
            let fast = staged_top_k(&prog, &tuples, k).unwrap();
            let slow = mbir_index::scan::scan_top_k(&tuples, k, |t| model.evaluate(t));
            for (a, b) in fast.results.iter().zip(&slow.results) {
                assert!((a.score - b.score).abs() < 1e-9, "k={k}");
            }
            assert!(
                fast.effort.multiply_adds < fast.effort.naive_multiply_adds,
                "pruning must save work"
            );
        }
    }

    #[test]
    fn combined_engine_matches_naive_and_beats_singletons() {
        // Smooth data (spatial structure) + skewed coefficients: the regime
        // where both progressive axes pay off.
        let rows = 64;
        let cols = 64;
        let smooth: Vec<AggregatePyramid> = (0..4)
            .map(|i| {
                AggregatePyramid::build(&Grid2::from_fn(rows, cols, |r, c| {
                    ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
                }))
            })
            .collect();
        let model = LinearModel::new(vec![5.0, 0.8, 0.1, 0.02], 0.0).unwrap();
        let prog = progressive_of(&model, &smooth);
        let k = 5;
        let naive = naive_grid_top_k(&model, &smooth, k).unwrap();
        let data_only = pyramid_top_k(&model, &smooth, k).unwrap();
        let both = combined_top_k(&prog, &smooth, k).unwrap();
        for (a, b) in both.results.iter().zip(&naive.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        for (a, b) in data_only.results.iter().zip(&naive.results) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        assert!(data_only.effort.speedup() > 1.0);
        assert!(
            both.effort.multiply_adds <= data_only.effort.multiply_adds,
            "truncated bounds must not cost more: {} vs {}",
            both.effort.multiply_adds,
            data_only.effort.multiply_adds
        );
    }

    #[test]
    fn engines_validate_inputs() {
        let (model, pyramids) = build_inputs(5, 8, 8, 2);
        assert!(pyramid_top_k(&model, &pyramids, 0).is_err());
        assert!(pyramid_top_k(&model, &pyramids[..1], 1).is_err());
        let prog = progressive_of(&model, &pyramids);
        assert!(staged_top_k(&prog, &[], 1).is_err());
        assert!(staged_top_k(&prog, &[vec![1.0]], 1).is_err());
        let other = AggregatePyramid::build(&pseudo_grid(9, 4, 4));
        assert!(pyramid_top_k(&model, &[pyramids[0].clone(), other], 1).is_err());
    }

    #[test]
    fn grid_query_minimize_mirrors_maximize() {
        use crate::query::{Objective, TopKQuery};
        let (model, pyramids) = build_inputs(13, 16, 16, 3);
        let min_query = TopKQuery::new(5, Objective::Minimize).unwrap();
        let minimized = grid_query(&model, &pyramids, min_query).unwrap();
        // Reference: naive scan, ascending.
        let naive = naive_grid_top_k(
            &LinearModel::new(
                model.coefficients().iter().map(|a| -a).collect(),
                -model.intercept(),
            )
            .unwrap(),
            &pyramids,
            5,
        )
        .unwrap();
        for (got, want) in minimized.results.iter().zip(&naive.results) {
            assert!((got.score + want.score).abs() < 1e-9);
        }
        // Scores ascend for a minimizing query.
        for pair in minimized.results.windows(2) {
            assert!(pair[0].score <= pair[1].score + 1e-12);
        }
        // Maximize path delegates to pyramid_top_k.
        let max_query = TopKQuery::max(5).unwrap();
        let maximized = grid_query(&model, &pyramids, max_query).unwrap();
        let direct = pyramid_top_k(&model, &pyramids, 5).unwrap();
        assert_eq!(maximized.results, direct.results);
    }

    #[test]
    fn warmed_scratch_stops_allocating() {
        // Acceptance gate for the allocation-free steady state: the first
        // query may grow the scratch buffers, but a second identical query
        // through the same scratch must add zero regrowth events — i.e.
        // the descent loop performs no heap allocation once warm.
        use crate::source::PyramidSource;
        let (model, pyramids) = build_inputs(21, 48, 48, 3);
        let source = PyramidSource::new(&pyramids);
        let mut scratch = QueryScratch::new();
        let first =
            pyramid_top_k_with_scratch(&model, &pyramids, 5, &source, &mut scratch).unwrap();
        let warm = scratch.regrowths();
        let second =
            pyramid_top_k_with_scratch(&model, &pyramids, 5, &source, &mut scratch).unwrap();
        assert_eq!(first, second, "scratch reuse must not change results");
        assert_eq!(
            scratch.regrowths(),
            warm,
            "steady-state pyramid descent must not grow any buffer"
        );

        let prog = progressive_of(&model, &pyramids);
        let first =
            combined_top_k_with_scratch(&prog, &pyramids, 5, &source, &mut scratch).unwrap();
        let warm = scratch.regrowths();
        let second =
            combined_top_k_with_scratch(&prog, &pyramids, 5, &source, &mut scratch).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            scratch.regrowths(),
            warm,
            "steady-state combined descent must not grow any buffer"
        );

        let tuples: Vec<Vec<f64>> = (0..48 * 48)
            .map(|i| {
                (0..3)
                    .map(|a| pyramids[a].cell(0, i / 48, i % 48).unwrap().mean)
                    .collect()
            })
            .collect();
        let first = staged_top_k_with_scratch(&prog, &tuples, 5, &mut scratch).unwrap();
        let warm = scratch.regrowths();
        let second = staged_top_k_with_scratch(&prog, &tuples, 5, &mut scratch).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            scratch.regrowths(),
            warm,
            "steady-state staged scan must not grow any buffer"
        );
    }

    #[test]
    fn scratch_engines_match_allocating_engines_bitwise() {
        use crate::source::PyramidSource;
        let (model, pyramids) = build_inputs(33, 20, 28, 4);
        let source = PyramidSource::new(&pyramids);
        let prog = progressive_of(&model, &pyramids);
        let mut scratch = QueryScratch::new();
        for k in [1usize, 4, 9] {
            assert_eq!(
                pyramid_top_k_with_scratch(&model, &pyramids, k, &source, &mut scratch).unwrap(),
                pyramid_top_k(&model, &pyramids, k).unwrap(),
                "pyramid k={k}"
            );
            assert_eq!(
                combined_top_k_with_scratch(&prog, &pyramids, k, &source, &mut scratch).unwrap(),
                combined_top_k(&prog, &pyramids, k).unwrap(),
                "combined k={k}"
            );
        }
    }

    #[test]
    fn k_larger_than_grid_returns_all_cells() {
        let (model, pyramids) = build_inputs(7, 3, 3, 2);
        let r = pyramid_top_k(&model, &pyramids, 100).unwrap();
        assert_eq!(r.results.len(), 9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(25))]
        #[test]
        fn prop_all_engines_agree(
            seed in 0u64..300,
            rows in 2usize..20,
            cols in 2usize..20,
            arity in 1usize..5,
            k in 1usize..8,
        ) {
            let (model, pyramids) = build_inputs(seed, rows, cols, arity);
            let prog = progressive_of(&model, &pyramids);
            let naive = naive_grid_top_k(&model, &pyramids, k).unwrap();
            let fast = pyramid_top_k(&model, &pyramids, k).unwrap();
            let both = combined_top_k(&prog, &pyramids, k).unwrap();
            for (a, b) in fast.results.iter().zip(&naive.results) {
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
            for (a, b) in both.results.iter().zip(&naive.results) {
                prop_assert!((a.score - b.score).abs() < 1e-9);
            }
        }
    }
}
