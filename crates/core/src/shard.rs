//! Fault-domain sharded scatter-gather retrieval.
//!
//! The paper's "large archives" premise implies data that outgrows one
//! store. This module partitions the grid into contiguous *row-band
//! shards*, each an independent failure domain with its own resident
//! aggregate pyramids and its own [`CellSource`] (typically a
//! [`ReplicatedSource`](crate::replica::ReplicatedSource) with its own
//! circuit breakers, cache, and quarantine). [`scatter_gather_top_k`]
//! fans one top-K query out across the shards through the
//! [`WorkerPool`], and gathers a merged answer that stays *provably
//! sound* no matter which shards degrade, straggle, or die:
//!
//! * **Cross-shard bound propagation.** Every shard descent prunes
//!   against `max(local K-th floor, shared bound)` and publishes its
//!   floors through one [`SharedBound`], exactly like the parallel
//!   engine's workers — a hot shard's floor makes a lagging shard skip
//!   whole subtrees. Because a published floor is the K-th best of a
//!   *subset* of the evaluated cells, it never exceeds the true global
//!   K-th score, so no true top-K cell is ever pruned and the healthy
//!   merged answer is bit-identical to the unsharded resilient engine
//!   at every shard count and thread count (absent exact score ties at
//!   the K-th boundary; DESIGN.md §13).
//! * **Per-shard fault domains.** A shard's lost pages, quarantine, and
//!   corruption degrade only that shard's contribution. The gather step
//!   resolves each shard's lost cells and unrefined frontier against the
//!   deterministic merged K-th floor — the same exclusion rule as the
//!   unsharded engines — so the degradation report is reproducible.
//! * **Straggler mitigation.** [`ScatterPolicy::shard_soft_deadline_ticks`]
//!   imposes a per-shard soft deadline on the shard's own virtual tick
//!   clock. A shard that trips it is re-dispatched once with the soft
//!   deadline lifted (PR 5's hedging discipline: the first clean finish
//!   wins and the losing attempt's output is discarded wholesale — it
//!   leaves no state in the merge).
//! * **Quorum semantics.** [`CompletionPolicy`] decides how many shards
//!   must respond: `RequireAll`, `Quorum(m)`, or `BestEffort`. A shard
//!   that errored, or whose every attempted page read failed, counts as
//!   *failed*; when fewer than the required number respond the query
//!   returns a typed [`InsufficientShards`] error instead of a silently
//!   truncated answer.
//! * **Sound partial results.** A failed shard's whole band is carried
//!   as a degraded candidate bounded by its resident root aggregate (or
//!   its lost cells' parent aggregates), widening the merged score
//!   bounds, and its unaccounted cells lower the merged
//!   [`completeness`](ShardedTopK::completeness) — a degraded shard can
//!   never silently flip the fused top-K.
//!
//! Every public scatter entry point — [`scatter_gather_top_k`] and its
//! cancellable form, [`scatter_gather_top_k_dual`] and
//! [`batched_scatter_gather_top_k`] — runs one private driver. They
//! differ only in the batch of models, the per-shard descent kernel and
//! whether a dual-read destination wave runs (DESIGN.md §13).

use crate::batched::CELL_MEMO_WINDOW;
use crate::batched::{cell_key, BoundMemo, CellSlot, MemoGovernor, MemoMap, Selector};
use crate::coarse::CoarseGrid;
use crate::engine::{
    read_base_vector_into, region_bound_into, validate_grid_inputs, EffortReport, QueryScratch,
    Region,
};
use crate::error::CoreError;
use crate::lifecycle::CancelToken;
use crate::parallel::{SharedBound, WorkerPool};
use crate::resilient::{
    checkpoint_stop, region_candidate, BudgetStop, ExecutionBudget, ResilientHit, ScoreBounds,
    WallDeadline,
};
use crate::source::CellSource;
use mbir_archive::error::ArchiveError;
use mbir_archive::extent::CellCoord;
use mbir_archive::shard::TopologyEpoch;
use mbir_index::scan::TopKHeap;
use mbir_index::stats::{sort_desc, ScoredItem};
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::collections::{BTreeSet, BinaryHeap};
use std::error::Error;
use std::fmt;

/// One shard of a [`ShardedArchive`]: a contiguous row band of the global
/// grid, with its own resident attribute pyramids (built over the band)
/// and its own fallible page source.
#[derive(Debug, Clone, Copy)]
pub struct ArchiveShard<'a, S> {
    pyramids: &'a [AggregatePyramid],
    source: &'a S,
    row_offset: usize,
    coarse: Option<&'a CoarseGrid>,
}

impl<'a, S: CellSource> ArchiveShard<'a, S> {
    /// Wraps one shard's band pyramids and source. `row_offset` is the
    /// global row of the band's first local row.
    pub fn new(pyramids: &'a [AggregatePyramid], source: &'a S, row_offset: usize) -> Self {
        ArchiveShard {
            pyramids,
            source,
            row_offset,
            coarse: None,
        }
    }

    /// Attaches a quantized [`CoarseGrid`] built over this shard's own
    /// band pyramids (builder style). The shard's descent then rejects
    /// child regions strictly below its pruning bound from the i8 side
    /// structure before computing any exact bound — prune-only (see
    /// [`crate::coarse`]), so merged answers are unchanged bit-for-bit.
    pub fn with_coarse(mut self, coarse: &'a CoarseGrid) -> Self {
        self.coarse = Some(coarse);
        self
    }

    /// The shard's resident attribute pyramids (one per model attribute).
    pub fn pyramids(&self) -> &'a [AggregatePyramid] {
        self.pyramids
    }

    /// The shard's page source.
    pub fn source(&self) -> &'a S {
        self.source
    }

    /// Global row of the band's first local row.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// Band height in rows (0 if the shard has no pyramids).
    pub fn rows(&self) -> usize {
        self.pyramids.first().map_or(0, |p| p.base_shape().0)
    }

    /// Band width in columns (0 if the shard has no pyramids).
    pub fn cols(&self) -> usize {
        self.pyramids.first().map_or(0, |p| p.base_shape().1)
    }

    /// Base cells in the band.
    pub fn cells(&self) -> u64 {
        (self.rows() * self.cols()) as u64
    }
}

/// A grid archive partitioned into contiguous row-band shards, each an
/// independent failure domain. Validated on construction: bands must
/// tile the global row range contiguously and share one column count.
#[derive(Debug)]
pub struct ShardedArchive<'a, S> {
    shards: Vec<ArchiveShard<'a, S>>,
    rows: usize,
    cols: usize,
    epoch: TopologyEpoch,
}

impl<'a, S: CellSource> ShardedArchive<'a, S> {
    /// Builds the sharded archive from per-shard handles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Query`] when no shards are given, a shard has
    /// no pyramids, column counts differ, or the row bands are not
    /// contiguous from row 0 (topology bugs, not runtime faults).
    pub fn new(shards: Vec<ArchiveShard<'a, S>>) -> Result<Self, CoreError> {
        if shards.is_empty() {
            return Err(CoreError::Query(
                "sharded archive needs at least one shard".into(),
            ));
        }
        let cols = shards[0].cols();
        let mut next_row = 0usize;
        for (i, shard) in shards.iter().enumerate() {
            if shard.pyramids.is_empty() {
                return Err(CoreError::Query(format!(
                    "shard {i} has no attribute pyramids"
                )));
            }
            if shard.cols() != cols {
                return Err(CoreError::Query(format!(
                    "shard {i} has {} columns, shard 0 has {cols}",
                    shard.cols()
                )));
            }
            if shard.row_offset != next_row {
                return Err(CoreError::Query(format!(
                    "shard {i} starts at row {} but the previous band ends at row {next_row}",
                    shard.row_offset
                )));
            }
            next_row += shard.rows();
        }
        Ok(ShardedArchive {
            shards,
            rows: next_row,
            cols,
            epoch: TopologyEpoch::ZERO,
        })
    }

    /// Stamps the archive with the [`TopologyEpoch`] it serves (builder
    /// style). Queries whose [`ScatterPolicy`] pins a different epoch are
    /// rejected with a typed [`EpochMismatch`] before any shard is
    /// touched. A fresh archive serves [`TopologyEpoch::ZERO`].
    pub fn with_epoch(mut self, epoch: TopologyEpoch) -> Self {
        self.epoch = epoch;
        self
    }

    /// The topology epoch this archive serves.
    pub fn epoch(&self) -> TopologyEpoch {
        self.epoch
    }

    /// The per-shard handles, in band order.
    pub fn shards(&self) -> &[ArchiveShard<'a, S>] {
        &self.shards
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Global grid shape `(rows, cols)` covered by the bands.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total base cells across all shards.
    pub fn total_cells(&self) -> u64 {
        (self.rows * self.cols) as u64
    }
}

/// How many shards must respond before a scatter-gather answer is
/// returned at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionPolicy {
    /// Every shard must respond; any failed shard fails the query.
    RequireAll,
    /// At least `m` shards must respond (clamped to the shard count).
    Quorum(usize),
    /// Answer with whatever responded, even if every shard failed.
    BestEffort,
}

impl CompletionPolicy {
    /// Responding shards required out of `total` under this policy.
    pub fn required(&self, total: usize) -> usize {
        match self {
            CompletionPolicy::RequireAll => total,
            CompletionPolicy::Quorum(m) => (*m).min(total),
            CompletionPolicy::BestEffort => 0,
        }
    }
}

impl fmt::Display for CompletionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionPolicy::RequireAll => f.write_str("require-all"),
            CompletionPolicy::Quorum(m) => write!(f, "quorum({m})"),
            CompletionPolicy::BestEffort => f.write_str("best-effort"),
        }
    }
}

/// Scatter-gather execution policy: completion quorum plus straggler
/// mitigation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterPolicy {
    /// Shards required for an answer (see [`CompletionPolicy`]).
    pub completion: CompletionPolicy,
    /// Per-shard soft deadline in virtual I/O ticks, measured on each
    /// shard's own tick clock from its attempt start. A shard stopping on
    /// this deadline is a *straggler*; with
    /// [`hedge_stragglers`](Self::hedge_stragglers) it is re-dispatched
    /// once without the soft deadline. `None` disables the soft deadline.
    /// Only engaged when it is tighter than the caller budget's own
    /// [`deadline_ticks`](ExecutionBudget::deadline_ticks).
    pub shard_soft_deadline_ticks: Option<u64>,
    /// Whether shards that trip the soft deadline get one hedged
    /// re-dispatch (first clean finish wins; the loser's output is
    /// discarded wholesale).
    pub hedge_stragglers: bool,
    /// The [`TopologyEpoch`] the query was planned against. When set,
    /// the scatter step rejects an archive serving any other epoch with
    /// a typed [`EpochMismatch`] — the live-resharding fence that keeps
    /// a query from silently spanning two topologies mid-migration.
    /// `None` accepts whatever epoch the archive serves.
    pub epoch_fence: Option<TopologyEpoch>,
}

impl ScatterPolicy {
    /// `RequireAll`, no soft deadline, no hedging, no epoch fence.
    pub fn require_all() -> Self {
        ScatterPolicy {
            completion: CompletionPolicy::RequireAll,
            shard_soft_deadline_ticks: None,
            hedge_stragglers: false,
            epoch_fence: None,
        }
    }

    /// Quorum of `m` responding shards, no soft deadline, no hedging.
    pub fn quorum(m: usize) -> Self {
        ScatterPolicy {
            completion: CompletionPolicy::Quorum(m),
            ..ScatterPolicy::require_all()
        }
    }

    /// Best-effort completion, no soft deadline, no hedging.
    pub fn best_effort() -> Self {
        ScatterPolicy {
            completion: CompletionPolicy::BestEffort,
            ..ScatterPolicy::require_all()
        }
    }

    /// Sets the per-shard soft tick deadline (builder style).
    pub fn with_soft_deadline_ticks(mut self, ticks: u64) -> Self {
        self.shard_soft_deadline_ticks = Some(ticks);
        self
    }

    /// Enables hedged re-dispatch of soft-deadline stragglers (builder
    /// style).
    pub fn with_hedged_stragglers(mut self) -> Self {
        self.hedge_stragglers = true;
        self
    }

    /// Pins the query to a [`TopologyEpoch`] (builder style); the query
    /// fails with [`EpochMismatch`] unless the archive serves exactly
    /// that epoch.
    pub fn at_epoch(mut self, epoch: TopologyEpoch) -> Self {
        self.epoch_fence = Some(epoch);
        self
    }
}

impl Default for ScatterPolicy {
    fn default() -> Self {
        ScatterPolicy::require_all()
    }
}

/// Typed quorum failure: fewer shards responded than the completion
/// policy requires. Carries the full tally so callers can log, retry, or
/// relax the policy — mirroring the structured context of
/// [`Overloaded`](crate::lifecycle::Overloaded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsufficientShards {
    /// Shards that produced a usable response (during a dual-read this
    /// includes migrating source shards whose rows were fully covered by
    /// responding destination copies).
    pub responded: usize,
    /// Responding shards the completion policy requires.
    pub required: usize,
    /// Total shards queried.
    pub total: usize,
    /// Indices of the failed shards, ascending. During a dual-read a
    /// shard only lands here when its destination cover failed too.
    pub failed: Vec<usize>,
    /// The topology epoch the tally was taken against, so a caller
    /// retrying around a live migration can tell a quorum loss at the
    /// source epoch from one at the destination epoch.
    pub epoch: TopologyEpoch,
}

impl fmt::Display for InsufficientShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "only {} of {} shards responded at epoch {} ({} required); failed shards: {:?}",
            self.responded, self.total, self.epoch, self.required, self.failed
        )
    }
}

impl Error for InsufficientShards {}

/// Typed epoch-fence rejection: the query pinned a [`TopologyEpoch`]
/// that the archive does not serve. Raised before any shard is touched,
/// so a fenced query never mixes answers from two topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMismatch {
    /// The epoch the query pinned via [`ScatterPolicy::at_epoch`].
    pub requested: TopologyEpoch,
    /// The epoch the archive currently serves.
    pub serving: TopologyEpoch,
}

impl fmt::Display for EpochMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query pinned topology epoch {} but the archive serves {}",
            self.requested, self.serving
        )
    }
}

impl Error for EpochMismatch {}

/// Error from a scatter-gather query: a typed quorum failure, a typed
/// epoch-fence rejection, or a propagated engine error.
#[derive(Debug)]
pub enum ShardError {
    /// Fewer shards responded than the completion policy requires.
    Insufficient(InsufficientShards),
    /// The query pinned a topology epoch the archive does not serve.
    Epoch(EpochMismatch),
    /// An engine error that is not a shard fault (e.g. invalid inputs).
    Core(CoreError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Insufficient(e) => e.fmt(f),
            ShardError::Epoch(e) => e.fmt(f),
            ShardError::Core(e) => e.fmt(f),
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Insufficient(e) => Some(e),
            ShardError::Epoch(e) => Some(e),
            ShardError::Core(e) => Some(e),
        }
    }
}

impl From<InsufficientShards> for ShardError {
    fn from(e: InsufficientShards) -> Self {
        ShardError::Insufficient(e)
    }
}

impl From<EpochMismatch> for ShardError {
    fn from(e: EpochMismatch) -> Self {
        ShardError::Epoch(e)
    }
}

impl From<CoreError> for ShardError {
    fn from(e: CoreError) -> Self {
        ShardError::Core(e)
    }
}

/// How one shard fared in a scatter-gather run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Fully resolved its band: no losses, no early stop.
    Complete,
    /// Responded, but with lost pages or an early budget stop.
    Degraded,
    /// Stopped on the per-shard soft deadline (straggler), and no hedge
    /// attempt cleared it.
    TimedOut,
    /// Dual-read only: the shard's rows were served by the responding
    /// destination copies of its migration group instead (its own
    /// attempt's output was discarded wholesale). Counts as responded.
    Covered,
    /// Errored, or every attempted page read failed: contributed no
    /// evaluated data. Counts against the completion quorum.
    Failed,
}

impl fmt::Display for ShardOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardOutcome::Complete => "complete",
            ShardOutcome::Degraded => "degraded",
            ShardOutcome::TimedOut => "timed-out",
            ShardOutcome::Covered => "covered",
            ShardOutcome::Failed => "failed",
        })
    }
}

/// Per-shard accounting of one scatter-gather run (the winning attempt's
/// numbers when the shard was hedged).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index (band order).
    pub shard: usize,
    /// Outcome classification.
    pub outcome: ShardOutcome,
    /// Fraction of the shard's base cells provably accounted for.
    pub completeness: f64,
    /// Exact candidates this shard contributed to the merge pool.
    pub exact_hits: usize,
    /// Shard-local pages whose failed reads left cells unresolved.
    pub skipped_pages: Vec<usize>,
    /// The shard's own early-stop reason, if any.
    pub budget_stop: Option<BudgetStop>,
    /// Pages read by the winning attempt.
    pub pages_read: u64,
    /// Virtual ticks the winning attempt spent on the shard's clock.
    pub ticks: u64,
    /// Whether a hedged re-dispatch was issued for this shard.
    pub hedged: bool,
    /// Whether the hedge attempt won (its output replaced the primary's).
    pub hedge_won: bool,
    /// Base cells in the shard's band.
    pub cells: u64,
}

/// Compact markdown table over a slice of [`ShardReport`]s, one row per
/// shard — the shared per-shard rendering of the r6 and r9 repro
/// harnesses (and anything else that wants to log a scatter verdict).
///
/// ```
/// # use mbir_core::shard::{ShardOutcome, ShardReport, ShardTable};
/// let reports = vec![ShardReport {
///     shard: 0,
///     outcome: ShardOutcome::Complete,
///     completeness: 1.0,
///     exact_hits: 5,
///     skipped_pages: vec![],
///     budget_stop: None,
///     pages_read: 12,
///     ticks: 48,
///     hedged: false,
///     hedge_won: false,
///     cells: 4096,
/// }];
/// let table = ShardTable::new(&reports).to_string();
/// assert!(table.contains("| 0 | complete | 1.000 | 5 | 0 | 12 | 48 | no |"));
/// ```
pub struct ShardTable<'a>(&'a [ShardReport]);

impl<'a> ShardTable<'a> {
    /// Wraps the reports to render (typically [`ShardedTopK::shards`]).
    pub fn new(reports: &'a [ShardReport]) -> Self {
        ShardTable(reports)
    }
}

impl fmt::Display for ShardTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "| shard | outcome | completeness | exact hits | skipped pages | pages read | ticks | hedged |"
        )?;
        writeln!(f, "|---|---|---|---|---|---|---|---|")?;
        for r in self.0 {
            let hedged = if r.hedge_won {
                "won"
            } else if r.hedged {
                "lost"
            } else {
                "no"
            };
            writeln!(
                f,
                "| {} | {} | {:.3} | {} | {} | {} | {} | {} |",
                r.shard,
                r.outcome,
                r.completeness,
                r.exact_hits,
                r.skipped_pages.len(),
                r.pages_read,
                r.ticks,
                hedged,
            )?;
        }
        Ok(())
    }
}

/// Merged scatter-gather result: a sound top-K with per-shard
/// degradation accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTopK {
    /// Up to K entries in global grid coordinates, ranked like the
    /// unsharded resilient engine (upper bound, then score, then cell).
    pub results: Vec<ResilientHit>,
    /// Work accounting summed over winning shard attempts and the gather
    /// step (`naive_multiply_adds` covers the whole global grid).
    pub effort: EffortReport,
    /// Fraction of all base cells provably accounted for (1.0 = exact).
    pub completeness: f64,
    /// `(shard, shard-local page)` pairs whose failed reads left cells
    /// unresolved, ascending.
    pub skipped_pages: Vec<(usize, usize)>,
    /// The most severe early-stop reason across winning shard attempts
    /// (Cancelled > WallClock > Deadline > PageReads > MultiplyAdds).
    pub budget_stop: Option<BudgetStop>,
    /// Per-shard reports, in band order.
    pub shards: Vec<ShardReport>,
}

impl ShardedTopK {
    /// Whether anything separates this answer from the exact one.
    pub fn is_degraded(&self) -> bool {
        self.completeness < 1.0
            || self.budget_stop.is_some()
            || self.results.iter().any(|h| !h.exact)
    }

    /// Shards that responded (outcome other than
    /// [`ShardOutcome::Failed`]).
    pub fn responded(&self) -> usize {
        self.shards
            .iter()
            .filter(|r| r.outcome != ShardOutcome::Failed)
            .count()
    }
}

/// Result of one batched scatter-gather run: per-query sharded answers
/// plus the batch-wide physical-work accounting that shows what the
/// shared per-shard descents amortized.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchedShardedTopK {
    /// Per-query merged answers, in batch order — on a healthy archive
    /// each is result-identical to that query's solo
    /// [`scatter_gather_top_k`] run under the same policy.
    pub queries: Vec<ShardedTopK>,
    /// Physical pages read by the winning attempts across all shards.
    pub pages_read: u64,
    /// Distinct level-0 cells materialized through the shard sources
    /// (winning attempts).
    pub cells_fetched: u64,
    /// Logical per-query cell reads served (≥ `cells_fetched`; the ratio
    /// is the batch's read amortization factor).
    pub cell_requests: u64,
    /// Distinct region bound-vector computations across winning attempts
    /// (one pyramid range fetch each).
    pub bound_evals: u64,
    /// Logical per-query bound requests served (≥ `bound_evals`).
    pub bound_requests: u64,
}

/// One migration group of a dual-read: the source shards whose rows are
/// migrating, and the destination shards (band copies) covering exactly
/// the same contiguous row range. Produced by
/// [`ReshardCoordinator::dual_read_groups`](crate::reshard::ReshardCoordinator::dual_read_groups);
/// the row-coverage invariant is validated again by the dual-read
/// scatter before any shard runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DualReadGroup {
    /// Indices into the source archive's shards, in band order.
    pub source_shards: Vec<usize>,
    /// Indices into the dual-read destination slice, in band order.
    pub dest_shards: Vec<usize>,
}

/// One query's share of a shard descent attempt.
struct QueryOut {
    /// Exact items with *global* cell indices (`row * cols + col`).
    items: Vec<ScoredItem>,
    /// Shard-local level-0 regions whose page read failed, with the page.
    lost: Vec<(Region, usize)>,
    /// Shard-local regions an early stop left unrefined.
    leftover: Vec<Region>,
    effort: EffortReport,
    /// The query's early-stop reason. A batch-wide stop lands on every
    /// query still open in the shard; queries already closed keep `None`.
    stop: Option<BudgetStop>,
}

/// Output of one shard descent attempt: one part per query, in batch
/// order, plus the shard's physical counters.
#[derive(Default)]
struct ShardOut {
    queries: Vec<QueryOut>,
    /// Distinct successful base reads — zero with losses means a dead
    /// shard (for the whole batch: reads are physical).
    resolved_reads: u64,
    /// The sharing counters of [`BatchedShardedTopK`]; only the batched
    /// kernel keeps them (the solo kernel leaves them zero).
    cells_fetched: u64,
    cell_requests: u64,
    bound_evals: u64,
    bound_requests: u64,
}

/// One attempt (primary or hedge) at a shard, with its I/O window.
struct ShardAttempt {
    out: Result<ShardOut, CoreError>,
    pages: u64,
    ticks: u64,
}

impl ShardAttempt {
    /// Errored, or every attempted page read failed: the shard evaluated
    /// no data for anyone.
    fn failed(&self) -> bool {
        match &self.out {
            Err(_) => true,
            Ok(o) => o.resolved_reads == 0 && o.queries.iter().any(|q| !q.lost.is_empty()),
        }
    }
}

/// The descent kernel every shard attempt of a scatter runs, chosen by
/// the public entry point.
#[derive(Clone, Copy)]
enum Kernel {
    /// [`shard_descent`]: exactly one model.
    Solo,
    /// [`batched_shard_descent`]: the whole batch over shared reads.
    Batched,
}

/// Read-only context shared by every shard attempt of one wave.
struct ScatterCtx<'a> {
    kernel: Kernel,
    /// The batch, in order (one model for the solo kernel).
    models: &'a [LinearModel],
    k: usize,
    /// Global column count (bands all share it).
    cols: usize,
    /// Effective budget for this wave (soft deadline merged in for the
    /// primary wave, the caller's own budget for the hedge and
    /// destination waves).
    budget: ExecutionBudget,
    deadline: &'a WallDeadline,
    cancel: Option<&'a CancelToken>,
    /// One cross-shard bound per query, in batch order.
    bounds: &'a [SharedBound],
}

/// One shard's best-first descent for the context's single model: the
/// resilient engine's loop over the shard's own band pyramids and
/// source, pruning against `max(local floor, shared bound)` and
/// publishing floors back.
fn shard_descent<S: CellSource>(
    ctx: &ScatterCtx<'_>,
    shard: &ArchiveShard<'_, S>,
) -> Result<ShardOut, CoreError> {
    let model = &ctx.models[0];
    let bound = &ctx.bounds[0];
    let n = model.arity() as u64;
    let levels = shard.pyramids[0].levels();
    let mut effort = EffortReport {
        multiply_adds: 0,
        naive_multiply_adds: n * shard.cells(),
    };
    let pages_at_entry = shard.source.pages_read();
    let ticks_at_entry = shard.source.ticks_elapsed();

    let mut scratch = QueryScratch::new();
    let QueryScratch {
        children,
        x,
        ranges,
        frontier,
        qcoeff,
        qmeta,
        ..
    } = &mut scratch;
    frontier.clear();
    if let Some(cg) = shard.coarse {
        cg.prepare_into(model, qcoeff, qmeta)?;
    }
    let mut heap = TopKHeap::new(ctx.k);
    let top = levels - 1;
    let root = region_bound_into(model, shard.pyramids, top, 0, 0, ranges, &mut effort)?;
    frontier.push(Region {
        ub: root,
        level: top,
        row: 0,
        col: 0,
    });

    let mut lost: Vec<(Region, usize)> = Vec::new();
    let mut leftover: Vec<Region> = Vec::new();
    let mut budget_stop: Option<BudgetStop> = None;
    let mut resolved_reads = 0u64;

    while let Some(region) = frontier.pop() {
        let mut floor = bound.get();
        if let Some(f) = heap.floor() {
            floor = floor.max(f);
        }
        if floor >= region.ub {
            break; // Sound exclusion of this band's remainder.
        }
        let stop = checkpoint_stop(
            ctx.cancel,
            ctx.deadline,
            &ctx.budget,
            effort.multiply_adds,
            shard.source.pages_read().saturating_sub(pages_at_entry),
            shard.source.ticks_elapsed().saturating_sub(ticks_at_entry),
        );
        if let Some(stop) = stop {
            budget_stop = Some(stop);
            leftover.push(region);
            leftover.extend(frontier.drain());
            break;
        }
        if region.level == 0 {
            match read_base_vector_into(shard.source, model.arity(), region.row, region.col, x) {
                Ok(()) => {
                    resolved_reads += 1;
                    effort.multiply_adds += n;
                    heap.offer(ScoredItem {
                        index: (region.row + shard.row_offset) * ctx.cols + region.col,
                        score: model.evaluate(x),
                    });
                    if let Some(f) = heap.floor() {
                        bound.offer(f);
                    }
                }
                Err(CoreError::Archive(
                    ArchiveError::PageIo { page }
                    | ArchiveError::PageQuarantined { page }
                    | ArchiveError::PageCorrupt { page },
                )) => {
                    let page = shard.source.page_of(region.row, region.col).unwrap_or(page);
                    lost.push((region, page));
                }
                Err(e) => return Err(e),
            }
            continue;
        }
        shard.pyramids[0].children_into(region.level, region.row, region.col, children);
        for child in children.iter() {
            // Coarse pass against the pop-time pruning bound (shared
            // cross-shard bound merged with the local floor — both sound
            // K-th floors of evaluated subsets, both only rising), so a
            // strict `cub < floor` rejection can never touch a true top-K
            // cell. Prune-only: survivors get the exact bound unchanged.
            // No multiply-adds charged — pure i8 side-structure work.
            if let Some(cg) = shard.coarse {
                if floor > f64::NEG_INFINITY
                    && cg.cell_upper_bound(qcoeff, qmeta, region.level - 1, child.row, child.col)
                        < floor
                {
                    continue;
                }
            }
            let ub = region_bound_into(
                model,
                shard.pyramids,
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

    Ok(ShardOut {
        queries: vec![QueryOut {
            items: heap.into_sorted(),
            lost,
            leftover,
            effort,
            stop: budget_stop,
        }],
        resolved_reads,
        ..ShardOut::default()
    })
}

/// One shard's *batched* best-first descent: the shared-frontier loop of
/// [`crate::batched`] run over the shard's own band pyramids and source.
/// Each query prunes against `max(its shared cross-shard bound, its local
/// K-th floor)` and publishes its floors back — restricted to any one
/// query this is exactly [`shard_descent`] for that query alone, while
/// page reads and pyramid range fetches are memoized across the batch.
fn batched_shard_descent<S: CellSource>(
    ctx: &ScatterCtx<'_>,
    shard: &ArchiveShard<'_, S>,
) -> Result<ShardOut, CoreError> {
    let models = ctx.models;
    let m = models.len();
    let arity = models[0].arity();
    let n = arity as u64;
    let levels = shard.pyramids[0].levels();
    let pages_at_entry = shard.source.pages_read();
    let ticks_at_entry = shard.source.ticks_elapsed();

    let mut efforts: Vec<EffortReport> = (0..m)
        .map(|_| EffortReport {
            multiply_adds: 0,
            naive_multiply_adds: n * shard.cells(),
        })
        .collect();
    let mut total_ma = 0u64;
    let mut selector = Selector::for_width(m);
    let mut frontiers: Vec<BinaryHeap<Region>> = (0..m).map(|_| BinaryHeap::new()).collect();
    let mut children: Vec<CellCoord> = Vec::new();
    let mut ranges: Vec<(f64, f64)> = Vec::new();
    let mut x: Vec<f64> = Vec::new();
    let mut cell_memo: MemoMap<CellSlot> = MemoMap::default();
    let mut cell_gov = MemoGovernor::new(CELL_MEMO_WINDOW);
    let mut bound_memo = BoundMemo::new();
    let mut cell_arena: Vec<f64> = Vec::new();
    let mut coarse_bufs: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    if let Some(cg) = shard.coarse {
        coarse_bufs.resize_with(m, Default::default);
        for (q, model) in models.iter().enumerate() {
            let (qc, qm) = &mut coarse_bufs[q];
            cg.prepare_into(model, qc, qm)?;
        }
    }
    let mut heaps: Vec<TopKHeap> = (0..m).map(|_| TopKHeap::new(ctx.k)).collect();
    let mut done = vec![false; m];
    let mut done_count = 0usize;
    let mut lost: Vec<Vec<(Region, usize)>> = (0..m).map(|_| Vec::new()).collect();
    let mut leftover: Vec<Vec<Region>> = (0..m).map(|_| Vec::new()).collect();
    let mut stops: Vec<Option<BudgetStop>> = vec![None; m];
    let mut resolved_reads = 0u64;
    let mut cells_fetched = 0u64;
    let mut cell_requests = 0u64;
    let mut bound_evals = 0u64;
    let mut bound_requests = 0u64;

    let top = levels - 1;
    for q in 0..m {
        let ub = bound_memo.bound(models, shard.pyramids, top, 0, 0, q, &mut bound_evals)?;
        efforts[q].multiply_adds += n;
        total_ma += n;
        bound_requests += 1;
        frontiers[q].push(Region {
            ub,
            level: top,
            row: 0,
            col: 0,
        });
        selector.arm(q, &frontiers);
    }

    // Selector-over-frontiers interleave, as in [`crate::batched`]: one
    // solo-sized frontier per query, one live top each in the selector.
    while let Some((q, e)) = selector.next(&mut frontiers) {
        if bound_memo.is_off() {
            selector.go_serial();
        }
        let mut floor = ctx.bounds[q].get();
        if let Some(f) = heaps[q].floor() {
            floor = floor.max(f);
        }
        if floor >= e.ub {
            // Sound exclusion of this query's band remainder — the solo
            // descent's break; its frontier is abandoned wholesale.
            done[q] = true;
            done_count += 1;
            if done_count == m {
                break;
            }
            continue;
        }
        let checked = checkpoint_stop(
            ctx.cancel,
            ctx.deadline,
            &ctx.budget,
            total_ma,
            shard.source.pages_read().saturating_sub(pages_at_entry),
            shard.source.ticks_elapsed().saturating_sub(ticks_at_entry),
        );
        if let Some(stop) = checked {
            leftover[q].push(e);
            stops[q] = Some(stop);
            for (rq, f) in frontiers.iter_mut().enumerate() {
                if done[rq] || (rq != q && f.is_empty()) {
                    continue;
                }
                stops[rq] = Some(stop);
                leftover[rq].extend(f.drain());
            }
            break;
        }
        if e.level == 0 {
            cell_requests += 1;
            if cell_gov.live() {
                let ck = cell_key(e.row as u32, e.col as u32);
                let slot = match cell_memo.get(&ck) {
                    Some(s) => {
                        cell_gov.record(true);
                        *s
                    }
                    None => {
                        cell_gov.record(false);
                        let s = match read_base_vector_into(
                            shard.source,
                            arity,
                            e.row,
                            e.col,
                            &mut x,
                        ) {
                            Ok(()) => {
                                resolved_reads += 1;
                                cells_fetched += 1;
                                let off = cell_arena.len();
                                cell_arena.extend_from_slice(&x);
                                CellSlot::Loaded(off)
                            }
                            Err(CoreError::Archive(
                                ArchiveError::PageIo { page }
                                | ArchiveError::PageQuarantined { page }
                                | ArchiveError::PageCorrupt { page },
                            )) => {
                                let page = shard.source.page_of(e.row, e.col).unwrap_or(page);
                                CellSlot::Lost(page)
                            }
                            Err(err) => return Err(err),
                        };
                        cell_memo.insert(ck, s);
                        s
                    }
                };
                match slot {
                    CellSlot::Loaded(off) => {
                        efforts[q].multiply_adds += n;
                        total_ma += n;
                        heaps[q].offer(ScoredItem {
                            index: (e.row + shard.row_offset) * ctx.cols + e.col,
                            score: models[q].evaluate(&cell_arena[off..off + arity]),
                        });
                        if let Some(f) = heaps[q].floor() {
                            ctx.bounds[q].offer(f);
                        }
                    }
                    CellSlot::Lost(page) => lost[q].push((e, page)),
                }
            } else {
                // Governed off: the solo shard descent's read-and-score
                // path, with no arena copy and no table insert.
                match read_base_vector_into(shard.source, arity, e.row, e.col, &mut x) {
                    Ok(()) => {
                        resolved_reads += 1;
                        cells_fetched += 1;
                        efforts[q].multiply_adds += n;
                        total_ma += n;
                        heaps[q].offer(ScoredItem {
                            index: (e.row + shard.row_offset) * ctx.cols + e.col,
                            score: models[q].evaluate(&x),
                        });
                        if let Some(f) = heaps[q].floor() {
                            ctx.bounds[q].offer(f);
                        }
                    }
                    Err(CoreError::Archive(
                        ArchiveError::PageIo { page }
                        | ArchiveError::PageQuarantined { page }
                        | ArchiveError::PageCorrupt { page },
                    )) => {
                        let page = shard.source.page_of(e.row, e.col).unwrap_or(page);
                        lost[q].push((e, page));
                    }
                    Err(err) => return Err(err),
                }
            }
            selector.arm(q, &frontiers);
            continue;
        }
        let level = e.level;
        shard.pyramids[0].children_into(level, e.row, e.col, &mut children);
        for &child in children.iter() {
            // Per-query coarse pass against this query's pop-time pruning
            // bound — the same prune-only gate as [`shard_descent`].
            if let Some(cg) = shard.coarse {
                if floor > f64::NEG_INFINITY {
                    let (qc, qm) = &coarse_bufs[q];
                    if cg.cell_upper_bound(qc, qm, level - 1, child.row, child.col) < floor {
                        continue;
                    }
                }
            }
            bound_requests += 1;
            let ub = if bound_memo.is_off() {
                // Retired memo: the solo engine's bound path, inlined.
                bound_evals += 1;
                region_bound_into(
                    &models[q],
                    shard.pyramids,
                    level - 1,
                    child.row,
                    child.col,
                    &mut ranges,
                    &mut efforts[q],
                )?
            } else {
                let ub = bound_memo.bound(
                    models,
                    shard.pyramids,
                    level - 1,
                    child.row,
                    child.col,
                    q,
                    &mut bound_evals,
                )?;
                efforts[q].multiply_adds += n;
                ub
            };
            total_ma += n;
            frontiers[q].push(Region {
                ub,
                level: level - 1,
                row: child.row,
                col: child.col,
            });
        }
        selector.arm(q, &frontiers);
    }

    let queries = heaps
        .into_iter()
        .zip(lost)
        .zip(leftover)
        .zip(efforts.into_iter().zip(stops))
        .map(|(((heap, lost), leftover), (effort, stop))| QueryOut {
            items: heap.into_sorted(),
            lost,
            leftover,
            effort,
            stop,
        })
        .collect();
    Ok(ShardOut {
        queries,
        resolved_reads,
        cells_fetched,
        cell_requests,
        bound_evals,
        bound_requests,
    })
}

/// Runs one attempt at a shard with the context's kernel and measures
/// its I/O window on the shard's own clock.
fn run_attempt<S: CellSource>(ctx: &ScatterCtx<'_>, shard: &ArchiveShard<'_, S>) -> ShardAttempt {
    let pages_at_entry = shard.source.pages_read();
    let ticks_at_entry = shard.source.ticks_elapsed();
    let out = match ctx.kernel {
        Kernel::Solo => shard_descent(ctx, shard),
        Kernel::Batched => batched_shard_descent(ctx, shard),
    };
    ShardAttempt {
        out,
        pages: shard.source.pages_read().saturating_sub(pages_at_entry),
        ticks: shard.source.ticks_elapsed().saturating_sub(ticks_at_entry),
    }
}

/// Fans `which` shard indices out over the pool (round-robin, at most one
/// worker per shard) and returns `(shard index, attempt)` pairs.
fn scatter_wave<S: CellSource + Sync>(
    ctx: &ScatterCtx<'_>,
    shards: &[ArchiveShard<'_, S>],
    which: &[usize],
    pool: &WorkerPool,
) -> Vec<(usize, ShardAttempt)> {
    let workers = pool.threads().min(which.len()).max(1);
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (slot, &shard_index) in which.iter().enumerate() {
        assignments[slot % workers].push(shard_index);
    }
    pool.run(
        assignments
            .into_iter()
            .map(|own| {
                move |_w: usize| {
                    own.into_iter()
                        .map(|i| (i, run_attempt(ctx, &shards[i])))
                        .collect::<Vec<_>>()
                }
            })
            .collect(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// One wave over every shard of `shards`, its attempts in shard order.
fn full_wave<S: CellSource + Sync>(
    ctx: &ScatterCtx<'_>,
    shards: &[ArchiveShard<'_, S>],
    pool: &WorkerPool,
) -> Vec<ShardAttempt> {
    let all: Vec<usize> = (0..shards.len()).collect();
    let mut wave = scatter_wave(ctx, shards, &all, pool);
    wave.sort_unstable_by_key(|&(i, _)| i);
    wave.into_iter().map(|(_, attempt)| attempt).collect()
}

/// Rejects a query whose pinned epoch differs from the one the archive
/// serves — checked before any shard attempt runs.
fn check_epoch_fence<S>(
    policy: &ScatterPolicy,
    archive: &ShardedArchive<'_, S>,
) -> Result<(), ShardError> {
    if let Some(requested) = policy.epoch_fence {
        if requested != archive.epoch {
            return Err(EpochMismatch {
                requested,
                serving: archive.epoch,
            }
            .into());
        }
    }
    Ok(())
}

/// Severity order used to merge per-shard stop reasons into one:
/// Cancelled > WallClock > Deadline > PageReads > MultiplyAdds.
fn stop_severity(stop: BudgetStop) -> u8 {
    match stop {
        BudgetStop::MultiplyAdds => 1,
        BudgetStop::PageReads => 2,
        BudgetStop::Deadline => 3,
        BudgetStop::WallClock => 4,
        BudgetStop::Cancelled => 5,
    }
}

/// Keeps the more severe of the merged stop reason and `stop`.
fn merge_stop(merged: &mut Option<BudgetStop>, stop: Option<BudgetStop>) {
    if let Some(stop) = stop {
        if merged.is_none_or(|m| stop_severity(stop) > stop_severity(m)) {
            *merged = Some(stop);
        }
    }
}

/// The merge's floating-point guard. Degraded candidates cross pyramid
/// boundaries: a band pyramid sums its aggregates in a different
/// floating-point order than a global evaluation of the same cells, so a
/// mathematically sound bound can round a few ulps inside the true
/// supremum. Every inexact candidate is widened by this relative pad so
/// "the true score lies inside the reported bounds" holds in floating
/// point too. Exact hits are never widened, and exclusion still uses the
/// raw bounds.
fn widen(bounds: ScoreBounds) -> ScoreBounds {
    let pad = bounds.hi.abs().max(bounds.lo.abs()).max(1.0) * f64::EPSILON * 16.0;
    ScoreBounds {
        lo: bounds.lo - pad,
        hi: bounds.hi + pad,
    }
}

/// Validates the dual-read group structure: indices in range and used at
/// most once, every destination shard claimed by exactly one group, and
/// each group's source rows covering exactly its destination rows.
fn validate_dual_groups<S: CellSource, D: CellSource>(
    archive: &ShardedArchive<'_, S>,
    dest: &[ArchiveShard<'_, D>],
    groups: &[DualReadGroup],
) -> Result<(), ShardError> {
    let invalid = |msg: String| ShardError::Core(CoreError::Query(msg));
    let shards = archive.shards();
    let mut source_used = vec![false; shards.len()];
    let mut dest_used = vec![false; dest.len()];
    for (g, group) in groups.iter().enumerate() {
        if group.source_shards.is_empty() || group.dest_shards.is_empty() {
            return Err(invalid(format!("dual-read group {g} is one-sided")));
        }
        let range =
            |offset: usize, rows: usize, lo: &mut usize, hi: &mut usize, sum: &mut usize| {
                *lo = (*lo).min(offset);
                *hi = (*hi).max(offset + rows);
                *sum += rows;
            };
        let (mut s_lo, mut s_hi, mut s_sum) = (usize::MAX, 0usize, 0usize);
        for &s in &group.source_shards {
            let shard = shards
                .get(s)
                .ok_or_else(|| invalid(format!("group {g}: source shard {s} out of range")))?;
            if std::mem::replace(&mut source_used[s], true) {
                return Err(invalid(format!("source shard {s} appears in two groups")));
            }
            range(
                shard.row_offset,
                shard.rows(),
                &mut s_lo,
                &mut s_hi,
                &mut s_sum,
            );
        }
        let (mut d_lo, mut d_hi, mut d_sum) = (usize::MAX, 0usize, 0usize);
        for &d in &group.dest_shards {
            let shard = dest
                .get(d)
                .ok_or_else(|| invalid(format!("group {g}: dest shard {d} out of range")))?;
            if std::mem::replace(&mut dest_used[d], true) {
                return Err(invalid(format!("dest shard {d} appears in two groups")));
            }
            range(
                shard.row_offset,
                shard.rows(),
                &mut d_lo,
                &mut d_hi,
                &mut d_sum,
            );
        }
        if s_sum != s_hi - s_lo || d_sum != d_hi - d_lo {
            return Err(invalid(format!("dual-read group {g} has a row gap")));
        }
        if (s_lo, s_hi) != (d_lo, d_hi) {
            return Err(invalid(format!(
                "dual-read group {g} covers source rows {s_lo}..{s_hi} but dest rows {d_lo}..{d_hi}"
            )));
        }
    }
    if let Some(d) = dest_used.iter().position(|used| !used) {
        return Err(invalid(format!("dest shard {d} belongs to no group")));
    }
    Ok(())
}

/// Scatter-gather top-K over a sharded archive. See the module docs for
/// the soundness and quorum contract; on a healthy archive with an
/// unlimited budget the merged results are bit-identical to
/// [`resilient_top_k`](crate::resilient::resilient_top_k) over the
/// unsharded grid, at every shard count and thread count.
///
/// The `budget` is enforced *per shard attempt*, each dimension measured
/// against the attempt's own source clocks (wall-clock expiry is shared:
/// one latch stops every shard at its next checkpoint).
///
/// # Errors
///
/// [`ShardError::Core`] for invalid inputs (any shard failing the same
/// validation as the unsharded engines); [`ShardError::Insufficient`]
/// when fewer shards respond than `policy.completion` requires.
pub fn scatter_gather_top_k<S: CellSource + Sync>(
    model: &LinearModel,
    archive: &ShardedArchive<'_, S>,
    k: usize,
    budget: &ExecutionBudget,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<ShardedTopK, ShardError> {
    let query = ScatterQuery::solo(model, k, budget, policy, None);
    scatter::<S, S>(&query, archive, &[], &[], pool).map(only_query)
}

/// [`scatter_gather_top_k`] polling a [`CancelToken`] at every shard's
/// page-granular checkpoints. Cancellation stops every shard at its next
/// checkpoint and the merged answer degrades with sound bounds, exactly
/// like the unsharded cancellable engines. A token that is never
/// cancelled changes nothing.
///
/// # Errors
///
/// Same as [`scatter_gather_top_k`].
pub fn scatter_gather_top_k_cancellable<S: CellSource + Sync>(
    model: &LinearModel,
    archive: &ShardedArchive<'_, S>,
    k: usize,
    budget: &ExecutionBudget,
    policy: &ScatterPolicy,
    cancel: &CancelToken,
    pool: &WorkerPool,
) -> Result<ShardedTopK, ShardError> {
    let query = ScatterQuery::solo(model, k, budget, policy, Some(cancel));
    scatter::<S, S>(&query, archive, &[], &[], pool).map(only_query)
}

/// Dual-read scatter-gather: [`scatter_gather_top_k`] over the *source*
/// topology, additionally fanning out to the destination band copies of
/// an in-flight migration (state `DualRead` of
/// [`crate::reshard::ReshardCoordinator`]). Per migration group, the
/// merge uses the source shards' contributions — so a healthy dual-read
/// stays bit-identical to the plain pre-migration scatter — unless a
/// migrating source shard fails *and* every destination copy of its
/// group responded, in which case the whole group's rows are served from
/// the destination side instead. Group substitution is wholesale (the
/// suppressed source attempts leave no state in the merge, like a
/// hedging loser), and a group's destination rows equal its source rows,
/// so no cell is merged twice and every lost or unrefined destination
/// region degrades through the same ulp-guarded candidate machinery as
/// any other shard: bounds stay sound no matter which side served a row.
///
/// Quorum accounting is epoch-aware: a migrating source shard served by
/// its destination cover counts as responded, and only uncovered
/// failures appear in [`InsufficientShards::failed`], stamped with the
/// source epoch.
///
/// # Errors
///
/// [`ShardError::Core`] for invalid inputs or malformed groups;
/// [`ShardError::Epoch`] when `policy` pins an epoch the archive does
/// not serve; [`ShardError::Insufficient`] on a quorum miss after
/// destination covers are credited.
#[allow(clippy::too_many_arguments)]
pub fn scatter_gather_top_k_dual<S: CellSource + Sync, D: CellSource + Sync>(
    model: &LinearModel,
    archive: &ShardedArchive<'_, S>,
    dest: &[ArchiveShard<'_, D>],
    groups: &[DualReadGroup],
    k: usize,
    budget: &ExecutionBudget,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<ShardedTopK, ShardError> {
    let query = ScatterQuery::solo(model, k, budget, policy, None);
    scatter(&query, archive, dest, groups, pool).map(only_query)
}

/// Batched scatter-gather top-K: one scatter wave serves every model in
/// `models` — each shard is descended *once* for the whole batch, with
/// page reads and pyramid range fetches shared across queries, instead of
/// once per query. Per query, the pruning, quorum, hedging, and gather
/// semantics are exactly those of [`scatter_gather_top_k`]; on a healthy
/// archive each query's merged answer is result-identical to its solo
/// scatter-gather run. The `budget` is enforced per shard attempt and is
/// *batch-wide* within the attempt (summed multiply-adds, shared source
/// clocks), like [`crate::batched::batched_top_k`].
///
/// # Errors
///
/// [`ShardError::Core`] for invalid inputs (including models that
/// disagree on arity); [`ShardError::Insufficient`] when fewer shards
/// respond than `policy.completion` requires — shard failure is physical,
/// so the quorum verdict is shared by every query in the batch.
pub fn batched_scatter_gather_top_k<S: CellSource + Sync>(
    models: &[LinearModel],
    archive: &ShardedArchive<'_, S>,
    k: usize,
    budget: &ExecutionBudget,
    policy: &ScatterPolicy,
    pool: &WorkerPool,
) -> Result<BatchedShardedTopK, ShardError> {
    let query = ScatterQuery {
        kernel: Kernel::Batched,
        models,
        k,
        budget,
        policy,
        cancel: None,
    };
    scatter::<S, S>(&query, archive, &[], &[], pool)
}

/// One scatter-gather request, as an entry point hands it to [`scatter`].
struct ScatterQuery<'a> {
    kernel: Kernel,
    models: &'a [LinearModel],
    k: usize,
    budget: &'a ExecutionBudget,
    policy: &'a ScatterPolicy,
    cancel: Option<&'a CancelToken>,
}

impl<'a> ScatterQuery<'a> {
    /// A batch of one model on the solo kernel.
    fn solo(
        model: &'a LinearModel,
        k: usize,
        budget: &'a ExecutionBudget,
        policy: &'a ScatterPolicy,
        cancel: Option<&'a CancelToken>,
    ) -> Self {
        ScatterQuery {
            kernel: Kernel::Solo,
            models: std::slice::from_ref(model),
            k,
            budget,
            policy,
            cancel,
        }
    }
}

/// The answer of a scatter run for a single model.
fn only_query(mut batch: BatchedShardedTopK) -> ShardedTopK {
    batch.queries.pop().expect("a batch of one model")
}

/// The scatter-gather driver behind every public entry point. It fences
/// the epoch and validates inputs; runs the primary wave under the soft
/// deadline and one hedged re-dispatch of stragglers; when `dest` is not
/// empty, runs the dual-read destination wave and decides which groups
/// the destination side serves; applies the quorum; then gathers each
/// query of the batch apart.
fn scatter<S: CellSource + Sync, D: CellSource + Sync>(
    query: &ScatterQuery<'_>,
    archive: &ShardedArchive<'_, S>,
    dest: &[ArchiveShard<'_, D>],
    groups: &[DualReadGroup],
    pool: &WorkerPool,
) -> Result<BatchedShardedTopK, ShardError> {
    let &ScatterQuery {
        kernel,
        models,
        k,
        budget,
        policy,
        cancel,
    } = query;
    let mut batch = BatchedShardedTopK {
        queries: Vec::with_capacity(models.len()),
        pages_read: 0,
        cells_fetched: 0,
        cell_requests: 0,
        bound_evals: 0,
        bound_requests: 0,
    };
    let Some(first) = models.first() else {
        return Ok(batch);
    };
    check_epoch_fence(policy, archive)?;
    let shards = archive.shards();
    let cols = archive.shape().1;
    for shard in shards {
        validate_grid_inputs(first, shard.pyramids, k)?;
    }
    if models.iter().any(|m| m.arity() != first.arity()) {
        return Err(ShardError::Core(CoreError::Query(
            "batched queries must share the model arity".into(),
        )));
    }
    for shard in dest {
        validate_grid_inputs(first, shard.pyramids, k)?;
        if shard.cols() != cols {
            return Err(ShardError::Core(CoreError::Query(format!(
                "dest shard has {} columns, the archive has {cols}",
                shard.cols()
            ))));
        }
    }
    validate_dual_groups(archive, dest, groups)?;

    let n = first.arity() as u64;
    let total_cells = archive.total_cells();
    let deadline = WallDeadline::starting_now(budget);
    let bounds: Vec<SharedBound> = models.iter().map(|_| SharedBound::new()).collect();

    // The soft deadline only engages when it is tighter than the caller's
    // own tick deadline — otherwise a Deadline stop is the caller's
    // ceiling, not a straggler signal.
    let soft_engaged = policy
        .shard_soft_deadline_ticks
        .is_some_and(|soft| budget.deadline_ticks.is_none_or(|d| soft < d));
    let ctx = ScatterCtx {
        kernel,
        models,
        k,
        cols,
        budget: *budget,
        deadline: &deadline,
        cancel,
        bounds: &bounds,
    };
    let primary_ctx = ScatterCtx {
        budget: if soft_engaged {
            ExecutionBudget {
                deadline_ticks: policy.shard_soft_deadline_ticks,
                ..*budget
            }
        } else {
            *budget
        },
        ..ctx
    };
    let mut attempts = full_wave(&primary_ctx, shards, pool);

    // Hedged re-dispatch of stragglers: one retry without the soft
    // deadline. A batch-wide budget lands a soft-deadline stop on every
    // query still open in the shard, so any query stopped on Deadline
    // marks a straggler. First clean finish wins; the losing attempt's
    // output is discarded wholesale so it leaves no state in the merge.
    let mut hedged = vec![false; shards.len()];
    let mut hedge_won = vec![false; shards.len()];
    if policy.hedge_stragglers && soft_engaged && !cancel.is_some_and(CancelToken::is_cancelled) {
        let stragglers: Vec<usize> = (0..shards.len())
            .filter(|&i| {
                attempts[i].out.as_ref().is_ok_and(|o| {
                    o.queries
                        .iter()
                        .any(|q| q.stop == Some(BudgetStop::Deadline))
                })
            })
            .collect();
        if !stragglers.is_empty() {
            let unresolved = |o: &ShardOut| -> usize {
                o.queries
                    .iter()
                    .map(|q| q.lost.len() + q.leftover.len())
                    .sum()
            };
            for (i, hedge) in scatter_wave(&ctx, shards, &stragglers, pool) {
                hedged[i] = true;
                let wins = match (&attempts[i].out, &hedge.out) {
                    (_, Err(_)) => false,
                    (Err(_), Ok(_)) => true,
                    (Ok(p), Ok(h)) => {
                        h.queries.iter().all(|q| q.stop.is_none()) || unresolved(h) < unresolved(p)
                    }
                };
                if wins {
                    hedge_won[i] = true;
                    attempts[i] = hedge;
                }
            }
        }
    }

    // Dual-read destination wave: after the source wave, against the
    // caller's own budget (no soft deadline — the copies are fresh and
    // local), with the same shared bounds. The mature cross-shard floors
    // make most healthy destination descents exclude their band near the
    // root, so the dual fan-out costs little extra when nothing fails.
    let dest_attempts = if dest.is_empty() {
        Vec::new()
    } else {
        full_wave(&ctx, dest, pool)
    };

    // Per-group substitution: a migration group that lost a source shard
    // while every destination copy responded is served wholesale from the
    // destination side; its source attempts leave no state in the merge.
    let source_failed: Vec<bool> = attempts.iter().map(ShardAttempt::failed).collect();
    let covered: Vec<bool> = groups
        .iter()
        .map(|g| {
            g.source_shards.iter().any(|&s| source_failed[s])
                && g.dest_shards.iter().all(|&d| !dest_attempts[d].failed())
        })
        .collect();
    let mut cover_of: Vec<Option<usize>> = vec![None; shards.len()];
    for (g, group) in groups.iter().enumerate().filter(|&(g, _)| covered[g]) {
        for &s in &group.source_shards {
            cover_of[s] = Some(g);
        }
    }

    // Quorum before any merging. Failure is physical, so the verdict is
    // shared by every query; a source shard whose rows a covered group
    // served counts as responded.
    let failed: Vec<usize> = (0..shards.len())
        .filter(|&i| source_failed[i] && cover_of[i].is_none())
        .collect();
    let responded = shards.len() - failed.len();
    let required = policy.completion.required(shards.len());
    if responded < required {
        return Err(InsufficientShards {
            responded,
            required,
            total: shards.len(),
            failed,
            epoch: archive.epoch,
        }
        .into());
    }

    for attempt in &attempts {
        batch.pages_read += attempt.pages;
        if let Ok(o) = &attempt.out {
            batch.cells_fetched += o.cells_fetched;
            batch.cell_requests += o.cell_requests;
            batch.bound_evals += o.bound_evals;
            batch.bound_requests += o.bound_requests;
        }
    }

    // Every attempt whose rows the merge uses: the source shards no cover
    // replaced, and the destination copies of covered groups. A group's
    // rows come from exactly one side, so no cell is merged twice.
    let served: Vec<&ShardAttempt> = attempts
        .iter()
        .zip(&cover_of)
        .filter(|(_, cover)| cover.is_none())
        .map(|(a, _)| a)
        .chain(
            groups
                .iter()
                .zip(&covered)
                .filter(|&(_, &c)| c)
                .flat_map(|(g, _)| g.dest_shards.iter().map(|&d| &dest_attempts[d])),
        )
        .collect();

    for (q, model) in models.iter().enumerate() {
        // Merge exact items with the shared rank order and derive the
        // deterministic global K-th floor; only a full merged heap yields
        // a sound exclusion floor.
        let mut effort = EffortReport {
            multiply_adds: 0,
            naive_multiply_adds: n * total_cells,
        };
        let mut items: Vec<ScoredItem> = Vec::new();
        for o in served.iter().filter_map(|a| a.out.as_ref().ok()) {
            effort.multiply_adds += o.queries[q].effort.multiply_adds;
            items.extend_from_slice(&o.queries[q].items);
        }
        sort_desc(&mut items);
        items.truncate(k);
        let floor = if items.len() == k {
            items.last().map(|i| i.score)
        } else {
            None
        };
        let hits = items
            .into_iter()
            .map(|item| ResilientHit {
                cell: CellCoord::new(item.index / cols, item.index % cols),
                level: 0,
                score: item.score,
                bounds: ScoreBounds::exact(item.score),
                exact: true,
            })
            .collect();
        let mut gather = Gather {
            model,
            q,
            floor,
            effort,
            hits,
        };

        // Covered groups first: one tally per group over its destination
        // bands, whose skipped page ids are destination-local (the source
        // pages were never the ones read).
        let mut unresolved = 0u64;
        let mut ledgers: Vec<(Tally, f64)> = Vec::with_capacity(groups.len());
        for (group, &is_covered) in groups.iter().zip(&covered) {
            let mut tally = Tally::default();
            if is_covered {
                for &d in &group.dest_shards {
                    gather.band(&dest[d], &dest_attempts[d], &mut tally)?;
                }
            }
            let cells: u64 = group.source_shards.iter().map(|&s| shards[s].cells()).sum();
            unresolved += tally.unresolved;
            let completeness = 1.0 - tally.unresolved as f64 / cells as f64;
            ledgers.push((tally, completeness));
        }

        let mut skipped: Vec<(usize, usize)> = Vec::new();
        let mut merged_stop: Option<BudgetStop> = None;
        let mut reports: Vec<ShardReport> = Vec::with_capacity(shards.len());
        for (i, shard) in shards.iter().enumerate() {
            let (tally, outcome, completeness) = if let Some(g) = cover_of[i] {
                // The group's tally lands on its first (lowest) band, which
                // takes it; later members find it empty. Every member
                // shares the group's completeness (cell-weighted, the
                // per-shard fractions sum back to the group's).
                let (tally, completeness) = &mut ledgers[g];
                (std::mem::take(tally), ShardOutcome::Covered, *completeness)
            } else {
                let mut tally = Tally::default();
                gather.band(shard, &attempts[i], &mut tally)?;
                let outcome = if source_failed[i] {
                    ShardOutcome::Failed
                } else if soft_engaged && !hedge_won[i] && tally.stop == Some(BudgetStop::Deadline)
                {
                    ShardOutcome::TimedOut
                } else if tally.unresolved > 0 || tally.stop.is_some() {
                    ShardOutcome::Degraded
                } else {
                    ShardOutcome::Complete
                };
                unresolved += tally.unresolved;
                let completeness = 1.0 - tally.unresolved as f64 / shard.cells() as f64;
                (tally, outcome, completeness)
            };
            merge_stop(&mut merged_stop, tally.stop);
            skipped.extend(tally.skipped.iter().map(|&p| (i, p)));
            reports.push(ShardReport {
                shard: i,
                outcome,
                completeness,
                exact_hits: tally.exact_hits,
                skipped_pages: tally.skipped.into_iter().collect(),
                budget_stop: tally.stop,
                pages_read: tally.pages,
                ticks: tally.ticks,
                hedged: hedged[i],
                hedge_won: hedge_won[i],
                cells: shard.cells(),
            });
        }

        // Rank by upper bound first — the shared final comparator of the
        // resilient engines: exact hits have hi == score, and truncation
        // can never drop the only candidate that might still be the true
        // winner.
        let mut hits = gather.hits;
        hits.sort_by(|a, b| {
            b.bounds
                .hi
                .total_cmp(&a.bounds.hi)
                .then_with(|| b.score.total_cmp(&a.score))
                .then_with(|| a.cell.cmp(&b.cell))
        });
        hits.truncate(k);
        batch.queries.push(ShardedTopK {
            results: hits,
            effort: gather.effort,
            completeness: 1.0 - unresolved as f64 / total_cells as f64,
            skipped_pages: skipped,
            budget_stop: merged_stop,
            shards: reports,
        });
    }
    Ok(batch)
}

/// One band's (or one covered group's) share of a query's gather.
#[derive(Default)]
struct Tally {
    /// Base cells left unresolved by the merged floor.
    unresolved: u64,
    /// Band-local pages whose failed reads left cells unresolved.
    skipped: BTreeSet<usize>,
    exact_hits: usize,
    stop: Option<BudgetStop>,
    pages: u64,
    ticks: u64,
}

/// One query's gather state: its model and index in the batch, the
/// deterministic merged K-th floor, and the effort and hits so far.
struct Gather<'a> {
    model: &'a LinearModel,
    q: usize,
    floor: Option<f64>,
    effort: EffortReport,
    hits: Vec<ResilientHit>,
}

impl Gather<'_> {
    /// Resolves one band attempt's share of the query against the merged
    /// floor, adding its accounting to `tally`. Leftover regions and lost
    /// cells above the floor become widened candidates (a lost cell is
    /// bounded by its parent aggregate); a failed attempt's whole band
    /// degrades to its resident root aggregate, the deepest bound that
    /// depends on no page data. Anything the floor excludes is resolved.
    fn band<X>(
        &mut self,
        shard: &ArchiveShard<'_, X>,
        attempt: &ShardAttempt,
        tally: &mut Tally,
    ) -> Result<(), ShardError> {
        tally.pages += attempt.pages;
        tally.ticks += attempt.ticks;
        let floor = self.floor;
        let excluded = |hi: f64| floor.is_some_and(|f| f >= hi);
        let levels = shard.pyramids[0].levels();
        let Ok(out) = &attempt.out else {
            let (mut candidate, count) = region_candidate(
                self.model,
                shard.pyramids,
                levels - 1,
                0,
                0,
                &mut self.effort,
            )?;
            candidate.cell = CellCoord::new(shard.row_offset, 0);
            if !excluded(candidate.bounds.hi) {
                self.keep(candidate, count, tally);
            }
            return Ok(());
        };
        let part = &out.queries[self.q];
        tally.exact_hits += part.items.len();
        merge_stop(&mut tally.stop, part.stop);
        for region in &part.leftover {
            let (mut candidate, count) = region_candidate(
                self.model,
                shard.pyramids,
                region.level,
                region.row,
                region.col,
                &mut self.effort,
            )?;
            candidate.cell =
                CellCoord::new(candidate.cell.row + shard.row_offset, candidate.cell.col);
            if !excluded(candidate.bounds.hi) {
                self.keep(candidate, count, tally);
            }
        }
        let parent_level = 1.min(levels - 1);
        for (region, page) in &part.lost {
            if excluded(region.ub) {
                continue;
            }
            tally.skipped.insert(*page);
            let (mut candidate, _) = region_candidate(
                self.model,
                shard.pyramids,
                parent_level,
                region.row >> parent_level,
                region.col >> parent_level,
                &mut self.effort,
            )?;
            candidate.cell = CellCoord::new(region.row + shard.row_offset, region.col);
            candidate.level = 0;
            self.keep(candidate, 1, tally);
        }
        Ok(())
    }

    /// Keeps an inexact candidate standing for `count` unresolved cells,
    /// its bounds widened by the ulp guard.
    fn keep(&mut self, mut candidate: ResilientHit, count: u64, tally: &mut Tally) {
        tally.unresolved += count;
        candidate.bounds = widen(candidate.bounds);
        self.hits.push(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::resilient_top_k;
    use crate::source::TileSource;
    use mbir_archive::fault::FaultProfile;
    use mbir_archive::grid::Grid2;
    use mbir_archive::stats::AccessStats;
    use mbir_archive::tile::TileStore;

    fn smooth_grid(i: usize, rows: usize, cols: usize) -> Grid2<f64> {
        Grid2::from_fn(rows, cols, |r, c| {
            ((r as f64 / 9.0 + i as f64).sin() + (c as f64 / 11.0).cos()) * 50.0 + 100.0
        })
    }

    /// One shard's owned state: band pyramids, band stores, band stats.
    struct ShardWorld {
        pyramids: Vec<AggregatePyramid>,
        stores: Vec<TileStore>,
        stats: AccessStats,
        row_offset: usize,
    }

    /// A global smooth world plus its row-band sharding. `rows` must be
    /// divisible by `shards` with tile-aligned bands.
    fn sharded_world(
        arity: usize,
        rows: usize,
        cols: usize,
        tile: usize,
        shards: usize,
    ) -> (LinearModel, Vec<AggregatePyramid>, Vec<ShardWorld>) {
        assert_eq!(rows % shards, 0);
        let band_rows = rows / shards;
        assert_eq!(band_rows % tile, 0, "bands must be tile-aligned");
        let grids: Vec<Grid2<f64>> = (0..arity).map(|i| smooth_grid(i, rows, cols)).collect();
        let global_pyramids = grids.iter().map(AggregatePyramid::build).collect();
        let worlds = (0..shards)
            .map(|s| {
                let offset = s * band_rows;
                let bands: Vec<Grid2<f64>> = grids
                    .iter()
                    .map(|g| Grid2::from_fn(band_rows, cols, |r, c| *g.at(offset + r, c)))
                    .collect();
                let stats = AccessStats::new();
                ShardWorld {
                    pyramids: bands.iter().map(AggregatePyramid::build).collect(),
                    stores: bands
                        .iter()
                        .map(|b| {
                            TileStore::new(b.clone(), tile)
                                .unwrap()
                                .with_stats(stats.clone())
                        })
                        .collect(),
                    stats,
                    row_offset: offset,
                }
            })
            .collect();
        let coeffs: Vec<f64> = (0..arity).map(|i| 1.0 - 0.3 * i as f64).collect();
        (
            LinearModel::new(coeffs, 0.25).unwrap(),
            global_pyramids,
            worlds,
        )
    }

    /// Builds sources + archive over the worlds and runs the body. The
    /// closure indirection keeps the borrow chain (stores → sources →
    /// shards) inside one scope.
    fn with_archive<R>(
        worlds: &[ShardWorld],
        body: impl FnOnce(&ShardedArchive<'_, TileSource<'_>>) -> R,
    ) -> R {
        let sources: Vec<TileSource<'_>> = worlds
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        let shards: Vec<ArchiveShard<'_, TileSource<'_>>> = worlds
            .iter()
            .zip(&sources)
            .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
            .collect();
        let archive = ShardedArchive::new(shards).unwrap();
        body(&archive)
    }

    #[test]
    fn healthy_runs_are_bit_identical_to_unsharded_resilient() {
        for shard_count in [1usize, 4, 16] {
            let (model, global, worlds) = sharded_world(3, 64, 64, 4, shard_count);
            let reference_stores: Vec<TileStore> = (0..3)
                .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
                .collect();
            let reference_src = TileSource::new(&reference_stores).unwrap();
            let reference = resilient_top_k(
                &model,
                &global,
                9,
                &reference_src,
                &ExecutionBudget::unlimited(),
            )
            .unwrap();
            with_archive(&worlds, |archive| {
                for threads in [1usize, 2, 4, 8] {
                    let pool = WorkerPool::new(threads);
                    let r = scatter_gather_top_k(
                        &model,
                        archive,
                        9,
                        &ExecutionBudget::unlimited(),
                        &ScatterPolicy::require_all(),
                        &pool,
                    )
                    .unwrap();
                    assert_eq!(
                        r.results, reference.results,
                        "shards={shard_count} threads={threads}"
                    );
                    assert!(!r.is_degraded());
                    assert_eq!(r.completeness, 1.0);
                    assert_eq!(r.budget_stop, None);
                    assert!(r.skipped_pages.is_empty());
                    assert!(r.shards.iter().all(|s| s.outcome == ShardOutcome::Complete));
                }
            });
        }
    }

    #[test]
    fn coarse_shards_are_bit_identical_to_plain_shards() {
        let (model, _, worlds) = sharded_world(3, 64, 64, 4, 4);
        // One coarse grid per band, built over that band's own pyramids.
        let grids: Vec<CoarseGrid> = worlds
            .iter()
            .map(|w| CoarseGrid::build(&w.pyramids).unwrap())
            .collect();
        let plain = with_archive(&worlds, |archive| {
            scatter_gather_top_k(
                &model,
                archive,
                9,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::require_all(),
                &WorkerPool::new(1),
            )
            .unwrap()
        });
        let sources: Vec<TileSource<'_>> = worlds
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        let shards: Vec<ArchiveShard<'_, TileSource<'_>>> = worlds
            .iter()
            .zip(&sources)
            .zip(&grids)
            .map(|((w, src), cg)| ArchiveShard::new(&w.pyramids, src, w.row_offset).with_coarse(cg))
            .collect();
        let archive = ShardedArchive::new(shards).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let pruned = scatter_gather_top_k(
                &model,
                &archive,
                9,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::require_all(),
                &WorkerPool::new(threads),
            )
            .unwrap();
            assert_eq!(pruned.results, plain.results, "threads={threads}");
            assert_eq!(pruned.completeness, plain.completeness);
            assert_eq!(pruned.skipped_pages, plain.skipped_pages);
            assert!(!pruned.is_degraded());
        }
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

    #[test]
    fn coarse_shards_save_bound_work_deterministically() {
        // Rough (pseudo-random) bands keep upper-level interval bounds
        // loose: each attribute's band max sits near 100 but no single
        // cell attains all three, so a lagging shard's region bounds stay
        // above the floor published by an earlier shard for several
        // levels while almost every leaf-adjacent child falls below it.
        // Those children are exactly what the i8 coarse pass rejects
        // before the exact bound runs. At one pool thread the shards run
        // in submission order, so the saving is deterministic.
        let band_rows = 16usize;
        let worlds: Vec<ShardWorld> = (0..4usize)
            .map(|s| {
                let bands: Vec<Grid2<f64>> = (0..3)
                    .map(|j| pseudo_grid((s * 3 + j + 1) as u64, band_rows, 64))
                    .collect();
                let stats = AccessStats::new();
                ShardWorld {
                    pyramids: bands.iter().map(AggregatePyramid::build).collect(),
                    stores: bands
                        .iter()
                        .map(|b| {
                            TileStore::new(b.clone(), 8)
                                .unwrap()
                                .with_stats(stats.clone())
                        })
                        .collect(),
                    stats,
                    row_offset: s * band_rows,
                }
            })
            .collect();
        let model = LinearModel::new(vec![1.0, 0.7, 0.4], 0.0).unwrap();
        let grids: Vec<CoarseGrid> = worlds
            .iter()
            .map(|w| CoarseGrid::build(&w.pyramids).unwrap())
            .collect();
        let plain = with_archive(&worlds, |archive| {
            scatter_gather_top_k(
                &model,
                archive,
                9,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::require_all(),
                &WorkerPool::new(1),
            )
            .unwrap()
        });
        let sources: Vec<TileSource<'_>> = worlds
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        let shards: Vec<ArchiveShard<'_, TileSource<'_>>> = worlds
            .iter()
            .zip(&sources)
            .zip(&grids)
            .map(|((w, src), cg)| ArchiveShard::new(&w.pyramids, src, w.row_offset).with_coarse(cg))
            .collect();
        let archive = ShardedArchive::new(shards).unwrap();
        let pruned = scatter_gather_top_k(
            &model,
            &archive,
            9,
            &ExecutionBudget::unlimited(),
            &ScatterPolicy::require_all(),
            &WorkerPool::new(1),
        )
        .unwrap();
        assert_eq!(pruned.results, plain.results);
        assert_eq!(pruned.completeness, plain.completeness);
        assert!(
            pruned.effort.multiply_adds * 10 <= plain.effort.multiply_adds * 9,
            "coarse shards saved too little: {} vs {}",
            pruned.effort.multiply_adds,
            plain.effort.multiply_adds
        );
    }

    #[test]
    fn cross_shard_bound_propagation_prunes_lagging_shards() {
        let (model, _, worlds) = sharded_world(2, 64, 64, 4, 4);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(1);
            let r = scatter_gather_top_k(
                &model,
                archive,
                3,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::require_all(),
                &pool,
            )
            .unwrap();
            // The smooth world concentrates the winners in one band, so
            // the floor published by the early shards must let the rest
            // skip most of their cells.
            assert!(r.effort.multiply_adds < r.effort.naive_multiply_adds / 2);
            let pages: u64 = worlds.iter().map(|w| w.stats.pages_read()).sum();
            let total_pages: usize = worlds
                .iter()
                .map(|w| w.stores.iter().map(TileStore::page_count).sum::<usize>())
                .sum();
            assert!(pages < total_pages as u64 / 2, "{pages} vs {total_pages}");
        });
    }

    fn kill_shard(world: &mut ShardWorld) {
        let store = &world.stores[0];
        let profile =
            (0..store.page_count()).fold(FaultProfile::new(0), |p, page| p.permanent(page));
        world.stores = world
            .stores
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    s.clone().with_faults(profile.clone())
                } else {
                    s.clone()
                }
            })
            .collect();
    }

    #[test]
    fn dead_shard_degrades_best_effort_answer_soundly() {
        let (model, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        // Kill the shard holding the global winner so its absence must
        // surface as widened bounds, not a silent flip.
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &model,
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        let winner_row = reference.results[0].cell.row;
        let band_rows = 64 / 4;
        let victim = winner_row / band_rows;
        kill_shard(&mut worlds[victim]);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(4);
            let r = scatter_gather_top_k(
                &model,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &ScatterPolicy::best_effort(),
                &pool,
            )
            .unwrap();
            assert!(r.is_degraded());
            assert!(r.completeness < 1.0);
            assert_eq!(r.shards[victim].outcome, ShardOutcome::Failed);
            assert_eq!(r.responded(), 3);
            // Soundness: the true winner's score must lie inside some
            // returned hit's bounds — the dead band's aggregate candidate.
            let truth = reference.results[0].score;
            assert!(
                r.results
                    .iter()
                    .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi),
                "true winner {truth} escaped all reported bounds"
            );
            // And every exact hit it did return is a genuinely correct
            // score for its cell (never a fabricated answer).
            for hit in r.results.iter().filter(|h| h.exact) {
                let x: Vec<f64> = (0..2)
                    .map(|i| *smooth_grid(i, 64, 64).at(hit.cell.row, hit.cell.col))
                    .collect();
                assert_eq!(hit.score, model.evaluate(&x));
            }
        });
    }

    #[test]
    fn quorum_policies_gate_dead_shards_with_typed_errors() {
        let (model, _, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        kill_shard(&mut worlds[0]);
        with_archive(&worlds, |archive| {
            // One worker → shard 0 runs first with an empty shared bound,
            // so its failure classification is deterministic.
            let pool = WorkerPool::new(1);
            let budget = ExecutionBudget::unlimited();
            let run = |policy: &ScatterPolicy| {
                scatter_gather_top_k(&model, archive, 5, &budget, policy, &pool)
            };
            match run(&ScatterPolicy::require_all()) {
                Err(ShardError::Insufficient(e)) => {
                    assert_eq!(e.responded, 3);
                    assert_eq!(e.required, 4);
                    assert_eq!(e.total, 4);
                    assert_eq!(e.failed, vec![0]);
                    let shown = e.to_string();
                    assert!(shown.contains("3 of 4"), "{shown}");
                    assert!(shown.contains("[0]"), "{shown}");
                }
                other => panic!("expected InsufficientShards, got {other:?}"),
            }
            match run(&ScatterPolicy::quorum(4)) {
                Err(ShardError::Insufficient(e)) => assert_eq!(e.required, 4),
                other => panic!("expected InsufficientShards, got {other:?}"),
            }
            let ok = run(&ScatterPolicy::quorum(3)).unwrap();
            assert_eq!(ok.responded(), 3);
            assert!(ok.is_degraded());
            let ok = run(&ScatterPolicy::best_effort()).unwrap();
            assert_eq!(ok.shards[0].outcome, ShardOutcome::Failed);
        });
    }

    #[test]
    fn straggler_shard_is_hedged_and_the_clean_attempt_wins() {
        let (model, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        // Slow down the band holding the global winner: the shared bound
        // can never exclude it, so its primary attempt must read a page,
        // eat the injected latency, and trip the soft deadline. Healthy
        // pages cost 1 tick, so no healthy shard can reach the deadline
        // even by reading its whole band.
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &model,
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        let slow = reference.results[0].cell.row / (64 / 4);
        let profile = (0..worlds[slow].stores[0].page_count())
            .fold(FaultProfile::new(0), |p, page| p.latency(page, 10_000));
        worlds[slow].stores = worlds[slow]
            .stores
            .iter()
            .map(|s| s.clone().with_faults(profile.clone()))
            .collect();
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(4);
            let policy = ScatterPolicy::require_all()
                .with_soft_deadline_ticks(5_000)
                .with_hedged_stragglers();
            let r = scatter_gather_top_k(
                &model,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &policy,
                &pool,
            )
            .unwrap();
            let report = &r.shards[slow];
            assert!(report.hedged, "slow shard was not hedged");
            assert!(report.hedge_won, "hedge attempt should win cleanly");
            assert_ne!(report.outcome, ShardOutcome::TimedOut);
            assert!(r.shards.iter().filter(|s| s.hedged).count() == 1);
            // The hedged answer recovers the true winner exactly.
            assert_eq!(r.results[0].cell, reference.results[0].cell);
            assert_eq!(r.results[0].score, reference.results[0].score);
            // Without hedging the same run times the shard out.
            let no_hedge = ScatterPolicy::require_all().with_soft_deadline_ticks(5_000);
            let r2 = scatter_gather_top_k(
                &model,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &no_hedge,
                &pool,
            )
            .unwrap();
            assert_eq!(r2.shards[slow].outcome, ShardOutcome::TimedOut);
            assert_eq!(r2.shards[slow].budget_stop, Some(BudgetStop::Deadline));
        });
    }

    #[test]
    fn healthy_dual_read_equals_plain_scatter_under_hedging_and_a_dead_shard() {
        let (model, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        // The destination copies: the same world cut into 8-row bands.
        let (_, _, fine) = sharded_world(2, 64, 64, 4, 8);
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &model,
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        // The winner's band straggles; the first other band dies before
        // any floor exists (one pool thread runs bands in order); the
        // next band migrates, healthy on both sides.
        let slow = reference.results[0].cell.row / (64 / 4);
        let dead = usize::from(slow == 0);
        let migrating = (0..4).find(|&s| s != slow && s != dead).unwrap();
        let profile = (0..worlds[slow].stores[0].page_count())
            .fold(FaultProfile::new(0), |p, page| p.latency(page, 10_000));
        worlds[slow].stores = worlds[slow]
            .stores
            .iter()
            .map(|s| s.clone().with_faults(profile.clone()))
            .collect();
        kill_shard(&mut worlds[dead]);
        let dest_worlds = &fine[2 * migrating..2 * migrating + 2];
        let groups = vec![DualReadGroup {
            source_shards: vec![migrating],
            dest_shards: vec![0, 1],
        }];
        with_archive(&worlds, |archive| {
            let dest_sources: Vec<TileSource<'_>> = dest_worlds
                .iter()
                .map(|w| TileSource::new(&w.stores).unwrap())
                .collect();
            let dest: Vec<ArchiveShard<'_, TileSource<'_>>> = dest_worlds
                .iter()
                .zip(&dest_sources)
                .map(|(w, src)| ArchiveShard::new(&w.pyramids, src, w.row_offset))
                .collect();
            let pool = WorkerPool::new(1);
            let budget = ExecutionBudget::unlimited();
            let policy = ScatterPolicy::best_effort()
                .with_soft_deadline_ticks(5_000)
                .with_hedged_stragglers();
            let plain = scatter_gather_top_k(&model, archive, 5, &budget, &policy, &pool).unwrap();
            let dual = scatter_gather_top_k_dual(
                &model, archive, &dest, &groups, 5, &budget, &policy, &pool,
            )
            .unwrap();
            // The setup really hedges, really loses a shard, covers nothing.
            assert!(plain.shards[slow].hedged);
            assert_eq!(plain.shards[dead].outcome, ShardOutcome::Failed);
            assert!(dual
                .shards
                .iter()
                .all(|s| s.outcome != ShardOutcome::Covered));
            // Results, effort, completeness, skipped pages, stop and every
            // per-shard report field.
            assert_eq!(dual, plain);
        });
    }

    #[test]
    fn pre_cancelled_query_degrades_identically_at_every_thread_count() {
        let (model, _, worlds) = sharded_world(2, 32, 32, 4, 4);
        with_archive(&worlds, |archive| {
            let token = CancelToken::new();
            token.cancel();
            let mut outputs = Vec::new();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                let r = scatter_gather_top_k_cancellable(
                    &model,
                    archive,
                    3,
                    &ExecutionBudget::unlimited(),
                    &ScatterPolicy::best_effort(),
                    &token,
                    &pool,
                )
                .unwrap();
                assert_eq!(r.budget_stop, Some(BudgetStop::Cancelled));
                assert!(r.completeness < 1.0);
                outputs.push(r.results);
            }
            for other in &outputs[1..] {
                assert_eq!(&outputs[0], other, "cancelled results diverge by threads");
            }
        });
    }

    #[test]
    fn topology_validation_rejects_malformed_archives() {
        let (_, _, worlds) = sharded_world(2, 32, 32, 4, 2);
        let sources: Vec<TileSource<'_>> = worlds
            .iter()
            .map(|w| TileSource::new(&w.stores).unwrap())
            .collect();
        assert!(matches!(
            ShardedArchive::<TileSource<'_>>::new(Vec::new()),
            Err(CoreError::Query(_))
        ));
        // Gap between bands: second shard claims the wrong offset.
        let gappy = vec![
            ArchiveShard::new(&worlds[0].pyramids, &sources[0], 0),
            ArchiveShard::new(&worlds[1].pyramids, &sources[1], 17),
        ];
        assert!(ShardedArchive::new(gappy).is_err());
        // First shard must start at row 0.
        let late = vec![ArchiveShard::new(&worlds[0].pyramids, &sources[0], 4)];
        assert!(ShardedArchive::new(late).is_err());
        // Column mismatch.
        let narrow = smooth_grid(0, 16, 8);
        let narrow_pyr = vec![AggregatePyramid::build(&narrow)];
        let mixed = vec![
            ArchiveShard::new(&worlds[0].pyramids, &sources[0], 0),
            ArchiveShard::new(&narrow_pyr, &sources[1], 16),
        ];
        assert!(ShardedArchive::new(mixed).is_err());
        // k = 0 still rejected, through the shard entry point.
        let (model, _, worlds2) = sharded_world(2, 32, 32, 4, 2);
        with_archive(&worlds2, |archive| {
            let pool = WorkerPool::new(1);
            assert!(matches!(
                scatter_gather_top_k(
                    &model,
                    archive,
                    0,
                    &ExecutionBudget::unlimited(),
                    &ScatterPolicy::require_all(),
                    &pool,
                ),
                Err(ShardError::Core(CoreError::Query(_)))
            ));
        });
    }

    #[test]
    fn completion_policy_requirements_and_display() {
        assert_eq!(CompletionPolicy::RequireAll.required(4), 4);
        assert_eq!(CompletionPolicy::Quorum(2).required(4), 2);
        assert_eq!(CompletionPolicy::Quorum(9).required(4), 4);
        assert_eq!(CompletionPolicy::BestEffort.required(4), 0);
        assert_eq!(CompletionPolicy::RequireAll.to_string(), "require-all");
        assert_eq!(CompletionPolicy::Quorum(3).to_string(), "quorum(3)");
        assert_eq!(CompletionPolicy::BestEffort.to_string(), "best-effort");
        assert_eq!(ShardOutcome::TimedOut.to_string(), "timed-out");
        assert_eq!(ShardOutcome::Covered.to_string(), "covered");
        let err = InsufficientShards {
            responded: 1,
            required: 3,
            total: 4,
            failed: vec![1, 2, 3],
            epoch: TopologyEpoch::new(2),
        };
        assert!(err.to_string().contains("epoch e2"));
        let wrapped: ShardError = err.clone().into();
        assert!(Error::source(&wrapped).is_some());
        assert_eq!(wrapped.to_string(), err.to_string());
        let core_err: ShardError = CoreError::Query("bad".into()).into();
        assert!(Error::source(&core_err).is_some());
        let fence: ShardError = EpochMismatch {
            requested: TopologyEpoch::new(1),
            serving: TopologyEpoch::ZERO,
        }
        .into();
        assert!(Error::source(&fence).is_some());
        assert!(fence.to_string().contains("pinned topology epoch e1"));
    }

    /// A spread of query directions over `arity` shared attributes, like
    /// the batched engine's own test worlds: sign flips, magnitude skews,
    /// and offsets so floors mature at different paces across the batch.
    fn batch_models(arity: usize, m: usize) -> Vec<LinearModel> {
        (0..m)
            .map(|qi| {
                let coeffs: Vec<f64> = (0..arity)
                    .map(|a| 1.0 - 0.3 * a as f64 + 0.17 * qi as f64 - 0.09 * (a * qi) as f64)
                    .collect();
                LinearModel::new(coeffs, 0.25 * qi as f64).unwrap()
            })
            .collect()
    }

    #[test]
    fn healthy_batched_scatter_matches_solo_scatter_per_query() {
        let (_, _, worlds) = sharded_world(3, 64, 64, 4, 4);
        let models = batch_models(3, 5);
        let budget = ExecutionBudget::unlimited();
        let policy = ScatterPolicy::require_all();
        // At one pool thread the shards run in submission order for both
        // paths, so even the per-query effort reports coincide exactly.
        let solos: Vec<ShardedTopK> = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    scatter_gather_top_k(model, archive, 7, &budget, &policy, &WorkerPool::new(1))
                        .unwrap()
                })
            })
            .collect();
        with_archive(&worlds, |archive| {
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                7,
                &budget,
                &policy,
                &WorkerPool::new(1),
            )
            .unwrap();
            assert_eq!(batch.queries.len(), models.len());
            for (q, solo) in solos.iter().enumerate() {
                let b = &batch.queries[q];
                assert_eq!(b.results, solo.results, "q={q}");
                assert_eq!(b.effort, solo.effort, "q={q}");
                assert_eq!(b.completeness, 1.0);
                assert_eq!(b.budget_stop, None);
                assert!(b.skipped_pages.is_empty());
                assert!(b.shards.iter().all(|s| s.outcome == ShardOutcome::Complete));
            }
        });
        // At higher thread counts the shared-bound timing shifts effort,
        // but healthy merged answers stay identical per query.
        for threads in [2usize, 4, 8] {
            with_archive(&worlds, |archive| {
                let batch = batched_scatter_gather_top_k(
                    &models,
                    archive,
                    7,
                    &budget,
                    &policy,
                    &WorkerPool::new(threads),
                )
                .unwrap();
                for (q, solo) in solos.iter().enumerate() {
                    assert_eq!(
                        batch.queries[q].results, solo.results,
                        "threads={threads} q={q}"
                    );
                    assert!(!batch.queries[q].is_degraded());
                }
            });
        }
    }

    #[test]
    fn batched_scatter_amortizes_pages_across_queries() {
        let (_, _, worlds) = sharded_world(3, 64, 64, 4, 8);
        let models = batch_models(3, 6);
        let budget = ExecutionBudget::unlimited();
        let policy = ScatterPolicy::require_all();
        let solo_pages: u64 = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    let r = scatter_gather_top_k(
                        model,
                        archive,
                        7,
                        &budget,
                        &policy,
                        &WorkerPool::new(1),
                    )
                    .unwrap();
                    r.shards.iter().map(|s| s.pages_read).sum::<u64>()
                })
            })
            .sum();
        with_archive(&worlds, |archive| {
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                7,
                &budget,
                &policy,
                &WorkerPool::new(1),
            )
            .unwrap();
            // One scatter serves the whole batch: overlapping queries
            // share page reads, so the batch reads strictly fewer pages
            // than six independent scatters.
            assert!(
                batch.pages_read < solo_pages,
                "batch read {} pages vs {solo_pages} across solos",
                batch.pages_read
            );
            assert!(batch.cell_requests >= batch.cells_fetched);
            assert!(
                batch.bound_requests > batch.bound_evals,
                "no bound-vector sharing: {} requests, {} evals",
                batch.bound_requests,
                batch.bound_evals
            );
        });
    }

    #[test]
    fn dead_shard_degrades_batched_answers_like_solo_scatter() {
        let (_, _, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        let models = batch_models(2, 4);
        kill_shard(&mut worlds[0]);
        let budget = ExecutionBudget::unlimited();
        // Permanent faults are stateless across read attempts, so the
        // batched verdicts coincide with solo scatter verdicts per query.
        let solos: Vec<ShardedTopK> = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    scatter_gather_top_k(
                        model,
                        archive,
                        5,
                        &budget,
                        &ScatterPolicy::best_effort(),
                        &WorkerPool::new(1),
                    )
                    .unwrap()
                })
            })
            .collect();
        with_archive(&worlds, |archive| {
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                5,
                &budget,
                &ScatterPolicy::best_effort(),
                &WorkerPool::new(1),
            )
            .unwrap();
            for (q, solo) in solos.iter().enumerate() {
                let b = &batch.queries[q];
                assert_eq!(b.results, solo.results, "q={q}");
                assert_eq!(b.completeness, solo.completeness, "q={q}");
                assert_eq!(b.skipped_pages, solo.skipped_pages, "q={q}");
                assert_eq!(b.shards[0].outcome, ShardOutcome::Failed);
                assert_eq!(b.responded(), 3);
            }
            // The quorum verdict is physical, shared by the whole batch.
            match batched_scatter_gather_top_k(
                &models,
                archive,
                5,
                &budget,
                &ScatterPolicy::require_all(),
                &WorkerPool::new(1),
            ) {
                Err(ShardError::Insufficient(e)) => {
                    assert_eq!(e.responded, 3);
                    assert_eq!(e.failed, vec![0]);
                }
                other => panic!("expected InsufficientShards, got {other:?}"),
            }
        });
    }

    #[test]
    fn batched_straggler_shard_is_hedged_and_recovers() {
        let (_, global, mut worlds) = sharded_world(2, 64, 64, 4, 4);
        let models = batch_models(2, 3);
        // Slow down the band holding query 0's global winner: no shared
        // bound can exclude it, so its primary attempt must read a page,
        // eat the injected latency, and trip the soft deadline — the
        // batch-wide stop marks the shard a straggler.
        let reference_stores: Vec<TileStore> = (0..2)
            .map(|i| TileStore::new(smooth_grid(i, 64, 64), 4).unwrap())
            .collect();
        let reference_src = TileSource::new(&reference_stores).unwrap();
        let reference = resilient_top_k(
            &models[0],
            &global,
            5,
            &reference_src,
            &ExecutionBudget::unlimited(),
        )
        .unwrap();
        let slow = reference.results[0].cell.row / (64 / 4);
        let profile = (0..worlds[slow].stores[0].page_count())
            .fold(FaultProfile::new(0), |p, page| p.latency(page, 10_000));
        worlds[slow].stores = worlds[slow]
            .stores
            .iter()
            .map(|s| s.clone().with_faults(profile.clone()))
            .collect();
        let healthy_solos: Vec<ShardedTopK> = models
            .iter()
            .map(|model| {
                with_archive(&worlds, |archive| {
                    scatter_gather_top_k(
                        model,
                        archive,
                        5,
                        &ExecutionBudget::unlimited(),
                        &ScatterPolicy::require_all(),
                        &WorkerPool::new(1),
                    )
                    .unwrap()
                })
            })
            .collect();
        with_archive(&worlds, |archive| {
            let policy = ScatterPolicy::require_all()
                .with_soft_deadline_ticks(5_000)
                .with_hedged_stragglers();
            let batch = batched_scatter_gather_top_k(
                &models,
                archive,
                5,
                &ExecutionBudget::unlimited(),
                &policy,
                &WorkerPool::new(4),
            )
            .unwrap();
            for (q, solo) in healthy_solos.iter().enumerate() {
                let report = &batch.queries[q].shards[slow];
                assert!(report.hedged, "q={q}: slow shard was not hedged");
                assert!(report.hedge_won, "q={q}: hedge attempt should win");
                assert_ne!(report.outcome, ShardOutcome::TimedOut);
                assert_eq!(batch.queries[q].results, solo.results, "q={q}");
            }
        });
    }

    #[test]
    fn pre_cancelled_batched_scatter_degrades_every_query() {
        let (_, _, worlds) = sharded_world(2, 32, 32, 4, 4);
        let models = batch_models(2, 3);
        with_archive(&worlds, |archive| {
            let token = CancelToken::new();
            token.cancel();
            let query = ScatterQuery {
                kernel: Kernel::Batched,
                models: &models,
                k: 3,
                budget: &ExecutionBudget::unlimited(),
                policy: &ScatterPolicy::best_effort(),
                cancel: Some(&token),
            };
            let batch =
                scatter::<_, TileSource<'_>>(&query, archive, &[], &[], &WorkerPool::new(2))
                    .unwrap();
            for q in &batch.queries {
                assert_eq!(q.budget_stop, Some(BudgetStop::Cancelled));
                assert!(q.completeness < 1.0);
                assert!(q.is_degraded());
            }
        });
    }

    #[test]
    fn batched_scatter_rejects_empty_and_mismatched_batches() {
        let (_, _, worlds) = sharded_world(2, 32, 32, 4, 2);
        with_archive(&worlds, |archive| {
            let pool = WorkerPool::new(1);
            let budget = ExecutionBudget::unlimited();
            let empty = batched_scatter_gather_top_k::<TileSource<'_>>(
                &[],
                archive,
                3,
                &budget,
                &ScatterPolicy::require_all(),
                &pool,
            )
            .unwrap();
            assert!(empty.queries.is_empty());
            assert_eq!(empty.pages_read, 0);
            let mismatched = vec![
                LinearModel::new(vec![1.0, 0.5], 0.0).unwrap(),
                LinearModel::new(vec![1.0], 0.0).unwrap(),
            ];
            assert!(matches!(
                batched_scatter_gather_top_k(
                    &mismatched,
                    archive,
                    3,
                    &budget,
                    &ScatterPolicy::require_all(),
                    &pool,
                ),
                Err(ShardError::Core(CoreError::Query(_)))
            ));
        });
    }
}
