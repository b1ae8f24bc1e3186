#![warn(missing_docs)]
//! # mbir-core
//!
//! The model-based information retrieval framework of the ICDCS 2000 paper
//! (§3): execute a model *progressively* over *progressively represented*
//! data, with sound pruning, so that top-K retrieval touches a fraction of
//! the archive.
//!
//! * [`engine`] — the progressive execution engine: staged-model scans
//!   (`p_m`), pyramid quad-descent (`p_d`), and the combined engine whose
//!   cost is `O(nN / (p_m p_d))` (§4.2). Every engine is *exact*: pruning
//!   uses sound interval bounds, and equivalence with a full scan is
//!   property-tested.
//! * [`metrics`] — §4.1 model accuracy: miss / false-alarm costs `C(x,y)`,
//!   the weighted total `C_T`, threshold sweeps, and precision/recall of
//!   top-K retrieval against observed occurrences.
//! * [`workflow`] — the Fig. 5 loop: hypothesize → calibrate → retrieve →
//!   revise through relevance feedback → apply to a larger archive.
//! * [`source`] / [`resilient`] — fallible base-level access through the
//!   paged archive, and the budgeted, fault-tolerant engine that degrades
//!   gracefully (partial results with sound bounds and an explicit
//!   completeness fraction) instead of aborting on lost pages.
//! * [`coarse`] — i8 quantized coarse-pass cell bounds over the pyramid
//!   levels, mirroring [`mbir_index::quant`] one layer up: the resilient
//!   engines reject child regions strictly below the top-K floor before
//!   the exact interval bound runs. Prune-only, so answers stay
//!   bit-identical.
//! * [`parallel`] — the hardware-parallel layer: a scoped worker pool,
//!   partitioned counterparts of the strict and resilient engines sharing
//!   their pruning bound through a lock-free [`SharedBound`], and batched
//!   multi-query execution over one shared (optionally page-cached)
//!   archive. Bit-identical to the sequential engines at every thread
//!   count.
//! * [`lifecycle`] — the overload layer: cooperative [`CancelToken`]s
//!   polled by the resilient engines at page granularity, and an
//!   [`AdmissionController`] with per-priority queues and best-effort
//!   load shedding behind a typed [`Overloaded`] rejection.
//! * [`shard`] — fault-domain sharded scatter-gather: row-band shards,
//!   each with its own pyramids and page source, fanned out over the
//!   worker pool with cross-shard bound propagation, straggler hedging,
//!   and quorum completion policies behind a typed
//!   [`InsufficientShards`] error. Healthy runs are bit-identical to the
//!   unsharded resilient engine; degraded shards widen bounds instead of
//!   silently flipping the fused top-K. One driver runs every scatter
//!   entry point (solo, dual-read, batched); they differ only in the
//!   batch of models, the per-shard descent kernel, and whether a
//!   dual-read destination wave runs.
//! * [`batched`] — batched multi-query execution: one shared pyramid
//!   descent serves Q queries, fetching each base cell and range box at
//!   most once per batch behind governed memo tables, scheduling by
//!   global upper bound while cross-query reuse lasts and degrading to
//!   solo-shaped query-major drains when a governor proves it doesn't.
//!   Every per-query answer is bit-identical to its solo
//!   [`resilient`] run; threaded through the parallel
//!   workers and the sharded scatter-gather.
//! * [`snapshot`] — crash-consistent live appends: a [`LiveArchive`]
//!   grows by journaled, tile-row-aligned appends (one checksummed frame
//!   per attribute per commit) and publishes every committed state as an
//!   immutable, `Arc`-shared [`EpochSnapshot`] — journal-durable, then
//!   build, then one atomic swap. Queries of any engine family run
//!   against a snapshot and therefore one committed prefix; recovery
//!   replays the journal to exactly the committed epochs, bit-identical
//!   to an archive that never crashed.
//! * [`continuous`] — standing continuous queries: a
//!   [`ContinuousQueryDriver`] re-arms the paper's Fig. 1 fire-ants FSM
//!   over each snapshot's newly committed rows, with alerts provably
//!   independent of the poll schedule.
//! * [`reshard`] — epoch-fenced live resharding: a [`ReshardCoordinator`]
//!   drives split/merge/move of tile-aligned row bands through
//!   Planned → Copying → DualRead → CutOver → Retired, with
//!   checksum-verified band copies, retry/backoff and copy quarantine,
//!   wall-deadline abort back to the source epoch, and a dual-read
//!   scatter that keeps degraded merges sound while healthy queries stay
//!   bit-identical to the pre-migration plan.
//!
//! ```
//! use mbir_archive::grid::Grid2;
//! use mbir_core::engine::pyramid_top_k;
//! use mbir_models::linear::LinearModel;
//! use mbir_progressive::pyramid::AggregatePyramid;
//!
//! let band = Grid2::from_fn(32, 32, |r, c| (r * 32 + c) as f64);
//! let pyramids = vec![AggregatePyramid::build(&band)];
//! let model = LinearModel::new(vec![1.0], 0.0).unwrap();
//! let report = pyramid_top_k(&model, &pyramids, 3).unwrap();
//! assert_eq!(report.results[0].cell.row, 31);
//! assert!(report.effort.speedup() > 1.0);
//! ```

pub mod batched;
pub mod coarse;
pub mod continuous;
pub mod engine;
pub mod error;
pub mod lifecycle;
pub mod metrics;
pub mod parallel;
pub mod plan;
pub mod query;
pub mod replica;
pub mod reshard;
pub mod resilient;
pub mod shard;
pub mod snapshot;
pub mod source;
pub mod temporal;
pub mod workflow;

pub use batched::{
    batched_top_k, batched_top_k_cancellable, batched_top_k_coarse, batched_top_k_with_scratch,
    BatchScratch, BatchedTopK,
};
pub use coarse::CoarseGrid;
pub use continuous::{ContinuousDetector, ContinuousQueryDriver};
pub use engine::{
    combined_top_k, combined_top_k_with_source, grid_query, pyramid_top_k,
    pyramid_top_k_with_source, staged_grid_top_k, staged_top_k, EffortReport,
};
pub use error::CoreError;
pub use lifecycle::{
    AdmissionController, AdmissionPolicy, CancelToken, ClassCounters, LifecycleState, Overloaded,
    Priority, SessionId,
};
pub use metrics::{
    degradation_summary, merge_shard_summaries, precision_recall_at_k, roc_curve, scaling_table,
    sharded_degradation_summary, total_cost, CostParams, CostReport, DegradationSummary, PrReport,
    RocPoint, ScalingRow,
};
pub use parallel::{
    grid_query_with_scratch, grid_query_with_source, par_batched_top_k,
    par_batched_top_k_cancellable, par_batched_top_k_coarse, par_pyramid_top_k,
    par_pyramid_top_k_with_source, par_resilient_top_k, par_resilient_top_k_cancellable,
    par_resilient_top_k_coarse, par_staged_top_k, QueryBatch, ScratchPool, SharedBound, WorkerPool,
};
pub use plan::{
    execute_planned, execute_planned_parallel, plan_grid_query, EngineChoice, PlannerConfig,
    QueryPlan,
};
pub use query::{Objective, TopKQuery};
pub use replica::{BreakerState, ReplicaConfig, ReplicaHealth, ReplicatedSource};
pub use reshard::{
    AbortReason, BandCopyReport, CopyOutcome, MigratedBand, MigrationState, ReshardCoordinator,
    ReshardPolicy, ReshardReport,
};
pub use resilient::{
    resilient_top_k, resilient_top_k_cancellable, resilient_top_k_coarse,
    resilient_top_k_coarse_with_scratch, BudgetStop, ExecutionBudget, ResilientHit, ResilientTopK,
    ScoreBounds, WallDeadline,
};
pub use shard::{
    batched_scatter_gather_top_k, scatter_gather_top_k, scatter_gather_top_k_cancellable,
    scatter_gather_top_k_dual, ArchiveShard, BatchedShardedTopK, CompletionPolicy, DualReadGroup,
    EpochMismatch, InsufficientShards, ScatterPolicy, ShardError, ShardOutcome, ShardReport,
    ShardTable, ShardedArchive, ShardedTopK,
};
pub use snapshot::{EpochSnapshot, LiveArchive, LiveRecoveryReport, SnapshotEpoch, SnapshotHandle};
pub use source::{CachedTileSource, CellSource, PyramidSource, QuarantineScrub, TileSource};
pub use temporal::{FrameTopK, TemporalRiskTracker};
