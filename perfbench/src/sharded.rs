//! The sharded query workloads: `interactive`, `survey` and `sweep`.
//!
//! Each builds a seeded world split into row-band shards, serves it
//! through per-shard page sources on a 2-thread [`WorkerPool`], and drives
//! it with one closed-loop client: the next request is sent when the
//! previous answer is back, so nothing ever queues. Every answer is
//! checked bit for bit against the unsharded in-memory `pyramid_top_k`
//! over the global pyramids, computed before the request is timed.

use crate::report::{Metrics, Outcome};
use crate::stats;
use crate::trace::{self_time_ns, SourceTotals, Tracer};
use crate::world::{
    attribute_grids, source_totals, Field, Query, QueryKind, QueryStream, Source, SourceConfig,
    Stack, ARCHIVE_SEED, REQUEST_STREAM, SWEEP_K, WARMUP_STREAM,
};
use crate::{hits_match, Run, SETUP_REPEATS};
use mbir_archive::grid::Grid2;
use mbir_core::engine::{pyramid_top_k, GridTopK};
use mbir_core::lifecycle::{AdmissionController, AdmissionPolicy, Priority};
use mbir_core::parallel::WorkerPool;
use mbir_core::resilient::ExecutionBudget;
use mbir_core::shard::{
    batched_scatter_gather_top_k, scatter_gather_top_k, scatter_gather_top_k_cancellable,
    ScatterPolicy, ShardedArchive, ShardedTopK,
};
use mbir_models::linear::LinearModel;
use mbir_progressive::pyramid::AggregatePyramid;
use std::time::{Duration, Instant};

/// Worker threads of every query workload's pool.
pub const POOL_THREADS: usize = 2;

/// Serving stacks an untraced run is measured on, one tail segment each.
pub const STACKS: usize = 5;

/// Extra `restart_s` samples taken after each set-up but the last.
const EXTRA_RESTARTS: usize = 4;

/// `request_p50_ms` of a query workload: the median latency of the run's
/// slower stretches, the 90th percentile of 20 segment medians. The
/// shared host this benchmark was tuned on alternates, for seconds to
/// minutes at a time, between a usual memory speed and one about a third
/// faster; a run's plain median follows the share of fast time it caught,
/// while its slower segments read the usual speed run after run. A change
/// to the program moves every segment.
pub const P50_LEVEL: crate::Level = crate::Level {
    segments: 20,
    permille: 900,
};

/// Shape and serving stack of one sharded workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    field: Field,
    rows: usize,
    cols: usize,
    tile: usize,
    shards: usize,
    replicas: usize,
    /// Per-shard cache; `None` sizes a [`SourceConfig::Cached`] to the
    /// whole shard and fills it during set-up.
    source: Option<SourceConfig>,
    kind: QueryKind,
    sweep: bool,
    admission: bool,
    tail_permille: u32,
    warmup_requests: usize,
    /// Serve the measured requests on one CPU (see [`crate::cpu`]).
    one_cpu: bool,
}

impl Spec {
    /// HPS archive, admission-controlled solo queries, a replica cache that
    /// holds the hot set.
    pub fn interactive() -> Spec {
        Spec {
            field: Field::Hps,
            rows: 1024,
            cols: 1024,
            tile: 16,
            shards: 4,
            replicas: 2,
            source: Some(SourceConfig::Replicated { cache_pages: 256 }),
            kind: QueryKind::Interactive,
            sweep: false,
            admission: true,
            tail_permille: 900,
            warmup_requests: 200,
            one_cpu: true,
        }
    }

    /// Low-coherence archive, solo k=1000 queries, a replica cache far
    /// below the working set.
    pub fn survey() -> Spec {
        Spec {
            field: Field::Rough,
            rows: 1024,
            cols: 1024,
            tile: 16,
            shards: 4,
            replicas: 2,
            source: Some(SourceConfig::Replicated { cache_pages: 16 }),
            kind: QueryKind::Survey,
            sweep: false,
            admission: false,
            tail_permille: 900,
            warmup_requests: 4,
            one_cpu: false,
        }
    }

    /// The interactive world's data behind a cache that fits each shard,
    /// queried by batched 32-model sweeps.
    pub fn sweep() -> Spec {
        Spec {
            field: Field::Hps,
            rows: 1024,
            cols: 1024,
            tile: 16,
            shards: 4,
            replicas: 1,
            source: None,
            kind: QueryKind::Interactive,
            sweep: true,
            admission: false,
            tail_permille: 900,
            warmup_requests: 8,
            one_cpu: false,
        }
    }
}

/// One closed-loop request.
#[derive(Debug, Clone)]
enum Request {
    Solo(Query),
    Sweep(Vec<LinearModel>),
}

impl Request {
    fn next(spec: &Spec, stream: &mut QueryStream) -> Request {
        if spec.sweep {
            Request::Sweep(stream.next_sweep())
        } else {
            Request::Solo(stream.next_query())
        }
    }

    /// The unsharded in-memory reference answer of every model.
    fn reference(&self, global: &[AggregatePyramid]) -> Vec<GridTopK> {
        let solve =
            |m: &LinearModel, k| pyramid_top_k(m, global, k).expect("valid reference query");
        match self {
            Request::Solo(q) => vec![solve(&q.model, q.k)],
            Request::Sweep(models) => models.iter().map(|m| solve(m, SWEEP_K)).collect(),
        }
    }
}

/// Physical-sharing counters of one batched answer.
#[derive(Debug, Clone, Copy, Default)]
struct BatchCounters {
    pages_read: u64,
    cells_fetched: u64,
    cell_requests: u64,
    bound_evals: u64,
    bound_requests: u64,
}

/// A request's answers, one per model.
struct Answer {
    queries: Vec<ShardedTopK>,
    batch: Option<BatchCounters>,
}

/// Per-layer totals over the traced requests of a run.
#[derive(Debug, Default)]
struct Ledger {
    requests: u64,
    models: u64,
    request_ns: u64,
    lifecycle_ns: u64,
    /// Same-thread self time of the scatter entry calls (wall).
    entry_ns: u64,
    source: SourceTotals,
    multiply_adds: u64,
    naive_multiply_adds: u64,
    library_pages: u64,
    batch: BatchCounters,
}

/// Drives requests through one opened world.
struct Runner<'r, 'a> {
    spec: Spec,
    stack: &'r Stack,
    sources: &'r [Source<'a>],
    archive: &'r ShardedArchive<'r, Source<'a>>,
    pool: WorkerPool,
    admission: Option<AdmissionController>,
    budget: ExecutionBudget,
    policy: ScatterPolicy,
    tracer: Tracer,
    ticks: u64,
    ledger: Ledger,
    /// Traced requests whose outside-in counters did not reconcile.
    imbalances: Vec<String>,
}

impl Runner<'_, '_> {
    /// Pool threads a scatter wave runs on at once: the ledger's
    /// per-thread share. On fewer CPUs than threads they take turns.
    fn wave_threads(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.pool
            .threads()
            .min(self.archive.shard_count())
            .min(cpus) as f64
    }

    /// Runs one request; returns its wall latency and answer.
    fn execute(&mut self, request: &Request) -> (u64, Result<Answer, String>) {
        self.tracer.next_request();
        self.ticks += 1;
        let traced = self.tracer.enabled();
        let before = traced.then(|| {
            (
                source_totals(self.sources),
                self.stack.store_pages_read(),
                self.stack.cache_counts(),
            )
        });
        let Runner {
            archive,
            pool,
            admission,
            budget,
            policy,
            tracer,
            ticks,
            ..
        } = self;
        let (archive, pool, budget, policy, ticks) = (*archive, &*pool, &*budget, &*policy, *ticks);
        let start = Instant::now();
        let root = tracer.begin("request");
        let answer = match request {
            Request::Solo(q) => match admission {
                Some(ctl) => {
                    match tracer.span("lifecycle.submit", || {
                        ctl.submit(Priority::Interactive, ticks)
                    }) {
                        Err(e) => Err(format!("refused: {e}")),
                        Ok(id) => match tracer.span("lifecycle.try_admit", || ctl.try_admit(ticks))
                        {
                            Some(admitted) if admitted == id => {
                                let token = tracer.span("lifecycle.begin", || ctl.begin(id));
                                let r = tracer.span("shard.scatter", || {
                                    scatter_gather_top_k_cancellable(
                                        &q.model, archive, q.k, budget, policy, &token, pool,
                                    )
                                });
                                tracer.span("lifecycle.complete", || ctl.complete(id, ticks));
                                r.map_err(|e| e.to_string())
                            }
                            _ => {
                                ctl.cancel(id, ticks);
                                Err("not admitted".into())
                            }
                        },
                    }
                }
                None => tracer
                    .span("shard.scatter", || {
                        scatter_gather_top_k(&q.model, archive, q.k, budget, policy, pool)
                    })
                    .map_err(|e| e.to_string()),
            }
            .map(|r| Answer {
                queries: vec![r],
                batch: None,
            }),
            Request::Sweep(models) => tracer
                .span("batched.scatter", || {
                    batched_scatter_gather_top_k(models, archive, SWEEP_K, budget, policy, pool)
                })
                .map(|b| Answer {
                    batch: Some(BatchCounters {
                        pages_read: b.pages_read,
                        cells_fetched: b.cells_fetched,
                        cell_requests: b.cell_requests,
                        bound_evals: b.bound_evals,
                        bound_requests: b.bound_requests,
                    }),
                    queries: b.queries,
                })
                .map_err(|e| e.to_string()),
        };
        tracer.end(root);
        let latency = start.elapsed().as_nanos() as u64;
        if let (Some(before), Ok(answer)) = (before, &answer) {
            self.account(before, answer);
        }
        (latency, answer)
    }

    /// Folds a traced request into the ledger and checks that the
    /// outside-in counters reconcile.
    fn account(&mut self, before: (SourceTotals, u64, (u64, u64)), answer: &Answer) {
        let (totals0, pages0, (hits0, misses0)) = before;
        let source = source_totals(self.sources).since(totals0);
        let store_pages = self.stack.store_pages_read() - pages0;
        let (hits, misses) = self.stack.cache_counts();
        let (hits, misses) = (hits - hits0, misses - misses0);
        let spans = self.tracer.spans();
        let l = &mut self.ledger;
        l.requests += 1;
        l.models += answer.queries.len() as u64;
        l.request_ns += spans[0].duration_ns();
        for (i, span) in spans.iter().enumerate().skip(1) {
            if span.name.starts_with("lifecycle.") {
                l.lifecycle_ns += self_time_ns(spans, i);
            } else if span.name.ends_with(".scatter") {
                l.entry_ns += self_time_ns(spans, i);
            }
        }
        l.source = l.source.plus(source);
        for q in &answer.queries {
            l.multiply_adds += q.effort.multiply_adds;
            l.naive_multiply_adds += q.effort.naive_multiply_adds;
        }
        let library_pages = match answer.batch {
            Some(b) => {
                l.batch.pages_read += b.pages_read;
                l.batch.cells_fetched += b.cells_fetched;
                l.batch.cell_requests += b.cell_requests;
                l.batch.bound_evals += b.bound_evals;
                l.batch.bound_requests += b.bound_requests;
                b.pages_read
            }
            None => answer.queries[0].shards.iter().map(|s| s.pages_read).sum(),
        };
        l.library_pages += library_pages;
        // A cache lookup that waited on another reader's load is counted
        // as a hit (and, by `CachedTileSource`, also as a dedup wait), so
        // every source call is exactly one hit or one miss.
        if source.calls != hits + misses {
            self.imbalances.push(format!(
                "request {}: {} source calls but {hits} cache hits + {misses} misses",
                self.ticks, source.calls
            ));
        }
        if library_pages != store_pages {
            self.imbalances.push(format!(
                "request {}: library reports {library_pages} pages, stores counted {store_pages}",
                self.ticks
            ));
        }
    }

    /// Per-layer metrics from the ledger. Self times are wall-clock shares
    /// per request: a pool thread's source time counts `1/threads`, with
    /// `threads` the pool threads that run at once (see [`Self::wave_threads`]).
    fn layer_metrics(&self, m: &mut Metrics) {
        let l = &self.ledger;
        let n = l.requests.max(1) as f64;
        let models = l.models.max(1) as f64;
        let share = self.wave_threads();
        let ratio = |a: u64, b: u64| stats::ratio(a as f64, b as f64);
        let source_wall = l.source.busy_ns() as f64 / share;
        let entry_self = (l.entry_ns as f64 - source_wall) / n;
        m.set("lifecycle.call_ns", l.lifecycle_ns as f64 / n);
        let (shard_self, batched_self) = if self.spec.sweep {
            (0.0, entry_self)
        } else {
            (entry_self, 0.0)
        };
        m.set("shard.self_ns", shard_self);
        m.set("shard.multiply_adds", l.multiply_adds as f64 / models);
        m.set(
            "shard.speedup",
            ratio(l.naive_multiply_adds, l.multiply_adds),
        );
        m.set("shard.pages_per_query", l.library_pages as f64 / models);
        m.set("replica.calls_per_query", l.source.calls as f64 / models);
        m.set("replica.hit_rate", ratio(l.source.hits, l.source.calls));
        m.set("replica.self_ns", l.source.hit_ns as f64 / share / n);
        m.set("replica.hit_ns", ratio(l.source.hit_ns, l.source.hits));
        m.set("archive.page_ns", ratio(l.source.load_ns, l.source.loads));
        m.set("archive.self_ns", l.source.load_ns as f64 / share / n);
        m.set("archive.pages_read", l.source.loads as f64 / models);
        m.set("batched.self_ns", batched_self);
        m.set(
            "batched.cell_share",
            ratio(l.batch.cell_requests, l.batch.cells_fetched),
        );
        m.set(
            "batched.bound_share",
            ratio(l.batch.bound_requests, l.batch.bound_evals),
        );
        m.set(
            "batched.pages_per_query",
            if self.spec.sweep {
                l.batch.pages_read as f64 / models
            } else {
                0.0
            },
        );
        let layers = l.lifecycle_ns as f64 + entry_self * n + source_wall;
        m.set("ledger.closure", stats::ratio(layers, l.request_ns as f64));
    }
}

/// Builds the serving stack over `grids` and hands a runner to `body`.
fn serve<R>(spec: Spec, grids: &[Grid2<f64>], body: impl FnOnce(&mut Runner<'_, '_>) -> R) -> R {
    let stack = Stack::build(grids, spec.shards, spec.replicas, spec.tile);
    let config = spec.source.unwrap_or(SourceConfig::Cached {
        capacity: stack.pages_per_shard(),
    });
    let sources = stack.sources(config);
    let archive = stack.archive(&sources);
    let mut runner = Runner {
        spec,
        stack: &stack,
        sources: &sources,
        archive: &archive,
        pool: WorkerPool::new(POOL_THREADS),
        admission: spec
            .admission
            .then(|| AdmissionController::new(AdmissionPolicy::default())),
        budget: ExecutionBudget::unlimited(),
        policy: ScatterPolicy::require_all(),
        tracer: Tracer::new(),
        ticks: 0,
        ledger: Ledger::default(),
        imbalances: Vec::new(),
    };
    body(&mut runner)
}

/// Warms a freshly built stack up with `seed`'s warm-up stream and fills a
/// cache that fits its shard. Returns the time from `rebuild` to the first
/// answer.
fn warm_up(spec: Spec, seed: u64, runner: &mut Runner<'_, '_>, rebuild: Instant) -> Duration {
    let mut warmup = QueryStream::new(spec.kind, seed, WARMUP_STREAM);
    let mut first = None;
    for _ in 0..spec.warmup_requests {
        let request = Request::next(&spec, &mut warmup);
        runner.execute(&request).1.expect("warm-up request answers");
        first.get_or_insert_with(|| rebuild.elapsed());
    }
    if spec.source.is_none() {
        runner.stack.preload(runner.sources);
    }
    first.expect("at least one warm-up request")
}

/// One timed set-up: world generation, serving stack and warm-up. Returns
/// the set-up time, the time from the start of the stack build to the
/// first answer (a `restart_s` sample) and the generated grids.
fn set_up(spec: Spec, seed: u64) -> (Duration, Duration, Vec<Grid2<f64>>) {
    let start = Instant::now();
    let grids = attribute_grids(spec.field, ARCHIVE_SEED, spec.rows, spec.cols);
    let rebuild = Instant::now();
    let (setup, restart) = serve(spec, &grids, |runner| {
        let restart = warm_up(spec, seed, runner, rebuild);
        (start.elapsed(), restart)
    });
    (setup, restart, grids)
}

/// Rebuilds the serving stack from `grids` and answers the first warm-up
/// request: one more `restart_s` sample.
fn restart(spec: Spec, seed: u64, grids: &[Grid2<f64>]) -> Duration {
    let start = Instant::now();
    serve(spec, grids, |runner| {
        let request = Request::next(&spec, &mut QueryStream::new(spec.kind, seed, WARMUP_STREAM));
        runner.execute(&request).1.expect("first request answers");
        start.elapsed()
    })
}

/// Runs one sharded workload. An untraced run times [`SETUP_REPEATS`]
/// set-ups, then rebuilds the serving stack [`STACKS`] times from the
/// generated grids and measures an equal share of the run on each; the
/// latency statistics are read from segments of the run (see
/// [`P50_LEVEL`]). Each set-up is a `restart_s` sample, and each set-up but
/// the last is followed by [`EXTRA_RESTARTS`] more. A traced run sets up
/// once and serves one stack.
pub fn run(spec: Spec, run: &Run) -> Outcome {
    let mut outcome = Outcome::new();
    let (repeats, stacks) = if run.trace {
        (1, 1)
    } else {
        (SETUP_REPEATS, STACKS)
    };
    let mut setups = Vec::new();
    let mut restarts = Vec::new();
    let mut grids = Vec::new();
    for i in 0..repeats {
        let (setup, first, generated) = set_up(spec, run.seed);
        setups.push(setup.as_secs_f64());
        restarts.push(first.as_secs_f64());
        if i + 1 < repeats {
            for _ in 0..EXTRA_RESTARTS {
                restarts.push(restart(spec, run.seed, &generated).as_secs_f64());
            }
        }
        grids = generated;
    }
    let global: Vec<AggregatePyramid> = grids.iter().map(AggregatePyramid::build).collect();
    let mut plain = Vec::new();
    let mut stream = QueryStream::new(spec.kind, run.seed, REQUEST_STREAM);
    // The first stack measures its share of the run in seconds; the others
    // issue as many requests as it did, so every stack is one equal segment.
    let mut quota = Quota::Seconds(run.seconds as f64 / stacks as f64);
    let deadline = Instant::now() + crate::WALL_CAP;
    let mut serve_stacks = || {
        for _ in 0..stacks {
            serve(spec, &grids, |runner| {
                warm_up(spec, run.seed, runner, Instant::now());
                let (traced, stack_plain) = measure(
                    spec,
                    run,
                    quota,
                    deadline,
                    &mut stream,
                    runner,
                    &global,
                    &mut outcome,
                );
                quota = Quota::Requests(traced.len() + stack_plain.len());
                plain.extend(stack_plain);
                if run.trace {
                    finish_trace(runner, &traced, &plain, &mut outcome);
                }
                if let Some(ctl) = &runner.admission {
                    for p in Priority::ALL {
                        let c = ctl.counters(p);
                        outcome.check(c.submitted == c.shed + c.cancelled + c.completed, || {
                            format!(
                                "admission {p}: submitted {} != shed + cancelled + completed {c:?}",
                                c.submitted
                            )
                        });
                    }
                }
            });
        }
    };
    let cpus = if spec.one_cpu {
        crate::cpu::on_one_cpu(serve_stacks).1
    } else {
        serve_stacks();
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    outcome.notes.push(("cpus_used", cpus as f64));
    if !run.trace {
        crate::latency_metrics(&mut outcome, &plain, spec.tail_permille, stacks, P50_LEVEL);
    }
    crate::setup_metrics(&mut outcome, &setups, &restarts);
    outcome
}

/// Per-layer metrics and ledger checks of a traced run.
fn finish_trace(runner: &mut Runner<'_, '_>, traced: &[f64], plain: &[f64], outcome: &mut Outcome) {
    let m = &mut outcome.metrics;
    runner.layer_metrics(m);
    for name in [
        "journal.append_ns",
        "pyramid.extend_ns",
        "snapshot.publish_ns",
        "snapshot.query_ns",
        "journal.bytes_per_user_byte",
        "journal.recover_ns_per_epoch",
    ] {
        m.set(name, 0.0);
    }
    m.set(
        "ledger.trace_overhead",
        stats::ratio(stats::median(traced), stats::median(plain)),
    );
    for problem in runner.imbalances.drain(..) {
        outcome.problem(problem);
    }
    let closure = outcome.metrics.get("ledger.closure").unwrap_or(0.0);
    outcome.check((closure - 1.0).abs() <= crate::CLOSURE_TOLERANCE, || {
        format!("ledger closure {closure} is not within tolerance of 1")
    });
    let shard_self = outcome.metrics.get("shard.self_ns").unwrap_or(0.0)
        + outcome.metrics.get("batched.self_ns").unwrap_or(0.0);
    outcome.check(shard_self >= 0.0, || {
        format!("entry self time {shard_self} ns is negative")
    });
}

/// How much one serving stack measures.
#[derive(Debug, Clone, Copy)]
enum Quota {
    /// At least this many seconds of request latency.
    Seconds(f64),
    /// Exactly this many requests.
    Requests(usize),
}

/// The measured closed loop on one serving stack: `quota` requests from `stream`,
/// stopping early at `deadline`. Requests are generated and solved by the
/// reference engine in blocks before any of them is timed; only request
/// latency counts toward the quota. Returns the latencies (ms) of traced
/// and untraced requests.
#[allow(clippy::too_many_arguments)]
fn measure(
    spec: Spec,
    run: &Run,
    quota: Quota,
    deadline: Instant,
    stream: &mut QueryStream,
    runner: &mut Runner<'_, '_>,
    global: &[AggregatePyramid],
    outcome: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    // The untraced samples of every stack must support the tail.
    let min_samples = stats::min_samples_for(spec.tail_permille) * if run.trace { 2 } else { 1 };
    let mut measured = 0f64;
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let mut issued = 0usize;
    loop {
        let wanted = match quota {
            Quota::Requests(n) => n - issued,
            Quota::Seconds(seconds) => {
                let target = seconds * 1e9;
                let done = issued.max(1);
                let more = (measured < target).then(|| {
                    let mean = if issued == 0 {
                        f64::INFINITY
                    } else {
                        measured / done as f64
                    };
                    (((target - measured) / mean * 1.1).ceil() as usize).max(8)
                });
                more.unwrap_or(0).max(min_samples.saturating_sub(issued))
            }
        };
        if wanted == 0 || Instant::now() >= deadline {
            break;
        }
        let block = wanted.min(4096);
        let requests: Vec<Request> = (0..block).map(|_| Request::next(&spec, stream)).collect();
        let references: Vec<Vec<GridTopK>> = requests.iter().map(|r| r.reference(global)).collect();
        for (request, reference) in requests.iter().zip(&references) {
            // Traced and untraced requests alternate in groups of four, so
            // both see every k of the interactive cycle equally often.
            let trace_this = run.trace && (issued / 4).is_multiple_of(2);
            runner.tracer.set_enabled(trace_this);
            let (latency, answer) = runner.execute(request);
            runner.tracer.set_enabled(false);
            issued += 1;
            measured += latency as f64;
            outcome.attempted += 1;
            if trace_this { &mut traced } else { &mut plain }.push(latency as f64 / 1e6);
            match answer {
                Err(e) => {
                    outcome.failed += 1;
                    outcome
                        .problems
                        .push(format!("request {issued} failed: {e}"));
                }
                Ok(answer) if answer.queries.iter().any(ShardedTopK::is_degraded) => {
                    outcome.failed += 1;
                    outcome.problems.push(format!("request {issued} degraded"));
                }
                Ok(answer) => {
                    for (i, (got, want)) in answer.queries.iter().zip(reference).enumerate() {
                        outcome.check(hits_match(&got.results, &want.results), || {
                            format!("request {issued} model {i}: answer differs from reference")
                        });
                    }
                    outcome.check(answer.queries.len() == reference.len(), || {
                        format!(
                            "request {issued}: {} answers for {} models",
                            answer.queries.len(),
                            reference.len()
                        )
                    });
                }
            }
        }
    }
    (traced, plain)
}
