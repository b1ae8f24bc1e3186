//! The `ingest` workload: one writer appends 16-row bands of all four HPS
//! attributes per commit to a [`LiveArchive`], and queries each new
//! snapshot once. A round is a fixed 100 commits from the same base, so
//! every run appends at the same archive sizes however fast it goes; at
//! the end of each round [`LiveArchive::recover`] rebuilds the archive
//! from the round's journal bytes and must answer identically.

use crate::report::{Metrics, Outcome};
use crate::stats;
use crate::trace::Tracer;
use crate::world::{attribute_grids, Field, Query, QueryKind, QueryStream, REQUEST_STREAM};
use crate::{hits_match, Run, SETUP_REPEATS};
use mbir_archive::grid::Grid2;
use mbir_archive::journal::AppendJournal;
use mbir_core::engine::pyramid_top_k;
use mbir_core::resilient::{ExecutionBudget, ResilientTopK};
use mbir_core::snapshot::LiveArchive;
use mbir_progressive::pyramid::AggregatePyramid;
use std::time::{Duration, Instant};

const COLS: usize = 128;
const BASE_ROWS: usize = 128;
const BAND_ROWS: usize = 16;
const TILE: usize = 16;
/// Commits per round: enough that p90 has ten samples beyond it.
const COMMITS: usize = 100;
const TAIL_PERMILLE: u32 = 900;
/// Rounds of an end-to-end run: the segments its latency medians are
/// taken over.
const MIN_ROUNDS: usize = 3;

/// The generated inputs: base grids and every round's bands.
struct Inputs {
    bases: Vec<Grid2<f64>>,
    /// `bands[commit][attr]`.
    bands: Vec<Vec<Grid2<f64>>>,
}

fn rows_of(grid: &Grid2<f64>, from: usize, rows: usize) -> Grid2<f64> {
    let cols = grid.cols();
    let data = grid.as_slice()[from * cols..(from + rows) * cols].to_vec();
    Grid2::from_vec(rows, cols, data).expect("row range inside the grid")
}

impl Inputs {
    fn generate(seed: u64) -> (Inputs, Vec<Grid2<f64>>) {
        let full = attribute_grids(Field::Hps, seed, BASE_ROWS + COMMITS * BAND_ROWS, COLS);
        let bases = full.iter().map(|g| rows_of(g, 0, BASE_ROWS)).collect();
        let bands = (0..COMMITS)
            .map(|c| {
                full.iter()
                    .map(|g| rows_of(g, BASE_ROWS + c * BAND_ROWS, BAND_ROWS))
                    .collect()
            })
            .collect();
        (Inputs { bases, bands }, full)
    }
}

/// Set-up: generation, `LiveArchive::new`, one warm-up query.
fn open(seed: u64, warmup: &Query) -> (Duration, Inputs, Vec<Grid2<f64>>, LiveArchive) {
    let start = Instant::now();
    let (inputs, full) = Inputs::generate(seed);
    let live = LiveArchive::new(inputs.bases.clone(), TILE).expect("aligned base grids");
    live.snapshot()
        .query_top_k(&warmup.model, warmup.k, &ExecutionBudget::unlimited())
        .expect("warm-up query answers");
    (start.elapsed(), inputs, full, live)
}

/// Per-layer totals over traced commits.
#[derive(Debug, Default)]
struct Ledger {
    commits: u64,
    request_ns: u64,
    append_ns: u64,
    query_ns: u64,
    journal_ns: u64,
    extend_ns: u64,
    recover_ns_per_epoch: Vec<f64>,
    bytes_per_user_byte: f64,
}

/// Replays the live archive's bands through the public journal and
/// pyramid entry points, timing each, so the append can be split by layer.
struct Replay {
    journal: AppendJournal,
    pyramids: Vec<AggregatePyramid>,
}

impl Replay {
    fn new(bases: &[Grid2<f64>]) -> Replay {
        Replay {
            journal: AppendJournal::new(),
            pyramids: bases.iter().map(AggregatePyramid::build).collect(),
        }
    }

    /// Appends one commit's bands; returns (journal ns, extend ns).
    fn append(&mut self, row_offset: usize, bands: &[Grid2<f64>]) -> (u64, u64) {
        let start = Instant::now();
        for band in bands {
            self.journal
                .append(row_offset, band)
                .expect("replay journal append");
        }
        let journal = start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        for (pyramid, band) in self.pyramids.iter_mut().zip(bands) {
            pyramid.extend_rows(band).expect("replay extend");
        }
        (journal, start.elapsed().as_nanos() as u64)
    }
}

/// Runs the ingest workload.
pub fn run(run: &Run) -> Outcome {
    let mut outcome = Outcome::new();
    let budget = ExecutionBudget::unlimited();
    let mut stream = QueryStream::new(QueryKind::Append, run.seed, REQUEST_STREAM);
    let warmup = stream.next_query();
    let repeats = if run.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    for _ in 1..repeats {
        setups.push(open(run.seed, &warmup).0.as_secs_f64());
    }
    let (setup, inputs, full, first_live) = open(run.seed, &warmup);
    setups.push(setup.as_secs_f64());
    // The from-scratch reference for the last commit of a round: pyramids
    // built over the full grids, never through `extend_rows`.
    let full_pyramids: Vec<AggregatePyramid> = full.iter().map(AggregatePyramid::build).collect();
    drop(full);

    let mut tracer = Tracer::new();
    let mut ledger = Ledger::default();
    let mut traced = Vec::new();
    let mut plain = Vec::new();
    let mut restarts = Vec::new();
    let target = run.seconds as f64 * 1e9;
    let wall = Instant::now();
    let mut measured = 0f64;
    let mut live = Some(first_live);
    let user_bytes = (COMMITS * BAND_ROWS * COLS * inputs.bases.len() * 8) as f64;
    // Each round is one segment of the latency metrics. A traced run
    // alternates untraced and traced rounds, so the two see the same
    // archive sizes commit for commit; its first round, which pays for
    // fresh memory, is left out of the comparison.
    let min_rounds = if run.trace { 3 } else { MIN_ROUNDS };
    while (restarts.len() < min_rounds || measured < target) && wall.elapsed() < crate::WALL_CAP {
        let round = restarts.len();
        let trace_this = run.trace && round % 2 == 1;
        let mut archive = match live.take() {
            Some(l) => l,
            None => LiveArchive::new(inputs.bases.clone(), TILE).expect("aligned base grids"),
        };
        let queries: Vec<Query> = (0..COMMITS).map(|_| stream.next_query()).collect();
        let mut last: Option<ResilientTopK> = None;
        for (c, (bands, query)) in inputs.bands.iter().zip(&queries).enumerate() {
            tracer.set_enabled(trace_this);
            tracer.next_request();
            let start = Instant::now();
            let root = tracer.begin("request");
            let appended = tracer.span("snapshot.append", || archive.append(bands));
            let answer = appended.map_err(|e| e.to_string()).and_then(|epoch| {
                let snapshot = archive.snapshot();
                tracer
                    .span("snapshot.query", || {
                        snapshot.query_top_k(&query.model, query.k, &budget)
                    })
                    .map(|a| (epoch, snapshot, a))
                    .map_err(|e| e.to_string())
            });
            tracer.end(root);
            let latency = start.elapsed().as_nanos() as u64;
            tracer.set_enabled(false);
            outcome.attempted += 1;
            measured += latency as f64;
            if trace_this {
                traced.push(latency as f64 / 1e6);
            } else if !run.trace || round > 0 {
                plain.push(latency as f64 / 1e6);
            }
            if trace_this {
                let spans = tracer.spans();
                ledger.commits += 1;
                ledger.request_ns += spans[0].duration_ns();
                for span in &spans[1..] {
                    match span.name {
                        "snapshot.append" => ledger.append_ns += span.duration_ns(),
                        "snapshot.query" => ledger.query_ns += span.duration_ns(),
                        _ => {}
                    }
                }
            }
            match answer {
                Err(e) => {
                    outcome.failed += 1;
                    outcome.problems.push(format!("commit {c} failed: {e}"));
                }
                Ok((_, _, a)) if a.is_degraded() => {
                    outcome.failed += 1;
                    outcome
                        .problems
                        .push(format!("commit {c}: degraded snapshot answer"));
                }
                Ok((epoch, snapshot, a)) => {
                    let rows = BASE_ROWS + (c + 1) * BAND_ROWS;
                    outcome.check(epoch.epoch == c as u64 + 1 && epoch.rows == rows, || {
                        format!("commit {c}: published {epoch:?}, expected {rows} rows")
                    });
                    let want = pyramid_top_k(&query.model, snapshot.pyramids(), query.k)
                        .expect("valid reference query");
                    outcome.check(hits_match(&a.results, &want.results), || {
                        format!("commit {c}: snapshot answer differs from reference")
                    });
                    last = Some(a);
                }
            }
        }
        if trace_this {
            // Replay the round's bands through the journal and pyramid
            // entry points on their own, after the round, so the replay
            // does not disturb the traced commits.
            let mut replay = Replay::new(&inputs.bases);
            for (c, bands) in inputs.bands.iter().enumerate() {
                let (journal, extend) = replay.append(BASE_ROWS + c * BAND_ROWS, bands);
                ledger.journal_ns += journal;
                ledger.extend_ns += extend;
            }
            outcome.check(replay.journal.bytes() == archive.journal_bytes(), || {
                "replayed journal differs from the live journal".into()
            });
        }
        ledger.bytes_per_user_byte = archive.journal_bytes().len() as f64 / user_bytes;

        // The last commit against pyramids built from scratch.
        let final_query = queries.last().expect("commits per round > 0");
        let want = pyramid_top_k(&final_query.model, &full_pyramids, final_query.k)
            .expect("valid reference query");
        let live_answer = last.take();
        outcome.check(
            live_answer
                .as_ref()
                .is_some_and(|a| hits_match(&a.results, &want.results)),
            || "final snapshot differs from pyramids built from scratch".into(),
        );

        // Restart: recover from the journal bytes, then answer once.
        let bases = inputs.bases.clone();
        let start = Instant::now();
        let recovered = LiveArchive::recover(bases, TILE, archive.journal_bytes());
        let recovered_answer = recovered
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|(r, _)| {
                r.snapshot()
                    .query_top_k(&final_query.model, final_query.k, &budget)
                    .map_err(|e| e.to_string())
            });
        let restart = start.elapsed();
        restarts.push(restart.as_secs_f64());
        outcome.attempted += 1;
        match (recovered, recovered_answer) {
            (Ok((r, report)), Ok(a)) => {
                outcome.check(
                    report.applied == COMMITS as u64 && report.dropped_bytes == 0,
                    || format!("recovery applied {} of {COMMITS} epochs", report.applied),
                );
                outcome.check(r.journal_bytes() == archive.journal_bytes(), || {
                    "recovered journal differs from the live journal".into()
                });
                outcome.check(live_answer.as_ref() == Some(&a), || {
                    "recovered archive answers differently".into()
                });
                ledger
                    .recover_ns_per_epoch
                    .push(restart.as_nanos() as f64 / report.applied.max(1) as f64);
            }
            (r, a) => {
                outcome.failed += 1;
                outcome.problems.push(format!(
                    "recovery failed: {:?} / {:?}",
                    r.err().map(|e| e.to_string()),
                    a.err()
                ));
            }
        }
    }

    let m = &mut outcome.metrics;
    if run.trace {
        layer_metrics(m, &ledger, &traced, &plain);
        let closure = m.get("ledger.closure").unwrap_or(0.0);
        let publish = m.get("snapshot.publish_ns").unwrap_or(0.0);
        outcome.check((closure - 1.0).abs() <= crate::CLOSURE_TOLERANCE, || {
            format!("ledger closure {closure} is not within tolerance of 1")
        });
        outcome.check(publish >= 0.0, || {
            format!("publish time {publish} ns is negative")
        });
    } else {
        let rounds = restarts.len();
        let level = crate::Level {
            segments: rounds,
            permille: 500,
        };
        crate::latency_metrics(&mut outcome, &plain, TAIL_PERMILLE, rounds, level);
    }
    crate::setup_metrics(&mut outcome, &setups, &restarts);
    outcome
}

fn layer_metrics(m: &mut Metrics, l: &Ledger, traced: &[f64], plain: &[f64]) {
    let n = l.commits.max(1) as f64;
    for name in [
        "lifecycle.call_ns",
        "shard.self_ns",
        "shard.multiply_adds",
        "shard.speedup",
        "shard.pages_per_query",
        "replica.calls_per_query",
        "replica.hit_rate",
        "replica.self_ns",
        "replica.hit_ns",
        "archive.page_ns",
        "archive.self_ns",
        "archive.pages_read",
        "batched.self_ns",
        "batched.cell_share",
        "batched.bound_share",
        "batched.pages_per_query",
    ] {
        m.set(name, 0.0);
    }
    m.set("journal.append_ns", l.journal_ns as f64 / n);
    m.set("pyramid.extend_ns", l.extend_ns as f64 / n);
    m.set(
        "snapshot.publish_ns",
        (l.append_ns as f64 - l.journal_ns as f64 - l.extend_ns as f64) / n,
    );
    m.set("snapshot.query_ns", l.query_ns as f64 / n);
    m.set("journal.bytes_per_user_byte", l.bytes_per_user_byte);
    m.set(
        "journal.recover_ns_per_epoch",
        stats::median(&l.recover_ns_per_epoch),
    );
    let layers = (l.append_ns + l.query_ns) as f64;
    m.set("ledger.closure", stats::ratio(layers, l.request_ns as f64));
    m.set(
        "ledger.trace_overhead",
        stats::ratio(stats::median(traced), stats::median(plain)),
    );
}
