//! The archive benchmark: seeded worlds driven through the public entry
//! points of `mbir-core`, `mbir-archive` and `mbir-progressive`, every
//! answer checked, every metric printed by name with its unit.
//!
//! ```text
//! perfbench --workload <interactive|survey|sweep|ingest> --seed <n> \
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics
//! ([`report::END_TO_END`]); with `--trace 1` it alternates traced and
//! untraced requests and reports the per-layer ledger
//! ([`report::PER_LAYER`]). The last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`; the line
//! before it records provenance. A wrong answer, a broken conservation law
//! or a ledger that does not close exits with code 1; bad arguments exit
//! with code 2.

mod cli;
mod cpu;
mod ingest;
mod report;
mod rng;
mod sharded;
mod stats;
mod trace;
mod world;

use cli::Workload;
use mbir_core::engine::ScoredCell;
use mbir_core::resilient::ResilientHit;
use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// A run stops issuing requests after this much wall time, whatever it
/// has measured.
pub const WALL_CAP: Duration = Duration::from_secs(120);

/// How far `ledger.closure` may sit from 1.
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// One workload invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of measured request time.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// Whether engine hits equal reference cells in cell and score bits.
pub fn hits_match(got: &[ResilientHit], want: &[ScoredCell]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.exact && g.level == 0 && g.cell == w.cell && g.score.to_bits() == w.score.to_bits()
        })
}

/// How `request_p50_ms` is read from a run: the nearest-rank `permille`
/// percentile of the medians of `segments` consecutive segments of equal
/// request count.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Segments the run's samples are cut into.
    pub segments: usize,
    /// Percentile of the segment medians, in per-mille.
    pub permille: u32,
}

/// Request latency metrics from untraced samples (ms, in the order
/// taken): the nearest-rank p50 read as `level` says (gated, in the result
/// line) and, in provenance, the workload's tail percentile and requests
/// completed per second of request time, each the median over `segments`
/// consecutive segments. On a shared host the tail and the throughput
/// track other guests' CPU steal more than the program, so they are
/// reported but not gated.
pub fn latency_metrics(
    outcome: &mut Outcome,
    samples_ms: &[f64],
    tail_permille: u32,
    segments: usize,
    level: Level,
) {
    let percentile = |p| {
        move |seg: &[f64]| {
            let mut sorted = seg.to_vec();
            sorted.sort_by(f64::total_cmp);
            if sorted.is_empty() {
                0.0
            } else {
                stats::percentile(&sorted, p)
            }
        }
    };
    let throughput = |seg: &[f64]| stats::ratio(seg.len() as f64, seg.iter().sum::<f64>() / 1e3);
    outcome.metrics.set(
        "request_p50_ms",
        stats::segment_percentile(samples_ms, level.segments, level.permille, percentile(500)),
    );
    let per_segment = samples_ms.len() / segments.max(1);
    let supported = stats::tail_permille(per_segment).unwrap_or(0);
    outcome.check(supported >= tail_permille, || {
        format!(
            "{per_segment} samples per segment cannot support the {tail_permille} per-mille tail"
        )
    });
    let (q1, q3) = stats::quartiles(samples_ms).unwrap_or((0.0, 0.0));
    let highest = stats::tail_permille(samples_ms.len()).unwrap_or(500);
    outcome.notes.extend([
        ("requests", samples_ms.len() as f64),
        ("segments", segments as f64),
        ("p50_segments", level.segments as f64),
        ("p50_segment_permille", f64::from(level.permille)),
        (
            "request_p50_median_ms",
            stats::segmented(samples_ms, segments, percentile(500)),
        ),
        ("tail_permille", f64::from(tail_permille)),
        (
            "request_tail_ms",
            stats::segmented(samples_ms, segments, percentile(tail_permille)),
        ),
        (
            "requests_per_s",
            stats::segmented(samples_ms, segments, throughput),
        ),
        ("request_q1_ms", q1),
        ("request_q3_ms", q3),
        ("highest_tail_permille", f64::from(highest)),
        (
            "highest_tail_ms",
            stats::segmented(samples_ms, 1, percentile(highest)),
        ),
    ]);
}

/// Set-up and memory metrics. The restart time (median of `restarts`), the
/// repeat counts and their spreads go to provenance: on a shared host the
/// query workloads' restarts spread too widely between runs to be gated.
pub fn setup_metrics(outcome: &mut Outcome, setups: &[f64], restarts: &[f64]) {
    let m = &mut outcome.metrics;
    m.set("setup_s", stats::median(setups));
    m.set("peak_rss_mb", report::peak_rss_mb().unwrap_or(0.0));
    outcome.notes.extend([
        ("setup_repeats", setups.len() as f64),
        ("setup_spread", stats::relative_spread(setups)),
        ("restart_s", stats::median(restarts)),
        ("restart_repeats", restarts.len() as f64),
        ("restart_spread", stats::relative_spread(restarts)),
    ]);
}

fn run_workload(workload: Workload, run: &Run) -> Outcome {
    match workload {
        Workload::Interactive => sharded::run(sharded::Spec::interactive(), run),
        Workload::Survey => sharded::run(sharded::Spec::survey(), run),
        Workload::Sweep => sharded::run(sharded::Spec::sweep(), run),
        Workload::Ingest => ingest::run(run),
    }
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let table = if run.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let mut all_correct = true;
    for workload in &args.workloads {
        let cpu_before = report::cpu_ticks();
        let outcome = run_workload(*workload, &run);
        let steal = report::steal_share(cpu_before, report::cpu_ticks());
        for problem in outcome.problems.iter().take(20) {
            eprintln!("perfbench: {workload}: {problem}");
        }
        for (name, unit) in table {
            let value = outcome.metrics.get(name).unwrap_or(f64::NAN);
            println!("{workload:<12} {name:<30} {value:>16.4} {unit}");
        }
        let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        let provenance = outcome.notes.iter().fold(
            report::provenance()
                .text("workload", workload.name())
                .number("seed", run.seed as f64)
                .number("seconds", run.seconds as f64)
                .number("trace", f64::from(u8::from(run.trace)))
                .number("pool_threads", sharded::POOL_THREADS as f64)
                .number("attempted", outcome.attempted as f64)
                .number("failed_frac", failed_frac)
                .number("cpu_steal_share", steal),
            |p, (key, value)| p.number(key, *value),
        );
        println!("provenance {}", provenance.render());
        println!("{}", report::result_line(&outcome, table));
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
