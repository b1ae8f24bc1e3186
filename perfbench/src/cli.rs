//! Command-line parsing. Unknown workloads, unknown flags and malformed
//! values are errors, never silently ignored.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Admission-controlled solo top-k queries over the HPS archive.
    Interactive,
    /// Solo k=1000 queries over a low-coherence archive, cache far below
    /// the working set.
    Survey,
    /// 32-model calibration sweeps answered by one batched scatter-gather.
    Sweep,
    /// Journaled appends to a growing live archive, then recovery.
    Ingest,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::Survey,
        Workload::Sweep,
        Workload::Ingest,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Survey => "survey",
            Workload::Sweep => "sweep",
            Workload::Ingest => "ingest",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workloads to run, in order (at least one).
    pub workloads: Vec<Workload>,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of measured work per workload.
    pub seconds: u64,
    /// Whether to run the traced (per-layer) variant.
    pub trace: bool,
}

/// Usage text printed with argument errors.
pub const USAGE: &str = "usage: perfbench --workload <interactive|survey|sweep|ingest> \
[--workload ...] [--seed <u64>] [--seconds <1..=600>] [--trace <0|1>]";

/// Parses `args` (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                for name in v.split(',') {
                    workloads.push(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        return Err("no --workload given".into());
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse(argv("--workload survey --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workloads: vec![Workload::Survey],
                seed: 42,
                seconds: 10,
                trace: true
            }
        );
        let b = parse(argv("--workload interactive,ingest --workload sweep")).unwrap();
        assert_eq!(
            b.workloads,
            [Workload::Interactive, Workload::Ingest, Workload::Sweep]
        );
    }

    #[test]
    fn rejects_unknown_and_malformed_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload survey --verbose",
            "--workload survey extra",
            "--workload survey --seed x",
            "--workload survey --seed",
            "--workload survey --seconds 0",
            "--workload survey --trace 2",
        ] {
            assert!(parse(argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
