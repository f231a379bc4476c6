//! The repository's benchmark: three workloads driven through the public
//! API of the RHTM crates, each reporting end-to-end metrics with tracing
//! off and per-layer metrics with tracing on.  See `perfbench/README.md`.

pub mod checks;
pub mod closed;
pub mod hist;
pub mod host;
pub mod kv;
pub mod metrics;
pub mod trace;

use checks::Check;
use metrics::Report;
use trace::Tracer;

/// The workloads, by their `BENCHMARK.json` names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// Closed loop, constant 100k-node tree on RH1 Mixed 100.
    RbtreeRh1,
    /// Closed loop, zipfian skiplist churn on TL2.
    SkiplistTl2,
    /// Open loop then capacity, 1M-key sharded KV service on RH2.
    KvChurn1m,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::RbtreeRh1,
        WorkloadName::SkiplistTl2,
        WorkloadName::KvChurn1m,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::RbtreeRh1 => "rbtree-rh1",
            WorkloadName::SkiplistTl2 => "skiplist-tl2",
            WorkloadName::KvChurn1m => "kv-churn-1m",
        }
    }
}

/// Checked command-line arguments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Seed every input of the run is drawn from.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// Usage text for argument errors.
pub const USAGE: &str =
    "usage: perfbench --workload <rbtree-rh1|skiplist-tl2|kv-churn-1m> --seed <u64> \
     [--seconds <1..=60>] [--trace <0|1>]";

/// Parses `--workload`, `--seed`, `--seconds` (default 10) and `--trace`
/// (default 0).
pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WorkloadName::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or_else(|| {
                        format!("--seconds must be a whole number in 1..=60, got {value:?}")
                    })?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds as f64,
        trace,
    })
}

/// What one run of a workload produced.
pub struct RunOutcome {
    /// The metrics measured.
    pub report: Report,
    /// Operations attempted in the measured interval.
    pub attempted: u64,
    /// Output checks; any failure fails every attempted operation.
    pub checks: Vec<Check>,
    /// Spans recorded (only the set-up and phase spans unless tracing).
    pub tracer: Tracer,
    /// Configuration and counts for the human-readable header.
    pub notes: Vec<String>,
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> RunOutcome {
    match args.workload {
        WorkloadName::RbtreeRh1 => closed::RBTREE_RH1.run::<rhtm_workloads::ConstantRbTree>(args),
        WorkloadName::SkiplistTl2 => closed::SKIPLIST_TL2.run::<rhtm_workloads::TxSkipList>(args),
        WorkloadName::KvChurn1m => kv::run(args),
    }
}
