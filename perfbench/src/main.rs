//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the configuration, the output checks and one line per metric
//! with its unit and sample count, then, as the last line, the result
//! object: `{"correct", "attempted", "failed", "metrics"}`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{host, parse_args, run, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    let correct = outcome.checks.iter().all(|c| c.ok);
    let failed = if correct { 0 } else { outcome.attempted };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::cpus()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for c in &outcome.checks {
        println!(
            "check {:<44} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", outcome.report.table(defs));
    println!(
        "metric {:<38} {:>16.4} {:<10} samples={} (carried by the result's failed/attempted)",
        "failed_share",
        failed as f64 / outcome.attempted.max(1) as f64,
        "share",
        outcome.attempted
    );

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let path = dir.join("perfbench-trace").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace
    );
    match outcome.tracer.write(&path, &header) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    println!(
        "{}",
        outcome
            .report
            .result_json(defs, correct, outcome.attempted, failed)
    );
    ExitCode::SUCCESS
}
