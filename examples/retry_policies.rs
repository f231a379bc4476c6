//! Compares the retry policies on the bank-transfer workload at 8 threads:
//! same transactions, same contention, different contention management.
//!
//! Every policy is one `ComposedPolicy`: a give-up rule, a backoff pacing,
//! an optional circuit breaker and an optional shared retry budget.  The
//! eight built-in labels are fixed compositions — `paper-default`
//! reproduces the paper's thresholds; `capped-exp`, `full-jitter` and
//! `fib` add jittered backoff so colliding threads do not retry in
//! lockstep; `aggressive` never gives up a hardware path for contention;
//! `adaptive` demotes on the first abort once the fallback counters show
//! the cascade is already degraded; `cb` and `budgeted` add a circuit
//! breaker and a retry budget.  The last row is a composition no label
//! names: Fibonacci backoff behind a circuit breaker.  The RH1 runtime
//! uses a small hardware write capacity so the cascade (and therefore the
//! demotion decisions) actually fires; stand-alone RH2 brackets it from
//! the other side.
//!
//! Each point is one `TmSpec` (`rh1-mixed-100+adaptive`, `rh2+capped-exp`,
//! ...) — the policy is just a spec axis — and the worker fan-out is a
//! scoped session.
//!
//! ```text
//! cargo run --release --example retry_policies
//! ```

use rhtm_api::{
    CircuitBreakerConfig, ComposedPolicy, DynThread, DynThreadExt, Pacing, PathKind,
    RetryPolicyHandle, SpinWindow,
};
use rhtm_htm::HtmConfig;
use rhtm_mem::{Addr, MemConfig};
use rhtm_workloads::{AlgoKind, TmSpec, WorkloadRng};

const ACCOUNTS: usize = 32;
const THREADS: usize = 8;
const TRANSFERS_PER_THREAD: usize = 4_000;
const INITIAL_BALANCE: u64 = 1_000;

struct Outcome {
    ops_per_sec: f64,
    abort_ratio: f64,
    software_share: f64,
}

/// Runs the bank workload and returns throughput, abort ratio and the
/// share of commits that ended up below the hardware fast-path.
fn run_bank(spec: TmSpec) -> Outcome {
    let instance = spec.mem(MemConfig::with_data_words(8192)).build();
    let accounts: Vec<Addr> = (0..ACCOUNTS).map(|_| instance.mem().alloc(8)).collect();
    for &a in &accounts {
        instance.sim().nt_store(a, INITIAL_BALANCE);
    }
    let accounts = &accounts;

    let started = std::time::Instant::now();
    let per_thread = instance.scope(THREADS, |session| {
        let mut rng = WorkloadRng::new(session.index() as u64 * 77 + 13);
        for _ in 0..TRANSFERS_PER_THREAD {
            let from = accounts[rng.next_below(ACCOUNTS as u64) as usize];
            let to = accounts[rng.next_below(ACCOUNTS as u64) as usize];
            if from == to {
                continue;
            }
            session.run(|tx| {
                let f = tx.read(from)?;
                if f == 0 {
                    return Ok(());
                }
                let t = tx.read(to)?;
                tx.write(from, f - 1)?;
                tx.write(to, t + 1)?;
                Ok(())
            });
        }
        DynThread::stats(&***session).clone()
    });
    let mut stats = rhtm_api::TxStats::new(false);
    for s in &per_thread {
        stats.merge(s);
    }
    let elapsed = started.elapsed();

    // The invariant every policy must preserve.
    let total: u64 = accounts.iter().map(|&a| instance.sim().nt_load(a)).sum();
    assert_eq!(total, ACCOUNTS as u64 * INITIAL_BALANCE, "balance lost!");

    let commits = stats.commits().max(1);
    Outcome {
        ops_per_sec: stats.commits() as f64 / elapsed.as_secs_f64(),
        abort_ratio: stats.abort_ratio(),
        software_share: (commits - stats.commits_on(PathKind::HardwareFast)) as f64
            / commits as f64,
    }
}

fn main() {
    println!(
        "bank transfer: {ACCOUNTS} accounts, {THREADS} threads x {TRANSFERS_PER_THREAD} transfers\n"
    );
    println!(
        "{:<14} {:>14} {:>10} {:>10}   {:>14} {:>10} {:>10}",
        "policy", "RH1 ops/s", "aborts", "demoted", "RH2 ops/s", "aborts", "demoted"
    );
    let fib_behind_a_breaker = RetryPolicyHandle::new(
        ComposedPolicy::PAPER_DEFAULT
            .with_pacing(Pacing::Fibonacci(SpinWindow::DEFAULT))
            .with_breaker(CircuitBreakerConfig::default()),
    );
    let policies = RetryPolicyHandle::builtin()
        .into_iter()
        .map(|p| (p.label(), p))
        .chain([("fib+cb", fib_behind_a_breaker)]);
    for (name, policy) in policies {
        // A small write capacity keeps the RH cascade (and its demotion
        // decisions) busy.
        let rh1_out = run_bank(
            TmSpec::new(AlgoKind::Rh1Mixed(100))
                .retry(policy.clone())
                .htm(HtmConfig::with_capacity(512, 16)),
        );
        let rh2_out = run_bank(TmSpec::new(AlgoKind::Rh2).retry(policy.clone()));

        println!(
            "{:<14} {:>14.0} {:>9.2}% {:>9.2}%   {:>14.0} {:>9.2}% {:>9.2}%",
            name,
            rh1_out.ops_per_sec,
            rh1_out.abort_ratio * 100.0,
            rh1_out.software_share * 100.0,
            rh2_out.ops_per_sec,
            rh2_out.abort_ratio * 100.0,
            rh2_out.software_share * 100.0,
        );
    }
    println!("\ntotal balance conserved under every policy ✓");
}
