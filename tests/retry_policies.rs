//! The retry-policy layer, end to end.
//!
//! * **Seed equivalence** — with the default `paper-default` policy every
//!   runtime must reproduce the pre-refactor retry loops *bit-identically*:
//!   the golden `TxStats` below were captured from the seed implementation
//!   (hardcoded thresholds, inlined `Backoff` + counter logic) on fixed-seed
//!   single-threaded workloads before the loops were routed through
//!   [`RetryPolicy`].  Any drift in decision order, RNG draw sites or
//!   counter semantics shows up as a mismatch.
//! * **Budget semantics** — a retry budget of `N` means `N` *extra*
//!   attempts (`N + 1` total) at a commit-time decision site, for both the
//!   RH1 commit transaction and the RH2 write-back (the seed's `>` vs `>=`
//!   idioms unified).
//! * **Invariant stress** — every built-in policy, on every demoting
//!   runtime, under fallback pressure, must conserve the bank-transfer
//!   balance: a policy can change *when* paths give up, never *whether* the
//!   outcome is serialisable.
//! * **Per-thread state** — runtimes sharing one policy never share its
//!   circuit breaker.
//!
//! [`RetryPolicy`]: rhtm_api::RetryPolicy

use std::sync::{Arc, Mutex};

use rhtm_api::{
    AttemptContext, ComposedPolicy, PathClass, RetryDecision, RetryMetrics, RetryPolicy,
    RetryPolicyHandle, RetryState, TmRuntime, TmThread, TxStats, Txn,
};
use rhtm_core::{RhConfig, RhRuntime};
use rhtm_htm::{HtmConfig, HtmRuntime, HtmRuntimeConfig};
use rhtm_hytm_std::{StdHytmConfig, StdHytmRuntime};
use rhtm_mem::{Addr, MemConfig};
use rhtm_stm::{Tl2Config, Tl2Runtime};

// ---------------------------------------------------------------------
// Shared fixed-seed workload (identical to the pre-refactor capture run)
// ---------------------------------------------------------------------

fn drive<RT: TmRuntime>(rt: &RT, accounts: &[Addr], wide: bool) -> TxStats {
    let mut th = rt.register_thread();
    for k in 0..2_000usize {
        if wide {
            // One transaction updating 8 spread accounts: overflows tiny
            // write capacities, walking the full cascade deterministically.
            th.execute(|tx| {
                for j in 0..8 {
                    let a = accounts[(k * 5 + j * 3 + 1) % accounts.len()];
                    let v = tx.read(a)?;
                    tx.write(a, v + 1)?;
                }
                Ok(())
            });
        } else {
            let from = accounts[(k * 7 + 1) % accounts.len()];
            let to = accounts[(k * 13 + 5) % accounts.len()];
            if from == to {
                continue;
            }
            th.execute(|tx| {
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
    }
    th.stats().clone()
}

fn alloc_accounts<RT: TmRuntime>(rt: &RT) -> Vec<Addr> {
    let accounts: Vec<Addr> = (0..16).map(|_| rt.mem().alloc(64)).collect();
    for &a in &accounts {
        rt.mem().heap().store(a, 500);
    }
    accounts
}

fn spurious() -> HtmConfig {
    HtmConfig::default()
        .with_spurious_abort_rate(0.3)
        .with_seed(42)
}

fn mem() -> MemConfig {
    MemConfig::with_data_words(8192)
}

/// The golden numbers captured from the seed loops (see module docs).
struct Golden {
    commits_by_path: [u64; 3],
    aborts_by_cause: [u64; 8],
    reads: u64,
    writes: u64,
    htm_commits: u64,
    htm_aborts: u64,
}

fn assert_golden(name: &str, stats: &TxStats, golden: &Golden) {
    assert_eq!(
        stats.commits_by_path, golden.commits_by_path,
        "{name}: path"
    );
    assert_eq!(
        stats.aborts_by_cause, golden.aborts_by_cause,
        "{name}: cause"
    );
    assert_eq!(stats.reads, golden.reads, "{name}: reads");
    assert_eq!(stats.writes, golden.writes, "{name}: writes");
    assert_eq!(stats.htm_commits, golden.htm_commits, "{name}: htm_commits");
    assert_eq!(stats.htm_aborts, golden.htm_aborts, "{name}: htm_aborts");
}

// ---------------------------------------------------------------------
// Seed equivalence: paper-default == the pre-refactor loops, bit for bit
// ---------------------------------------------------------------------

#[test]
fn paper_default_matches_the_seed_rh_loops_bit_for_bit() {
    // RH1 Mixed 100: spurious aborts exercise the Mix demotion every time.
    let rt = RhRuntime::new(mem(), spurious(), RhConfig::rh1_mixed(100).with_seed(7));
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "rh1_mixed100",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1232, 518, 0],
            aborts_by_cause: [0, 0, 0, 518, 0, 260, 0, 0],
            reads: 4870,
            writes: 4536,
            htm_commits: 1750,
            htm_aborts: 186,
        },
    );

    // RH1 Mixed 40: the probabilistic Mix draw — same RNG, same draw
    // sites, same decisions as the seed's inlined `next_random() % 100`.
    let rt = RhRuntime::new(mem(), spurious(), RhConfig::rh1_mixed(40).with_seed(7));
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "rh1_mixed40",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1504, 246, 0],
            aborts_by_cause: [0, 0, 0, 617, 0, 156, 0, 0],
            reads: 4912,
            writes: 4734,
            htm_commits: 1750,
            htm_aborts: 87,
        },
    );

    // RH1 Fast: mix 0 — every spurious abort retries in hardware.
    let rt = RhRuntime::new(mem(), spurious(), RhConfig::rh1_fast().with_seed(7));
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "rh1_fast",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1750, 0, 0],
            aborts_by_cause: [0, 0, 0, 704, 0, 0, 0, 0],
            reads: 4908,
            writes: 4908,
            htm_commits: 1750,
            htm_aborts: 0,
        },
    );

    // Stand-alone RH2.
    let rt = RhRuntime::new(mem(), spurious(), RhConfig::rh2().with_seed(7));
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "rh2",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1232, 518, 0],
            aborts_by_cause: [0, 0, 0, 518, 0, 0, 0, 0],
            reads: 4536,
            writes: 4536,
            htm_commits: 1750,
            htm_aborts: 186,
        },
    );

    // Full-cascade walk: a 4-line write capacity forces fast-path →
    // mixed slow-path → RH2 commit → all-software write-back on every
    // wide transaction.
    let rt = RhRuntime::new(
        mem(),
        HtmConfig::with_capacity(4096, 4)
            .with_spurious_abort_rate(0.3)
            .with_seed(42),
        RhConfig::rh1_mixed(100).with_seed(7),
    );
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "rh1_cascade_wide",
        &drive(&rt, &accounts, true),
        &Golden {
            commits_by_path: [0, 0, 2000],
            aborts_by_cause: [0, 2000, 0, 0, 0, 0, 0, 0],
            reads: 22000,
            writes: 22000,
            htm_commits: 0,
            htm_aborts: 4000,
        },
    );
}

#[test]
fn paper_default_matches_the_seed_baseline_loops_bit_for_bit() {
    // Standard HyTM with the default 4-retry budget: a handful of
    // transactions exhaust it against spurious aborts and demote.
    let rt = StdHytmRuntime::new(mem(), spurious(), StdHytmConfig::default());
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "std_hytm_default",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1747, 0, 3],
            aborts_by_cause: [0, 0, 0, 703, 0, 3, 0, 0],
            reads: 4909,
            writes: 4906,
            htm_commits: 1747,
            htm_aborts: 703,
        },
    );

    // Standard HyTM hardware-only: unbounded budget, never demotes.
    let rt = StdHytmRuntime::new(mem(), spurious(), StdHytmConfig::hardware_only());
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "std_hytm_hw_only",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1750, 0, 0],
            aborts_by_cause: [0, 0, 0, 704, 0, 0, 0, 0],
            reads: 4908,
            writes: 4908,
            htm_commits: 1750,
            htm_aborts: 704,
        },
    );

    // Pure HTM: no fallback, retry forever.
    let rt = HtmRuntime::new(mem(), spurious());
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "pure_htm",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [1750, 0, 0],
            aborts_by_cause: [0, 0, 0, 704, 0, 0, 0, 0],
            reads: 4908,
            writes: 4908,
            htm_commits: 1750,
            htm_aborts: 704,
        },
    );

    // TL2: single-threaded software, nothing ever aborts.
    let rt = Tl2Runtime::new(mem());
    let accounts = alloc_accounts(&rt);
    assert_golden(
        "tl2",
        &drive(&rt, &accounts, false),
        &Golden {
            commits_by_path: [0, 0, 1750],
            aborts_by_cause: [0, 0, 0, 0, 0, 0, 0, 0],
            reads: 3500,
            writes: 3500,
            htm_commits: 0,
            htm_aborts: 0,
        },
    );
}

#[test]
fn explicit_paper_default_equals_the_default_config() {
    // Spelling the policy out must be indistinguishable from the default.
    let run = |config: RhConfig| {
        let rt = RhRuntime::new(mem(), spurious(), config);
        let accounts = alloc_accounts(&rt);
        drive(&rt, &accounts, false)
    };
    let implicit = run(RhConfig::rh1_mixed(100).with_seed(7));
    let explicit = run(RhConfig::rh1_mixed(100)
        .with_seed(7)
        .with_retry_policy(RetryPolicyHandle::paper_default()));
    assert_eq!(implicit, explicit);
}

// ---------------------------------------------------------------------
// Budget semantics: N = max extra attempts, at both commit-time sites
// ---------------------------------------------------------------------

/// A recording wrapper: decides like `paper-default` and logs every
/// context it saw, so tests can assert what the runtimes actually ask.
#[derive(Clone, Debug)]
struct Recording {
    seen: Arc<Mutex<Vec<AttemptContext>>>,
}

impl Recording {
    fn new() -> Recording {
        Recording {
            seen: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl RetryPolicy for Recording {
    fn label(&self) -> &'static str {
        "recording"
    }

    fn decide(
        &self,
        ctx: &AttemptContext,
        state: &mut RetryState,
        metrics: &mut RetryMetrics,
    ) -> RetryDecision {
        self.seen.lock().unwrap().push(*ctx);
        ComposedPolicy::PAPER_DEFAULT.decide(ctx, state, metrics)
    }
}

#[test]
fn commit_sites_never_exceed_budget_plus_one_attempts() {
    // Heavy spurious pressure on the RH1 commit-time hardware transaction:
    // the policy must be consulted at most `budget + 1` times per commit
    // (the budget counts *extra* attempts), after which the decision
    // demotes and the attempt counter restarts.
    for budget in [0u32, 2, 5] {
        let recorder = Recording::new();
        let config = RhConfig {
            commit_htm_retries: budget,
            writeback_htm_retries: budget,
            always_slow: true, // every transaction exercises the commit HTM
            ..RhConfig::rh1_mixed(100)
        }
        .with_retry_policy(RetryPolicyHandle::new(recorder.clone()));
        let rt = RhRuntime::new(
            mem(),
            HtmConfig::default()
                .with_spurious_abort_rate(0.6)
                .with_seed(3),
            config,
        );
        let accounts = alloc_accounts(&rt);
        let stats = drive(&rt, &accounts, false);
        assert!(stats.commits() > 0);

        let seen = recorder.seen.lock().unwrap();
        let commit_attempts: Vec<u32> = seen
            .iter()
            .filter(|c| c.path == PathClass::CommitHtm)
            .map(|c| c.attempt)
            .collect();
        assert!(
            !commit_attempts.is_empty(),
            "budget {budget}: commit site never consulted"
        );
        let max_seen = *commit_attempts.iter().max().unwrap();
        assert!(
            max_seen <= budget + 1,
            "budget {budget}: saw attempt {max_seen} (> budget + 1)"
        );
        // Every consultation carried the configured budget.
        assert!(seen
            .iter()
            .filter(|c| c.path == PathClass::CommitHtm)
            .all(|c| c.retry_budget == budget));
        // And with a non-zero budget the retries actually happen: some
        // consultation must reach attempt == budget + 1 under 60% spurious
        // pressure over 2000 transactions.
        if budget <= 2 {
            assert_eq!(
                max_seen,
                budget + 1,
                "budget {budget}: demotion threshold never reached"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Invariant stress: every policy, every demoting runtime, real threads
// ---------------------------------------------------------------------

fn bank_stress<RT: TmRuntime + Send + Sync + 'static>(rt: Arc<RT>, label: &str) {
    let accounts: Vec<Addr> = (0..16).map(|_| rt.mem().alloc(1)).collect();
    for &a in &accounts {
        rt.mem().heap().store(a, 500);
    }
    let accounts = Arc::new(accounts);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let rt = Arc::clone(&rt);
            let accounts = Arc::clone(&accounts);
            std::thread::spawn(move || {
                let mut th = rt.register_thread();
                for k in 0..1_500usize {
                    let from = accounts[(k * 7 + i) % accounts.len()];
                    let to = accounts[(k * 13 + 3 * i + 1) % accounts.len()];
                    if from == to {
                        continue;
                    }
                    th.execute(|tx| {
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
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total: u64 = accounts.iter().map(|&a| rt.mem().heap().load(a)).sum();
    assert_eq!(total, 16 * 500, "balance lost: {label}");
}

#[test]
fn every_policy_conserves_balance_on_the_rh_cascade() {
    for policy in RetryPolicyHandle::builtin() {
        // A tiny write capacity pushes commits onto the RH2 / all-software
        // fallbacks, so the policy's demotion decisions actually fire.
        let rt = Arc::new(RhRuntime::new(
            mem(),
            HtmConfig::with_capacity(64, 4),
            RhConfig::rh1_mixed(100).with_retry_policy(policy.clone()),
        ));
        bank_stress(rt, &format!("RH1 Mixed 100 × {}", policy.label()));

        let rt = Arc::new(RhRuntime::new(
            MemConfig::with_data_words(4096),
            HtmConfig::default(),
            RhConfig::rh2().with_retry_policy(policy.clone()),
        ));
        bank_stress(rt, &format!("RH2 × {}", policy.label()));
    }
}

#[test]
fn every_policy_conserves_balance_on_the_baselines() {
    for policy in RetryPolicyHandle::builtin() {
        // A zero hardware-retry budget maximises demotion traffic.
        let rt = Arc::new(StdHytmRuntime::new(
            mem(),
            HtmConfig::default(),
            StdHytmConfig {
                hardware_only: false,
                hw_retries: 0,
                retry_policy: policy.clone(),
            },
        ));
        bank_stress(rt, &format!("Standard HyTM × {}", policy.label()));

        let rt = Arc::new(HtmRuntime::with_config(
            MemConfig::with_data_words(4096),
            HtmConfig::default(),
            HtmRuntimeConfig::default().with_retry_policy(policy.clone()),
        ));
        bank_stress(rt, &format!("HTM × {}", policy.label()));

        let rt = Arc::new(Tl2Runtime::with_config(
            MemConfig::with_data_words(4096),
            Tl2Config::default().with_retry_policy(policy.clone()),
        ));
        bank_stress(rt, &format!("TL2 × {}", policy.label()));
    }
}

// ---------------------------------------------------------------------
// Behavioural differences between policies actually materialise
// ---------------------------------------------------------------------

#[test]
fn aggressive_never_demotes_where_paper_default_does() {
    // Under pure spurious pressure with a zero budget, paper-default's
    // Standard HyTM demotes to software immediately; aggressive stays in
    // hardware for every commit.
    let run = |policy: RetryPolicyHandle| {
        let rt = StdHytmRuntime::new(
            mem(),
            spurious(),
            StdHytmConfig {
                hardware_only: false,
                hw_retries: 0,
                retry_policy: policy,
            },
        );
        let accounts = alloc_accounts(&rt);
        drive(&rt, &accounts, false)
    };
    let paper = run(RetryPolicyHandle::paper_default());
    let aggressive = run(RetryPolicyHandle::aggressive());
    assert!(
        paper.commits_on(rhtm_api::PathKind::Software) > 0,
        "paper-default should demote with a zero budget"
    );
    assert_eq!(
        aggressive.commits_on(rhtm_api::PathKind::Software),
        0,
        "aggressive must never demote on contention"
    );
    assert_eq!(aggressive.commits(), paper.commits());
}

#[test]
fn protected_instructions_survive_every_policy() {
    // The hardware-limitation clamp: even a policy that never demotes by
    // itself must reach the software path for a protected instruction.
    for policy in RetryPolicyHandle::builtin() {
        let rt = RhRuntime::new(
            mem(),
            HtmConfig::default(),
            RhConfig::rh1_fast().with_retry_policy(policy.clone()),
        );
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        let v = th.execute(|tx| {
            tx.protected_instruction()?;
            let v = tx.read(addr)?;
            tx.write(addr, v + 3)?;
            Ok(v + 3)
        });
        assert_eq!(v, 3, "{}", policy.label());
    }
}

// ---------------------------------------------------------------------
// Per-thread state: runtimes sharing one policy keep separate circuits
// ---------------------------------------------------------------------

#[test]
fn runtimes_sharing_a_breaker_policy_keep_separate_circuits() {
    // The shape of one KV worker thread serving two shards: both shards'
    // runtimes are built from clones of one `cb` policy, and one OS thread
    // registers with both.  Mix 0 means the paper rule never demotes a
    // contention abort, so any demotion below is the breaker's own.
    let config = RhConfig::rh1_mixed(0).with_retry_policy(RetryPolicyHandle::circuit_breaker());
    // Every hardware attempt that writes is forced to abort.
    let shard = || {
        RhRuntime::new(
            mem(),
            HtmConfig::default().with_forced_abort_ratio(1.0),
            config.clone(),
        )
    };
    let (a, b) = (shard(), shard());
    let (addr_a, addr_b) = (a.mem().alloc(1), b.mem().alloc(1));
    let increment = |addr| {
        move |tx: &mut rhtm_core::RhThread| {
            let v = tx.read(addr)?;
            tx.write(addr, v + 1)
        }
    };
    let mut ta = a.register_thread();
    let mut tb = b.register_thread();

    // A's circuit opens on its 4th failure and the transaction commits on
    // the slow path.
    ta.execute(increment(addr_a));
    assert_eq!(ta.stats().retry.circuit_opens, 1);
    assert_eq!(ta.stats().retry.retry_here, 3);

    // B's circuit is its own and still closed: its first hardware abort is
    // retried in hardware, and B trips only after its own 4 failures.
    tb.execute(increment(addr_b));
    let retry = &tb.stats().retry;
    assert_eq!(
        (retry.retry_here, retry.demote, retry.circuit_opens),
        (3, 1, 1),
        "shard B's first aborts were decided by shard A's open circuit"
    );
    assert_eq!(b.mem().heap().load(addr_b), 1);
}
