//! Retry state-machine pack: the circuit breaker's
//! Closed → Open → HalfOpen transitions, the retry budget's token
//! arithmetic, and a decision-trace golden for every built-in label,
//! locked down deterministically.
//!
//! Every test scripts [`AttemptContext`] sequences straight into a
//! [`RetryThread`] — no runtime, no simulated HTM — so each transition
//! fires at an *exact*, asserted step.  The runtimes' integration with the
//! same policies is covered by `tests/retry2_phases.rs` and the
//! cross-runtime packs; this file is the specification of the state
//! machines themselves.

use std::sync::Arc;

use rhtm_api::{
    AbortCause, AttemptContext, CircuitBreakerConfig, ComposedPolicy, GiveUp, PathClass,
    RetryBudget, RetryDecision, RetryMetrics, RetryPolicyHandle, RetryThread,
};

/// A demotable hardware-path context: the only class of decision the
/// breaker governs.
fn hw(attempt: u32, cause: AbortCause) -> AttemptContext {
    AttemptContext {
        attempt,
        path: PathClass::Hardware,
        cause,
        can_demote: true,
        retry_budget: u32::MAX,
        mix_percent: 100,
        fallback_rh2: 0,
        fallback_all_software: 0,
    }
}

/// A bottom-tier software context (TL2 / RH2 slow-path): nowhere to demote
/// to, so the universal clamp must keep the thread retrying.
fn bottom_tier(attempt: u32) -> AttemptContext {
    AttemptContext {
        attempt,
        path: PathClass::Software,
        cause: AbortCause::Validation,
        can_demote: false,
        retry_budget: u32::MAX,
        mix_percent: 0,
        fallback_rh2: 0,
        fallback_all_software: 0,
    }
}

/// A policy whose give-up rule never demotes for contention (the
/// `aggressive` rule), so every demotion the test observes is the
/// breaker's or the budget's own.
fn never_gives_up() -> ComposedPolicy {
    ComposedPolicy::PAPER_DEFAULT.with_give_up(GiveUp::Never)
}

/// A thread running a breaker over [`never_gives_up`].
fn breaker(open_threshold: u32, probe_interval: u32, close_streak: u32) -> RetryThread {
    thread(never_gives_up().with_breaker(CircuitBreakerConfig {
        open_threshold,
        probe_interval,
        close_streak,
    }))
}

fn thread(policy: ComposedPolicy) -> RetryThread {
    RetryThread::new(&RetryPolicyHandle::new(policy), 1)
}

/// The circuit of a breaker thread.
fn circuit(t: &RetryThread) -> &'static str {
    t.state().circuit_label()
}

#[test]
fn breaker_opens_on_exactly_the_nth_capacity_abort() {
    let mut cb = breaker(4, 8, 2);
    let mut m = RetryMetrics::default();
    // Failures 1..=3 stay closed; the 4th consecutive capacity abort opens.
    for attempt in 1..=3u32 {
        cb.decide(&hw(attempt, AbortCause::Capacity), &mut m);
        assert_eq!(circuit(&cb), "closed", "failure {attempt} must not open");
        assert_eq!(m.circuit_opens, 0);
    }
    let opened = cb.decide(&hw(4, AbortCause::Capacity), &mut m);
    assert_eq!(opened, RetryDecision::Demote);
    assert_eq!(circuit(&cb), "open");
    assert_eq!(m.circuit_opens, 1);
}

#[test]
fn breaker_counts_conflict_and_capacity_failures_alike() {
    let mut cb = breaker(3, 8, 1);
    let mut m = RetryMetrics::default();
    cb.decide(&hw(1, AbortCause::Conflict), &mut m);
    cb.decide(&hw(2, AbortCause::Capacity), &mut m);
    assert_eq!(circuit(&cb), "closed");
    cb.decide(&hw(3, AbortCause::Conflict), &mut m);
    assert_eq!(circuit(&cb), "open", "mixed causes still open the circuit");
}

#[test]
fn open_breaker_demotes_until_the_probe_interval_elapses() {
    let mut cb = breaker(1, 3, 1);
    let mut m = RetryMetrics::default();
    // First failure opens immediately (threshold 1).
    assert_eq!(
        cb.decide(&hw(1, AbortCause::Conflict), &mut m),
        RetryDecision::Demote
    );
    assert_eq!(circuit(&cb), "open");
    // Open decisions 1 and 2 are shed demotions; the 3rd admits the probe.
    for i in 1..=2u32 {
        assert_eq!(
            cb.decide(&hw(1, AbortCause::Conflict), &mut m),
            RetryDecision::Demote,
            "open decision {i} must shed"
        );
        assert_eq!(circuit(&cb), "open");
        assert_eq!(m.circuit_probes, 0);
    }
    assert_eq!(
        cb.decide(&hw(1, AbortCause::Conflict), &mut m),
        RetryDecision::RetryHere,
        "the probe re-admits one hardware attempt"
    );
    assert_eq!(circuit(&cb), "half-open");
    assert_eq!(m.circuit_probes, 1);
}

#[test]
fn half_open_closes_after_the_commit_streak() {
    let mut cb = breaker(1, 1, 2);
    let mut m = RetryMetrics::default();
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // opens
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // probe
    assert_eq!(circuit(&cb), "half-open");
    // One hardware commit is not enough for close_streak = 2...
    cb.on_commit(true, &mut m);
    assert_eq!(circuit(&cb), "half-open");
    assert_eq!(m.circuit_closes, 0);
    // ...the second closes.
    cb.on_commit(true, &mut m);
    assert_eq!(circuit(&cb), "closed");
    assert_eq!(m.circuit_closes, 1);
}

#[test]
fn half_open_probe_failure_reopens_and_restarts_the_interval() {
    let mut cb = breaker(1, 2, 1);
    let mut m = RetryMetrics::default();
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // opens
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // shed 1
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // probe
    assert_eq!(circuit(&cb), "half-open");
    // The probe aborts: back to open, counted as a fresh opening, and the
    // probe interval restarts from zero (2 more sheds before the next probe).
    assert_eq!(
        cb.decide(&hw(2, AbortCause::Conflict), &mut m),
        RetryDecision::Demote
    );
    assert_eq!(circuit(&cb), "open");
    assert_eq!(m.circuit_opens, 2);
    assert_eq!(
        cb.decide(&hw(1, AbortCause::Conflict), &mut m),
        RetryDecision::Demote,
        "interval restarted: first post-reopen decision sheds"
    );
    cb.decide(&hw(1, AbortCause::Conflict), &mut m);
    assert_eq!(
        circuit(&cb),
        "half-open",
        "second probe admitted on schedule"
    );
    assert_eq!(m.circuit_probes, 2);
}

#[test]
fn software_commits_do_not_close_a_half_open_breaker() {
    let mut cb = breaker(1, 1, 1);
    let mut m = RetryMetrics::default();
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // opens
    cb.decide(&hw(1, AbortCause::Conflict), &mut m); // probe
    assert_eq!(circuit(&cb), "half-open");
    // The demoted siblings keep committing in software; that says nothing
    // about hardware viability, so the circuit must not close.
    for _ in 0..5 {
        cb.on_commit(false, &mut m);
    }
    assert_eq!(circuit(&cb), "half-open");
    assert_eq!(m.circuit_closes, 0);
    cb.on_commit(true, &mut m);
    assert_eq!(circuit(&cb), "closed");
}

#[test]
fn breaker_state_is_per_thread() {
    // Two registered threads of one policy — here on the same OS thread,
    // like the per-shard runtime threads of one KV worker — each own
    // their circuit.
    let policy = RetryPolicyHandle::new(never_gives_up().with_breaker(CircuitBreakerConfig {
        open_threshold: 1,
        probe_interval: 8,
        close_streak: 1,
    }));
    let (mut a, mut b) = (RetryThread::new(&policy, 7), RetryThread::new(&policy, 8));
    let mut m = RetryMetrics::default();
    a.decide(&hw(1, AbortCause::Conflict), &mut m);
    assert_eq!(circuit(&a), "open");
    assert_eq!(circuit(&b), "closed", "fresh thread, fresh circuit");
    b.decide(&hw(1, AbortCause::Conflict), &mut m);
    assert_eq!(circuit(&b), "open");
    b.on_commit(true, &mut m); // open ignores commits
    for _ in 0..8 {
        b.decide(&hw(1, AbortCause::Conflict), &mut m);
    }
    assert_eq!(circuit(&b), "half-open");
    // ...and the first thread's circuit was untouched by the other's
    // probe.
    assert_eq!(circuit(&a), "open");
    // Threads on different OS threads are just as independent.
    let other = std::thread::spawn(move || {
        let fresh = circuit(&RetryThread::new(&policy, 9));
        (fresh, circuit(&b))
    })
    .join()
    .unwrap();
    assert_eq!(other, ("closed", "half-open"));
}

#[test]
fn token_bucket_drain_and_refill_arithmetic_is_exact() {
    let bucket = RetryBudget::new(3, 2);
    assert_eq!((bucket.capacity(), bucket.refill_per_commit()), (3, 2));
    assert_eq!(bucket.tokens(), 3, "a bucket starts full");
    assert!(bucket.try_drain());
    assert!(bucket.try_drain());
    assert!(bucket.try_drain());
    assert_eq!(bucket.tokens(), 0);
    assert!(!bucket.try_drain(), "an empty bucket refuses");
    assert_eq!(bucket.tokens(), 0, "a refused drain takes nothing");
    bucket.refill();
    assert_eq!(bucket.tokens(), 2);
    bucket.refill();
    assert_eq!(bucket.tokens(), 3, "refill saturates at capacity");
    bucket.refill();
    assert_eq!(bucket.tokens(), 3);
}

#[test]
fn budget_exhaustion_demotes_and_is_counted() {
    let policy = never_gives_up().with_budget(RetryBudget::new(1, 1));
    let bucket = Arc::clone(policy.budget.as_ref().unwrap());
    let mut b = thread(policy);
    let mut m = RetryMetrics::default();
    let ctx = hw(1, AbortCause::Conflict);
    assert_eq!(
        b.decide(&ctx, &mut m),
        RetryDecision::RetryHere,
        "the last token buys a retry"
    );
    assert_eq!(bucket.tokens(), 0);
    assert_eq!(
        b.decide(&ctx, &mut m),
        RetryDecision::Demote,
        "exhaustion sheds the retry into a demotion"
    );
    assert_eq!(m.budget_exhausted, 1);
}

#[test]
fn inner_demotes_do_not_pay_tokens() {
    // The paper rule demotes a capacity abort on its own; the bucket must
    // not be charged for a retry that was never granted.
    let policy = ComposedPolicy::PAPER_DEFAULT.with_budget(RetryBudget::new(4, 1));
    let bucket = Arc::clone(policy.budget.as_ref().unwrap());
    let mut b = thread(policy);
    let mut m = RetryMetrics::default();
    assert_eq!(
        b.decide(&hw(1, AbortCause::Capacity), &mut m),
        RetryDecision::Demote
    );
    assert_eq!(bucket.tokens(), 4, "a pass-through demote is free");
    assert_eq!(m.budget_exhausted, 0);
}

#[test]
fn exhausted_budget_never_deadlocks_a_bottom_tier_thread() {
    // A solo TL2 thread (or the RH2 slow path) has nowhere to demote to.
    // The thread's clamped decision path must turn the exhaustion-demote
    // back into RetryHere — forever — or a single validation-aborting
    // thread would spin on Demote with no tier below it.
    let mut t = thread(never_gives_up().with_budget(RetryBudget::new(0, 1)));
    let mut m = RetryMetrics::default();
    for attempt in 1..=50u32 {
        assert_eq!(
            t.decide(&bottom_tier(attempt), &mut m),
            RetryDecision::RetryHere,
            "attempt {attempt}: the clamp must keep a bottom-tier thread alive"
        );
    }
    assert_eq!(m.budget_exhausted, 50, "every shed is still observed");
    assert_eq!(m.retry_here, 50, "...and lands as a clamped retry");
    assert_eq!(m.demote, 0);
}

#[test]
fn clamped_observation_splits_decisions_by_outcome() {
    // One scripted storm through the thread's observed path: the decision
    // counters must partition exactly (retry_here + demote + backoff ==
    // decisions()) and the cause histogram must follow the script.
    let mut t = RetryThread::new(&RetryPolicyHandle::circuit_breaker(), 12); // opens after 4
    let mut m = RetryMetrics::default();
    for attempt in 1..=10u32 {
        t.decide(&hw(attempt, AbortCause::Conflict), &mut m);
    }
    assert_eq!(m.decisions(), 10);
    assert_eq!(
        m.retry_here + m.demote + m.backoff,
        m.decisions(),
        "outcome counters partition the decisions"
    );
    assert_eq!(m.cause_count(AbortCause::Conflict), 10);
    assert_eq!(m.cause_count(AbortCause::Capacity), 0);
    assert_eq!(m.circuit_opens, 1, "the storm tripped the breaker once");
    assert!(m.demote >= 1, "post-open decisions shed");
}

// ---------------------------------------------------------------------
// Decision-trace golden: every built-in label, one scripted sequence
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Step {
    Decide(AttemptContext),
    Commit(bool),
}

/// splitmix64: the script's case generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 200 decisions with 47 commits between them: first every path class,
/// abort cause, budget (0/2/∞), mix (0/50/100), demotability and fallback
/// snapshot, then a hardware contention storm that opens, probes, re-opens
/// and closes a default breaker.
fn script() -> Vec<Step> {
    const PATHS: [PathClass; 3] = [
        PathClass::Hardware,
        PathClass::CommitHtm,
        PathClass::Software,
    ];
    const BUDGETS: [u32; 3] = [0, 2, u32::MAX];
    const MIXES: [u8; 3] = [0, 50, 100];
    let mut s = 0x7124_CE5C_0000_0001u64;
    let mut steps = Vec::new();
    let mut attempt = 0u32;
    let decide = |steps: &mut Vec<Step>, attempt: &mut u32, ctx: AttemptContext| {
        *attempt += 1;
        steps.push(Step::Decide(AttemptContext {
            attempt: *attempt,
            ..ctx
        }));
    };
    // Phase 1: every path, cause, budget, mix and demotability, with
    // commits of both kinds in between.
    for i in 0..136u64 {
        let r = splitmix(&mut s);
        let ctx = AttemptContext {
            attempt: 0,
            path: PATHS[(i % 3) as usize],
            cause: AbortCause::ALL[((i / 3) % 8) as usize],
            can_demote: !(r >> 8).is_multiple_of(4),
            retry_budget: BUDGETS[((r >> 16) % 3) as usize],
            mix_percent: MIXES[((r >> 24) % 3) as usize],
            fallback_rh2: u64::from((r >> 32).is_multiple_of(4)),
            fallback_all_software: u64::from((r >> 40).is_multiple_of(6)),
        };
        decide(&mut steps, &mut attempt, ctx);
        if (r >> 48).is_multiple_of(5) {
            steps.push(Step::Commit((r >> 56).is_multiple_of(2)));
            attempt = 0;
        }
    }
    // Phase 2: a hardware contention storm that trips a breaker, probes,
    // re-opens on a failed probe and closes on hardware commits.
    attempt = 0;
    let storm = AttemptContext {
        attempt: 0,
        path: PathClass::Hardware,
        cause: AbortCause::Conflict,
        can_demote: true,
        retry_budget: 2,
        mix_percent: 50,
        fallback_rh2: 0,
        fallback_all_software: 0,
    };
    for i in 0..40u32 {
        decide(&mut steps, &mut attempt, storm);
        if i % 7 == 6 {
            steps.push(Step::Commit(false));
        }
        if i == 8 || i == 38 {
            steps.push(Step::Commit(true));
            steps.push(Step::Commit(true));
            attempt = 0;
        }
    }
    for i in 0..24u32 {
        let cause = if i % 2 == 0 {
            AbortCause::Capacity
        } else {
            AbortCause::Spurious
        };
        decide(&mut steps, &mut attempt, AttemptContext { cause, ..storm });
        if i % 6 == 5 {
            steps.push(Step::Commit(true));
            attempt = 0;
        }
    }
    steps
}

/// FNV-1a over a stream of `u64`s.
fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01B3);
    }
}

/// Runs the script through a fresh thread of `label`: the post-clamp
/// decision kinds, a digest of every decision (with its spin count unless
/// `full-jitter`/`fib`, whose jitter draws are not part of the contract)
/// and of the RNG state after every step, and the final metrics.
fn trace(label: &str) -> (String, u64, String) {
    const SEED: u64 = 0x5EED_0F71_24CE;
    let mut t = RetryThread::new(&RetryPolicyHandle::parse(label).unwrap(), SEED);
    let with_spins = !matches!(label, "full-jitter" | "fib");
    let mut m = RetryMetrics::default();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut kinds = String::new();
    for step in script() {
        match step {
            Step::Decide(ctx) => {
                let (kind, spins) = match t.decide(&ctx, &mut m) {
                    RetryDecision::RetryHere => ('R', 0),
                    RetryDecision::Demote => ('D', 0),
                    RetryDecision::BackoffThen(s) => ('B', s),
                };
                kinds.push(kind);
                fnv(&mut h, kind as u64);
                if with_spins {
                    fnv(&mut h, u64::from(spins));
                }
                // The next draw is a bijection of the xorshift state.
                fnv(&mut h, t.state().rng.clone().next_u64());
            }
            Step::Commit(hardware) => {
                t.on_commit(hardware, &mut m);
                fnv(&mut h, 0xC0 + hardware as u64);
            }
        }
    }
    (kinds, h, format!("{m:?}"))
}

/// Captured from the eight separate policy types this composition
/// replaced, on the same script and seed.
const TRACE_GOLDENS: [(&str, &str, u64, &str); 8] = [
    (
        "paper-default",
        "RRRRDDRRRRDRRRRDDDDRRDRDDRRDDDRRRRRRDRDRRRRRDDDDRRRDRRRRDRDDRDRRRRRRDRDRRRRDDDDRRRRRRDRRRRRRRDDRRRRDRDRDDRRDRRDDDDRDRDRDRRDDRDRRRDRRRRRRRRRRRRDDDRRDRRRDRRRDDRRDRRDRRRDRDDRRDDDRDRDDDDDRDRDDDRDDDRDRDDDR",
        0x66f260123029357a,
        "RetryMetrics { retry_here: 119, demote: 81, backoff: 0, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
    (
        "capped-exp",
        "BBBBDDDBBBDBBBBBDDBDBDBDDBBDDDBBBDBBBBDBBBBBDDDDBBBDBBBBDBDDBDBBBBBBDBDBBBBDDDDBBBBBBDBBBBBDBDDBBBBDBDBDDBBDBBDDDBBDBDBDBBDDBDBBBDBBBBDBBBBDDDBDDBBBBDDDDDBBDBBDDDDDBDDDDBDBBBBBDBDDDDDBDDDBDBDBDDDBDBDB",
        0xb453dab0361c8378,
        "RetryMetrics { retry_here: 0, demote: 87, backoff: 113, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
    (
        "aggressive",
        "RRRRDDRRRRRRRRRRRRRRRDRDRRRDDDRRRRRRRRRRRRRRRDDDRRRDRRRRRRRRRRRRRRRRRRDRRRRDDDRRRRRRRRRRRRRRRDDRRRRDRDRRRRRRRRRRRRRRRDRDRRRDRDRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRRDRDRDRDRDRDRDRDRDRDRDRDR",
        0x61c36c83e7dd39fe,
        "RetryMetrics { retry_here: 165, demote: 35, backoff: 0, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
    (
        "adaptive",
        "RRRRDDDDRRRRDRRDDDDDDDRDDRRDDDRRRDRRRRDDDRRRDDDDRRRDRRRDDRDDRDDDDRRDRRDRRRDDDDDRRRRRDDRRRRRDRDDRDDRDRDDDDRRRRDDDDDDDDDRDDDDDRDDDRDDDRDDRRRDDDDDDDRRDDDDDDDDDDDDDDDDDDDDDDDDDDDDRDDDDDDDRDDDDDRDDDDDRDDDD",
        0xb93158e4dc07282e,
        "RetryMetrics { retry_here: 69, demote: 131, backoff: 0, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
    (
        "full-jitter",
        "BBBBDDDBBBDBBBBBDDBDBDBDDBBDDDBBBDBBBBDBBBBBDDDDBBBDBBBBDBDDBDBBBBBBDBDBBBBDDDDBBBBBBDBBBBBDBDDBBBBDBDBDDBBDBBDDDBBDBDBDBBDDBDBBBDBBBBDBBBBDDDBDDBBBBDDDDDBBDBBDDDDDBDDDDBDBBBBBDBDDDDDBDDDBDBDBDDDBDBDB",
        0xf8a0a2e6b8ee0613,
        "RetryMetrics { retry_here: 0, demote: 87, backoff: 113, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
    (
        "fib",
        "BBBBDDDBBBDBBBBBDDBDBDBDDBBDDDBBBDBBBBDBBBBBDDDDBBBDBBBBDBDDBDBBBBBBDBDBBBBDDDDBBBBBBDBBBBBDBDDBBBBDBDBDDBBDBBDDDBBDBDBDBBDDBDBBBDBBBBDBBBBDDDBDDBBBBDDDDDBBDBBDDDDDBDDDDBDBBBBBDBDDDDDBDDDBDBDBDDDBDBDB",
        0xf8a0a2e6b8ee0613,
        "RetryMetrics { retry_here: 0, demote: 87, backoff: 113, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
    (
        "cb",
        "RRRRDDRRRRDRRRRDDDDRRDRDDRRDDDRRRDRRDRRDDRRRDDDDDRRDRRRRDRDDRDRDRRRRRRDRRRRDDDDRRDRDDDRRRRDDRDDRDRRDRDDDRDRDRRDDRRDDRDRDDRDDRDDRRDRRRRDRDDDDDDDDRRRDDDDDDDDDDDDDDDDDDRDDDDDDDDRRDRDDDDDDDDDDDDDDDDDRDDDD",
        0xcca38e6e1e901f92,
        "RetryMetrics { retry_here: 83, demote: 117, backoff: 0, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 10, circuit_probes: 9, circuit_closes: 2, budget_exhausted: 0 }",
    ),
    (
        "budgeted",
        "RRRRDDRRRRDRRRRDDDDRRDRDDRRDDDRRRRRRDRDRRRRRDDDDRRRDRRRRDRDDRDRRRRRRDRDRRRRDDDDRRRRRRDRRRRRRRDDRRRRDRDRDDRRDRRDDDDRDRDRDRRDDRDRRRDRRRRRRRRRRRRDDDRRDRRRDRRRDDRRDRRDRRRDRDDRRDDDRDRDDDDDRDRDDDRDDDRDRDDDR",
        0x66f260123029357a,
        "RetryMetrics { retry_here: 119, demote: 81, backoff: 0, causes: [58, 30, 18, 30, 18, 16, 15, 15], circuit_opens: 0, circuit_probes: 0, circuit_closes: 0, budget_exhausted: 0 }",
    ),
];

#[test]
fn every_alias_reproduces_the_decision_trace_golden() {
    let labels: Vec<_> = TRACE_GOLDENS.iter().map(|g| g.0).collect();
    assert_eq!(labels, ComposedPolicy::LABELS);
    for (label, kinds, digest, metrics) in TRACE_GOLDENS {
        let (k, h, m) = trace(label);
        assert_eq!(k, kinds, "{label}: decisions");
        assert_eq!(m, metrics, "{label}: metrics");
        assert_eq!(h, digest, "{label}: decision and RNG digest {h:#018x}");
    }
}
