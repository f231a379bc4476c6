//! The circuit breaker and retry budget under phased load: property tests
//! that the breaker actually sheds doomed hardware work when a flash crowd
//! arrives, plus the golden neutrality guarantee (an infinite-threshold
//! breaker is byte-equivalent to the same policy without one).
//!
//! All runs are single-threaded over the simulated HTM's *injected* abort
//! knobs (forced/spurious abort rates), so every assertion is
//! deterministic: the workload RNG, the abort-injection RNG and the retry
//! RNG all derive from the run's seed.  The fuzzed seeds come from a
//! splitmix64 stream — different storms, same verdict.

use std::sync::Arc;

use rhtm_api::{AbortCause, CircuitBreakerConfig, ComposedPolicy, RetryPolicyHandle};
use rhtm_htm::{HtmConfig, HtmSim};
use rhtm_mem::MemConfig;
use rhtm_workloads::{
    AlgoKind, BenchResult, ConstantHashTable, DriverOpts, OpMix, Scenario, TmSpec,
};

/// splitmix64: the fuzz-seed stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An HTM shape that keeps aborting even single-threaded: the paper's
/// §3.1 emulation knobs stand in for the contention a real flash crowd
/// would generate, so the breaker's trigger condition (consecutive
/// hardware-path failures) fires deterministically.
fn stormy_htm() -> HtmConfig {
    HtmConfig {
        forced_abort_ratio: 0.5,
        // The spurious rate also hits read-only transactions, so failure
        // streaks can build across the 70% lookup mix — without it every
        // successful lookup commit resets the breaker's failure count and
        // the circuit never opens.
        spurious_abort_rate: 0.5,
        ..HtmConfig::default()
    }
}

/// Wasted hardware attempts per committed transaction.  Forced and
/// spurious aborts are *injected at hardware commit time*, so each one is
/// a full hardware transaction that ran and died; `htm_aborts` adds the
/// commit-HTM attempts the slow paths lost.  A policy that keeps hammering
/// the doomed fast path pays this toll on every retry; one that demotes
/// stops paying it (the mixed slow path runs outside the injection, per
/// the paper's §3.1 emulation methodology).
fn hw_waste_per_commit(r: &BenchResult) -> f64 {
    let injected =
        r.stats.aborts_for(AbortCause::Forced) + r.stats.aborts_for(AbortCause::Spurious);
    (injected + r.stats.htm_aborts) as f64 / r.stats.commits().max(1) as f64
}

#[test]
fn breaker_sheds_hardware_attempts_under_a_flash_crowd() {
    let scenario = Scenario::find("skiplist-flash-crowd").expect("registered phased scenario");
    let size = scenario.sized(64);
    let mut state = 0xF1A5_4C20_3D00_8000_u64;
    let (mut paper_total, mut cb_total) = (0.0f64, 0.0f64);
    let mut opens_total = 0u64;
    for round in 0..6u32 {
        let seed = splitmix(&mut state);
        // RH1 Mixed 10: contention aborts retry in hardware 90% of the
        // time — the paper's most breaker-sensitive configuration.
        let run = |policy: RetryPolicyHandle| {
            let spec = TmSpec::new(AlgoKind::Rh1Mixed(10))
                .retry(policy)
                .htm(stormy_htm());
            scenario.run_spec(
                &spec,
                size,
                &DriverOpts::counted_mix(1, OpMix::read_update(0), 400).with_seed(seed),
            )
        };
        let paper = run(RetryPolicyHandle::paper_default());
        let cb = run(RetryPolicyHandle::circuit_breaker());
        assert_eq!(paper.stats.commits(), cb.stats.commits(), "round {round}");
        let (p, c) = (hw_waste_per_commit(&paper), hw_waste_per_commit(&cb));
        assert!(
            c <= p + 1e-9,
            "round {round} (seed {seed:#x}): breaker wasted more hardware \
             attempts/commit ({c:.3}) than paper-default ({p:.3})"
        );
        paper_total += p;
        cb_total += c;
        opens_total += cb.stats.retry.circuit_opens;
        assert_eq!(
            paper.stats.retry.circuit_opens, 0,
            "round {round}: only the breaker may report circuit transitions"
        );
    }
    assert!(
        cb_total < paper_total,
        "across all storms the breaker must shed hardware work \
         (cb {cb_total:.3} vs paper {paper_total:.3})"
    );
    assert!(
        opens_total > 0,
        "the storms must actually trip the breaker for the property to mean anything"
    );
}

#[test]
fn budget_exhaustion_is_observed_under_the_flash_crowd() {
    // The shared token bucket drains when the storm retries faster than it
    // commits; the always-on metrics must record the shedding.
    let scenario = Scenario::find("skiplist-flash-crowd").expect("registered phased scenario");
    let size = scenario.sized(64);
    let spec = TmSpec::new(AlgoKind::Rh1Mixed(10))
        .retry(RetryPolicyHandle::budgeted())
        .htm(stormy_htm());
    let r = scenario.run_spec(
        &spec,
        size,
        &DriverOpts::counted_mix(1, OpMix::read_update(0), 2_000).with_seed(0xB0D6_E7ED),
    );
    assert_eq!(r.stats.commits(), 2_000);
    assert!(
        r.stats.retry.decisions() > 0,
        "the storm must force retry decisions"
    );
    assert_eq!(r.stats.retry.circuit_opens, 0, "no breaker in this spec");
}

#[test]
fn infinite_threshold_breaker_is_byte_identical_to_its_inner_policy() {
    // The neutrality golden: a breaker that can never open must leave
    // every decision to the give-up rule — same RNG draw sites, same counters, same TxStats
    // bit for bit — so wrapping a policy is observationally free until the
    // threshold is finite.
    let run = |policy: RetryPolicyHandle| {
        TmSpec::new(AlgoKind::Rh1Mixed(50))
            .retry(policy)
            .htm(stormy_htm())
            .mem(MemConfig::with_data_words(
                ConstantHashTable::required_words(256) + 4096,
            ))
            .bench(
                |sim: &Arc<HtmSim>| ConstantHashTable::new(Arc::clone(sim), 256),
                &DriverOpts::counted_mix(1, OpMix::read_update(40), 400).with_seed(0xdead_cafe),
            )
    };
    let inner = run(RetryPolicyHandle::paper_default());
    let neutered = run(RetryPolicyHandle::new(
        ComposedPolicy::PAPER_DEFAULT.with_breaker(CircuitBreakerConfig {
            open_threshold: u32::MAX,
            ..CircuitBreakerConfig::default()
        }),
    ));
    assert!(
        inner.stats.aborts() > 0,
        "the equivalence must be exercised under real aborts"
    );
    assert_eq!(
        inner.stats, neutered.stats,
        "an unopenable breaker must be byte-equivalent to paper-default"
    );
    assert_eq!(inner.total_ops, neutered.total_ops);
}

#[test]
fn finite_threshold_breaker_diverges_from_the_golden() {
    // The counterpart of the neutrality golden: with a real threshold the
    // breaker must *not* be a no-op on the same seed — otherwise the
    // golden above would pass vacuously.
    let run = |policy: RetryPolicyHandle| {
        let spec = TmSpec::new(AlgoKind::Rh1Mixed(10))
            .retry(policy)
            .htm(stormy_htm());
        Scenario::find("skiplist-flash-crowd").unwrap().run_spec(
            &spec,
            spec_size(),
            &DriverOpts::counted_mix(1, OpMix::read_update(0), 400).with_seed(0xdead_cafe),
        )
    };
    let paper = run(RetryPolicyHandle::paper_default());
    let cb = run(RetryPolicyHandle::circuit_breaker());
    assert!(cb.stats.retry.circuit_opens > 0, "the breaker must trip");
    assert_ne!(
        paper.stats, cb.stats,
        "a tripped breaker must actually change the execution"
    );
}

fn spec_size() -> u64 {
    Scenario::find("skiplist-flash-crowd").unwrap().sized(64)
}
