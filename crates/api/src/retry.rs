//! Retry policies: *when* a transaction gives up on its current execution
//! path.
//!
//! Every runtime in the workspace has a retry loop, and before this module
//! each of them hard-coded its own give-up decision: the RH1 commit-time
//! hardware transaction counted contention retries against
//! `commit_htm_retries`, the RH2 write-back counted against
//! `writeback_htm_retries` (with a different comparison idiom), the Standard
//! HyTM counted hardware failures against `hw_retries`, and TL2 / pure HTM
//! retried forever.  This module makes that decision one swappable,
//! benchmarkable strategy — the same treatment the `rhtm_mem::ClockScheme`
//! axis gives the global clock — so contention management can be measured
//! as an axis (`ablation_retry`) instead of being re-derived per runtime.
//!
//! The division of labour is deliberate:
//!
//! * the **policy** decides *when* to stop retrying the current path
//!   ([`RetryDecision::Demote`]) and how to pace retries
//!   ([`RetryDecision::RetryHere`] / [`RetryDecision::BackoffThen`]);
//! * the **runtime** decides *where* a demoted attempt goes (mixed
//!   slow-path, RH2 commit, all-software write-back, TL2 fallback, or a
//!   plain transaction restart) — that mapping is protocol correctness, not
//!   tuning, so it stays in the runtime.
//!
//! Two decisions are never delegated, and [`AttemptContext::clamp`] enforces
//! them for every policy: an abort caused by a *hardware limitation*
//! (capacity overflow, protected instruction) can never succeed by retrying
//! in hardware, so it always demotes when a slower tier exists; and a path
//! with no slower tier ([`AttemptContext::can_demote`] `== false`) never
//! demotes.  A policy therefore cannot strand a transaction on a path that
//! can never run it, and cannot affect serialisability at all — but the
//! clamp does **not** bound contention pacing: a policy that always answers
//! [`RetryDecision::RetryHere`] (see [`GiveUp::Never`]) keeps a contended
//! attempt spinning with no give-up bound, a throughput hazard rather than
//! a correctness one.
//!
//! # One composed policy
//!
//! Every built-in policy is a [`ComposedPolicy`] of four independent parts:
//!
//! * a [`GiveUp`] rule — the paper's thresholds (budget, then the "Mix"
//!   percentage), never for contention, or adaptive patience;
//! * a [`Pacing`] — the runtime's default snooze, or a jittered spin window
//!   that doubles, doubles with full jitter, or grows along Fibonacci;
//! * an optional circuit breaker ([`CircuitBreakerConfig`]) over the
//!   demotable hardware fast path;
//! * an optional shared token bucket ([`RetryBudget`]) that every granted
//!   retry must pay for.
//!
//! The eight built-in labels are aliases for fixed compositions
//! ([`ComposedPolicy::alias`]).  All per-thread state — the [`RetryRng`]
//! and the breaker's circuit — lives in a [`RetryThread`] owned by the
//! runtime thread, so two runtimes sharing one policy (the shards of a KV
//! service, say) never share a circuit.  The token bucket is the one
//! deliberately shared part.
//!
//! # Retry-budget semantics
//!
//! Everywhere a budget appears (`retry_budget` here,
//! `commit_htm_retries` / `writeback_htm_retries` / `hw_retries` in the
//! runtime configs) it means **the maximum number of *extra* attempts on the
//! current path after the first failure**: a budget of `N` allows `N + 1`
//! total attempts before [`GiveUp::Paper`] demotes.  The pre-refactor loops
//! expressed this with two different idioms (`count > budget` after the
//! increment vs `count >= budget` before it) that happened to coincide;
//! this module makes the semantics explicit and `tests/retry_policies.rs`
//! asserts it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::abort::AbortCause;
use crate::stats::RetryMetrics;

/// Which execution tier the aborted attempt was running on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// An all-hardware attempt: the RH1/RH2 fast-paths, the pure-HTM
    /// runtime, or a Standard-HyTM hardware attempt.
    Hardware,
    /// The commit-time hardware transaction of a software body: the RH1
    /// slow-path commit or the RH2 write-back.
    CommitHtm,
    /// A software attempt: TL2, the Standard-HyTM software fallback, or the
    /// RH mixed slow-path body.
    Software,
}

impl PathClass {
    /// Short label used in reports and policy traces.
    pub fn label(self) -> &'static str {
        match self {
            PathClass::Hardware => "hardware",
            PathClass::CommitHtm => "commit-htm",
            PathClass::Software => "software",
        }
    }
}

/// Everything a [`RetryPolicy`] may consult when deciding what an aborted
/// attempt does next.  Built by the runtime at each decision site.
#[derive(Clone, Copy, Debug)]
pub struct AttemptContext {
    /// Failed attempts observed at this decision site so far, **including**
    /// the one being decided — the first decision after an abort sees
    /// `attempt == 1`.  Outer transaction loops count failures of the whole
    /// transaction; the commit-time loops count failures of the current
    /// commit only.
    pub attempt: u32,
    /// The tier the aborted attempt ran on.
    pub path: PathClass,
    /// Why the attempt aborted.
    pub cause: AbortCause,
    /// Whether a slower tier exists for this site.  `false` for the pure-HTM
    /// runtime (no fallback), TL2 (already the bottom) and the RH slow-path
    /// body (must re-execute in software anyway).
    pub can_demote: bool,
    /// The configured budget for this site: maximum *extra* attempts after
    /// the first failure (`u32::MAX` = unbounded).  Carried from the runtime
    /// config (`commit_htm_retries`, `writeback_htm_retries`, `hw_retries`)
    /// so thresholds keep living in one place.
    pub retry_budget: u32,
    /// The paper's "Mix" parameter for this site: percentage (0–100) of
    /// budget-exhausted contention aborts that demote.  `100` for sites
    /// without a probabilistic mix (demote deterministically once the budget
    /// is spent); only the RH fast-path passes its configured
    /// `slow_path_percent` here.
    pub mix_percent: u8,
    /// Snapshot of the `is_RH2_fallback` counter (0 for runtimes without the
    /// cascade).
    pub fallback_rh2: u64,
    /// Snapshot of the `is_all_software_slow_path` counter (0 for runtimes
    /// without the cascade).
    pub fallback_all_software: u64,
}

impl AttemptContext {
    /// Is the cascade currently degraded — some transaction is committing
    /// through the RH2 fallback or an all-software write-back?
    #[inline]
    pub fn cascade_degraded(&self) -> bool {
        self.fallback_rh2 > 0 || self.fallback_all_software > 0
    }

    /// Enforces the two non-negotiable rules on a policy's decision:
    ///
    /// * a hardware-limitation abort ([`AbortCause::is_hardware_limitation`])
    ///   always demotes when a slower tier exists — retrying it in hardware
    ///   can never succeed;
    /// * [`RetryDecision::Demote`] degrades to [`RetryDecision::RetryHere`]
    ///   when no slower tier exists.
    ///
    /// Every runtime clamps through this, so no policy can strand a
    /// transaction on a path that can never run it (the true-livelock
    /// case); contention pacing remains the policy's own responsibility.
    #[inline]
    pub fn clamp(&self, decision: RetryDecision) -> RetryDecision {
        if self.can_demote && self.cause.is_hardware_limitation() {
            return RetryDecision::Demote;
        }
        if !self.can_demote && decision == RetryDecision::Demote {
            return RetryDecision::RetryHere;
        }
        decision
    }
}

/// What an aborted attempt does next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetryDecision {
    /// Retry on the same path, paced by the runtime's default backoff.
    RetryHere,
    /// Stop retrying on this path; the runtime demotes the attempt to its
    /// next recourse for the site (mixed slow-path, RH2 commit, all-software
    /// write-back, software fallback, or a transaction restart).
    Demote,
    /// Retry on the same path after spinning for approximately the given
    /// number of `spin_loop` hints (replaces the runtime's default backoff
    /// for this retry).
    BackoffThen(u32),
}

/// Spins for `n` `spin_loop` hints — the runtimes' interpreter for
/// [`RetryDecision::BackoffThen`].  Yields to the scheduler every 4096
/// hints so an oversubscribed host cannot be starved by a large backoff.
#[inline]
pub fn spin(n: u32) {
    for i in 0..n {
        if i % 4096 == 4095 {
            std::thread::yield_now();
        }
        std::hint::spin_loop();
    }
}

/// The xorshift64 generator the policies draw from.
///
/// All randomness of a retry decision (the RH "Mix" draw, backoff jitter)
/// comes from the [`RetryState`] of the deciding thread, so runs stay
/// reproducible per seed and threads never share RNG state.  Each draw
/// advances the stream exactly once, whatever the policy.  The update is
/// the same xorshift the RH runtime has always used for its
/// slow-path-admission draw, which keeps fixed-seed runs bit-identical
/// across refactors.
#[derive(Clone, Debug)]
pub struct RetryRng {
    state: u64,
}

impl RetryRng {
    /// Creates a generator from a raw non-zero state (a zero seed is mapped
    /// to an arbitrary odd constant — xorshift fixes the all-zero state).
    #[inline]
    pub fn new(seed: u64) -> Self {
        RetryRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value (xorshift64: 13/7/17).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform draw in `0..n` (`n == 0` returns 0).
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A contention-management strategy: decides what an aborted attempt does
/// next, given the [`AttemptContext`] and the deciding thread's
/// [`RetryState`].
///
/// [`ComposedPolicy`] is the one implementation the workspace ships; the
/// trait is the seam for test doubles and experiments.  Implementations
/// must be cheap (the decision runs on every abort) and keep no per-thread
/// state of their own — randomness and cross-attempt memory belong in the
/// [`RetryState`] and in [`AttemptContext::attempt`].
pub trait RetryPolicy: fmt::Debug + Send + Sync {
    /// Stable short name (used by reports, the `ablation_retry` CLI and
    /// [`RetryPolicyHandle::parse`]).
    fn label(&self) -> &'static str;

    /// The decision for one aborted attempt.  Stateful parts record their
    /// transitions into `metrics`; [`RetryThread::decide`] clamps the result
    /// and counts it.
    fn decide(
        &self,
        ctx: &AttemptContext,
        state: &mut RetryState,
        metrics: &mut RetryMetrics,
    ) -> RetryDecision;

    /// Notifies the policy of a committed transaction on this thread
    /// (`hardware` is true for all-hardware fast-path commits).
    ///
    /// Only called when [`RetryPolicy::wants_commit_hook`] returns true —
    /// [`RetryThread`] caches that answer, so policies without a breaker or
    /// a budget pay nothing on the commit fast path.
    fn on_commit(&self, hardware: bool, state: &mut RetryState, metrics: &mut RetryMetrics) {
        let _ = (hardware, state, metrics);
    }

    /// Whether this policy needs [`RetryPolicy::on_commit`] notifications.
    fn wants_commit_hook(&self) -> bool {
        false
    }

    /// Whether this policy reads the fallback-counter snapshots
    /// ([`AttemptContext::fallback_rh2`] /
    /// [`AttemptContext::fallback_all_software`]).
    ///
    /// Loading those counters costs two shared-cache-line reads per abort,
    /// right inside the retry loops the benchmarks measure; runtimes check
    /// the cached answer and pass zeros when the policy does not care.
    fn wants_fallback_snapshot(&self) -> bool {
        false
    }
}

/// When a contended attempt gives up on its current path.  Hardware
/// limitations demote and dead ends retry under every rule (the
/// [`AttemptContext::clamp`] rules).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GiveUp {
    /// The paper's thresholds, reproducing the seed loops of all four
    /// runtimes decision for decision: retry while
    /// `attempt <= retry_budget`, then let the mix percentage decide — 0
    /// never demotes, 100 always does, anything between draws the thread's
    /// RNG (the RH fast path's "Mix" parameter).
    Paper,
    /// Never for contention — the `hw_retries: u32::MAX` style of the
    /// paper's "Standard HyTM" measurement variant, applied everywhere.
    Never,
    /// Demote once `attempt > patience`, or on the first failure while the
    /// fallback counters show an RH2 or all-software commit in flight
    /// (hardware attempts are then likely to keep aborting against it).
    /// Ignores the site's budget and mix.
    Adaptive {
        /// Extra same-path attempts tolerated while the cascade is healthy.
        patience: u32,
    },
}

impl GiveUp {
    /// Whether the attempt gives up on its path.
    #[inline]
    fn gives_up(self, ctx: &AttemptContext, rng: &mut RetryRng) -> bool {
        if ctx.cause.is_hardware_limitation() || !ctx.can_demote {
            return ctx.can_demote;
        }
        match self {
            GiveUp::Paper => {
                ctx.attempt > ctx.retry_budget
                    && match ctx.mix_percent {
                        0 => false,
                        100 => true,
                        p => rng.next_u64() % 100 < u64::from(p),
                    }
            }
            GiveUp::Never => false,
            GiveUp::Adaptive { patience } => {
                ctx.attempt > if ctx.cascade_degraded() { 0 } else { patience }
            }
        }
    }
}

/// A backoff spin window: the window of the first retry and its cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpinWindow {
    /// Spin window of the first retry.
    pub base_spins: u32,
    /// Upper bound on the spin window.
    pub max_spins: u32,
}

impl SpinWindow {
    /// The window every built-in backoff uses: 32 spins, capped at 16 384.
    pub const DEFAULT: SpinWindow = SpinWindow {
        base_spins: 32,
        max_spins: 16_384,
    };

    /// `base_spins · factor`, clamped to `1..=max_spins`.
    fn scaled(self, factor: u32) -> u32 {
        self.base_spins
            .saturating_mul(factor)
            .clamp(1, self.max_spins)
    }
}

/// How a retry that the give-up rule grants is paced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// [`RetryDecision::RetryHere`]: the runtime's default snooze.
    None,
    /// The window doubles per attempt up to the cap; spins are uniform over
    /// `[window/2, window]` — enough spread to break lockstep, bounded so
    /// the backoff still escalates.
    Doubling(SpinWindow),
    /// The window doubles per attempt up to the cap; spins are uniform over
    /// `[0, window]` (the AWS "full jitter" shape — maximum spread at the
    /// cost of occasional zero waits).
    FullJitter(SpinWindow),
    /// The window grows along the Fibonacci sequence (`base·fib(attempt)`,
    /// capped) — gentler early escalation than doubling — with spins
    /// uniform over `[window/2, window]`.
    Fibonacci(SpinWindow),
}

impl Pacing {
    /// The paced form of a granted retry; every backoff draws the thread's
    /// RNG exactly once.
    #[inline]
    fn pace(self, attempt: u32, rng: &mut RetryRng) -> RetryDecision {
        let doubled = 1u32 << attempt.saturating_sub(1).min(16);
        let (window, full_jitter) = match self {
            Pacing::None => return RetryDecision::RetryHere,
            Pacing::Doubling(w) => (w.scaled(doubled), false),
            Pacing::FullJitter(w) => (w.scaled(doubled), true),
            Pacing::Fibonacci(w) => (w.scaled(fib(attempt)), false),
        };
        let (floor, span) = if full_jitter {
            (0, window)
        } else {
            (window / 2, window / 2)
        };
        RetryDecision::BackoffThen(floor + rng.next_below(u64::from(span) + 1) as u32)
    }
}

/// `fib(n)` saturating in `u32` (`fib(0) == fib(1) == fib(2) == 1`).
fn fib(n: u32) -> u32 {
    let (mut a, mut b) = (1u32, 1u32);
    for _ in 2..n.min(64) {
        let next = a.saturating_add(b);
        a = b;
        b = next;
    }
    b
}

/// Tuning knobs of the circuit breaker.
///
/// The breaker watches consecutive failures of the demotable hardware fast
/// path ([`PathClass::Hardware`] with `can_demote`); every other decision
/// site passes it by.
///
/// ```text
/// Closed   --(open_threshold consecutive hw failures)--> Open
/// Open     --(probe_interval demotions elapsed)--------> HalfOpen
/// HalfOpen --(decision while probing fails)----------> Open
/// HalfOpen --(close_streak hardware commits)---------> Closed
/// ```
///
/// While `Open`, hardware-path decisions answer `Demote` without consulting
/// the give-up rule.  A hardware commit resets the `Closed` failure count
/// and feeds the `HalfOpen` close streak; software commits do not (only
/// hardware success proves the hardware path healthy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CircuitBreakerConfig {
    /// Consecutive hardware-path failures (capacity, conflict, any abort
    /// decided on [`PathClass::Hardware`]) that open the circuit.
    /// `u32::MAX` never opens — the breaker then changes no decision.
    pub open_threshold: u32,
    /// Hardware-path decisions spent demoting while open before a
    /// half-open probe is admitted.
    pub probe_interval: u32,
    /// Consecutive hardware commits in the half-open state that close the
    /// circuit.
    pub close_streak: u32,
}

impl Default for CircuitBreakerConfig {
    fn default() -> Self {
        CircuitBreakerConfig {
            open_threshold: 4,
            probe_interval: 8,
            close_streak: 2,
        }
    }
}

/// A thread's circuit (see [`CircuitBreakerConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Circuit {
    /// Hardware admission is normal; counts consecutive failures.
    Closed { failures: u32 },
    /// Hardware admission is cut; counts decisions until the next probe.
    Open { since: u32 },
    /// One probe is in flight; counts consecutive hardware commits.
    HalfOpen { streak: u32 },
}

impl Circuit {
    /// Records one demotable hardware-path failure; `true` when the circuit
    /// sheds it into a demotion without consulting the give-up rule.
    fn sheds(&mut self, config: &CircuitBreakerConfig, metrics: &mut RetryMetrics) -> bool {
        match *self {
            Circuit::Closed { failures } => {
                let failures = failures.saturating_add(1);
                if failures >= config.open_threshold {
                    *self = Circuit::Open { since: 0 };
                    metrics.circuit_opens += 1;
                    true
                } else {
                    *self = Circuit::Closed { failures };
                    false
                }
            }
            Circuit::Open { since } => {
                let since = since.saturating_add(1);
                if since >= config.probe_interval {
                    // Re-admit one probe attempt onto the hardware path.
                    *self = Circuit::HalfOpen { streak: 0 };
                    metrics.circuit_probes += 1;
                    false
                } else {
                    *self = Circuit::Open { since };
                    true
                }
            }
            Circuit::HalfOpen { .. } => {
                // The probe aborted before building its close streak.
                *self = Circuit::Open { since: 0 };
                metrics.circuit_opens += 1;
                true
            }
        }
    }

    /// Records one hardware commit.
    fn on_hardware_commit(&mut self, config: &CircuitBreakerConfig, metrics: &mut RetryMetrics) {
        match *self {
            Circuit::Closed { .. } => *self = Circuit::Closed { failures: 0 },
            Circuit::Open { .. } => {}
            Circuit::HalfOpen { streak } => {
                let streak = streak.saturating_add(1);
                if streak >= config.close_streak {
                    *self = Circuit::Closed { failures: 0 };
                    metrics.circuit_closes += 1;
                } else {
                    *self = Circuit::HalfOpen { streak };
                }
            }
        }
    }
}

/// A token bucket shared by every thread of a run: granted retries drain
/// it, commits refill it.
///
/// When a contention storm drives the retry rate past what commits pay for,
/// the bucket empties and retries are shed into demotions instead of
/// amplifying the storm (retries per commit ≤ capacity + refill rate).  An
/// empty bucket can never strand a transaction: on bottom-tier paths the
/// clamp turns the shed `Demote` back into `RetryHere`.
///
/// Equality and `Debug` cover the configuration, not the current fill.
pub struct RetryBudget {
    tokens: AtomicU64,
    capacity: u64,
    refill_per_commit: u64,
}

impl RetryBudget {
    /// A bucket starting full at `capacity`, refilled by
    /// `refill_per_commit` tokens per committed transaction.
    pub fn new(capacity: u64, refill_per_commit: u64) -> Self {
        RetryBudget {
            tokens: AtomicU64::new(capacity),
            capacity,
            refill_per_commit,
        }
    }

    /// The bucket's capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Tokens refilled per committed transaction.
    pub fn refill_per_commit(&self) -> u64 {
        self.refill_per_commit
    }

    /// Current token count (racy snapshot; exact in single-thread tests).
    pub fn tokens(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed)
    }

    /// Takes one token; `false` when the bucket is empty.
    pub fn try_drain(&self) -> bool {
        self.tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| t.checked_sub(1))
            .is_ok()
    }

    /// Adds the per-commit refill, saturating at capacity.
    pub fn refill(&self) {
        let _ = self
            .tokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| {
                Some((t + self.refill_per_commit).min(self.capacity))
            });
    }
}

impl fmt::Debug for RetryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryBudget")
            .field("capacity", &self.capacity)
            .field("refill_per_commit", &self.refill_per_commit)
            .finish()
    }
}

impl PartialEq for RetryBudget {
    fn eq(&self, other: &Self) -> bool {
        (self.capacity, self.refill_per_commit) == (other.capacity, other.refill_per_commit)
    }
}

impl Eq for RetryBudget {}

/// The retry policy: a give-up rule, a pacing, an optional circuit breaker
/// and an optional shared retry budget (see the module docs).
///
/// A decision runs the parts in order: an open circuit sheds a demotable
/// hardware-path failure straight into [`RetryDecision::Demote`]; otherwise
/// the give-up rule decides, a granted retry is paced, and the budget must
/// pay for it or shed it into a demotion (counted as
/// [`RetryMetrics::budget_exhausted`]).
///
/// ```
/// use rhtm_api::{CircuitBreakerConfig, ComposedPolicy, Pacing, RetryPolicyHandle, SpinWindow};
///
/// // Fibonacci backoff behind a circuit breaker: not a built-in label.
/// let policy = ComposedPolicy::PAPER_DEFAULT
///     .with_pacing(Pacing::Fibonacci(SpinWindow::DEFAULT))
///     .with_breaker(CircuitBreakerConfig::default());
/// assert_eq!(RetryPolicyHandle::new(policy).label(), "custom");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComposedPolicy {
    /// When a contended attempt gives up on its path.
    pub give_up: GiveUp,
    /// How granted retries are paced.
    pub pacing: Pacing,
    /// The circuit breaker over the hardware fast path, if any.
    pub breaker: Option<CircuitBreakerConfig>,
    /// The token bucket shared by every thread using this policy, if any.
    pub budget: Option<Arc<RetryBudget>>,
}

impl ComposedPolicy {
    /// `paper-default`: the paper's thresholds and nothing else.
    pub const PAPER_DEFAULT: ComposedPolicy = ComposedPolicy {
        give_up: GiveUp::Paper,
        pacing: Pacing::None,
        breaker: None,
        budget: None,
    };

    /// The built-in labels, in [`RetryPolicyHandle::builtin`] order.
    /// Append-only: sweep outputs and the spec-grammar tests key off it.
    pub const LABELS: [&'static str; 8] = [
        "paper-default",
        "capped-exp",
        "aggressive",
        "adaptive",
        "full-jitter",
        "fib",
        "cb",
        "budgeted",
    ];

    /// The fixed composition a built-in label stands for (`None` for any
    /// other string).
    pub fn alias(label: &str) -> Option<ComposedPolicy> {
        let paper = Self::PAPER_DEFAULT;
        Some(match label {
            "paper-default" => paper,
            "capped-exp" => paper.with_pacing(Pacing::Doubling(SpinWindow::DEFAULT)),
            "aggressive" => paper.with_give_up(GiveUp::Never),
            "adaptive" => paper.with_give_up(GiveUp::Adaptive { patience: 2 }),
            "full-jitter" => paper.with_pacing(Pacing::FullJitter(SpinWindow::DEFAULT)),
            "fib" => paper.with_pacing(Pacing::Fibonacci(SpinWindow::DEFAULT)),
            "cb" => paper.with_breaker(CircuitBreakerConfig::default()),
            // Steady-state loads (a retry or two per commit) never exhaust
            // it; a storm retrying far faster than it commits does.
            "budgeted" => paper.with_budget(RetryBudget::new(256, 2)),
            _ => return None,
        })
    }

    /// The composition with a different give-up rule.
    pub fn with_give_up(self, give_up: GiveUp) -> Self {
        ComposedPolicy { give_up, ..self }
    }

    /// The composition with a different pacing.
    pub fn with_pacing(self, pacing: Pacing) -> Self {
        ComposedPolicy { pacing, ..self }
    }

    /// The composition with a circuit breaker.
    pub fn with_breaker(self, breaker: CircuitBreakerConfig) -> Self {
        ComposedPolicy {
            breaker: Some(breaker),
            ..self
        }
    }

    /// The composition with a (fresh) shared retry budget.
    pub fn with_budget(self, budget: RetryBudget) -> Self {
        ComposedPolicy {
            budget: Some(Arc::new(budget)),
            ..self
        }
    }
}

impl RetryPolicy for ComposedPolicy {
    /// The built-in label this composition is an alias for, or `custom`.
    fn label(&self) -> &'static str {
        Self::LABELS
            .into_iter()
            .find(|label| Self::alias(label).as_ref() == Some(self))
            .unwrap_or("custom")
    }

    fn decide(
        &self,
        ctx: &AttemptContext,
        state: &mut RetryState,
        metrics: &mut RetryMetrics,
    ) -> RetryDecision {
        if let Some(breaker) = &self.breaker {
            if ctx.path == PathClass::Hardware
                && ctx.can_demote
                && state.circuit.sheds(breaker, metrics)
            {
                return RetryDecision::Demote;
            }
        }
        if self.give_up.gives_up(ctx, &mut state.rng) {
            return RetryDecision::Demote;
        }
        let retry = self.pacing.pace(ctx.attempt, &mut state.rng);
        match &self.budget {
            Some(budget) if !budget.try_drain() => {
                metrics.budget_exhausted += 1;
                RetryDecision::Demote
            }
            _ => retry,
        }
    }

    fn on_commit(&self, hardware: bool, state: &mut RetryState, metrics: &mut RetryMetrics) {
        if let (Some(breaker), true) = (&self.breaker, hardware) {
            state.circuit.on_hardware_commit(breaker, metrics);
        }
        if let Some(budget) = &self.budget {
            budget.refill();
        }
    }

    fn wants_commit_hook(&self) -> bool {
        self.breaker.is_some() || self.budget.is_some()
    }

    fn wants_fallback_snapshot(&self) -> bool {
        matches!(self.give_up, GiveUp::Adaptive { .. })
    }
}

/// The per-thread state a [`RetryPolicy`] decides with: the thread's RNG
/// and its circuit.
#[derive(Debug)]
pub struct RetryState {
    /// The thread's random stream (the "Mix" draw, backoff jitter).
    pub rng: RetryRng,
    circuit: Circuit,
}

impl RetryState {
    /// Fresh state: an RNG seeded with `seed` and a closed circuit.
    pub fn new(seed: u64) -> Self {
        RetryState {
            rng: RetryRng::new(seed),
            circuit: Circuit::Closed { failures: 0 },
        }
    }

    /// The circuit as a label (`closed` / `open` / `half-open`).
    pub fn circuit_label(&self) -> &'static str {
        match self.circuit {
            Circuit::Closed { .. } => "closed",
            Circuit::Open { .. } => "open",
            Circuit::HalfOpen { .. } => "half-open",
        }
    }
}

/// The retry layer of one runtime thread: the policy, this thread's
/// [`RetryState`], and the policy's cached hook answers.
///
/// Every runtime thread owns exactly one, created at registration from the
/// runtime's policy and a per-thread seed, and routes every retry decision
/// and (when the policy asks for it) every commit through it.
#[derive(Debug)]
pub struct RetryThread {
    policy: RetryPolicyHandle,
    state: RetryState,
    wants_commit: bool,
    wants_fallback: bool,
}

impl RetryThread {
    /// The retry layer for a thread running `policy`, its RNG seeded with
    /// `seed`.
    pub fn new(policy: &RetryPolicyHandle, seed: u64) -> Self {
        RetryThread {
            wants_commit: policy.wants_commit_hook(),
            wants_fallback: policy.wants_fallback_snapshot(),
            policy: policy.clone(),
            state: RetryState::new(seed),
        }
    }

    /// This thread's RNG and circuit.
    pub fn state(&self) -> &RetryState {
        &self.state
    }

    /// Whether the policy reads the fallback-counter snapshots (cached).
    #[inline(always)]
    pub fn wants_fallback_snapshot(&self) -> bool {
        self.wants_fallback
    }

    /// The policy's decision for one aborted attempt, clamped
    /// ([`AttemptContext::clamp`]), with the observed cause and the
    /// post-clamp outcome recorded into `metrics` — what every runtime acts
    /// on.
    #[inline]
    pub fn decide(&mut self, ctx: &AttemptContext, metrics: &mut RetryMetrics) -> RetryDecision {
        metrics.record_cause(ctx.cause);
        let decision = ctx.clamp(self.policy.0.decide(ctx, &mut self.state, metrics));
        match decision {
            RetryDecision::RetryHere => metrics.retry_here += 1,
            RetryDecision::Demote => metrics.demote += 1,
            RetryDecision::BackoffThen(_) => metrics.backoff += 1,
        }
        decision
    }

    /// Reports a committed transaction to the policy — a not-taken branch
    /// unless the policy wants the hook.
    #[inline(always)]
    pub fn on_commit(&mut self, hardware: bool, metrics: &mut RetryMetrics) {
        if self.wants_commit {
            self.policy.0.on_commit(hardware, &mut self.state, metrics);
        }
    }
}

/// A shared, clonable handle to a [`RetryPolicy`], suitable for embedding
/// in runtime configs (`Clone + PartialEq + Eq + Debug`; equality compares
/// the policies' `Debug` forms, i.e. their configurations).
#[derive(Clone)]
pub struct RetryPolicyHandle(Arc<dyn RetryPolicy>);

impl RetryPolicyHandle {
    /// Wraps a policy in a shareable handle.
    pub fn new<P: RetryPolicy + 'static>(policy: P) -> Self {
        RetryPolicyHandle(Arc::new(policy))
    }

    fn builtin_alias(label: &str) -> Self {
        Self::new(ComposedPolicy::alias(label).expect("built-in label"))
    }

    /// `paper-default`, the seed behaviour.
    pub fn paper_default() -> Self {
        Self::builtin_alias("paper-default")
    }

    /// `capped-exp`: paper thresholds, doubling jittered backoff.
    pub fn capped_exponential() -> Self {
        Self::builtin_alias("capped-exp")
    }

    /// `aggressive`: never gives up for contention.
    pub fn aggressive() -> Self {
        Self::builtin_alias("aggressive")
    }

    /// `adaptive`: patience 2, none while the cascade is degraded.
    pub fn adaptive() -> Self {
        Self::builtin_alias("adaptive")
    }

    /// `full-jitter`: paper thresholds, full-jitter doubling backoff.
    pub fn full_jitter() -> Self {
        Self::builtin_alias("full-jitter")
    }

    /// `fib`: paper thresholds, Fibonacci backoff.
    pub fn fibonacci() -> Self {
        Self::builtin_alias("fib")
    }

    /// `cb`: paper thresholds behind the default circuit breaker.
    pub fn circuit_breaker() -> Self {
        Self::builtin_alias("cb")
    }

    /// `budgeted`: paper thresholds paying from a fresh 256-token bucket
    /// that refills 2 tokens per commit.
    pub fn budgeted() -> Self {
        Self::builtin_alias("budgeted")
    }

    /// Every built-in policy, in [`ComposedPolicy::LABELS`] order (used by
    /// the `ablation_retry` / `ablation_retry2` sweeps).
    pub fn builtin() -> Vec<RetryPolicyHandle> {
        ComposedPolicy::LABELS
            .into_iter()
            .map(Self::builtin_alias)
            .collect()
    }

    /// Parses a built-in policy label (`paper-default`, `capped-exp`,
    /// `aggressive`, `adaptive`, `full-jitter`, `fib`, `cb`, `budgeted`)
    /// back into a handle.  Each call builds a fresh policy, so policies
    /// parsed into different specs never share a token bucket.
    pub fn parse(label: &str) -> Option<RetryPolicyHandle> {
        ComposedPolicy::alias(&label.trim().to_ascii_lowercase()).map(Self::new)
    }

    /// The wrapped policy's label.
    pub fn label(&self) -> &'static str {
        self.0.label()
    }
}

impl Default for RetryPolicyHandle {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Debug for RetryPolicyHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RetryPolicyHandle({:?})", self.0)
    }
}

impl PartialEq for RetryPolicyHandle {
    fn eq(&self, other: &Self) -> bool {
        format!("{:?}", self.0) == format!("{:?}", other.0)
    }
}

impl Eq for RetryPolicyHandle {}

impl std::ops::Deref for RetryPolicyHandle {
    type Target = dyn RetryPolicy;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: PathClass, cause: AbortCause, attempt: u32) -> AttemptContext {
        AttemptContext {
            attempt,
            path,
            cause,
            can_demote: true,
            retry_budget: 0,
            mix_percent: 100,
            fallback_rh2: 0,
            fallback_all_software: 0,
        }
    }

    /// A demotable hardware conflict with an unbounded budget.
    fn hw_ctx(attempt: u32) -> AttemptContext {
        AttemptContext {
            retry_budget: u32::MAX,
            ..ctx(PathClass::Hardware, AbortCause::Conflict, attempt)
        }
    }

    /// One unclamped decision, discarding the metrics.
    fn decide(
        policy: &ComposedPolicy,
        c: &AttemptContext,
        state: &mut RetryState,
    ) -> RetryDecision {
        policy.decide(c, state, &mut RetryMetrics::default())
    }

    fn alias(label: &str) -> ComposedPolicy {
        ComposedPolicy::alias(label).unwrap()
    }

    /// A policy that never gives up for contention, so every decision a
    /// test observes is the breaker's or the budget's own.
    const NEVER: ComposedPolicy = ComposedPolicy {
        give_up: GiveUp::Never,
        ..ComposedPolicy::PAPER_DEFAULT
    };

    #[test]
    fn paper_default_budget_is_max_extra_attempts() {
        // Budget N ⇒ attempts 1..=N retry, attempt N+1 demotes — the
        // unified RH1 (`>`) / RH2 (`>=`) semantics.
        let paper = ComposedPolicy::PAPER_DEFAULT;
        let mut state = RetryState::new(1);
        for budget in [0u32, 1, 4, 8] {
            for attempt in 1..=budget {
                let c = AttemptContext {
                    retry_budget: budget,
                    ..ctx(PathClass::CommitHtm, AbortCause::Conflict, attempt)
                };
                assert_eq!(
                    decide(&paper, &c, &mut state),
                    RetryDecision::RetryHere,
                    "budget {budget}, attempt {attempt}"
                );
            }
            let c = AttemptContext {
                retry_budget: budget,
                ..ctx(PathClass::CommitHtm, AbortCause::Conflict, budget + 1)
            };
            assert_eq!(
                decide(&paper, &c, &mut state),
                RetryDecision::Demote,
                "budget {budget} must demote on attempt {}",
                budget + 1
            );
        }
    }

    #[test]
    fn paper_default_mix_percent_governs_after_budget() {
        let paper = ComposedPolicy::PAPER_DEFAULT;
        let mut state = RetryState::new(7);
        let base = ctx(PathClass::Hardware, AbortCause::Conflict, 1);
        let never = AttemptContext {
            mix_percent: 0,
            ..base
        };
        let always = AttemptContext {
            mix_percent: 100,
            ..base
        };
        assert_eq!(decide(&paper, &never, &mut state), RetryDecision::RetryHere);
        assert_eq!(decide(&paper, &always, &mut state), RetryDecision::Demote);
        // A 50% mix must produce both outcomes over many draws.
        let mixed = AttemptContext {
            mix_percent: 50,
            ..base
        };
        let mut demotes = 0;
        for _ in 0..200 {
            if decide(&paper, &mixed, &mut state) == RetryDecision::Demote {
                demotes += 1;
            }
        }
        assert!((40..=160).contains(&demotes), "demotes={demotes}");
    }

    #[test]
    fn clamp_enforces_hardware_limitations_and_dead_ends() {
        let mut c = ctx(PathClass::Hardware, AbortCause::Capacity, 1);
        assert_eq!(c.clamp(RetryDecision::RetryHere), RetryDecision::Demote);
        assert_eq!(
            c.clamp(RetryDecision::BackoffThen(10)),
            RetryDecision::Demote
        );
        c.can_demote = false;
        assert_eq!(c.clamp(RetryDecision::Demote), RetryDecision::RetryHere);
        let c = ctx(PathClass::Hardware, AbortCause::Conflict, 1);
        assert_eq!(
            c.clamp(RetryDecision::BackoffThen(10)),
            RetryDecision::BackoffThen(10)
        );
    }

    #[test]
    fn aggressive_only_demotes_on_hardware_limitations() {
        let aggressive = alias("aggressive");
        let mut state = RetryState::new(3);
        let c = ctx(PathClass::Hardware, AbortCause::Conflict, 1_000_000);
        assert_eq!(
            decide(&aggressive, &c, &mut state),
            RetryDecision::RetryHere
        );
        let c = ctx(PathClass::Hardware, AbortCause::Capacity, 1);
        assert_eq!(decide(&aggressive, &c, &mut state), RetryDecision::Demote);
    }

    #[test]
    fn adaptive_loses_patience_when_the_cascade_degrades() {
        let adaptive = alias("adaptive");
        let mut state = RetryState::new(3);
        let healthy = hw_ctx(1);
        assert_eq!(
            decide(&adaptive, &healthy, &mut state),
            RetryDecision::RetryHere
        );
        let degraded = AttemptContext {
            fallback_all_software: 1,
            ..healthy
        };
        assert_eq!(
            decide(&adaptive, &degraded, &mut state),
            RetryDecision::Demote
        );
        let exhausted = AttemptContext {
            attempt: 3,
            ..healthy
        };
        assert_eq!(
            decide(&adaptive, &exhausted, &mut state),
            RetryDecision::Demote
        );
    }

    #[test]
    fn capped_exponential_backs_off_within_bounds() {
        let policy = alias("capped-exp");
        let window = SpinWindow::DEFAULT;
        let mut state = RetryState::new(11);
        let mut last_window_top = 0;
        for attempt in 1..=20 {
            match decide(&policy, &hw_ctx(attempt), &mut state) {
                RetryDecision::BackoffThen(spins) => {
                    assert!(spins <= window.max_spins, "attempt {attempt}: {spins}");
                    last_window_top = last_window_top.max(spins);
                }
                other => panic!("expected backoff, got {other:?}"),
            }
        }
        assert!(
            last_window_top > window.base_spins,
            "backoff never escalated"
        );
        // Hardware limitations still demote.
        let c = ctx(PathClass::Hardware, AbortCause::Unsupported, 1);
        assert_eq!(decide(&policy, &c, &mut state), RetryDecision::Demote);
    }

    #[test]
    fn jitter_streams_diverge_across_threads() {
        let policy = alias("capped-exp");
        let c = hw_ctx(6);
        let mut a = RetryState::new(1);
        let mut b = RetryState::new(2);
        let draws_a: Vec<_> = (0..8).map(|_| decide(&policy, &c, &mut a)).collect();
        let draws_b: Vec<_> = (0..8).map(|_| decide(&policy, &c, &mut b)).collect();
        assert_ne!(draws_a, draws_b, "seeded jitter must differ per thread");
    }

    #[test]
    fn handle_equality_and_parse_round_trip() {
        for policy in RetryPolicyHandle::builtin() {
            let reparsed = RetryPolicyHandle::parse(policy.label()).unwrap();
            assert_eq!(policy, reparsed, "{}", policy.label());
        }
        assert_eq!(RetryPolicyHandle::default().label(), "paper-default");
        assert_ne!(
            RetryPolicyHandle::paper_default(),
            RetryPolicyHandle::aggressive()
        );
        // Same parts, different parameters: distinct policies.
        let adaptive = |patience| {
            RetryPolicyHandle::new(
                ComposedPolicy::PAPER_DEFAULT.with_give_up(GiveUp::Adaptive { patience }),
            )
        };
        assert_ne!(adaptive(1), adaptive(9));
        assert_eq!(adaptive(2), RetryPolicyHandle::adaptive());
        assert_eq!(adaptive(1).label(), "custom");
        assert_eq!(RetryPolicyHandle::parse(" CB ").unwrap().label(), "cb");
        assert_eq!(RetryPolicyHandle::parse("nonsense"), None);
    }

    #[test]
    fn rng_matches_the_historical_xorshift() {
        // The exact sequence RhThread::next_random produced before the
        // refactor — the RH "Mix" draw must stay bit-identical.
        let mut rng = RetryRng::new(0x1234_5678_9abc_def1);
        let mut x: u64 = 0x1234_5678_9abc_def1;
        for _ in 0..16 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            assert_eq!(rng.next_u64(), x);
        }
        assert!(RetryRng::new(0).next_u64() != 0);
    }

    #[test]
    fn spin_handles_zero_and_large_counts() {
        spin(0);
        spin(10_000);
    }

    #[test]
    fn retry_thread_records_causes_and_outcomes() {
        let mut m = RetryMetrics::default();
        let mut thread = RetryThread::new(&RetryPolicyHandle::paper_default(), 4);
        // Budget 1 ⇒ attempt 1 retries, attempt 2 demotes.
        let retrying = AttemptContext {
            retry_budget: 1,
            ..ctx(PathClass::Hardware, AbortCause::Conflict, 1)
        };
        assert_eq!(thread.decide(&retrying, &mut m), RetryDecision::RetryHere);
        let exhausted = AttemptContext {
            attempt: 2,
            ..retrying
        };
        assert_eq!(thread.decide(&exhausted, &mut m), RetryDecision::Demote);
        // A capacity abort is clamped to Demote and recorded post-clamp.
        let capacity = ctx(PathClass::Hardware, AbortCause::Capacity, 1);
        assert_eq!(thread.decide(&capacity, &mut m), RetryDecision::Demote);
        // Backoff outcomes are recorded as backoff.
        let mut backoff = RetryThread::new(&RetryPolicyHandle::capped_exponential(), 4);
        assert!(matches!(
            backoff.decide(&hw_ctx(1), &mut m),
            RetryDecision::BackoffThen(_)
        ));
        assert_eq!(m.retry_here, 1);
        assert_eq!(m.demote, 2);
        assert_eq!(m.backoff, 1);
        assert_eq!(m.decisions(), 4);
        assert_eq!(m.cause_count(AbortCause::Conflict), 3);
        assert_eq!(m.cause_count(AbortCause::Capacity), 1);
    }

    #[test]
    fn builtin_is_append_only_with_stable_labels() {
        let labels: Vec<_> = RetryPolicyHandle::builtin()
            .iter()
            .map(|p| p.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "paper-default",
                "capped-exp",
                "aggressive",
                "adaptive",
                "full-jitter",
                "fib",
                "cb",
                "budgeted",
            ]
        );
        // The stateless policies keep their cheap hook defaults; the
        // stateful Retry 2.0 policies opt into the commit hook.
        for p in RetryPolicyHandle::builtin() {
            let stateful = matches!(p.label(), "cb" | "budgeted");
            assert_eq!(p.wants_commit_hook(), stateful, "{}", p.label());
        }
    }

    #[test]
    fn only_adaptive_loads_the_fallback_counters() {
        for p in RetryPolicyHandle::builtin() {
            let adaptive = p.label() == "adaptive";
            assert_eq!(p.wants_fallback_snapshot(), adaptive, "{}", p.label());
        }
    }

    fn breaker(open_threshold: u32, probe_interval: u32, close_streak: u32) -> ComposedPolicy {
        NEVER.with_breaker(CircuitBreakerConfig {
            open_threshold,
            probe_interval,
            close_streak,
        })
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_back() {
        let cb = breaker(3, 2, 1);
        let mut state = RetryState::new(5);
        let mut m = RetryMetrics::default();
        let ctx = hw_ctx(1);
        assert_eq!(
            cb.decide(&ctx, &mut state, &mut m),
            RetryDecision::RetryHere
        );
        assert_eq!(
            cb.decide(&ctx, &mut state, &mut m),
            RetryDecision::RetryHere
        );
        assert_eq!(state.circuit_label(), "closed");
        // Third consecutive failure opens.
        assert_eq!(cb.decide(&ctx, &mut state, &mut m), RetryDecision::Demote);
        assert_eq!(state.circuit_label(), "open");
        assert_eq!(m.circuit_opens, 1);
        // One more demote, then the probe interval elapses.
        assert_eq!(cb.decide(&ctx, &mut state, &mut m), RetryDecision::Demote);
        assert_eq!(
            cb.decide(&ctx, &mut state, &mut m),
            RetryDecision::RetryHere
        );
        assert_eq!(state.circuit_label(), "half-open");
        assert_eq!(m.circuit_probes, 1);
        // The probe commits in hardware: close.
        cb.on_commit(true, &mut state, &mut m);
        assert_eq!(state.circuit_label(), "closed");
        assert_eq!(m.circuit_closes, 1);
    }

    #[test]
    fn breaker_commit_resets_the_closed_failure_count() {
        let cb = breaker(2, 1, 1);
        let mut state = RetryState::new(5);
        let mut m = RetryMetrics::default();
        let ctx = hw_ctx(1);
        cb.decide(&ctx, &mut state, &mut m);
        cb.on_commit(true, &mut state, &mut m); // resets failures
        cb.decide(&ctx, &mut state, &mut m);
        assert_eq!(
            state.circuit_label(),
            "closed",
            "streak was broken by a commit"
        );
        cb.decide(&ctx, &mut state, &mut m);
        assert_eq!(state.circuit_label(), "open");
    }

    #[test]
    fn breaker_ignores_non_hardware_decisions() {
        let cb = breaker(1, 1, 1);
        let mut state = RetryState::new(5);
        let mut m = RetryMetrics::default();
        let sw = AttemptContext {
            path: PathClass::Software,
            can_demote: false,
            ..hw_ctx(1)
        };
        for _ in 0..10 {
            assert_eq!(cb.decide(&sw, &mut state, &mut m), RetryDecision::RetryHere);
        }
        assert_eq!(state.circuit_label(), "closed");
        assert_eq!(m.circuit_opens, 0);
    }

    #[test]
    fn budget_drains_refills_and_sheds() {
        let b = NEVER.with_budget(RetryBudget::new(2, 3));
        let bucket = Arc::clone(b.budget.as_ref().unwrap());
        let mut state = RetryState::new(5);
        let mut m = RetryMetrics::default();
        let ctx = hw_ctx(1);
        assert_eq!(b.decide(&ctx, &mut state, &mut m), RetryDecision::RetryHere);
        assert_eq!(b.decide(&ctx, &mut state, &mut m), RetryDecision::RetryHere);
        assert_eq!(bucket.tokens(), 0);
        assert_eq!(b.decide(&ctx, &mut state, &mut m), RetryDecision::Demote);
        assert_eq!(m.budget_exhausted, 1);
        // A commit refills (saturating at capacity).
        b.on_commit(false, &mut state, &mut m);
        assert_eq!(bucket.tokens(), 2, "refill saturates at capacity");
        assert_eq!(b.decide(&ctx, &mut state, &mut m), RetryDecision::RetryHere);
    }

    #[test]
    fn infinite_threshold_breaker_delegates_forever() {
        let paper = ComposedPolicy::PAPER_DEFAULT;
        let cb = paper.clone().with_breaker(CircuitBreakerConfig {
            open_threshold: u32::MAX,
            ..CircuitBreakerConfig::default()
        });
        let mut state_a = RetryState::new(77);
        let mut state_b = RetryState::new(77);
        let mut ma = RetryMetrics::default();
        for attempt in 1..=200u32 {
            let ctx = AttemptContext {
                mix_percent: 50,
                retry_budget: 2,
                ..hw_ctx(attempt % 7 + 1)
            };
            assert_eq!(
                cb.decide(&ctx, &mut state_a, &mut ma),
                decide(&paper, &ctx, &mut state_b),
                "attempt {attempt}"
            );
        }
        assert_eq!(state_a.circuit_label(), "closed");
        assert_eq!(
            (ma.circuit_opens, ma.circuit_probes, ma.circuit_closes),
            (0, 0, 0)
        );
    }

    #[test]
    fn jitter_policies_stay_in_window() {
        let window = SpinWindow::DEFAULT;
        let mut state = RetryState::new(9);
        for attempt in 1..=24 {
            match decide(&alias("full-jitter"), &hw_ctx(attempt), &mut state) {
                RetryDecision::BackoffThen(x) => assert!(x <= window.max_spins),
                other => panic!("expected backoff, got {other:?}"),
            }
        }

        let mut state = RetryState::new(3);
        let mut windows = Vec::new();
        for attempt in 1..=20 {
            match decide(&alias("fib"), &hw_ctx(attempt), &mut state) {
                RetryDecision::BackoffThen(s) => {
                    assert!(s <= window.max_spins, "attempt {attempt}: {s}");
                    windows.push(s);
                }
                other => panic!("expected backoff, got {other:?}"),
            }
        }
        assert!(
            windows.iter().max().unwrap() > &window.base_spins,
            "fib escalates"
        );
        // The fibonacci sequence itself.
        assert_eq!(
            (1..=10).map(fib).collect::<Vec<_>>(),
            vec![1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        );
        assert_eq!(fib(0), 1);
        assert_eq!(fib(64), fib(1000), "saturated");
    }

    #[test]
    fn compositions_compare_by_configuration() {
        // Fresh builds of the same composition compare equal...
        for label in ComposedPolicy::LABELS {
            assert_eq!(alias(label), alias(label), "{label}");
        }
        // ...a drained bucket is still the same configuration...
        let budgeted = alias("budgeted");
        assert!(budgeted.budget.as_ref().unwrap().try_drain());
        assert_eq!(budgeted, alias("budgeted"));
        assert_eq!(
            RetryPolicyHandle::new(budgeted),
            RetryPolicyHandle::budgeted()
        );
        // ...different configurations are not.
        assert_ne!(
            ComposedPolicy::PAPER_DEFAULT.with_breaker(CircuitBreakerConfig {
                open_threshold: 9,
                ..CircuitBreakerConfig::default()
            }),
            alias("cb")
        );
        assert_ne!(
            ComposedPolicy::PAPER_DEFAULT.with_budget(RetryBudget::new(1, 1)),
            alias("budgeted")
        );
    }
}
