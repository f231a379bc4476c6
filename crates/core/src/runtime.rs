//! The reduced-hardware runtime: path selection, retry policy and the
//! fallback cascade.

use std::sync::Arc;

use rhtm_api::Backoff;

use rhtm_api::{
    AbortCause, AttemptContext, PathClass, PathKind, RetryDecision, RetryThread, Stopwatch,
    TmRuntime, TmThread, TxResult, TxStats, Txn,
};
use rhtm_htm::linemap::{StripeMarks, WriteSet};
use rhtm_htm::{HtmConfig, HtmSim, HtmThread};
use rhtm_mem::{Addr, MemConfig, StripeId, ThreadRegistry, ThreadToken, TmMemory};

use crate::config::{ProtocolMode, RhConfig};
use crate::fallback::FallbackState;

/// Which execution path the current attempt is running on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Path {
    /// No attempt in progress.
    Idle,
    /// RH1 all-hardware fast-path (Algorithm 1/3).
    Rh1Fast,
    /// RH2 all-hardware fast-path (Algorithm 4).
    Rh2Fast,
    /// RH2 fast-path-slow-read: hardware transaction with TL2-style
    /// instrumented reads (Algorithm 6), used while a pure-software
    /// write-back is in flight.
    Rh2FastSlowRead,
    /// The mostly-software slow-path (Algorithm 2/5): software body, commit
    /// through a hardware transaction (or the further fallbacks).
    Slow,
}

/// The reduced-hardware hybrid TM runtime.
///
/// One `RhRuntime` owns (or shares) a simulated machine — heap plus HTM —
/// and hands out per-thread [`RhThread`] handles.  The protocol variant is
/// purely a matter of [`RhConfig`]: "RH1 Fast", "RH1 Mixed N" and
/// stand-alone "RH2" are all this same type.
pub struct RhRuntime {
    sim: Arc<HtmSim>,
    registry: Arc<ThreadRegistry>,
    config: RhConfig,
}

impl RhRuntime {
    /// Creates a runtime over its own fresh memory.
    ///
    /// A global-clock scheme requested via [`RhConfig::clock_scheme`]
    /// overrides `mem_config.clock_scheme` for the memory being created, so
    /// configuring a runtime variant and its clock in one place works as
    /// expected.
    pub fn new(mem_config: MemConfig, htm_config: HtmConfig, config: RhConfig) -> Self {
        let max_threads = mem_config.max_threads;
        let mem_config = MemConfig {
            clock_scheme: config.clock_scheme.unwrap_or(mem_config.clock_scheme),
            ..mem_config
        };
        let mem = Arc::new(TmMemory::new(mem_config));
        let sim = HtmSim::new(mem, htm_config);
        RhRuntime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// Creates a runtime over an existing simulator (sharing memory with
    /// other runtimes).
    ///
    /// The clock is a property of the shared memory, so
    /// [`RhConfig::clock_scheme`] cannot be applied here.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests a clock scheme different from
    /// the one the shared memory was built with — silently running (and
    /// labelling results) under the wrong scheme would corrupt any
    /// clock-scheme comparison.
    pub fn with_sim(sim: Arc<HtmSim>, config: RhConfig) -> Self {
        let memory_scheme = sim.mem().clock().scheme();
        if let Some(requested) = config.clock_scheme {
            assert_eq!(
                requested, memory_scheme,
                "RhConfig requests clock scheme {requested:?} but the shared memory \
                 was built with {memory_scheme:?}; build the memory with the desired \
                 scheme (MemConfig::clock_scheme) or drop the RhConfig override"
            );
        }
        let max_threads = sim.mem().layout().config().max_threads;
        RhRuntime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Arc<HtmSim> {
        &self.sim
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RhConfig {
        &self.config
    }

    /// The fallback-counter view (used by tests and the fallback ablation).
    pub fn fallback_state(&self) -> FallbackState {
        FallbackState::new(&self.sim)
    }
}

impl TmRuntime for RhRuntime {
    type Thread = RhThread;

    fn name(&self) -> &'static str {
        self.config.display_name()
    }

    fn mem(&self) -> &Arc<TmMemory> {
        self.sim.mem()
    }

    fn register_thread(&self) -> RhThread {
        let token = self.registry.register();
        let htm = HtmThread::new(Arc::clone(&self.sim), token.id() as u64);
        let retry = RetryThread::new(
            &self.config.retry_policy,
            self.config.seed ^ ((token.id() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1,
        );
        RhThread {
            fallback: FallbackState::new(&self.sim),
            retry,
            sim: Arc::clone(&self.sim),
            htm,
            token,
            config: self.config.clone(),
            stats: TxStats::new(false),
            path: Path::Idle,
            next_ver: 0,
            tx_version: 0,
            fp_write_stripes: Vec::with_capacity(16),
            read_set: Vec::with_capacity(64),
            read_marks: StripeMarks::with_capacity(512),
            last_read_stripe: u64::MAX,
            write_set: WriteSet::with_capacity(32),
            locked: Vec::with_capacity(16),
            commit_stripes: Vec::with_capacity(16),
            visible: Vec::with_capacity(64),
            commit_salt: 0,
            in_txn: false,
        }
    }
}

/// Per-thread handle of the reduced-hardware runtime.
pub struct RhThread {
    pub(crate) sim: Arc<HtmSim>,
    pub(crate) htm: HtmThread,
    pub(crate) fallback: FallbackState,
    pub(crate) token: ThreadToken,
    pub(crate) config: RhConfig,
    pub(crate) stats: TxStats,
    pub(crate) path: Path,
    /// RH1 fast-path: the version to install on written stripes
    /// (`GVNext()` sampled speculatively at transaction start).
    pub(crate) next_ver: u64,
    /// Slow-path / fast-path-slow-read: the start time-stamp.
    pub(crate) tx_version: u64,
    /// RH2 fast-path: stripes written speculatively (checked against read
    /// masks and locked at commit).
    pub(crate) fp_write_stripes: Vec<StripeId>,
    /// Slow-path read-set (distinct stripes, first-read order).
    pub(crate) read_set: Vec<StripeId>,
    /// Per-stripe membership filter deduplicating `read_set` inserts, so
    /// commit-time revalidation is O(distinct stripes) instead of O(reads).
    /// Generation-stamped: clearing it between attempts is O(1).
    pub(crate) read_marks: StripeMarks,
    /// Stripe recorded by the most recent slow-path read (`u64::MAX` =
    /// none); a one-entry cache in front of `read_marks` for scan streaks.
    pub(crate) last_read_stripe: u64,
    /// Slow-path write-set (deferred writes in program order).
    pub(crate) write_set: WriteSet,
    /// Stripes locked by an RH2 slow-path commit, with their pre-lock
    /// version words.
    pub(crate) locked: Vec<(StripeId, u64)>,
    /// Scratch for the sorted, deduplicated write-stripe list built by the
    /// RH2 slow commit, reused so a commit performs no allocation.
    pub(crate) commit_stripes: Vec<StripeId>,
    /// Stripes whose read mask currently carries this thread's visibility
    /// bit.
    pub(crate) visible: Vec<StripeId>,
    /// Writing commits performed by this thread; sampling salt for the GV6
    /// clock scheme.
    pub(crate) commit_salt: u64,
    in_txn: bool,
    /// The retry policy with this thread's RNG (the "Mix" draw, backoff
    /// jitter) and circuit, plus the policy's cached hook answers.
    retry: RetryThread,
}

impl RhThread {
    /// This thread's stripe-lock word (`thread_id * 2 + 1`).
    #[inline(always)]
    pub(crate) fn lock_word(&self) -> u64 {
        rhtm_mem::stamp::lock_word(self.token.id())
    }

    /// Read access to the hardware transaction unit (tests, ablations).
    pub fn htm(&self) -> &HtmThread {
        &self.htm
    }

    /// Advances and returns the per-thread commit salt (GV6 clock-scheme
    /// sampling).
    #[inline(always)]
    pub(crate) fn bump_commit_salt(&mut self) -> u64 {
        self.commit_salt = self.commit_salt.wrapping_add(1);
        self.commit_salt
    }

    /// Decides the path of the next attempt.
    fn choose_path(&mut self, force_slow: bool) -> Path {
        if force_slow || self.config.always_slow {
            return Path::Slow;
        }
        // The all-software write-back window dominates every other mode.
        if self.fallback.all_software_count(&self.sim) > 0 {
            return Path::Rh2FastSlowRead;
        }
        match self.config.mode {
            ProtocolMode::Rh2 => Path::Rh2Fast,
            ProtocolMode::Rh1 => {
                if self.fallback.rh2_fallback_count(&self.sim) > 0 {
                    Path::Rh2Fast
                } else {
                    Path::Rh1Fast
                }
            }
        }
    }

    /// Starts an attempt on `path`.
    fn begin_path(&mut self, path: Path) -> TxResult<()> {
        self.path = path;
        match path {
            Path::Rh1Fast => self.rh1_fast_begin(),
            Path::Rh2Fast => self.rh2_fast_begin(),
            Path::Rh2FastSlowRead => self.rh2_fpsr_begin(),
            Path::Slow => {
                self.slow_begin();
                Ok(())
            }
            Path::Idle => unreachable!("begin_path(Idle)"),
        }
    }

    /// Commits the attempt in progress, returning the path kind that should
    /// be recorded for it.
    fn commit_path(&mut self) -> TxResult<PathKind> {
        match self.path {
            Path::Rh1Fast => {
                self.htm.commit()?;
                self.stats.htm_commits += 1;
                Ok(PathKind::HardwareFast)
            }
            Path::Rh2Fast | Path::Rh2FastSlowRead => {
                self.rh2_fast_commit()?;
                self.stats.htm_commits += 1;
                Ok(PathKind::HardwareFast)
            }
            Path::Slow => match self.config.mode {
                ProtocolMode::Rh1 => self.rh1_slow_commit(),
                ProtocolMode::Rh2 => {
                    if self.write_set.is_empty() {
                        Ok(PathKind::MixedSlow)
                    } else {
                        self.rh2_slow_commit()
                    }
                }
            },
            Path::Idle => unreachable!("commit_path(Idle)"),
        }
    }

    /// A read on a path other than the two all-hardware fast-paths.
    #[inline(never)]
    fn instrumented_read(&mut self, addr: Addr) -> TxResult<u64> {
        match self.path {
            Path::Rh2FastSlowRead => self.rh2_fpsr_read(addr),
            Path::Slow => self.slow_read(addr),
            Path::Rh1Fast | Path::Rh2Fast => self.htm.read(addr),
            Path::Idle => panic!("transactional read outside execute()"),
        }
    }

    /// Consults the configured retry policy about the `attempt`-th failure
    /// of the current transaction.
    ///
    /// The decision is clamped ([`AttemptContext::clamp`]): a
    /// hardware-limitation abort always demotes, and a slow-path attempt
    /// (already the slowest whole-transaction tier) never does — the body
    /// has to be re-executed after a validation failure, and it still
    /// cannot run in hardware if it could not before.
    fn decide_retry(&mut self, attempt: u32, cause: AbortCause) -> RetryDecision {
        let on_slow = self.path == Path::Slow;
        let (fallback_rh2, fallback_all_software) = self.fallback_snapshot();
        let ctx = AttemptContext {
            attempt,
            path: if on_slow {
                PathClass::Software
            } else {
                PathClass::Hardware
            },
            cause,
            can_demote: !on_slow,
            // The fast-path has no fixed retry budget; the "Mix" percentage
            // governs every contention abort (the paper's policy).
            retry_budget: 0,
            mix_percent: self.config.slow_path_percent,
            fallback_rh2,
            fallback_all_software,
        };
        self.retry.decide(&ctx, &mut self.stats.retry)
    }

    /// The fallback counters as the policy context wants them: real
    /// snapshots for policies that consult the cascade state, zeros (no
    /// shared-line reads on the abort path) for the rest.
    fn fallback_snapshot(&self) -> (u64, u64) {
        if self.retry.wants_fallback_snapshot() {
            (
                self.fallback.rh2_fallback_count(&self.sim),
                self.fallback.all_software_count(&self.sim),
            )
        } else {
            (0, 0)
        }
    }

    /// Consults the retry policy at a commit-time decision site (the RH1
    /// commit transaction or the RH2 write-back), where `attempt` counts
    /// the failures of the current commit and `budget` is the site's
    /// configured maximum of *extra* attempts.
    pub(crate) fn decide_commit_retry(
        &mut self,
        attempt: u32,
        cause: AbortCause,
        budget: u32,
    ) -> RetryDecision {
        let (fallback_rh2, fallback_all_software) = self.fallback_snapshot();
        let ctx = AttemptContext {
            attempt,
            path: PathClass::CommitHtm,
            cause,
            can_demote: true,
            retry_budget: budget,
            mix_percent: 100,
            fallback_rh2,
            fallback_all_software,
        };
        self.retry.decide(&ctx, &mut self.stats.retry)
    }
}

impl Txn for RhThread {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let sw = Stopwatch::start(self.stats.timing);
        // The uninstrumented hardware read is tested first and inlined into
        // the caller; the instrumented paths stay out of line.
        let result = if matches!(self.path, Path::Rh1Fast | Path::Rh2Fast) {
            self.htm.read(addr)
        } else {
            self.instrumented_read(addr)
        };
        self.stats.record_read(sw.stop());
        result
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = match self.path {
            Path::Rh1Fast => self.rh1_fast_write(addr, value),
            Path::Rh2Fast | Path::Rh2FastSlowRead => self.rh2_fast_write(addr, value),
            Path::Slow => self.slow_write(addr, value),
            Path::Idle => panic!("transactional write outside execute()"),
        };
        self.stats.record_write(sw.stop());
        result
    }

    fn protected_instruction(&mut self) -> TxResult<()> {
        match self.path {
            // A hardware transaction cannot run protected instructions; the
            // abort's `Unsupported` cause steers the retry to the slow-path,
            // where the software body can execute them before the commit.
            Path::Rh1Fast | Path::Rh2Fast | Path::Rh2FastSlowRead => {
                Err(self.htm.abort(AbortCause::Unsupported))
            }
            Path::Slow => Ok(()),
            Path::Idle => panic!("protected_instruction outside execute()"),
        }
    }
}

impl TmThread for RhThread {
    fn execute<R, F>(&mut self, mut body: F) -> R
    where
        F: FnMut(&mut Self) -> TxResult<R>,
    {
        assert!(!self.in_txn, "nested execute is not supported");
        self.in_txn = true;
        let backoff = Backoff::new();
        let mut force_slow = false;
        let mut failures = 0u32;
        let result = loop {
            let path = self.choose_path(force_slow);
            let attempt: TxResult<(R, PathKind)> = self.begin_path(path).and_then(|()| {
                body(self).and_then(|r| {
                    let sw = Stopwatch::start(self.stats.timing);
                    let committed = self.commit_path();
                    self.stats.record_commit_time(sw.stop());
                    committed.map(|kind| (r, kind))
                })
            });
            match attempt {
                Ok((r, kind)) => {
                    self.stats.record_commit(kind);
                    self.retry
                        .on_commit(kind == PathKind::HardwareFast, &mut self.stats.retry);
                    break r;
                }
                Err(abort) => {
                    self.stats.record_abort(abort.cause);
                    failures += 1;
                    let decision = self.decide_retry(failures, abort.cause);
                    // An aborted slow-path attempt always re-runs on the
                    // slow-path; a fast-path attempt demotes when the
                    // policy says so.
                    force_slow = self.path == Path::Slow || decision == RetryDecision::Demote;
                    match decision {
                        RetryDecision::BackoffThen(spins) => rhtm_api::retry::spin(spins),
                        _ => backoff.snooze(),
                    }
                }
            }
        };
        self.path = Path::Idle;
        self.in_txn = false;
        result
    }

    fn thread_id(&self) -> usize {
        self.token.id()
    }

    fn stats(&self) -> &TxStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut TxStats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime(config: RhConfig) -> RhRuntime {
        RhRuntime::new(
            MemConfig::with_data_words(8192),
            HtmConfig::default(),
            config,
        )
    }

    fn all_variants() -> Vec<RhConfig> {
        vec![
            RhConfig::rh1_fast(),
            RhConfig::rh1_mixed(10),
            RhConfig::rh1_mixed(100),
            RhConfig::rh2(),
        ]
    }

    #[test]
    fn single_thread_counter_on_every_variant() {
        for config in all_variants() {
            let rt = runtime(config);
            let addr = rt.mem().alloc(1);
            let mut th = rt.register_thread();
            for _ in 0..200 {
                th.execute(|tx| {
                    let v = tx.read(addr)?;
                    tx.write(addr, v + 1)?;
                    Ok(())
                });
            }
            assert_eq!(rt.sim().nt_load(addr), 200, "runtime {}", rt.name());
            assert_eq!(th.stats().commits(), 200);
        }
    }

    #[test]
    fn concurrent_counter_exact_on_every_variant() {
        for config in all_variants() {
            let rt = Arc::new(runtime(config));
            let addr = rt.mem().alloc(1);
            let threads = 6;
            let per = 3_000;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let rt = Arc::clone(&rt);
                    std::thread::spawn(move || {
                        let mut th = rt.register_thread();
                        for _ in 0..per {
                            th.execute(|tx| {
                                let v = tx.read(addr)?;
                                tx.write(addr, v + 1)?;
                                Ok(())
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                rt.sim().nt_load(addr),
                (threads * per) as u64,
                "runtime {}",
                rt.name()
            );
        }
    }

    #[test]
    fn names_follow_the_paper() {
        assert_eq!(runtime(RhConfig::rh1_fast()).name(), "RH1 Fast");
        assert_eq!(runtime(RhConfig::rh1_mixed(100)).name(), "RH1 Mixed 100");
        assert_eq!(runtime(RhConfig::rh2()).name(), "RH2");
    }

    #[test]
    fn fast_path_commits_dominate_without_contention() {
        let rt = runtime(RhConfig::rh1_mixed(100));
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        for _ in 0..500 {
            th.execute(|tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
        assert_eq!(th.stats().commits_on(PathKind::HardwareFast), 500);
        assert_eq!(th.stats().commits_on(PathKind::MixedSlow), 0);
    }

    #[test]
    fn protected_instruction_forces_the_slow_path() {
        let rt = runtime(RhConfig::rh1_fast());
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        let v = th.execute(|tx| {
            tx.protected_instruction()?;
            let v = tx.read(addr)?;
            tx.write(addr, v + 7)?;
            Ok(v + 7)
        });
        assert_eq!(v, 7);
        assert_eq!(rt.sim().nt_load(addr), 7);
        assert_eq!(th.stats().commits_on(PathKind::MixedSlow), 1);
        assert_eq!(th.stats().aborts_for(AbortCause::Unsupported), 1);
    }

    #[test]
    fn capacity_overflow_falls_back_to_the_slow_path() {
        // Tiny hardware capacity: the fast-path cannot hold the footprint,
        // the mixed slow-path (whose hardware commit only touches the
        // metadata) can.
        let rt = RhRuntime::new(
            MemConfig::with_data_words(8192),
            HtmConfig::with_capacity(4, 4),
            RhConfig::rh1_fast(),
        );
        let base = rt.mem().alloc(1024);
        let mut th = rt.register_thread();
        let sum = th.execute(|tx| {
            let mut sum = 0;
            // 64 distinct cache lines read: far beyond the 4-line budget.
            for i in 0..64 {
                sum += tx.read(base.offset(i * 8))?;
            }
            tx.write(base, sum + 1)?;
            Ok(sum)
        });
        assert_eq!(sum, 0);
        assert_eq!(rt.sim().nt_load(base), 1);
        assert_eq!(th.stats().commits_on(PathKind::MixedSlow), 1);
        assert!(th.stats().aborts_for(AbortCause::Capacity) >= 1);
    }

    #[test]
    fn bank_transfer_preserves_balance_on_every_variant() {
        for config in all_variants() {
            let rt = Arc::new(runtime(config));
            let accounts: Vec<Addr> = (0..24).map(|_| rt.mem().alloc(1)).collect();
            for &a in &accounts {
                rt.sim().nt_store(a, 500);
            }
            let accounts = Arc::new(accounts);
            let handles: Vec<_> = (0..6)
                .map(|i| {
                    let rt = Arc::clone(&rt);
                    let accounts = Arc::clone(&accounts);
                    std::thread::spawn(move || {
                        let mut th = rt.register_thread();
                        for k in 0..4_000usize {
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
            let total: u64 = accounts.iter().map(|&a| rt.sim().nt_load(a)).sum();
            assert_eq!(total, 24 * 500, "runtime {}", rt.name());
        }
    }

    #[test]
    fn mixed_policy_uses_slow_path_under_forced_aborts() {
        // With every fast-path writer forced to abort, RH1 Mixed 100 must
        // retry each transaction on the slow-path, and those must commit.
        let rt = RhRuntime::new(
            MemConfig::with_data_words(4096),
            HtmConfig::default().with_forced_abort_ratio(1.0),
            RhConfig::rh1_mixed(100),
        );
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        for _ in 0..100 {
            th.execute(|tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
        assert_eq!(rt.sim().nt_load(addr), 100);
        // Every transaction takes exactly one forced abort on the fast-path,
        // then commits on the mixed slow-path at the first try: its commit
        // hardware transaction runs with forced injection switched off
        // (`rh1_slow_commit`), so it never aborts.
        assert_eq!(th.stats().commits(), 100);
        assert_eq!(th.stats().commits_on(PathKind::MixedSlow), 100);
        assert_eq!(th.stats().aborts_for(AbortCause::Forced), 100);
        assert_eq!(th.stats().htm_aborts, 0);
    }

    #[test]
    fn rh1_fast_policy_retries_in_hardware() {
        let rt = RhRuntime::new(
            MemConfig::with_data_words(4096),
            HtmConfig::default()
                .with_spurious_abort_rate(0.5)
                .with_seed(7),
            RhConfig::rh1_fast(),
        );
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        for _ in 0..200 {
            th.execute(|tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
        assert_eq!(rt.sim().nt_load(addr), 200);
        assert_eq!(th.stats().commits_on(PathKind::HardwareFast), 200);
        assert_eq!(th.stats().commits_on(PathKind::MixedSlow), 0);
        assert!(th.stats().aborts_for(AbortCause::Spurious) > 0);
    }
}
