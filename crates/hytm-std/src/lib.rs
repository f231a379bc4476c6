//! # rhtm-hytm-std — the "Standard HyTM" baseline
//!
//! The classic hybrid-TM design the paper compares against (its "Standard
//! HyTM" series, representative of Damron et al. and Kumar et al.): hardware
//! transactions whose **reads and writes are both instrumented** with
//! accesses to the STM metadata, so that they can run concurrently with a
//! TL2-style software fallback.
//!
//! * Hardware path: every read loads the location's stripe version and
//!   branches on its lock bit before loading the data; every write installs
//!   a new stripe version next to the data store.  This per-access metadata
//!   traffic is precisely the overhead the paper's Figure 1 quantifies and
//!   the RH protocols eliminate.
//! * Software path: the [`rhtm_stm::Tl2Engine`].  By default the runtime
//!   falls back to it after a bounded number of hardware failures; the
//!   `hardware_only` configuration reproduces the paper's measurement
//!   variant, which retries in hardware forever ("to make the hybrid as
//!   fast as possible").

#![warn(missing_docs)]
#![deny(unsafe_code)]

use std::sync::Arc;

use rhtm_api::{
    retry, AbortCause, AttemptContext, Backoff, PathClass, PathKind, RetryDecision,
    RetryPolicyHandle, RetryThread, Stopwatch, TmRuntime, TmThread, TxResult, TxStats, Txn,
};
use rhtm_htm::{HtmConfig, HtmSim, HtmThread};
use rhtm_mem::{stamp, Addr, MemConfig, ThreadRegistry, ThreadToken, TmMemory};
use rhtm_stm::Tl2Engine;

/// Policy of the Standard-HyTM runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StdHytmConfig {
    /// Retry aborted transactions in hardware only, never falling back to
    /// software.  This is the paper's benchmark variant ("we execute only
    /// the hardware mode implementation ... without any software fallback").
    /// Transactions that abort for a hardware-limitation reason still fall
    /// back, since retrying them in hardware can never succeed.
    ///
    /// This is a contract, not a tunable: besides setting the hardware
    /// retry budget seen by the retry policy to `u32::MAX`, the runtime
    /// ignores contention-demote decisions from budget-ignoring policies
    /// (e.g. `adaptive`), so a `hardware_only` run commits on the software
    /// path only for hardware limitations, whatever the policy.
    pub hardware_only: bool,
    /// Hardware retry budget: the maximum number of *extra* hardware
    /// attempts after the first contention failure (so `N` allows `N + 1`
    /// hardware attempts in total) before falling back to the software
    /// path.  Ignored in `hardware_only` mode.
    pub hw_retries: u32,
    /// The contention-management policy consulted after every abort (see
    /// [`rhtm_api::RetryPolicy`]).  The default reproduces the seed
    /// behaviour: demote to software after `hw_retries` extra hardware
    /// failures, immediately on a hardware limitation.
    pub retry_policy: RetryPolicyHandle,
}

impl Default for StdHytmConfig {
    fn default() -> Self {
        StdHytmConfig {
            hardware_only: false,
            hw_retries: 4,
            retry_policy: RetryPolicyHandle::paper_default(),
        }
    }
}

impl StdHytmConfig {
    /// The paper's benchmark variant: hardware retries only.
    pub fn hardware_only() -> Self {
        StdHytmConfig {
            hardware_only: true,
            hw_retries: u32::MAX,
            ..Default::default()
        }
    }

    /// Returns the configuration with a different retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicyHandle) -> Self {
        self.retry_policy = policy;
        self
    }

    /// The hardware retry budget the policy sees: unbounded when
    /// `hardware_only`, the configured `hw_retries` otherwise.
    fn hw_budget(&self) -> u32 {
        if self.hardware_only {
            u32::MAX
        } else {
            self.hw_retries
        }
    }
}

/// The Standard-HyTM runtime ("Standard HyTM" in the figures).
pub struct StdHytmRuntime {
    sim: Arc<HtmSim>,
    registry: Arc<ThreadRegistry>,
    config: StdHytmConfig,
}

impl StdHytmRuntime {
    /// Creates a runtime over its own fresh memory.
    pub fn new(mem_config: MemConfig, htm_config: HtmConfig, config: StdHytmConfig) -> Self {
        let max_threads = mem_config.max_threads;
        let mem = Arc::new(TmMemory::new(mem_config));
        let sim = HtmSim::new(mem, htm_config);
        StdHytmRuntime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// Creates a runtime over an existing simulator.
    pub fn with_sim(sim: Arc<HtmSim>, config: StdHytmConfig) -> Self {
        let max_threads = sim.mem().layout().config().max_threads;
        StdHytmRuntime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &Arc<HtmSim> {
        &self.sim
    }

    /// The configuration.
    pub fn config(&self) -> &StdHytmConfig {
        &self.config
    }
}

impl TmRuntime for StdHytmRuntime {
    type Thread = StdHytmThread;

    fn name(&self) -> &'static str {
        "Standard HyTM"
    }

    fn mem(&self) -> &Arc<TmMemory> {
        self.sim.mem()
    }

    fn register_thread(&self) -> StdHytmThread {
        let token = self.registry.register();
        let htm = HtmThread::new(Arc::clone(&self.sim), token.id() as u64);
        let tl2 = Tl2Engine::new(Arc::clone(&self.sim), token.id());
        let retry = RetryThread::new(
            &self.config.retry_policy,
            0x5354_4459_544d ^ (token.id() as u64 + 1) << 17,
        );
        StdHytmThread {
            sim: Arc::clone(&self.sim),
            htm,
            tl2,
            token,
            config: self.config.clone(),
            retry,
            stats: TxStats::new(false),
            on_hardware: true,
            next_ver: 0,
            in_txn: false,
        }
    }
}

/// Per-thread handle of the Standard-HyTM runtime.
pub struct StdHytmThread {
    sim: Arc<HtmSim>,
    htm: HtmThread,
    tl2: Tl2Engine,
    token: ThreadToken,
    config: StdHytmConfig,
    /// The retry policy with this thread's RNG and circuit.
    retry: RetryThread,
    stats: TxStats,
    /// Whether the attempt in progress runs on the hardware path.
    on_hardware: bool,
    /// Version the hardware path installs on written stripes.
    next_ver: u64,
    in_txn: bool,
}

impl StdHytmThread {
    fn hw_begin(&mut self) -> TxResult<()> {
        self.htm.begin();
        let clock_addr = self.sim.mem().clock().addr();
        self.next_ver = self.htm.read(clock_addr)? + 1;
        // Under the conventional incrementing clock scheme (ablation
        // baseline) the hardware transaction also advances the shared clock
        // speculatively, exactly like the RH1 fast-path does.  Every GV
        // scheme keeps the clock read-only here.
        if rhtm_htm::gv::htm_advances(&self.sim) {
            self.htm.write(clock_addr, self.next_ver)?;
        }
        Ok(())
    }

    #[inline]
    fn hw_read(&mut self, addr: Addr) -> TxResult<u64> {
        // The instrumentation the paper measures: a metadata load and a
        // conditional branch in front of every hardware read.
        let layout = self.sim.mem().layout();
        let ver_addr = layout.stripe_version_addr(layout.stripe_of(addr));
        let version = self.htm.read(ver_addr)?;
        if stamp::is_locked(version) {
            return Err(self.htm.abort(AbortCause::Locked));
        }
        self.htm.read(addr)
    }

    #[inline]
    fn hw_write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let layout = self.sim.mem().layout();
        let ver_addr = layout.stripe_version_addr(layout.stripe_of(addr));
        let current = self.htm.read(ver_addr)?;
        if stamp::is_locked(current) {
            return Err(self.htm.abort(AbortCause::Locked));
        }
        self.htm.write(ver_addr, stamp::encode_ts(self.next_ver))?;
        self.htm.write(addr, value)
    }
}

impl Txn for StdHytmThread {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = if self.on_hardware {
            self.hw_read(addr)
        } else {
            self.tl2.read(addr)
        };
        self.stats.record_read(sw.stop());
        result
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = if self.on_hardware {
            self.hw_write(addr, value)
        } else {
            self.tl2.write(addr, value)
        };
        self.stats.record_write(sw.stop());
        result
    }

    fn protected_instruction(&mut self) -> TxResult<()> {
        if self.on_hardware {
            Err(self.htm.abort(AbortCause::Unsupported))
        } else {
            Ok(())
        }
    }
}

impl TmThread for StdHytmThread {
    fn execute<R, F>(&mut self, mut body: F) -> R
    where
        F: FnMut(&mut Self) -> TxResult<R>,
    {
        assert!(!self.in_txn, "nested execute is not supported");
        self.in_txn = true;
        let backoff = Backoff::new();
        let hw_budget = self.config.hw_budget();
        let mut hw_failures = 0u32;
        let mut sw_failures = 0u32;
        let mut force_software = false;
        let result = loop {
            self.on_hardware = !force_software;
            let begun: TxResult<()> = if self.on_hardware {
                self.hw_begin()
            } else {
                self.tl2.start();
                Ok(())
            };
            let attempt: TxResult<R> = begun.and_then(|()| {
                body(self).and_then(|r| {
                    let sw = Stopwatch::start(self.stats.timing);
                    let committed = if self.on_hardware {
                        self.htm.commit()
                    } else {
                        self.tl2.commit()
                    };
                    self.stats.record_commit_time(sw.stop());
                    committed.map(|()| r)
                })
            });
            match attempt {
                Ok(r) => {
                    if self.on_hardware {
                        self.stats.htm_commits += 1;
                        self.stats.record_commit(PathKind::HardwareFast);
                    } else {
                        self.stats.record_commit(PathKind::Software);
                    }
                    self.retry
                        .on_commit(self.on_hardware, &mut self.stats.retry);
                    break r;
                }
                Err(abort) => {
                    self.stats.record_abort(abort.cause);
                    let (path, attempt, budget) = if self.on_hardware {
                        self.stats.htm_aborts += 1;
                        hw_failures += 1;
                        (PathClass::Hardware, hw_failures, hw_budget)
                    } else {
                        sw_failures += 1;
                        (PathClass::Software, sw_failures, u32::MAX)
                    };
                    let ctx = AttemptContext {
                        attempt,
                        path,
                        cause: abort.cause,
                        // The software fallback is the bottom tier; only
                        // hardware attempts can demote.
                        can_demote: self.on_hardware,
                        retry_budget: budget,
                        mix_percent: 100,
                        fallback_rh2: 0,
                        fallback_all_software: 0,
                    };
                    let decision = self.retry.decide(&ctx, &mut self.stats.retry);
                    if self.on_hardware {
                        // `hardware_only` is a contract: a contention
                        // demote from a budget-ignoring policy is dropped;
                        // only hardware limitations may fall back.
                        force_software = decision == RetryDecision::Demote
                            && (!self.config.hardware_only || abort.cause.is_hardware_limitation());
                    }
                    match decision {
                        RetryDecision::BackoffThen(spins) => retry::spin(spins),
                        _ => backoff.snooze(),
                    }
                }
            }
        };
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

    fn runtime(config: StdHytmConfig) -> StdHytmRuntime {
        StdHytmRuntime::new(
            MemConfig::with_data_words(8192),
            HtmConfig::default(),
            config,
        )
    }

    #[test]
    fn single_thread_counter() {
        let rt = runtime(StdHytmConfig::default());
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
        assert_eq!(th.stats().commits_on(PathKind::HardwareFast), 100);
    }

    #[test]
    fn concurrent_counter_is_exact_for_both_policies() {
        for config in [StdHytmConfig::default(), StdHytmConfig::hardware_only()] {
            let rt = Arc::new(runtime(config));
            let addr = rt.mem().alloc(1);
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let rt = Arc::clone(&rt);
                    std::thread::spawn(move || {
                        let mut th = rt.register_thread();
                        for _ in 0..3_000 {
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
            assert_eq!(rt.sim().nt_load(addr), 18_000);
        }
    }

    #[test]
    fn bank_transfer_mixing_hardware_and_software_paths() {
        // Force frequent software fallbacks with a tiny hardware retry
        // budget, exercising hardware/software concurrency.
        let rt = Arc::new(runtime(StdHytmConfig {
            hardware_only: false,
            hw_retries: 0,
            ..Default::default()
        }));
        let accounts: Vec<Addr> = (0..16).map(|_| rt.mem().alloc(1)).collect();
        for &a in &accounts {
            rt.sim().nt_store(a, 1_000);
        }
        let accounts = Arc::new(accounts);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let rt = Arc::clone(&rt);
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    let mut th = rt.register_thread();
                    for k in 0..4_000usize {
                        let from = accounts[(k * 3 + i) % accounts.len()];
                        let to = accounts[(k * 5 + 2 * i + 1) % accounts.len()];
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
                    th.stats().clone()
                })
            })
            .collect();
        let mut total_stats = TxStats::new(false);
        for h in handles {
            total_stats.merge(&h.join().unwrap());
        }
        let total: u64 = accounts.iter().map(|&a| rt.sim().nt_load(a)).sum();
        assert_eq!(total, 16_000);
        // With a zero hardware-retry budget and contention, some commits
        // must have taken the software path.
        assert!(total_stats.commits_on(PathKind::Software) > 0);
        assert!(total_stats.commits_on(PathKind::HardwareFast) > 0);
    }

    #[test]
    fn protected_instruction_falls_back_to_software() {
        let rt = runtime(StdHytmConfig::default());
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        let v = th.execute(|tx| {
            tx.protected_instruction()?;
            let v = tx.read(addr)?;
            tx.write(addr, v + 5)?;
            Ok(v + 5)
        });
        assert_eq!(v, 5);
        assert_eq!(th.stats().commits_on(PathKind::Software), 1);
    }

    #[test]
    fn hardware_reads_observe_software_locks() {
        // A stripe locked by a (simulated) software committer must abort the
        // instrumented hardware read.
        let rt = runtime(StdHytmConfig::hardware_only());
        let addr = rt.mem().alloc(1);
        let layout = rt.mem().layout();
        let ver_addr = layout.stripe_version_addr(layout.stripe_of(addr));
        rt.sim().nt_store(ver_addr, stamp::lock_word(13));
        let mut th = rt.register_thread();
        // Run the raw hardware path once: it must abort with `Locked`.
        th.on_hardware = true;
        th.hw_begin().unwrap();
        assert_eq!(th.hw_read(addr).unwrap_err().cause, AbortCause::Locked);
        // Release the lock so execute() can finish normally afterwards.
        rt.sim().nt_store(ver_addr, stamp::encode_ts(0));
        let v = th.execute(|tx| tx.read(addr));
        assert_eq!(v, 0);
    }

    #[test]
    fn runtime_name() {
        assert_eq!(runtime(StdHytmConfig::default()).name(), "Standard HyTM");
    }

    #[test]
    fn hardware_only_ignores_contention_demotes_from_any_policy() {
        // `adaptive` demotes after 2 failures regardless of budget; the
        // hardware_only contract must override it for anything short of a
        // hardware limitation.
        for policy in RetryPolicyHandle::builtin() {
            let rt = StdHytmRuntime::new(
                MemConfig::with_data_words(8192),
                HtmConfig::default()
                    .with_spurious_abort_rate(0.5)
                    .with_seed(9),
                StdHytmConfig::hardware_only().with_retry_policy(policy.clone()),
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
            assert_eq!(
                th.stats().commits_on(PathKind::HardwareFast),
                100,
                "{}: hardware_only must stay in hardware",
                policy.label()
            );
            assert_eq!(
                th.stats().commits_on(PathKind::Software),
                0,
                "{}",
                policy.label()
            );
            // The escape hatch stays open: a protected instruction (a
            // hardware limitation) still reaches the software path.
            let v = th.execute(|tx| {
                tx.protected_instruction()?;
                tx.read(addr)
            });
            assert_eq!(v, 100);
            assert_eq!(
                th.stats().commits_on(PathKind::Software),
                1,
                "{}",
                policy.label()
            );
        }
    }

    #[test]
    fn retry_policy_threads_through_the_config() {
        let config = StdHytmConfig::default().with_retry_policy(RetryPolicyHandle::aggressive());
        assert_eq!(config.retry_policy.label(), "aggressive");
        // An aggressive policy never demotes on contention, so a
        // zero-budget config still commits everything in hardware.
        let rt = runtime(StdHytmConfig {
            hw_retries: 0,
            ..config
        });
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        for _ in 0..50 {
            th.execute(|tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
        assert_eq!(th.stats().commits_on(PathKind::HardwareFast), 50);
        assert_eq!(th.stats().commits_on(PathKind::Software), 0);
    }
}
