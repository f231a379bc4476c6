//! The pure-HTM runtime: uninstrumented hardware transactions, retried in
//! hardware forever.
//!
//! This is the "HTM" series of every figure in the paper: the best
//! performance hardware transactions can achieve, with no metadata accesses
//! at all.  It provides no software fallback, so it is only suitable for
//! workloads whose transactions fit the hardware capacity — exactly the
//! caveat the paper attaches to it.

use std::sync::Arc;

use rhtm_api::Backoff;

use rhtm_api::{
    retry, Abort, AbortCause, AttemptContext, PathClass, PathKind, RetryDecision,
    RetryPolicyHandle, RetryThread, Stopwatch, TmRuntime, TmThread, TxResult, TxStats, Txn,
};
use rhtm_mem::{Addr, ThreadRegistry, ThreadToken, TmMemory};

use crate::config::HtmConfig;
use crate::sim::HtmSim;
use crate::txn::HtmThread;

/// Policy of the pure-HTM *runtime* (as opposed to [`HtmConfig`], which
/// parameterises the simulated hardware itself).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HtmRuntimeConfig {
    /// The contention-management policy consulted after every abort.  The
    /// runtime has no software fallback, so demotion decisions are clamped
    /// to hardware retries; the policy still controls retry pacing (e.g.
    /// the `capped-exp` jittered backoff).
    pub retry_policy: RetryPolicyHandle,
}

impl HtmRuntimeConfig {
    /// Returns the configuration with a different retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicyHandle) -> Self {
        self.retry_policy = policy;
        self
    }
}

/// The pure hardware-TM runtime ("HTM" in the paper's figures).
pub struct HtmRuntime {
    sim: Arc<HtmSim>,
    registry: Arc<ThreadRegistry>,
    config: HtmRuntimeConfig,
}

impl HtmRuntime {
    /// Creates a pure-HTM runtime over its own fresh memory.
    pub fn new(mem_config: rhtm_mem::MemConfig, htm_config: HtmConfig) -> Self {
        Self::with_config(mem_config, htm_config, HtmRuntimeConfig::default())
    }

    /// Creates a pure-HTM runtime over its own fresh memory with an
    /// explicit runtime configuration.
    pub fn with_config(
        mem_config: rhtm_mem::MemConfig,
        htm_config: HtmConfig,
        config: HtmRuntimeConfig,
    ) -> Self {
        let max_threads = mem_config.max_threads;
        let mem = Arc::new(TmMemory::new(mem_config));
        let sim = HtmSim::new(mem, htm_config);
        HtmRuntime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// Creates a pure-HTM runtime over an existing simulator (sharing memory
    /// with other runtimes, e.g. in tests).
    pub fn with_sim(sim: Arc<HtmSim>) -> Self {
        Self::with_sim_config(sim, HtmRuntimeConfig::default())
    }

    /// [`HtmRuntime::with_sim`] with an explicit runtime configuration.
    pub fn with_sim_config(sim: Arc<HtmSim>, config: HtmRuntimeConfig) -> Self {
        let max_threads = sim.mem().layout().config().max_threads;
        HtmRuntime {
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
    pub fn config(&self) -> &HtmRuntimeConfig {
        &self.config
    }
}

impl TmRuntime for HtmRuntime {
    type Thread = HtmRuntimeThread;

    fn name(&self) -> &'static str {
        "HTM"
    }

    fn mem(&self) -> &Arc<TmMemory> {
        self.sim.mem()
    }

    fn register_thread(&self) -> HtmRuntimeThread {
        let token = self.registry.register();
        let htm = HtmThread::new(Arc::clone(&self.sim), token.id() as u64);
        let retry = RetryThread::new(
            &self.config.retry_policy,
            0x4854_4d52 ^ (token.id() as u64 + 1) << 21,
        );
        HtmRuntimeThread {
            htm,
            token,
            retry,
            stats: TxStats::new(false),
            in_txn: false,
        }
    }
}

/// Per-thread handle of the pure-HTM runtime.
pub struct HtmRuntimeThread {
    htm: HtmThread,
    token: ThreadToken,
    /// The retry policy with this thread's RNG and circuit.
    retry: RetryThread,
    stats: TxStats,
    in_txn: bool,
}

impl HtmRuntimeThread {
    /// Read access to the underlying hardware transaction unit (used by
    /// tests and the capacity ablation benchmark).
    pub fn htm(&self) -> &HtmThread {
        &self.htm
    }
}

impl Txn for HtmRuntimeThread {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = self.htm.read(addr);
        self.stats.record_read(sw.stop());
        result
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = self.htm.write(addr, value);
        self.stats.record_write(sw.stop());
        result
    }

    fn protected_instruction(&mut self) -> TxResult<()> {
        self.htm.protected_instruction()
    }
}

impl TmThread for HtmRuntimeThread {
    fn execute<R, F>(&mut self, mut body: F) -> R
    where
        F: FnMut(&mut Self) -> TxResult<R>,
    {
        assert!(!self.in_txn, "nested execute is not supported");
        self.in_txn = true;
        let backoff = Backoff::new();
        let mut failures = 0u32;
        let result = loop {
            self.htm.begin();
            let outcome: TxResult<R> = body(self).and_then(|r| {
                let sw = Stopwatch::start(self.stats.timing);
                let committed = self.commit_open_txn();
                self.stats.record_commit_time(sw.stop());
                committed.map(|()| r)
            });
            match outcome {
                Ok(r) => {
                    self.stats.htm_commits += 1;
                    self.stats.record_commit(PathKind::HardwareFast);
                    self.retry.on_commit(true, &mut self.stats.retry);
                    break r;
                }
                Err(abort) => {
                    failures += 1;
                    self.handle_abort(abort);
                    let ctx = AttemptContext {
                        attempt: failures,
                        path: PathClass::Hardware,
                        cause: abort.cause,
                        // No software fallback exists: the clamp keeps any
                        // Demote decision retrying in hardware.
                        can_demote: false,
                        retry_budget: u32::MAX,
                        mix_percent: 0,
                        fallback_rh2: 0,
                        fallback_all_software: 0,
                    };
                    match self.retry.decide(&ctx, &mut self.stats.retry) {
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

impl HtmRuntimeThread {
    fn commit_open_txn(&mut self) -> TxResult<()> {
        // The body may have aborted the hardware transaction explicitly (in
        // which case it already returned Err and we never get here), so the
        // transaction is necessarily still open.
        self.htm.commit()
    }

    fn handle_abort(&mut self, abort: Abort) {
        self.stats.htm_aborts += 1;
        self.stats.record_abort(abort.cause);
        if abort.cause == AbortCause::Unsupported {
            panic!(
                "the pure HTM runtime cannot execute protected instructions; \
                 use a hybrid runtime (RH1/RH2/Standard HyTM) that provides a software path"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhtm_mem::MemConfig;

    fn runtime() -> HtmRuntime {
        HtmRuntime::new(MemConfig::with_data_words(4096), HtmConfig::default())
    }

    #[test]
    fn single_thread_counter() {
        let rt = runtime();
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
        assert_eq!(th.stats().commits(), 100);
        assert_eq!(th.stats().commits_on(PathKind::HardwareFast), 100);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let rt = Arc::new(runtime());
        let addr = rt.mem().alloc(1);
        let threads = 8;
        let per = 5_000;
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
                    th.stats().clone()
                })
            })
            .collect();
        let mut total = TxStats::new(false);
        for h in handles {
            total.merge(&h.join().unwrap());
        }
        assert_eq!(rt.sim().nt_load(addr), (threads * per) as u64);
        assert_eq!(total.commits(), (threads * per) as u64);
    }

    #[test]
    fn bank_transfer_preserves_total_balance() {
        let rt = Arc::new(runtime());
        let accounts: Vec<Addr> = (0..16).map(|_| rt.mem().alloc(1)).collect();
        for &a in &accounts {
            rt.sim().nt_store(a, 1_000);
        }
        let accounts = Arc::new(accounts);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let rt = Arc::clone(&rt);
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    let mut th = rt.register_thread();
                    for k in 0..10_000usize {
                        let from = accounts[(k * 7 + i) % accounts.len()];
                        let to = accounts[(k * 13 + i * 3 + 1) % accounts.len()];
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
        assert_eq!(total, 16 * 1_000);
    }

    #[test]
    #[should_panic(expected = "protected instructions")]
    fn protected_instruction_panics_in_pure_htm() {
        let rt = runtime();
        let mut th = rt.register_thread();
        th.execute(|tx| {
            tx.protected_instruction()?;
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "nested")]
    fn nested_execute_panics() {
        let rt = runtime();
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        th.execute(|tx| {
            let _ = tx.read(addr)?;
            let inner: u64 = tx.execute(|_| Ok(1u64));
            Ok(inner)
        });
    }

    #[test]
    fn runtime_name_and_memory_accessors() {
        let rt = runtime();
        assert_eq!(rt.name(), "HTM");
        assert!(rt.mem().layout().data_words() >= 4096);
        let th = rt.register_thread();
        assert!(th.htm().commit_count() == 0);
    }
}
