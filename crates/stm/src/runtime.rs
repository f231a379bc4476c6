//! The TL2 STM runtime: the paper's software baseline.

use std::sync::Arc;

use rhtm_api::Backoff;

use rhtm_api::{
    retry, AbortCause, AttemptContext, PathClass, PathKind, RetryDecision, RetryPolicyHandle,
    RetryThread, Stopwatch, TmRuntime, TmThread, TxResult, TxStats, Txn,
};
use rhtm_htm::{HtmConfig, HtmSim};
use rhtm_mem::{Addr, MemConfig, ThreadRegistry, ThreadToken, TmMemory};

use crate::tl2::Tl2Engine;

/// Policy of the TL2 runtime.
///
/// TL2 is the bottom of every fallback cascade, so there is nowhere to
/// demote to: the retry policy only controls how aborted attempts are
/// paced (e.g. the `capped-exp` jittered backoff).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tl2Config {
    /// The contention-management policy consulted after every abort.
    pub retry_policy: RetryPolicyHandle,
}

impl Tl2Config {
    /// Returns the configuration with a different retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicyHandle) -> Self {
        self.retry_policy = policy;
        self
    }
}

/// The TL2 software transactional memory runtime ("TL2" in the figures).
pub struct Tl2Runtime {
    sim: Arc<HtmSim>,
    registry: Arc<ThreadRegistry>,
    config: Tl2Config,
}

impl Tl2Runtime {
    /// Creates a TL2 runtime over its own fresh memory.
    pub fn new(mem_config: MemConfig) -> Self {
        Self::with_config(mem_config, Tl2Config::default())
    }

    /// Creates a TL2 runtime over its own fresh memory with an explicit
    /// runtime configuration.
    pub fn with_config(mem_config: MemConfig, config: Tl2Config) -> Self {
        let max_threads = mem_config.max_threads;
        let mem = Arc::new(TmMemory::new(mem_config));
        let sim = HtmSim::new(mem, HtmConfig::default());
        Tl2Runtime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// Creates a TL2 runtime over an existing simulator (shared memory).
    pub fn with_sim(sim: Arc<HtmSim>) -> Self {
        Self::with_sim_config(sim, Tl2Config::default())
    }

    /// [`Tl2Runtime::with_sim`] with an explicit runtime configuration.
    pub fn with_sim_config(sim: Arc<HtmSim>, config: Tl2Config) -> Self {
        let max_threads = sim.mem().layout().config().max_threads;
        Tl2Runtime {
            sim,
            registry: ThreadRegistry::new(max_threads),
            config,
        }
    }

    /// The underlying simulator (shared with any co-resident runtimes).
    pub fn sim(&self) -> &Arc<HtmSim> {
        &self.sim
    }

    /// The runtime configuration.
    pub fn config(&self) -> &Tl2Config {
        &self.config
    }
}

impl TmRuntime for Tl2Runtime {
    type Thread = Tl2Thread;

    fn name(&self) -> &'static str {
        "TL2"
    }

    fn mem(&self) -> &Arc<TmMemory> {
        self.sim.mem()
    }

    fn register_thread(&self) -> Tl2Thread {
        let token = self.registry.register();
        let engine = Tl2Engine::new(Arc::clone(&self.sim), token.id());
        let retry = RetryThread::new(
            &self.config.retry_policy,
            0x544c_3252 ^ (token.id() as u64 + 1) << 19,
        );
        Tl2Thread {
            engine,
            token,
            retry,
            stats: TxStats::new(false),
            in_txn: false,
        }
    }
}

/// Per-thread handle of the TL2 runtime.
pub struct Tl2Thread {
    engine: Tl2Engine,
    token: ThreadToken,
    /// The retry policy with this thread's RNG and circuit.
    retry: RetryThread,
    stats: TxStats,
    in_txn: bool,
}

impl Tl2Thread {
    /// Read access to the underlying engine (tests, diagnostics).
    pub fn engine(&self) -> &Tl2Engine {
        &self.engine
    }
}

impl Txn for Tl2Thread {
    #[inline]
    fn read(&mut self, addr: Addr) -> TxResult<u64> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = self.engine.read(addr);
        self.stats.record_read(sw.stop());
        result
    }

    #[inline]
    fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let sw = Stopwatch::start(self.stats.timing);
        let result = self.engine.write(addr, value);
        self.stats.record_write(sw.stop());
        result
    }

    fn protected_instruction(&mut self) -> TxResult<()> {
        // A software transaction can execute anything before its commit
        // point.
        Ok(())
    }
}

impl TmThread for Tl2Thread {
    fn execute<R, F>(&mut self, mut body: F) -> R
    where
        F: FnMut(&mut Self) -> TxResult<R>,
    {
        assert!(!self.in_txn, "nested execute is not supported");
        self.in_txn = true;
        let backoff = Backoff::new();
        let mut failures = 0u32;
        let result = loop {
            self.engine.start();
            let outcome: TxResult<R> = body(self).and_then(|r| {
                let sw = Stopwatch::start(self.stats.timing);
                let committed = self.engine.commit();
                self.stats.record_commit_time(sw.stop());
                committed.map(|()| r)
            });
            match outcome {
                Ok(r) => {
                    self.stats.record_commit(PathKind::Software);
                    self.retry.on_commit(false, &mut self.stats.retry);
                    break r;
                }
                Err(abort) => {
                    self.stats.record_abort(abort.cause);
                    failures += 1;
                    // The engine rolled itself back when it raised the
                    // abort; an abort raised by user code (e.g. an explicit
                    // retry) leaves it active, which `start` discards.
                    let ctx = AttemptContext {
                        attempt: failures,
                        path: PathClass::Software,
                        cause: abort.cause,
                        // TL2 is the bottom tier: the clamp keeps any
                        // Demote decision retrying in software.
                        can_demote: false,
                        retry_budget: u32::MAX,
                        mix_percent: 0,
                        fallback_rh2: 0,
                        fallback_all_software: 0,
                    };
                    match self.retry.decide(&ctx, &mut self.stats.retry) {
                        RetryDecision::BackoffThen(spins) => retry::spin(spins),
                        _ => {
                            if abort.cause == AbortCause::Explicit {
                                // Explicit user aborts back off a little
                                // harder to avoid spinning on a condition
                                // that has not changed.
                                backoff.snooze();
                            }
                            backoff.snooze();
                        }
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

    fn runtime() -> Tl2Runtime {
        Tl2Runtime::new(MemConfig::with_data_words(4096))
    }

    #[test]
    fn single_thread_counter() {
        let rt = runtime();
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_thread();
        for _ in 0..50 {
            th.execute(|tx| {
                let v = tx.read(addr)?;
                tx.write(addr, v + 1)?;
                Ok(())
            });
        }
        assert_eq!(rt.sim().nt_load(addr), 50);
        assert_eq!(th.stats().commits_on(PathKind::Software), 50);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let rt = Arc::new(runtime());
        let addr = rt.mem().alloc(1);
        let threads = 8;
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
        assert_eq!(rt.sim().nt_load(addr), (threads * per) as u64);
    }

    #[test]
    fn disjoint_transactions_do_not_abort_each_other() {
        let rt = Arc::new(runtime());
        // Allocate well-separated words so they land on distinct stripes.
        let addrs: Vec<Addr> = (0..4).map(|_| rt.mem().alloc(64)).collect();
        let handles: Vec<_> = addrs
            .iter()
            .map(|&addr| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    let mut th = rt.register_thread();
                    for _ in 0..2_000 {
                        th.execute(|tx| {
                            let v = tx.read(addr)?;
                            tx.write(addr, v + 1)?;
                            Ok(())
                        });
                    }
                    th.stats().aborts()
                })
            })
            .collect();
        let total_aborts: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        for &addr in &addrs {
            assert_eq!(rt.sim().nt_load(addr), 2_000);
        }
        assert_eq!(total_aborts, 0, "disjoint stripes must not conflict");
    }

    #[test]
    fn bank_transfer_preserves_total_balance() {
        let rt = Arc::new(runtime());
        let accounts: Vec<Addr> = (0..32).map(|_| rt.mem().alloc(1)).collect();
        for &a in &accounts {
            rt.sim().nt_store(a, 100);
        }
        let accounts = Arc::new(accounts);
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let rt = Arc::clone(&rt);
                let accounts = Arc::clone(&accounts);
                std::thread::spawn(move || {
                    let mut th = rt.register_thread();
                    for k in 0..5_000usize {
                        let from = accounts[(k * 5 + i) % accounts.len()];
                        let to = accounts[(k * 11 + 3 * i + 1) % accounts.len()];
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
        assert_eq!(total, 3200);
    }

    #[test]
    fn protected_instructions_are_allowed_in_software() {
        let rt = runtime();
        let mut th = rt.register_thread();
        let ok = th.execute(|tx| {
            tx.protected_instruction()?;
            Ok(true)
        });
        assert!(ok);
    }

    #[test]
    fn runtime_metadata() {
        let rt = runtime();
        assert_eq!(rt.name(), "TL2");
        let th = rt.register_thread();
        assert!(!th.engine().is_active());
    }
}
