//! Configuration of the reduced-hardware runtime.

use rhtm_api::RetryPolicyHandle;
use rhtm_mem::ClockScheme;

/// Which protocol family a fresh transaction starts in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolMode {
    /// Start on the RH1 fast-path and use the full cascade
    /// (RH1 fast → RH1 mixed slow → RH2 commit → all-software).  This is the
    /// paper's main configuration.
    Rh1,
    /// Run the RH2 protocol stand-alone: RH2 fast-path with an RH2 slow-path
    /// (lock + visible-read-set commit).  The paper uses RH2 only as RH1's
    /// fallback, but the protocol is complete on its own and this mode is
    /// used by tests and the fallback ablation.
    Rh2,
}

/// Tunable policy of the [`crate::RhRuntime`].
#[derive(Clone, Debug, PartialEq)]
pub struct RhConfig {
    /// Protocol family to start transactions in.
    pub mode: ProtocolMode,
    /// The paper's "Mix" parameter: the percentage (0–100) of
    /// contention-aborted fast-path transactions that are retried on the
    /// mixed slow-path instead of in hardware.  `0` reproduces "RH1 Fast",
    /// `10` and `100` reproduce "RH1 Mixed 10" / "RH1 Mixed 100".
    ///
    /// Aborts caused by hardware limitations (capacity overflow, protected
    /// instructions) always fall back to the slow-path regardless of this
    /// percentage — retrying them in hardware could never succeed.
    ///
    /// The percentage reaches the decision through
    /// [`rhtm_api::AttemptContext::mix_percent`]; how it is interpreted is
    /// up to [`RhConfig::retry_policy`] (the default `paper-default`
    /// policy's [`GiveUp::Paper`] rule applies it exactly as described
    /// above).
    ///
    /// [`GiveUp::Paper`]: rhtm_api::GiveUp::Paper
    pub slow_path_percent: u8,
    /// Retry budget of the RH1 slow-path commit-time hardware transaction:
    /// the maximum number of *extra* attempts after its first contention
    /// failure (so `N` allows `N + 1` attempts in total) before the whole
    /// transaction restarts.
    pub commit_htm_retries: u32,
    /// Retry budget of the RH2 commit-time write-back hardware transaction:
    /// the maximum number of *extra* attempts after its first contention
    /// failure (so `N` allows `N + 1` attempts in total) before switching
    /// to the all-software write-back.
    pub writeback_htm_retries: u32,
    /// The contention-management policy consulted after every abort: it
    /// decides when an attempt gives up on its current path (fast-path →
    /// slow-path, commit/write-back HTM → next fallback) and how retries
    /// are paced.  The default, `paper-default`, reproduces the paper's
    /// hardcoded thresholds exactly — the budgets above and
    /// `slow_path_percent` are carried into each decision's
    /// [`rhtm_api::AttemptContext`].
    pub retry_policy: RetryPolicyHandle,
    /// Run every transaction on the mixed slow-path (no fast-path attempts).
    /// This is the "RH1 Slow" row of the paper's single-thread breakdown
    /// table; it is never the right choice for production use.
    pub always_slow: bool,
    /// Global-clock advancement scheme override (see [`ClockScheme`]).
    ///
    /// `Some(scheme)` makes [`crate::RhRuntime::new`] build its memory with
    /// that scheme, overriding `mem_config.clock_scheme`; `None` (the
    /// default) defers to the [`rhtm_mem::MemConfig`].  When sharing an
    /// existing simulator ([`crate::RhRuntime::with_sim`]) the memory's
    /// configured scheme always wins, since the clock is a property of the
    /// shared heap.
    pub clock_scheme: Option<ClockScheme>,
    /// Seed for the per-thread slow-path-admission RNG (reproducibility).
    pub seed: u64,
}

impl Default for RhConfig {
    fn default() -> Self {
        RhConfig {
            mode: ProtocolMode::Rh1,
            slow_path_percent: 100,
            commit_htm_retries: 8,
            writeback_htm_retries: 8,
            retry_policy: RetryPolicyHandle::paper_default(),
            always_slow: false,
            clock_scheme: None,
            seed: 0x5248_544d_5345_4544,
        }
    }
}

impl RhConfig {
    /// "RH1 Fast": every abort is retried in hardware (except hardware
    /// limitations, which have no choice but the slow-path).
    pub fn rh1_fast() -> Self {
        RhConfig {
            slow_path_percent: 0,
            ..Default::default()
        }
    }

    /// "RH1 Mixed N": `percent`% of contention-aborted fast-path
    /// transactions retry on the mixed slow-path.
    pub fn rh1_mixed(percent: u8) -> Self {
        assert!(percent <= 100, "slow-path percentage must be 0..=100");
        RhConfig {
            slow_path_percent: percent,
            ..Default::default()
        }
    }

    /// "RH1 Slow": every transaction runs on the mixed slow-path (software
    /// body, hardware commit).  Used by the single-thread breakdown table.
    pub fn rh1_slow() -> Self {
        RhConfig {
            always_slow: true,
            ..Default::default()
        }
    }

    /// Stand-alone RH2.
    pub fn rh2() -> Self {
        RhConfig {
            mode: ProtocolMode::Rh2,
            slow_path_percent: 100,
            ..Default::default()
        }
    }

    /// Returns the configuration with a different RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the configuration with a global-clock scheme override.
    pub fn with_clock_scheme(mut self, scheme: ClockScheme) -> Self {
        self.clock_scheme = Some(scheme);
        self
    }

    /// Returns the configuration with a different retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicyHandle) -> Self {
        self.retry_policy = policy;
        self
    }

    /// The display name the paper uses for this configuration.
    pub fn display_name(&self) -> &'static str {
        if self.always_slow {
            return "RH1 Slow";
        }
        match (self.mode, self.slow_path_percent) {
            (ProtocolMode::Rh2, _) => "RH2",
            (ProtocolMode::Rh1, 0) => "RH1 Fast",
            (ProtocolMode::Rh1, 10) => "RH1 Mixed 10",
            (ProtocolMode::Rh1, 100) => "RH1 Mixed 100",
            (ProtocolMode::Rh1, _) => "RH1 Mixed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_variants() {
        assert_eq!(RhConfig::rh1_fast().display_name(), "RH1 Fast");
        assert_eq!(RhConfig::rh1_fast().slow_path_percent, 0);
        assert_eq!(RhConfig::rh1_mixed(10).display_name(), "RH1 Mixed 10");
        assert_eq!(RhConfig::rh1_mixed(100).display_name(), "RH1 Mixed 100");
        assert_eq!(RhConfig::rh1_mixed(37).display_name(), "RH1 Mixed");
        assert_eq!(RhConfig::rh2().display_name(), "RH2");
        assert_eq!(RhConfig::rh2().mode, ProtocolMode::Rh2);
        assert_eq!(RhConfig::rh1_slow().display_name(), "RH1 Slow");
        assert!(RhConfig::rh1_slow().always_slow);
    }

    #[test]
    #[should_panic(expected = "0..=100")]
    fn mixed_percentage_is_validated() {
        let _ = RhConfig::rh1_mixed(101);
    }

    #[test]
    fn default_is_full_cascade() {
        let c = RhConfig::default();
        assert_eq!(c.mode, ProtocolMode::Rh1);
        assert_eq!(c.slow_path_percent, 100);
        assert!(c.commit_htm_retries > 0);
        assert!(c.writeback_htm_retries > 0);
    }

    #[test]
    fn seed_builder() {
        let c = RhConfig::rh1_fast().with_seed(99);
        assert_eq!(c.seed, 99);
        assert_eq!(c.slow_path_percent, 0);
    }

    #[test]
    fn clock_scheme_builder_and_default() {
        assert_eq!(RhConfig::default().clock_scheme, None);
        let c = RhConfig::rh2().with_clock_scheme(ClockScheme::Gv6);
        assert_eq!(c.clock_scheme, Some(ClockScheme::Gv6));
        assert_eq!(c.mode, ProtocolMode::Rh2);
    }

    #[test]
    fn retry_policy_builder_and_default() {
        assert_eq!(RhConfig::default().retry_policy.label(), "paper-default");
        let c = RhConfig::rh1_mixed(100).with_retry_policy(RetryPolicyHandle::adaptive());
        assert_eq!(c.retry_policy.label(), "adaptive");
        assert_eq!(c.slow_path_percent, 100);
    }
}
