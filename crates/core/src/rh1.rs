//! The RH1 protocol (Algorithms 1–3 of the paper).
//!
//! * **Fast-path** — an all-hardware transaction.  Reads are completely
//!   uninstrumented.  Each write additionally stores the transaction's
//!   `next_ver` (sampled speculatively from the global clock at start) into the
//!   written location's stripe version.  The fast-path also monitors the
//!   `is_RH2_fallback` counter speculatively so that a slow-path transaction
//!   entering the RH2 fallback immediately aborts every incompatible
//!   fast-path transaction (Algorithm 3).
//!
//! * **Mixed slow-path** — the transaction body runs entirely in software,
//!   collecting a read-set (stripes) and a deferred write-set, with
//!   TL2-style per-read consistency checks against `tx_version`.  The commit
//!   is a *single hardware transaction* that revalidates the read-set's
//!   stripe versions, samples `GVNext()` and performs the write-back
//!   together with the version installs.  There are no locks — the
//!   atomicity of the commit-time hardware transaction replaces them, which
//!   is what makes the slow-path obstruction-free.
//!
//! The correctness argument for the non-advancing speculative clock read
//! (every [`rhtm_mem::ClockScheme`] except the incrementing baseline) rests on the
//! commit-time hardware transaction having the clock *in its read-set*: if
//! the clock advances (which only abort paths do, with a conflict-visible
//! store), every in-flight fast-path or slow-path commit aborts, so every
//! *committed* transaction installed a version strictly greater than any
//! `tx_version` sampled before its commit.

use rhtm_api::{retry, Abort, AbortCause, PathKind, RetryDecision, TxResult};
use rhtm_htm::gv;
use rhtm_mem::{stamp, Addr};

use crate::runtime::RhThread;

impl RhThread {
    // ------------------------------------------------------------------
    // RH1 fast-path (Algorithm 1, with the Algorithm 3 fallback monitor)
    // ------------------------------------------------------------------

    /// `RH1_FastPath_start`: open the hardware transaction, monitor the
    /// fallback counter speculatively and sample `GVNext()`.
    pub(crate) fn rh1_fast_begin(&mut self) -> TxResult<()> {
        self.htm.begin();
        // Speculative monitor: a concurrent `is_RH2_fallback` increment must
        // abort us for the duration of the transaction.
        let fallback = self.htm.read(self.fallback.rh2_fallback_addr())?;
        if fallback > 0 {
            return Err(self.htm.abort(AbortCause::Explicit));
        }
        // GVNext() under the GV schemes: read the clock speculatively, use
        // clock + 1, do not write it.  The speculative read is also what
        // guarantees the clock cannot advance under our feet without
        // aborting us.
        let clock_addr = self.sim.mem().clock().addr();
        self.next_ver = self.htm.read(clock_addr)? + 1;
        // Under the conventional incrementing clock (the ablation baseline),
        // the committing transaction must also advance the shared clock —
        // speculatively, so it happens atomically with the commit.  This is
        // precisely the extra clock-line write every GV scheme avoids.
        if gv::htm_advances(&self.sim) {
            self.htm.write(clock_addr, self.next_ver)?;
        }
        Ok(())
    }

    /// `RH1_FastPath_write`: update the stripe version, then store the
    /// value (both speculatively; the order matters for slow-path readers).
    #[inline]
    pub(crate) fn rh1_fast_write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        let layout = self.sim.mem().layout();
        let stripe = layout.stripe_of(addr);
        let ver_addr = layout.stripe_version_addr(stripe);
        let new_word = stamp::encode_ts(self.next_ver);
        self.htm.write(ver_addr, new_word)?;
        self.htm.write(addr, value)
    }

    // ------------------------------------------------------------------
    // Mixed slow-path body (Algorithm 2): shared with the RH2 slow-path
    // ------------------------------------------------------------------

    /// `RH1_SlowPath_start` / `RH2_SlowPath_start`.
    pub(crate) fn slow_begin(&mut self) {
        self.tx_version = gv::read(&self.sim);
        self.read_set.clear();
        self.read_marks.clear();
        self.last_read_stripe = u64::MAX;
        self.write_set.clear();
        self.locked.clear();
        self.visible.clear();
    }

    /// `RH1_SlowPath_write` / `RH2_SlowPath_write`: defer to the write-set.
    #[inline]
    pub(crate) fn slow_write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        self.write_set.insert(addr, value);
        Ok(())
    }

    /// `RH1_SlowPath_read` / `RH2_SlowPath_read`: read-own-writes, then a
    /// direct memory read bracketed by stripe-version consistency checks.
    #[inline]
    pub(crate) fn slow_read(&mut self, addr: Addr) -> TxResult<u64> {
        if let Some(v) = self.write_set.get(addr) {
            return Ok(v);
        }
        let (stripe, ver_addr) = {
            let layout = self.sim.mem().layout();
            let stripe = layout.stripe_of(addr);
            (stripe, layout.stripe_version_addr(stripe))
        };
        // The simulator's publication-aware bracket makes a hardware commit
        // in flight appear atomic, as it would on real hardware.
        let value = match self.sim.stripe_read(ver_addr, addr, self.tx_version) {
            Ok(value) => value,
            Err((cause, observed)) => return Err(self.slow_abort(cause, observed)),
        };
        // Record the stripe once per attempt: commit-time revalidation is
        // idempotent, so duplicates only inflate the validation loop (and,
        // for RH1, the commit-time hardware transaction's read footprint
        // stays unchanged — duplicate stripes share their version line).
        // The one-entry cache short-circuits the same-stripe streaks scans
        // produce before the filter probe.
        let key = stripe.0 as u64;
        if key != self.last_read_stripe {
            self.last_read_stripe = key;
            if self.read_marks.test_and_set(stripe.0) {
                self.read_set.push(stripe);
            }
        }
        Ok(value)
    }

    /// Aborts the software attempt: bump the global clock past the offending
    /// version so the retry starts from a fresh time-stamp.
    pub(crate) fn slow_abort(&mut self, cause: AbortCause, observed: u64) -> Abort {
        gv::on_abort(&self.sim, observed);
        Abort::new(cause)
    }

    // ------------------------------------------------------------------
    // RH1 slow-path commit (Algorithm 2 lines 25–50, Algorithm 3)
    // ------------------------------------------------------------------

    /// `RH1_SlowPath_commit`: read-only transactions commit immediately;
    /// writers run the single commit-time hardware transaction, retrying it
    /// on contention and falling back to the RH2 commit on a hardware
    /// limitation.
    pub(crate) fn rh1_slow_commit(&mut self) -> TxResult<PathKind> {
        if self.write_set.is_empty() {
            return Ok(PathKind::MixedSlow);
        }
        // The forced-abort-ratio knob models fast-path aborts; the
        // commit-time hardware transaction is not subject to it.
        self.htm.set_forced_abort_injection(false);
        let budget = self.config.commit_htm_retries;
        let mut failures = 0u32;
        let result = loop {
            match self.rh1_slow_commit_attempt() {
                Ok(()) => {
                    self.stats.htm_commits += 1;
                    break Ok(PathKind::MixedSlow);
                }
                Err(abort) => {
                    self.stats.htm_aborts += 1;
                    // A stale transaction cannot be saved by the policy:
                    // restart the whole transaction (the caller's retry
                    // loop re-executes the body).
                    if matches!(abort.cause, AbortCause::Validation | AbortCause::Locked) {
                        break Err(abort);
                    }
                    failures += 1;
                    match self.decide_commit_retry(failures, abort.cause, budget) {
                        RetryDecision::RetryHere => std::hint::spin_loop(),
                        RetryDecision::BackoffThen(spins) => retry::spin(spins),
                        RetryDecision::Demote => {
                            if abort.cause.is_hardware_limitation() {
                                // This commit can never succeed in hardware
                                // — enter the RH2 fallback (Algorithm 3
                                // lines 35–39).  The region guard releases
                                // the counter on every exit path.
                                let region = self.fallback.rh2_fallback_region(&self.sim);
                                let r = self.rh2_slow_commit();
                                drop(region);
                                break r;
                            }
                            // Contention budget spent: restart the whole
                            // transaction with a fresh snapshot.
                            break Err(abort);
                        }
                    }
                }
            }
        };
        self.htm.set_forced_abort_injection(true);
        result
    }

    /// One attempt of the commit-time hardware transaction: revalidate the
    /// read-set, sample `GVNext()`, write back with version installs.
    fn rh1_slow_commit_attempt(&mut self) -> TxResult<()> {
        self.htm.begin();
        let layout = self.sim.mem().layout();

        // Read-set revalidation (speculative reads of the stripe versions).
        for i in 0..self.read_set.len() {
            let stripe = self.read_set[i];
            let word = self.htm.read(layout.stripe_version_addr(stripe))?;
            if stamp::is_locked(word) {
                return Err(self.htm.abort(AbortCause::Locked));
            }
            if stamp::decode_ts(word) > self.tx_version {
                let abort = self.htm.abort(AbortCause::Validation);
                gv::on_abort(&self.sim, stamp::decode_ts(word));
                return Err(abort);
            }
        }

        // GVNext() inside the hardware transaction: the clock joins the
        // read-set, so any concurrent clock advance aborts this commit.
        let clock_addr = self.sim.mem().clock().addr();
        let next_ver = self.htm.read(clock_addr)? + 1;
        if gv::htm_advances(&self.sim) {
            // Conventional clock: advance it as part of the commit.
            self.htm.write(clock_addr, next_ver)?;
        }
        let new_word = stamp::encode_ts(next_ver);

        // Write-back: install the new stripe version, then the value, for
        // every deferred write (commit publication stores every version
        // before any value, whatever the order here).
        for (addr, value) in self.write_set.iter() {
            let stripe = layout.stripe_of(addr);
            self.htm
                .write(layout.stripe_version_addr(stripe), new_word)?;
            self.htm.write(addr, value)?;
        }
        self.htm.commit()
    }
}
