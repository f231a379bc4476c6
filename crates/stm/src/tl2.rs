//! The TL2 transaction engine.
//!
//! TL2 (Transactional Locking II) is a word/stripe-based, lazy-versioning
//! STM: the transaction body collects a read-set and a write-set; commit
//! acquires the write-set stripes' locks, validates the read-set against the
//! transaction's start time-stamp, writes back and releases the locks with a
//! new time-stamp.  The paper uses TL2 as its STM baseline, and the RH1/RH2
//! slow-paths are "TL2 minus the locks plus a hardware commit", so this
//! engine doubles as the reference for their software halves.  The commit's
//! clock discipline is pluggable ([`rhtm_mem::ClockScheme`]): the default
//! strict fetch-and-add, GV4's fail-soft CAS, GV5's commit-skip or GV6's
//! sampled advance.
//!
//! The engine is deliberately separated from the [`crate::Tl2Runtime`]
//! wrapper so the Standard-HyTM baseline can embed it as its software
//! fallback path.

use std::sync::Arc;

use rhtm_api::{Abort, AbortCause, TxResult};
use rhtm_htm::gv;
use rhtm_htm::linemap::{StripeMarks, WriteSet};
use rhtm_htm::HtmSim;
use rhtm_mem::{stamp, Addr, StripeId};

/// Per-thread TL2 transaction engine.
///
/// The engine does not retry by itself: `start` / `read` / `write` /
/// `commit` execute one attempt, and the caller (a runtime's `execute`
/// retry loop) decides what to do with an [`Abort`].
pub struct Tl2Engine {
    sim: Arc<HtmSim>,
    thread_id: usize,
    /// Start-time value of the global version clock (`rv` in the TL2
    /// paper, `tx_version` in the RH paper).
    tx_version: u64,
    /// Distinct stripes read so far, in first-read order.
    read_set: Vec<StripeId>,
    /// Per-stripe membership filter deduplicating `read_set` inserts, so
    /// commit-time validation is O(distinct stripes) instead of O(reads).
    /// Generation-stamped: clearing it between attempts is O(1).
    read_marks: StripeMarks,
    /// Stripe recorded by the most recent read (`u64::MAX` = none).  Scans
    /// touch the same stripe many times in a row, so this one-entry cache
    /// answers most membership queries without probing `read_marks`.
    last_read_stripe: u64,
    /// Deferred writes in program order.
    write_set: WriteSet,
    /// Stripes locked during commit, with the version word each was locked
    /// from (needed both to restore on abort and to validate read-set
    /// entries that we locked ourselves).
    locked: Vec<(StripeId, u64)>,
    /// Scratch for the sorted, deduplicated write-stripe list built in
    /// commit Phase 1, reused so a writing commit performs no allocation.
    commit_stripes: Vec<StripeId>,
    /// Writing commits performed by this engine; used as the sampling salt
    /// for the GV6 clock scheme.
    commit_salt: u64,
    active: bool,
}

impl Tl2Engine {
    /// Creates an engine for `thread_id` over the shared simulator.
    pub fn new(sim: Arc<HtmSim>, thread_id: usize) -> Self {
        Tl2Engine {
            sim,
            thread_id,
            tx_version: 0,
            read_set: Vec::with_capacity(64),
            read_marks: StripeMarks::with_capacity(512),
            last_read_stripe: u64::MAX,
            write_set: WriteSet::with_capacity(32),
            locked: Vec::with_capacity(32),
            commit_stripes: Vec::with_capacity(32),
            commit_salt: 0,
            active: false,
        }
    }

    /// The simulator this engine runs against.
    pub fn sim(&self) -> &Arc<HtmSim> {
        &self.sim
    }

    /// The transaction's start time-stamp (valid between `start` and the end
    /// of the attempt).
    #[inline(always)]
    pub fn tx_version(&self) -> u64 {
        self.tx_version
    }

    /// Returns `true` while an attempt is in progress.
    #[inline(always)]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of **distinct** stripes recorded in the read-set so far
    /// (repeat reads of a stripe are deduplicated at insert).
    #[inline(always)]
    pub fn read_set_len(&self) -> usize {
        self.read_set.len()
    }

    /// Number of distinct words in the write-set so far.
    #[inline(always)]
    pub fn write_set_len(&self) -> usize {
        self.write_set.len()
    }

    /// Begins a new attempt: samples the global clock and clears the sets.
    pub fn start(&mut self) {
        self.tx_version = gv::read(&self.sim);
        self.read_set.clear();
        self.read_marks.clear();
        self.last_read_stripe = u64::MAX;
        self.write_set.clear();
        self.locked.clear();
        self.active = true;
    }

    /// Aborts the current attempt: releases any commit-time locks, advances
    /// the global clock past the version whose observation caused the abort,
    /// and clears the sets.
    pub fn abort(&mut self, cause: AbortCause, observed_version: u64) -> Abort {
        self.release_locks_unchanged();
        gv::on_abort(&self.sim, observed_version);
        self.read_set.clear();
        self.read_marks.clear();
        self.last_read_stripe = u64::MAX;
        self.write_set.clear();
        self.active = false;
        Abort::new(cause)
    }

    fn release_locks_unchanged(&mut self) {
        while let Some((stripe, prev)) = self.locked.pop() {
            let addr = self.sim.mem().layout().stripe_version_addr(stripe);
            // We hold the lock, so a plain visible store suffices.
            self.sim.nt_store(addr, prev);
        }
    }

    /// Transactional read of `addr` (Algorithm: TL2 read with pre/post
    /// version check against `tx_version`).
    ///
    /// Only the common path is inlined: a word this attempt has not
    /// written, a consistent bracket and the stripe record.  The write-set
    /// probe (once the attempt has written) and the abort are outlined, as
    /// are the growth paths of the read set (`Vec`'s) and of the stripe
    /// marks (`StripeMarks::grow_to`).
    #[inline]
    pub fn read(&mut self, addr: Addr) -> TxResult<u64> {
        debug_assert!(self.active, "read outside a TL2 transaction");
        if !self.write_set.is_empty() {
            if let Some(v) = self.read_own_write(addr) {
                return Ok(v);
            }
        }
        let (stripe, ver_addr) = {
            let layout = self.sim.mem().layout();
            let stripe = layout.stripe_of(addr);
            (stripe, layout.stripe_version_addr(stripe))
        };
        // Publication-aware bracket: when this engine is embedded in a
        // hybrid runtime, an in-flight hardware commit appears atomic to it.
        let value = match self.sim.stripe_read(ver_addr, addr, self.tx_version) {
            Ok(value) => value,
            Err((cause, observed)) => return Err(self.abort(cause, observed)),
        };
        // Record the stripe once per attempt: repeat reads contribute
        // nothing to validation, and the filter's O(1) epoch reset keeps
        // this cheaper than scanning or re-validating duplicates.  The
        // one-entry cache short-circuits the streak of same-stripe reads a
        // scan produces (a stripe holds several adjacent words).
        let key = stripe.0 as u64;
        if key != self.last_read_stripe {
            self.last_read_stripe = key;
            if self.read_marks.test_and_set(stripe.0) {
                self.read_set.push(stripe);
            }
        }
        Ok(value)
    }

    #[cold]
    #[inline(never)]
    fn read_own_write(&self, addr: Addr) -> Option<u64> {
        self.write_set.get(addr)
    }

    /// Transactional (deferred) write of `value` to `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        debug_assert!(self.active, "write outside a TL2 transaction");
        self.write_set.insert(addr, value);
        Ok(())
    }

    /// Attempts to commit the current attempt.
    pub fn commit(&mut self) -> TxResult<()> {
        debug_assert!(self.active, "commit outside a TL2 transaction");
        // Read-only transactions commit immediately: every read was
        // individually validated against tx_version.
        if self.write_set.is_empty() {
            self.active = false;
            self.read_set.clear();
            self.read_marks.clear();
            self.last_read_stripe = u64::MAX;
            return Ok(());
        }

        let layout = self.sim.mem().layout();
        let lock_word = stamp::lock_word(self.thread_id);

        // Phase 1: lock the write-set stripes (sorted for determinism; the
        // try-lock discipline makes deadlock impossible regardless).  The
        // dedup is load-bearing: this phase has no locked-by-us check, so a
        // repeated stripe would self-conflict.  Built in the engine-owned
        // scratch buffer, so a writing commit performs no allocation.
        self.commit_stripes.clear();
        self.commit_stripes.extend(
            self.write_set
                .iter()
                .map(|(addr, _)| layout.stripe_of(addr)),
        );
        self.commit_stripes.sort_unstable();
        self.commit_stripes.dedup();
        for i in 0..self.commit_stripes.len() {
            let stripe = self.commit_stripes[i];
            let ver_addr = layout.stripe_version_addr(stripe);
            let current = self.sim.nt_load(ver_addr);
            if stamp::is_locked(current) {
                let observed = self.tx_version + 1;
                return Err(self.abort(AbortCause::Locked, observed));
            }
            if self.sim.nt_cas(ver_addr, current, lock_word).is_err() {
                let observed = self.tx_version + 1;
                return Err(self.abort(AbortCause::Locked, observed));
            }
            self.locked.push((stripe, current));
        }

        // Phase 2: compute the write version, applying the configured
        // [`rhtm_mem::ClockScheme`].  Under the default strict scheme this
        // is the classic fetch-and-add (unique write versions); GV4/GV5/GV6
        // relax or skip the clock RMW.  Sampling the version *after* the
        // locks are held is what keeps the relaxed schemes serialisable —
        // see the ordering argument in `rhtm_mem::clock`.
        self.commit_salt = self.commit_salt.wrapping_add(1);
        let wv = gv::next_commit(&self.sim, self.commit_salt);

        // Phase 3: validate the read-set.
        for i in 0..self.read_set.len() {
            let stripe = self.read_set[i];
            let word = self.sim.nt_load(layout.stripe_version_addr(stripe));
            if stamp::is_locked(word) {
                if word != lock_word {
                    let observed = self.tx_version + 1;
                    return Err(self.abort(AbortCause::Locked, observed));
                }
                // Locked by us: validate against the version the stripe
                // carried when we locked it, otherwise a conflicting commit
                // that slipped in between our read and our lock would be
                // missed (lost update).
                let prev = self
                    .locked
                    .iter()
                    .find(|&&(s, _)| s == stripe)
                    .map(|&(_, p)| p)
                    .expect("stripe locked by us must be in the locked list");
                if stamp::decode_ts(prev) > self.tx_version {
                    let observed = stamp::decode_ts(prev);
                    return Err(self.abort(AbortCause::Validation, observed));
                }
                continue;
            }
            if stamp::decode_ts(word) > self.tx_version {
                let observed = stamp::decode_ts(word);
                return Err(self.abort(AbortCause::Validation, observed));
            }
        }

        // Phase 4: write back (conflict-visible stores so hardware
        // transactions in hybrid runtimes observe them), then release the
        // locks by installing the new version.
        for (addr, value) in self.write_set.iter() {
            self.sim.nt_store(addr, value);
        }
        let new_word = stamp::encode_ts(wv);
        while let Some((stripe, _prev)) = self.locked.pop() {
            self.sim
                .nt_store(layout.stripe_version_addr(stripe), new_word);
        }

        self.active = false;
        self.read_set.clear();
        self.read_marks.clear();
        self.last_read_stripe = u64::MAX;
        self.write_set.clear();
        Ok(())
    }
}

impl std::fmt::Debug for Tl2Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tl2Engine")
            .field("thread_id", &self.thread_id)
            .field("active", &self.active)
            .field("tx_version", &self.tx_version)
            .field("read_set", &self.read_set.len())
            .field("write_set", &self.write_set.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhtm_htm::HtmConfig;
    use rhtm_mem::{MemConfig, TmMemory};

    fn sim() -> Arc<HtmSim> {
        let mem = Arc::new(TmMemory::new(MemConfig::with_data_words(4096)));
        HtmSim::new(mem, HtmConfig::default())
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let mut e = Tl2Engine::new(Arc::clone(&s), 0);
        e.start();
        assert_eq!(e.read(addr).unwrap(), 0);
        e.write(addr, 9).unwrap();
        assert_eq!(e.read(addr).unwrap(), 9, "read-own-write");
        assert_eq!(s.nt_load(addr), 0, "writes are deferred");
        e.commit().unwrap();
        assert_eq!(s.nt_load(addr), 9);
        let stripe = s.mem().layout().stripe_of(addr);
        let word = s.nt_load(s.mem().layout().stripe_version_addr(stripe));
        assert!(!stamp::is_locked(word), "locks must be released");
        assert!(stamp::decode_ts(word) > 0, "version must advance");
    }

    #[test]
    fn read_only_commit_is_immediate() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let mut e = Tl2Engine::new(s, 0);
        e.start();
        e.read(addr).unwrap();
        assert_eq!(e.write_set_len(), 0);
        e.commit().unwrap();
        assert!(!e.is_active());
    }

    #[test]
    fn stale_read_aborts_with_validation() {
        let s = sim();
        let addr = s.mem().alloc(1);
        // A committed writer gives the stripe a version of 1.
        let mut w = Tl2Engine::new(Arc::clone(&s), 0);
        w.start();
        w.write(addr, 5).unwrap();
        w.commit().unwrap();

        // A reader that started before that commit (tx_version still 0,
        // because the stripe now carries a newer version) must abort.
        let mut r = Tl2Engine::new(Arc::clone(&s), 1);
        r.tx_version = 0;
        r.active = true;
        let err = r.read(addr).unwrap_err();
        assert_eq!(err.cause, AbortCause::Validation);
        // The abort advanced the clock so the retry can succeed.
        let mut r2 = Tl2Engine::new(Arc::clone(&s), 1);
        r2.start();
        assert_eq!(r2.read(addr).unwrap(), 5);
    }

    #[test]
    fn locked_stripe_aborts_reader() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let layout = s.mem().layout();
        let stripe = layout.stripe_of(addr);
        // Simulate another thread holding the stripe lock.
        s.nt_store(layout.stripe_version_addr(stripe), stamp::lock_word(7));
        let mut e = Tl2Engine::new(Arc::clone(&s), 0);
        e.start();
        assert_eq!(e.read(addr).unwrap_err().cause, AbortCause::Locked);
    }

    #[test]
    fn locked_stripe_aborts_committer() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let layout = s.mem().layout();
        let stripe = layout.stripe_of(addr);
        let mut e = Tl2Engine::new(Arc::clone(&s), 0);
        e.start();
        e.write(addr, 1).unwrap();
        s.nt_store(layout.stripe_version_addr(stripe), stamp::lock_word(7));
        assert_eq!(e.commit().unwrap_err().cause, AbortCause::Locked);
        assert_eq!(s.nt_load(addr), 0, "aborted commit must not write back");
    }

    #[test]
    fn write_write_conflict_second_committer_aborts_or_serialises() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let mut a = Tl2Engine::new(Arc::clone(&s), 0);
        let mut b = Tl2Engine::new(Arc::clone(&s), 1);
        a.start();
        b.start();
        let va = a.read(addr).unwrap();
        let vb = b.read(addr).unwrap();
        a.write(addr, va + 1).unwrap();
        b.write(addr, vb + 1).unwrap();
        a.commit().unwrap();
        // b read version 0 but the stripe now has a newer version; b must
        // abort at commit-time validation of its read-set.
        let err = b.commit().unwrap_err();
        assert!(matches!(
            err.cause,
            AbortCause::Validation | AbortCause::Locked
        ));
        assert_eq!(s.nt_load(addr), 1);
    }

    #[test]
    fn abort_releases_partially_acquired_locks() {
        let s = sim();
        let a0 = s.mem().alloc(1);
        let _spacer = s.mem().alloc(64);
        let a1 = s.mem().alloc(1); // a different stripe from a0
        let layout = s.mem().layout();
        let s1 = layout.stripe_of(a1);
        // Another thread holds the lock for a1's stripe.
        s.nt_store(layout.stripe_version_addr(s1), stamp::lock_word(9));
        let mut e = Tl2Engine::new(Arc::clone(&s), 0);
        e.start();
        e.write(a0, 1).unwrap();
        e.write(a1, 2).unwrap();
        assert!(e.commit().is_err());
        // The stripe for a0 must have been unlocked again.
        let s0 = layout.stripe_of(a0);
        let w0 = s.nt_load(layout.stripe_version_addr(s0));
        assert!(
            !stamp::is_locked(w0),
            "partially acquired locks must be released"
        );
    }

    #[test]
    fn duplicate_reads_of_one_stripe_record_once() {
        let s = sim();
        let a = s.mem().alloc(1);
        let _spacer = s.mem().alloc(64);
        let b = s.mem().alloc(1); // a different stripe from a
        let mut e = Tl2Engine::new(Arc::clone(&s), 0);
        e.start();
        for _ in 0..10 {
            e.read(a).unwrap();
        }
        assert_eq!(e.read_set_len(), 1, "repeat reads must dedup");
        e.read(b).unwrap();
        assert_eq!(e.read_set_len(), 2, "a distinct stripe must record");
        for _ in 0..10 {
            e.read(b).unwrap();
            e.read(a).unwrap();
        }
        assert_eq!(e.read_set_len(), 2);
        e.write(a, 1).unwrap();
        e.commit().unwrap();
        // The next attempt starts from an empty, fully reset filter.
        e.start();
        e.read(a).unwrap();
        assert_eq!(e.read_set_len(), 1);
        e.commit().unwrap();
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let threads = 6;
        let per = 3_000;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut e = Tl2Engine::new(s, tid);
                    for _ in 0..per {
                        loop {
                            e.start();
                            let ok = (|| {
                                let v = e.read(addr)?;
                                e.write(addr, v + 1)?;
                                e.commit()
                            })();
                            if ok.is_ok() {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.nt_load(addr), (threads * per) as u64);
    }
}
