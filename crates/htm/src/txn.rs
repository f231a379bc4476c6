//! The per-thread hardware transaction unit: `HTM_Start` / speculative
//! read/write / `HTM_Commit` / `HTM_Abort`.
//!
//! [`HtmThread`] is embedded by every runtime that issues hardware
//! transactions (the pure-HTM runtime, the Standard-HyTM baseline and the
//! RH1/RH2 protocols).  It owns the per-transaction read-line and
//! write-buffer collections and reuses them across transactions.
//!
//! ## Commit algorithm
//!
//! 1. Injected failures (forced-abort-ratio, spurious rate) are applied
//!    first, modelling the paper's emulation methodology and the
//!    best-effort-ness of real parts.
//! 2. Read-only transactions commit immediately (their reads were validated
//!    individually, and under incremental validation the whole set was
//!    revalidated whenever the global write sequence moved).
//! 3. Writing transactions lock the cache lines they wrote (ascending line
//!    order, try-lock: a busy line is a conflict), validate that every line
//!    in the read-set still carries the version observed at first read,
//!    publish the buffered values **metadata first** and release the locks
//!    with bumped versions.
//!
//! Metadata-first publication matters for the hybrid protocols: the
//! software read paths ([`HtmSim::stripe_read`]) load a location's stripe
//! version before and after the data load, and wait only on the data's
//! line lock.  Publishing every word below the layout's data base (stripe
//! versions and lock words) before any data word guarantees that a
//! software reader that observes a new data value also observes the new
//! stripe version, or the lock, in its post-read check — the same
//! all-or-nothing property an atomic hardware commit provides, whatever
//! order the transaction wrote in (the RH2 fast-path writes its data before
//! its stripe locks).  Each pass keeps program order (see
//! `docs/ARCHITECTURE.md`, "Publication order").

use std::sync::Arc;

use rhtm_api::{Abort, AbortCause, TxResult};
use rhtm_mem::Addr;

use crate::config::ValidationMode;
use crate::linemap::{LineMap, WriteSet};
use crate::sim::HtmSim;

/// A tiny xorshift PRNG used only for abort injection; deterministic per
/// thread so benchmark runs are reproducible.
#[derive(Clone, Debug)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // SplitMix64 step to decorrelate thread seeds.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64((z ^ (z >> 31)) | 1)
    }

    #[inline(always)]
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in [0, 1).
    #[inline(always)]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Per-thread best-effort hardware transaction unit.
pub struct HtmThread {
    sim: Arc<HtmSim>,
    /// cache line -> version observed at first read.
    read_lines: LineMap,
    /// word address -> buffered value, in program order.
    write_set: WriteSet,
    /// cache line -> (used at commit) version the line was locked from.
    write_lines: LineMap,
    /// Scratch buffer of (line, locked-from-version) reused across commits.
    locked: Vec<(usize, u64)>,
    /// Scratch buffer for the sorted written-line list built at commit,
    /// reused so a writing commit performs no heap allocation.
    commit_lines: Vec<usize>,
    /// Global write sequence observed at begin / last revalidation.
    start_seq: u64,
    /// One-entry read cache: the line most recently recorded in
    /// `read_lines` (`usize::MAX` = none) and the version recorded for it.
    /// Lets a repeat read of that line skip the `read_lines` probe.
    last_line: usize,
    last_ver: u64,
    /// `validation == Incremental`, copied from the simulator's fixed
    /// configuration so the read hit path need not reach through it.
    incremental: bool,
    /// The simulator's `read_capacity_lines`, copied for the same reason.
    read_capacity_lines: usize,
    active: bool,
    /// Whether the forced-abort-ratio knob applies to this unit's commits.
    /// The paper's emulation methodology forces the measured abort ratio
    /// onto the *fast-path* transactions; the short commit-time hardware
    /// transactions of the mixed slow-path are not subject to it, so the
    /// slow-path commit code disables injection around its commits.
    forced_injection: bool,
    rng: XorShift64,
    /// Number of hardware commits this unit has performed.
    commits: u64,
    /// Number of hardware aborts this unit has suffered.
    aborts: u64,
}

impl HtmThread {
    /// Creates a hardware transaction unit bound to `sim`; `thread_seed`
    /// decorrelates the abort-injection RNG between threads.
    pub fn new(sim: Arc<HtmSim>, thread_seed: u64) -> Self {
        let cfg = sim.config();
        let seed = cfg.seed ^ thread_seed.wrapping_mul(0xA24B_AED4_963E_E407);
        let incremental = cfg.validation == ValidationMode::Incremental;
        let read_capacity_lines = cfg.read_capacity_lines;
        HtmThread {
            sim,
            read_lines: LineMap::with_capacity(64),
            write_set: WriteSet::with_capacity(32),
            write_lines: LineMap::with_capacity(32),
            locked: Vec::with_capacity(32),
            commit_lines: Vec::with_capacity(32),
            start_seq: 0,
            last_line: usize::MAX,
            last_ver: 0,
            incremental,
            read_capacity_lines,
            active: false,
            forced_injection: true,
            rng: XorShift64::new(seed),
            commits: 0,
            aborts: 0,
        }
    }

    /// Enables or disables the forced-abort-ratio injection for this unit's
    /// subsequent commits (spurious aborts are unaffected).  Used by the
    /// mixed slow-path around its commit-time hardware transaction.
    pub fn set_forced_abort_injection(&mut self, enabled: bool) {
        self.forced_injection = enabled;
    }

    /// The simulator this unit runs against.
    #[inline(always)]
    pub fn sim(&self) -> &Arc<HtmSim> {
        &self.sim
    }

    /// Returns `true` while a hardware transaction is open.
    #[inline(always)]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Number of distinct cache lines read so far in the open transaction.
    #[inline(always)]
    pub fn read_footprint_lines(&self) -> usize {
        self.read_lines.len()
    }

    /// Number of distinct cache lines written so far in the open
    /// transaction.
    #[inline(always)]
    pub fn write_footprint_lines(&self) -> usize {
        self.write_lines.len()
    }

    /// Hardware commits performed by this unit since creation.
    #[inline(always)]
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// Hardware aborts suffered by this unit since creation.
    #[inline(always)]
    pub fn abort_count(&self) -> u64 {
        self.aborts
    }

    /// `HTM_Start()`: opens a new hardware transaction, discarding any state
    /// left over from an abandoned one.
    pub fn begin(&mut self) {
        self.read_lines.clear();
        self.write_set.clear();
        self.write_lines.clear();
        self.locked.clear();
        self.last_line = usize::MAX;
        self.start_seq = self.sim.write_seq();
        self.active = true;
    }

    /// `HTM_Abort()`: explicitly aborts the open transaction, discarding all
    /// buffered writes, and returns the [`Abort`] to propagate.
    pub fn abort(&mut self, cause: AbortCause) -> Abort {
        debug_assert!(
            self.active,
            "abort called with no open hardware transaction"
        );
        self.rollback();
        Abort::new(cause)
    }

    #[inline]
    fn rollback(&mut self) {
        self.read_lines.clear();
        self.write_set.clear();
        self.write_lines.clear();
        self.locked.clear();
        self.last_line = usize::MAX;
        self.active = false;
        self.aborts += 1;
    }

    #[cold]
    fn fail(&mut self, cause: AbortCause) -> Abort {
        self.rollback();
        Abort::new(cause)
    }

    /// Revalidates every line in the read-set against the line table.
    fn revalidate(&self) -> Result<(), ()> {
        for (line, ver) in self.read_lines.iter() {
            if self.sim.line_version(line as usize) != ver {
                return Err(());
            }
        }
        Ok(())
    }

    /// Releases every lock taken so far by an aborting commit, restoring the
    /// pre-lock versions.
    fn release_locked_unchanged(&mut self) {
        while let Some((line, prev)) = self.locked.pop() {
            self.sim.unlock_line_unchanged(line, prev);
        }
    }

    /// Speculative read of the word at `addr`.
    ///
    /// The inlined hit path serves a repeat read of the most recently
    /// recorded line when nothing can have changed the outcome: the write
    /// set is empty (no buffered value to return), and under incremental
    /// validation the global write sequence has not moved (no revalidation
    /// due).  It then needs only the line version on both sides of the load
    /// to match the one recorded — that version is even, so a matching line
    /// is also unlocked.  Every other read, including a hit whose versions
    /// do not match, takes the outlined miss path, which makes the same
    /// decision the read would have made without the cache.
    #[inline]
    pub fn read(&mut self, addr: Addr) -> TxResult<u64> {
        debug_assert!(self.active, "read outside a hardware transaction");
        let line = addr.line();
        if line == self.last_line
            && self.write_set.is_empty()
            && (!self.incremental || self.sim.write_seq() == self.start_seq)
        {
            let v1 = self.sim.line_version(line);
            let value = self.sim.mem().heap().load(addr);
            let v2 = self.sim.line_version(line);
            if v1 == self.last_ver && v2 == v1 {
                return Ok(value);
            }
        }
        self.read_miss(addr)
    }

    /// The full speculative read: read-own-writes, incremental
    /// revalidation, a version-bracketed load and read-set recording.
    #[inline(never)]
    fn read_miss(&mut self, addr: Addr) -> TxResult<u64> {
        if let Some(v) = self.write_set.get(addr) {
            return Ok(v);
        }
        if self.incremental {
            let seq = self.sim.write_seq();
            if seq != self.start_seq {
                if self.revalidate().is_err() {
                    return Err(self.fail(AbortCause::Conflict));
                }
                self.start_seq = seq;
            }
        }
        let line = addr.line();
        let v1 = self.sim.line_version(line);
        if HtmSim::line_is_locked(v1) {
            return Err(self.fail(AbortCause::Conflict));
        }
        let value = self.sim.mem().heap().load(addr);
        let v2 = self.sim.line_version(line);
        if v2 != v1 {
            return Err(self.fail(AbortCause::Conflict));
        }
        match self.read_lines.insert_if_absent(line as u64, v1) {
            Some(prev) => {
                if prev != v1 {
                    // The line changed between two reads of the same
                    // transaction: on real hardware the first read's line
                    // would have been invalidated, aborting us.
                    return Err(self.fail(AbortCause::Conflict));
                }
            }
            None => {
                if self.read_lines.len() > self.read_capacity_lines {
                    return Err(self.fail(AbortCause::Capacity));
                }
            }
        }
        self.last_line = line;
        self.last_ver = v1;
        Ok(value)
    }

    /// Speculative (buffered) write of `value` to the word at `addr`.
    #[inline]
    pub fn write(&mut self, addr: Addr, value: u64) -> TxResult<()> {
        debug_assert!(self.active, "write outside a hardware transaction");
        self.write_set.insert(addr, value);
        let line = addr.line() as u64;
        if self.write_lines.insert_if_absent(line, 0).is_none()
            && self.write_lines.len() > self.sim.config().write_capacity_lines
        {
            return Err(self.fail(AbortCause::Capacity));
        }
        Ok(())
    }

    /// A "protected instruction" (system call, page fault, ...) that
    /// best-effort HTM cannot execute: always aborts the transaction.
    pub fn protected_instruction(&mut self) -> TxResult<()> {
        debug_assert!(self.active);
        Err(self.fail(AbortCause::Unsupported))
    }

    /// `HTM_Commit()`: attempts to commit the open transaction.
    pub fn commit(&mut self) -> TxResult<()> {
        debug_assert!(self.active, "commit outside a hardware transaction");
        let cfg = self.sim.config();
        // Injected failures first: they model events (interrupts, the
        // paper's forced abort ratio) that strike regardless of the
        // transaction's actual footprint.
        if cfg.spurious_abort_rate > 0.0 && self.rng.next_f64() < cfg.spurious_abort_rate {
            return Err(self.fail(AbortCause::Spurious));
        }
        if self.forced_injection
            && !self.write_set.is_empty()
            && cfg.forced_abort_ratio > 0.0
            && self.rng.next_f64() < cfg.forced_abort_ratio
        {
            return Err(self.fail(AbortCause::Forced));
        }

        if self.write_set.is_empty() {
            // Read-only: under commit-only validation the set must be
            // checked now; under incremental validation every read already
            // validated against a consistent snapshot.
            if !self.incremental && self.revalidate().is_err() {
                return Err(self.fail(AbortCause::Conflict));
            }
            self.active = false;
            self.commits += 1;
            self.read_lines.clear();
            return Ok(());
        }

        // Lock the written lines in ascending order (try-lock; any busy or
        // moved line is a conflict).
        self.locked.clear();
        self.commit_lines.clear();
        self.commit_lines
            .extend(self.write_lines.iter().map(|(l, _)| l as usize));
        self.commit_lines.sort_unstable();
        for i in 0..self.commit_lines.len() {
            let line = self.commit_lines[i];
            let v = self.sim.line_version(line);
            if HtmSim::line_is_locked(v) || !self.sim.try_lock_line(line, v) {
                self.release_locked_unchanged();
                return Err(self.fail(AbortCause::Conflict));
            }
            self.locked.push((line, v));
            self.write_lines.insert(line as u64, v);
        }

        // Validate the read-set: every line must still carry the version we
        // first observed; lines we locked ourselves are compared against
        // their pre-lock version (recorded into `write_lines` above).
        let read_set_valid = self.read_lines.iter().all(|(line, ver)| {
            let current = match self.write_lines.get(line) {
                Some(prev) => prev,
                None => self.sim.line_version(line as usize),
            };
            current == ver
        });
        if !read_set_valid {
            self.release_locked_unchanged();
            return Err(self.fail(AbortCause::Conflict));
        }

        // Publish the metadata words (stripe versions and locks, the clock,
        // the mode counters) before the data words, each pass in program
        // order, then release the locks with bumped versions and advance
        // the global write sequence.
        let heap = self.sim.mem().heap();
        let data_base = self.sim.mem().layout().data_base();
        for (addr, value) in self.write_set.iter() {
            if addr < data_base {
                heap.store(addr, value);
            }
        }
        for (addr, value) in self.write_set.iter() {
            if addr >= data_base {
                heap.store(addr, value);
            }
        }
        for &(line, prev) in &self.locked {
            self.sim.unlock_line(line, prev);
        }
        self.sim.bump_write_seq();

        self.active = false;
        self.commits += 1;
        self.read_lines.clear();
        self.write_set.clear();
        self.write_lines.clear();
        self.locked.clear();
        Ok(())
    }
}

impl std::fmt::Debug for HtmThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmThread")
            .field("active", &self.active)
            .field("read_lines", &self.read_lines.len())
            .field("write_words", &self.write_set.len())
            .field("commits", &self.commits)
            .field("aborts", &self.aborts)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HtmConfig;
    use rhtm_mem::{stamp, MemConfig, TmMemory};
    use std::sync::atomic::Ordering;

    fn setup(config: HtmConfig) -> (Arc<HtmSim>, Addr) {
        let mem = Arc::new(TmMemory::new(MemConfig::with_data_words(4096)));
        let base = mem.alloc(1024);
        let sim = HtmSim::new(mem, config);
        (sim, base)
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let (sim, base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        assert_eq!(t.read(base).unwrap(), 0);
        t.write(base, 7).unwrap();
        assert_eq!(t.read(base).unwrap(), 7, "read-own-write");
        assert_eq!(sim.nt_load(base), 0, "writes stay buffered until commit");
        t.commit().unwrap();
        assert_eq!(sim.nt_load(base), 7);
        assert_eq!(t.commit_count(), 1);
        assert!(!t.is_active());
    }

    #[test]
    fn explicit_abort_discards_writes() {
        let (sim, base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        t.write(base, 42).unwrap();
        let abort = t.abort(AbortCause::Explicit);
        assert_eq!(abort.cause, AbortCause::Explicit);
        assert_eq!(sim.nt_load(base), 0);
        assert_eq!(t.abort_count(), 1);
        assert!(!t.is_active());
    }

    #[test]
    fn nt_store_conflicts_with_open_reader() {
        let (sim, base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        assert_eq!(t.read(base).unwrap(), 0);
        // Another agent writes the line non-transactionally.
        sim.nt_store(base, 5);
        // The reader must not commit having seen the old value.
        t.write(base.offset(64), 1).unwrap();
        let err = t.commit().unwrap_err();
        assert_eq!(err.cause, AbortCause::Conflict);
    }

    #[test]
    fn read_only_transaction_commits_against_stale_snapshot_consistently() {
        // A read-only transaction serialises at its last validation point;
        // a later nt_store does not force an abort.
        let (sim, base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        assert_eq!(t.read(base).unwrap(), 0);
        sim.nt_store(base.offset(128), 9);
        t.commit().unwrap();
    }

    #[test]
    fn incremental_validation_aborts_doomed_reader() {
        let (sim, base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        assert_eq!(t.read(base).unwrap(), 0);
        sim.nt_store(base, 1);
        // The next read (of any address) must observe the conflict.
        let err = t.read(base.offset(512)).unwrap_err();
        assert_eq!(err.cause, AbortCause::Conflict);
    }

    #[test]
    fn commit_only_validation_defers_the_abort_to_commit() {
        let (sim, base) = setup(HtmConfig::default().with_validation(ValidationMode::CommitOnly));
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        assert_eq!(t.read(base).unwrap(), 0);
        sim.nt_store(base, 1);
        // Reads keep succeeding (possibly inconsistently) ...
        assert!(t.read(base.offset(512)).is_ok());
        // ... but the commit fails, even for a read-only transaction.
        let err = t.commit().unwrap_err();
        assert_eq!(err.cause, AbortCause::Conflict);
    }

    #[test]
    fn conflicting_writers_cannot_both_commit_lost_update() {
        let (sim, base) = setup(HtmConfig::default());
        let sim2 = Arc::clone(&sim);
        let addr = base;
        let threads = 4;
        let per = 2_000;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let sim = Arc::clone(&sim2);
                std::thread::spawn(move || {
                    let mut t = HtmThread::new(sim, i as u64);
                    for _ in 0..per {
                        loop {
                            t.begin();
                            let attempt = (|| {
                                let v = t.read(addr)?;
                                t.write(addr, v + 1)?;
                                t.commit()
                            })();
                            if attempt.is_ok() {
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
        assert_eq!(sim.nt_load(addr), (threads * per) as u64);
    }

    #[test]
    fn capacity_abort_on_reads() {
        let (sim, base) = setup(HtmConfig::with_capacity(4, 64));
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        // 5 distinct lines exceeds the 4-line read budget.
        let mut result = Ok(0);
        for i in 0..5 {
            result = t.read(base.offset(i * 8));
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err().cause, AbortCause::Capacity);
    }

    #[test]
    fn capacity_abort_on_writes() {
        let (sim, base) = setup(HtmConfig::with_capacity(512, 2));
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        let mut result = Ok(());
        for i in 0..3 {
            result = t.write(base.offset(i * 8), 1);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err().cause, AbortCause::Capacity);
    }

    #[test]
    fn repeated_reads_of_same_line_do_not_consume_capacity() {
        let (sim, base) = setup(HtmConfig::with_capacity(1, 64));
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        for _ in 0..100 {
            t.read(base).unwrap();
            t.read(base.offset(1)).unwrap(); // same line
        }
        assert_eq!(t.read_footprint_lines(), 1);
        t.commit().unwrap();
    }

    #[test]
    fn forced_abort_ratio_aborts_writers_at_commit() {
        let (sim, base) = setup(HtmConfig::default().with_forced_abort_ratio(1.0));
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        t.write(base, 1).unwrap();
        assert_eq!(t.commit().unwrap_err().cause, AbortCause::Forced);
        // Read-only transactions are not subject to the forced ratio.
        t.begin();
        t.read(base).unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn spurious_rate_hits_read_only_transactions_too() {
        let (sim, base) = setup(HtmConfig::default().with_spurious_abort_rate(1.0));
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        t.read(base).unwrap();
        assert_eq!(t.commit().unwrap_err().cause, AbortCause::Spurious);
    }

    #[test]
    fn protected_instruction_always_aborts() {
        let (sim, _base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        assert_eq!(
            t.protected_instruction().unwrap_err().cause,
            AbortCause::Unsupported
        );
        assert!(!t.is_active());
    }

    #[test]
    fn publication_preserves_program_order() {
        // A writer publishes two watched data words with the same value,
        // `first` before `last`, with a run of 64 other data words between
        // them.  A reader loading the raw heap cells (waiting on no line
        // lock, unlike `nt_load`) that sees the new `last` must also see
        // the new `first`; data words published out of program order leave
        // a 64-store window in which it does not.
        let (sim, base) = setup(HtmConfig::default());
        let (first, last) = (base, base.offset(65));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let sim = Arc::clone(&sim);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut t = HtmThread::new(sim, 1);
                for i in 1..=20_000u64 {
                    loop {
                        t.begin();
                        let attempt = t
                            .write(first, i)
                            .and_then(|()| (1..=64).try_for_each(|k| t.write(base.offset(k), i)))
                            .and_then(|()| t.write(last, i));
                        if attempt.and_then(|()| t.commit()).is_ok() {
                            break;
                        }
                    }
                }
                done.store(true, Ordering::SeqCst);
            })
        };
        let heap = sim.mem().heap();
        let (mut probes, mut violations) = (0u64, 0u64);
        while !done.load(Ordering::SeqCst) {
            let l = heap.load(last);
            let f = heap.load(first);
            probes += 1;
            violations += u64::from(l > f);
        }
        writer.join().unwrap();
        assert!(probes > 0, "the reader never probed");
        assert_eq!(violations, 0, "of {probes} probes");
    }

    #[test]
    fn stripe_reads_see_each_hardware_commit_whole() {
        // A writer publishes one watched data word, whose value is the
        // stripe version it is published under, plus a run of 64 other
        // data words, in one of the two fast-path shapes:
        // - RH2: the watched word, the others, then the stripe lock; the
        //   stripe is released with the new version after the commit;
        // - RH1: the new stripe version, the others, then the watched word.
        // The reader checks two things:
        // - a raw probe (data, then version, waiting on neither line) never
        //   sees data newer than an unlocked version: the metadata-first
        //   order the bracketed read relies on;
        // - a bracketed read accepted under version `k` returns `k`.
        // Program-order publication breaks both in the RH2 shape; a
        // bracket that does not wait on the data line breaks the second in
        // the RH1 shape.
        for rh2_shape in [true, false] {
            let (sim, _) = setup(HtmConfig::default());
            let data = sim.mem().alloc(1 + 64);
            let layout = sim.mem().layout();
            let ver = layout.stripe_version_addr(layout.stripe_of(data));
            let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let writer = {
                let sim = Arc::clone(&sim);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut t = HtmThread::new(Arc::clone(&sim), 1);
                    let others = |t: &mut HtmThread, i| {
                        (1..=64).try_for_each(|k| t.write(data.offset(k), i))
                    };
                    for i in 1..=100_000u64 {
                        loop {
                            t.begin();
                            let attempt = if rh2_shape {
                                t.write(data, i)
                                    .and_then(|()| others(&mut t, i))
                                    .and_then(|()| t.write(ver, stamp::lock_word(1)))
                            } else {
                                t.write(ver, stamp::encode_ts(i))
                                    .and_then(|()| others(&mut t, i))
                                    .and_then(|()| t.write(data, i))
                            };
                            if attempt.and_then(|()| t.commit()).is_ok() {
                                break;
                            }
                        }
                        if rh2_shape {
                            sim.nt_store(ver, stamp::encode_ts(i));
                        }
                    }
                    done.store(true, Ordering::SeqCst);
                })
            };
            let heap = sim.mem().heap();
            let (mut accepted, mut mismatched, mut data_first) = (0u64, 0u64, 0u64);
            while !done.load(Ordering::SeqCst) {
                let d = heap.load(data);
                let v = heap.load(ver);
                data_first += u64::from(!stamp::is_locked(v) && stamp::decode_ts(v) < d);
                // Stripe versions only grow, so a read accepted with the
                // version loaded here as `tx_version` ran under that version.
                let v0 = heap.load(ver);
                if stamp::is_locked(v0) {
                    continue;
                }
                if let Ok(value) = sim.stripe_read(ver, data, stamp::decode_ts(v0)) {
                    accepted += 1;
                    mismatched += u64::from(value != stamp::decode_ts(v0));
                }
            }
            writer.join().unwrap();
            let shape = if rh2_shape { "RH2" } else { "RH1" };
            assert!(accepted > 0, "{shape}: the reader never completed a read");
            assert_eq!(
                data_first, 0,
                "{shape}: data visible before its stripe version"
            );
            assert_eq!(mismatched, 0, "{shape}: of {accepted} accepted reads");
        }
    }

    /// A line-aligned block, so `base` and `base.offset(1..8)` share a line
    /// and `base.offset(8 * k)` starts line `k` of the block.
    fn setup_lines(config: HtmConfig) -> (Arc<HtmSim>, Addr) {
        let (sim, _) = setup(config);
        let base = sim.mem().alloc_line_aligned(64);
        assert_eq!(base.offset(7).line(), base.line());
        (sim, base)
    }

    const BOTH_MODES: [ValidationMode; 2] =
        [ValidationMode::Incremental, ValidationMode::CommitOnly];

    #[test]
    fn nt_store_to_the_cached_line_aborts_the_next_read_of_it() {
        for mode in BOTH_MODES {
            let (sim, base) = setup_lines(HtmConfig::default().with_validation(mode));
            let mut t = HtmThread::new(Arc::clone(&sim), 0);
            t.begin();
            assert_eq!(t.read(base).unwrap(), 0);
            assert_eq!(t.read(base.offset(1)).unwrap(), 0, "{mode:?}: repeat read");
            sim.nt_store(base.offset(2), 5);
            let err = t.read(base.offset(1)).unwrap_err();
            assert_eq!(err.cause, AbortCause::Conflict, "{mode:?}");
            assert!(!t.is_active());
            // The cache does not outlive the aborted transaction.
            t.begin();
            assert_eq!(t.read(base.offset(2)).unwrap(), 5, "{mode:?}");
            t.commit().unwrap();
        }
    }

    #[test]
    fn locked_cached_line_aborts_without_returning_a_value() {
        for mode in BOTH_MODES {
            let (sim, base) = setup_lines(HtmConfig::default().with_validation(mode));
            let mut t = HtmThread::new(Arc::clone(&sim), 0);
            t.begin();
            t.read(base).unwrap();
            t.read(base.offset(1)).unwrap();
            // Another agent locks the line and stores into it mid-publish.
            let line = base.line();
            let v = sim.line_version(line);
            assert!(sim.try_lock_line(line, v));
            sim.mem().heap().store(base.offset(1), 77);
            let err = t.read(base.offset(1)).unwrap_err();
            assert_eq!(err.cause, AbortCause::Conflict, "{mode:?}");
            sim.unlock_line(line, v);
        }
    }

    #[test]
    fn a_b_a_reads_abort_when_a_changed_in_between() {
        for mode in BOTH_MODES {
            let (sim, base) = setup_lines(HtmConfig::default().with_validation(mode));
            let (a, b) = (base, base.offset(8));
            let mut t = HtmThread::new(Arc::clone(&sim), 0);
            t.begin();
            t.read(a).unwrap();
            t.read(b).unwrap();
            t.read(b.offset(1)).unwrap();
            sim.nt_store(a.offset(1), 3);
            let err = t.read(a).unwrap_err();
            assert_eq!(err.cause, AbortCause::Conflict, "{mode:?}");
        }
    }

    #[test]
    fn read_after_write_on_the_cached_line_returns_the_buffered_value() {
        let (sim, base) = setup_lines(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        assert_eq!(t.read(base).unwrap(), 0);
        assert_eq!(t.read(base.offset(1)).unwrap(), 0);
        t.write(base.offset(1), 9).unwrap();
        assert_eq!(t.read(base.offset(1)).unwrap(), 9);
        assert_eq!(t.read(base).unwrap(), 0);
        t.commit().unwrap();
        assert_eq!(sim.nt_load(base.offset(1)), 9);
    }

    #[test]
    fn line_cache_keeps_the_footprint_and_the_capacity_abort_point() {
        let (sim, base) = setup_lines(HtmConfig::with_capacity(4, 64));
        let mut t = HtmThread::new(sim, 0);
        t.begin();
        // Lines 0..4, each read on several words and revisited out of order.
        for (i, line) in [0, 0, 1, 1, 0, 2, 2, 1, 3, 3, 0].into_iter().enumerate() {
            t.read(base.offset(line * 8 + i % 8)).unwrap();
        }
        assert_eq!(t.read_footprint_lines(), 4);
        t.read(base.offset(3 * 8)).unwrap();
        assert_eq!(t.read_footprint_lines(), 4);
        // The fifth distinct line is the first read over budget.
        let err = t.read(base.offset(4 * 8)).unwrap_err();
        assert_eq!(err.cause, AbortCause::Capacity);
        assert!(!t.is_active());
    }

    #[test]
    fn hit_path_never_returns_a_torn_line() {
        // A writer keeps two words of one line equal; a reader that reads
        // both in one transaction, mostly through the hit path, for as long
        // as the writer runs must never see them differ.
        for mode in BOTH_MODES {
            let (sim, base) = setup_lines(HtmConfig::default().with_validation(mode));
            let (x, y) = (base, base.offset(7));
            let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let writer = {
                let sim = Arc::clone(&sim);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut t = HtmThread::new(sim, 1);
                    for i in 1..=200_000u64 {
                        t.begin();
                        let _ = t
                            .write(x, i)
                            .and_then(|()| t.write(y, i))
                            .and_then(|()| t.commit());
                    }
                    done.store(true, Ordering::SeqCst);
                })
            };
            let mut t = HtmThread::new(Arc::clone(&sim), 0);
            let mut torn = 0u64;
            while !done.load(Ordering::SeqCst) {
                t.begin();
                let Ok(first) = t.read(x) else { continue };
                for _ in 0..32 {
                    match t.read(y).and_then(|b| Ok((b, t.read(x)?))) {
                        Ok((b, a)) => torn += u64::from(a != first || b != first),
                        Err(_) => break,
                    }
                }
            }
            writer.join().unwrap();
            assert_eq!(torn, 0, "{mode:?}");
        }
    }

    #[test]
    fn begin_discards_abandoned_transaction() {
        let (sim, base) = setup(HtmConfig::default());
        let mut t = HtmThread::new(Arc::clone(&sim), 0);
        t.begin();
        t.write(base, 123).unwrap();
        // Abandon without commit or abort, then start a new transaction.
        t.begin();
        t.commit().unwrap();
        assert_eq!(sim.nt_load(base), 0, "abandoned writes must not leak");
    }
}
