//! The shared state of the simulated HTM: the per-cache-line version/lock
//! table, the global modification sequence used for incremental validation,
//! and the strongly-isolated non-transactional access API.
//!
//! ## Line version table
//!
//! Every cache line of the heap (metadata *and* data) has a 64-bit
//! version/lock word:
//!
//! * even value `v` — the line is unlocked and has been modified `v / 2`
//!   times,
//! * odd value `v` — the line is locked by a committer (hardware commit
//!   publish or a strongly-isolated non-transactional update) that will
//!   release it with `v + 1` (i.e. the next even version).
//!
//! A hardware transaction records the version of each line it reads; at
//! commit it locks the lines it wrote, revalidates the recorded versions,
//! publishes the buffered values, and releases the locks with bumped
//! versions.  This reproduces the observable behaviour of real best-effort
//! HTM: a transaction commits only if no other agent wrote any line it read
//! or wrote between first access and commit, and its own writes become
//! visible to others all at once.
//!
//! ## Strong isolation
//!
//! On real hardware *any* store — transactional or not — invalidates the
//! line in other caches and dooms transactions that have it in their
//! read-set.  Protocol code must therefore route non-transactional updates
//! of shared words through [`HtmSim::nt_store`] / [`HtmSim::nt_cas`] /
//! [`HtmSim::nt_fetch_add`], which bump the line version (under a short line
//! lock) so concurrent hardware transactions observe the conflict.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rhtm_api::typed::{Codec, TxCell};
use rhtm_api::AbortCause;
use rhtm_mem::{stamp, Addr, CachePadded, TmMemory, CACHE_LINE_WORDS};

use crate::config::HtmConfig;

/// Shared state of the simulated best-effort HTM.
pub struct HtmSim {
    mem: Arc<TmMemory>,
    config: HtmConfig,
    /// One version/lock word per cache line of the heap.
    lines: Box<[AtomicU64]>,
    /// Incremented after every modification that could invalidate a running
    /// transaction's view (hardware commit publish or non-transactional
    /// store).  Used by `ValidationMode::Incremental`.  Padded onto its own
    /// cache line: every committer RMWs it, and without the padding it
    /// false-shares with the read-mostly fields around it.
    write_seq: CachePadded<AtomicU64>,
}

impl HtmSim {
    /// Creates a simulator over `mem` with the given configuration.
    pub fn new(mem: Arc<TmMemory>, config: HtmConfig) -> Arc<Self> {
        let num_lines = mem.layout().total_words().div_ceil(CACHE_LINE_WORDS);
        let mut lines = Vec::with_capacity(num_lines);
        lines.resize_with(num_lines, || AtomicU64::new(0));
        Arc::new(HtmSim {
            mem,
            config,
            lines: lines.into_boxed_slice(),
            write_seq: CachePadded::new(AtomicU64::new(0)),
        })
    }

    /// The shared transactional memory.
    #[inline(always)]
    pub fn mem(&self) -> &Arc<TmMemory> {
        &self.mem
    }

    /// The simulator configuration.
    #[inline(always)]
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// Number of cache lines tracked.
    #[inline(always)]
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Current value of the global modification sequence.
    #[inline(always)]
    pub fn write_seq(&self) -> u64 {
        self.write_seq.load(Ordering::SeqCst)
    }

    #[inline(always)]
    pub(crate) fn bump_write_seq(&self) {
        self.write_seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Returns `true` if a line version word encodes "locked".
    #[inline(always)]
    pub fn line_is_locked(version: u64) -> bool {
        version & 1 == 1
    }

    /// Loads the version/lock word of `line`.
    #[inline(always)]
    pub(crate) fn line_version(&self, line: usize) -> u64 {
        self.lines[line].load(Ordering::SeqCst)
    }

    /// Tries to lock `line`, expecting its current version to be `expected`
    /// (which must be even).  Returns `true` on success.
    #[inline(always)]
    pub(crate) fn try_lock_line(&self, line: usize, expected: u64) -> bool {
        debug_assert!(!Self::line_is_locked(expected));
        self.lines[line]
            .compare_exchange(expected, expected + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Releases `line` previously locked from version `expected`, installing
    /// the next even version.
    #[inline(always)]
    pub(crate) fn unlock_line(&self, line: usize, expected: u64) {
        debug_assert!(!Self::line_is_locked(expected));
        debug_assert_eq!(self.lines[line].load(Ordering::SeqCst), expected + 1);
        self.lines[line].store(expected + 2, Ordering::SeqCst);
    }

    /// Releases `line` without bumping the version (used when a commit
    /// aborts after having locked some of its write lines).
    #[inline(always)]
    pub(crate) fn unlock_line_unchanged(&self, line: usize, expected: u64) {
        debug_assert!(!Self::line_is_locked(expected));
        self.lines[line].store(expected, Ordering::SeqCst);
    }

    #[inline(always)]
    fn lock_line_spinning(&self, line: usize) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.lines[line].load(Ordering::SeqCst);
            if !Self::line_is_locked(v) && self.try_lock_line(line, v) {
                return v;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Non-transactional, strongly-isolated load of a heap word.
    ///
    /// If the word's cache line is currently being published by a committing
    /// hardware transaction (or updated by another strongly-isolated
    /// operation), the load waits until the publication completes.  On real
    /// hardware this window does not exist — a hardware commit makes all of
    /// its writes visible at a single instant — so waiting it out is what
    /// keeps the simulation's non-transactional readers from observing a
    /// state no real execution could produce (see `docs/ARCHITECTURE.md`,
    /// "Publication order").  The software read paths do not use this for
    /// their stripe versions: [`HtmSim::stripe_read`] waits on the data
    /// line only.
    #[inline(always)]
    pub fn nt_load(&self, addr: Addr) -> u64 {
        let line = &self.lines[addr.line()];
        if Self::line_is_locked(line.load(Ordering::SeqCst)) {
            Self::wait_unlocked(line);
        }
        self.mem.heap().load(addr)
    }

    /// Spins (then yields) until `line` is unlocked.
    #[cold]
    #[inline(never)]
    fn wait_unlocked(line: &AtomicU64) {
        let mut spins = 0u32;
        while Self::line_is_locked(line.load(Ordering::SeqCst)) {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// The software stripe read shared by TL2 and the RH slow paths: loads
    /// the stripe version at `ver_addr`, the word at `addr` and the version
    /// again, and accepts the word only if both versions are equal,
    /// unlocked and no newer than `tx_version`.
    ///
    /// Only the data load waits for an in-flight publication of its line;
    /// the version loads are plain.  That is sound because every writer
    /// makes the stripe version (or its lock word) visible before the data:
    /// a software writer changes data only while it holds the stripe lock,
    /// and a hardware commit stores its metadata words before its data
    /// words (see [`crate::HtmThread::commit`]).  So a data load that
    /// returns a newly published word is followed, in the `SeqCst` order,
    /// by a second version load that sees the lock or the new version, and
    /// the bracket rejects the read.  The data load's wait covers the other
    /// direction: a first version load that sees a hardware commit's new
    /// version came after that commit locked the data line.
    ///
    /// On rejection returns the abort cause and the version observed, as
    /// the read paths pass it to the clock's abort-time advance: `Locked`
    /// with `tx_version + 1` for a locked stripe, `Validation` with the
    /// first version read otherwise.
    #[inline(always)]
    pub fn stripe_read(
        &self,
        ver_addr: Addr,
        addr: Addr,
        tx_version: u64,
    ) -> Result<u64, (AbortCause, u64)> {
        // Resolve every cell before the first atomic, so nothing is
        // re-resolved between the ordered loads.
        let heap = self.mem.heap();
        let ver = heap.cell(ver_addr);
        let data = heap.cell(addr);
        let line = &self.lines[addr.line()];
        let ver_before = ver.load(Ordering::SeqCst);
        if Self::line_is_locked(line.load(Ordering::SeqCst)) {
            Self::wait_unlocked(line);
        }
        let value = data.load(Ordering::SeqCst);
        let ver_after = ver.load(Ordering::SeqCst);
        if ver_before == ver_after
            && !stamp::is_locked(ver_before)
            && stamp::decode_ts(ver_before) <= tx_version
        {
            Ok(value)
        } else {
            Err(Self::stripe_read_rejection(ver_before, tx_version))
        }
    }

    #[cold]
    fn stripe_read_rejection(ver_before: u64, tx_version: u64) -> (AbortCause, u64) {
        if stamp::is_locked(ver_before) {
            (AbortCause::Locked, tx_version + 1)
        } else {
            (AbortCause::Validation, stamp::decode_ts(ver_before))
        }
    }

    /// Typed variant of [`HtmSim::nt_load`]: strongly-isolated read of a
    /// typed cell, decoded through its [`Codec`].
    #[inline(always)]
    pub fn nt_read<T: Codec>(&self, cell: TxCell<T>) -> T {
        T::decode(self.nt_load(cell.addr()))
    }

    /// Typed variant of [`HtmSim::nt_store`]: strongly-isolated write of a
    /// typed cell.
    #[inline(always)]
    pub fn nt_write<T: Codec>(&self, cell: TxCell<T>, value: T) {
        self.nt_store(cell.addr(), value.encode())
    }

    /// Non-transactional, strongly-isolated store of a heap word.
    ///
    /// The line is locked for the duration of the store, its version is
    /// bumped, and the global write sequence advances — so every running
    /// hardware transaction that has the line in its read- or write-set will
    /// abort, exactly as a coherence invalidation would make it on real
    /// hardware.
    pub fn nt_store(&self, addr: Addr, value: u64) {
        let line = addr.line();
        let prev = self.lock_line_spinning(line);
        self.mem.heap().store(addr, value);
        self.unlock_line(line, prev);
        self.bump_write_seq();
    }

    /// Non-transactional, strongly-isolated compare-and-swap of a heap word.
    /// Returns `Ok(previous)` on success, `Err(actual)` on mismatch (in
    /// which case the line version is not bumped).
    pub fn nt_cas(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        let line = addr.line();
        let prev = self.lock_line_spinning(line);
        let actual = self.mem.heap().load(addr);
        if actual == current {
            self.mem.heap().store(addr, new);
            self.unlock_line(line, prev);
            self.bump_write_seq();
            Ok(actual)
        } else {
            self.unlock_line_unchanged(line, prev);
            Err(actual)
        }
    }

    /// Non-transactional, strongly-isolated fetch-and-add on a heap word,
    /// returning the previous value.
    pub fn nt_fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        let line = addr.line();
        let prev = self.lock_line_spinning(line);
        let old = self.mem.heap().load(addr);
        self.mem.heap().store(addr, old.wrapping_add(delta));
        self.unlock_line(line, prev);
        self.bump_write_seq();
        old
    }

    /// Non-transactional, strongly-isolated fetch-and-sub on a heap word,
    /// returning the previous value.
    pub fn nt_fetch_sub(&self, addr: Addr, delta: u64) -> u64 {
        self.nt_fetch_add(addr, 0u64.wrapping_sub(delta))
    }

    /// Non-transactional, strongly-isolated maximum on a heap word,
    /// returning the previous value.  Used by the GV clock schemes' abort-time
    /// advance: the bump must be conflict-visible so that concurrent
    /// fast-path hardware transactions that read the clock speculatively
    /// abort, which is what keeps the clock stable for the duration of every
    /// committed fast-path transaction (the linchpin of RH1's time-stamp
    /// invariant).
    pub fn nt_fetch_max(&self, addr: Addr, value: u64) -> u64 {
        let line = addr.line();
        let prev = self.lock_line_spinning(line);
        let old = self.mem.heap().load(addr);
        if value > old {
            self.mem.heap().store(addr, value);
            self.unlock_line(line, prev);
            self.bump_write_seq();
        } else {
            self.unlock_line_unchanged(line, prev);
        }
        old
    }
}

impl std::fmt::Debug for HtmSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmSim")
            .field("num_lines", &self.num_lines())
            .field("write_seq", &self.write_seq())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhtm_mem::MemConfig;

    fn sim() -> Arc<HtmSim> {
        let mem = Arc::new(TmMemory::new(MemConfig::with_data_words(1024)));
        HtmSim::new(mem, HtmConfig::default())
    }

    #[test]
    fn line_table_covers_whole_heap() {
        let s = sim();
        let words = s.mem().layout().total_words();
        assert_eq!(s.num_lines(), words.div_ceil(CACHE_LINE_WORDS));
    }

    #[test]
    fn nt_store_bumps_line_version_and_write_seq() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let line = addr.line();
        let v0 = s.line_version(line);
        let seq0 = s.write_seq();
        s.nt_store(addr, 99);
        assert_eq!(s.nt_load(addr), 99);
        assert_eq!(s.line_version(line), v0 + 2);
        assert_eq!(s.write_seq(), seq0 + 1);
    }

    #[test]
    fn nt_cas_success_and_failure() {
        let s = sim();
        let addr = s.mem().alloc(1);
        s.nt_store(addr, 5);
        let line = addr.line();
        let v_before = s.line_version(line);
        assert_eq!(s.nt_cas(addr, 5, 6), Ok(5));
        assert_eq!(s.nt_load(addr), 6);
        assert_eq!(s.line_version(line), v_before + 2);
        let v_mid = s.line_version(line);
        assert_eq!(s.nt_cas(addr, 5, 7), Err(6));
        assert_eq!(s.nt_load(addr), 6);
        assert_eq!(
            s.line_version(line),
            v_mid,
            "failed CAS must not bump the version"
        );
    }

    #[test]
    fn nt_fetch_add_and_sub() {
        let s = sim();
        let addr = s.mem().alloc(1);
        assert_eq!(s.nt_fetch_add(addr, 10), 0);
        assert_eq!(s.nt_fetch_add(addr, 5), 10);
        assert_eq!(s.nt_fetch_sub(addr, 3), 15);
        assert_eq!(s.nt_load(addr), 12);
    }

    #[test]
    fn nt_fetch_max_only_moves_forward() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let line = addr.line();
        assert_eq!(s.nt_fetch_max(addr, 10), 0);
        assert_eq!(s.nt_load(addr), 10);
        let v = s.line_version(line);
        assert_eq!(s.nt_fetch_max(addr, 5), 10);
        assert_eq!(s.nt_load(addr), 10);
        assert_eq!(
            s.line_version(line),
            v,
            "no-op max must not bump the version"
        );
        assert_eq!(s.nt_fetch_max(addr, 20), 10);
        assert_eq!(s.nt_load(addr), 20);
        assert_eq!(s.line_version(line), v + 2);
    }

    #[test]
    fn lock_encoding_is_low_bit() {
        assert!(!HtmSim::line_is_locked(0));
        assert!(HtmSim::line_is_locked(1));
        assert!(!HtmSim::line_is_locked(2));
        assert!(HtmSim::line_is_locked(2_000_001));
    }

    #[test]
    fn try_lock_and_unlock_cycle() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let line = addr.line();
        let v = s.line_version(line);
        assert!(s.try_lock_line(line, v));
        assert!(HtmSim::line_is_locked(s.line_version(line)));
        // Second lock attempt with a stale version fails.
        assert!(!s.try_lock_line(line, v));
        s.unlock_line(line, v);
        assert_eq!(s.line_version(line), v + 2);
        // Abort-path unlock restores the old version.
        let v2 = s.line_version(line);
        assert!(s.try_lock_line(line, v2));
        s.unlock_line_unchanged(line, v2);
        assert_eq!(s.line_version(line), v2);
    }

    /// A data word and its stripe version word.
    fn stripe_word(s: &HtmSim) -> (Addr, Addr) {
        let addr = s.mem().alloc(1);
        let layout = s.mem().layout();
        (layout.stripe_version_addr(layout.stripe_of(addr)), addr)
    }

    #[test]
    fn stripe_read_of_a_locked_stripe_aborts_locked() {
        let s = sim();
        let (ver, addr) = stripe_word(&s);
        s.nt_store(ver, stamp::lock_word(3));
        assert_eq!(s.stripe_read(ver, addr, 10), Err((AbortCause::Locked, 11)));
    }

    #[test]
    fn stripe_read_of_a_newer_stripe_aborts_with_its_version() {
        let s = sim();
        let (ver, addr) = stripe_word(&s);
        s.nt_store(ver, stamp::encode_ts(12));
        assert_eq!(
            s.stripe_read(ver, addr, 11),
            Err((AbortCause::Validation, 12))
        );
    }

    #[test]
    fn stripe_read_returns_the_word_under_an_old_enough_version() {
        let s = sim();
        let (ver, addr) = stripe_word(&s);
        s.nt_store(addr, 42);
        s.nt_store(ver, stamp::encode_ts(11));
        assert_eq!(s.stripe_read(ver, addr, 11), Ok(42));
        assert_eq!(s.stripe_read(ver, addr, 20), Ok(42));
    }

    #[test]
    fn stripe_read_waits_for_the_data_line_to_be_published() {
        let s = sim();
        let (ver, addr) = stripe_word(&s);
        // Another agent holds the data line mid-publish.
        let line = addr.line();
        let v = s.line_version(line);
        assert!(s.try_lock_line(line, v));
        s.mem().heap().store(addr, 7);
        let returned = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let started = Arc::new(std::sync::Barrier::new(2));
        let reader = {
            let (s, returned, started) =
                (Arc::clone(&s), Arc::clone(&returned), Arc::clone(&started));
            std::thread::spawn(move || {
                started.wait();
                let result = s.stripe_read(ver, addr, 0);
                returned.store(true, Ordering::SeqCst);
                result
            })
        };
        // A reader that does not wait returns within microseconds of the
        // barrier; one that waits is still blocked after the grace period.
        started.wait();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            !returned.load(Ordering::SeqCst),
            "the data load must wait while its line is locked"
        );
        s.unlock_line(line, v);
        assert_eq!(reader.join().unwrap(), Ok(7));
    }

    #[test]
    fn concurrent_nt_fetch_add_is_atomic() {
        let s = sim();
        let addr = s.mem().alloc(1);
        let threads = 8;
        let per = 5_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..per {
                        s.nt_fetch_add(addr, 1);
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
