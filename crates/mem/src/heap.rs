//! The word-addressed transactional heap.
//!
//! [`TxHeap`] is a segmented array of `AtomicU64` words.  Every access the
//! protocols perform — speculative or not — ultimately lands here.  The heap
//! deliberately exposes only *word* operations (load, store, CAS,
//! fetch-add): the transactional semantics (buffering, conflict detection,
//! versioning) are implemented by the runtimes layered on top.
//!
//! All transactional-path orderings are `SeqCst`.  The protocols in the
//! paper are described on a TSO machine (x86) where every shared access is
//! strongly ordered enough for the algorithms' arguments; `SeqCst` keeps the
//! simulation faithful on any host and keeps the safety argument simple.
//! The cost is identical for every runtime, so relative comparisons (the
//! paper's subject) are unaffected.  The `*_relaxed` variants exist only for
//! single-threaded construction (prefill before any worker spawns; the
//! spawn itself is the synchronisation point).
//!
//! ## Segment table
//!
//! The heap used to be one flat `Box<[AtomicU64]>`, which meant a
//! million-key shard paid for — and zeroed — its whole worst-case footprint
//! at construction.  It is now a table of fixed-size segments
//! ([`SEGMENT_WORDS`] words each; the last segment is truncated to the
//! configured length so out-of-bounds accesses still panic at the exact
//! word).  The [`Addr`] space is unchanged and stable: `addr >>
//! SEGMENT_SHIFT` selects the segment, the low bits index into it.
//! Segments materialise lazily on first touch, so construction is O(1) and
//! resident memory is proportional to the data actually touched, not to
//! `MemConfig::data_words`.
//!
//! A heap of at most [`FLAT_MAX_WORDS`] words — every closed-loop benchmark
//! workload; only the million-key KV shards exceed it — skips the table
//! entirely: it is stored as one flat, eagerly-zeroed array, so the word
//! path keeps the original single-bounds-check load.  The segment
//! indirection (an `OnceLock` acquire plus a second bounds check, on a
//! software read path that performs three heap loads per transactional
//! read: stripe version, data, stripe version) was
//! measured at 30-45% on the pointer-chasing read workloads (rbtree,
//! sorted list) under TL2; the flat fast path confines that cost to heaps
//! big enough that lazy materialisation genuinely pays for it.
//!
//! ## Layout note (cache-line padding audit)
//!
//! Each segment is a flat `Box<[AtomicU64]>` rather than an array of
//! 64-byte-aligned line groups.  Storing it as `[repr(align(64))]` lines
//! was measured and rejected: the extra index level (plus the word-granular
//! bound check the rounded-up line array then needs) costs several percent
//! on the software read path, which performs three heap loads (and one
//! line-table load, see `HtmSim::stripe_read`) per transactional read,
//! while the alignment only tightens false-sharing at
//! line *boundaries* that the region map already keeps metadata away from.
//! Hot words that need real isolation are padded individually with
//! [`crate::CachePadded`] instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::addr::Addr;

/// log2 of the words in one fully-sized heap segment: 2^18 words = 2 MiB.
///
/// Small enough that toy test heaps stay one short segment, large enough
/// that a million-key shard is a few dozen segments.
pub const SEGMENT_SHIFT: usize = 18;

/// Words in one fully-sized heap segment (the last segment of a heap is
/// truncated to the configured length).
pub const SEGMENT_WORDS: usize = 1 << SEGMENT_SHIFT;

/// Largest heap (in words — 2^21 words = 16 MiB) stored flat rather than
/// segmented.  Below this, eager zero-fill costs at most a few
/// milliseconds and the hot word path keeps its single bounds check;
/// above it (the million-key KV shards, tens of MiB per shard), lazy
/// per-segment materialisation wins.
pub const FLAT_MAX_WORDS: usize = 1 << 21;

/// One lazily-materialised run of heap words.
struct Segment {
    words: OnceLock<Box<[AtomicU64]>>,
    len: usize,
}

impl Segment {
    /// The segment's words, zero-filled on first touch.
    #[inline]
    fn words(&self) -> &[AtomicU64] {
        self.words.get_or_init(|| {
            let mut v = Vec::with_capacity(self.len);
            v.resize_with(self.len, || AtomicU64::new(0));
            v.into_boxed_slice()
        })
    }
}

/// A fixed-size, word-addressed shared heap of `AtomicU64` cells, stored
/// flat up to [`FLAT_MAX_WORDS`] and as a table of lazily-materialised
/// segments behind a stable [`Addr`] space otherwise.
///
/// The two representations are sibling slices (exactly one is non-empty)
/// rather than an enum: on the hot path the flat slice's bounds check
/// doubles as the representation dispatch, so flat heaps pay no
/// discriminant load — `cell` compiles to the same single-bounds-check
/// indexing the pre-segmentation heap had.
pub struct TxHeap {
    /// The whole heap for flat heaps; empty for segmented ones.
    flat: Box<[AtomicU64]>,
    /// The segment table for segmented heaps; empty for flat ones.
    segments: Box<[Segment]>,
    len: usize,
}

impl TxHeap {
    /// Creates a heap of `len` words, all logically zero.  Heaps up to
    /// [`FLAT_MAX_WORDS`] are allocated (and zeroed) eagerly; larger heaps
    /// materialise each segment on first access, so construction cost does
    /// not scale with `len`.
    pub fn new(len: usize) -> Self {
        let (flat, segments) = if len <= FLAT_MAX_WORDS {
            let mut v = Vec::with_capacity(len);
            v.resize_with(len, || AtomicU64::new(0));
            (v.into_boxed_slice(), Box::from([]))
        } else {
            let segments: Box<[Segment]> = (0..len.div_ceil(SEGMENT_WORDS))
                .map(|i| Segment {
                    words: OnceLock::new(),
                    len: (len - i * SEGMENT_WORDS).min(SEGMENT_WORDS),
                })
                .collect();
            (Box::from([]), segments)
        };
        TxHeap {
            flat,
            segments,
            len,
        }
    }

    /// Number of words in the heap.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the heap has no words (only possible for a
    /// zero-sized configuration, which no runtime uses).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of segments backing this heap's address space (1 for
    /// a flat heap).
    pub fn segment_count(&self) -> usize {
        if self.segments.is_empty() {
            1
        } else {
            self.segments.len()
        }
    }

    /// Number of segments materialised so far — the resident footprint, as
    /// opposed to the configured address space.  A flat heap is fully
    /// resident from construction.
    pub fn resident_segments(&self) -> usize {
        if self.segments.is_empty() {
            1
        } else {
            self.segments
                .iter()
                .filter(|s| s.words.get().is_some())
                .count()
        }
    }

    /// The atomic cell holding the word at `addr`.  A caller that makes
    /// several ordered loads of the same words (the simulator's bracketed
    /// stripe read) resolves their cells once, up front, instead of
    /// re-resolving the heap's representation after every atomic access.
    #[inline(always)]
    pub fn cell(&self, addr: Addr) -> &AtomicU64 {
        // All indexings panic on out-of-range addresses: the empty-table
        // segment lookup for a flat heap's out-of-range address, the
        // segment lookup for addresses past the last segment, the word
        // lookup for addresses inside the (truncated) last segment but
        // past `len`.
        if let Some(cell) = self.flat.get(addr.0) {
            return cell;
        }
        self.segmented_cell(addr)
    }

    /// The segment-table lookup, deliberately outlined: inlining the
    /// `OnceLock` materialisation machinery into every heap-access site
    /// bloats the runtimes' hot loops enough to cost several percent on
    /// the flat (benchmark-sized) heaps that never execute it.  Segmented
    /// heaps pay one direct call per access, which is noise next to their
    /// per-access second bounds check.
    #[cold]
    #[inline(never)]
    fn segmented_cell(&self, addr: Addr) -> &AtomicU64 {
        &self.segments[addr.0 >> SEGMENT_SHIFT].words()[addr.0 & (SEGMENT_WORDS - 1)]
    }

    /// Plain (non-transactional) load of a word.
    #[inline(always)]
    pub fn load(&self, addr: Addr) -> u64 {
        self.cell(addr).load(Ordering::SeqCst)
    }

    /// Plain (non-transactional) store of a word.
    #[inline(always)]
    pub fn store(&self, addr: Addr, value: u64) {
        self.cell(addr).store(value, Ordering::SeqCst)
    }

    /// Relaxed load of a word.  Only sound on data that no other thread is
    /// concurrently writing — i.e. during single-threaded construction and
    /// quiescent inspection.
    #[inline(always)]
    pub fn load_relaxed(&self, addr: Addr) -> u64 {
        self.cell(addr).load(Ordering::Relaxed)
    }

    /// Relaxed store of a word, for bulk single-threaded initialisation
    /// (prefill) before any worker thread exists.  Spawning the workers is
    /// the synchronisation point that publishes these stores.
    #[inline(always)]
    pub fn store_relaxed(&self, addr: Addr, value: u64) {
        self.cell(addr).store(value, Ordering::Relaxed)
    }

    /// Compare-and-swap on a word. Returns `Ok(previous)` when the swap
    /// happened and `Err(actual)` when the current value differed from
    /// `current`.
    #[inline(always)]
    pub fn cas(&self, addr: Addr, current: u64, new: u64) -> Result<u64, u64> {
        self.cell(addr)
            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
    }

    /// Atomic fetch-and-add, returning the previous value.
    ///
    /// RH2 uses this to flip bits in the stripe read masks (the paper
    /// explicitly prefers fetch-and-add over CAS loops for the visibility
    /// bits) and the fallback counters are maintained with it as well.
    #[inline(always)]
    pub fn fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.cell(addr).fetch_add(delta, Ordering::SeqCst)
    }

    /// Atomic wrapping fetch-and-sub, returning the previous value.
    #[inline(always)]
    pub fn fetch_sub(&self, addr: Addr, delta: u64) -> u64 {
        self.cell(addr).fetch_sub(delta, Ordering::SeqCst)
    }

    /// Atomic fetch-and-or, returning the previous value.
    #[inline(always)]
    pub fn fetch_or(&self, addr: Addr, bits: u64) -> u64 {
        self.cell(addr).fetch_or(bits, Ordering::SeqCst)
    }

    /// Atomic fetch-and-and, returning the previous value.
    #[inline(always)]
    pub fn fetch_and(&self, addr: Addr, bits: u64) -> u64 {
        self.cell(addr).fetch_and(bits, Ordering::SeqCst)
    }

    /// Atomic maximum, returning the previous value.
    #[inline(always)]
    pub fn fetch_max(&self, addr: Addr, value: u64) -> u64 {
        self.cell(addr).fetch_max(value, Ordering::SeqCst)
    }

    /// Fills the address range `[start, start + len)` with `value` using
    /// plain stores.  Used by workload initialisation only.
    pub fn fill(&self, start: Addr, len: usize, value: u64) {
        for i in 0..len {
            self.store(start.offset(i), value);
        }
    }

    /// Fills the address range `[start, start + len)` with `value` using
    /// relaxed stores — the bulk-prefill path.  Same soundness contract as
    /// [`TxHeap::store_relaxed`]: single-threaded construction only.
    pub fn fill_relaxed(&self, start: Addr, len: usize, value: u64) {
        for i in 0..len {
            self.store_relaxed(start.offset(i), value);
        }
    }
}

impl std::fmt::Debug for TxHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxHeap")
            .field("len_words", &self.len())
            .field("len_bytes", &(self.len() * 8))
            .field("segments", &self.segment_count())
            .field("resident_segments", &self.resident_segments())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_heap_is_zeroed() {
        let h = TxHeap::new(64);
        assert_eq!(h.len(), 64);
        assert!(!h.is_empty());
        for i in 0..64 {
            assert_eq!(h.load(Addr(i)), 0);
        }
    }

    #[test]
    fn store_then_load_roundtrip() {
        let h = TxHeap::new(16);
        h.store(Addr(3), 0xdead_beef);
        assert_eq!(h.load(Addr(3)), 0xdead_beef);
        assert_eq!(h.load(Addr(2)), 0);
        assert_eq!(h.load(Addr(4)), 0);
    }

    #[test]
    fn relaxed_roundtrip_matches_seqcst_view() {
        let h = TxHeap::new(16);
        h.store_relaxed(Addr(5), 77);
        assert_eq!(h.load(Addr(5)), 77);
        h.store(Addr(6), 78);
        assert_eq!(h.load_relaxed(Addr(6)), 78);
        h.fill_relaxed(Addr(0), 4, 9);
        for i in 0..4 {
            assert_eq!(h.load(Addr(i)), 9);
        }
    }

    #[test]
    fn cas_success_and_failure() {
        let h = TxHeap::new(4);
        h.store(Addr(0), 7);
        assert_eq!(h.cas(Addr(0), 7, 9), Ok(7));
        assert_eq!(h.load(Addr(0)), 9);
        assert_eq!(h.cas(Addr(0), 7, 11), Err(9));
        assert_eq!(h.load(Addr(0)), 9);
    }

    #[test]
    fn fetch_add_and_sub() {
        let h = TxHeap::new(4);
        assert_eq!(h.fetch_add(Addr(1), 5), 0);
        assert_eq!(h.fetch_add(Addr(1), 5), 5);
        assert_eq!(h.load(Addr(1)), 10);
        assert_eq!(h.fetch_sub(Addr(1), 4), 10);
        assert_eq!(h.load(Addr(1)), 6);
    }

    #[test]
    fn fetch_or_and_and_max() {
        let h = TxHeap::new(4);
        assert_eq!(h.fetch_or(Addr(0), 0b1010), 0);
        assert_eq!(h.fetch_and(Addr(0), 0b0010), 0b1010);
        assert_eq!(h.load(Addr(0)), 0b0010);
        assert_eq!(h.fetch_max(Addr(0), 100), 0b0010);
        assert_eq!(h.fetch_max(Addr(0), 3), 100);
        assert_eq!(h.load(Addr(0)), 100);
    }

    #[test]
    fn fill_covers_exact_range() {
        let h = TxHeap::new(32);
        h.fill(Addr(8), 8, 42);
        assert_eq!(h.load(Addr(7)), 0);
        for i in 8..16 {
            assert_eq!(h.load(Addr(i)), 42);
        }
        assert_eq!(h.load(Addr(16)), 0);
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let h = Arc::new(TxHeap::new(8));
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        h.fetch_add(Addr(0), 1);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.load(Addr(0)), (threads * per_thread) as u64);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_access_panics() {
        let h = TxHeap::new(4);
        let _ = h.load(Addr(4));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_past_the_segment_table_panics() {
        let h = TxHeap::new(4);
        let _ = h.load(Addr(SEGMENT_WORDS + 1));
    }

    #[test]
    fn heaps_up_to_the_flat_threshold_are_flat_and_fully_resident() {
        let h = TxHeap::new(FLAT_MAX_WORDS);
        assert_eq!(h.segment_count(), 1);
        assert_eq!(h.resident_segments(), 1, "flat heaps are eager");
        h.store(Addr(FLAT_MAX_WORDS - 1), 5);
        assert_eq!(h.load(Addr(FLAT_MAX_WORDS - 1)), 5);
    }

    #[test]
    fn segments_materialise_lazily_and_addresses_cross_boundaries() {
        let len = FLAT_MAX_WORDS + 2 * SEGMENT_WORDS + 10;
        let h = TxHeap::new(len);
        assert_eq!(h.len(), len);
        assert_eq!(h.segment_count(), FLAT_MAX_WORDS / SEGMENT_WORDS + 3);
        assert_eq!(h.resident_segments(), 0, "construction touches nothing");
        // A store in the middle segment materialises only that segment.
        h.store(Addr(SEGMENT_WORDS + 3), 11);
        assert_eq!(h.resident_segments(), 1);
        assert_eq!(h.load(Addr(SEGMENT_WORDS + 3)), 11);
        // Words adjacent across a segment boundary are independent.
        h.store(Addr(SEGMENT_WORDS - 1), 1);
        h.store(Addr(SEGMENT_WORDS), 2);
        assert_eq!(h.load(Addr(SEGMENT_WORDS - 1)), 1);
        assert_eq!(h.load(Addr(SEGMENT_WORDS)), 2);
        assert_eq!(h.resident_segments(), 2);
        // The truncated last segment serves its exact range.
        h.store(Addr(len - 1), 3);
        assert_eq!(h.load(Addr(len - 1)), 3);
        assert_eq!(h.resident_segments(), 3);
    }

    #[test]
    #[should_panic]
    fn truncated_last_segment_still_bounds_checks() {
        let len = FLAT_MAX_WORDS + 2 * SEGMENT_WORDS + 10;
        let h = TxHeap::new(len);
        let _ = h.load(Addr(len));
    }
}
