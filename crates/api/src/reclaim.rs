//! Epoch-based reclamation: typed node pools over the per-thread arenas.
//!
//! The structures used to manage free nodes with a transactional
//! freelist — a linked list *inside* the heap whose every push/pop joined
//! the surrounding transaction's read and write sets.  That coupled spare management to the hottest transactions and
//! still never returned memory: an unlinked node could only ever be reused
//! by the one structure whose freelist held it, and only through more
//! transactional traffic.
//!
//! [`NodePool`] replaces it.  Spare management lives entirely **outside**
//! the transactions, in ordinary Rust memory (per-thread free and retired
//! lists of [`TxPtr`]s); only the nodes themselves live in the
//! transactional heap.  The life cycle:
//!
//! 1. **Allocate** ([`NodePool::try_alloc`]) — pop a recycled node, or
//!    carve a fresh one from the thread's arena
//!    ([`TmMemory::arena_try_alloc`]).  Always done *before* the
//!    transaction starts: an allocation inside a transaction body would
//!    repeat on every abort/retry.
//! 2. **Pin** ([`EpochGuard`]) — around the transaction that links or
//!    unlinks the node.
//! 3. **Retire** ([`NodePool::retire`]) — after the unlinking transaction
//!    *committed* (never inside the body: an aborted attempt unlinks
//!    nothing, so its victim must not be retired).  The node is stamped
//!    with the current epoch.
//! 4. **Reclaim** — a retired node returns to the free list once the
//!    epoch set has advanced twice past its retire epoch
//!    ([`EpochSet::is_safe`]), i.e. once no thread can still hold a
//!    reference acquired before the unlink committed.
//!
//! ## Safety argument
//!
//! Transactional readers are already protected by the protocols
//! themselves: every runtime validates stripe versions (or relies on HTM
//! conflict detection), so a transaction that read a link to a node which
//! was then unlinked, reclaimed and rewritten observes a version bump and
//! aborts — reuse-ABA cannot commit.  The epochs add the *generic*
//! guarantee the protocols cannot: a node is never **rewritten** while any
//! pinned operation that could have acquired a pre-unlink reference is
//! still running, which is what makes non-transactional consumers
//! (quiescent snapshots, the history checkers, future lock-free readers)
//! and cross-thread node reuse sound.  Every physical reclaim re-checks
//! [`EpochSet::is_safe`]; a violation (only reachable through the
//! test-only [`NodePool::reclaim_ignoring_epochs`] hook) is counted in
//! [`NodePool::unsafe_reclaims`], which the reclamation self-test asserts
//! on.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rhtm_mem::{CachePadded, EpochSet, MemMetrics, OutOfMemory, TmMemory};

use crate::typed::{Record, TxPtr};

/// An RAII pin on an [`EpochSet`]: pins the calling thread's slot at the
/// current epoch on construction, unpins on drop.
///
/// Hold one around any operation that may traverse shared nodes while a
/// concurrent remove could retire them.  Order matters on the mutating
/// paths: allocate spares *before* pinning (a thread pinned at epoch `e`
/// blocks the advances its own allocation needs to recycle memory), and
/// retire *after* dropping the guard.
pub struct EpochGuard<'a> {
    epochs: &'a EpochSet,
    thread_id: usize,
    epoch: u64,
}

impl<'a> EpochGuard<'a> {
    /// Pins `thread_id` at the current epoch.
    pub fn pin(epochs: &'a EpochSet, thread_id: usize) -> Self {
        let epoch = epochs.pin(thread_id);
        EpochGuard {
            epochs,
            thread_id,
            epoch,
        }
    }

    /// The epoch this guard pinned.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.epochs.unpin(self.thread_id);
    }
}

impl std::fmt::Debug for EpochGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochGuard")
            .field("thread_id", &self.thread_id)
            .field("epoch", &self.epoch)
            .finish()
    }
}

/// How many reclaim-and-retry rounds a full-heap allocation waits for
/// pending retirees to age out before reporting [`OutOfMemory`].  Each
/// round attempts two epoch advances, sweeps every slot, and yields, so
/// the bound comfortably outlasts any single pinned transaction attempt
/// (backoff spins are clamped) while still failing fast — within tens of
/// milliseconds — when the heap is genuinely undersized.
const ALLOC_RESCUE_ROUNDS: usize = 4096;

/// One thread's free and retired node lists.  Ordinary Rust memory — the
/// transactional heap holds only the nodes, never the bookkeeping.
struct PoolSlot<R: Record> {
    free: Vec<TxPtr<R>>,
    /// Retired nodes with their retire epoch, oldest first (epochs are
    /// monotone per thread, so the front is always the first reclaimable).
    retired: VecDeque<(u64, TxPtr<R>)>,
}

impl<R: Record> Default for PoolSlot<R> {
    fn default() -> Self {
        PoolSlot {
            free: Vec::new(),
            retired: VecDeque::new(),
        }
    }
}

/// A typed node pool with epoch-based reclamation, shared by all threads
/// of one structure.
///
/// Each thread owns a [`CachePadded`] slot (free list + retired queue)
/// guarded by a `Mutex` that is only ever contended by quiescent
/// inspection ([`NodePool::pending`] / [`NodePool::cached`]), so the hot
/// path is an uncontended lock plus a `Vec` push/pop.
pub struct NodePool<R: Record> {
    mem: Arc<TmMemory>,
    slots: Box<[CachePadded<Mutex<PoolSlot<R>>>]>,
    retired_total: AtomicU64,
    reclaimed_total: AtomicU64,
    fresh_total: AtomicU64,
    unsafe_reclaims: AtomicU64,
}

impl<R: Record> NodePool<R> {
    /// A pool over `mem`, with one slot per configured thread
    /// (`MemConfig::max_threads`).
    pub fn new(mem: Arc<TmMemory>) -> Self {
        let threads = mem.layout().config().max_threads;
        let slots = (0..threads)
            .map(|_| CachePadded::new(Mutex::new(PoolSlot::default())))
            .collect();
        NodePool {
            mem,
            slots,
            retired_total: AtomicU64::new(0),
            reclaimed_total: AtomicU64::new(0),
            fresh_total: AtomicU64::new(0),
            unsafe_reclaims: AtomicU64::new(0),
        }
    }

    /// The memory this pool allocates from.
    pub fn mem(&self) -> &Arc<TmMemory> {
        &self.mem
    }

    #[inline]
    fn slot(&self, thread_id: usize) -> std::sync::MutexGuard<'_, PoolSlot<R>> {
        // A poisoned slot means a panic mid-push/pop on plain Vec ops;
        // the lists are still structurally sound, so keep going.
        match self.slots[thread_id % self.slots.len()].lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Moves every reclaimable retiree (epoch safely passed) of `slot`
    /// onto its free list.
    fn harvest(&self, slot: &mut PoolSlot<R>, metrics: &mut MemMetrics) {
        let epochs = self.mem.epochs();
        while let Some(&(epoch, node)) = slot.retired.front() {
            if !epochs.is_safe(epoch) {
                break;
            }
            slot.retired.pop_front();
            slot.free.push(node);
            metrics.reclaimed += 1;
            self.reclaimed_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Allocates one node for `thread_id`, preferring recycled memory.
    ///
    /// Must be called **unpinned** and outside any transaction: the
    /// reclaim path advances the epoch set, which the caller's own pin
    /// would block, and a fresh arena allocation inside a transaction
    /// body would leak one node per abort.  Recycling order: pop the free
    /// list; else harvest safely-aged retirees; else nudge the epoch
    /// forward (up to the two advances a fresh retiree needs) and harvest
    /// again; else, while any retiree is pending anywhere, steal a
    /// recycled node from another thread's slot; only then carve new
    /// words from the thread's arena.
    pub fn try_alloc(
        &self,
        thread_id: usize,
        metrics: &mut MemMetrics,
    ) -> Result<TxPtr<R>, OutOfMemory> {
        {
            let mut slot = self.slot(thread_id);
            if let Some(node) = slot.free.pop() {
                return Ok(node);
            }
            self.harvest(&mut slot, metrics);
            if slot.retired.front().is_some() {
                let epochs = self.mem.epochs();
                for _ in 0..2 {
                    if epochs.try_advance() {
                        metrics.epoch_advances += 1;
                    }
                }
                self.harvest(&mut slot, metrics);
            }
            if let Some(node) = slot.free.pop() {
                return Ok(node);
            }
        }
        // The local slot is dry — steal before carving fresh words.
        // Per-thread recycling alone is unbounded under skewed mixes: a
        // thread whose draws lean toward inserts keeps allocating while
        // another thread's slot piles up retirees, growing the heap for
        // the run's whole duration (a shared transactional freelist never
        // had this failure mode).  The scan is gated on the global pending
        // count so pure growth, with nothing recyclable anywhere, goes
        // straight to the arena.
        if self.retired_total.load(Ordering::Relaxed) > self.reclaimed_total.load(Ordering::Relaxed)
        {
            // Age the pending retirees first: the local block only nudges
            // the epoch when *this* slot holds retirees, and the ones we
            // are about to steal live elsewhere.
            let epochs = self.mem.epochs();
            for _ in 0..2 {
                if epochs.try_advance() {
                    metrics.epoch_advances += 1;
                }
            }
            let n = self.slots.len();
            // Reduce before adding: `slot()` wraps anyway, but the sum
            // itself must not overflow for out-of-range thread ids, which
            // `arena_try_alloc` deliberately accepts.
            let tid = thread_id % n;
            for i in 1..n {
                let mut slot = self.slot(tid + i);
                self.harvest(&mut slot, metrics);
                if let Some(node) = slot.free.pop() {
                    return Ok(node);
                }
            }
        }
        let oom = match self.mem.arena_try_alloc(thread_id, R::WORDS) {
            Ok(addr) => {
                metrics.alloc_words += R::WORDS as u64;
                self.fresh_total.fetch_add(1, Ordering::Relaxed);
                return Ok(TxPtr::new(addr));
            }
            Err(oom) => oom,
        };
        // The heap is full.  If retirees are pending, they are stuck
        // behind a straggler pin — typically a thread paced out by its
        // retry policy mid-transaction — and the right response is
        // backpressure, not failure: a correctly-sized workload must not
        // OOM because reclamation briefly lost the race with allocation.
        // Wait (bounded, so genuine undersizing still errors) for the
        // epoch to turn over and retry the reclaim paths.
        for _ in 0..ALLOC_RESCUE_ROUNDS {
            let epochs = self.mem.epochs();
            for _ in 0..2 {
                if epochs.try_advance() {
                    metrics.epoch_advances += 1;
                }
            }
            let tid = thread_id % self.slots.len();
            for i in 0..self.slots.len() {
                let mut slot = self.slot(tid + i);
                self.harvest(&mut slot, metrics);
                if let Some(node) = slot.free.pop() {
                    return Ok(node);
                }
            }
            if self.retired_total.load(Ordering::Relaxed)
                <= self.reclaimed_total.load(Ordering::Relaxed)
            {
                break;
            }
            std::thread::yield_now();
        }
        Err(oom)
    }

    /// Retires a node that a **committed** transaction unlinked.  The node
    /// becomes reclaimable two epoch advances from now.
    ///
    /// Never call this for a transaction attempt that aborted — the node
    /// is still linked.  The structure wrappers express this by resetting
    /// their victim capture at the top of each closure attempt and
    /// retiring only after `execute` returns.
    pub fn retire(&self, thread_id: usize, node: TxPtr<R>, metrics: &mut MemMetrics) {
        let epoch = self.mem.epochs().current();
        self.slot(thread_id).retired.push_back((epoch, node));
        metrics.retired += 1;
        self.retired_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Returns an allocated-but-never-published node (an unused spare)
    /// straight to the free list — no epoch ageing needed, nothing ever
    /// saw it.
    pub fn give_back(&self, thread_id: usize, node: TxPtr<R>) {
        self.slot(thread_id).free.push(node);
    }

    /// Total nodes ever retired.
    pub fn retired_count(&self) -> u64 {
        self.retired_total.load(Ordering::SeqCst)
    }

    /// Total retired nodes physically reclaimed onto a free list.
    pub fn reclaimed_count(&self) -> u64 {
        self.reclaimed_total.load(Ordering::SeqCst)
    }

    /// Total fresh (arena/global) node allocations.
    pub fn fresh_count(&self) -> u64 {
        self.fresh_total.load(Ordering::SeqCst)
    }

    /// Physical reclaims that happened although [`EpochSet::is_safe`] said
    /// the retire epoch had **not** safely passed.  Always zero through
    /// the public API; the mutation hook
    /// [`NodePool::reclaim_ignoring_epochs`] exists to prove this counter
    /// actually fires (see `tests/reclamation.rs`).
    pub fn unsafe_reclaims(&self) -> u64 {
        self.unsafe_reclaims.load(Ordering::SeqCst)
    }

    /// Retired nodes not yet reclaimed (in-flight), measured by walking
    /// the actual queues.  At quiescence this must equal
    /// `retired_count() - reclaimed_count()` — the leak-test identity.
    pub fn pending(&self) -> usize {
        self.slots
            .iter()
            .map(|s| match s.lock() {
                Ok(guard) => guard.retired.len(),
                Err(poisoned) => poisoned.into_inner().retired.len(),
            })
            .sum()
    }

    /// Nodes sitting on the free lists, measured by walking them.
    pub fn cached(&self) -> usize {
        self.slots
            .iter()
            .map(|s| match s.lock() {
                Ok(guard) => guard.free.len(),
                Err(poisoned) => poisoned.into_inner().free.len(),
            })
            .sum()
    }

    /// Drains every retired queue at quiescence (no live pins except
    /// possibly the caller's own threads being done): advances the epoch
    /// set past the newest retiree and harvests every slot.  Returns the
    /// number of nodes reclaimed.  Used by leak tests to prove
    /// `retired == reclaimed` once nothing is in flight.
    pub fn drain_quiescent(&self, metrics: &mut MemMetrics) -> usize {
        let epochs = self.mem.epochs();
        // Two advances age the newest possible retiree out; extra failed
        // attempts are harmless (a live pin just stops the drain early).
        for _ in 0..2 {
            if epochs.try_advance() {
                metrics.epoch_advances += 1;
            }
        }
        let mut drained = 0;
        for i in 0..self.slots.len() {
            let mut slot = self.slot(i);
            let before = slot.retired.len();
            self.harvest(&mut slot, metrics);
            drained += before - slot.retired.len();
        }
        drained
    }

    /// Test-only mutation hook: drains `thread_id`'s retired queue onto
    /// the free list **without waiting for epochs**, counting every entry
    /// whose epoch had not safely passed in [`NodePool::unsafe_reclaims`].
    ///
    /// This deliberately breaks the reclamation contract so the self-test
    /// can prove a too-early reclaim is detected; never call it from
    /// production code.
    #[doc(hidden)]
    pub fn reclaim_ignoring_epochs(&self, thread_id: usize, metrics: &mut MemMetrics) -> usize {
        let epochs = self.mem.epochs();
        let mut slot = self.slot(thread_id);
        let mut drained = 0;
        while let Some((epoch, node)) = slot.retired.pop_front() {
            if !epochs.is_safe(epoch) {
                self.unsafe_reclaims.fetch_add(1, Ordering::SeqCst);
            }
            slot.free.push(node);
            metrics.reclaimed += 1;
            self.reclaimed_total.fetch_add(1, Ordering::Relaxed);
            drained += 1;
        }
        drained
    }
}

impl<R: Record> std::fmt::Debug for NodePool<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePool")
            .field("retired", &self.retired_count())
            .field("reclaimed", &self.reclaimed_count())
            .field("fresh", &self.fresh_count())
            .field("pending", &self.pending())
            .field("cached", &self.cached())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::{LayoutBuilder, TxLayout};
    use rhtm_mem::MemConfig;

    struct Node;
    const NODE: (TxLayout<Node>,) = {
        let b = LayoutBuilder::<Node>::new();
        let b = b.pad_to(4);
        (b.finish(),)
    };
    impl Record for Node {
        const LAYOUT: TxLayout<Node> = NODE.0;
    }

    fn mem() -> Arc<TmMemory> {
        Arc::new(TmMemory::new(MemConfig::with_data_words(1 << 14)))
    }

    #[test]
    fn guard_pins_and_unpins() {
        let mem = mem();
        let epochs = mem.epochs();
        {
            let g = EpochGuard::pin(epochs, 0);
            assert_eq!(g.epoch(), epochs.current());
            assert!(epochs.try_advance(), "a current pin does not block");
            assert!(!epochs.try_advance(), "a lagging pin does");
        }
        assert!(epochs.try_advance(), "dropping the guard unpins");
    }

    #[test]
    fn retire_then_alloc_recycles_after_two_advances() {
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        let node = pool.try_alloc(0, &mut m).unwrap();
        assert_eq!(m.alloc_words, Node::WORDS as u64);
        pool.retire(0, node, &mut m);
        assert_eq!(m.retired, 1);
        // The next allocation cannot reuse the node until two epoch
        // advances — which try_alloc drives itself when unpinned — and
        // must return exactly the retired node, not fresh words.
        let global_before = mem.remaining_words();
        let again = pool.try_alloc(0, &mut m).unwrap();
        assert_eq!(again, node);
        assert_eq!(m.reclaimed, 1);
        assert!(m.epoch_advances >= 2);
        assert_eq!(mem.remaining_words(), global_before);
        assert_eq!(pool.retired_count(), 1);
        assert_eq!(pool.reclaimed_count(), 1);
        assert_eq!(pool.unsafe_reclaims(), 0);
    }

    #[test]
    fn a_foreign_pin_forces_fresh_allocation() {
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        let node = pool.try_alloc(0, &mut m).unwrap();
        let _guard = EpochGuard::pin(mem.epochs(), 1);
        pool.retire(0, node, &mut m);
        // Thread 1's pin blocks the advances, so the retiree cannot be
        // recycled and the pool must fall back to fresh memory.
        let other = pool.try_alloc(0, &mut m).unwrap();
        assert_ne!(other, node);
        assert_eq!(pool.pending(), 1);
        assert_eq!(pool.reclaimed_count(), 0);
    }

    #[test]
    fn a_dry_slot_steals_recycled_nodes_from_other_slots() {
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        // Thread 0 allocates and retires; its retiree sits in slot 0.
        let node = pool.try_alloc(0, &mut m).unwrap();
        pool.retire(0, node, &mut m);
        // Thread 1's slot is empty, but the pool-wide pending count lets
        // it harvest slot 0's safely-aged retiree instead of carving
        // fresh words — the bound that keeps skewed mixes from growing
        // the heap forever.
        let global_before = mem.remaining_words();
        let stolen = pool.try_alloc(1, &mut m).unwrap();
        assert_eq!(stolen, node);
        assert_eq!(mem.remaining_words(), global_before);
        assert_eq!(pool.reclaimed_count(), 1);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn out_of_range_thread_ids_steal_without_overflow() {
        // Thread ids past the configured capacity are legal callers
        // (`arena_try_alloc` routes them to the global allocator), so the
        // steal loop's slot arithmetic must not overflow on them — the id
        // is reduced modulo the slot count before any offset is added.
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        let node = pool.try_alloc(0, &mut m).unwrap();
        pool.retire(0, node, &mut m);
        let stolen = pool.try_alloc(usize::MAX, &mut m).unwrap();
        assert_eq!(stolen, node, "the pending retiree must still be found");
    }

    #[test]
    fn give_back_skips_the_epoch_wait() {
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        let spare = pool.try_alloc(0, &mut m).unwrap();
        let _guard = EpochGuard::pin(mem.epochs(), 1);
        pool.give_back(0, spare);
        // Unpublished spares recycle immediately, even under a pin.
        assert_eq!(pool.try_alloc(0, &mut m).unwrap(), spare);
    }

    #[test]
    fn drain_quiescent_reclaims_everything() {
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        for _ in 0..5 {
            let n = pool.try_alloc(3, &mut m).unwrap();
            pool.retire(3, n, &mut m);
        }
        assert_eq!(
            pool.pending() as u64,
            pool.retired_count() - pool.reclaimed_count()
        );
        let drained = pool.drain_quiescent(&mut m);
        assert!(drained >= 1);
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.retired_count(), pool.reclaimed_count());
        assert_eq!(pool.cached() as u64, pool.fresh_count());
        assert_eq!(pool.unsafe_reclaims(), 0);
    }

    #[test]
    fn the_mutation_hook_detects_too_early_reclaims() {
        let mem = mem();
        let pool: NodePool<Node> = NodePool::new(Arc::clone(&mem));
        let mut m = MemMetrics::default();
        let node = pool.try_alloc(0, &mut m).unwrap();
        let _reader = EpochGuard::pin(mem.epochs(), 1);
        pool.retire(0, node, &mut m);
        assert_eq!(pool.unsafe_reclaims(), 0);
        let drained = pool.reclaim_ignoring_epochs(0, &mut m);
        assert_eq!(drained, 1);
        assert!(
            pool.unsafe_reclaims() >= 1,
            "forcing a reclaim under a live pin must be counted"
        );
    }
}
