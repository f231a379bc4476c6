//! A transactional skiplist — the scenario engine's mutable ordered map.
//!
//! The paper's emulation could only run constant-shape structures; the
//! simulated HTM provides real atomicity, so this skiplist runs genuinely
//! shape-changing workloads: inserts link and removals unlink whole towers
//! inside one transaction.  Compared with [`super::mutable::TxSortedList`]
//! its operations are O(log n), which keeps transactions short enough for
//! the hardware fast-path even at large sizes — the interesting regime for
//! the RH protocols.
//!
//! Three design points keep benchmark runs deterministic and allocation
//! bounded:
//!
//! * **Deterministic tower heights.**  A node's height is a pure function
//!   of its key (geometric with p = 1/4 over a key hash, capped at
//!   [`MAX_HEIGHT`]), so the structure's shape depends only on its key
//!   set — not on insertion order, thread count or RNG state — and a
//!   reinserted key always fits the node that held it before.  At p = 1/4
//!   a search reads about twice as many nodes per level as at p = 1/2 over
//!   half as many levels — the same expected total — while towers average
//!   1.33 links instead of 2 and the capped levels cover far more keys.
//! * **Epoch-based node reclamation** ([`rhtm_api::reclaim::NodePool`]).
//!   Spare nodes are allocated from the calling thread's arena *before*
//!   the transaction (aborted retries never allocate again); a committed
//!   remove retires its node *after* the transaction, and the pool reuses
//!   it once every thread has passed the retiring epoch.  Steady-state
//!   insert/remove churn therefore does not grow the heap — a requirement
//!   for time-bounded runs over the append-only allocator — and spare
//!   management never joins the transactions' read/write sets.
//! * **Bulk seeding** ([`SkipListSeeder`]).  Prefill appends ascending
//!   keys in O(1) per key through a tail-pointer array and carves nodes
//!   from the heap in chunks, so million-key scenarios initialise in
//!   seconds, proportional to live data.
//!
//! Keys are in `1..u64::MAX` (0 is the head sentinel); the
//! [`Workload`] impl translates the driver's `[0, key_space)` keys by +1.

use std::sync::Arc;

use rhtm_api::reclaim::{EpochGuard, NodePool};
use rhtm_api::typed::{
    Field, FieldArray, LayoutBuilder, OrSized, Record, TxLayout, TxPtr, TypedAlloc,
};
use rhtm_api::{TmThread, TxResult, Txn};
use rhtm_htm::HtmSim;
use rhtm_mem::{MemConfig, MemMetrics, OutOfMemory};

use crate::mix::OpKind;
use crate::rng::WorkloadRng;
use crate::workload::Workload;

/// Maximum tower height; at the p = 1/4 level geometry it keeps searches
/// logarithmic up to ~4^11 ≈ 4M elements per list (larger sets still
/// work — towers just saturate, adding a linear tail to the top-level
/// scan).
pub const MAX_HEIGHT: usize = 12;

/// Keys spanned by one `RangeSum` operation of the [`Workload`] impl.
pub const RANGE_SPAN: u64 = 32;

/// Nodes carved from the heap per [`SkipListSeeder`] refill.
const SEED_CHUNK: usize = 256;

/// The sizing helper named by every allocation-failure panic.
const SIZING_HINT: &str = "TxSkipList::required_words(max_live, threads)";

/// The heap record of one skiplist node (including the head sentinel).
pub struct SkipNode;

/// A level link: `None` is end-of-level.
type Link = Option<TxPtr<SkipNode>>;

#[allow(clippy::type_complexity)] // the layout-builder tuple idiom
const NODE: (
    TxLayout<SkipNode>,
    Field<SkipNode, u64>,
    Field<SkipNode, u64>,
    Field<SkipNode, usize>,
    FieldArray<SkipNode, Link>,
) = {
    let b = LayoutBuilder::new();
    let (b, key) = b.field();
    let (b, value) = b.field();
    let (b, height) = b.field();
    let (b, next) = b.array(MAX_HEIGHT);
    (b.pad_to(16).finish(), key, value, height, next)
};
const KEY: Field<SkipNode, u64> = NODE.1;
const VALUE: Field<SkipNode, u64> = NODE.2;
const HEIGHT: Field<SkipNode, usize> = NODE.3;
const NEXT: FieldArray<SkipNode, Link> = NODE.4;

impl Record for SkipNode {
    const LAYOUT: TxLayout<SkipNode> = NODE.0;
}

/// A transactional skiplist map (`u64` keys in `1..u64::MAX` → `u64`
/// values).
pub struct TxSkipList {
    sim: Arc<HtmSim>,
    head: TxPtr<SkipNode>,
    pool: NodePool<SkipNode>,
    key_space: u64,
}

/// What one in-transaction insert attempt decided (see
/// [`TxSkipList::insert_in`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The key was absent; the caller's spare node was linked in (the
    /// spare is consumed).
    Inserted,
    /// The key was present; its value was overwritten.  A supplied spare
    /// is untouched — the caller keeps it (give it back to the pool or
    /// reuse it).
    Updated,
    /// The key was absent but no spare was supplied; nothing changed.
    /// The caller must allocate one ([`TxSkipList::alloc_spare`]) and
    /// re-run the transaction.
    NeedNode,
}

impl TxSkipList {
    /// Creates an empty skiplist whose [`Workload`] impl addresses
    /// `key_space` distinct keys (internally `1..=key_space`).
    pub fn new(sim: Arc<HtmSim>, key_space: u64) -> Self {
        assert!((1..u64::MAX - 1).contains(&key_space));
        let mem = sim.mem();
        let head = mem.try_alloc_record::<SkipNode>().or_sized(SIZING_HINT);
        let heap = mem.heap();
        head.field(KEY).store(heap, 0); // sentinel: below every real key
        head.field(HEIGHT).store(heap, MAX_HEIGHT);
        for level in 0..MAX_HEIGHT {
            head.slot(NEXT, level).store(heap, None);
        }
        let pool = NodePool::new(Arc::clone(mem));
        TxSkipList {
            sim,
            head,
            pool,
            key_space,
        }
    }

    /// Heap words for a list of at most `max_live` elements driven by
    /// `threads` workers.  Thanks to epoch-based reclamation, allocation
    /// beyond the live set is bounded by transient spares and
    /// not-yet-reclaimed retirees (a handful per thread) plus at most one
    /// partially-carved arena block per thread — not by the operation
    /// count.
    pub fn required_words(max_live: u64, threads: usize) -> usize {
        let threads = threads.max(1);
        (max_live as usize + 1 + threads * 4) * SkipNode::WORDS
            + 64
            + threads * MemConfig::DEFAULT_ARENA_BLOCK_WORDS
    }

    /// The simulator the list lives in.
    pub fn sim(&self) -> &Arc<HtmSim> {
        &self.sim
    }

    /// The node pool (reclamation counters live here).
    pub fn pool(&self) -> &NodePool<SkipNode> {
        &self.pool
    }

    /// Pins `thread_id` in the memory's epoch set for the duration of the
    /// returned guard.  Mutating wrappers hold one around their
    /// transaction; composed callers driving [`TxSkipList::insert_in`] /
    /// [`TxSkipList::remove_in`] directly should do the same.
    pub fn pin(&self, thread_id: usize) -> EpochGuard<'_> {
        EpochGuard::pin(self.sim.mem().epochs(), thread_id)
    }

    /// Keys must leave room for the head sentinel (0) and the pointer
    /// encoding (`u64::MAX`).
    fn check_key(key: u64) {
        assert!(key > 0 && key < u64::MAX, "keys must be in 1..u64::MAX");
    }

    /// Checked spare-node allocation for `thread_id`, preferring recycled
    /// nodes.  Call *before* the transaction (and unpinned), so aborted
    /// retries never allocate again.
    pub fn try_alloc_spare(
        &self,
        thread_id: usize,
        metrics: &mut MemMetrics,
    ) -> Result<TxPtr<SkipNode>, OutOfMemory> {
        self.pool.try_alloc(thread_id, metrics)
    }

    /// [`try_alloc_spare`](Self::try_alloc_spare) for operation paths,
    /// where exhaustion is a scenario-sizing bug: panics with the sizing
    /// hint.
    pub fn alloc_spare(&self, thread_id: usize, metrics: &mut MemMetrics) -> TxPtr<SkipNode> {
        self.try_alloc_spare(thread_id, metrics)
            .or_sized(SIZING_HINT)
    }

    /// Returns an unused spare (allocated but never linked) to the pool.
    pub fn give_back_spare(&self, thread_id: usize, spare: TxPtr<SkipNode>) {
        self.pool.give_back(thread_id, spare);
    }

    /// Retires a node that a **committed** transaction unlinked (see
    /// [`TxSkipList::remove_in`]); the pool reuses it once every thread
    /// has passed the current epoch.
    pub fn retire_node(&self, thread_id: usize, node: TxPtr<SkipNode>, metrics: &mut MemMetrics) {
        self.pool.retire(thread_id, node, metrics);
    }

    /// Deterministic tower height for `key`: geometric(1/4) over a
    /// key hash, in `1..=MAX_HEIGHT` — two trailing zero bits per level.
    fn height_for(key: u64) -> usize {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        1 + (z.trailing_zeros() as usize / 2).min(MAX_HEIGHT - 1)
    }

    /// Finds, per level, the last node with key `< key`, plus the node with
    /// exactly `key` when present.
    #[allow(clippy::type_complexity)]
    fn locate<X: Txn + ?Sized>(
        &self,
        tx: &mut X,
        key: u64,
    ) -> TxResult<([TxPtr<SkipNode>; MAX_HEIGHT], Option<TxPtr<SkipNode>>)> {
        let mut preds = [self.head; MAX_HEIGHT];
        let mut curr = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                match curr.slot(NEXT, level).read(tx)? {
                    Some(n) if n.field(KEY).read(tx)? < key => curr = n,
                    _ => break,
                }
            }
            preds[level] = curr;
        }
        let found = match preds[0].slot(NEXT, 0).read(tx)? {
            Some(n) if n.field(KEY).read(tx)? == key => Some(n),
            _ => None,
        };
        Ok((preds, found))
    }

    /// In-transaction insert/upsert, composable with other operations in
    /// the same transaction (the [`TxBank`](crate::structures::bank::TxBank)
    /// audit log appends through this).
    ///
    /// Node memory is the caller-supplied `spare`, pre-allocated *outside*
    /// the transaction via [`TxSkipList::alloc_spare`].  The spare is
    /// consumed only on [`InsertOutcome::Inserted`]; on
    /// [`InsertOutcome::Updated`] the caller keeps it, and with no spare
    /// an absent key returns [`InsertOutcome::NeedNode`] — still a
    /// committed (read-only) transaction — so the caller can allocate and
    /// re-run.  See [`TxSkipList::insert`] for the canonical wrapper.
    pub fn insert_in<X: Txn + ?Sized>(
        &self,
        tx: &mut X,
        key: u64,
        value: u64,
        spare: Option<TxPtr<SkipNode>>,
    ) -> TxResult<InsertOutcome> {
        let (preds, found) = self.locate(tx, key)?;
        if let Some(n) = found {
            n.field(VALUE).write(tx, value)?;
            return Ok(InsertOutcome::Updated);
        }
        let node = match spare {
            Some(s) => s,
            None => return Ok(InsertOutcome::NeedNode),
        };
        let height = Self::height_for(key);
        node.field(KEY).write(tx, key)?;
        node.field(VALUE).write(tx, value)?;
        node.field(HEIGHT).write(tx, height)?;
        for (level, pred) in preds.iter().enumerate().take(height) {
            let succ = pred.slot(NEXT, level).read(tx)?;
            node.slot(NEXT, level).write(tx, succ)?;
            pred.slot(NEXT, level).write(tx, Some(node))?;
        }
        Ok(InsertOutcome::Inserted)
    }

    /// Transactionally inserts `key` (or updates its value when present).
    /// Returns `true` when the key was newly inserted.
    ///
    /// The canonical pool life cycle: allocate the spare unpinned, pin,
    /// run the transaction, then return an unused spare.  Exactly one
    /// transaction commits per call.
    pub fn insert<T: TmThread>(&self, thread: &mut T, key: u64, value: u64) -> bool {
        Self::check_key(key);
        let tid = thread.thread_id();
        let spare = self.alloc_spare(tid, &mut thread.stats_mut().mem);
        let outcome = {
            let _guard = self.pin(tid);
            thread.execute(|tx| self.insert_in(tx, key, value, Some(spare)))
        };
        match outcome {
            InsertOutcome::Inserted => true,
            InsertOutcome::Updated => {
                self.give_back_spare(tid, spare);
                false
            }
            InsertOutcome::NeedNode => unreachable!("a spare was supplied"),
        }
    }

    /// In-transaction remove, composable with other operations in the same
    /// transaction.  Returns the removed value *and the unlinked node*,
    /// or `None` when absent.
    ///
    /// The caller owns the returned node and must
    /// [`retire`](TxSkipList::retire_node) it **after the transaction
    /// commits** — never inside the body, where the attempt may still
    /// abort (an aborted attempt unlinks nothing).  Reset any captured
    /// victim at the top of each retry attempt.
    pub fn remove_in<X: Txn + ?Sized>(
        &self,
        tx: &mut X,
        key: u64,
    ) -> TxResult<Option<(u64, TxPtr<SkipNode>)>> {
        let (preds, found) = self.locate(tx, key)?;
        let node = match found {
            Some(n) => n,
            None => return Ok(None),
        };
        let value = node.field(VALUE).read(tx)?;
        let height = node.field(HEIGHT).read(tx)?;
        for level in (0..height).rev() {
            let succ = node.slot(NEXT, level).read(tx)?;
            preds[level].slot(NEXT, level).write(tx, succ)?;
        }
        Ok(Some((value, node)))
    }

    /// Transactionally removes `key`, returning its value when present.
    /// The node is retired to the pool once the remove commits.
    pub fn remove<T: TmThread>(&self, thread: &mut T, key: u64) -> Option<u64> {
        Self::check_key(key);
        let tid = thread.thread_id();
        let removed = {
            let _guard = self.pin(tid);
            thread.execute(|tx| self.remove_in(tx, key))
        };
        removed.map(|(value, node)| {
            self.retire_node(tid, node, &mut thread.stats_mut().mem);
            value
        })
    }

    /// Transactionally gets the value stored under `key`.
    pub fn get<T: TmThread>(&self, thread: &mut T, key: u64) -> Option<u64> {
        Self::check_key(key);
        thread.execute(|tx| self.get_in(tx, key))
    }

    /// In-transaction lookup (composable with other operations; works
    /// through `&mut dyn Txn` as well).
    pub fn get_in<X: Txn + ?Sized>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        let (_, found) = self.locate(tx, key)?;
        match found {
            Some(n) => Ok(Some(n.field(VALUE).read(tx)?)),
            None => Ok(None),
        }
    }

    /// In-transaction value update of an *existing* key (no allocation;
    /// composable with other operations).  Returns `false` when absent.
    pub fn update_in<X: Txn + ?Sized>(&self, tx: &mut X, key: u64, value: u64) -> TxResult<bool> {
        let (_, found) = self.locate(tx, key)?;
        match found {
            Some(n) => {
                n.field(VALUE).write(tx, value)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Transactionally tests membership.
    pub fn contains<T: TmThread>(&self, thread: &mut T, key: u64) -> bool {
        Self::check_key(key);
        thread.execute(|tx| Ok(self.locate(tx, key)?.1.is_some()))
    }

    /// Transactionally sums the values of the keys in
    /// `[lo, lo + span)` — the scenario engine's range query.
    pub fn range_sum<T: TmThread>(&self, thread: &mut T, lo: u64, span: u64) -> u64 {
        Self::check_key(lo);
        thread.execute(|tx| {
            let (preds, _) = self.locate(tx, lo)?;
            let hi = lo.saturating_add(span);
            let mut sum = 0u64;
            let mut curr = preds[0].slot(NEXT, 0).read(tx)?;
            while let Some(n) = curr {
                if n.field(KEY).read(tx)? >= hi {
                    break;
                }
                sum = sum.wrapping_add(n.field(VALUE).read(tx)?);
                curr = n.slot(NEXT, 0).read(tx)?;
            }
            Ok(sum)
        })
    }

    /// Transactionally counts the elements (walks level 0 in one
    /// transaction — only sensible for small test lists).
    pub fn len<T: TmThread>(&self, thread: &mut T) -> u64 {
        thread.execute(|tx| {
            let mut count = 0;
            let mut curr = self.head.slot(NEXT, 0).read(tx)?;
            while let Some(n) = curr {
                count += 1;
                curr = n.slot(NEXT, 0).read(tx)?;
            }
            Ok(count)
        })
    }

    /// Transactionally collects `(key, value)` pairs in key order (test
    /// helper).
    pub fn snapshot<T: TmThread>(&self, thread: &mut T) -> Vec<(u64, u64)> {
        thread.execute(|tx| {
            let mut pairs = Vec::new();
            let mut curr = self.head.slot(NEXT, 0).read(tx)?;
            while let Some(n) = curr {
                pairs.push((n.field(KEY).read(tx)?, n.field(VALUE).read(tx)?));
                curr = n.slot(NEXT, 0).read(tx)?;
            }
            Ok(pairs)
        })
    }

    /// Non-transactional structural check for tests run after all threads
    /// have joined: level 0 is strictly sorted, every node's stored height
    /// is its key's deterministic height, and each level `L` links exactly
    /// the level-0 nodes taller than `L`, in order — so no tower misses a
    /// level of its own and no level links a stray or too-short node.
    pub fn is_well_formed_quiescent(&self) -> bool {
        let mut level0 = Vec::new();
        let mut curr = self.sim.nt_read(self.head.slot(NEXT, 0));
        while let Some(n) = curr {
            let k = self.sim.nt_read(n.field(KEY));
            let h = self.sim.nt_read(n.field(HEIGHT));
            if h != Self::height_for(k) {
                return false;
            }
            level0.push((n, k, h));
            curr = self.sim.nt_read(n.slot(NEXT, 0));
        }
        if level0.windows(2).any(|w| w[0].1 >= w[1].1) {
            return false;
        }
        (1..MAX_HEIGHT).all(|level| {
            let mut want = level0
                .iter()
                .filter(|&&(_, _, h)| h > level)
                .map(|&(n, _, _)| n);
            let mut curr = self.sim.nt_read(self.head.slot(NEXT, level));
            while let Some(n) = curr {
                if want.next() != Some(n) {
                    return false;
                }
                curr = self.sim.nt_read(n.slot(NEXT, level));
            }
            want.next().is_none()
        })
    }

    /// Non-transactionally seeds `key → value` during construction, before
    /// any worker thread exists (single keys; use [`TxSkipList::seeder`]
    /// for bulk prefill).  Returns [`OutOfMemory`] when the heap cannot
    /// hold the node, so scenario sizing mistakes surface as a readable
    /// error instead of an allocator panic.
    ///
    /// Must not run concurrently with transactions.
    pub fn try_seed_insert(&self, key: u64, value: u64) -> Result<(), OutOfMemory> {
        Self::check_key(key);
        let mem = self.sim.mem();
        let heap = mem.heap();
        let mut preds = [self.head; MAX_HEIGHT];
        let mut curr = self.head;
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                match curr.slot(NEXT, level).load(heap) {
                    Some(n) if n.field(KEY).load(heap) < key => curr = n,
                    _ => break,
                }
            }
            preds[level] = curr;
        }
        if let Some(n) = preds[0].slot(NEXT, 0).load(heap) {
            if n.field(KEY).load(heap) == key {
                n.field(VALUE).store(heap, value);
                return Ok(());
            }
        }
        let node = mem.try_alloc_record::<SkipNode>()?;
        let height = Self::height_for(key);
        node.field(KEY).store(heap, key);
        node.field(VALUE).store(heap, value);
        node.field(HEIGHT).store(heap, height);
        for (level, pred) in preds.iter().enumerate().take(height) {
            let succ = pred.slot(NEXT, level).load(heap);
            node.slot(NEXT, level).store(heap, succ);
            pred.slot(NEXT, level).store(heap, Some(node));
        }
        Ok(())
    }

    /// [`try_seed_insert`](Self::try_seed_insert), panicking with the
    /// sizing hint on exhaustion (for tests and examples that size their
    /// heap correctly by construction).
    pub fn seed_insert(&self, key: u64, value: u64) {
        self.try_seed_insert(key, value).or_sized(SIZING_HINT)
    }

    /// A bulk seeder for construction-time prefill: O(1) per ascending
    /// key, chunked node allocation, relaxed stores.
    pub fn seeder(&self) -> SkipListSeeder<'_> {
        SkipListSeeder::new(self)
    }

    /// Seeds every other key of the key space (`1, 3, 5, …`) with
    /// `value = key * 10` — the scenario engine's standard half-full
    /// prefill, leaving room for inserts to grow the set.
    pub fn prefill_alternate(&self) {
        let mut seeder = self.seeder();
        let mut key = 1;
        while key <= self.key_space {
            seeder.insert(key, key * 10).or_sized(SIZING_HINT);
            key += 2;
        }
    }
}

/// Construction-time bulk prefill for [`TxSkipList`], proportional to
/// live data.
///
/// The general seeding path re-traverses the list per key — O(log n) per
/// key, and linear once the top level saturates past [`MAX_HEIGHT`]'s
/// capacity.  The seeder instead keeps the **tail node of every level**:
/// a key greater than everything seeded so far appends in O(height)
/// with plain relaxed stores, and node memory is carved from the heap in
/// `SEED_CHUNK`-node chunks (one allocator CAS per chunk).  Out-of-order
/// or duplicate keys fall back to [`TxSkipList::try_seed_insert`]; such
/// a key can still end up last on a level it reaches (when it lands
/// after that level's old tail), so the tails are re-walked after every
/// fallback.
///
/// Must not run concurrently with transactions (construction only).
pub struct SkipListSeeder<'a> {
    list: &'a TxSkipList,
    /// Last node linked at each level (the head sentinel when empty).
    tails: [TxPtr<SkipNode>; MAX_HEIGHT],
    /// Largest key seeded so far (0 = none: the sentinel's key).
    last_key: u64,
    /// Bulk-carved nodes not yet linked.
    chunk: Vec<TxPtr<SkipNode>>,
    seeded: u64,
}

impl<'a> SkipListSeeder<'a> {
    fn new(list: &'a TxSkipList) -> Self {
        let mut seeder = SkipListSeeder {
            list,
            tails: [list.head; MAX_HEIGHT],
            last_key: 0,
            chunk: Vec::new(),
            seeded: 0,
        };
        seeder.rewalk_tails();
        seeder
    }

    /// Keys seeded through this seeder.
    pub fn seeded(&self) -> u64 {
        self.seeded
    }

    /// Repositions every tail on the actual last node of its level
    /// (needed at construction over a non-empty list and after an
    /// out-of-order fallback insert).
    fn rewalk_tails(&mut self) {
        let heap = self.list.sim.mem().heap();
        for level in 0..MAX_HEIGHT {
            // Resume from the previous tail: it is still linked, so the
            // walk is O(new nodes), not O(list).
            let mut curr = self.tails[level];
            while let Some(n) = curr.slot(NEXT, level).load_relaxed(heap) {
                curr = n;
            }
            self.tails[level] = curr;
        }
        self.last_key = if self.tails[0] == self.list.head {
            0
        } else {
            self.tails[0].field(KEY).load_relaxed(heap)
        };
    }

    fn next_node(&mut self) -> Result<TxPtr<SkipNode>, OutOfMemory> {
        if let Some(node) = self.chunk.pop() {
            return Ok(node);
        }
        let mem = self.list.sim.mem();
        match mem.try_alloc_records::<SkipNode>(SEED_CHUNK) {
            Ok(records) => {
                // Stack the rest in reverse so pop() hands nodes out in
                // address order.
                for i in (1..records.len()).rev() {
                    self.chunk.push(records.get(i));
                }
                Ok(records.get(0))
            }
            // Near exhaustion, degrade to exact single-node requests so
            // tight test heaps fill completely and the eventual error
            // reports the true per-node request size.
            Err(_) => mem.try_alloc_record::<SkipNode>(),
        }
    }

    /// Seeds `key → value`.  Ascending fresh keys take the O(1) append
    /// path; anything else falls back to the general seeding walk.
    pub fn insert(&mut self, key: u64, value: u64) -> Result<(), OutOfMemory> {
        TxSkipList::check_key(key);
        if key <= self.last_key {
            self.list.try_seed_insert(key, value)?;
            self.rewalk_tails();
            self.seeded += 1;
            return Ok(());
        }
        let node = self.next_node()?;
        let heap = self.list.sim.mem().heap();
        let height = TxSkipList::height_for(key);
        node.field(KEY).store_relaxed(heap, key);
        node.field(VALUE).store_relaxed(heap, value);
        node.field(HEIGHT).store_relaxed(heap, height);
        for level in 0..height {
            // Chunk memory is fresh zeroes, which do NOT decode as a null
            // link — the end-of-level marker must be stored explicitly.
            node.slot(NEXT, level).store_relaxed(heap, None);
            self.tails[level]
                .slot(NEXT, level)
                .store_relaxed(heap, Some(node));
            self.tails[level] = node;
        }
        self.last_key = key;
        self.seeded += 1;
        Ok(())
    }

    /// Returns unused bulk-carved nodes to the list's pool as spares, so
    /// chunk over-allocation is reused rather than stranded.  Called on
    /// drop; exposed for tests.
    pub fn finish(mut self) -> usize {
        self.release_chunk()
    }

    fn release_chunk(&mut self) -> usize {
        let released = self.chunk.len();
        for node in self.chunk.drain(..) {
            self.list.pool.give_back(0, node);
        }
        released
    }
}

impl Drop for SkipListSeeder<'_> {
    fn drop(&mut self) {
        self.release_chunk();
    }
}

impl std::fmt::Debug for SkipListSeeder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipListSeeder")
            .field("seeded", &self.seeded)
            .field("last_key", &self.last_key)
            .field("chunk", &self.chunk.len())
            .finish()
    }
}

/// Kind mapping: `Lookup` → membership test, `RangeSum` → value sum over
/// [`RANGE_SPAN`] consecutive keys, `Update`/`Insert` → upsert (insert or
/// overwrite), `Remove` → remove.  Driver keys are translated by +1 past
/// the head sentinel.
impl Workload for TxSkipList {
    fn name(&self) -> String {
        format!("skiplist-{}", self.key_space)
    }

    fn key_space(&self) -> u64 {
        self.key_space
    }

    fn run_op<T: TmThread>(&self, thread: &mut T, rng: &mut WorkloadRng, op: OpKind, key: u64) {
        let k = key + 1;
        match op {
            OpKind::Lookup => {
                self.contains(thread, k);
            }
            OpKind::RangeSum => {
                self.range_sum(thread, k, RANGE_SPAN);
            }
            OpKind::Update | OpKind::Insert => {
                self.insert(thread, k, rng.next_u64());
            }
            OpKind::Remove => {
                self.remove(thread, k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhtm_api::TmRuntime;
    use rhtm_core::{RhConfig, RhRuntime};
    use rhtm_htm::HtmConfig;
    use rhtm_mem::MemConfig;
    use std::collections::BTreeMap;

    fn runtime(words: usize) -> RhRuntime {
        RhRuntime::new(
            MemConfig::with_data_words(words),
            HtmConfig::default(),
            RhConfig::rh1_mixed(100),
        )
    }

    #[test]
    fn matches_a_sequential_model() {
        let rt = runtime(1 << 16);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 128);
        let mut th = rt.register_thread();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = WorkloadRng::new(17);
        for _ in 0..3_000 {
            let key = 1 + rng.next_below(96);
            match rng.next_below(4) {
                0 => {
                    let value = rng.next_u64();
                    assert_eq!(
                        list.insert(&mut th, key, value),
                        model.insert(key, value).is_none()
                    );
                }
                1 => assert_eq!(list.remove(&mut th, key), model.remove(&key)),
                2 => assert_eq!(list.get(&mut th, key), model.get(&key).copied()),
                _ => {
                    let span = 1 + rng.next_below(16);
                    let want: u64 = model
                        .range(key..key.saturating_add(span))
                        .map(|(_, v)| *v)
                        .fold(0u64, |a, v| a.wrapping_add(v));
                    assert_eq!(list.range_sum(&mut th, key, span), want);
                }
            }
        }
        let snapshot = list.snapshot(&mut th);
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(snapshot, want);
        assert!(list.is_well_formed_quiescent());
        assert_eq!(
            list.pool().pending() as u64,
            list.pool().retired_count() - list.pool().reclaimed_count()
        );
        assert_eq!(list.pool().unsafe_reclaims(), 0);
    }

    #[test]
    fn freelist_recycles_removed_nodes() {
        let rt = runtime(1 << 14);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 64);
        let mut th = rt.register_thread();
        let used_before = {
            // Fill once so the first allocations happen...
            for k in 1..=32u64 {
                assert!(list.insert(&mut th, k, k));
            }
            rt.mem().alloc(0).index()
        };
        // ...then churn insert/remove far beyond the live size.
        for round in 0..200u64 {
            let k = 1 + (round % 32);
            assert_eq!(list.remove(&mut th, k), Some(k));
            assert!(list.insert(&mut th, k, k));
        }
        let used_after = rt.mem().alloc(0).index();
        assert_eq!(
            used_before, used_after,
            "steady-state churn must not allocate"
        );
        assert!(list.is_well_formed_quiescent());
        // Churn retired 200 nodes and reclaimed them all back into
        // inserts (the last round's retiree may still be in flight).
        let pool = list.pool();
        assert_eq!(pool.retired_count(), 200);
        assert!(pool.reclaimed_count() >= 199);
        let mem = th.stats().mem.clone();
        assert_eq!(mem.retired, 200);
        assert!(mem.epoch_advances >= 2, "reclaim drives the epoch clock");
    }

    #[test]
    fn heights_are_deterministic_and_bounded() {
        for key in 1..2_000u64 {
            let h = TxSkipList::height_for(key);
            assert_eq!(h, TxSkipList::height_for(key));
            assert!((1..=MAX_HEIGHT).contains(&h));
        }
        // The geometry must actually produce tall towers somewhere.
        assert!((1..2_000u64).any(|k| TxSkipList::height_for(k) >= 4));
    }

    /// Mean `TxStats::reads` per `contains` over an evenly spaced sample
    /// of 4096 keys of a full list `1..=n`, seeded in bulk, on one TL2
    /// thread (no aborts, so every read belongs to the one traversal).
    fn mean_reads_per_contains(n: u64) -> f64 {
        let words = TxSkipList::required_words(n, 1);
        let rt = rhtm_stm::Tl2Runtime::new(MemConfig::with_data_words(words));
        let list = TxSkipList::new(Arc::clone(rt.sim()), n);
        let mut seeder = list.seeder();
        for k in 1..=n {
            seeder.insert(k, k).unwrap();
        }
        drop(seeder);
        let mut th = rt.register_thread();
        let probes = 4096;
        let before = th.stats().reads;
        for i in 0..probes {
            assert!(list.contains(&mut th, 1 + i * n / probes));
        }
        (th.stats().reads - before) as f64 / probes as f64
    }

    #[test]
    fn lookup_reads_grow_logarithmically_with_list_size() {
        let small = mean_reads_per_contains(1 << 12);
        let large = mean_reads_per_contains(1 << 18);
        // 64x the keys is +3 levels at p = 1/4: ~1.4x the reads.  A
        // geometry whose top level saturates before 2^18 keys turns the
        // top-level scan linear (the p = 1/2 towers capped at 12 levels
        // gave ~3.9x).
        assert!(
            large / small <= 2.0,
            "reads per lookup: {small:.1} at 2^12 keys, {large:.1} at 2^18"
        );
    }

    #[test]
    fn well_formed_check_rejects_a_tower_missing_a_middle_level() {
        let rt = runtime(1 << 16);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 1_000);
        list.prefill_alternate();
        assert!(list.is_well_formed_quiescent());
        // Unlink one node of height >= 3 from level 1 only: it stays on
        // levels 0 and 2, so every level is still sorted and links only
        // tall-enough nodes that level 0 reaches.
        let sim = list.sim();
        let mut pred = list.head;
        let victim = loop {
            let n = sim.nt_read(pred.slot(NEXT, 1)).expect("a tall tower");
            if sim.nt_read(n.field(HEIGHT)) >= 3 {
                break n;
            }
            pred = n;
        };
        sim.nt_write(pred.slot(NEXT, 1), sim.nt_read(victim.slot(NEXT, 1)));
        assert!(!list.is_well_formed_quiescent());
    }

    #[test]
    fn prefill_seeds_every_other_key() {
        let rt = runtime(1 << 16);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 100);
        list.prefill_alternate();
        let mut th = rt.register_thread();
        assert_eq!(list.len(&mut th), 50);
        assert_eq!(list.get(&mut th, 1), Some(10));
        assert_eq!(list.get(&mut th, 99), Some(990));
        assert_eq!(list.get(&mut th, 2), None);
        assert!(list.is_well_formed_quiescent());
    }

    #[test]
    fn seeder_matches_the_general_path_and_handles_disorder() {
        let rt = runtime(1 << 16);
        let fast = TxSkipList::new(Arc::clone(rt.sim()), 512);
        let slow = TxSkipList::new(Arc::clone(rt.sim()), 512);
        // Ascending run, one out-of-order key, one duplicate overwrite.
        let keys: Vec<u64> = (1..=200).chain([57, 201, 100, 202]).collect();
        let mut seeder = fast.seeder();
        for &k in &keys {
            seeder.insert(k, k * 7).unwrap();
            slow.seed_insert(k, k * 7);
        }
        assert_eq!(seeder.seeded(), keys.len() as u64);
        drop(seeder);
        let mut th = rt.register_thread();
        assert_eq!(fast.snapshot(&mut th), slow.snapshot(&mut th));
        assert!(fast.is_well_formed_quiescent());
        // Seeding a prefilled list through a *new* seeder must keep
        // appending correctly (tails re-walked at construction).
        let mut resumed = fast.seeder();
        resumed.insert(500, 1).unwrap();
        drop(resumed);
        let mut th2 = rt.register_thread();
        assert_eq!(fast.get(&mut th2, 500), Some(1));
        assert!(fast.is_well_formed_quiescent());
    }

    #[test]
    fn undersized_prefill_reports_out_of_memory() {
        // A heap with room for the head sentinel but not for 64 seeded
        // nodes: the checked path must surface OutOfMemory, not panic
        // inside the allocator.
        let rt = runtime(4 * SkipNode::WORDS);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 64);
        let mut failed = None;
        for k in 1..=64u64 {
            if let Err(oom) = list.try_seed_insert(k, k) {
                failed = Some(oom);
                break;
            }
        }
        let oom = failed.expect("undersized heap must exhaust");
        assert_eq!(oom.requested, SkipNode::WORDS);
        assert!(oom.to_string().contains("exhausted"));
        // The list must still be well-formed with the keys that did fit.
        assert!(list.is_well_formed_quiescent());
    }

    #[test]
    fn undersized_bulk_seeding_reports_out_of_memory() {
        let rt = runtime(4 * SkipNode::WORDS);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 64);
        let mut seeder = list.seeder();
        let mut failed = None;
        for k in 1..=64u64 {
            if let Err(oom) = seeder.insert(k, k) {
                failed = Some(oom);
                break;
            }
        }
        let oom = failed.expect("undersized heap must exhaust");
        // The chunked path degrades to exact requests near exhaustion, so
        // the error reports the true per-node size.
        assert_eq!(oom.requested, SkipNode::WORDS);
        drop(seeder);
        assert!(list.is_well_formed_quiescent());
    }

    #[test]
    fn workload_ops_commit_once_per_call() {
        let rt = runtime(1 << 16);
        let list = TxSkipList::new(Arc::clone(rt.sim()), 64);
        list.prefill_alternate();
        let mut th = rt.register_thread();
        let mut rng = WorkloadRng::new(2);
        let mix = crate::mix::OpMix::new([40, 10, 10, 20, 20]);
        for _ in 0..400 {
            let op = mix.draw(&mut rng);
            let key = rng.next_below(list.key_space());
            list.run_op(&mut th, &mut rng, op, key);
        }
        assert_eq!(th.stats().commits(), 400);
        assert!(list.is_well_formed_quiescent());
    }

    #[test]
    fn concurrent_churn_keeps_the_list_well_formed() {
        let rt = Arc::new(runtime(1 << 18));
        let list = Arc::new(TxSkipList::new(Arc::clone(rt.sim()), 64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let rt = Arc::clone(&rt);
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    let mut th = rt.register_thread();
                    let mut rng = WorkloadRng::new(t as u64);
                    for _ in 0..1_500 {
                        let key = 1 + rng.next_below(64);
                        if rng.draw_percent(50) {
                            list.insert(&mut th, key, key * 1_000 + t as u64);
                        } else {
                            list.remove(&mut th, key);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(list.is_well_formed_quiescent());
        assert_eq!(list.pool().unsafe_reclaims(), 0);
        assert_eq!(
            list.pool().pending() as u64,
            list.pool().retired_count() - list.pool().reclaimed_count()
        );
        let mut th = rt.register_thread();
        let snapshot = list.snapshot(&mut th);
        for (k, v) in snapshot {
            assert_eq!(v / 1_000, k, "value {v} never written for key {k}");
        }
    }
}
