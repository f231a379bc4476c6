//! The typed transactional data layer: zero-cost object handles over the
//! word-level [`Txn`] interface.
//!
//! Every data structure in this workspace ultimately stores `u64` words in
//! the shared [`rhtm_mem::TxHeap`], but hand-rolling `base.offset(KEY)`
//! arithmetic and pointer null-sentinels in every structure is exactly the
//! kind of per-structure duplication a production system cannot afford.
//! This module centralises it once:
//!
//! * [`Codec`] — values that pack into one heap word (`u64`, `bool`,
//!   `usize`, and null-tagged typed pointers),
//! * [`TxPtr<R>`] / `Option<TxPtr<R>>` — typed in-heap pointers with the
//!   null encoding ([`NULL_PTR_WORD`]) defined exactly once,
//! * [`TxCell<T>`] — a typed single word, readable/writable through any
//!   [`Txn`] (including `&mut dyn Txn`) or plainly through the heap,
//! * [`TxLayout`] / [`LayoutBuilder`] — a macro-free, `const`-evaluable
//!   record builder producing typed [`Field`]/[`FieldArray`] handles in
//!   place of hand-numbered offset constants,
//! * [`TypedAlloc`] — typed bump allocation over [`TmMemory`], with a
//!   checked [`Result`]-returning path ([`rhtm_mem::OutOfMemory`]) for
//!   prefill code that wants to report sizing errors cleanly.
//!
//! # Zero cost
//!
//! Every method here is an `#[inline]` thin wrapper that compiles down to
//! the same `tx.read(addr)` / `tx.write(addr, raw)` calls the raw code
//! made: a [`TxCell<u64>`] read *is* a `Txn::read`, a
//! `TxCell::<Option<TxPtr<R>>>` read is a `Txn::read` plus one compare
//! against [`NULL_PTR_WORD`] — identical to the `decode_ptr` helpers the
//! structures used to copy around.  The word-level runtimes are untouched
//! and the per-access instrumentation costs the paper measures are
//! preserved bit-for-bit (`tests/typed_layer.rs` asserts this).
//!
//! # When to drop back to raw [`Txn`]
//!
//! The typed layer is for *data*.  Protocol metadata (stripe versions,
//! read masks, the global clock) is laid out by [`rhtm_mem::MemLayout`]
//! and accessed raw by the runtimes; workloads whose transaction body is
//! itself the experiment (e.g. the random-array workload's configurable
//! read/write stream over an untyped word region) may also prefer
//! [`TxSlice<u64>`] or plain addresses.
//!
//! # Example
//!
//! A two-field record with a typed link, allocated and linked
//! transactionally:
//!
//! ```
//! use rhtm_api::typed::{Field, LayoutBuilder, Record, TxCell, TxLayout, TxPtr, TypedAlloc};
//! use rhtm_api::{TmThread, Txn, TxResult};
//!
//! /// The record marker type: `TxPtr<Node>` only dereferences `Node` fields.
//! struct Node;
//!
//! /// Build the layout once, in a const: offsets are assigned by the
//! /// builder, not hand-numbered.
//! const NODE: (
//!     TxLayout<Node>,
//!     Field<Node, u64>,
//!     Field<Node, Option<TxPtr<Node>>>,
//! ) = {
//!     let b = LayoutBuilder::new();
//!     let (b, value) = b.field();
//!     let (b, next) = b.field();
//!     (b.finish(), value, next)
//! };
//! const VALUE: Field<Node, u64> = NODE.1;
//! const NEXT: Field<Node, Option<TxPtr<Node>>> = NODE.2;
//! impl Record for Node {
//!     const LAYOUT: TxLayout<Node> = NODE.0;
//! }
//!
//! fn push<T: Txn + ?Sized>(
//!     tx: &mut T,
//!     head: TxCell<Option<TxPtr<Node>>>,
//!     node: TxPtr<Node>,
//!     value: u64,
//! ) -> TxResult<()> {
//!     node.field(VALUE).write(tx, value)?;
//!     let old = head.read(tx)?;
//!     node.field(NEXT).write(tx, old)?;
//!     head.write(tx, Some(node))
//! }
//!
//! # use rhtm_api::test_runtime::DirectRuntime;
//! # use rhtm_api::TmRuntime;
//! let rt = DirectRuntime::new(256);
//! let mem = rt.mem();
//! let head: TxCell<Option<TxPtr<Node>>> = mem.alloc_cell();
//! head.store(mem.heap(), None);
//! let node = mem.alloc_record::<Node>();
//! let mut th = rt.register_thread();
//! th.execute(|tx| push(tx, head, node, 7));
//! let got = th.execute(|tx| head.read(tx)?.expect("pushed").field(VALUE).read(tx));
//! assert_eq!(got, 7);
//! ```

use std::marker::PhantomData;

use rhtm_mem::{Addr, OutOfMemory, TmMemory, TxHeap};

use crate::abort::TxResult;
use crate::traits::Txn;

/// The heap word encoding of a null typed pointer.
///
/// `u64::MAX` is never a valid heap index (the heap is far smaller), so it
/// doubles as the in-band null sentinel — the single definition that
/// replaces the `encode_ptr`/`decode_ptr` copies the benchmark structures
/// used to carry.
pub const NULL_PTR_WORD: u64 = u64::MAX;

// ---------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------

/// A value that packs losslessly into one 64-bit heap word.
///
/// `decode(encode(v)) == v` must hold for every `v`; the typed layer's
/// bit-identity guarantee (a typed access performs exactly the raw word
/// access) additionally requires `encode` and `decode` to be pure.
///
/// ```
/// use rhtm_api::typed::Codec;
/// assert_eq!(u64::decode(u64::encode(42)), 42);
/// assert_eq!(bool::encode(true), 1);
/// assert_eq!(usize::decode(7), 7usize);
/// ```
pub trait Codec: Copy {
    /// Packs the value into a heap word.
    fn encode(self) -> u64;

    /// Unpacks a heap word written by [`Codec::encode`].
    fn decode(raw: u64) -> Self;
}

impl Codec for u64 {
    #[inline(always)]
    fn encode(self) -> u64 {
        self
    }

    #[inline(always)]
    fn decode(raw: u64) -> Self {
        raw
    }
}

impl Codec for bool {
    #[inline(always)]
    fn encode(self) -> u64 {
        self as u64
    }

    #[inline(always)]
    fn decode(raw: u64) -> Self {
        raw != 0
    }
}

impl Codec for usize {
    #[inline(always)]
    fn encode(self) -> u64 {
        self as u64
    }

    #[inline(always)]
    fn decode(raw: u64) -> Self {
        raw as usize
    }
}

// ---------------------------------------------------------------------
// Typed pointers
// ---------------------------------------------------------------------

/// A non-null typed pointer to a record of type `R` in the transactional
/// heap.
///
/// A `TxPtr<R>` is an [`Addr`] that remembers what it points at: its
/// [`field`](TxPtr::field)/[`slot`](TxPtr::slot) methods only accept
/// handles minted for `R`'s layout, so the `offset(NEXT_BASE + level)`
/// arithmetic the structures used to hand-roll cannot be misapplied to the
/// wrong record type.  It is `Copy` and one word large; nullability is
/// expressed in the type system as `Option<TxPtr<R>>`, whose [`Codec`]
/// impl owns the [`NULL_PTR_WORD`] sentinel.
///
/// ```
/// use rhtm_api::typed::{Codec, TxPtr};
/// use rhtm_mem::Addr;
///
/// struct Node;
/// let p: TxPtr<Node> = TxPtr::new(Addr(42));
/// assert_eq!(<Option<TxPtr<Node>>>::encode(Some(p)), 42);
/// assert_eq!(<Option<TxPtr<Node>>>::encode(None), u64::MAX);
/// assert_eq!(<Option<TxPtr<Node>>>::decode(42), Some(p));
/// ```
pub struct TxPtr<R> {
    addr: Addr,
    _record: PhantomData<fn() -> R>,
}

impl<R> TxPtr<R> {
    /// Wraps a heap address as a typed record pointer.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is the [`Addr::NULL`] sentinel; null is spelled
    /// `Option::<TxPtr<R>>::None`.
    #[inline(always)]
    pub fn new(addr: Addr) -> Self {
        assert!(!addr.is_null(), "TxPtr cannot wrap Addr::NULL; use None");
        TxPtr {
            addr,
            _record: PhantomData,
        }
    }

    /// The record's base address.
    #[inline(always)]
    pub fn addr(self) -> Addr {
        self.addr
    }

    /// The typed cell of scalar field `f` of this record.
    #[inline(always)]
    pub fn field<T: Codec>(self, f: Field<R, T>) -> TxCell<T> {
        TxCell::at(self.addr.offset(f.offset))
    }

    /// The typed cell of element `index` of array field `f`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `index < f.len()`.
    #[inline(always)]
    pub fn slot<T: Codec>(self, f: FieldArray<R, T>, index: usize) -> TxCell<T> {
        debug_assert!(index < f.len, "array field index {index} out of {}", f.len);
        TxCell::at(self.addr.offset(f.offset + index))
    }
}

impl<R> Clone for TxPtr<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for TxPtr<R> {}
impl<R> PartialEq for TxPtr<R> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<R> Eq for TxPtr<R> {}
impl<R> std::hash::Hash for TxPtr<R> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.addr.hash(state)
    }
}
impl<R> std::fmt::Debug for TxPtr<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxPtr({:?})", self.addr)
    }
}

impl<R> Codec for TxPtr<R> {
    #[inline(always)]
    fn encode(self) -> u64 {
        self.addr.index() as u64
    }

    #[inline(always)]
    fn decode(raw: u64) -> Self {
        debug_assert_ne!(raw, NULL_PTR_WORD, "null word decoded as non-null TxPtr");
        TxPtr {
            addr: Addr(raw as usize),
            _record: PhantomData,
        }
    }
}

impl<R> Codec for Option<TxPtr<R>> {
    #[inline(always)]
    fn encode(self) -> u64 {
        match self {
            Some(p) => p.encode(),
            None => NULL_PTR_WORD,
        }
    }

    #[inline(always)]
    fn decode(raw: u64) -> Self {
        if raw == NULL_PTR_WORD {
            None
        } else {
            Some(TxPtr {
                addr: Addr(raw as usize),
                _record: PhantomData,
            })
        }
    }
}

// ---------------------------------------------------------------------
// Typed cells and slices
// ---------------------------------------------------------------------

/// A typed single heap word.
///
/// The fundamental unit of the typed layer: every access is a thin
/// `#[inline]` wrapper over the corresponding word operation, so typed and
/// raw code compile to the same loads and stores.
///
/// ```
/// use rhtm_api::test_runtime::DirectRuntime;
/// use rhtm_api::typed::{TxCell, TypedAlloc};
/// use rhtm_api::{TmRuntime, TmThread};
///
/// let rt = DirectRuntime::new(64);
/// let flag: TxCell<bool> = rt.mem().alloc_cell();
/// let mut th = rt.register_thread();
/// th.execute(|tx| flag.write(tx, true));
/// assert!(th.execute(|tx| flag.read(tx)));
/// assert_eq!(rt.mem().heap().load(flag.addr()), 1);
/// ```
pub struct TxCell<T> {
    addr: Addr,
    _value: PhantomData<fn() -> T>,
}

impl<T: Codec> TxCell<T> {
    /// A typed view of the word at `addr`.
    #[inline(always)]
    pub fn at(addr: Addr) -> Self {
        TxCell {
            addr,
            _value: PhantomData,
        }
    }

    /// The underlying word address (for interop with raw [`Txn`] code and
    /// the non-transactional `nt_*` simulator accessors).
    #[inline(always)]
    pub fn addr(self) -> Addr {
        self.addr
    }

    /// Transactionally reads the cell.
    #[inline(always)]
    pub fn read<X: Txn + ?Sized>(self, tx: &mut X) -> TxResult<T> {
        Ok(T::decode(tx.read(self.addr)?))
    }

    /// Transactionally writes the cell.
    #[inline(always)]
    pub fn write<X: Txn + ?Sized>(self, tx: &mut X, value: T) -> TxResult<()> {
        tx.write(self.addr, value.encode())
    }

    /// Plain (non-transactional) load, for single-threaded construction
    /// and quiescent checks.
    #[inline(always)]
    pub fn load(self, heap: &TxHeap) -> T {
        T::decode(heap.load(self.addr))
    }

    /// Plain (non-transactional) store, for single-threaded construction.
    #[inline(always)]
    pub fn store(self, heap: &TxHeap, value: T) {
        heap.store(self.addr, value.encode())
    }

    /// Relaxed (non-transactional) load; sound only on data no other
    /// thread is concurrently writing (construction, quiescent checks).
    #[inline(always)]
    pub fn load_relaxed(self, heap: &TxHeap) -> T {
        T::decode(heap.load_relaxed(self.addr))
    }

    /// Relaxed (non-transactional) store — the bulk-prefill path.  Only
    /// sound during single-threaded construction, before any worker thread
    /// exists; spawning the workers publishes these stores.
    #[inline(always)]
    pub fn store_relaxed(self, heap: &TxHeap, value: T) {
        heap.store_relaxed(self.addr, value.encode())
    }
}

impl<T> Clone for TxCell<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TxCell<T> {}
impl<T> PartialEq for TxCell<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<T> Eq for TxCell<T> {}
impl<T> std::fmt::Debug for TxCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxCell({:?})", self.addr)
    }
}

/// A typed, fixed-length array of heap words (bucket arrays, ring-buffer
/// slot arrays, raw word regions).
pub struct TxSlice<T> {
    base: Addr,
    len: usize,
    _value: PhantomData<fn() -> T>,
}

impl<T: Codec> TxSlice<T> {
    /// A typed view of the `len` words starting at `base`.
    #[inline(always)]
    pub fn at(base: Addr, len: usize) -> Self {
        TxSlice {
            base,
            len,
            _value: PhantomData,
        }
    }

    /// First word address.
    #[inline(always)]
    pub fn base(self) -> Addr {
        self.base
    }

    /// Number of elements.
    #[inline(always)]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.len
    }

    /// The typed cell of element `index`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `index < len` (the heap itself bounds-checks in every
    /// build).
    #[inline(always)]
    pub fn get(self, index: usize) -> TxCell<T> {
        debug_assert!(index < self.len, "slice index {index} out of {}", self.len);
        TxCell::at(self.base.offset(index))
    }

    /// Iterates the element cells (construction/verification helper).
    pub fn iter(self) -> impl Iterator<Item = TxCell<T>> {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl<T> Clone for TxSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TxSlice<T> {}
impl<T> std::fmt::Debug for TxSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxSlice({:?}, len {})", self.base, self.len)
    }
}

/// A typed view of `len` contiguous records of type `R` (node pools the
/// constant structures carve up by key).
///
/// [`TxRecords::get`] owns the record-stride arithmetic
/// (`base + index * R::WORDS`), so constructors never multiply by a word
/// count by hand — the mistake that silently mints a misaligned pointer.
pub struct TxRecords<R> {
    base: Addr,
    len: usize,
    _record: PhantomData<fn() -> R>,
}

impl<R: Record> TxRecords<R> {
    /// A typed view of the `len * R::WORDS` words starting at `base`.
    #[inline(always)]
    pub fn at(base: Addr, len: usize) -> Self {
        TxRecords {
            base,
            len,
            _record: PhantomData,
        }
    }

    /// First record's address.
    #[inline(always)]
    pub fn base(self) -> Addr {
        self.base
    }

    /// Number of records.
    #[inline(always)]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.len
    }

    /// The pointer to record `index`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `index < len` (the heap itself bounds-checks in every
    /// build).
    #[inline(always)]
    pub fn get(self, index: usize) -> TxPtr<R> {
        debug_assert!(index < self.len, "record index {index} out of {}", self.len);
        TxPtr::new(self.base.offset(index * R::WORDS))
    }

    /// Iterates the record pointers (construction/verification helper).
    pub fn iter(self) -> impl Iterator<Item = TxPtr<R>> {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl<R> Clone for TxRecords<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for TxRecords<R> {}
impl<R> std::fmt::Debug for TxRecords<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxRecords({:?}, len {})", self.base, self.len)
    }
}

// ---------------------------------------------------------------------
// Record layouts
// ---------------------------------------------------------------------

/// A typed scalar-field handle: the offset of one word inside records of
/// type `R`, carrying the field's value type `T`.
///
/// Minted by [`LayoutBuilder::field`]; the phantom `R` prevents a field
/// handle from being used on a pointer to a different record type.
pub struct Field<R, T> {
    offset: usize,
    _marker: PhantomData<fn() -> (R, T)>,
}

impl<R, T: Codec> Field<R, T> {
    /// The word offset inside the record.
    #[inline(always)]
    pub const fn offset(self) -> usize {
        self.offset
    }
}

impl<R, T> Clone for Field<R, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R, T> Copy for Field<R, T> {}
impl<R, T> std::fmt::Debug for Field<R, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Field(+{})", self.offset)
    }
}

/// A typed array-field handle: `len` consecutive words inside records of
/// type `R` (skiplist towers, dummy payload blocks).
pub struct FieldArray<R, T> {
    offset: usize,
    len: usize,
    _marker: PhantomData<fn() -> (R, T)>,
}

impl<R, T: Codec> FieldArray<R, T> {
    /// The word offset of element 0 inside the record.
    #[inline(always)]
    pub const fn offset(self) -> usize {
        self.offset
    }

    /// Number of elements.
    #[inline(always)]
    #[allow(clippy::len_without_is_empty)]
    pub const fn len(self) -> usize {
        self.len
    }
}

impl<R, T> Clone for FieldArray<R, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R, T> Copy for FieldArray<R, T> {}
impl<R, T> std::fmt::Debug for FieldArray<R, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FieldArray(+{}, len {})", self.offset, self.len)
    }
}

/// The sealed word layout of a record type `R`: how many heap words one
/// record occupies.  Built once (usually in a `const`) by
/// [`LayoutBuilder`]; see the [module docs](self) for the idiom.
pub struct TxLayout<R> {
    words: usize,
    _record: PhantomData<fn() -> R>,
}

impl<R> TxLayout<R> {
    /// Heap words per record.
    #[inline(always)]
    pub const fn words(self) -> usize {
        self.words
    }
}

impl<R> Clone for TxLayout<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for TxLayout<R> {}
impl<R> std::fmt::Debug for TxLayout<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxLayout({} words)", self.words)
    }
}

/// Macro-free, `const`-evaluable builder of a record layout.
///
/// Fields are appended in declaration order; each append returns the
/// advanced builder plus the typed handle, so the whole layout is a single
/// const expression and no offset is ever hand-numbered:
///
/// ```
/// use rhtm_api::typed::{Field, FieldArray, LayoutBuilder, TxLayout};
///
/// struct Node;
/// const NODE: (TxLayout<Node>, Field<Node, u64>, FieldArray<Node, u64>) = {
///     let b = LayoutBuilder::new();
///     let (b, key) = b.field();
///     let (b, dummies) = b.array(4);
///     (b.pad_to(8).finish(), key, dummies)
/// };
/// assert_eq!(NODE.0.words(), 8);
/// assert_eq!(NODE.1.offset(), 0);
/// assert_eq!(NODE.2.offset(), 1);
/// ```
pub struct LayoutBuilder<R> {
    next: usize,
    _record: PhantomData<fn() -> R>,
}

impl<R> LayoutBuilder<R> {
    /// An empty layout.
    #[allow(clippy::new_without_default)] // const-context builder; Default is never wanted
    pub const fn new() -> Self {
        LayoutBuilder {
            next: 0,
            _record: PhantomData,
        }
    }

    /// Appends one scalar field of type `T`, returning the advanced
    /// builder and the field's typed handle.
    pub const fn field<T: Codec>(self) -> (Self, Field<R, T>) {
        let handle = Field {
            offset: self.next,
            _marker: PhantomData,
        };
        (
            LayoutBuilder {
                next: self.next + 1,
                _record: PhantomData,
            },
            handle,
        )
    }

    /// Appends an array field of `len` words of type `T`.
    pub const fn array<T: Codec>(self, len: usize) -> (Self, FieldArray<R, T>) {
        let handle = FieldArray {
            offset: self.next,
            len,
            _marker: PhantomData,
        };
        (
            LayoutBuilder {
                next: self.next + len,
                _record: PhantomData,
            },
            handle,
        )
    }

    /// Pads the record up to `words` total words (e.g. to a cache-line
    /// multiple so adjacent records never share a line).
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) if the fields already
    /// exceed `words`.
    pub const fn pad_to(self, words: usize) -> Self {
        assert!(self.next <= words, "record fields exceed padded size");
        LayoutBuilder {
            next: words,
            _record: PhantomData,
        }
    }

    /// Seals the layout.
    pub const fn finish(self) -> TxLayout<R> {
        TxLayout {
            words: self.next,
            _record: PhantomData,
        }
    }
}

/// A record type with a known heap layout, allocatable through
/// [`TypedAlloc`].
///
/// Implemented on zero-sized marker types; the marker never exists at
/// runtime — it only types the pointers, cells and field handles.
pub trait Record: Sized + 'static {
    /// The record's sealed layout.
    const LAYOUT: TxLayout<Self>;

    /// Heap words per record (sugar for `Self::LAYOUT.words()`).
    const WORDS: usize = Self::LAYOUT.words();
}

// ---------------------------------------------------------------------
// Typed allocation
// ---------------------------------------------------------------------

/// Typed bump allocation over [`TmMemory`].
///
/// The panicking variants mirror [`TmMemory::alloc`] (exhaustion is a
/// sizing bug); the `try_` variants return [`OutOfMemory`] so prefill code
/// can attach context (which structure, which `required_words` helper)
/// before reporting.
pub trait TypedAlloc {
    /// Allocates one record of type `R`.
    fn alloc_record<R: Record>(&self) -> TxPtr<R>;

    /// Checked variant of [`TypedAlloc::alloc_record`].
    fn try_alloc_record<R: Record>(&self) -> Result<TxPtr<R>, OutOfMemory>;

    /// Allocates `len` contiguous records of type `R` (a node pool).
    fn alloc_records<R: Record>(&self, len: usize) -> TxRecords<R>;

    /// Checked variant of [`TypedAlloc::alloc_records`].
    fn try_alloc_records<R: Record>(&self, len: usize) -> Result<TxRecords<R>, OutOfMemory>;

    /// Allocates one typed word.
    fn alloc_cell<T: Codec>(&self) -> TxCell<T>;

    /// Checked variant of [`TypedAlloc::alloc_cell`].
    fn try_alloc_cell<T: Codec>(&self) -> Result<TxCell<T>, OutOfMemory>;

    /// Allocates one typed word on its own cache line (for hot cursors
    /// whose conflicts must stay semantic, not false sharing).
    fn alloc_cell_line_aligned<T: Codec>(&self) -> TxCell<T>;

    /// Checked variant of [`TypedAlloc::alloc_cell_line_aligned`].
    fn try_alloc_cell_line_aligned<T: Codec>(&self) -> Result<TxCell<T>, OutOfMemory>;

    /// Allocates a typed array of `len` words.
    fn alloc_slice<T: Codec>(&self, len: usize) -> TxSlice<T>;

    /// Checked variant of [`TypedAlloc::alloc_slice`].
    fn try_alloc_slice<T: Codec>(&self, len: usize) -> Result<TxSlice<T>, OutOfMemory>;

    /// Allocates a typed array of `len` words starting on a cache line.
    fn alloc_slice_line_aligned<T: Codec>(&self, len: usize) -> TxSlice<T>;

    /// Checked variant of [`TypedAlloc::alloc_slice_line_aligned`].
    fn try_alloc_slice_line_aligned<T: Codec>(&self, len: usize)
        -> Result<TxSlice<T>, OutOfMemory>;
}

impl TypedAlloc for TmMemory {
    #[inline]
    fn alloc_record<R: Record>(&self) -> TxPtr<R> {
        TxPtr::new(self.alloc(R::WORDS))
    }

    #[inline]
    fn try_alloc_record<R: Record>(&self) -> Result<TxPtr<R>, OutOfMemory> {
        Ok(TxPtr::new(self.try_alloc(R::WORDS)?))
    }

    #[inline]
    fn alloc_records<R: Record>(&self, len: usize) -> TxRecords<R> {
        match self.try_alloc_records(len) {
            Ok(records) => records,
            Err(oom) => panic!("{oom}"),
        }
    }

    #[inline]
    fn try_alloc_records<R: Record>(&self, len: usize) -> Result<TxRecords<R>, OutOfMemory> {
        // saturating_mul: a wrapped word count would silently under-allocate
        // a pool that still claims `len` records.
        let words = len.saturating_mul(R::WORDS);
        Ok(TxRecords::at(self.try_alloc(words)?, len))
    }

    #[inline]
    fn alloc_cell<T: Codec>(&self) -> TxCell<T> {
        TxCell::at(self.alloc(1))
    }

    #[inline]
    fn try_alloc_cell<T: Codec>(&self) -> Result<TxCell<T>, OutOfMemory> {
        Ok(TxCell::at(self.try_alloc(1)?))
    }

    #[inline]
    fn alloc_cell_line_aligned<T: Codec>(&self) -> TxCell<T> {
        TxCell::at(self.alloc_line_aligned(1))
    }

    #[inline]
    fn try_alloc_cell_line_aligned<T: Codec>(&self) -> Result<TxCell<T>, OutOfMemory> {
        Ok(TxCell::at(self.try_alloc_line_aligned(1)?))
    }

    #[inline]
    fn alloc_slice<T: Codec>(&self, len: usize) -> TxSlice<T> {
        TxSlice::at(self.alloc(len), len)
    }

    #[inline]
    fn try_alloc_slice<T: Codec>(&self, len: usize) -> Result<TxSlice<T>, OutOfMemory> {
        Ok(TxSlice::at(self.try_alloc(len)?, len))
    }

    #[inline]
    fn alloc_slice_line_aligned<T: Codec>(&self, len: usize) -> TxSlice<T> {
        TxSlice::at(self.alloc_line_aligned(len), len)
    }

    #[inline]
    fn try_alloc_slice_line_aligned<T: Codec>(
        &self,
        len: usize,
    ) -> Result<TxSlice<T>, OutOfMemory> {
        Ok(TxSlice::at(self.try_alloc_line_aligned(len)?, len))
    }
}

/// Unwrap-with-sizing-hint for checked allocation results: the one place
/// the "allocation failed: …; size the heap with `X::required_words(…)`"
/// panic message is spelled, so every structure reports sizing mistakes
/// uniformly.
///
/// ```should_panic
/// use rhtm_api::typed::{OrSized, TypedAlloc, TxSlice};
/// use rhtm_mem::{MemConfig, TmMemory};
///
/// let mem = TmMemory::new(MemConfig::with_data_words(8));
/// let _: TxSlice<u64> =
///     mem.try_alloc_slice(1 << 20).or_sized("MyQueue::required_words(capacity)");
/// ```
pub trait OrSized<T> {
    /// Returns the allocation, or panics naming the `required_words`-style
    /// sizing helper the caller should have used.
    fn or_sized(self, hint: &str) -> T;
}

impl<T> OrSized<T> for Result<T, OutOfMemory> {
    #[inline]
    fn or_sized(self, hint: &str) -> T {
        self.unwrap_or_else(|oom| panic!("allocation failed: {oom}; size the heap with {hint}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runtime::DirectRuntime;
    use crate::traits::{TmRuntime, TmThread};

    struct Pair;
    #[allow(clippy::type_complexity)] // the layout-builder tuple idiom
    const PAIR: (
        TxLayout<Pair>,
        Field<Pair, u64>,
        Field<Pair, Option<TxPtr<Pair>>>,
        FieldArray<Pair, bool>,
    ) = {
        let b = LayoutBuilder::new();
        let (b, value) = b.field();
        let (b, next) = b.field();
        let (b, flags) = b.array(3);
        (b.pad_to(8).finish(), value, next, flags)
    };
    impl Record for Pair {
        const LAYOUT: TxLayout<Pair> = PAIR.0;
    }
    const VALUE: Field<Pair, u64> = PAIR.1;
    const NEXT: Field<Pair, Option<TxPtr<Pair>>> = PAIR.2;
    const FLAGS: FieldArray<Pair, bool> = PAIR.3;

    #[test]
    fn builder_assigns_sequential_offsets_and_padding() {
        assert_eq!(VALUE.offset(), 0);
        assert_eq!(NEXT.offset(), 1);
        assert_eq!(FLAGS.offset(), 2);
        assert_eq!(FLAGS.len(), 3);
        assert_eq!(Pair::WORDS, 8);
    }

    #[test]
    fn codec_round_trips_scalars_and_pointers() {
        for raw in [0u64, 1, 42, u64::MAX - 1] {
            assert_eq!(u64::decode(u64::encode(raw)), raw);
            assert_eq!(usize::decode(usize::encode(raw as usize)), raw as usize);
        }
        assert!(bool::decode(bool::encode(true)));
        assert!(!bool::decode(bool::encode(false)));
        let p: TxPtr<Pair> = TxPtr::new(Addr(99));
        assert_eq!(TxPtr::<Pair>::decode(p.encode()), p);
        assert_eq!(<Option<TxPtr<Pair>>>::encode(None), NULL_PTR_WORD);
        assert_eq!(<Option<TxPtr<Pair>>>::decode(NULL_PTR_WORD), None);
        assert_eq!(<Option<TxPtr<Pair>>>::decode(p.encode()), Some(p));
    }

    #[test]
    #[should_panic(expected = "Addr::NULL")]
    fn null_addr_cannot_become_a_ptr() {
        let _ = TxPtr::<Pair>::new(Addr::NULL);
    }

    #[test]
    fn cells_read_and_write_through_a_transaction() {
        let rt = DirectRuntime::new(128);
        let node = rt.mem().alloc_record::<Pair>();
        let other = rt.mem().alloc_record::<Pair>();
        let mut th = rt.register_thread();
        th.execute(|tx| {
            node.field(VALUE).write(tx, 7)?;
            node.field(NEXT).write(tx, Some(other))?;
            node.slot(FLAGS, 1).write(tx, true)?;
            Ok(())
        });
        let (v, n, f0, f1) = th.execute(|tx| {
            Ok((
                node.field(VALUE).read(tx)?,
                node.field(NEXT).read(tx)?,
                node.slot(FLAGS, 0).read(tx)?,
                node.slot(FLAGS, 1).read(tx)?,
            ))
        });
        assert_eq!(v, 7);
        assert_eq!(n, Some(other));
        assert!(!f0);
        assert!(f1);
        // The typed writes are the raw words (bit-identity).
        let heap = rt.mem().heap();
        assert_eq!(heap.load(node.addr()), 7);
        assert_eq!(
            heap.load(node.addr().offset(1)),
            other.addr().index() as u64
        );
        assert_eq!(heap.load(node.addr().offset(3)), 1);
    }

    #[test]
    fn slices_are_typed_views_of_word_ranges() {
        let rt = DirectRuntime::new(128);
        let slice: TxSlice<u64> = rt.mem().alloc_slice(8);
        assert_eq!(slice.len(), 8);
        for (i, cell) in slice.iter().enumerate() {
            cell.store(rt.mem().heap(), i as u64 * 3);
        }
        let mut th = rt.register_thread();
        let sum = th.execute(|tx| {
            let mut s = 0;
            for i in 0..slice.len() {
                s += slice.get(i).read(tx)?;
            }
            Ok(s)
        });
        assert_eq!(sum, (0..8).map(|i| i * 3).sum());
    }

    #[test]
    fn line_aligned_allocations_start_on_a_line() {
        let rt = DirectRuntime::new(256);
        let c: TxCell<u64> = rt.mem().alloc_cell_line_aligned();
        assert_eq!(c.addr().index() % rhtm_mem::CACHE_LINE_WORDS, 0);
        let s: TxSlice<u64> = rt.mem().alloc_slice_line_aligned(4);
        assert_eq!(s.base().index() % rhtm_mem::CACHE_LINE_WORDS, 0);
    }

    #[test]
    fn checked_allocation_reports_out_of_memory() {
        let rt = DirectRuntime::new(8);
        // Drain the region, then every checked path must fail cleanly.
        while rt.mem().try_alloc(Pair::WORDS).is_ok() {}
        assert!(rt.mem().try_alloc_record::<Pair>().is_err());
        assert!(rt.mem().try_alloc_slice::<u64>(64).is_err());
        assert!(rt.mem().try_alloc_slice_line_aligned::<u64>(64).is_err());
        assert!(rt.mem().try_alloc_cell_line_aligned::<u64>().is_err());
        // A record count whose word total would wrap must report, not
        // under-allocate a pool that still claims `len` records.
        assert!(rt.mem().try_alloc_records::<Pair>(usize::MAX / 2).is_err());
        // At most `Pair::WORDS - 1` loose words remain for single cells.
        let mut cells = 0;
        while rt.mem().try_alloc_cell::<u64>().is_ok() {
            cells += 1;
        }
        assert!(cells < Pair::WORDS);
    }
}
