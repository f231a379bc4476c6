//! # rhtm-api
//!
//! Runtime-agnostic transactional memory interface shared by every runtime
//! in the workspace: the pure simulated-HTM runtime, the TL2 STM baseline,
//! the Standard-HyTM baseline and the RH1/RH2 reduced-hardware protocols.
//!
//! The central abstraction is a pair of traits:
//!
//! * [`TmRuntime`] — the shared, `Send + Sync` runtime object (global clock,
//!   stripe metadata, fallback counters, configuration).  It is a factory
//!   for per-thread handles.
//! * [`TmThread`] — a per-thread handle that doubles as the transaction
//!   context.  [`TmThread::execute`] runs a closure transactionally,
//!   retrying internally until the transaction commits; inside the closure
//!   all shared accesses go through [`Txn::read`] and [`Txn::write`], and
//!   aborts propagate as `Err(`[`Abort`]`)` via `?`.
//!
//! Workload and benchmark code is generic over `R: TmRuntime`, so the
//! per-access paths are monomorphised and the *relative* instrumentation
//! costs the paper measures are preserved (no virtual dispatch on the hot
//! path).
//!
//! Two layers sit on top of the word-level traits:
//!
//! * [`typed`] — the typed transactional data layer ([`TxCell`],
//!   [`TxPtr`], record layouts, typed + checked allocation): zero-cost
//!   `#[inline]` wrappers that replace hand-rolled offset arithmetic and
//!   pointer null-sentinels in data-structure code.
//! * [`reclaim`] — typed node pools with epoch-based reclamation
//!   ([`NodePool`], [`EpochGuard`]): allocation over the per-thread arenas
//!   of `rhtm_mem`, retire-on-remove and physical reuse once every thread
//!   has passed the retiring epoch.
//! * [`dynamic`] — object-safe, dyn-erased mirrors ([`DynRuntime`],
//!   [`DynThread`]) so tests and examples can hold *any* runtime as a
//!   `Box<dyn DynRuntime>` value instead of writing visitor structs.
//! * [`retry`] — contention management: one [`ComposedPolicy`] (give-up
//!   rule, pacing, optional circuit breaker, optional shared retry budget)
//!   behind the eight built-in labels, decided through the per-thread
//!   [`RetryThread`] every runtime thread owns.
//! * [`session`] — scoped worker sessions ([`TmScopeExt::scope`],
//!   [`run_scoped`]): structured multi-threaded execution over any
//!   runtime, replacing hand-rolled spawn/register/barrier/join loops.
//!
//! ```
//! use rhtm_api::{Abort, TmRuntime, TmThread, TxResult, Txn};
//! use rhtm_mem::Addr;
//!
//! /// Transfer `amount` between two "accounts" (heap words) under any
//! /// transactional runtime.
//! fn transfer<R: TmRuntime>(thread: &mut R::Thread, from: Addr, to: Addr, amount: u64) {
//!     thread.execute(|tx| {
//!         let a = tx.read(from)?;
//!         if a < amount {
//!             return Ok(false);
//!         }
//!         let b = tx.read(to)?;
//!         tx.write(from, a - amount)?;
//!         tx.write(to, b + amount)?;
//!         Ok(true)
//!     });
//! }
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod abort;
pub mod backoff;
pub mod dynamic;
pub mod latency;
pub mod reclaim;
pub mod retry;
pub mod session;
pub mod stats;
pub mod test_runtime;
pub mod traits;
pub mod typed;

pub use abort::{Abort, AbortCause, TxResult};
pub use backoff::Backoff;
pub use dynamic::{DynRuntime, DynThread, DynThreadExt, DynTxn};
pub use latency::{LatencyHistogram, LatencySummary};
pub use reclaim::{EpochGuard, NodePool};
pub use retry::{
    AttemptContext, CircuitBreakerConfig, ComposedPolicy, GiveUp, Pacing, PathClass, RetryBudget,
    RetryDecision, RetryPolicy, RetryPolicyHandle, RetryRng, RetryState, RetryThread, SpinWindow,
};
pub use session::{run_scoped, DynScopeExt, ScopeControl, TmScopeExt, WorkerSession};
pub use stats::{PathKind, PathProbe, RetryMetrics, Stopwatch, TxStats};
pub use traits::{TmRuntime, TmThread, Txn};
pub use typed::{
    Codec, Field, FieldArray, LayoutBuilder, OrSized, Record, TxCell, TxLayout, TxPtr, TxRecords,
    TxSlice, TypedAlloc, NULL_PTR_WORD,
};
