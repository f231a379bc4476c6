//! Dyn-erased runtime handles: hold any [`TmRuntime`] as a value.
//!
//! The generic traits keep the per-access hot path monomorphised, but
//! their shape — [`TmRuntime`]'s associated `Thread` type and
//! [`TmThread::execute`]'s generic closure — makes them non-object-safe,
//! so "give me the runtime for this [`AlgoKind`]" could not return a
//! value; every test, example and driver had to invert itself into a
//! visitor struct (`AlgoVisitor` continuation-passing style).  This module
//! adds the object-safe view:
//!
//! * [`Txn`] is already object-safe — `&mut dyn Txn` (aliased
//!   [`DynTxn`]) works directly, and the typed layer's
//!   [`TxCell`](crate::typed::TxCell) accessors accept it (`X: Txn +
//!   ?Sized`).
//! * [`DynThread`] — object-safe mirror of [`TmThread`], blanket-implemented
//!   for every `T: TmThread`.  Its [`execute_dyn`](DynThread::execute_dyn)
//!   takes a `&mut dyn FnMut(&mut DynTxn<'_>)` body; the
//!   [`DynThreadExt::run`] extension restores the ergonomic typed-return
//!   closure form.
//! * [`DynRuntime`] — object-safe mirror of [`TmRuntime`],
//!   blanket-implemented for every runtime; registration returns
//!   `Box<dyn DynThread>`.
//!
//! Erasure costs one indirect call per *transaction body invocation* and
//! per access.  The closed-loop benchmark loops stay on the generic path
//! (the paper's point is per-access instrumentation cost; virtual dispatch
//! there would drown it).  The sharded KV service does not: its worker
//! holds a `Box<dyn DynThread>` per shard, so every KV access, and every
//! KV benchmark, runs through `&mut dyn Txn`.
//!
//! [`AlgoKind`]: ../../rhtm_workloads/enum.AlgoKind.html
//!
//! # Example
//!
//! ```
//! use rhtm_api::dynamic::{DynRuntime, DynThreadExt};
//! use rhtm_api::test_runtime::DirectRuntime;
//!
//! // Held as a value: no visitor struct, no generic plumbing.
//! let rt: Box<dyn DynRuntime> = Box::new(DirectRuntime::new(64));
//! let cell = rt.mem().alloc(1);
//! let mut th = rt.register_dyn();
//! let v = th.run(|tx| {
//!     let v = tx.read(cell)?;
//!     tx.write(cell, v + 1)?;
//!     Ok(v + 1)
//! });
//! assert_eq!(v, 1);
//! assert_eq!(th.stats().commits(), 1);
//! ```

use std::sync::Arc;

use rhtm_mem::TmMemory;

use crate::abort::TxResult;
use crate::stats::TxStats;
use crate::traits::{TmRuntime, TmThread, Txn};

/// The object-safe transaction context: [`Txn`] needs no erasure shim, so
/// this is just the trait-object spelling of it.
pub type DynTxn<'a> = dyn Txn + 'a;

/// Object-safe mirror of [`TmThread`], blanket-implemented for every
/// thread handle, so `Box<dyn DynThread>` can be moved into workers
/// without naming the runtime's concrete thread type.
pub trait DynThread: Send {
    /// Runs `body` as a transaction, retrying until an attempt commits
    /// (the object-safe core of [`TmThread::execute`]).
    ///
    /// The closure returns `TxResult<()>`; a result value is captured by
    /// the closure itself — use [`DynThreadExt::run`] for the ergonomic
    /// typed-return form.
    fn execute_dyn(&mut self, body: &mut dyn FnMut(&mut DynTxn<'_>) -> TxResult<()>);

    /// This thread's dense id.
    fn thread_id(&self) -> usize;

    /// Read access to this thread's statistics.
    fn stats(&self) -> &TxStats;

    /// Mutable access to this thread's statistics.
    fn stats_mut(&mut self) -> &mut TxStats;
}

impl<T: TmThread> DynThread for T {
    fn execute_dyn(&mut self, body: &mut dyn FnMut(&mut DynTxn<'_>) -> TxResult<()>) {
        TmThread::execute(self, |tx| body(tx))
    }

    fn thread_id(&self) -> usize {
        TmThread::thread_id(self)
    }

    fn stats(&self) -> &TxStats {
        TmThread::stats(self)
    }

    fn stats_mut(&mut self) -> &mut TxStats {
        TmThread::stats_mut(self)
    }
}

/// Ergonomic typed-return `execute` over any [`DynThread`] (including
/// `Box<dyn DynThread>`), mirroring [`TmThread::execute`].
pub trait DynThreadExt {
    /// Runs `body` transactionally and returns the committed attempt's
    /// result.
    fn run<R, F>(&mut self, body: F) -> R
    where
        F: FnMut(&mut DynTxn<'_>) -> TxResult<R>;
}

impl<T: DynThread + ?Sized> DynThreadExt for T {
    fn run<R, F>(&mut self, mut body: F) -> R
    where
        F: FnMut(&mut DynTxn<'_>) -> TxResult<R>,
    {
        let mut out = None;
        self.execute_dyn(&mut |tx| {
            out = Some(body(tx)?);
            Ok(())
        });
        out.expect("execute_dyn returned without a committed result")
    }
}

/// Object-safe mirror of [`TmRuntime`], blanket-implemented for every
/// runtime: hold `Box<dyn DynRuntime>` (or `Arc<dyn DynRuntime>`) as a
/// value instead of writing a visitor.
pub trait DynRuntime: Send + Sync {
    /// The runtime's benchmark-report name (mirrors [`TmRuntime::name`]).
    fn name(&self) -> &'static str;

    /// The shared transactional memory (mirrors [`TmRuntime::mem`]).
    fn mem(&self) -> &Arc<TmMemory>;

    /// Creates a boxed handle for the calling thread (mirrors
    /// [`TmRuntime::register_thread`]).
    fn register_dyn(&self) -> Box<dyn DynThread>;
}

impl<R: TmRuntime> DynRuntime for R {
    fn name(&self) -> &'static str {
        TmRuntime::name(self)
    }

    fn mem(&self) -> &Arc<TmMemory> {
        TmRuntime::mem(self)
    }

    fn register_dyn(&self) -> Box<dyn DynThread> {
        Box::new(self.register_thread())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_runtime::DirectRuntime;
    use crate::typed::{TxCell, TypedAlloc};

    fn boxed() -> Box<dyn DynRuntime> {
        Box::new(DirectRuntime::new(128))
    }

    #[test]
    fn dyn_runtime_mirrors_the_generic_surface() {
        let rt = boxed();
        assert_eq!(rt.name(), "Direct");
        let addr = rt.mem().alloc(1);
        let mut th = rt.register_dyn();
        assert!(th.thread_id() < 64);
        th.run(|tx| tx.write(addr, 9));
        assert_eq!(rt.mem().heap().load(addr), 9);
        assert_eq!(th.stats().commits(), 1);
        th.stats_mut().reset();
        assert_eq!(th.stats().commits(), 0);
    }

    #[test]
    fn typed_cells_work_through_dyn_txn() {
        let rt = boxed();
        let cell: TxCell<bool> = rt.mem().alloc_cell();
        let mut th = rt.register_dyn();
        th.run(|tx| cell.write(tx, true));
        assert!(th.run(|tx| cell.read(tx)));
    }

    #[test]
    fn boxed_threads_move_across_real_threads() {
        let rt: Arc<dyn DynRuntime> = Arc::from(boxed());
        let cell = rt.mem().alloc(1);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    let mut th = rt.register_dyn();
                    for _ in 0..100 {
                        th.run(|tx| {
                            let v = tx.read(cell)?;
                            tx.write(cell, v + 1)
                        });
                    }
                    th.stats().commits()
                })
            })
            .collect();
        let commits: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(commits, 200);
    }

    #[test]
    fn retried_bodies_report_the_last_committed_value() {
        // An abort between the value capture and the commit must not leak
        // a stale result: `run` returns the committed attempt's value.
        let rt = boxed();
        let cell = rt.mem().alloc(1);
        let mut th = rt.register_dyn();
        let mut attempts = 0;
        let got = th.run(|tx| {
            attempts += 1;
            tx.write(cell, attempts)?;
            if attempts < 3 {
                return Err(crate::Abort::conflict());
            }
            Ok(attempts)
        });
        assert_eq!(got, 3);
        assert_eq!(th.stats().commits(), 1);
        assert_eq!(th.stats().aborts(), 2);
    }
}
