//! The closed-loop workloads, `rbtree-rh1` and `skiplist-tl2`.
//!
//! Each worker thread draws an operation kind from the scenario's mix and
//! a key from its distribution, calls `Workload::run_op`, and only then
//! draws the next one.  The measured interval is cut into fixed windows;
//! throughput and CPU time per operation are taken per window and the
//! medians reported, so one descheduling burst on a shared host moves one
//! window, not the result.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rhtm_api::{AbortCause, PathKind, TmRuntime, TmThread, TxStats};
use rhtm_htm::{HtmConfig, HtmSim};
use rhtm_mem::MemConfig;
use rhtm_workloads::{
    AlgoKind, AlgoVisitor, ConstantRbTree, KeyDist, OpKind, OpMix, Scenario, TmSpec, TxSkipList,
    Workload, WorkloadRng,
};

use crate::checks::{self, Check, ListState, TreeShape};
use crate::hist::Histogram;
use crate::metrics::{median, Report, Windows};
use crate::trace::Tracer;
use crate::{host, RunArgs, RunOutcome};

/// Worker threads of both closed loops (the host has two CPUs).
const THREADS: usize = 2;

/// Length of one measurement window.
const WINDOW: Duration = Duration::from_millis(500);

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// With tracing off, one operation in this many is timed for `p50_us` and
/// `p99_us`, which keeps the clock reads off most operations.
const LATENCY_SAMPLE: u64 = 8;

/// With tracing on, one operation span in this many is kept in the log.
const SPAN_LOG_SAMPLE: u64 = 4096;

/// Operations per runtime and round of the runtime-substitution runs.
const SUBSTITUTION_OPS: u64 = 20_000;

/// Rounds of the substitution runs, interleaved across the runtimes so a
/// slow spell of the host hits all of them.
const SUBSTITUTION_ROUNDS: usize = 9;

/// The runtimes of the substitution runs, cheapest first; each per-layer
/// cost is the difference between two neighbours.
const SUBSTITUTION: [AlgoKind; 4] = [
    AlgoKind::GlobalLock,
    AlgoKind::Htm,
    AlgoKind::Rh1Mixed(100),
    AlgoKind::Tl2,
];

/// A structure a closed-loop workload runs over, with its output check.
pub trait Shape: Workload + Sized {
    /// What the check compares after the run.
    type Before: Copy;

    /// Heap words for `size` elements and `threads` workers.
    fn words(size: u64, threads: usize) -> usize;

    /// Builds and fills the structure over `sim`.
    fn build(sim: &Arc<HtmSim>, size: u64) -> Self;

    /// The state the check needs from before the run.
    fn before(&self) -> Self::Before;

    /// Checks the structure at quiescence after the run.
    fn check(&self, before: Self::Before) -> Vec<Check>;

    /// A gauge the idle main thread samples while tracing, if any.
    fn gauge(&self) -> Option<u64> {
        None
    }
}

impl Shape for ConstantRbTree {
    type Before = TreeShape;

    fn words(size: u64, _threads: usize) -> usize {
        ConstantRbTree::required_words(size)
    }

    fn build(sim: &Arc<HtmSim>, size: u64) -> Self {
        ConstantRbTree::new(Arc::clone(sim), size)
    }

    fn before(&self) -> TreeShape {
        TreeShape {
            nodes: self.count_reachable(),
            depth: self.depth(),
        }
    }

    fn check(&self, before: TreeShape) -> Vec<Check> {
        checks::tree_unchanged(before, self.before())
    }
}

impl Shape for TxSkipList {
    type Before = ();

    fn words(size: u64, threads: usize) -> usize {
        TxSkipList::required_words(size, threads)
    }

    fn build(sim: &Arc<HtmSim>, size: u64) -> Self {
        let list = TxSkipList::new(Arc::clone(sim), size);
        list.prefill_alternate();
        list
    }

    fn before(&self) {}

    fn check(&self, _: ()) -> Vec<Check> {
        let pool = self.pool();
        checks::list_quiescent(ListState {
            well_formed: self.is_well_formed_quiescent(),
            unsafe_reclaims: pool.unsafe_reclaims(),
            retired: pool.retired_count(),
            reclaimed: pool.reclaimed_count(),
            pending: pool.pending() as u64,
        })
    }

    fn gauge(&self) -> Option<u64> {
        Some(self.pool().pending() as u64)
    }
}

/// One closed-loop workload: a registry scenario on one runtime.
pub struct ClosedWorkload {
    /// Registry scenario giving size, mix and key distribution.
    pub scenario: &'static str,
    /// The runtime.
    pub algo: AlgoKind,
    /// §3.1 emulated abort ratio on writing hardware commits.
    pub forced_abort_ratio: f64,
}

/// `rbtree-rh1`.
pub const RBTREE_RH1: ClosedWorkload = ClosedWorkload {
    scenario: "rbtree-uniform",
    algo: AlgoKind::Rh1Mixed(100),
    forced_abort_ratio: 0.1,
};

/// `skiplist-tl2`.
pub const SKIPLIST_TL2: ClosedWorkload = ClosedWorkload {
    scenario: "skiplist-zipf",
    algo: AlgoKind::Tl2,
    forced_abort_ratio: 0.0,
};

/// The settings one measured loop runs with.
#[derive(Clone, Copy, Debug)]
struct LoopOpts {
    windows: usize,
    seed: u64,
    mix: OpMix,
    dist: KeyDist,
    trace: bool,
}

/// What one measured loop observed.
struct LoopOutcome {
    ops: u64,
    windows: Windows,
    /// Sampled op durations of the untraced windows, ns.
    latency: Histogram,
    stats: TxStats,
    gauge_max: Option<u64>,
    tracer: Tracer,
}

#[repr(align(128))]
#[derive(Default)]
struct Counter(AtomicU64);

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn op_span_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Lookup => "workloads.run_op.lookup",
        OpKind::RangeSum => "workloads.run_op.range_sum",
        OpKind::Update => "workloads.run_op.update",
        OpKind::Insert => "workloads.run_op.insert",
        OpKind::Remove => "workloads.run_op.remove",
    }
}

/// The per-thread RNG seed of worker `tid`.
fn thread_seed(seed: u64, tid: usize) -> u64 {
    seed ^ ((tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `workload` on `rt` for `opts.windows` windows.  With tracing on,
/// odd windows are traced and even ones are not, so the throughput the
/// tracing costs is measured in the same run.
fn run_loop<R: TmRuntime, S: Shape>(
    rt: &R,
    workload: &S,
    opts: LoopOpts,
    epoch: Instant,
) -> LoopOutcome {
    let stop = AtomicBool::new(false);
    let tracing = AtomicBool::new(false);
    let counters: Vec<Counter> = (0..THREADS).map(|_| Counter::default()).collect();
    let barrier = Barrier::new(THREADS + 1);
    let mut main_tracer = Tracer::new(epoch, 0);
    let measure = main_tracer.reserve("bench.measure");

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let (stop, tracing, barrier) = (&stop, &tracing, &barrier);
                let counter = &counters[tid].0;
                scope.spawn(move || {
                    let mut th = rt.register_thread();
                    let mut rng = WorkloadRng::new(thread_seed(opts.seed, tid));
                    let mut keys = opts.dist.sampler(workload.key_space(), tid, THREADS);
                    let mut latency = Histogram::new();
                    let mut tracer = Tracer::new(epoch, tid as u64 + 1);
                    let mut ops = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let op = opts.mix.draw(&mut rng);
                        let key = keys.sample(&mut rng);
                        if tracing.load(Ordering::Relaxed) {
                            let t0 = Instant::now();
                            workload.run_op(&mut th, &mut rng, op, key);
                            let t1 = Instant::now();
                            let keep = ops.is_multiple_of(SPAN_LOG_SAMPLE);
                            tracer.span(op_span_name(op), Some(measure), t0, t1, None, keep);
                        } else if ops.is_multiple_of(LATENCY_SAMPLE) {
                            let t0 = Instant::now();
                            workload.run_op(&mut th, &mut rng, op, key);
                            latency.record(ns(t0.elapsed()));
                        } else {
                            workload.run_op(&mut th, &mut rng, op, key);
                        }
                        ops += 1;
                        counter.store(ops, Ordering::Relaxed);
                    }
                    (ops, th.stats().clone(), latency, tracer)
                })
            })
            .collect();

        barrier.wait();
        let started = Instant::now();
        let total_ops = || {
            counters
                .iter()
                .map(|c| c.0.load(Ordering::Relaxed))
                .sum::<u64>()
        };
        let (mut last_t, mut last_ops, mut last_cpu) = (started, 0u64, host::process_cpu_ns());
        let mut windows = Windows::default();
        let mut gauge_max: Option<u64> = None;
        for k in 0..opts.windows {
            let traced = opts.trace && k % 2 == 1;
            tracing.store(traced, Ordering::Relaxed);
            let end = started + WINDOW * (k as u32 + 1);
            loop {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                match workload.gauge().filter(|_| traced) {
                    Some(g) => {
                        gauge_max = Some(gauge_max.unwrap_or(0).max(g));
                        std::thread::sleep(Duration::from_millis(1).min(end - now));
                    }
                    None => std::thread::sleep(end - now),
                }
            }
            let (t, done, cpu) = (Instant::now(), total_ops(), host::process_cpu_ns());
            let secs = (t - last_t).as_secs_f64();
            windows.push(traced, done - last_ops, secs, cpu.saturating_sub(last_cpu));
            (last_t, last_ops, last_cpu) = (t, done, cpu);
        }
        stop.store(true, Ordering::Relaxed);
        let ended = Instant::now();

        let mut ops = 0;
        let mut stats = TxStats::new(false);
        let mut latency = Histogram::new();
        for w in workers {
            let (n, s, h, t) = w.join().expect("closed-loop worker panicked");
            ops += n;
            stats.merge(&s);
            latency.merge(&h);
            main_tracer.merge(t);
        }
        main_tracer.finish(measure, None, started, ended, None, true);
        LoopOutcome {
            ops,
            windows,
            latency,
            stats,
            gauge_max,
            tracer: main_tracer,
        }
    })
}

/// Runs `ops` operations of the workload's op stream on one thread and
/// returns the wall-clock nanoseconds per op.
fn single_thread_ns_per_op<R: TmRuntime, S: Shape>(
    rt: &R,
    workload: &S,
    opts: LoopOpts,
    ops: u64,
) -> f64 {
    let mut th = rt.register_thread();
    let mut rng = WorkloadRng::new(thread_seed(opts.seed, 0));
    let mut keys = opts.dist.sampler(workload.key_space(), 0, 1);
    let started = Instant::now();
    for _ in 0..ops {
        let op = opts.mix.draw(&mut rng);
        let key = keys.sample(&mut rng);
        workload.run_op(&mut th, &mut rng, op, key);
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Either times one set-up (the runtime is built when the visitor is
/// entered) or, for the last set-up, also runs the measured loop.
struct RunVisitor<'a, S: Shape> {
    structure: &'a S,
    setup_started: Instant,
    loop_opts: Option<LoopOpts>,
    epoch: Instant,
}

type Visited<S> = (Duration, Option<(<S as Shape>::Before, LoopOutcome)>);

impl<S: Shape> AlgoVisitor for RunVisitor<'_, S> {
    type Out = Visited<S>;

    fn visit<R: TmRuntime>(self, runtime: R) -> Visited<S> {
        let setup = self.setup_started.elapsed();
        let run = self.loop_opts.map(|opts| {
            let before = self.structure.before();
            (before, run_loop(&runtime, self.structure, opts, self.epoch))
        });
        (setup, run)
    }
}

struct CountedVisitor<'a, S: Shape> {
    structure: &'a S,
    opts: LoopOpts,
}

impl<S: Shape> AlgoVisitor for CountedVisitor<'_, S> {
    type Out = f64;

    fn visit<R: TmRuntime>(self, runtime: R) -> f64 {
        single_thread_ns_per_op(&runtime, self.structure, self.opts, SUBSTITUTION_OPS)
    }
}

impl ClosedWorkload {
    fn scenario(&self) -> &'static Scenario {
        Scenario::find(self.scenario).expect("the benchmark's scenarios are registered")
    }

    fn spec<S: Shape>(&self, algo: AlgoKind, seed: u64, threads: usize) -> TmSpec {
        let size = self.scenario().base_size;
        TmSpec::new(algo)
            .htm(HtmConfig {
                forced_abort_ratio: self.forced_abort_ratio,
                seed,
                ..HtmConfig::default()
            })
            .mem(MemConfig::with_data_words(S::words(size, threads) + 4096))
    }

    /// Sets the workload up [`SETUPS`] times and measures the last set-up.
    pub fn run<S: Shape>(&self, args: &RunArgs) -> RunOutcome {
        let scenario = self.scenario();
        let epoch = Instant::now();
        let opts = LoopOpts {
            windows: ((args.seconds / WINDOW.as_secs_f64()).round() as usize).max(2),
            seed: args.seed,
            mix: scenario.mix,
            dist: scenario.dist,
            trace: args.trace,
        };
        let spec = self.spec::<S>(self.algo, args.seed, THREADS);
        let mut setups = Vec::new();
        let mut tracer_setups = Vec::new();
        let mut measured = None;
        for i in 0..SETUPS {
            let setup_started = Instant::now();
            let sim = spec.build_sim();
            let structure = S::build(&sim, scenario.base_size);
            let last = i + 1 == SETUPS;
            let (setup, run) = spec.visit_on(
                sim,
                RunVisitor {
                    structure: &structure,
                    setup_started,
                    loop_opts: last.then_some(opts),
                    epoch,
                },
            );
            setups.push(setup.as_secs_f64());
            tracer_setups.push((setup_started, setup));
            if let Some((before, outcome)) = run {
                let peak_rss = host::peak_rss_mib();
                measured = Some((outcome, peak_rss, structure.check(before)));
            }
        }
        let (outcome, peak_rss, checks) = measured.expect("the last set-up runs the loop");

        let mut report = Report::new();
        let mut tracer = outcome.tracer;
        for (started, took) in tracer_setups {
            tracer.span("bench.setup", None, started, started + took, None, true);
        }
        let windows = &outcome.windows;
        if args.trace {
            per_layer(&mut report, &outcome.stats, outcome.ops);
            self.substitution::<S>(&mut report, opts, args.seed);
            for op in [
                OpKind::Lookup,
                OpKind::Update,
                OpKind::Insert,
                OpKind::Remove,
            ] {
                if let Some(h) = tracer.histogram(op_span_name(op)) {
                    let name = format!("workloads.op_ns.{}", op.label());
                    report.set(&format!("{name}.p50"), h.quantile(0.5) as f64, h.count());
                    report.set(&format!("{name}.p99"), h.quantile(0.99) as f64, h.count());
                }
            }
            if let Some(g) = outcome.gauge_max {
                report.set(
                    "api.reclaim.pending_max",
                    g as f64,
                    windows.traced_cpu_ns_per_op.len() as u64,
                );
            }
            report.set(
                "trace.overhead_share",
                windows.overhead_share(),
                windows.count(),
            );
        } else {
            let n = windows.count();
            report.set("setup_s", median(&setups), setups.len() as u64);
            report.set("throughput_ops_s", median(&windows.rate), n);
            report.set("cpu_ns_per_op", median(&windows.cpu_ns_per_op), n);
            let lat = &outcome.latency;
            report.set("p50_us", lat.quantile(0.5) as f64 / 1e3, lat.count());
            report.set("peak_rss_mib", peak_rss, 1);
        }
        RunOutcome {
            report,
            attempted: outcome.ops,
            checks,
            tracer,
            notes: vec![
                format!("scenario={} spec={}", scenario.name, spec.label()),
                format!(
                    "ops={} commits={} aborts={} windows={}",
                    outcome.ops,
                    outcome.stats.commits(),
                    outcome.stats.aborts(),
                    windows.count()
                ),
                windows.summary(),
                format!(
                    "p99_us={:.3} us samples={} (printed, not gated: see perfbench/README.md)",
                    outcome.latency.quantile(0.99) as f64 / 1e3,
                    outcome.latency.count()
                ),
            ],
        }
    }

    /// The paper's Fig. 1 method: the same single-thread op stream on
    /// cheaper and dearer runtimes; adjacent differences are layer costs.
    /// Every runtime runs over the same simulator and structure, so they
    /// all see the same memory placement and the same warm caches.
    fn substitution<S: Shape>(&self, report: &mut Report, opts: LoopOpts, seed: u64) {
        let sim = self.spec::<S>(self.algo, seed, 1).build_sim();
        let structure = S::build(&sim, self.scenario().base_size);
        let specs: Vec<TmSpec> = SUBSTITUTION
            .iter()
            .map(|&algo| self.spec::<S>(algo, seed, 1))
            .collect();
        let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); SUBSTITUTION.len()];
        for _ in 0..SUBSTITUTION_ROUNDS {
            for (spec, round) in specs.iter().zip(&mut rounds) {
                let visitor = CountedVisitor {
                    structure: &structure,
                    opts,
                };
                round.push(spec.visit_on(Arc::clone(&sim), visitor));
            }
        }
        // Differences are taken within a round, where the two runs were
        // seconds apart, and the median round is reported.
        let step = |i: usize| -> f64 {
            let diffs: Vec<f64> = (0..SUBSTITUTION_ROUNDS)
                .map(|r| rounds[i][r] - rounds[i - 1][r])
                .collect();
            median(&diffs)
        };
        let n = SUBSTITUTION_OPS * SUBSTITUTION_ROUNDS as u64;
        report.set("workloads.traversal_ns_per_op", median(&rounds[0]), n);
        report.set("htm.ns_per_op", step(1), n);
        report.set("core.ns_per_op", step(2), n);
        report.set("stm.ns_per_op", step(3), n);
    }
}

/// Per-layer ratios read from the merged `TxStats` of the run.
fn per_layer(report: &mut Report, stats: &TxStats, ops: u64) {
    let commits = stats.commits().max(1);
    let per_k = |n: u64| n as f64 * 1e3 / commits as f64;
    let htm_attempts = stats.htm_commits + stats.htm_aborts;
    if htm_attempts > 0 {
        report.set(
            "htm.commit_ratio",
            stats.htm_commits as f64 / htm_attempts as f64,
            htm_attempts,
        );
    }
    report.set("core.attempts_per_commit", stats.commit_ratio(), commits);
    for path in PathKind::ALL {
        let share = stats.commits_on(path) as f64 / commits as f64;
        report.set(
            &format!("core.commit_share.{}", path.json_key()),
            share,
            commits,
        );
    }
    for cause in AbortCause::ALL {
        let name = format!("core.aborts_per_kcommit.{}", cause.json_key());
        report.set(&name, per_k(stats.aborts_for(cause)), commits);
    }
    let retry = &stats.retry;
    report.set(
        "api.retry.retry_here_per_kcommit",
        per_k(retry.retry_here),
        commits,
    );
    report.set("api.retry.demote_per_kcommit", per_k(retry.demote), commits);
    report.set(
        "api.retry.backoff_per_kcommit",
        per_k(retry.backoff),
        commits,
    );
    mem_per_kop(report, &stats.mem, ops);
}

/// The memory-layer ratios per thousand operations.
pub fn mem_per_kop(report: &mut Report, mem: &rhtm_mem::MemMetrics, ops: u64) {
    let per_k = |n: u64| n as f64 * 1e3 / ops.max(1) as f64;
    report.set("mem.alloc_words_per_kop", per_k(mem.alloc_words), ops);
    report.set("api.reclaim.retired_per_kop", per_k(mem.retired), ops);
    report.set("api.reclaim.reclaimed_per_kop", per_k(mem.reclaimed), ops);
    report.set(
        "api.reclaim.epoch_advances_per_kop",
        per_k(mem.epoch_advances),
        ops,
    );
}
