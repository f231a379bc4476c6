//! The open-loop workload, `kv-churn-1m`.
//!
//! One `KvService` (4 shards, 1M keys, spec `rh2`) and one `KvWorker`.
//! Set-up builds and prefills the service and serves a fixed warm-up
//! batch, so the first-touch cost of the million-key heaps shows in
//! `setup_s` instead of in the tail.  The measured interval has two
//! phases on the same service: an open-loop Poisson phase at
//! [`OFFERED_RATE`] (latency from each request's scheduled arrival), then
//! a closed loop that replays a plan back to back to measure capacity.

use std::time::{Duration, Instant};

use rhtm_kv::{plan_worker, KvConfig, KvMix, KvOp, KvService, KvWorker, LoadOpts, PlannedOp};
use rhtm_mem::MemMetrics;
use rhtm_workloads::{AlgoKind, TmSpec};

use crate::checks;
use crate::closed::mem_per_kop;
use crate::hist::Histogram;
use crate::metrics::{median, Report, Windows};
use crate::trace::Tracer;
use crate::{host, RunArgs, RunOutcome};

/// Shards of the service.
const SHARDS: usize = 4;

/// Keys of the service; every key starts at the service's initial value.
const KEYS: u64 = 1_000_000;

/// Offered rate of the open-loop phase, requests per second: about a
/// third of one worker's capacity on a 2-CPU host, so queueing comes from
/// stalls, not from load.
const OFFERED_RATE: f64 = 30_000.0;

/// Requests of the warm-up batch served during set-up.
const WARMUP_OPS: usize = 20_000;

/// Requests in the capacity phase's plan; the phase cycles through it.
const CAPACITY_PLAN_OPS: usize = 400_000;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Length of one capacity-phase window.
const WINDOW: Duration = Duration::from_millis(250);

/// Service time above which a request counts as a stall.
const STALL: Duration = Duration::from_millis(1);

/// One request span tree in this many is kept in the span log (stalled
/// requests are always kept).
const SPAN_LOG_SAMPLE: usize = 1024;

/// Seed separators of the three plans a run draws.
const WARMUP_STREAM: u64 = 0x5741_524d;
const OPEN_STREAM: u64 = 0x4f50_454e;
const CAPACITY_STREAM: u64 = 0x4341_5041;

fn mix() -> KvMix {
    KvMix::new(40, 30, 30, 0)
}

/// The plan of `ops` requests drawn from `seed`, at `rate` req/s.
fn plan(seed: u64, rate: f64, ops: usize) -> Vec<PlannedOp> {
    // Twice the expected horizon, then cut: a Poisson count this large
    // never falls short of `ops`.
    let horizon = Duration::from_secs_f64(2.0 * ops as f64 / rate);
    let opts = LoadOpts::new(rate, horizon).with_mix(mix()).with_seed(seed);
    let mut plan = plan_worker(&opts, KEYS, 0);
    assert!(plan.len() >= ops, "plan too short: {} < {ops}", plan.len());
    plan.truncate(ops);
    plan
}

/// The kind index used for the per-kind service histograms.
fn kind(op: &KvOp) -> usize {
    match op {
        KvOp::Get { .. } => 0,
        KvOp::Put { .. } => 1,
        KvOp::Delete { .. } => 2,
        KvOp::Transfer { .. } | KvOp::MultiGet { .. } => {
            unreachable!("the benchmark's mix has no two-key operations")
        }
    }
}

const KINDS: [&str; 3] = ["get", "put", "delete"];
const SERVICE_SPANS: [&str; 3] = ["kv.service.get", "kv.service.put", "kv.service.delete"];
const CAPACITY_SPANS: [&str; 3] = ["kv.capacity.get", "kv.capacity.put", "kv.capacity.delete"];

/// Serves one planned request through the worker.
pub fn execute(worker: &mut KvWorker<'_>, op: &KvOp) {
    match *op {
        KvOp::Get { key } => {
            std::hint::black_box(worker.get(key));
        }
        KvOp::Put { key, value } => {
            std::hint::black_box(worker.put(key, value));
        }
        KvOp::Delete { key } => {
            std::hint::black_box(worker.delete(key));
        }
        KvOp::Transfer { .. } | KvOp::MultiGet { .. } => {
            unreachable!("the benchmark's mix has no two-key operations")
        }
    }
}

fn pending(mem: &MemMetrics) -> u64 {
    mem.retired.saturating_sub(mem.reclaimed)
}

/// What the open-loop phase observed.
#[derive(Default)]
struct OpenOutcome {
    /// Scheduled arrival to completion, ns.
    response: Histogram,
    /// Scheduled arrival to start of service, ns (traced).
    queue_wait: Histogram,
    /// Service time by kind, ns (traced).
    service: [Histogram; 3],
    /// Requests whose service took longer than [`STALL`] (traced).
    stalls: u64,
    /// Largest retired-but-unreclaimed backlog seen after a request
    /// (traced).
    pending_max: u64,
}

fn serve_open(
    worker: &mut KvWorker<'_>,
    plan: &[PlannedOp],
    mut tracer: Option<&mut Tracer>,
) -> OpenOutcome {
    let mut out = OpenOutcome::default();
    let phase = tracer.as_mut().map(|t| t.reserve("bench.open_loop"));
    // The clock origin sits a little in the future so the first
    // deadlines are not already late when the loop starts.
    let start = Instant::now() + Duration::from_millis(2);
    for (i, p) in plan.iter().enumerate() {
        let due = start + Duration::from_nanos(p.at_ns);
        let began = loop {
            let now = Instant::now();
            if now >= due {
                break now;
            }
            // Sleep only when far ahead, waking early: oversleeping past
            // the deadline would read as the program's latency.
            let ahead = due - now;
            if ahead > Duration::from_millis(1) {
                std::thread::sleep(ahead - Duration::from_micros(500));
            } else {
                std::hint::spin_loop();
            }
        };
        execute(worker, &p.op);
        let ended = Instant::now();
        out.response.record((ended - due).as_nanos() as u64);
        if let Some(t) = tracer.as_deref_mut() {
            let k = kind(&p.op);
            let service = ended - began;
            let stalled = service > STALL;
            out.stalls += u64::from(stalled);
            out.queue_wait.record((began - due).as_nanos() as u64);
            out.service[k].record(service.as_nanos() as u64);
            out.pending_max = out.pending_max.max(pending(&worker.mem_metrics()));
            let keep = stalled || i % SPAN_LOG_SAMPLE == 0;
            let id = Some(i as u64);
            let request = t.reserve("kv.request");
            t.span("kv.queue_wait", Some(request), due, began, id, keep);
            t.span(SERVICE_SPANS[k], Some(request), began, ended, id, keep);
            t.finish(request, phase, due, ended, id, keep);
        }
    }
    if let (Some(t), Some(phase)) = (tracer, phase) {
        t.finish(phase, None, start, Instant::now(), None, true);
    }
    out
}

/// What the capacity phase observed.
struct CapacityOutcome {
    /// Requests served (a prefix of the cycled plan).
    served: u64,
    windows: Windows,
}

/// Serves `plan` back to back, cycling, for `windows` windows.  With a
/// tracer, odd windows time every request.
fn serve_capacity(
    worker: &mut KvWorker<'_>,
    plan: &[PlannedOp],
    windows: usize,
    mut tracer: Option<&mut Tracer>,
) -> CapacityOutcome {
    let mut out = CapacityOutcome {
        served: 0,
        windows: Windows::default(),
    };
    let phase = tracer.as_mut().map(|t| t.reserve("bench.capacity"));
    let started = Instant::now();
    let (mut last_t, mut last_served, mut last_cpu) = (started, 0u64, host::process_cpu_ns());
    for k in 0..windows {
        let traced = tracer.is_some() && k % 2 == 1;
        let end = started + WINDOW * (k as u32 + 1);
        loop {
            // The clock is read once per 32 requests in untraced windows.
            for _ in 0..32 {
                let op = &plan[out.served as usize % plan.len()].op;
                match tracer.as_deref_mut().filter(|_| traced) {
                    Some(t) => {
                        let t0 = Instant::now();
                        execute(worker, op);
                        let keep = out.served.is_multiple_of(SPAN_LOG_SAMPLE as u64);
                        t.span(
                            CAPACITY_SPANS[kind(op)],
                            phase,
                            t0,
                            Instant::now(),
                            None,
                            keep,
                        );
                    }
                    None => execute(worker, op),
                }
                out.served += 1;
            }
            if Instant::now() >= end {
                break;
            }
        }
        let (t, cpu) = (Instant::now(), host::process_cpu_ns());
        let secs = (t - last_t).as_secs_f64();
        out.windows.push(
            traced,
            out.served - last_served,
            secs,
            cpu.saturating_sub(last_cpu),
        );
        (last_t, last_served, last_cpu) = (t, out.served, cpu);
    }
    if let (Some(t), Some(phase)) = (tracer, phase) {
        t.finish(phase, None, started, Instant::now(), None, true);
    }
    out
}

/// Runs `kv-churn-1m`.
pub fn run(args: &RunArgs) -> RunOutcome {
    let spec = TmSpec::new(AlgoKind::Rh2).htm(rhtm_htm::HtmConfig {
        seed: args.seed,
        ..rhtm_htm::HtmConfig::default()
    });
    let config = KvConfig::new(SHARDS, KEYS, 1);
    let warmup = plan(args.seed ^ WARMUP_STREAM, 100_000.0, WARMUP_OPS);
    let open_seconds = args.seconds / 2.0;
    let open_ops = (OFFERED_RATE * open_seconds) as usize;
    let open = plan(args.seed ^ OPEN_STREAM, OFFERED_RATE, open_ops);
    let capacity = plan(args.seed ^ CAPACITY_STREAM, 100_000.0, CAPACITY_PLAN_OPS);
    let windows = ((args.seconds - open_seconds) / WINDOW.as_secs_f64())
        .round()
        .max(2.0) as usize;

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0);
    let (mut setups, mut prefills, mut warmups) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let service = KvService::new(&spec, &config);
        let t1 = Instant::now();
        let mut worker = service.worker();
        for p in &warmup {
            execute(&mut worker, &p.op);
        }
        let t2 = Instant::now();
        let setup = tracer.span("bench.setup", None, t0, t2, None, true);
        tracer.span("kv.prefill", Some(setup), t0, t1, None, true);
        tracer.span("kv.warmup", Some(setup), t1, t2, None, true);
        setups.push((t2 - t0).as_secs_f64());
        prefills.push((t1 - t0).as_secs_f64());
        warmups.push((t2 - t1).as_secs_f64() * 1e3);
        if i + 1 < SETUPS {
            continue;
        }

        let (commits0, aborts0) = worker.stats();
        let mem0 = worker.mem_metrics();
        let open_out = serve_open(&mut worker, &open, args.trace.then_some(&mut tracer));
        let cap = serve_capacity(
            &mut worker,
            &capacity,
            windows,
            args.trace.then_some(&mut tracer),
        );
        let peak_rss = host::peak_rss_mib();
        let (commits1, aborts1) = worker.stats();
        let mut mem = worker.mem_metrics();
        mem.alloc_words -= mem0.alloc_words;
        mem.retired -= mem0.retired;
        mem.reclaimed -= mem0.reclaimed;
        mem.epoch_advances -= mem0.epoch_advances;

        let served = cap.served as usize;
        let replayed = warmup
            .iter()
            .chain(&open)
            .map(|p| &p.op)
            .chain((0..served).map(|j| &capacity[j % capacity.len()].op));
        let model = checks::replay(service.initial_value(), replayed);
        let check = checks::kv_matches(&model, |key| worker.get(key));
        measured = Some((
            open_out,
            cap,
            peak_rss,
            (commits1 - commits0, aborts1 - aborts0),
            mem,
            vec![check],
        ));
    }
    let (open_out, cap, peak_rss, (commits, aborts), mem, checks) =
        measured.expect("the last set-up runs the measurement");
    let attempted = open.len() as u64 + cap.served;

    let mut report = Report::new();
    if args.trace {
        for (k, name) in KINDS.iter().enumerate() {
            let h = &open_out.service[k];
            report.set(
                &format!("kv.service_us.{name}.p50"),
                h.quantile(0.5) as f64 / 1e3,
                h.count(),
            );
            report.set(
                &format!("kv.service_us.{name}.p99"),
                h.quantile(0.99) as f64 / 1e3,
                h.count(),
            );
        }
        let r = &open_out.response;
        report.set(
            "kv.response_us.p99",
            r.quantile(0.99) as f64 / 1e3,
            r.count(),
        );
        let q = &open_out.queue_wait;
        report.set(
            "kv.queue_wait_us.p50",
            q.quantile(0.5) as f64 / 1e3,
            q.count(),
        );
        report.set(
            "kv.queue_wait_us.p99",
            q.quantile(0.99) as f64 / 1e3,
            q.count(),
        );
        report.set("kv.stalls", open_out.stalls as f64, q.count());
        report.set("kv.prefill_s", median(&prefills), prefills.len() as u64);
        report.set("kv.warmup_ms", median(&warmups), warmups.len() as u64);
        report.set(
            "core.attempts_per_commit",
            (commits + aborts) as f64 / commits.max(1) as f64,
            commits,
        );
        mem_per_kop(&mut report, &mem, attempted);
        report.set(
            "api.reclaim.pending_max",
            open_out.pending_max as f64,
            q.count(),
        );
        report.set(
            "trace.overhead_share",
            cap.windows.overhead_share(),
            cap.windows.count(),
        );
    } else {
        let windows = cap.windows.count();
        let r = &open_out.response;
        report.set("setup_s", median(&setups), setups.len() as u64);
        report.set("throughput_ops_s", median(&cap.windows.rate), windows);
        report.set("cpu_ns_per_op", median(&cap.windows.cpu_ns_per_op), windows);
        report.set("p50_us", r.quantile(0.5) as f64 / 1e3, r.count());
        report.set("peak_rss_mib", peak_rss, 1);
    }
    RunOutcome {
        report,
        attempted,
        checks,
        tracer,
        notes: vec![
            format!(
                "spec={} shards={SHARDS} keys={KEYS} mix={} offered_rate={OFFERED_RATE}",
                spec.label(),
                mix().label()
            ),
            format!(
                "warmup={} open_loop={} capacity_served={} commits={commits} aborts={aborts}",
                warmup.len(),
                open.len(),
                cap.served
            ),
            cap.windows.summary(),
            format!(
                "p99_us={:.3} us samples={} (printed, not gated: see perfbench/README.md)",
                open_out.response.quantile(0.99) as f64 / 1e3,
                open_out.response.count()
            ),
        ],
    }
}
