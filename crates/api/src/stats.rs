//! Per-thread execution statistics and the optional fine-grained timing
//! used to reproduce the paper's single-thread performance-breakdown table
//! (Figure 2 bottom and the embedded `20_100_R` / `80_100_R` tables).

use std::time::{Duration, Instant};

use rhtm_mem::MemMetrics;

use crate::abort::AbortCause;

/// Which execution path a transaction committed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// The all-hardware fast-path.
    HardwareFast,
    /// The mixed mostly-software slow-path (RH1/RH2: software body, hardware
    /// commit).
    MixedSlow,
    /// A pure software path (TL2, the Standard-HyTM software fallback, or
    /// the RH2 all-software slow-slow-path).
    Software,
}

impl PathKind {
    /// All paths in display order.
    pub const ALL: [PathKind; 3] = [
        PathKind::HardwareFast,
        PathKind::MixedSlow,
        PathKind::Software,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PathKind::HardwareFast => 0,
            PathKind::MixedSlow => 1,
            PathKind::Software => 2,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PathKind::HardwareFast => "hw-fast",
            PathKind::MixedSlow => "mixed-slow",
            PathKind::Software => "software",
        }
    }

    /// Snake-case key used in machine-readable (JSON) reports.
    ///
    /// This string is part of the stable schema emitted by
    /// `rhtm_workloads::report::to_json` and the `bench_suite` binary
    /// (`commits_<json_key>` fields); renaming it is a breaking schema
    /// change for downstream plotting scripts.
    pub fn json_key(self) -> &'static str {
        match self {
            PathKind::HardwareFast => "hw_fast",
            PathKind::MixedSlow => "mixed_slow",
            PathKind::Software => "software",
        }
    }
}

/// A before/after snapshot of the per-path commit counters, used to tag an
/// individual operation with the commit path it actually took.
///
/// The runtimes record commits into [`TxStats::commits_by_path`] but expose
/// no per-transaction signal; diffing the counters around one operation
/// recovers it after the fact.  History recorders use this to annotate each
/// recorded event, so a failed invariant can report *which* commit path the
/// offending operations ran on — the difference between "RH1's mixed
/// slow-path lost an update" and "the software fallback did" without
/// re-running anything.
///
/// ```
/// use rhtm_api::test_runtime::DirectRuntime;
/// use rhtm_api::{PathKind, PathProbe, TmRuntime, TmThread, Txn};
///
/// let rt = DirectRuntime::new(64);
/// let addr = rt.mem().alloc(1);
/// let mut th = rt.register_thread();
/// let probe = PathProbe::start(th.stats());
/// th.execute(|tx| tx.write(addr, 7));
/// assert_eq!(probe.finish(th.stats()), Some(PathKind::Software));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PathProbe {
    before: [u64; 3],
}

impl PathProbe {
    /// Snapshots the commit counters before the operation runs.
    #[inline]
    pub fn start(stats: &TxStats) -> Self {
        PathProbe {
            before: stats.commits_by_path,
        }
    }

    /// Diffs against the counters after the operation: the path whose
    /// counter grew the most (ties broken in [`PathKind::ALL`] order), or
    /// `None` when no commit was recorded in between.
    ///
    /// An operation that retried across paths (e.g. a helper loop that
    /// committed several transactions) reports its *dominant* path.
    #[inline]
    pub fn finish(self, stats: &TxStats) -> Option<PathKind> {
        let mut best: Option<PathKind> = None;
        let mut best_delta = 0u64;
        for path in PathKind::ALL {
            let delta = stats.commits_by_path[path.index()] - self.before[path.index()];
            if delta > best_delta {
                best_delta = delta;
                best = Some(path);
            }
        }
        best
    }
}

/// A start/stop timer that is free when timing is disabled.
///
/// Runtimes wrap their read/write/commit sections with a `Stopwatch` and add
/// the elapsed time into [`TxStats`]; when the stats object has timing
/// disabled the stopwatch never calls `Instant::now`, so the common
/// benchmarking configuration pays nothing.
#[derive(Debug)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts a stopwatch if `enabled`.
    #[inline(always)]
    pub fn start(enabled: bool) -> Self {
        Stopwatch {
            start: if enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Elapsed nanoseconds, or 0 when timing was disabled.
    #[inline(always)]
    pub fn stop(self) -> u64 {
        match self.start {
            Some(t) => t.elapsed().as_nanos() as u64,
            None => 0,
        }
    }
}

/// Always-on observability counters for the retry layer ("Retry 2.0").
///
/// Every runtime records the post-clamp outcome of each retry decision and
/// the abort cause that triggered it; policies with a circuit breaker or a
/// retry budget ([`crate::retry::ComposedPolicy`]) additionally record
/// circuit-breaker state transitions and retry-budget exhaustion events.  All counters are plain
/// per-thread `u64` increments on the abort path (never on the commit fast
/// path), so the surface is cheap enough to stay on in every benchmark —
/// the numbers flow through [`TxStats::merge`] into the `bench_suite` /
/// `bench_trajectory` JSON as the `retry_metrics` object.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RetryMetrics {
    /// Post-clamp decisions that retried on the same path.
    pub retry_here: u64,
    /// Post-clamp decisions that demoted to a slower tier.
    pub demote: u64,
    /// Post-clamp decisions that retried after an explicit backoff window.
    pub backoff: u64,
    /// Abort causes observed at retry decision sites, indexed by
    /// [`AbortCause::index`].  This is the retry layer's own histogram: it
    /// counts causes *as seen by the policy*, which a runtime-level abort
    /// counter cannot split out per decision site.
    pub causes: [u64; 8],
    /// Circuit-breaker transitions into `Open` (including a failed
    /// half-open probe re-opening the circuit).
    pub circuit_opens: u64,
    /// Half-open probes admitted back onto the hardware path.
    pub circuit_probes: u64,
    /// Circuit-breaker transitions from `HalfOpen` back to `Closed`.
    pub circuit_closes: u64,
    /// Retry-budget exhaustion events (token bucket empty, retry shed into
    /// a demotion).
    pub budget_exhausted: u64,
}

impl RetryMetrics {
    /// Total retry decisions recorded.
    #[inline]
    pub fn decisions(&self) -> u64 {
        self.retry_here + self.demote + self.backoff
    }

    /// Records the abort cause observed at a decision site.
    #[inline(always)]
    pub fn record_cause(&mut self, cause: AbortCause) {
        self.causes[cause.index()] += 1;
    }

    /// Abort causes recorded for one specific cause at decision sites.
    pub fn cause_count(&self, cause: AbortCause) -> u64 {
        self.causes[cause.index()]
    }

    /// Merges another thread's retry metrics into this one.
    pub fn merge(&mut self, other: &RetryMetrics) {
        self.retry_here += other.retry_here;
        self.demote += other.demote;
        self.backoff += other.backoff;
        for i in 0..self.causes.len() {
            self.causes[i] += other.causes[i];
        }
        self.circuit_opens += other.circuit_opens;
        self.circuit_probes += other.circuit_probes;
        self.circuit_closes += other.circuit_closes;
        self.budget_exhausted += other.budget_exhausted;
    }
}

/// Per-thread transactional execution statistics.
///
/// Counters are plain `u64`s updated by the owning thread only; the
/// benchmark driver merges the per-thread copies after the measurement
/// interval.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Committed transactions, per commit path.
    pub commits_by_path: [u64; 3],
    /// Aborted attempts, per cause.
    pub aborts_by_cause: [u64; 8],
    /// Transactional read operations performed (all attempts, including
    /// aborted ones — this matches the paper's "Read Counter").
    pub reads: u64,
    /// Transactional write operations performed (all attempts).
    pub writes: u64,
    /// Hardware-transaction commit instructions that succeeded (fast-path
    /// commits plus slow-path commit-time hardware transactions).
    pub htm_commits: u64,
    /// Hardware-transaction attempts that aborted.
    pub htm_aborts: u64,
    /// Nanoseconds spent inside transactional reads (timing mode only).
    pub read_ns: u64,
    /// Nanoseconds spent inside transactional writes (timing mode only).
    pub write_ns: u64,
    /// Nanoseconds spent inside commit (timing mode only).
    pub commit_ns: u64,
    /// Always-on retry-layer observability counters (see [`RetryMetrics`]).
    pub retry: RetryMetrics,
    /// Always-on memory-subsystem counters (arena allocation, retire and
    /// reclaim, epoch advances; see [`rhtm_mem::MemMetrics`]).  Updated by
    /// the structure wrappers' `rhtm_api::reclaim` pools, merged here and
    /// emitted in every bench JSON row as the `mem_metrics` object.
    pub mem: MemMetrics,
    /// Whether fine-grained timing is enabled for this thread.
    pub timing: bool,
}

impl TxStats {
    /// A fresh, zeroed stats object; `timing` selects the fine-grained
    /// breakdown mode.
    pub fn new(timing: bool) -> Self {
        TxStats {
            timing,
            ..Default::default()
        }
    }

    /// Total committed transactions across all paths.
    #[inline]
    pub fn commits(&self) -> u64 {
        self.commits_by_path.iter().sum()
    }

    /// Total aborted attempts across all causes.
    #[inline]
    pub fn aborts(&self) -> u64 {
        self.aborts_by_cause.iter().sum()
    }

    /// Total attempts (commits + aborts).
    #[inline]
    pub fn attempts(&self) -> u64 {
        self.commits() + self.aborts()
    }

    /// The paper's "Commit Counter" column: attempts divided by commits,
    /// i.e. how many times the average transaction had to run before it
    /// committed (1.0 = never aborted).
    pub fn commit_ratio(&self) -> f64 {
        let commits = self.commits();
        if commits == 0 {
            0.0
        } else {
            self.attempts() as f64 / commits as f64
        }
    }

    /// Fraction of attempts that aborted.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            0.0
        } else {
            self.aborts() as f64 / attempts as f64
        }
    }

    /// Records a commit on `path`.
    #[inline(always)]
    pub fn record_commit(&mut self, path: PathKind) {
        self.commits_by_path[path.index()] += 1;
    }

    /// Records an aborted attempt.
    #[inline(always)]
    pub fn record_abort(&mut self, cause: AbortCause) {
        self.aborts_by_cause[cause.index()] += 1;
    }

    /// Records a transactional read (and, in timing mode, its duration).
    #[inline(always)]
    pub fn record_read(&mut self, ns: u64) {
        self.reads += 1;
        self.read_ns += ns;
    }

    /// Records a transactional write (and, in timing mode, its duration).
    #[inline(always)]
    pub fn record_write(&mut self, ns: u64) {
        self.writes += 1;
        self.write_ns += ns;
    }

    /// Adds commit-phase time (timing mode only).
    #[inline(always)]
    pub fn record_commit_time(&mut self, ns: u64) {
        self.commit_ns += ns;
    }

    /// Merges another thread's statistics into this one.
    pub fn merge(&mut self, other: &TxStats) {
        for i in 0..self.commits_by_path.len() {
            self.commits_by_path[i] += other.commits_by_path[i];
        }
        for i in 0..self.aborts_by_cause.len() {
            self.aborts_by_cause[i] += other.aborts_by_cause[i];
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.htm_commits += other.htm_commits;
        self.htm_aborts += other.htm_aborts;
        self.read_ns += other.read_ns;
        self.write_ns += other.write_ns;
        self.commit_ns += other.commit_ns;
        self.retry.merge(&other.retry);
        self.mem.merge(&other.mem);
        self.timing |= other.timing;
    }

    /// Resets every counter, preserving the timing flag.
    pub fn reset(&mut self) {
        let timing = self.timing;
        *self = TxStats::new(timing);
    }

    /// Aborts recorded for one specific cause.
    pub fn aborts_for(&self, cause: AbortCause) -> u64 {
        self.aborts_by_cause[cause.index()]
    }

    /// Commits recorded on one specific path.
    pub fn commits_on(&self, path: PathKind) -> u64 {
        self.commits_by_path[path.index()]
    }

    /// Time spent in reads, as a `Duration` (timing mode only).
    pub fn read_time(&self) -> Duration {
        Duration::from_nanos(self.read_ns)
    }

    /// Time spent in writes, as a `Duration` (timing mode only).
    pub fn write_time(&self) -> Duration {
        Duration::from_nanos(self.write_ns)
    }

    /// Time spent in commit, as a `Duration` (timing mode only).
    pub fn commit_time(&self) -> Duration {
        Duration::from_nanos(self.commit_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_indices_are_dense() {
        let mut seen = [false; 3];
        for p in PathKind::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn commit_and_abort_counters() {
        let mut s = TxStats::new(false);
        s.record_commit(PathKind::HardwareFast);
        s.record_commit(PathKind::HardwareFast);
        s.record_commit(PathKind::MixedSlow);
        s.record_abort(AbortCause::Conflict);
        s.record_abort(AbortCause::Capacity);
        assert_eq!(s.commits(), 3);
        assert_eq!(s.aborts(), 2);
        assert_eq!(s.attempts(), 5);
        assert_eq!(s.commits_on(PathKind::HardwareFast), 2);
        assert_eq!(s.commits_on(PathKind::Software), 0);
        assert_eq!(s.aborts_for(AbortCause::Conflict), 1);
        assert!((s.commit_ratio() - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.abort_ratio() - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_are_zero_when_empty() {
        let s = TxStats::new(false);
        assert_eq!(s.commit_ratio(), 0.0);
        assert_eq!(s.abort_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = TxStats::new(false);
        a.record_read(10);
        a.record_write(5);
        a.record_commit(PathKind::Software);
        a.htm_commits = 2;
        let mut b = TxStats::new(true);
        b.record_read(7);
        b.record_abort(AbortCause::Validation);
        b.record_commit_time(100);
        b.htm_aborts = 3;
        a.merge(&b);
        assert_eq!(a.reads, 2);
        assert_eq!(a.writes, 1);
        assert_eq!(a.read_ns, 17);
        assert_eq!(a.commit_ns, 100);
        assert_eq!(a.htm_commits, 2);
        assert_eq!(a.htm_aborts, 3);
        assert_eq!(a.commits(), 1);
        assert_eq!(a.aborts(), 1);
        assert!(a.timing, "timing flag is sticky under merge");
    }

    #[test]
    fn retry_metrics_merge_adds_every_counter() {
        let mut a = RetryMetrics {
            retry_here: 3,
            ..Default::default()
        };
        a.record_cause(AbortCause::Conflict);
        let mut b = RetryMetrics {
            retry_here: 1,
            demote: 2,
            backoff: 4,
            circuit_opens: 5,
            circuit_probes: 6,
            circuit_closes: 7,
            budget_exhausted: 8,
            ..Default::default()
        };
        b.record_cause(AbortCause::Conflict);
        b.record_cause(AbortCause::Capacity);
        a.merge(&b);
        assert_eq!(a.retry_here, 4);
        assert_eq!(a.demote, 2);
        assert_eq!(a.backoff, 4);
        assert_eq!(a.decisions(), 10);
        assert_eq!(a.cause_count(AbortCause::Conflict), 2);
        assert_eq!(a.cause_count(AbortCause::Capacity), 1);
        assert_eq!(a.circuit_opens, 5);
        assert_eq!(a.circuit_probes, 6);
        assert_eq!(a.circuit_closes, 7);
        assert_eq!(a.budget_exhausted, 8);

        // And TxStats::merge carries the nested metrics along.
        let mut sa = TxStats::new(false);
        sa.retry.retry_here = 1;
        let mut sb = TxStats::new(false);
        sb.retry.budget_exhausted = 9;
        sa.merge(&sb);
        assert_eq!(sa.retry.retry_here, 1);
        assert_eq!(sa.retry.budget_exhausted, 9);
    }

    #[test]
    fn reset_preserves_timing_flag() {
        let mut s = TxStats::new(true);
        s.record_read(10);
        s.reset();
        assert_eq!(s.reads, 0);
        assert!(s.timing);
    }

    #[test]
    fn stopwatch_zero_when_disabled() {
        let sw = Stopwatch::start(false);
        assert_eq!(sw.stop(), 0);
        let sw = Stopwatch::start(true);
        std::thread::sleep(Duration::from_millis(1));
        assert!(sw.stop() > 0);
    }

    #[test]
    fn path_probe_reports_the_dominant_path() {
        let mut s = TxStats::new(false);
        s.record_commit(PathKind::HardwareFast);
        let probe = PathProbe::start(&s);
        assert_eq!(probe.finish(&s), None, "no commit in between");
        let probe = PathProbe::start(&s);
        s.record_commit(PathKind::MixedSlow);
        assert_eq!(probe.finish(&s), Some(PathKind::MixedSlow));
        let probe = PathProbe::start(&s);
        s.record_commit(PathKind::Software);
        s.record_commit(PathKind::Software);
        s.record_commit(PathKind::HardwareFast);
        assert_eq!(
            probe.finish(&s),
            Some(PathKind::Software),
            "dominant path wins when several committed"
        );
    }

    #[test]
    fn durations_convert_from_nanos() {
        let mut s = TxStats::new(true);
        s.record_read(1_000);
        s.record_write(2_000);
        s.record_commit_time(3_000);
        assert_eq!(s.read_time(), Duration::from_nanos(1_000));
        assert_eq!(s.write_time(), Duration::from_nanos(2_000));
        assert_eq!(s.commit_time(), Duration::from_nanos(3_000));
    }
}
