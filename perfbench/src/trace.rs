//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread and needs no synchronisation.  Every
//! span feeds a per-name duration histogram (with the time its children
//! covered, so self time can be derived); a sampled subset is also kept
//! verbatim in a span log.  Tracers of several threads are merged and
//! written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::hist::Histogram;

/// A handle on a recorded (or reserved) span, used as a parent.
#[derive(Clone, Copy, Debug)]
pub struct SpanRef {
    /// Unique span id (0 means "no parent").
    pub id: u64,
    /// Span name.
    pub name: &'static str,
}

/// One logged span; times are nanoseconds after the tracer epoch.
#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    id: u64,
    /// Parent span id, 0 for a root.
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Request id, for spans of a KV request.
    request: Option<u64>,
}

#[derive(Clone, Debug, Default)]
struct SpanStats {
    hist: Histogram,
    total_ns: u64,
    child_ns: u64,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    stats: BTreeMap<&'static str, SpanStats>,
    log: Vec<SpanRecord>,
}

/// Spans kept verbatim per tracer; histograms see every span regardless.
const LOG_CAP: usize = 20_000;

impl Tracer {
    /// A tracer whose timestamps count from `epoch` and whose span ids
    /// start at `(lane + 1) << 40`, so tracers of different threads never
    /// hand out the same id.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Tracer {
            epoch,
            next_id: (lane + 1) << 40,
            stats: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// Reserves a span id before the span ends (for a parent whose
    /// children are recorded first).
    pub fn reserve(&mut self, name: &'static str) -> SpanRef {
        self.next_id += 1;
        SpanRef {
            id: self.next_id,
            name,
        }
    }

    /// Records a span reserved with [`Tracer::reserve`].
    pub fn finish(
        &mut self,
        span: SpanRef,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
        keep: bool,
    ) {
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        let entry = self.stats.entry(span.name).or_default();
        entry.hist.record(ns);
        entry.total_ns += ns;
        if let Some(p) = parent {
            self.stats.entry(p.name).or_default().child_ns += ns;
        }
        if keep && self.log.len() < LOG_CAP {
            let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.log.push(SpanRecord {
                id: span.id,
                parent: parent.map_or(0, |p| p.id),
                name: span.name,
                start_ns: since(start),
                end_ns: since(end),
                request,
            });
        }
    }

    /// Records a span in one call; returns its handle for children.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
        keep: bool,
    ) -> SpanRef {
        let span = self.reserve(name);
        self.finish(span, parent, start, end, request, keep);
        span
    }

    /// Folds another thread's tracer into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, s) in other.stats {
            let e = self.stats.entry(name).or_default();
            e.hist.merge(&s.hist);
            e.total_ns += s.total_ns;
            e.child_ns += s.child_ns;
        }
        let room = LOG_CAP.saturating_sub(self.log.len());
        self.log.extend(other.log.into_iter().take(room));
    }

    /// The duration histogram of spans named `name`, if any were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.stats.get(name).map(|s| &s.hist)
    }

    /// Renders the per-span histograms and the sampled span log as JSON.
    pub fn to_json(&self, header: &str) -> String {
        let mut out = format!("{{{header}, \"spans\": [");
        for (i, (name, s)) in self.stats.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{name}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"total_ns\": {}, \"self_ns\": {}}}",
                s.hist.count(),
                s.hist.quantile(0.5),
                s.hist.quantile(0.99),
                s.total_ns,
                s.total_ns.saturating_sub(s.child_ns)
            );
        }
        out.push_str("], \"log\": [");
        for (i, r) in self.log.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let request = r.request.map_or("null".to_string(), |q| q.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"request\": {request}}}",
                r.id, r.parent, r.name, r.start_ns, r.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Writes [`Tracer::to_json`] to `path`, creating its directory.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(header))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_ids_are_unique_per_lane() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0, 0);
        let parent = a.reserve("kv.request");
        let child = a.span(
            "kv.service.get",
            Some(parent),
            t0,
            t0 + Duration::from_nanos(300),
            Some(7),
            true,
        );
        a.finish(
            parent,
            None,
            t0,
            t0 + Duration::from_nanos(1_000),
            Some(7),
            true,
        );
        let mut b = Tracer::new(t0, 1);
        let other = b.reserve("kv.request");
        assert_ne!(other.id, child.id);
        a.merge(b);
        let json = a.to_json("\"workload\": \"t\"");
        assert!(json.contains("\"name\": \"kv.request\", \"count\": 1"));
        assert!(json.contains("\"total_ns\": 1000, \"self_ns\": 700"));
        assert!(json.contains(&format!("\"parent\": {}", parent.id)));
    }
}
