//! In-memory spans and process-wide counter snapshots for the traced run.
//!
//! A span has a name, a start, an end, a parent and the id of the request
//! it belongs to. Spans are recorded around the public calls a plan makes
//! (see `recompose`) and written out once the run ends. A span's self
//! time is its duration minus the time its child spans cover; the
//! request's root span keeps what no call accounts for, reported as
//! `request.unattributed_ms`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ektelo_matrix::{plan_builds, plan_cache_stats, pool, sens_cache_stats};

pub const REQUEST: &str = "request";

#[derive(Clone, Debug)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// The run's span recorder.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            t0,
            spans: Vec::with_capacity(1 << 14),
            stack: Vec::with_capacity(8),
            req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            req: self.req,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        idx
    }

    fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
        self.stack.pop();
    }

    /// Times `f` as a span named `name` under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name);
        let r = f();
        self.close(idx);
        r
    }

    /// Runs one request under a root span; returns its result and the
    /// index of the root span.
    pub fn request<R>(&mut self, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> (R, usize) {
        self.req = req;
        let idx = self.open(REQUEST);
        let r = f(self);
        self.close(idx);
        (r, idx)
    }

    /// Self time in ms per span name for the request rooted at `root`
    /// (the root's own self time under `request.unattributed`), and the
    /// root's duration. The self times add up to the duration exactly.
    pub fn self_times(&self, root: usize) -> (BTreeMap<&'static str, f64>, f64) {
        let spans = &self.spans[root..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[1..] {
            if let Some(p) = s.parent {
                child_ns[p - root] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            let name = if s.name == REQUEST {
                "request.unattributed"
            } else {
                s.name
            };
            *out.entry(name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e6;
        }
        let root_span = &spans[0];
        (out, (root_span.end_ns - root_span.start_ns) as f64 / 1e6)
    }

    /// The spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
    }
}

/// Process-wide counters of the matrix layer, read through its public
/// stats functions.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub plan_builds: u64,
    pub sens_hits: u64,
    pub sens_misses: u64,
    pub pool_completed: u64,
    pub pool_queued: u64,
    pub pool_stolen: u64,
    pub pool_inline: u64,
    pub plan_resident_bytes: usize,
}

impl Counters {
    pub fn read() -> Self {
        let pc = plan_cache_stats();
        let sc = sens_cache_stats();
        let ps = pool::stats();
        Counters {
            plan_hits: pc.hits,
            plan_misses: pc.misses,
            plan_evictions: pc.evictions,
            plan_builds: plan_builds(),
            sens_hits: sc.hits,
            sens_misses: sc.misses,
            pool_completed: ps.completed,
            pool_queued: ps.queued,
            pool_stolen: ps.stolen,
            pool_inline: ps.inline,
            plan_resident_bytes: pc.resident_bytes,
        }
    }

    /// Counts accrued since `before`; the resident-bytes level is kept
    /// as read now.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            plan_evictions: self.plan_evictions - before.plan_evictions,
            plan_builds: self.plan_builds - before.plan_builds,
            sens_hits: self.sens_hits - before.sens_hits,
            sens_misses: self.sens_misses - before.sens_misses,
            pool_completed: self.pool_completed - before.pool_completed,
            pool_queued: self.pool_queued - before.pool_queued,
            pool_stolen: self.pool_stolen - before.pool_stolen,
            pool_inline: self.pool_inline - before.pool_inline,
            plan_resident_bytes: self.plan_resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_request() {
        let mut tr = Tracer::new(Instant::now());
        let spin = |us: u64| {
            let t = Instant::now();
            while t.elapsed().as_micros() < us as u128 {}
        };
        let (_, root) = tr.request(3, |tr| {
            spin(200);
            tr.span("a", || spin(300));
            tr.span("b", || spin(100));
            tr.span("a", || spin(100));
        });
        let (selfs, total) = tr.self_times(root);
        let sum: f64 = selfs.values().sum();
        assert!((sum - total).abs() < 1e-9, "{sum} vs {total}");
        assert!(selfs["a"] >= 0.4 && selfs["b"] >= 0.1);
        assert!(selfs["request.unattributed"] >= 0.2);
        assert!(tr.spans.iter().all(|s| s.req == 3));
        assert_eq!(tr.spans[1].parent, Some(root));
    }
}
