//! Outside-in tracing: spans recorded around the benchmark's own calls into
//! each layer, and a timing wrapper on the `CellSource` seam.
//!
//! Nothing here reaches inside the library. Coarse calls (admission,
//! scatter entry points, appends, snapshot queries) are recorded as
//! [`Span`]s on the calling thread. Base-cell reads happen on worker-pool
//! threads at a rate of millions per second, so [`TimedSource`] folds them
//! into per-source counters instead of span records. Every shard source is
//! driven by exactly one pool thread during a scatter wave, which makes
//! per-source totals per-thread totals.

use mbir_archive::error::ArchiveError;
use mbir_archive::stats::AccessStats;
use mbir_core::source::CellSource;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Whether [`TimedSource`]s time their calls. Set by the driving thread
/// before each request; pool threads are spawned per scatter wave, and
/// spawning orders the store before their loads.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns source timing on or off for the following requests.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One timed call at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `shard.scatter`.
    pub name: &'static str,
    /// Recording thread (benchmark-local numbering).
    pub thread: u32,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children on the *same thread* cover. Overlapping children are
/// counted once, and children on other threads cover nothing here (the
/// ledger accounts for them per thread).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut covered: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index) && s.thread == span.thread)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    covered.sort_unstable();
    let mut union = 0u64;
    let mut cursor = span.start_ns;
    for (a, b) in covered {
        let a = a.max(cursor);
        if b > a {
            union += b - a;
            cursor = b;
        }
    }
    span.duration_ns() - union
}

/// Records the spans of the current request on the driving thread while
/// enabled; a disabled tracer costs one branch per call. Each request's
/// spans are folded into the ledger when it ends, so memory stays bounded
/// however long the run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`set_enabled`](Self::set_enabled).
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span recording (and source timing) on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        set_tracing(on);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request: drops the previous request's spans.
    pub fn next_request(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Opens a span; returns its index (or `usize::MAX` when disabled).
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            thread: 0,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, index: usize) {
        if index == usize::MAX {
            return;
        }
        let now = self.now_ns();
        self.spans[index].end_ns = now;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let index = self.begin(name);
        let out = f();
        self.end(index);
        out
    }

    /// The current request's spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Totals of a [`TimedSource`]'s timed calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceTotals {
    /// Timed calls.
    pub calls: u64,
    /// Calls served without loading a page.
    pub hits: u64,
    /// Calls that loaded a page (read plus checksum verify).
    pub loads: u64,
    /// Summed duration of hit calls, ns.
    pub hit_ns: u64,
    /// Summed duration of loading calls, ns.
    pub load_ns: u64,
}

impl SourceTotals {
    /// Field-wise sum.
    pub fn plus(self, o: SourceTotals) -> SourceTotals {
        SourceTotals {
            calls: self.calls + o.calls,
            hits: self.hits + o.hits,
            loads: self.loads + o.loads,
            hit_ns: self.hit_ns + o.hit_ns,
            load_ns: self.load_ns + o.load_ns,
        }
    }

    /// Field-wise difference against an earlier reading.
    pub fn since(self, earlier: SourceTotals) -> SourceTotals {
        SourceTotals {
            calls: self.calls - earlier.calls,
            hits: self.hits - earlier.hits,
            loads: self.loads - earlier.loads,
            hit_ns: self.hit_ns - earlier.hit_ns,
            load_ns: self.load_ns - earlier.load_ns,
        }
    }

    /// Summed duration of all calls, ns.
    pub fn busy_ns(&self) -> u64 {
        self.hit_ns + self.load_ns
    }
}

/// A [`CellSource`] wrapper that, while tracing is on, times every call and
/// classifies it as a hit or a page load by the cache-miss counter of the
/// wrapped source's [`AccessStats`].
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    stats: AccessStats,
    calls: AtomicU64,
    hits: AtomicU64,
    loads: AtomicU64,
    hit_ns: AtomicU64,
    load_ns: AtomicU64,
}

impl<S> TimedSource<S> {
    /// Wraps `inner`; `stats` is where `inner` records its cache misses.
    pub fn new(inner: S, stats: AccessStats) -> Self {
        TimedSource {
            inner,
            stats,
            calls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            hit_ns: AtomicU64::new(0),
            load_ns: AtomicU64::new(0),
        }
    }

    /// Totals of every timed call so far.
    pub fn totals(&self) -> SourceTotals {
        SourceTotals {
            calls: self.calls.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            hit_ns: self.hit_ns.load(Ordering::Relaxed),
            load_ns: self.load_ns.load(Ordering::Relaxed),
        }
    }
}

impl<S: CellSource> CellSource for TimedSource<S> {
    fn base_cell(&self, attr: usize, row: usize, col: usize) -> Result<f64, ArchiveError> {
        if !tracing() {
            return self.inner.base_cell(attr, row, col);
        }
        let misses = self.stats.cache_misses();
        let start = Instant::now();
        let out = self.inner.base_cell(attr, row, col);
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.stats.cache_misses() > misses {
            self.loads.fetch_add(1, Ordering::Relaxed);
            self.load_ns.fetch_add(ns, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.hit_ns.fetch_add(ns, Ordering::Relaxed);
        }
        out
    }

    fn page_of(&self, row: usize, col: usize) -> Option<usize> {
        self.inner.page_of(row, col)
    }

    fn pages_read(&self) -> u64 {
        self.inner.pages_read()
    }

    fn ticks_elapsed(&self) -> u64 {
        self.inner.ticks_elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u32, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            thread,
            parent,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_once() {
        let spans = vec![
            span("root", 0, None, 0, 100),
            span("a", 0, Some(0), 10, 30),
            // Overlaps `a`: the shared 20..30 is covered once.
            span("b", 0, Some(0), 20, 50),
            // Another thread's child covers nothing on this thread.
            span("worker", 1, Some(0), 0, 100),
            // A grandchild is its parent's, not the root's.
            span("c", 0, Some(1), 12, 14),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20 - 2);
        assert_eq!(self_time_ns(&spans, 3), 100);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("root", 0, None, 50, 80),
            span("late", 0, Some(0), 70, 120),
        ];
        assert_eq!(self_time_ns(&spans, 0), 20);
    }

    #[test]
    fn tracer_nests_and_disables() {
        let mut t = Tracer::new();
        let off = t.begin("ignored");
        t.end(off);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.next_request();
        let root = t.begin("request");
        t.span("child", || std::hint::black_box(1 + 1));
        t.end(root);
        t.set_enabled(false);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert!(self_time_ns(t.spans(), 0) <= t.spans()[0].duration_ns());
    }
}
