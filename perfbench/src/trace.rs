//! Tracing for the traced run: a counting allocator and an in-memory
//! span recorder, both switched by one process-wide flag so that a
//! traced run can alternate traced and untraced phases.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions (nothing inside the workspace crates is
//! instrumented) and around its own phases (`bench.*`: set-up, closed
//! and open loop, pump, drain), which the layer calls nest in. Every
//! span carries its name, start and end (ns since the recorder's
//! epoch), the name of the span it nests in and the request id — the
//! broker sequence of the event (or of the first event of a block) the
//! call served. Self time is a span's duration minus that of the spans
//! nested directly in it; for a `bench.*` phase it is the time the
//! benchmark itself spent (scheduling, waiting, checking).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Whether tracing is on: spans are recorded and the allocator counts.
/// Off in untraced runs, so their only cost is one relaxed load per
/// allocation and per layer call.
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Global allocator wrapper counting allocations per thread.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn count() {
        if ACTIVE.load(Ordering::Relaxed) {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns tracing (spans and allocation counting) on or off for the
/// whole process. Switch only between phases.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::SeqCst);
}

/// Whether tracing is on.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread while tracing was on.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Spans kept per recorder; beyond this only the aggregates grow.
const SPAN_CAP: usize = 100_000;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    req: u64,
    start_ns: u64,
    end_ns: u64,
    allocs: u64,
}

/// A span entered and not yet left.
struct Open {
    name: &'static str,
    req: u64,
    /// Tracing was on when it was entered; only then is it recorded.
    active: bool,
    t0: Instant,
    a0: u64,
    /// Summed duration of the spans nested directly in it.
    child_ns: u64,
}

/// Per-name totals over every recorded call, kept even past the span
/// cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Calls recorded.
    pub count: u64,
    /// Summed duration.
    pub ns: u64,
    /// Summed self time: duration minus directly nested spans.
    pub self_ns: u64,
    /// Summed allocations on the calling thread.
    pub allocs: u64,
}

impl Agg {
    /// Mean ns per unit, with `per` units (events) per call; 0 without
    /// calls.
    pub fn mean_ns(&self, per: u64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / (self.count * per.max(1)) as f64
        }
    }
}

/// One thread's span recorder. It records only while tracing is on
/// (`set_active`); otherwise it runs the closures and records nothing.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    /// A recorder; `epoch` must be shared by every recorder of a run so
    /// their spans share one clock.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    /// The clock origin of this recorder's spans.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Enters span `name` on behalf of request `req`; spans entered
    /// before the matching `exit` nest in it.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let active = active();
        self.open.push(Open {
            name,
            req,
            active,
            t0: Instant::now(),
            a0: if active { thread_allocs() } else { 0 },
            child_ns: 0,
        });
    }

    /// Leaves the innermost open span.
    pub fn exit(&mut self) {
        let Some(o) = self.open.pop() else {
            return;
        };
        if !o.active {
            return;
        }
        let t1 = Instant::now();
        let start_ns = o.t0.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = t1.saturating_duration_since(self.epoch).as_nanos() as u64;
        let ns = end_ns - start_ns;
        let allocs = thread_allocs().saturating_sub(o.a0);
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += ns;
            p.name
        });
        let a = self.agg.entry(o.name).or_default();
        a.count += 1;
        a.ns += ns;
        a.self_ns += ns.saturating_sub(o.child_ns);
        a.allocs += allocs;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name: o.name,
                parent,
                req: o.req,
                start_ns,
                end_ns,
                allocs,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` as one call of `name` on behalf of request `req`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        if !active() {
            return f();
        }
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, a) in other.agg {
            let m = self.agg.entry(name).or_default();
            m.count += a.count;
            m.ns += a.ns;
            m.self_ns += a.self_ns;
            m.allocs += a.allocs;
        }
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    /// A copy of the per-name totals so far, for `since`.
    pub fn totals(&self) -> BTreeMap<&'static str, Agg> {
        self.agg.clone()
    }

    /// Totals for `name` recorded after `base` was taken.
    pub fn since(&self, base: &BTreeMap<&'static str, Agg>, name: &str) -> Agg {
        let a = self.agg.get(name).copied().unwrap_or_default();
        let b = base.get(name).copied().unwrap_or_default();
        Agg {
            count: a.count - b.count,
            ns: a.ns - b.ns,
            self_ns: a.self_ns - b.self_ns,
            allocs: a.allocs - b.allocs,
        }
    }

    /// Every recorded name with its totals.
    pub fn aggs(&self) -> impl Iterator<Item = (&'static str, Agg)> + '_ {
        self.agg.iter().map(|(n, a)| (*n, *a))
    }

    /// Writes the stored spans (one JSON object per line) followed by a
    /// per-name summary line with counts, total and self times and
    /// allocations over every recorded call.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name,
                s.parent.map_or("null".to_owned(), |p| format!("\"{p}\"")),
                s.req,
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        let summary: Vec<String> = self
            .agg
            .iter()
            .map(|(name, a)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"ns\":{},\"self_ns\":{},\"allocs\":{}}}",
                    a.count, a.ns, a.self_ns, a.allocs
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"summary\":{{{}}},\"spans_stored\":{},\"spans_dropped\":{}}}",
            summary.join(","),
            self.spans.len(),
            self.dropped
        )?;
        out.flush()
    }
}
