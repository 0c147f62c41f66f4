//! Spans around the ledger's calls into each layer: name, start, end,
//! parent, pass and worker, plus the allocations and heap peak inside.
//! Spans are kept in memory and exported at the end as a Chrome
//! trace-event file (open it in Perfetto or `chrome://tracing`).
//!
//! With tracing off, [`span`] is a plain call, so the same replay code
//! measures its own overhead.

use crate::alloc;
use crate::json::quote;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`sim.simulate`, `core.fig.fig14_scaleout`).
    pub name: String,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Replay pass the span belongs to.
    pub pass: u32,
    /// Thread the span ran on (numbered in order of first use).
    pub worker: u32,
    /// For a sweep span: its worker count; 0 otherwise.
    pub workers: u32,
    /// Heap allocations made inside, on the span's thread.
    pub allocs: u64,
    /// Peak heap bytes above the live count at entry, on the span's
    /// thread.
    pub peak_heap: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static PASS: AtomicU32 = AtomicU32::new(0);
static NEXT_WORKER: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static WORKER: Cell<Option<u32>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn worker_id() -> u32 {
    WORKER.with(|w| {
        let id = w
            .get()
            .unwrap_or_else(|| NEXT_WORKER.fetch_add(1, Ordering::Relaxed));
        w.set(Some(id));
        id
    })
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span buffer poisoned by a panicking recorder")
}

/// Turns recording on or off for every thread.
pub(crate) fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Tags spans opened from now on with replay pass `pass`.
pub(crate) fn set_pass(pass: u32) {
    PASS.store(pass, Ordering::SeqCst);
}

/// Removes and returns every span recorded so far.
pub(crate) fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// The innermost open span of the calling thread.
fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

fn record<R>(name: String, workers: u32, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let parent = current();
    let pass = PASS.load(Ordering::Relaxed);
    let worker = worker_id();
    let id = {
        let mut all = spans();
        all.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            pass,
            worker,
            workers,
            allocs: 0,
            peak_heap: 0,
        });
        all.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(id));
    let heap = alloc::enter();
    let start = now_ns();
    let r = f();
    let end = now_ns();
    let (allocs, peak_heap) = alloc::exit(heap);
    STACK.with(|s| s.borrow_mut().pop());
    let mut all = spans();
    let s = &mut all[id];
    s.start = start;
    s.end = end;
    s.allocs = allocs;
    s.peak_heap = peak_heap;
    r
}

/// Runs `f` inside a span named `name` (a plain call when recording is
/// off).
pub(crate) fn span<R>(name: impl Into<String>, f: impl FnOnce() -> R) -> R {
    if ENABLED.load(Ordering::Relaxed) {
        record(name.into(), 0, f)
    } else {
        f()
    }
}

/// [`ccube_sim::sweep()`] over `points` on `workers` threads inside a span
/// named `name`, with each point in its own span named by `label`. Worker
/// threads attach their point spans to the sweep span.
pub(crate) fn sweep<C, R>(
    name: &str,
    points: &[C],
    workers: usize,
    label: impl Fn(&C) -> String + Sync,
    f: impl Fn(&C) -> R + Sync,
) -> Vec<R>
where
    C: Sync,
    R: Send,
{
    let body = || {
        let parent = current();
        ccube_sim::sweep(points, workers, |_, c| {
            // A fresh worker thread starts with an empty stack: seed it
            // with the sweep span so its points nest under it.
            let adopted = parent.is_some() && current().is_none();
            if adopted {
                STACK.with(|s| s.borrow_mut().extend(parent));
            }
            let r = span(label(c), || f(c));
            if adopted {
                STACK.with(|s| s.borrow_mut().clear());
            }
            r
        })
    };
    if ENABLED.load(Ordering::Relaxed) {
        record(name.to_string(), workers as u32, body)
    } else {
        body()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children on other workers may overlap each
/// other; the union counts covered time once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

/// The spans as a Chrome trace-event document: one complete (`"X"`)
/// event per span, the replay pass as the process and the worker as the
/// thread, with self time, allocations and heap peak in `args`.
pub fn to_chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let cat = s.name.split('.').next().unwrap_or("");
        let _ = write!(
            out,
            "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\
             \"args\":{{\"self_us\":{:.3},\"allocs\":{},\"peak_heap_bytes\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            quote(&s.name),
            quote(cat),
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.pass,
            s.worker,
            *own as f64 / 1e3,
            s.allocs,
            s.peak_heap,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
            pass: 0,
            worker: 0,
            workers: 0,
            allocs: 0,
            peak_heap: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            mk("root", 0, 100, None),
            mk("a", 10, 50, Some(0)),
            mk("b", 30, 70, Some(0)), // overlaps a (another worker)
            mk("c", 40, 45, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 35, 40, 5]);
    }
}
