//! Span recording from outside the program.
//!
//! A span is a timed call into one layer's public API.  While a run goes,
//! every thread appends its spans to a buffer of its own (registered once
//! in a global list, so the buffers of worker threads outlive the workers);
//! [`drain`] collects them after the run.  Each span carries its name,
//! start, end, thread, parent span, task and a client id.  Thread 0 is the
//! first thread that records a span — the benchmark's main thread, which is
//! also the simulator's event loop.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `client.train` or `secure.accumulate`.
    pub name: &'static str,
    /// Start time in ns.
    pub start_ns: u64,
    /// End time in ns.
    pub end_ns: u64,
    /// Recording thread (0 = event loop).
    pub thread: u32,
    /// Index of the enclosing span in the drained list, if any.
    pub parent: Option<usize>,
    /// Task id the call belongs to.
    pub task: u32,
    /// Client id of the call (or an item count where no client applies).
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct ThreadBuf {
    thread: u32,
    spans: Vec<Span>,
    /// Indices (into `spans`) of the spans open on this thread.
    open: Vec<usize>,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadBuf>>>> = const { RefCell::new(None) };
}

fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buf = local.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                ..ThreadBuf::default()
            }));
            registry()
                .lock()
                .expect("span registry poisoned by a panicking thread")
                .push(Arc::clone(&buf));
            buf
        });
        let mut buf = buf.lock().expect("span buffer poisoned");
        f(&mut buf)
    })
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Registers the calling thread as thread 0 (the event loop) if no thread
/// has recorded yet.
pub fn register_main_thread() {
    let _ = epoch();
    with_buf(|_| ());
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, task: u32, id: u64, f: impl FnOnce() -> R) -> R {
    let index = with_buf(|buf| {
        let parent = buf.open.last().copied();
        let index = buf.spans.len();
        buf.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            thread: buf.thread,
            parent,
            task,
            id,
        });
        buf.open.push(index);
        index
    });
    let result = f();
    with_buf(|buf| {
        buf.spans[index].end_ns = now_ns();
        buf.open.pop();
    });
    result
}

/// Takes every closed span recorded so far, from every thread, re-indexing
/// parents into the returned list.
pub fn drain() -> Vec<Span> {
    let bufs = registry()
        .lock()
        .expect("span registry poisoned by a panicking thread")
        .clone();
    let mut all = Vec::new();
    for buf in bufs {
        let mut buf = buf.lock().expect("span buffer poisoned");
        assert!(buf.open.is_empty(), "drain() with a span still open");
        let offset = all.len();
        all.extend(buf.spans.drain(..).map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

/// Total and self time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their durations minus the time of their direct children, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, µs (0 without calls).
    pub fn self_us_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / 1e3 / self.count as f64
        }
    }
}

/// Per-name totals, with self time = span time minus direct-child time.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, child) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.dur_ns();
        entry.self_ns += span.dur_ns().saturating_sub(child);
    }
    out
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule, or 0 for
/// an empty list.
pub fn nearest_rank(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// Writes up to `limit` spans in Chrome Trace Event format.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, span) in spans.iter().take(limit).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = span
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"task\":{},\"id\":{}}}}}",
            span.name,
            span.thread,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            i,
            parent,
            span.task,
            span.id
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Serializes the tests that record spans: the buffers are process-wide.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            thread: 0,
            parent,
            task: 0,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100) > outer [10,60) > inner [20,50); eval [70,80) under run.
        let spans = vec![
            mk("run", 0, 100, None),
            mk("outer", 10, 60, Some(0)),
            mk("inner", 20, 50, Some(1)),
            mk("eval", 70, 80, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"].self_ns, 100 - 50 - 10);
        assert_eq!(t["outer"].self_ns, 50 - 30);
        assert_eq!(t["inner"].self_ns, 30);
        assert_eq!(t["eval"].total_ns, 10);
        // Self times of a closed tree add up to the root's duration.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn self_time_aggregates_repeated_names() {
        let spans = vec![
            mk("take", 0, 10, None),
            mk("inner.take", 2, 6, Some(0)),
            mk("take", 20, 25, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["take"].count, 2);
        assert_eq!(t["take"].self_ns, 6 + 5);
        assert!((t["take"].self_us_per_call() - 0.0055).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents_and_threads() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        register_main_thread();
        let _ = drain();
        span("a", 1, 7, || span("b", 1, 8, || ()));
        std::thread::scope(|s| {
            s.spawn(|| span("w", 2, 9, || ()));
        });
        let spans = drain();
        let a = spans.iter().position(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        let w = spans.iter().find(|s| s.name == "w").unwrap();
        assert_eq!(b.parent, Some(a));
        assert_eq!(spans[a].parent, None);
        assert_eq!(w.parent, None);
        assert_ne!(w.thread, spans[a].thread);
        assert!(spans[a].start_ns <= b.start_ns && b.end_ns <= spans[a].end_ns);
        assert_eq!((w.task, w.id), (2, 9));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v = vec![5, 1, 4, 2, 3];
        assert_eq!(nearest_rank(&mut v, 0.5), 3);
        assert_eq!(nearest_rank(&mut v, 0.99), 5);
        assert_eq!(nearest_rank(&mut v, 0.0), 1);
        assert_eq!(nearest_rank(&mut [], 0.5), 0);
    }

    #[test]
    fn chrome_trace_is_bounded_and_well_formed() {
        let spans = vec![mk("run", 0, 2000, None), mk("x", 500, 1500, Some(0))];
        let text = chrome_trace(&spans, 1);
        assert!(text.contains("\"name\":\"run\""));
        assert!(!text.contains("\"name\":\"x\""));
        assert!(text.contains("\"dur\":2.000"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
