//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, a start and an end, the span that was open on the
//! same thread when it began (its parent), and the solve or request id
//! current on that thread. Spans are only recorded while tracing is on;
//! off, [`span`] is one atomic load. The recorded spans are written at
//! the end of a traced run as Chrome trace-event JSON.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub id: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_tid: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        on: AtomicBool::new(false),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static CURRENT_ID: Cell<u64> = const { Cell::new(0) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            // ORDERING: a plain id dispenser; it publishes no other data.
            t.set(recorder().next_tid.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Turn recording on or off for spans that start from now on.
pub fn set_enabled(on: bool) {
    // ORDERING: the flag gates recording only; span data is published
    // through the mutex.
    recorder().on.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    recorder().on.load(Ordering::Relaxed)
}

/// Set the solve or request id that spans opened on this thread carry.
pub fn set_id(id: u64) {
    CURRENT_ID.with(|c| c.set(id));
}

/// Closes its span when dropped.
#[must_use = "the span ends when the guard drops"]
pub struct Guard(Option<usize>);

/// Open a span named `name`; it ends when the returned guard drops.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let rec = recorder();
    let parent = OPEN.with(|o| o.borrow().last().copied());
    let span = Span {
        name,
        start: rec.epoch.elapsed().as_secs_f64(),
        end: f64::NAN,
        parent,
        id: CURRENT_ID.with(Cell::get),
        tid: tid(),
    };
    let idx = {
        let mut spans = rec.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(span);
        spans.len() - 1
    };
    OPEN.with(|o| o.borrow_mut().push(idx));
    Guard(Some(idx))
}

/// Run `f` inside a span named `name`.
pub fn scoped<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = span(name);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let rec = recorder();
        let end = rec.epoch.elapsed().as_secs_f64();
        rec.spans.lock().unwrap_or_else(PoisonError::into_inner)[idx].end = end;
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&i| i == idx) {
                o.remove(pos);
            }
        });
    }
}

/// Drop every recorded span.
pub fn clear() {
    recorder()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    OPEN.with(|o| o.borrow_mut().clear());
}

/// Tests that drive the process-wide recorder hold this lock.
#[cfg(test)]
pub static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Every span recorded so far (closed or not), in start order.
pub fn snapshot() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

/// Per-span self time: a span's duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// parts outside the parent are ignored).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Whether span `i` lies below span `ancestor` in the parent chain.
fn descends_from(spans: &[Span], mut i: usize, ancestor: usize) -> bool {
    while let Some(p) = spans[i].parent {
        if p == ancestor {
            return true;
        }
        i = p;
    }
    false
}

/// For every span named `root`, the summed duration of the spans named
/// `name` beneath it.
pub fn per_root_sum(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    per_root(spans, root, |i| {
        (spans[i].name == name).then(|| spans[i].dur())
    })
}

/// For every span named `root`, the sum of `value(i)` over the spans
/// beneath it for which `value` returns a number.
pub fn per_root(spans: &[Span], root: &str, value: impl Fn(usize) -> Option<f64>) -> Vec<f64> {
    (0..spans.len())
        .filter(|&r| spans[r].name == root)
        .map(|r| {
            (r + 1..spans.len())
                .filter(|&i| descends_from(spans, i, r))
                .filter_map(&value)
                .sum()
        })
        .collect()
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Chrome trace-event JSON (complete events, microsecond times) for
/// chrome://tracing and Perfetto.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let end = if s.end.is_finite() { s.end } else { s.start };
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
            s.name,
            s.tid,
            s.start * 1e6,
            (end - s.start) * 1e6,
            i,
            parent,
            s.id
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            sp("step", 0.0, 10.0, None),
            sp("a", 1.0, 4.0, Some(0)),
            sp("b", 3.0, 6.0, Some(0)),  // overlaps `a` on [3, 4]
            sp("c", 5.0, 5.5, Some(0)),  // inside `b`
            sp("d", 9.0, 12.0, Some(0)), // runs past the parent's end
            sp("leaf", 1.5, 2.0, Some(1)),
        ];
        let st = self_times(&spans);
        // Children cover [1, 6] and [9, 10]: 6 of the parent's 10 seconds.
        assert!((st[0] - 4.0).abs() < 1e-12, "{}", st[0]);
        assert!((st[1] - 2.5).abs() < 1e-12);
        assert!((st[5] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_root_sums_descendants_only() {
        let spans = vec![
            sp("step", 0.0, 10.0, None),
            sp("op", 1.0, 5.0, Some(0)),
            sp("kernel", 1.0, 2.0, Some(1)),
            sp("kernel", 3.0, 4.5, Some(1)),
            sp("step", 10.0, 20.0, None),
            sp("kernel", 11.0, 12.0, Some(4)),
            sp("kernel", 30.0, 31.0, None),
        ];
        assert_eq!(per_root_sum(&spans, "step", "kernel"), vec![2.5, 1.0]);
        assert_eq!(durations(&spans, "op"), vec![4.0]);
    }

    #[test]
    fn recorder_nests_spans_and_writes_chrome_json() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(true);
        set_id(7);
        {
            let _outer = span("test.outer");
            let _inner = span("test.inner");
        }
        set_enabled(false);
        let _ignored = span("test.ignored");
        let spans = snapshot();
        let outer = spans.iter().position(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().position(|s| s.name == "test.inner").unwrap();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[inner].id, 7);
        assert!(spans[outer].end >= spans[inner].end);
        assert!(!spans.iter().any(|s| s.name == "test.ignored"));
        let json = chrome_json(&spans);
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.get("traceEvents").unwrap().as_array().unwrap().len() >= 2);
    }
}
