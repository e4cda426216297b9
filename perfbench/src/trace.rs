//! In-memory span recorder for the traced benchmark run.
//!
//! Spans are recorded only by the benchmark itself, around its calls into
//! each layer's public functions. Each span has a name, a start, an end and
//! the span that caused it (its parent). Spans stay in memory until the pass
//! ends; [`self_times`] then charges every span its duration minus the part
//! of that interval its children cover.
//!
//! Recording is off by default: [`span`] then only runs its closure, so the
//! untraced passes pay one atomic load per call.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl SpanRecord {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);
/// Parent of spans opened on threads the benchmark did not start (worker
/// threads inside the library): the pass's root span.
static ROOT: AtomicUsize = AtomicUsize::new(0);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn seconds(at: Instant) -> f64 {
    at.saturating_duration_since(origin()).as_secs_f64()
}

fn push(record: SpanRecord) {
    SPANS.lock().expect("span buffer lock").push(record);
}

/// The innermost open span on this thread, else the pass's root span.
pub fn current() -> Option<usize> {
    STACK
        .with(|stack| stack.borrow().last().copied())
        .or_else(|| Some(ROOT.load(Ordering::Relaxed)).filter(|&id| id != 0))
}

/// Runs `f` inside a span named `name` (a no-op wrapper while recording is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_named(f, |_| name)
}

/// Like [`span`], but names the span after it ends, from its result (a
/// cache hit and a computed result of the same call get different names).
pub fn span_named<T>(f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    let start = Instant::now();
    STACK.with(|stack| stack.borrow_mut().push(id));
    let value = f();
    STACK.with(|stack| stack.borrow_mut().pop());
    let end = Instant::now();
    push(SpanRecord {
        id,
        parent,
        name: name(&value),
        start: seconds(start),
        end: seconds(end),
    });
    value
}

/// Runs `f` on this thread as a child of `parent` — how threads the
/// benchmark spawns inherit the span that spawned them.
pub fn adopt<T>(parent: Option<usize>, f: impl FnOnce() -> T) -> T {
    let Some(parent) = parent else {
        return f();
    };
    STACK.with(|stack| stack.borrow_mut().push(parent));
    let value = f();
    STACK.with(|stack| stack.borrow_mut().pop());
    value
}

/// Starts recording a pass: clears the buffer and opens the root span
/// `name`. Returns the root's id and start time for [`finish`].
pub fn start(name: &'static str) -> (usize, &'static str, Instant) {
    // Fix the origin before any span's start is taken.
    origin();
    SPANS.lock().expect("span buffer lock").clear();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    ROOT.store(id, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
    (id, name, Instant::now())
}

/// Closes the root span opened by [`start`], stops recording and returns
/// every span of the pass, root included.
pub fn finish(root: (usize, &'static str, Instant)) -> Vec<SpanRecord> {
    let end = Instant::now();
    ENABLED.store(false, Ordering::Relaxed);
    ROOT.store(0, Ordering::Relaxed);
    let (id, name, start) = root;
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer lock"));
    spans.push(SpanRecord {
        id,
        parent: None,
        name,
        start: seconds(start),
        end: seconds(end),
    });
    spans
}

/// Total length of the union of `intervals`.
fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for &(start, end) in intervals.iter() {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                open = Some((start, end));
            }
            None => open = Some((start, end)),
        }
    }
    if let Some((s, e)) = open {
        total += e - s;
    }
    total
}

/// Self time of every span, in `spans` order: its duration minus the union
/// of its children's intervals (clipped to the span). Children that run in
/// parallel and overlap are counted once.
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let index: std::collections::HashMap<usize, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|id| index.get(&id)) {
            let parent = &spans[p];
            let (start, end) = (span.start.max(parent.start), span.end.min(parent.end));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| (span.duration() - union_length(kids)).max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, parent: Option<usize>, start: f64, end: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_counts_overlapping_parallel_children_once() {
        let spans = [
            record(1, None, 0.0, 10.0),
            // Two children running in parallel on different threads,
            // overlapping on [2, 4], then a third one later.
            record(2, Some(1), 1.0, 4.0),
            record(3, Some(1), 2.0, 6.0),
            record(4, Some(1), 8.0, 9.0),
            // A grandchild only reduces its own parent's self time.
            record(5, Some(3), 2.5, 3.5),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 4.0).abs() < 1e-12, "root self {}", own[0]);
        assert!((own[1] - 3.0).abs() < 1e-12);
        assert!((own[2] - 3.0).abs() < 1e-12);
        assert!((own[3] - 1.0).abs() < 1e-12);
        assert!((own[4] - 1.0).abs() < 1e-12);
        // Wall 10 s on two threads: self times add up to between the wall
        // clock and wall × threads.
        let total: f64 = own.iter().sum();
        assert!((10.0..=20.0).contains(&total), "total {total}");
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [record(1, None, 0.0, 5.0), record(2, Some(1), 4.0, 7.0)];
        let own = self_times(&spans);
        assert!((own[0] - 4.0).abs() < 1e-12);
        assert!((own[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_spans_and_adopts_spawned_threads() {
        let root = start("root");
        span("outer", || {
            let parent = current();
            std::thread::scope(|scope| {
                scope.spawn(|| adopt(parent, || span("inner", || ())));
            });
        });
        let spans = finish(root);
        let find = |name: &str| spans.iter().find(|s| s.name == name).expect(name);
        assert_eq!(find("outer").parent, Some(find("root").id));
        assert_eq!(find("inner").parent, Some(find("outer").id));
        assert!(find("root").parent.is_none());
    }
}
