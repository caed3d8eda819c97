//! Benchmark-side spans: (name, start, end, parent) around the public
//! calls a traced replay makes, kept in memory and written once as
//! Chrome trace-event JSON (`{"traceEvents":[...]}`, the format of the
//! runtime's `chrome_trace` lowering, so Perfetto opens both alike).
//!
//! Off unless [`enable`]d. The coordinator nests spans through a
//! thread-local stack; exec steps on worker threads take the open tick
//! span as their parent.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. `parent` is 0 for a root; `tid` is the thread slot
/// (0 = coordinator, `1 + w` = worker `w`).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub tid: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span opened by [`open`] and not yet closed.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static WORKER_PARENT: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer").push(span);
}

/// Turn recording on or off.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a coordinator span nested under the innermost open one.
pub fn open(name: &'static str) -> Option<Open> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(Open { id, parent, name, start: Instant::now() })
}

/// Close a span from [`open`] (a no-op for `None`).
pub fn close(open: Option<Open>) {
    let Some(open) = open else { return };
    let end = Instant::now();
    STACK.with(|s| s.borrow_mut().pop());
    push(Span {
        id: open.id,
        parent: open.parent,
        name: open.name,
        tid: 0,
        start_ns: ns(open.start),
        end_ns: ns(end),
    });
}

/// Record an already-timed coordinator leaf span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span { id, parent, name, tid: 0, start_ns: ns(start), end_ns: ns(end) });
}

/// Record a span from any thread, parented to the open tick.
pub fn record_worker(name: &'static str, tid: usize, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let parent = WORKER_PARENT.load(Ordering::Relaxed);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span { id, parent, name, tid, start_ns: ns(start), end_ns: ns(end) });
}

/// Make `open` the parent of worker spans until the next call.
pub fn set_worker_parent(open: &Option<Open>) {
    WORKER_PARENT.store(open.as_ref().map_or(0, Open::id), Ordering::Relaxed);
}

/// Drain every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer"))
}

/// The layer a span belongs to: its name's prefix, with exec steps
/// standing for the search stack underneath them.
pub fn layer(name: &str) -> &str {
    match name.split_once('.') {
        Some(("exec", _)) => "search",
        Some((layer, _)) => layer,
        None => "bench",
    }
}

/// Chrome trace-event JSON: one row per thread slot, one complete
/// (`ph:"X"`) event per span, categorized by layer.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut tids: Vec<usize> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut events: Vec<String> = tids
        .iter()
        .map(|&tid| {
            let name =
                if tid == 0 { "coordinator".to_string() } else { format!("worker-{}", tid - 1) };
            format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            )
        })
        .collect();
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    events.extend(spans.iter().map(|s| {
        format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.tid,
            s.name,
            layer(s.name),
            (s.start_ns - t0) as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
        )
    }));
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}
