//! In-memory span recorder for the traced run.
//!
//! The harness wrappers at the layers' public trait boundaries call
//! [`enter`]; the guard it returns closes the span when dropped. The
//! recorder is process-global because one of those boundaries,
//! `SnapshotBackend::alloc`, is a constructor that `over_snapshot` calls
//! with no way to hand a recorder through. Untraced passes never install the
//! wrappers, so they never reach this module.
//!
//! A span's parent is the innermost span open on the same thread; a thread
//! with none open (a process body spawned by `World::run`) attaches to the
//! span last [`Guard::share`]d by another thread.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::measure::percentile_index;

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the first span opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary name, `layer.operation`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the causing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The workload item being run when the span opened.
    pub item: u32,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SHARED_PARENT: AtomicU32 = AtomicU32::new(NO_PARENT);
static ITEM: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    // Pushing and stamping leave the vector valid at every step.
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sets the item id stamped on spans opened from now on.
pub fn set_item(item: usize) {
    ITEM.store(item as u32, Ordering::Relaxed);
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u32,
    shared: bool,
}

/// Opens a span named `name` under the current thread's innermost open span.
pub fn enter(name: &'static str) -> Guard {
    let parent = OPEN
        .with(|o| o.borrow().last().copied())
        .unwrap_or_else(|| SHARED_PARENT.load(Ordering::Acquire));
    let item = ITEM.load(Ordering::Relaxed);
    let mut all = spans();
    let id = all.len() as u32;
    let start_ns = now_ns();
    all.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        item,
    });
    drop(all);
    OPEN.with(|o| o.borrow_mut().push(id));
    Guard { id, shared: false }
}

impl Guard {
    /// Makes this span the parent of spans opened on threads that have none
    /// of their own open, until the guard drops.
    pub fn share(mut self) -> Self {
        SHARED_PARENT.store(self.id, Ordering::Release);
        self.shared = true;
        self
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        spans()[self.id as usize].end_ns = end_ns;
        if self.shared {
            SHARED_PARENT.store(NO_PARENT, Ordering::Release);
        }
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            // Guards are scoped, so they close innermost first.
            debug_assert_eq!(open.last(), Some(&self.id));
            open.pop();
        });
    }
}

/// Makes room for `additional` more spans, so that recording a pass of known
/// size never regrows the buffer.
pub fn reserve(additional: usize) {
    spans().reserve(additional);
}

/// Records a span the caller timed itself, as a root.
pub fn record(name: &'static str, start: Instant, end: Instant, item: usize) {
    let epoch = *EPOCH.get_or_init(Instant::now);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    spans().push(Span {
        name,
        start_ns: ns(start),
        end_ns: ns(end),
        parent: NO_PARENT,
        item: item as u32,
    });
}

/// Hands every span recorded so far to `f`, then empties the recorder,
/// keeping its buffer.
pub fn drain<R>(f: impl FnOnce(&[Span]) -> R) -> R {
    let mut all = spans();
    let result = f(&all);
    all.clear();
    result
}

/// What the spans of one name add up to.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Spans recorded.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time, ns: duration minus the durations of child spans.
    pub self_ns: u64,
    /// Every duration, ns, in recording order.
    pub durs_ns: Vec<u32>,
}

impl NameStats {
    /// Mean duration in µs (0 with no spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 * 1e-3 / self.count as f64
    }

    /// The `p`-th percentile of the durations in µs (0 with no spans).
    pub fn percentile_us(&self, p: u32) -> f64 {
        if self.durs_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.durs_ns.clone();
        sorted.sort_unstable();
        f64::from(sorted[percentile_index(sorted.len(), p)]) * 1e-3
    }
}

/// Per-name totals over any number of span batches.
#[derive(Debug, Default)]
pub struct Totals(Vec<(&'static str, NameStats)>);

impl Totals {
    /// Adds one batch. Parent indices are relative to the batch. A span's
    /// self time is its duration minus what its child spans cover (children
    /// of one parent never overlap here: every layer calls the next
    /// synchronously).
    pub fn absorb(&mut self, batch: &[Span]) {
        let mut self_ns: Vec<u64> = batch.iter().map(Span::dur_ns).collect();
        for s in batch {
            if s.parent != NO_PARENT {
                let p = &mut self_ns[s.parent as usize];
                *p = p.saturating_sub(s.dur_ns());
            }
        }
        for (s, own) in batch.iter().zip(self_ns) {
            let at = match self.0.iter().position(|(n, _)| *n == s.name) {
                Some(at) => at,
                None => {
                    self.0.push((s.name, NameStats::default()));
                    self.0.len() - 1
                }
            };
            let stats = &mut self.0[at].1;
            stats.count += 1;
            stats.total_ns += s.dur_ns();
            stats.self_ns += own;
            stats
                .durs_ns
                .push(s.dur_ns().min(u64::from(u32::MAX)) as u32);
        }
    }

    /// The totals of `name` (all zero if no such span was recorded).
    pub fn get(&self, name: &str) -> &NameStats {
        static NONE: NameStats = NameStats {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durs_ns: Vec::new(),
        };
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&NONE, |(_, s)| s)
    }
}

/// Most spans [`write_json`] writes: a pass of `decide-turn-n8` records over
/// a million, and a file is for reading.
pub const MAX_ROWS: usize = 250_000;

/// Writes `spans` as JSON: a name table and one
/// `[name, start_ns, end_ns, parent, item]` row per span (parent −1 for a
/// root), for the first [`MAX_ROWS`] spans; `spans_recorded` is how many
/// there were.
///
/// # Errors
///
/// Returns any I/O error from writing `out`.
pub fn write_json(spans: &[Span], workload: &str, out: &mut impl Write) -> std::io::Result<()> {
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
    writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"spans_recorded\": {}, \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"item\"],",
        spans.len()
    )?;
    let spans = &spans[..spans.len().min(MAX_ROWS)];
    writeln!(out, "\"names\": [{}],", quoted.join(", "))?;
    writeln!(out, "\"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let name = names
            .iter()
            .position(|n| *n == s.name)
            .expect("collected above");
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "[{name},{},{},{parent},{}]{sep}",
            s.start_ns, s.end_ns, s.item
        )?;
    }
    writeln!(out, "]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            item: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let batch = vec![
            span("run", 0, 100, NO_PARENT),
            span("scan", 10, 40, 0),
            span("scan", 50, 70, 0),
            span("read", 12, 20, 1),
        ];
        let mut t = Totals::default();
        t.absorb(&batch);
        t.absorb(&batch);
        let (run, scan) = (t.get("run"), t.get("scan"));
        assert_eq!((run.count, run.total_ns, run.self_ns), (2, 200, 100));
        assert_eq!((scan.count, scan.total_ns, scan.self_ns), (4, 100, 84));
        assert_eq!(scan.durs_ns, vec![30, 20, 30, 20]);
        assert_eq!(scan.mean_us(), 0.025);
        assert_eq!(scan.percentile_us(50), 0.02);
        assert_eq!(t.get("absent"), &NameStats::default());
        assert_eq!(t.get("absent").percentile_us(50), 0.0);
    }

    #[test]
    fn json_rows_carry_every_field() {
        let spans = vec![span("a.b", 1, 5, NO_PARENT), span("c", 2, 3, 0)];
        let mut buf = Vec::new();
        write_json(&spans, "w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"names\": [\"a.b\", \"c\"]"));
        assert!(text.contains("[0,1,5,-1,0],"));
        assert!(text.contains("[1,2,3,0,0]\n"));
    }
}
