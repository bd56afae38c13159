//! Recorded execution histories.
//!
//! In [`Mode::Lockstep`](crate::world::Mode::Lockstep) the world records one
//! [`Event`] per shared-memory access, in the (deterministic) order the
//! scheduler granted them, plus any [`Annotation`]s pushed by higher layers.
//! The snapshot crate uses annotations to mark scan/update intervals so its
//! offline checkers can verify the paper's properties P1–P3 against the
//! actual interleaving.

use std::fmt;

/// Identifier of a register within a [`World`](crate::world::World).
pub type RegId = usize;

/// The kind of a shared-memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// An atomic read of a register.
    Read,
    /// An atomic write of a register.
    Write,
    /// A store-buffer fence ([`Ctx::fence`](crate::world::Ctx::fence)):
    /// drains the caller's own buffer as one scheduled gate. Only recorded
    /// under a weak [`WeakMode`](crate::weakmem::WeakMode); the register id
    /// it carries is the [`FENCE_REG`](crate::weakmem::FENCE_REG) sentinel.
    Fence,
    /// An atomic swap ([`Reg::swap`](crate::reg::Reg::swap)): exchanges the
    /// register's value and returns the previous one as a single scheduled
    /// gate. Counts as both a read and a write in the telemetry plane.
    Swap,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Read => write!(f, "read"),
            OpKind::Write => write!(f, "write"),
            OpKind::Fence => write!(f, "fence"),
            OpKind::Swap => write!(f, "swap"),
        }
    }
}

/// The kind of an injected fault event (see the `faults` module).
///
/// Crash decisions keep their dedicated [`Event::Crash`] variant (they
/// predate the chaos subsystem); everything the fault-injection layer adds
/// on top is recorded as an [`Event::Fault`] with one of these kinds, so a
/// replayed history explains *why* a process stopped moving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A stall window opened: the process is withheld from scheduling
    /// until the window closes (or no other process can run).
    StallStart,
    /// A stall window closed: the process is eligible again.
    StallEnd,
    /// A panic was injected; the process unwinds at its next gate.
    PanicInjected,
}

impl FaultKind {
    /// Every kind, in declaration order.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::StallStart,
        FaultKind::StallEnd,
        FaultKind::PanicInjected,
    ];

    /// The kind's stable name (history JSON, trace labels).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::StallStart => "stall:start",
            FaultKind::StallEnd => "stall:end",
            FaultKind::PanicInjected => "panic:injected",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A free-form marker pushed by protocol layers between memory accesses.
///
/// The `label` identifies the marker type to whoever wrote it (e.g.
/// `"scan:start"`); `data` carries small integers such as sequence numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Marker type, chosen by the layer that records it.
    pub label: &'static str,
    /// Marker payload.
    pub data: Vec<u64>,
}

impl Annotation {
    /// Creates an annotation with the given label and payload.
    pub fn new(label: &'static str, data: Vec<u64>) -> Self {
        Annotation { label, data }
    }
}

/// One entry of a recorded history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A granted shared-memory access.
    Op {
        /// Global step index (0-based, dense over granted accesses).
        step: u64,
        /// The acting process.
        pid: usize,
        /// Read or write.
        kind: OpKind,
        /// Which register was accessed.
        reg: RegId,
        /// Caller-supplied tag (e.g. a hidden sequence number); 0 if unused.
        tag: u64,
    },
    /// A marker recorded by a protocol layer (does not consume a step).
    Note {
        /// Value of the global step counter when the note was recorded.
        step: u64,
        /// The annotating process.
        pid: usize,
        /// The marker itself.
        note: Annotation,
    },
    /// The scheduler crashed a process.
    Crash {
        /// Value of the global step counter at the crash.
        step: u64,
        /// The crashed process.
        pid: usize,
    },
    /// A fault-injection event (stall window edge, injected panic)
    /// recorded by the chaos subsystem.
    Fault {
        /// Value of the global step counter when the fault was recorded.
        step: u64,
        /// The affected process.
        pid: usize,
        /// What kind of fault it was.
        kind: FaultKind,
    },
    /// A buffered store reached shared memory (weak-memory modes only):
    /// either an explicit [`Decision::Flush`](crate::sched::Decision), a
    /// fence drain, or the deterministic end-of-run drain. Like crashes,
    /// flushes do not consume a step.
    Flush {
        /// Value of the global step counter at the flush.
        step: u64,
        /// The process whose buffer drained the store.
        pid: usize,
        /// The register the store landed in.
        reg: RegId,
    },
}

impl Event {
    /// The global step counter value at which this event was recorded.
    pub fn step(&self) -> u64 {
        match self {
            Event::Op { step, .. }
            | Event::Note { step, .. }
            | Event::Crash { step, .. }
            | Event::Fault { step, .. }
            | Event::Flush { step, .. } => *step,
        }
    }

    /// The process this event belongs to.
    pub fn pid(&self) -> usize {
        match self {
            Event::Op { pid, .. }
            | Event::Note { pid, .. }
            | Event::Crash { pid, .. }
            | Event::Fault { pid, .. }
            | Event::Flush { pid, .. } => *pid,
        }
    }
}

/// A totally ordered record of everything that happened in a lockstep run.
#[derive(Debug, Clone, Default)]
pub struct History {
    events: Vec<Event>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a history from pre-recorded events (for checker tests and
    /// external tools; worlds record their own histories during runs).
    pub fn from_events(events: Vec<Event>) -> Self {
        History { events }
    }

    /// Appends an event (crate-internal; the world does this).
    pub(crate) fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Stable-sorts the events by pid (crate-internal; the scheduler does
    /// this once, to the notes recorded before its first decision).
    pub(crate) fn sort_by_pid(&mut self) {
        self.events.sort_by_key(Event::pid);
    }

    /// All events, in execution order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of recorded events (ops + notes + crashes).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the notes with a given label, in order.
    pub fn notes_labelled<'a>(
        &'a self,
        label: &'static str,
    ) -> impl Iterator<Item = (u64, usize, &'a Annotation)> + 'a {
        self.events.iter().filter_map(move |e| match e {
            Event::Note { step, pid, note } if note.label == label => Some((*step, *pid, note)),
            _ => None,
        })
    }

    /// Iterates over granted memory operations, in order.
    pub fn ops(&self) -> impl Iterator<Item = (u64, usize, OpKind, RegId, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Op {
                step,
                pid,
                kind,
                reg,
                tag,
            } => Some((*step, *pid, *kind, *reg, *tag)),
            _ => None,
        })
    }

    /// Number of granted memory operations.
    pub fn op_count(&self) -> usize {
        self.ops().count()
    }

    /// Iterates over recorded fault-injection events, in order.
    pub fn faults(&self) -> impl Iterator<Item = (u64, usize, FaultKind)> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Fault { step, pid, kind } => Some((*step, *pid, *kind)),
            _ => None,
        })
    }

    /// Iterates over scheduler crash events, in order.
    pub fn crashes(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Crash { step, pid } => Some((*step, *pid)),
            _ => None,
        })
    }

    /// Serializes the history as JSONL: one JSON object per event, in
    /// execution order, discriminated by a `"type"` key (`"op"`,
    /// `"note"`, `"crash"`, `"fault"`). Pairs with
    /// [`Telemetry::to_jsonl`](crate::metrics::Telemetry::to_jsonl) for
    /// structured run export.
    pub fn to_jsonl(&self) -> String {
        use crate::json::Value;
        let mut out = String::new();
        for e in &self.events {
            let v = match e {
                Event::Op {
                    step,
                    pid,
                    kind,
                    reg,
                    tag,
                } => Value::obj(vec![
                    ("type", "op".into()),
                    ("step", (*step).into()),
                    ("pid", (*pid).into()),
                    ("kind", kind.to_string().into()),
                    ("reg", (*reg).into()),
                    ("tag", (*tag).into()),
                ]),
                Event::Note { step, pid, note } => Value::obj(vec![
                    ("type", "note".into()),
                    ("step", (*step).into()),
                    ("pid", (*pid).into()),
                    ("label", note.label.into()),
                    (
                        "data",
                        Value::Arr(note.data.iter().map(|&d| d.into()).collect()),
                    ),
                ]),
                Event::Crash { step, pid } => Value::obj(vec![
                    ("type", "crash".into()),
                    ("step", (*step).into()),
                    ("pid", (*pid).into()),
                ]),
                Event::Fault { step, pid, kind } => Value::obj(vec![
                    ("type", "fault".into()),
                    ("step", (*step).into()),
                    ("pid", (*pid).into()),
                    ("kind", kind.to_string().into()),
                ]),
                Event::Flush { step, pid, reg } => Value::obj(vec![
                    ("type", "flush".into()),
                    ("step", (*step).into()),
                    ("pid", (*pid).into()),
                    ("reg", (*reg).into()),
                ]),
            };
            out.push_str(&v.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut h = History::new();
        assert!(h.is_empty());
        h.push(Event::Op {
            step: 0,
            pid: 1,
            kind: OpKind::Write,
            reg: 3,
            tag: 9,
        });
        h.push(Event::Note {
            step: 1,
            pid: 1,
            note: Annotation::new("scan:start", vec![]),
        });
        h.push(Event::Note {
            step: 1,
            pid: 2,
            note: Annotation::new("scan:end", vec![5]),
        });
        assert_eq!(h.len(), 3);
        assert_eq!(h.op_count(), 1);
        let starts: Vec<_> = h.notes_labelled("scan:start").collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(starts[0].1, 1);
        let ends: Vec<_> = h.notes_labelled("scan:end").collect();
        assert_eq!(ends[0].2.data, vec![5]);
    }

    #[test]
    fn event_accessors() {
        let e = Event::Crash { step: 17, pid: 4 };
        assert_eq!(e.step(), 17);
        assert_eq!(e.pid(), 4);
        let o = Event::Op {
            step: 2,
            pid: 0,
            kind: OpKind::Read,
            reg: 0,
            tag: 0,
        };
        assert_eq!(o.step(), 2);
        assert_eq!(o.pid(), 0);
    }

    #[test]
    fn opkind_display() {
        assert_eq!(OpKind::Read.to_string(), "read");
        assert_eq!(OpKind::Write.to_string(), "write");
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_event() {
        let h = History::from_events(vec![
            Event::Op {
                step: 0,
                pid: 1,
                kind: OpKind::Write,
                reg: 3,
                tag: 9,
            },
            Event::Note {
                step: 1,
                pid: 1,
                note: Annotation::new("scan:start", vec![2, 4]),
            },
            Event::Crash { step: 2, pid: 0 },
            Event::Fault {
                step: 3,
                pid: 2,
                kind: FaultKind::StallStart,
            },
        ]);
        let jsonl = h.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("op"));
        assert_eq!(first.get("tag").unwrap().as_num(), Some(9.0));
        let note = crate::json::parse(lines[1]).unwrap();
        assert_eq!(note.get("data").unwrap().as_arr().unwrap().len(), 2);
        let fault = crate::json::parse(lines[3]).unwrap();
        assert_eq!(fault.get("kind").unwrap().as_str(), Some("stall:start"));
    }
}
