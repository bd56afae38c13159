//! Offline verification of the paper's snapshot properties P1–P3.
//!
//! A lockstep run of the scannable memory records a totally ordered
//! [`History`]: one event per register access, plus the annotations pushed
//! by [`crate::memory`] (update intervals with ghost sequence numbers, scan
//! intervals with the returned sequence vector). This module replays that
//! history and verifies, for every completed scan:
//!
//! * **P1 (regularity)** — each returned value's write *potentially
//!   coexisted* with the scan: it was not superseded by another write of the
//!   same process completing before the scan began ([`SnapshotViolation::StaleValue`]),
//!   nor did it land only after the scan ended ([`SnapshotViolation::FutureValue`]).
//! * **P2 (snapshot)** — strengthened to full linearizability: there is a
//!   point *within the scan's interval* at which the memory contents equaled
//!   the returned view ([`SnapshotViolation::NotInstantaneous`] otherwise).
//!   This implies the paper's pairwise-coexistence formulation (intervals on
//!   a line intersect pairwise iff they share a point).
//! * **P3 (scan serializability)** — the sequence vectors of any two scans
//!   (by any processes) are componentwise comparable
//!   ([`SnapshotViolation::IncomparableScans`] otherwise).

use std::collections::{HashMap, VecDeque};

use bprc_sim::history::{Event, History, OpKind};

use crate::memory::{labels, SnapshotMeta};

/// A property violation found in a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotViolation {
    /// A scan returned a sequence number no recorded write produced.
    UnknownWrite {
        /// The scanning process.
        scanner: usize,
        /// The slot (writer pid) the value came from.
        slot: usize,
        /// The unexplained sequence number.
        seq: u64,
    },
    /// A scan returned a value whose register store happened after the scan
    /// completed.
    FutureValue {
        /// The scanning process.
        scanner: usize,
        /// The slot the value came from.
        slot: usize,
        /// The offending sequence number.
        seq: u64,
    },
    /// A scan returned a value superseded by a write that completed before
    /// the scan began (violates P1).
    StaleValue {
        /// The scanning process.
        scanner: usize,
        /// The slot the value came from.
        slot: usize,
        /// The returned (stale) sequence number.
        seq: u64,
        /// A newer write of the same slot that fully preceded the scan.
        superseded_by: u64,
    },
    /// No point within the scan's interval has memory contents equal to the
    /// returned view (violates P2/linearizability).
    NotInstantaneous {
        /// The scanning process.
        scanner: usize,
        /// Index of this scan among the scanner's scans (0-based).
        scan_index: usize,
    },
    /// Two scans returned incomparable views (violates P3).
    IncomparableScans {
        /// (scanner pid, scan index) of the first scan.
        a: (usize, usize),
        /// (scanner pid, scan index) of the second scan.
        b: (usize, usize),
    },
}

/// Outcome of checking one history.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Completed scans checked.
    pub scans: usize,
    /// Completed updates seen.
    pub updates: usize,
    /// All violations found (empty = properties hold on this history).
    pub violations: Vec<SnapshotViolation>,
}

impl CheckReport {
    /// True if no violation was found.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

#[derive(Debug, Clone)]
struct WriteRec {
    /// Step index of the register store (−1 for the initial write; `None`
    /// if the process crashed between `upd:start` and the store).
    store: Option<i64>,
    /// Step of the `upd:end` note (`None` if the process crashed first).
    end: Option<i64>,
}

#[derive(Debug, Clone)]
struct ScanRec {
    pid: usize,
    index: usize,
    start: i64,
    end: i64,
    seqs: Vec<u64>,
}

/// Streaming checker: feed history events one at a time, then [`finish`](Self::finish).
///
/// [`check_history`] is the one-shot wrapper, and its only in-tree
/// caller. The systematic explorer does not feed this type: `bprc-sim`
/// does not depend on `bprc-snapshot`, so an explorer's check closure
/// calls [`check_history`] on each run's recorded history. The
/// incremental form is for a caller that streams events as they arrive
/// instead of buffering a whole history, such as a checker of free-thread
/// runs read from the flight rings, and for checkpointing a live run
/// mid-flight ([`IncrementalChecker::finish`] borrows, so it can be called
/// repeatedly as events keep arriving).
#[derive(Debug, Clone)]
pub struct IncrementalChecker {
    /// writes[pid][seq] -> WriteRec; seq 0 is the implicit initial write.
    writes: Vec<HashMap<u64, WriteRec>>,
    reg_to_pid: HashMap<usize, usize>,
    scans: Vec<ScanRec>,
    open_scan_start: Vec<Option<i64>>,
    scan_counts: Vec<usize>,
}

impl IncrementalChecker {
    /// Starts a checker for the memory layout described by `meta` (see
    /// [`ScannableMemory::meta`](crate::memory::ScannableMemory::meta)).
    pub fn new(meta: &SnapshotMeta) -> Self {
        let n = meta.value_regs.len();
        let mut writes: Vec<HashMap<u64, WriteRec>> = vec![HashMap::new(); n];
        for w in writes.iter_mut() {
            w.insert(
                0,
                WriteRec {
                    store: Some(-1),
                    end: Some(-1),
                },
            );
        }
        IncrementalChecker {
            writes,
            reg_to_pid: meta
                .value_regs
                .iter()
                .enumerate()
                .map(|(pid, &reg)| (reg, pid))
                .collect(),
            scans: Vec::new(),
            open_scan_start: vec![None; n],
            scan_counts: vec![0; n],
        }
    }

    /// Consumes one history event. Events must arrive in history order.
    pub fn feed(&mut self, ev: &Event) {
        match ev {
            Event::Note { step, pid, note } => match note.label {
                labels::UPD_START => {
                    let seq = note.data[0];
                    self.writes[*pid].insert(
                        seq,
                        WriteRec {
                            store: None,
                            end: None,
                        },
                    );
                }
                labels::UPD_END => {
                    let seq = note.data[0];
                    if let Some(rec) = self.writes[*pid].get_mut(&seq) {
                        rec.end = Some(*step as i64);
                    }
                }
                labels::SCAN_START => {
                    self.open_scan_start[*pid] = Some(*step as i64);
                }
                labels::SCAN_END => {
                    if let Some(start) = self.open_scan_start[*pid].take() {
                        let index = self.scan_counts[*pid];
                        self.scan_counts[*pid] += 1;
                        self.scans.push(ScanRec {
                            pid: *pid,
                            index,
                            start,
                            end: *step as i64,
                            seqs: note.data.clone(),
                        });
                    }
                }
                _ => {}
            },
            Event::Op {
                step,
                pid: _,
                kind: OpKind::Write,
                reg,
                tag,
            } => {
                if let Some(&writer) = self.reg_to_pid.get(reg) {
                    if let Some(rec) = self.writes[writer].get_mut(tag) {
                        rec.store = Some(*step as i64);
                    }
                }
            }
            _ => {}
        }
    }

    /// Verifies P1–P3 over everything fed so far. Non-consuming: callers
    /// may keep feeding and finish again later.
    pub fn finish(&self) -> CheckReport {
        let mut report = CheckReport {
            scans: self.scans.len(),
            updates: self
                .writes
                .iter()
                .map(|m| m.values().filter(|r| r.store.is_some()).count() - 1)
                .sum(),
            violations: Vec::new(),
        };

        // P1 + P2 per scan.
        for scan in &self.scans {
            let mut lo = i64::MIN; // latest store among returned values
            let mut hi = i64::MAX; // earliest superseding store
            let mut complete = true;
            for (slot, &seq) in scan.seqs.iter().enumerate() {
                let Some(rec) = self.writes[slot].get(&seq) else {
                    report.violations.push(SnapshotViolation::UnknownWrite {
                        scanner: scan.pid,
                        slot,
                        seq,
                    });
                    complete = false;
                    continue;
                };
                // Future check: the store must exist and precede the scan's end.
                match rec.store {
                    Some(s) if s < scan.end => lo = lo.max(s),
                    _ => {
                        report.violations.push(SnapshotViolation::FutureValue {
                            scanner: scan.pid,
                            slot,
                            seq,
                        });
                        complete = false;
                        continue;
                    }
                }
                // Stale check: no later write of this slot completed before the
                // scan started.
                if let Some((&sup, _)) = self.writes[slot]
                    .iter()
                    .find(|(&s2, r2)| s2 > seq && r2.end.is_some_and(|e| e < scan.start))
                {
                    report.violations.push(SnapshotViolation::StaleValue {
                        scanner: scan.pid,
                        slot,
                        seq,
                        superseded_by: sup,
                    });
                    complete = false;
                }
                // Superseding store bounds the linearization window from above.
                if let Some(next_store) = self.writes[slot]
                    .iter()
                    .filter(|(&s2, r2)| s2 > seq && r2.store.is_some())
                    .map(|(_, r2)| r2.store.unwrap())
                    .min()
                {
                    hi = hi.min(next_store);
                }
            }
            if complete {
                // P2: need an integer t with
                //   max(lo, start−1) <= t <= min(hi−1, end−1)
                // where "content after op t" equals the view.
                let t_min = lo.max(scan.start - 1);
                let t_max = (hi - 1).min(scan.end - 1);
                if t_min > t_max {
                    report.violations.push(SnapshotViolation::NotInstantaneous {
                        scanner: scan.pid,
                        scan_index: scan.index,
                    });
                }
            }
        }

        // P3: pairwise comparability of views.
        for i in 0..self.scans.len() {
            for j in (i + 1)..self.scans.len() {
                let (a, b) = (&self.scans[i], &self.scans[j]);
                if a.seqs.len() != b.seqs.len() {
                    continue;
                }
                let le = a.seqs.iter().zip(&b.seqs).all(|(x, y)| x <= y);
                let ge = a.seqs.iter().zip(&b.seqs).all(|(x, y)| x >= y);
                if !le && !ge {
                    report
                        .violations
                        .push(SnapshotViolation::IncomparableScans {
                            a: (a.pid, a.index),
                            b: (b.pid, b.index),
                        });
                }
            }
        }

        report
    }
}

/// Checks the snapshot properties on a recorded lockstep history.
///
/// `meta` maps register ids to writer pids (see
/// [`ScannableMemory::meta`](crate::memory::ScannableMemory::meta)).
/// Incomplete scans/updates (the process crashed mid-operation) are ignored,
/// except that an incomplete update's *store*, if it landed, still counts as
/// memory content for P2 and staleness for P1 — exactly as a real crashed
/// write would.
///
/// Under weak memory (`WeakMode::Tso`/`WeakMode::Pso` in
/// `bprc_sim::weakmem`) a write *issues* at its `Event::Op` step but only
/// becomes visible to other processes at its [`Event::Flush`] step, so the
/// store's linearization point is the flush: every write is re-timed to its
/// matching flush before the checker sees it. Matching is a per-`(pid,
/// reg)` FIFO: both TSO and PSO land same-register stores from one process
/// in issue order, so front-of-queue pairing is exact. A write with no
/// flush (its buffer was dropped by a crash) never became visible and is
/// withheld from the checker entirely — its `upd:start` record keeps
/// `store: None`, the same shape as a crash between `upd:start` and the
/// store under SC. A history with no flush events (every SC history) is fed
/// through as recorded, after one scan for a flush.
pub fn check_history(history: &History, meta: &SnapshotMeta) -> CheckReport {
    let events = history.events();
    let mut checker = IncrementalChecker::new(meta);
    if !events.iter().any(|ev| matches!(ev, Event::Flush { .. })) {
        for ev in events {
            checker.feed(ev);
        }
        return checker.finish();
    }
    let mut pending: HashMap<(usize, usize), VecDeque<usize>> = HashMap::new();
    let mut vis_step: HashMap<usize, u64> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            Event::Op {
                pid,
                kind: OpKind::Write,
                reg,
                ..
            } => {
                pending.entry((*pid, *reg)).or_default().push_back(i);
            }
            Event::Flush { step, pid, reg } => {
                if let Some(idx) = pending.get_mut(&(*pid, *reg)).and_then(|q| q.pop_front()) {
                    vis_step.insert(idx, *step);
                }
            }
            _ => {}
        }
    }
    for (i, ev) in events.iter().enumerate() {
        match ev {
            &Event::Op {
                pid,
                kind: OpKind::Write,
                reg,
                tag,
                ..
            } => {
                if let Some(&fstep) = vis_step.get(&i) {
                    checker.feed(&Event::Op {
                        step: fstep,
                        pid,
                        kind: OpKind::Write,
                        reg,
                        tag,
                    });
                }
            }
            other => checker.feed(other),
        }
    }
    checker.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bprc_sim::history::{Annotation, Event, History, OpKind};

    /// Builds the meta for n processes with value regs 100, 101, ...
    fn meta(n: usize) -> SnapshotMeta {
        SnapshotMeta {
            value_regs: (100..100 + n).collect(),
        }
    }

    fn note(step: u64, pid: usize, label: &'static str, data: Vec<u64>) -> Event {
        Event::Note {
            step,
            pid,
            note: Annotation::new(label, data),
        }
    }

    fn store(step: u64, pid: usize, reg: usize, seq: u64) -> Event {
        Event::Op {
            step,
            pid,
            kind: OpKind::Write,
            reg,
            tag: seq,
        }
    }

    /// A full update by `pid` of its own register occupying steps
    /// [s, s] with notes around it.
    fn upd(events: &mut Vec<Event>, step: u64, pid: usize, seq: u64) {
        events.push(note(step, pid, labels::UPD_START, vec![seq]));
        events.push(store(step, pid, 100 + pid, seq));
        events.push(note(step + 1, pid, labels::UPD_END, vec![seq]));
    }

    #[test]
    fn clean_history_passes() {
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1);
        upd(&mut ev, 1, 1, 1);
        ev.push(note(2, 0, labels::SCAN_START, vec![]));
        ev.push(note(5, 0, labels::SCAN_END, vec![1, 1]));
        let r = check_history(&History::from_events(ev), &meta(2));
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.scans, 1);
        assert_eq!(r.updates, 2);
    }

    #[test]
    fn stale_value_is_flagged() {
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1);
        upd(&mut ev, 1, 0, 2); // seq 2 completes at step 2
        ev.push(note(5, 1, labels::SCAN_START, vec![]));
        // Scan starts at 5 but returns seq 1 for slot 0: stale.
        ev.push(note(8, 1, labels::SCAN_END, vec![1, 0]));
        let r = check_history(&History::from_events(ev), &meta(2));
        assert!(matches!(
            r.violations[0],
            SnapshotViolation::StaleValue {
                scanner: 1,
                slot: 0,
                seq: 1,
                superseded_by: 2
            }
        ));
    }

    #[test]
    fn future_value_is_flagged() {
        let mut ev = Vec::new();
        ev.push(note(0, 1, labels::SCAN_START, vec![]));
        ev.push(note(2, 1, labels::SCAN_END, vec![1, 0]));
        // The write that produced seq 1 only happens later.
        upd(&mut ev, 5, 0, 1);
        let r = check_history(&History::from_events(ev), &meta(2));
        assert!(matches!(
            r.violations[0],
            SnapshotViolation::FutureValue {
                scanner: 1,
                slot: 0,
                seq: 1
            }
        ));
    }

    #[test]
    fn unknown_seq_is_flagged() {
        let ev = vec![
            note(0, 0, labels::SCAN_START, vec![]),
            note(2, 0, labels::SCAN_END, vec![0, 7]),
        ];
        let r = check_history(&History::from_events(ev), &meta(2));
        assert!(matches!(
            r.violations[0],
            SnapshotViolation::UnknownWrite {
                scanner: 0,
                slot: 1,
                seq: 7
            }
        ));
    }

    #[test]
    fn torn_view_is_not_instantaneous() {
        // Writer 0: seq1 stores at step 0, seq2 at step 10.
        // Writer 1: seq1 stores at step 5.
        // A scan inside [6..9] returning (seq1 of w0, seq0 of w1) is torn:
        // at any t in the window, w1 already shows seq1.
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1);
        upd(&mut ev, 5, 1, 1);
        ev.push(note(6, 2, labels::SCAN_START, vec![]));
        ev.push(note(9, 2, labels::SCAN_END, vec![1, 0, 0]));
        upd(&mut ev, 10, 0, 2);
        let r = check_history(&History::from_events(ev), &meta(3));
        assert!(
            r.violations
                .iter()
                .any(|v| matches!(v, SnapshotViolation::NotInstantaneous { scanner: 2, .. })),
            "the view mixes epochs: {:?}",
            r.violations
        );
    }

    #[test]
    fn concurrent_old_value_is_instantaneous() {
        // Writer 0 stores seq1 at step 3, *during* the scan [1..6]. The scan
        // may legally return seq0 (linearize before step 3) — not a
        // violation.
        let mut ev = Vec::new();
        ev.push(note(1, 1, labels::SCAN_START, vec![]));
        upd(&mut ev, 3, 0, 1);
        ev.push(note(6, 1, labels::SCAN_END, vec![0, 0]));
        let r = check_history(&History::from_events(ev), &meta(2));
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn incomparable_scans_flagged() {
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1);
        upd(&mut ev, 1, 1, 1);
        // Scan A sees (1,0) — claims to have run before writer 1's update;
        // scan B sees (0,1). Incomparable.
        ev.push(note(2, 0, labels::SCAN_START, vec![]));
        ev.push(note(3, 0, labels::SCAN_END, vec![1, 0]));
        ev.push(note(4, 1, labels::SCAN_START, vec![]));
        ev.push(note(5, 1, labels::SCAN_END, vec![0, 1]));
        let r = check_history(&History::from_events(ev), &meta(2));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, SnapshotViolation::IncomparableScans { .. })));
    }

    #[test]
    fn incomplete_scan_is_ignored() {
        let ev = vec![note(0, 0, labels::SCAN_START, vec![])];
        let r = check_history(&History::from_events(ev), &meta(1));
        assert_eq!(r.scans, 0);
        assert!(r.ok());
    }

    fn flush(step: u64, pid: usize, reg: usize) -> Event {
        Event::Flush { step, pid, reg }
    }

    /// Under weak memory a scan must not return a value whose store was
    /// still buffered when the scan ended: the store linearizes at its
    /// flush, not at its issue step.
    #[test]
    fn weak_checker_times_stores_at_their_flush() {
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1); // issue at step 0 ...
        ev.push(note(2, 1, labels::SCAN_START, vec![]));
        ev.push(note(4, 1, labels::SCAN_END, vec![1, 0]));
        let m = meta(2);
        assert!(
            check_history(&History::from_events(ev.clone()), &m).ok(),
            "without a flush the store is visible at its issue step"
        );
        ev.push(flush(10, 0, 100)); // ... but only visible at step 10
        let r = check_history(&History::from_events(ev), &m);
        assert!(matches!(
            r.violations[0],
            SnapshotViolation::FutureValue {
                scanner: 1,
                slot: 0,
                seq: 1
            }
        ));
    }

    /// A store whose buffer died with its process never became visible:
    /// scans returning it are flagged, scans skipping it are clean.
    #[test]
    fn unflushed_crashed_store_is_never_visible() {
        let ev = vec![
            note(0, 0, labels::UPD_START, vec![1]),
            store(0, 0, 100, 1), // buffered, then the buffer is dropped
            flush(1, 1, 101),    // unrelated flush keeps the history weak
            note(2, 1, labels::SCAN_START, vec![]),
            note(4, 1, labels::SCAN_END, vec![0, 0]),
        ];
        let history = History::from_events(ev);
        let r = check_history(&history, &meta(2));
        assert!(
            r.ok(),
            "old value is the only visible one: {:?}",
            r.violations
        );

        let ev2 = vec![
            note(0, 0, labels::UPD_START, vec![1]),
            store(0, 0, 100, 1),
            flush(1, 1, 101),
            note(2, 1, labels::SCAN_START, vec![]),
            note(4, 1, labels::SCAN_END, vec![1, 0]),
        ];
        let r2 = check_history(&History::from_events(ev2), &meta(2));
        assert!(
            matches!(r2.violations[0], SnapshotViolation::FutureValue { .. }),
            "a dropped store must read as never-written: {:?}",
            r2.violations
        );
    }

    /// Flushes pair with writes FIFO per (pid, reg).
    #[test]
    fn weak_checker_matches_flushes_fifo() {
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1);
        ev.push(flush(2, 0, 100)); // FIFO: pairs with seq 1
        ev.push(note(3, 0, labels::UPD_START, vec![2]));
        ev.push(store(3, 0, 100, 2));
        ev.push(note(5, 1, labels::SCAN_START, vec![]));
        ev.push(note(6, 1, labels::SCAN_END, vec![1, 0]));
        ev.push(flush(9, 0, 100)); // FIFO: pairs with seq 2
        ev.push(note(10, 0, labels::UPD_END, vec![2]));
        let weak_hist = History::from_events(ev);
        let m = meta(2);
        let r = check_history(&weak_hist, &m);
        assert!(
            r.ok(),
            "seq 2 is still buffered during the scan: {:?}",
            r.violations
        );
    }

    /// The incremental checker is checkpointable: finishing mid-stream sees
    /// the scans fed so far, and the final report equals the one-shot
    /// `check_history` on the same events.
    #[test]
    fn incremental_checkpoints_match_one_shot() {
        let mut ev = Vec::new();
        upd(&mut ev, 0, 0, 1);
        upd(&mut ev, 1, 0, 2);
        ev.push(note(5, 1, labels::SCAN_START, vec![]));
        ev.push(note(8, 1, labels::SCAN_END, vec![1, 0])); // stale
        ev.push(note(9, 1, labels::SCAN_START, vec![]));
        ev.push(note(10, 1, labels::SCAN_END, vec![2, 0])); // fine
        let history = History::from_events(ev);
        let m = meta(2);

        let mut inc = IncrementalChecker::new(&m);
        let mut mid: Option<CheckReport> = None;
        for e in history.events() {
            inc.feed(e);
            let report = inc.finish();
            if report.scans == 1 && mid.is_none() {
                mid = Some(report);
            }
        }
        let mid = mid.expect("first scan completes mid-stream");
        assert_eq!(mid.scans, 1);
        assert_eq!(mid.violations.len(), 1, "{:?}", mid.violations);

        let full = inc.finish();
        let one_shot = check_history(&history, &m);
        assert_eq!(full.scans, one_shot.scans);
        assert_eq!(full.updates, one_shot.updates);
        assert_eq!(full.violations, one_shot.violations);
    }
}
