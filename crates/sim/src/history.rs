//! Operation histories and an offline per-object linearizability checker.
//!
//! The online [`crate::ConsistencyChecker`] exploits the lock manager's
//! serialization; this module is the *independent* second opinion: it
//! records every completed operation with its real-time interval and checks
//! afterwards — using nothing but invocation/response times and timestamps
//! — that each object behaved like an atomic register:
//!
//! 1. committed writes, ordered by timestamp, must not contradict real time
//!    (if `w1.ts < w2.ts` then `w2` must not respond before `w1` is
//!    invoked);
//! 2. a read must not return a write that had not yet been invoked when the
//!    read responded;
//! 3. a read must not miss a write that had completed before the read was
//!    invoked (it may return that write or any newer one).

use crate::message::{ObjectId, OpId};
use crate::time::SimTime;
use arbitree_core::Timestamp;
use std::fmt;

/// The kind of a completed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryKind {
    /// A read that returned the value stamped `ts`.
    Read,
    /// A write that committed with timestamp `ts`.
    Write,
}

/// One completed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEvent {
    /// The operation.
    pub op: OpId,
    /// Read or write.
    pub kind: HistoryKind,
    /// The object.
    pub obj: ObjectId,
    /// Invocation (start) time.
    pub invoked: SimTime,
    /// Response (completion) time.
    pub responded: SimTime,
    /// The timestamp read or written.
    pub ts: Timestamp,
}

/// A violation found by the offline checker.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryViolation {
    /// The operation at fault.
    pub op: OpId,
    /// The object.
    pub obj: ObjectId,
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for HistoryViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}: {}", self.op, self.obj, self.reason)
    }
}

/// A recorded execution history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    events: Vec<HistoryEvent>,
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends a completed operation.
    pub fn record(&mut self, event: HistoryEvent) {
        self.events.push(event);
    }

    /// All recorded events, in completion order.
    pub fn events(&self) -> &[HistoryEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Runs the offline per-object atomic-register check, returning every
    /// violation found (empty = linearizable per object), grouped by
    /// object in ascending order.
    ///
    /// One stable sort by object groups the events; each group keeps
    /// recording order, so the checks run in one pass per object.
    pub fn check_linearizable(&self) -> Vec<HistoryViolation> {
        let mut by_obj: Vec<&HistoryEvent> = self.events.iter().collect();
        by_obj.sort_by_key(|e| e.obj);
        let mut violations = Vec::new();
        for events in by_obj.chunk_by(|a, b| a.obj == b.obj) {
            check_object(events, &mut violations);
        }
        violations
    }
}

/// Checks one object's events (in recording order) as an atomic register.
fn check_object(events: &[&HistoryEvent], violations: &mut Vec<HistoryViolation>) {
    let obj = events[0].obj;
    let mut writes: Vec<&HistoryEvent> = events
        .iter()
        .copied()
        .filter(|e| e.kind == HistoryKind::Write)
        .collect();
    writes.sort_by_key(|w| w.ts);

    // Duplicate write timestamps are themselves a violation.
    for pair in writes.windows(2) {
        if pair[0].ts == pair[1].ts {
            violations.push(HistoryViolation {
                op: pair[1].op,
                obj,
                reason: format!("duplicate write timestamp {}", pair[1].ts),
            });
        }
    }

    // Rule 1: timestamp order must not contradict real time.
    for (i, w1) in writes.iter().enumerate() {
        for w2 in &writes[i + 1..] {
            if w2.responded < w1.invoked {
                violations.push(HistoryViolation {
                    op: w2.op,
                    obj,
                    reason: format!(
                        "write {} precedes {} in time but follows it in timestamp order",
                        w2.ts, w1.ts
                    ),
                });
            }
        }
    }

    for read in events.iter().filter(|e| e.kind == HistoryKind::Read) {
        // The writes stamped at or below the read's timestamp form a
        // prefix of `writes`; the first one after it is the earliest
        // write with a newer stamp.
        let newer = writes.partition_point(|w| w.ts <= read.ts);
        // Rule 2: a read cannot return a write invoked after the read
        // responded. ZERO means "initial value" — always fine.
        if read.ts != Timestamp::ZERO {
            let first_eq = writes[..newer].partition_point(|w| w.ts < read.ts);
            match writes[first_eq..newer].first() {
                None => violations.push(HistoryViolation {
                    op: read.op,
                    obj,
                    reason: format!("returned {} which no committed write produced", read.ts),
                }),
                Some(w) => {
                    if w.invoked > read.responded {
                        violations.push(HistoryViolation {
                            op: read.op,
                            obj,
                            reason: format!("returned {} before that write was invoked", read.ts),
                        });
                    }
                }
            }
        }
        // Rule 3: must not miss a write completed before invocation.
        for w in &writes[newer..] {
            if w.responded < read.invoked {
                violations.push(HistoryViolation {
                    op: read.op,
                    obj,
                    reason: format!(
                        "returned {} but write {} had already completed",
                        read.ts, w.ts
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arbitree_quorum::SiteId;

    fn ts(v: u64) -> Timestamp {
        Timestamp::new(v, SiteId::new(0))
    }

    fn ev(op: u64, kind: HistoryKind, inv: u64, resp: u64, t: Timestamp) -> HistoryEvent {
        HistoryEvent {
            op: OpId(op),
            kind,
            obj: ObjectId(0),
            invoked: SimTime::from_micros(inv),
            responded: SimTime::from_micros(resp),
            ts: t,
        }
    }

    #[test]
    fn clean_history_passes() {
        let mut h = History::new();
        h.record(ev(1, HistoryKind::Read, 0, 10, Timestamp::ZERO));
        h.record(ev(2, HistoryKind::Write, 20, 30, ts(1)));
        h.record(ev(3, HistoryKind::Read, 40, 50, ts(1)));
        h.record(ev(4, HistoryKind::Write, 60, 70, ts(2)));
        h.record(ev(5, HistoryKind::Read, 80, 90, ts(2)));
        assert!(h.check_linearizable().is_empty());
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn stale_read_detected() {
        let mut h = History::new();
        h.record(ev(1, HistoryKind::Write, 0, 10, ts(1)));
        // Read starts at 20, after the write completed, but returns ZERO.
        h.record(ev(2, HistoryKind::Read, 20, 30, Timestamp::ZERO));
        let v = h.check_linearizable();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].op, OpId(2));
        assert!(v[0].reason.contains("already completed"));
    }

    #[test]
    fn concurrent_read_may_return_either() {
        let mut h = History::new();
        // Write spans 10..50; a concurrent read (20..30) may see old or new.
        h.record(ev(1, HistoryKind::Write, 10, 50, ts(1)));
        h.record(ev(2, HistoryKind::Read, 20, 30, Timestamp::ZERO));
        h.record(ev(3, HistoryKind::Read, 25, 35, ts(1)));
        assert!(h.check_linearizable().is_empty());
    }

    #[test]
    fn read_from_the_future_detected() {
        let mut h = History::new();
        // Read responds before the write is even invoked.
        h.record(ev(1, HistoryKind::Read, 0, 5, ts(1)));
        h.record(ev(2, HistoryKind::Write, 10, 20, ts(1)));
        let v = h.check_linearizable();
        assert_eq!(v.len(), 1);
        assert!(v[0].reason.contains("before that write was invoked"));
    }

    #[test]
    fn phantom_read_detected() {
        let mut h = History::new();
        h.record(ev(1, HistoryKind::Read, 0, 5, ts(9)));
        let v = h.check_linearizable();
        assert_eq!(v.len(), 1);
        assert!(v[0].reason.contains("no committed write"));
    }

    #[test]
    fn timestamp_real_time_contradiction_detected() {
        let mut h = History::new();
        // w2 (ts 2) completed entirely before w1 (ts 1) was invoked.
        h.record(ev(1, HistoryKind::Write, 100, 110, ts(1)));
        h.record(ev(2, HistoryKind::Write, 0, 10, ts(2)));
        let v = h.check_linearizable();
        assert_eq!(v.len(), 1);
        assert!(v[0].reason.contains("timestamp order"));
    }

    #[test]
    fn duplicate_write_timestamp_detected() {
        let mut h = History::new();
        h.record(ev(1, HistoryKind::Write, 0, 10, ts(1)));
        h.record(ev(2, HistoryKind::Write, 20, 30, ts(1)));
        let v = h.check_linearizable();
        assert!(v.iter().any(|x| x.reason.contains("duplicate")));
    }

    #[test]
    fn objects_checked_independently() {
        let mut h = History::new();
        h.record(ev(1, HistoryKind::Write, 0, 10, ts(1)));
        let mut other = ev(2, HistoryKind::Read, 20, 30, Timestamp::ZERO);
        other.obj = ObjectId(1);
        h.record(other); // different object: not stale
        assert!(h.check_linearizable().is_empty());
    }

    /// The per-object checker before its one-pass rewrite: one filter of
    /// the whole history per distinct object. Kept as the reference model
    /// for [`History::check_linearizable`].
    fn reference_check(h: &History) -> Vec<HistoryViolation> {
        let mut violations = Vec::new();
        let mut objects: Vec<ObjectId> = h.events.iter().map(|e| e.obj).collect();
        objects.sort();
        objects.dedup();
        for obj in objects {
            let mut writes: Vec<&HistoryEvent> = h
                .events
                .iter()
                .filter(|e| e.obj == obj && e.kind == HistoryKind::Write)
                .collect();
            writes.sort_by_key(|w| w.ts);
            for pair in writes.windows(2) {
                if pair[0].ts == pair[1].ts {
                    violations.push(HistoryViolation {
                        op: pair[1].op,
                        obj,
                        reason: format!("duplicate write timestamp {}", pair[1].ts),
                    });
                }
            }
            for (i, w1) in writes.iter().enumerate() {
                for w2 in &writes[i + 1..] {
                    if w2.responded < w1.invoked {
                        violations.push(HistoryViolation {
                            op: w2.op,
                            obj,
                            reason: format!(
                                "write {} precedes {} in time but follows it in timestamp order",
                                w2.ts, w1.ts
                            ),
                        });
                    }
                }
            }
            for read in h
                .events
                .iter()
                .filter(|e| e.obj == obj && e.kind == HistoryKind::Read)
            {
                if read.ts != Timestamp::ZERO {
                    match writes.iter().find(|w| w.ts == read.ts) {
                        None => violations.push(HistoryViolation {
                            op: read.op,
                            obj,
                            reason: format!(
                                "returned {} which no committed write produced",
                                read.ts
                            ),
                        }),
                        Some(w) => {
                            if w.invoked > read.responded {
                                violations.push(HistoryViolation {
                                    op: read.op,
                                    obj,
                                    reason: format!(
                                        "returned {} before that write was invoked",
                                        read.ts
                                    ),
                                });
                            }
                        }
                    }
                }
                for w in &writes {
                    if w.responded < read.invoked && read.ts < w.ts {
                        violations.push(HistoryViolation {
                            op: read.op,
                            obj,
                            reason: format!(
                                "returned {} but write {} had already completed",
                                read.ts, w.ts
                            ),
                        });
                    }
                }
            }
        }
        violations
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random histories over a few objects, with timestamps drawn from
        /// a small range so that duplicate write stamps, stale reads and
        /// reads of stamps no write produced (phantoms) are all common.
        #[test]
        fn one_pass_check_matches_reference(
            raw in proptest::collection::vec(
                (0u32..4, proptest::prelude::any::<bool>(), 0u64..100, 0u64..40, 0u64..6, 0u32..2),
                0..120,
            ),
        ) {
            let mut h = History::new();
            for (i, (obj, is_write, inv, dur, version, sid)) in raw.into_iter().enumerate() {
                h.record(HistoryEvent {
                    op: OpId(i as u64),
                    kind: if is_write { HistoryKind::Write } else { HistoryKind::Read },
                    obj: ObjectId(obj),
                    invoked: SimTime::from_micros(inv),
                    responded: SimTime::from_micros(inv + dur),
                    ts: Timestamp::new(version, SiteId::new(sid)),
                });
            }
            proptest::prop_assert_eq!(h.check_linearizable(), reference_check(&h));
        }
    }

    #[test]
    fn violation_display() {
        let v = HistoryViolation {
            op: OpId(3),
            obj: ObjectId(1),
            reason: "test".into(),
        };
        assert_eq!(v.to_string(), "op3 on obj1: test");
    }
}
