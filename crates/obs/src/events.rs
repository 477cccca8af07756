//! A bounded ring buffer of structured job-lifecycle events.
//!
//! A resident service emits a small, fixed vocabulary of events — a job was
//! admitted, rejected, started, finished, failed, or a rank stalled — and a
//! week-long service must not grow memory with them. [`EventLog`] keeps the
//! newest `capacity` events in a [`Ring`], stamps each with a monotone
//! sequence number (so a consumer can tell how many it missed after a wrap)
//! and a timestamp relative to the log's creation.

use crate::ring::Ring;
use std::time::Instant;

/// How loud an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Normal lifecycle progress.
    Info,
    /// Unusual but recovered (a rejection, a drifted job).
    Warn,
    /// Something was lost (a failed job, a stalled rank).
    Error,
}

impl Severity {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            Severity::Info => 0,
            Severity::Warn => 1,
            Severity::Error => 2,
        }
    }

    /// Inverse of [`Severity::code`].
    pub fn from_code(c: u8) -> Option<Severity> {
        match c {
            0 => Some(Severity::Info),
            1 => Some(Severity::Warn),
            2 => Some(Severity::Error),
            _ => None,
        }
    }

    /// Short display tag (`info` / `warn` / `error`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// The job-lifecycle vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Admission control accepted the job.
    Admitted,
    /// Admission control refused the job (the detail carries the reason).
    Rejected,
    /// The first rank engine picked the job up.
    Started,
    /// The job completed; the detail carries its comm accounting.
    Done,
    /// The mesh failed the job.
    Failed,
    /// A rank's liveness watchdog fired while the job was in flight.
    Stalled,
}

impl EventKind {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            EventKind::Admitted => 0,
            EventKind::Rejected => 1,
            EventKind::Started => 2,
            EventKind::Done => 3,
            EventKind::Failed => 4,
            EventKind::Stalled => 5,
        }
    }

    /// Inverse of [`EventKind::code`].
    pub fn from_code(c: u8) -> Option<EventKind> {
        match c {
            0 => Some(EventKind::Admitted),
            1 => Some(EventKind::Rejected),
            2 => Some(EventKind::Started),
            3 => Some(EventKind::Done),
            4 => Some(EventKind::Failed),
            5 => Some(EventKind::Stalled),
            _ => None,
        }
    }

    /// Short display tag (`admitted`, `rejected`, …).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admitted => "admitted",
            EventKind::Rejected => "rejected",
            EventKind::Started => "started",
            EventKind::Done => "done",
            EventKind::Failed => "failed",
            EventKind::Stalled => "stalled",
        }
    }
}

/// One structured lifecycle event.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Monotone per-log sequence number (never reused, survives wraps).
    pub seq: u64,
    /// Seconds since the log was created.
    pub t: f64,
    /// How loud.
    pub severity: Severity,
    /// What happened.
    pub kind: EventKind,
    /// The job concerned, when one exists (rejections have none).
    pub job: Option<u32>,
    /// Free-form detail (reason, accounting, shape).
    pub detail: String,
}

/// A bounded, shareable event log: a [`Ring`] of [`ObsEvent`]s whose
/// lifetime index is the event's `seq`. Capacity `0` records nothing (but
/// still counts sequence numbers); the newest `capacity` events are
/// retained.
pub struct EventLog {
    started: Instant,
    ring: Ring<ObsEvent>,
}

impl EventLog {
    /// A log retaining the newest `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventLog {
        EventLog {
            started: Instant::now(),
            ring: Ring::with_capacity(capacity),
        }
    }

    /// Appends one event, evicting the oldest once full. Returns the
    /// event's sequence number.
    pub fn push(
        &self,
        severity: Severity,
        kind: EventKind,
        job: Option<u32>,
        detail: impl Into<String>,
    ) -> u64 {
        let t = self.started.elapsed().as_secs_f64();
        self.ring.push_with(|seq| ObsEvent {
            seq,
            t,
            severity,
            kind,
            job,
            detail: detail.into(),
        })
    }

    /// The newest `max` retained events, oldest first.
    pub fn tail(&self, max: usize) -> Vec<ObsEvent> {
        self.ring.tail(max)
    }

    /// Every retained event, oldest first (at most `capacity`).
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        self.ring.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(log: &EventLog, n: u64) {
        for i in 0..n {
            log.push(Severity::Info, EventKind::Admitted, Some(i as u32), "x");
        }
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let log = EventLog::with_capacity(3);
        push_n(&log, 5);
        let tail = log.snapshot();
        assert_eq!(log.ring.total(), 5);
        assert_eq!(log.ring.len(), 3);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "newest three, oldest first");
        assert_eq!(tail[0].job, Some(2));
    }

    #[test]
    fn tail_orders_oldest_first_and_bounds_by_max() {
        let log = EventLog::with_capacity(8);
        push_n(&log, 6);
        let tail = log.tail(2);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
        assert!(log.tail(0).is_empty());
        // monotone timestamps
        let all = log.snapshot();
        assert!(all.windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn capacity_zero_counts_but_retains_nothing() {
        let log = EventLog::with_capacity(0);
        assert_eq!(
            log.push(Severity::Error, EventKind::Failed, None, "boom"),
            0
        );
        assert_eq!(log.push(Severity::Info, EventKind::Done, Some(1), "ok"), 1);
        assert_eq!(log.ring.total(), 2);
        assert_eq!(log.ring.len(), 0);
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn capacity_one_keeps_exactly_the_last() {
        let log = EventLog::with_capacity(1);
        push_n(&log, 4);
        let tail = log.snapshot();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].seq, 3);
        assert_eq!(log.ring.capacity(), 1);
    }

    #[test]
    fn codes_roundtrip() {
        for sev in [Severity::Info, Severity::Warn, Severity::Error] {
            assert_eq!(Severity::from_code(sev.code()), Some(sev));
            assert!(!sev.name().is_empty());
        }
        assert_eq!(Severity::from_code(9), None);
        for kind in [
            EventKind::Admitted,
            EventKind::Rejected,
            EventKind::Started,
            EventKind::Done,
            EventKind::Failed,
            EventKind::Stalled,
        ] {
            assert_eq!(EventKind::from_code(kind.code()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(EventKind::from_code(77), None);
    }

    #[test]
    fn concurrent_pushes_never_lose_sequence_numbers() {
        let log = EventLog::with_capacity(64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| push_n(&log, 100));
            }
        });
        assert_eq!(log.ring.total(), 400);
        assert_eq!(log.ring.len(), 64);
        let snap = log.snapshot();
        // strictly increasing sequence numbers survive interleaving
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
