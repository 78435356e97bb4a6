//! Helpers shared by every [`Driver`](crate::Driver) implementation, and
//! the event-ordering machinery of the wall-clock loop.
//!
//! [`broker_status`] and [`in_process_links`] build the status-plane entry
//! of a hosted broker, so the report shape cannot diverge between the
//! simulator, the wall-clock loop and drivers outside this crate.
//!
//! The crate-private rest keeps the loop's ordering rules in one place:
//!
//! * `PendingQueue` — a due-time-ordered event heap whose sequence numbers
//!   break ties in insertion order;
//! * `FifoClamp` — the per-direction monotonic due-time clamp that keeps a
//!   link FIFO even when random delay sampling would reorder messages;
//! * `WallClock` — the `Instant` ↔ [`SimTime`] mapping of a run.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::time::{Duration, Instant};

use rebeca_broker::Message;
use rebeca_obs::{BrokerStatus, LinkStatus};
use rebeca_sim::{Incoming, Metrics, SimDuration, SimTime};

use crate::mobile_broker::{MobileBroker, HANDOFF_LATENCY_HISTOGRAM};

/// Builds the status-plane entry for one hosted broker from its live state
/// and the driver's metrics store — shared by every [`Driver`](crate::Driver)
/// implementation, so the report shape cannot diverge between the simulator
/// and a deployment.
///
/// `restart_epoch` is driver-defined (the WAL recovery generation in
/// process, `max(process epoch, generation)` under TCP); `links`
/// likewise (always-connected entries in process, live socket state under
/// TCP).  The hand-off latency histogram and the `mobility.*` counters come
/// from the driver-wide `metrics` store, which is per-process — and thus
/// per-broker — under the TCP deployment, and cluster-wide in process.
pub fn broker_status(
    index: u64,
    broker: &MobileBroker,
    metrics: &Metrics,
    now: SimTime,
    restart_epoch: u64,
    links: Vec<LinkStatus>,
) -> BrokerStatus {
    let log = broker.machine().log();
    BrokerStatus {
        broker: index,
        restart_epoch,
        generation: broker.machine().generation(),
        routing_entries: broker.routing_entries() as u64,
        routing_subgroups: broker.routing_subgroups() as u64,
        wal_depth: log.depth(),
        wal_since_checkpoint: log.since_checkpoint(),
        last_checkpoint_age_ms: broker
            .last_checkpoint_at()
            .map(|at| now.since(at).as_millis()),
        counterparts: broker.counterpart_count() as u64,
        buffered_deliveries: broker.buffered_deliveries() as u64,
        pending_relocations: broker.pending_relocations() as u64,
        retained_publications: broker.retained_publications(),
        retained_segments: broker.retained_segments(),
        oldest_retained_age_ms: broker
            .oldest_retained_ts()
            .map(|ts| (now.as_micros().saturating_sub(ts)) / 1_000),
        expired_leases: broker.expired_leases(),
        relocations: metrics
            .counters()
            .filter(|(name, _)| name.starts_with("mobility."))
            .map(|(name, value)| (name.to_string(), value))
            .collect(),
        handoff_latency_micros: metrics
            .histogram(HANDOFF_LATENCY_HISTOGRAM)
            .cloned()
            .unwrap_or_default(),
        links,
    }
}

/// The always-connected link entries of an in-process driver: one per
/// broker link, no heartbeat age (in-process links cannot drop).
pub fn in_process_links(broker: &MobileBroker) -> Vec<LinkStatus> {
    broker
        .core()
        .broker_links()
        .iter()
        .map(|peer| LinkStatus {
            peer: peer.0 as u64,
            connected: true,
            last_heartbeat_age_ms: None,
            down_since_ms: None,
            redial_attempts: 0,
        })
        .collect()
}

/// One event waiting to be delivered to a node, stamped with the absolute
/// driver time at which it becomes due and a tie-breaking sequence number.
#[derive(Debug)]
pub(crate) struct PendingEvent {
    /// Absolute driver time at which the event becomes due.
    pub(crate) due: SimTime,
    /// Tie-break: events with equal due times dispatch in insertion order.
    seq: u64,
    /// The event itself.
    pub(crate) event: Incoming<Message>,
}

impl PartialEq for PendingEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.due, self.seq) == (other.due, other.seq)
    }
}
impl Eq for PendingEvent {}
impl PartialOrd for PendingEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// A min-heap of [`PendingEvent`]s for one node.
///
/// The queue assigns its own monotonically increasing sequence numbers, so
/// two events with the same clamped due time always dispatch in the order
/// they were pushed — the FIFO tie-break the link contract requires.  The
/// counter travels *with* the queue, so events already queued always win
/// ties against events pushed later.
#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    heap: BinaryHeap<Reverse<PendingEvent>>,
    seq: u64,
}

impl PendingQueue {
    /// Pushes an event due at `due`, assigning the next sequence number.
    pub(crate) fn push(&mut self, due: SimTime, event: Incoming<Message>) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Reverse(PendingEvent { due, seq, event }));
    }

    /// The earliest due time, if any event is pending.
    pub(crate) fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(p)| p.due)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<PendingEvent> {
        if self.heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
            self.heap.pop().map(|Reverse(p)| p)
        } else {
            None
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// The per-direction monotonic due-time clamp: arrival times on one link
/// direction never decrease, which preserves the FIFO link contract of the
/// paper's system model (Section 2.1) even under random delay models.
#[derive(Debug)]
pub(crate) struct FifoClamp<K> {
    last_due: HashMap<K, SimTime>,
}

impl<K: Eq + Hash> FifoClamp<K> {
    /// Creates an empty clamp (every direction starts at time zero).
    pub(crate) fn new() -> Self {
        Self {
            last_due: HashMap::new(),
        }
    }

    /// Clamps `due` for the given direction: returns `max(due, last)` and
    /// records the result as the direction's new watermark.
    pub(crate) fn clamp(&mut self, key: K, due: SimTime) -> SimTime {
        let entry = self.last_due.entry(key).or_insert(SimTime::ZERO);
        let clamped = due.max(*entry);
        *entry = clamped;
        clamped
    }
}

/// The `Instant` ↔ [`SimTime`] mapping of one wall-clock run: `base` in sim
/// time corresponds to `started` on the wall clock, microsecond for
/// microsecond.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallClock {
    started: Instant,
    base: SimTime,
}

impl WallClock {
    /// Anchors sim time `base` at the current instant.
    pub(crate) fn anchored_now(base: SimTime) -> Self {
        Self {
            started: Instant::now(),
            base,
        }
    }

    /// The wall instant corresponding to a sim time (times before the base
    /// map to the anchor instant).
    pub(crate) fn to_wall(self, t: SimTime) -> Instant {
        self.started + Duration::from_micros(t.since(self.base).as_micros())
    }

    /// The sim time corresponding to a wall instant (instants before the
    /// anchor map to the base time).
    pub(crate) fn to_sim(self, i: Instant) -> SimTime {
        self.base + SimDuration::from_micros(i.duration_since(self.started).as_micros() as u64)
    }

    /// The sim time of the current instant.
    pub(crate) fn now(self) -> SimTime {
        self.to_sim(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(tag: u64) -> Incoming<Message> {
        Incoming::Timer { tag }
    }

    #[test]
    fn queue_orders_by_due_then_insertion() {
        let mut q = PendingQueue::default();
        q.push(SimTime::from_millis(5), timer(1));
        q.push(SimTime::from_millis(1), timer(2));
        q.push(SimTime::from_millis(5), timer(3));
        assert_eq!(q.len(), 3);
        assert_eq!(q.next_due(), Some(SimTime::from_millis(1)));
        let order: Vec<u64> = std::iter::from_fn(|| {
            q.pop_due(SimTime::from_secs(1)).map(|p| match p.event {
                Incoming::Timer { tag } => tag,
                _ => unreachable!(),
            })
        })
        .collect();
        // Equal due times (tags 1 and 3) dispatch in insertion order.
        assert_eq!(order, vec![2, 1, 3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = PendingQueue::default();
        q.push(SimTime::from_millis(10), timer(1));
        assert!(q.pop_due(SimTime::from_millis(9)).is_none());
        assert!(q.pop_due(SimTime::from_millis(10)).is_some());
    }

    #[test]
    fn carried_events_win_ties_against_later_pushes() {
        // The counter travels with the queue, so an event queued before a
        // move keeps its tie-break priority over one pushed at the same due
        // time later.
        fn hand_over(queue: PendingQueue) -> PendingQueue {
            queue // ownership moves; the counter travels
        }
        let mut q = PendingQueue::default();
        q.push(SimTime::from_millis(1), timer(1));
        let mut q = hand_over(q);
        q.push(SimTime::from_millis(1), timer(2));
        let first = q.pop_due(SimTime::from_secs(1)).unwrap();
        assert!(matches!(first.event, Incoming::Timer { tag: 1 }));
        let second = q.pop_due(SimTime::from_secs(1)).unwrap();
        assert!(matches!(second.event, Incoming::Timer { tag: 2 }));
    }

    #[test]
    fn clamp_is_monotone_per_direction() {
        let mut clamp: FifoClamp<u32> = FifoClamp::new();
        assert_eq!(
            clamp.clamp(7, SimTime::from_millis(10)),
            SimTime::from_millis(10)
        );
        // An earlier sampled arrival is clamped up to the watermark.
        assert_eq!(
            clamp.clamp(7, SimTime::from_millis(4)),
            SimTime::from_millis(10)
        );
        // Another direction is independent.
        assert_eq!(
            clamp.clamp(8, SimTime::from_millis(4)),
            SimTime::from_millis(4)
        );
    }

    #[test]
    fn wall_clock_roundtrips_times() {
        let clock = WallClock::anchored_now(SimTime::from_secs(1));
        let t = SimTime::from_secs(1) + SimDuration::from_millis(250);
        let back = clock.to_sim(clock.to_wall(t));
        assert_eq!(back, t);
        // Times before the base map to the anchor.
        assert_eq!(
            clock.to_wall(SimTime::ZERO),
            clock.to_wall(SimTime::from_secs(1))
        );
        assert!(clock.now() >= SimTime::from_secs(1));
    }
}
