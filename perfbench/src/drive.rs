//! The open-loop load generator: one producer session at broker 2 and one
//! consumer session at broker 0, driven through any
//! [`MobilitySystem`] — the multi-process TCP cluster for the live run and
//! the in-process simulated network for the traced replay.
//!
//! Publications are sent on a fixed schedule whatever the system does, and
//! every delivery is timed from its publication's *intended* send time, so
//! a stall is charged to every publication it delays.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use rebeca_broker::ClientId;
use rebeca_core::{MobilitySystem, Session};
use rebeca_sim::{SimDuration, SimTime};

use crate::ledger::{Ledger, Verdict};
use crate::spec::{Action, Key, Publication, Schedule, Spec, SLICE_US, WARMUP_US};

pub const CONSUMER: ClientId = ClientId::new(1);
pub const PRODUCER: ClientId = ClientId::new(2);
/// Broker indices of the two sessions (a line 0 - 1 - 2).
const CONSUMER_HOME: usize = 0;
const PRODUCER_HOME: usize = 2;
/// Wall-clock bound on subscribing and confirming every filter.
const SETTLE_LIMIT: Duration = Duration::from_secs(30);
/// Interval between probe rounds while filters are being confirmed.
const PROBE_ROUND_US: u64 = 50_000;
/// Longest the generator sleeps between checks.
const MAX_SLICE_US: u64 = 1_000;
/// A publication sent this close to a `move_to` call races the hand-over.
const HANDOVER_RACE_US: u64 = 20_000;
/// Set-up sends at most this many subscriptions, or probes, per pause.
const BURST: usize = 20;
const PROBE_BURST: usize = 10;
const BURST_PAUSE_US: u64 = 10_000;

/// Runs the system for `us` microseconds of driver time.
fn pause(sys: &mut MobilitySystem, us: u64) {
    let until = sys.now() + SimDuration::from_micros(us);
    while sys.now() < until {
        let now = sys.now();
        sys.run_until(until.min(now + SimDuration::from_micros(MAX_SLICE_US)));
    }
}

/// The two sessions of a run.
pub struct Clients {
    pub consumer: Session,
    pub producer: Session,
    /// Deliveries already read from the consumer's arrival-time record.
    cursor: usize,
}

/// Connects both sessions, subscribes every filter and publishes probes
/// until each filter has delivered one, i.e. every subscription path is
/// live.  Returns the sessions and the number of probe publications.
///
/// Subscriptions and probes are paced: a burst of frames larger than a
/// link's resend window (1,024 unacknowledged frames) fails the link for
/// good.  Each probe round stabs the unconfirmed filters with as few
/// publications as cover them all, since a probe delivers once per filter
/// it matches.
pub fn settle(sys: &mut MobilitySystem, spec: &Spec) -> Result<(Clients, u64), String> {
    let err = |e: rebeca_core::RebecaError| e.to_string();
    let consumer = sys.connect(CONSUMER, CONSUMER_HOME).map_err(err)?;
    let producer = sys.connect(PRODUCER, PRODUCER_HOME).map_err(err)?;
    for (i, filter) in spec.filters().into_iter().enumerate() {
        consumer.subscribe(sys, filter).map_err(err)?;
        if i % BURST == BURST - 1 {
            pause(sys, BURST_PAUSE_US);
        }
    }
    let ids: std::collections::BTreeMap<_, _> = spec
        .filters()
        .into_iter()
        .enumerate()
        .map(|(i, f)| (f, i))
        .collect();
    let mut live = vec![false; spec.keys.len()];
    let mut left = spec.keys.len();
    let mut probes = 0u64;
    let started = Instant::now();
    while left > 0 {
        if started.elapsed() > SETTLE_LIMIT {
            let m = sys.metrics();
            return Err(format!(
                "{left} subscriptions not live after {SETTLE_LIMIT:?} \
                 (client frames out {}, dropped {}, links failed {})",
                m.counter("net.frames_out"),
                m.counter("net.frames_dropped"),
                m.counter("net.link_failed"),
            ));
        }
        let waiting: Vec<Key> = spec
            .keys
            .iter()
            .zip(&live)
            .filter(|(_, live)| !**live)
            .map(|(key, _)| *key)
            .collect();
        for probe in stabbing_probes(&waiting) {
            producer.publish(sys, probe.notification()).map_err(err)?;
            probes += 1;
            if probes.is_multiple_of(PROBE_BURST as u64) {
                pause(sys, BURST_PAUSE_US);
            }
        }
        let round_end = sys.now() + SimDuration::from_micros(PROBE_ROUND_US);
        while left > 0 && sys.now() < round_end {
            pause(sys, MAX_SLICE_US);
            for delivery in consumer.poll_deliveries(sys).map_err(err)? {
                if let Some(&i) = ids.get(&delivery.filter) {
                    if !live[i] {
                        live[i] = true;
                        left -= 1;
                    }
                }
            }
        }
    }
    // Deliveries of stragglers from the last round must not be counted as
    // measured traffic: the measured stream starts after every probe.
    let cursor = sys.client(CONSUMER).map_err(err)?.delivery_times().len();
    Ok((
        Clients {
            consumer,
            producer,
            cursor,
        },
        probes,
    ))
}

/// The fewest publications that match every filter of `keys` at least
/// once: per group, the greedy stabbing points of the reading intervals.
fn stabbing_probes(keys: &[Key]) -> Vec<Publication> {
    let mut by_group: std::collections::BTreeMap<usize, Vec<(i64, i64)>> = Default::default();
    for key in keys {
        by_group
            .entry(key.group)
            .or_default()
            .push((key.hi, key.lo));
    }
    let mut probes = Vec::new();
    for (group, mut spans) in by_group {
        spans.sort_unstable();
        let mut stabbed: Option<i64> = None;
        for (hi, lo) in spans {
            if stabbed.is_none_or(|point| point < lo) {
                stabbed = Some(hi);
                probes.push(Publication {
                    at_us: 0,
                    group,
                    reading: hi,
                });
            }
        }
    }
    probes
}

/// What one driven schedule observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// (intended send offset, latency) per delivery after the warm-up, µs.
    pub latencies: Vec<(u64, f64)>,
    /// How late each publication was sent against its schedule, µs.
    pub gen_late_us: Vec<f64>,
    /// Per move: `move_to` call to the first delivery of a publication
    /// published after it, ms.
    pub handoff_ms: Vec<f64>,
    /// Per resubscription: `subscribe` call to the first delivery on that
    /// filter of a publication published after it, ms.
    pub subscribe_ms: Vec<f64>,
    pub verdict: Verdict,
    /// Deliveries of measured publications.
    pub deliveries: u64,
    /// Per-publisher FIFO violations the consumer's own log flagged.
    pub fifo_violations: u64,
    pub published: usize,
    /// Duplicate deliveries of publications sent within `HANDOVER_RACE_US`
    /// of a move (included in `verdict.duplicated`).
    pub handover_duplicates: u64,
    /// Moves whose first post-move delivery never came.
    pub unfinished_moves: usize,
    /// The schedule's span (first to last intended send), s.
    pub span_s: f64,
}

/// Drives `schedule` open-loop, then waits up to `drain` (driver time) for
/// every expected delivery.  `first_seq` is the producer's sequence number
/// of the schedule's first publication.  `on_slice(k)` runs when driver
/// time reaches the start of schedule slice `k` (and, at the latest, before
/// returning), for `k` up to the end of the schedule's last slice.
pub fn drive(
    sys: &mut MobilitySystem,
    clients: &mut Clients,
    keys: &[Key],
    schedule: &Schedule,
    first_seq: u64,
    drain: SimDuration,
    on_slice: &mut dyn FnMut(u64),
) -> Result<Observed, String> {
    let err = |e: rebeca_core::RebecaError| e.to_string();
    let mut ledger = Ledger::new(keys, first_seq);
    let mut seen = Observed::default();
    let mut moves: VecDeque<(u64, u64)> = VecDeque::new();
    let mut move_times = Vec::new();
    let mut subscribes: HashMap<usize, (u64, u64)> = HashMap::new();
    let t0 = sys.now().as_micros() + 5_000;
    let pubs = &schedule.pubs;
    let actions = &schedule.actions;
    let (mut next_pub, mut next_act) = (0usize, 0usize);
    let mut drain_until: Option<u64> = None;
    let mut next_check = 0u64;
    let slices = schedule.slices();
    let mut next_slice = 0u64;
    loop {
        let now = sys.now().as_micros();
        while next_slice <= slices && now >= t0 + next_slice * SLICE_US {
            on_slice(next_slice);
            next_slice += 1;
        }
        // Issue everything due, in schedule order.
        loop {
            let pub_at = pubs.get(next_pub).map(|p| t0 + p.at_us);
            let act_at = actions.get(next_act).map(|(at, _)| t0 + at);
            let take_action = match (pub_at, act_at) {
                (_, Some(a)) if a <= now && pub_at.is_none_or(|p| a <= p) => true,
                (Some(p), _) if p <= now => false,
                _ => break,
            };
            let published = first_seq + next_pub as u64 - 1;
            if take_action {
                let (at, action) = actions[next_act];
                next_act += 1;
                match action {
                    Action::Detach => clients.consumer.detach(sys).map_err(err)?,
                    Action::Move(broker) => {
                        clients.consumer.move_to(sys, broker).map_err(err)?;
                        moves.push_back((now, published));
                        move_times.push(at);
                    }
                    Action::Unsubscribe(i) => {
                        clients
                            .consumer
                            .unsubscribe(sys, keys[i].filter())
                            .map_err(err)?;
                        ledger.churned(i, false, at);
                        subscribes.remove(&i);
                    }
                    Action::Subscribe(i) => {
                        clients
                            .consumer
                            .subscribe(sys, keys[i].filter())
                            .map_err(err)?;
                        ledger.churned(i, true, at);
                        subscribes.insert(i, (now, published));
                    }
                }
            } else {
                let p = &pubs[next_pub];
                clients
                    .producer
                    .publish(sys, p.notification())
                    .map_err(err)?;
                seen.gen_late_us
                    .push(now.saturating_sub(t0 + p.at_us) as f64);
                next_pub += 1;
            }
        }

        // Read what arrived: arrival times and deliveries, in step.
        let node = sys.client(CONSUMER).map_err(err)?;
        let arrived: Vec<(SimTime, u64)> = node.delivery_times()[clients.cursor..].to_vec();
        clients.cursor += arrived.len();
        let deliveries = clients.consumer.poll_deliveries(sys).map_err(err)?;
        for ((at, seq), delivery) in arrived.into_iter().zip(deliveries) {
            let at = at.as_micros();
            let Some(id) = ledger.filter_id(&delivery.filter) else {
                return Err(format!(
                    "delivery on an unknown filter {:?}",
                    delivery.filter
                ));
            };
            ledger.delivered(id, seq);
            while let Some(&(called, after)) = moves.front() {
                if seq <= after {
                    break;
                }
                seen.handoff_ms.push(at.saturating_sub(called) as f64 / 1e3);
                moves.pop_front();
            }
            if let Some(&(called, after)) = subscribes.get(&id) {
                if seq > after {
                    seen.subscribe_ms
                        .push(at.saturating_sub(called) as f64 / 1e3);
                    subscribes.remove(&id);
                }
            }
            if seq < first_seq {
                continue;
            }
            let Some(p) = pubs.get((seq - first_seq) as usize) else {
                return Err(format!("delivery of publication {seq}, never published"));
            };
            seen.deliveries += 1;
            if p.at_us >= WARMUP_US {
                seen.latencies
                    .push((p.at_us, at.saturating_sub(t0 + p.at_us) as f64));
            }
        }

        let issued = next_pub == pubs.len() && next_act == actions.len();
        if issued {
            let limit = *drain_until.get_or_insert(now + drain.as_micros());
            if now >= next_check {
                // Checking is linear in the schedule: do it sparingly.
                next_check = now + 50_000;
                let verdict = ledger.verdict(schedule, next_pub);
                if (verdict.lost == 0 && moves.is_empty()) || now >= limit {
                    seen.verdict = verdict;
                    break;
                }
            }
        }
        let next_due = [
            pubs.get(next_pub).map(|p| t0 + p.at_us),
            actions.get(next_act).map(|(at, _)| t0 + at),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(u64::MAX);
        let until = next_due.min(now + MAX_SLICE_US).max(now + 1);
        sys.run_until(SimTime::from_micros(until));
    }
    for k in next_slice..=slices {
        on_slice(k);
    }
    // The relocation protocol's known bounded duplicate: a publication
    // racing the move itself, delivered live and again in the replay.
    seen.handover_duplicates = ledger
        .duplicates()
        .into_iter()
        .filter(|(seq, _)| {
            let at = pubs[(seq - first_seq) as usize].at_us;
            move_times
                .iter()
                .any(|m| at.abs_diff(*m) <= HANDOVER_RACE_US)
        })
        .map(|(_, extra)| extra)
        .sum();
    seen.published = next_pub;
    seen.unfinished_moves = moves.len();
    seen.fifo_violations = sys
        .client_log(CONSUMER)
        .map_err(err)?
        .violations()
        .iter()
        .filter(|v| matches!(v, rebeca_broker::DeliveryViolation::FifoViolation { .. }))
        .count() as u64;
    seen.span_s = pubs.last().map_or(0.0, |p| p.at_us as f64 / 1e6);
    Ok(seen)
}
