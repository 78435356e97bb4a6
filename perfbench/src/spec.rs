//! Workload definitions and the seeded input schedule they generate.
//!
//! Every run is a pure function of `(workload, seed, seconds)`: the
//! consumer's filters, the publication stream and the timed client actions
//! (moves, unsubscribe/resubscribe churn) are generated here up front, and
//! both the multi-process live run and the in-process traced replay consume
//! the same [`Schedule`].

use rebeca_bench::workload::{group_filter, group_notification, ZipfSampler};
use rebeca_filter::{Constraint, Filter, Notification, Value};

/// Publications draw readings from `0..READINGS`.
pub const READINGS: i64 = 1_000;
/// Zipf exponent of group popularity, for filters and publications alike.
const ZIPF_EXPONENT: f64 = 1.0;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Tiny tables, nobody moves: transport, codec and dispatch.
    Steady,
    /// The consumer alternates between brokers 0 and 1 with a file WAL.
    Roaming,
    /// Thousands of overlapping range filters with subscription churn.
    WideMatch,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "steady" => Some(Kind::Steady),
            "roaming" => Some(Kind::Roaming),
            "wide-match" => Some(Kind::WideMatch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Roaming => "roaming",
            Kind::WideMatch => "wide-match",
        }
    }
}

/// How a filter matches, in a form cheap to evaluate for every
/// (publication, filter) pair when counting expected deliveries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub group: usize,
    pub lo: i64,
    pub hi: i64,
}

impl Key {
    pub fn matches(&self, group: usize, reading: i64) -> bool {
        self.group == group && self.lo <= reading && reading <= self.hi
    }

    pub fn filter(&self) -> Filter {
        if self.lo == 0 && self.hi == READINGS - 1 {
            group_filter(self.group)
        } else {
            group_filter(self.group).with(
                "reading",
                Constraint::Between(Value::Int(self.lo), Value::Int(self.hi)),
            )
        }
    }
}

/// A timed client action besides publishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The consumer leaves its border broker, which starts buffering.
    Detach,
    /// The consumer reconnects at this broker index and relocates its
    /// subscriptions there.
    Move(usize),
    /// The consumer retracts filter `i`.
    Unsubscribe(usize),
    /// The consumer subscribes filter `i` again.
    Subscribe(usize),
}

/// One publication of the schedule.
#[derive(Debug, Clone)]
pub struct Publication {
    /// Intended send time, microseconds after the schedule starts.
    pub at_us: u64,
    pub group: usize,
    pub reading: i64,
}

impl Publication {
    pub fn notification(&self) -> Notification {
        group_notification(self.group, self.reading)
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Nominal offered rate, publications per second.
    pub rate: f64,
    /// Brokers keep their handoff WAL in files (`--persist-dir`).
    pub persist: bool,
    /// The consumer's filters.
    pub keys: Vec<Key>,
    /// Telemetry groups publications are drawn from.
    pub groups: usize,
    /// Interval between consumer moves (roaming).
    pub move_every_us: Option<u64>,
    /// Interval between churn operations (wide-match).
    pub churn_every_us: Option<u64>,
    /// Cluster set-ups per run, for the median set-up time (`steady`
    /// sets up once per ladder rung instead).
    pub setups: usize,
}

/// Microseconds the roaming consumer is offline between leaving one
/// border broker and reconnecting at the next.  `move_to` alone sends the
/// Detach to the old broker and the ReSubscribe to the new one at once,
/// over different connections; when the relocation request reaches the old
/// broker first, it finds the client still connected and is dropped, and
/// the hand-over stalls until the relocation timeout.  Detaching first
/// orders the two, the way a device loses its old link before it finds the
/// new one.
pub const OFFLINE_US: u64 = 50_000;
/// Microseconds an unsubscribed filter stays out before it is subscribed
/// again.
pub const CHURN_GAP_US: u64 = 25_000;
/// After a resubscription, publications for this long are aimed at the
/// churned filter, so its first matching delivery is not left to chance.
pub const CHURN_PROBE_US: u64 = 4_000;
/// Latency, CPU and host steal are accounted per slice of this much
/// schedule time.
pub const SLICE_US: u64 = 1_000_000;
/// Warm-up at the start of a schedule (the first slice): checked, but not
/// sampled.
pub const WARMUP_US: u64 = SLICE_US;

impl Spec {
    pub fn new(kind: Kind, seed: u64) -> Spec {
        match kind {
            Kind::Steady => Spec {
                rate: 2_500.0,
                persist: false,
                keys: whole_groups(10),
                groups: 10,
                move_every_us: None,
                churn_every_us: None,
                setups: 1,
            },
            Kind::Roaming => Spec {
                rate: 2_000.0,
                persist: true,
                keys: whole_groups(10),
                groups: 10,
                move_every_us: Some(500_000),
                churn_every_us: None,
                setups: 7,
            },
            Kind::WideMatch => Spec {
                rate: 800.0,
                persist: false,
                keys: range_filters(100, 2_000, 40, seed),
                groups: 100,
                move_every_us: None,
                churn_every_us: Some(50_000),
                setups: 3,
            },
        }
    }

    pub fn filters(&self) -> Vec<Filter> {
        self.keys.iter().map(Key::filter).collect()
    }

    /// The seeded schedule of `secs` seconds at `rate` publications per
    /// second.
    pub fn schedule(&self, seed: u64, secs: f64, rate: f64) -> Schedule {
        let count = (secs * rate).round() as u64;
        let mut zipf = ZipfSampler::new(self.groups, ZIPF_EXPONENT, seed ^ 0x5eed_0001);
        let mut rng = XorShift::new(seed ^ 0x5eed_0002);
        let mut pubs: Vec<Publication> = (0..count)
            .map(|k| Publication {
                at_us: (k as f64 * 1e6 / rate) as u64,
                group: zipf.sample(),
                reading: (rng.next() % READINGS as u64) as i64,
            })
            .collect();
        let span_us = (secs * 1e6) as u64;
        let mut actions = Vec::new();
        if let Some(every) = self.move_every_us {
            let mut broker = 1;
            let mut at = every;
            while at < span_us {
                actions.push((at - OFFLINE_US, Action::Detach));
                actions.push((at, Action::Move(broker)));
                broker = 1 - broker;
                at += every;
            }
        }
        if let Some(every) = self.churn_every_us {
            let mut at = WARMUP_US;
            while at + CHURN_GAP_US + CHURN_PROBE_US < span_us {
                let i = (rng.next() % self.keys.len() as u64) as usize;
                let key = self.keys[i];
                actions.push((at, Action::Unsubscribe(i)));
                let back = at + CHURN_GAP_US;
                actions.push((back, Action::Subscribe(i)));
                for p in pubs
                    .iter_mut()
                    .filter(|p| p.at_us > back && p.at_us <= back + CHURN_PROBE_US)
                {
                    p.group = key.group;
                    p.reading = key.lo + (p.at_us as i64 % (key.hi - key.lo + 1));
                }
                at += every;
            }
        }
        actions.sort_by_key(|(at, _)| *at);
        Schedule { pubs, actions }
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub pubs: Vec<Publication>,
    /// Timed actions, sorted by time (microseconds after the start).
    pub actions: Vec<(u64, Action)>,
}

impl Schedule {
    /// Number of whole slices the publications span.
    pub fn slices(&self) -> u64 {
        self.pubs.last().map_or(0, |p| p.at_us / SLICE_US + 1)
    }

    /// Publications intended within slice `k`.
    pub fn pubs_in_slice(&self, k: u64) -> usize {
        let start = self.pubs.partition_point(|p| p.at_us < k * SLICE_US);
        let end = self.pubs.partition_point(|p| p.at_us < (k + 1) * SLICE_US);
        end - start
    }
}

/// One equality filter per group: every publication matches exactly one.
fn whole_groups(groups: usize) -> Vec<Key> {
    (0..groups)
        .map(|group| Key {
            group,
            lo: 0,
            hi: READINGS - 1,
        })
        .collect()
}

/// `count` distinct zipf-skewed filters `group = g ∧ reading ∈ [lo, lo+width)`.
fn range_filters(groups: usize, count: usize, width: i64, seed: u64) -> Vec<Key> {
    let mut zipf = ZipfSampler::new(groups, ZIPF_EXPONENT, seed ^ 0x5eed_0003);
    let mut rng = XorShift::new(seed ^ 0x5eed_0004);
    let mut seen = std::collections::BTreeSet::new();
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let group = zipf.sample();
        let lo = (rng.next() % (READINGS - width) as u64) as i64;
        if seen.insert((group, lo)) {
            keys.push(Key {
                group,
                lo,
                hi: lo + width - 1,
            });
        }
    }
    keys
}

/// A small deterministic generator (xorshift64*).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_agree_with_filter_matching() {
        let spec = Spec::new(Kind::WideMatch, 3);
        let schedule = spec.schedule(3, 1.0, 2_000.0);
        for key in spec.keys.iter().take(200) {
            let filter = key.filter();
            for p in &schedule.pubs {
                assert_eq!(
                    key.matches(p.group, p.reading),
                    filter.matches(&p.notification())
                );
            }
        }
    }

    #[test]
    fn roaming_detaches_before_each_move() {
        let spec = Spec::new(Kind::Roaming, 1);
        let actions = spec.schedule(1, 3.0, 100.0).actions;
        assert_eq!(actions.len(), 10);
        for pair in actions.chunks(2) {
            let [(left, Action::Detach), (moved, Action::Move(_))] = pair else {
                panic!("expected a detach then a move, got {pair:?}");
            };
            assert_eq!(moved - left, OFFLINE_US);
        }
    }

    #[test]
    fn schedules_repeat_for_a_seed() {
        let spec = Spec::new(Kind::WideMatch, 9);
        let a = spec.schedule(9, 2.0, 1_000.0);
        let b = spec.schedule(9, 2.0, 1_000.0);
        assert_eq!(a.actions, b.actions);
        assert!(a
            .pubs
            .iter()
            .zip(&b.pubs)
            .all(|(x, y)| (x.at_us, x.group, x.reading) == (y.at_us, y.group, y.reading)));
    }
}
