//! Exactly-once accounting per (subscription, publisher sequence number),
//! and the order statistics the benchmark reports.

use std::collections::{BTreeMap, HashMap};

use rebeca_filter::Filter;

use crate::spec::{Key, Schedule};

/// A publication published within this long before an unsubscribe, or
/// after a subscribe, raced it: its delivery on that filter is not
/// expected (but a duplicate still counts as a failure).
pub const RACE_MARGIN_US: u64 = 100_000;

/// What a run delivered, checked against what it should have.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Expected (subscription, publication) deliveries.
    pub expected: u64,
    pub lost: u64,
    /// Publications with at least one lost delivery.
    pub lost_publications: u64,
    pub duplicated: u64,
    /// Deliveries out of publication order within one subscription.
    pub out_of_order: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.out_of_order
    }

    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.expected.max(1) as f64
    }
}

/// Records deliveries of the measured publications and, at the end,
/// compares them with the deliveries the filters and the subscribe /
/// unsubscribe history call for.
pub struct Ledger {
    keys: Vec<Key>,
    ids: BTreeMap<Filter, usize>,
    by_group: HashMap<usize, Vec<usize>>,
    /// Publisher sequence number of the first measured publication.
    first_seq: u64,
    counts: HashMap<(usize, u64), u32>,
    last_seq: Vec<u64>,
    out_of_order: u64,
    /// Per filter: (schedule time, subscribe or unsubscribe) of each call.
    churn: Vec<Vec<(u64, bool)>>,
}

impl Ledger {
    pub fn new(keys: &[Key], first_seq: u64) -> Ledger {
        let mut by_group: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            by_group.entry(key.group).or_default().push(i);
        }
        Ledger {
            keys: keys.to_vec(),
            ids: keys
                .iter()
                .enumerate()
                .map(|(i, k)| (k.filter(), i))
                .collect(),
            by_group,
            first_seq,
            counts: HashMap::new(),
            last_seq: vec![0; keys.len()],
            out_of_order: 0,
            churn: vec![Vec::new(); keys.len()],
        }
    }

    pub fn filter_id(&self, filter: &Filter) -> Option<usize> {
        self.ids.get(filter).copied()
    }

    /// Notes a subscribe (`true`) or unsubscribe call on filter `id` at
    /// schedule time `at_us`.
    pub fn churned(&mut self, id: usize, subscribe: bool, at_us: u64) {
        self.churn[id].push((at_us, subscribe));
    }

    /// Records one delivery of publication `seq` on filter `id`.
    pub fn delivered(&mut self, id: usize, seq: u64) {
        if seq < self.first_seq {
            return;
        }
        let count = self.counts.entry((id, seq)).or_insert(0);
        *count += 1;
        // A late duplicate is counted once, as a duplicate.
        if *count == 1 && seq < self.last_seq[id] {
            self.out_of_order += 1;
        }
        self.last_seq[id] = self.last_seq[id].max(seq);
    }

    /// (sequence number, extra deliveries) of every publication delivered
    /// more than once on a filter.
    pub fn duplicates(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .filter(|(_, &c)| c > 1)
            .map(|((_, seq), &c)| (*seq, u64::from(c - 1)))
            .collect()
    }

    /// The verdict over the first `published` publications of the schedule.
    pub fn verdict(&self, schedule: &Schedule, published: usize) -> Verdict {
        let windows = self.windows(schedule);
        let mut verdict = Verdict {
            out_of_order: self.out_of_order,
            duplicated: self
                .counts
                .values()
                .map(|&c| c.saturating_sub(1) as u64)
                .sum(),
            ..Verdict::default()
        };
        for (k, p) in schedule.pubs.iter().take(published).enumerate() {
            let seq = self.first_seq + k as u64;
            let Some(ids) = self.by_group.get(&p.group) else {
                continue;
            };
            let lost_before = verdict.lost;
            for &id in ids {
                if !self.keys[id].matches(p.group, p.reading) {
                    continue;
                }
                let live = match &windows[id] {
                    None => true,
                    Some(spans) => spans.iter().any(|&(a, b)| a <= seq && seq <= b),
                };
                if live {
                    verdict.expected += 1;
                    if !self.counts.contains_key(&(id, seq)) {
                        verdict.lost += 1;
                    }
                }
            }
            verdict.lost_publications += u64::from(verdict.lost > lost_before);
        }
        verdict
    }

    /// Per churned filter, the sequence-number spans in which it counts as
    /// subscribed (`None`: never churned, subscribed throughout).
    fn windows(&self, schedule: &Schedule) -> Vec<Option<Vec<(u64, u64)>>> {
        // Sequence number of the last publication intended before `t`.
        let seq_before = |t: u64| -> u64 {
            let n = schedule.pubs.partition_point(|p| p.at_us < t) as u64;
            (self.first_seq + n).saturating_sub(1)
        };
        self.churn
            .iter()
            .map(|history| {
                if history.is_empty() {
                    return None;
                }
                let mut spans = Vec::new();
                let mut start = Some(self.first_seq);
                for &(at, subscribe) in history {
                    // A delivery soon after a resubscription can arrive
                    // along an overlapping filter's path before the
                    // filter's own path is up, so it proves nothing.
                    if subscribe {
                        start = Some(seq_before(at + RACE_MARGIN_US) + 1);
                    } else if let Some(a) = start.take() {
                        let end = seq_before(at.saturating_sub(RACE_MARGIN_US));
                        if end >= a {
                            spans.push((a, end));
                        }
                    }
                }
                if let Some(a) = start {
                    spans.push((a, u64::MAX));
                }
                Some(spans)
            })
            .collect()
    }
}

/// The `q`-quantile (0..=1) of `values`, interpolated linearly between
/// the two nearest ranks.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
