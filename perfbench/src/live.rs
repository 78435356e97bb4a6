//! The live run: three `rebeca-node` processes over loopback TCP, driven by
//! this process's two sessions.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rebeca_core::{MobilitySystem, SystemBuilder};
use rebeca_net::{NetConfig, SystemBuilderTcp};
use rebeca_obs::StatusReport;
use rebeca_sim::{DelayModel, SimDuration, Topology};

use crate::cluster::{host_steal_ticks, Cluster, BROKERS};
use crate::drive::{drive, settle, Clients, Observed};
use crate::ledger::quantile;
use crate::spec::{Schedule, Spec, SLICE_US, WARMUP_US};

/// The service-level objective a rate must meet to count as sustained:
/// p99 publish→deliver latency at most 50 ms, every expected delivery made
/// exactly once, and no backlog growth over the rung.
pub const SLO_P99_US: f64 = 50_000.0;
/// How long a run waits after its last publication for stragglers: longer
/// than the brokers' 10 s relocation timeout, so a stalled hand-over shows
/// as late deliveries rather than lost ones.
const DRAIN: SimDuration = SimDuration::from_secs(12);
/// A ladder rung's drain bound: above the knee, loss is recorded, not
/// waited out.
const RUNG_DRAIN: SimDuration = SimDuration::from_secs(1);
/// Ladder rates are multiples of this, publications per second.
const RATE_STEP: f64 = 500.0;
/// Length of one ladder rung, s (the first `WARMUP_US` are not sampled).
const RUNG_SECS: f64 = 2.0;
/// Interval between status probes in a traced run.
const STATUS_EVERY: Duration = Duration::from_millis(250);

/// A cluster with its client system and settled sessions.
struct Started {
    cluster: Cluster,
    sys: MobilitySystem,
    clients: Clients,
    probes: u64,
    setup_s: f64,
}

fn start(spec: &Spec, seed: u64, node_bin: &Path, work: &Path) -> Result<Started, String> {
    let began = Instant::now();
    let cluster = Cluster::spawn(node_bin, work, spec.persist, seed)?;
    let mut sys = SystemBuilder::new(&Topology::line(BROKERS))
        .link_delay(DelayModel::Constant(0))
        .seed(seed)
        .build_tcp(NetConfig::new(cluster.endpoints.clone()).seed(seed))
        .map_err(|e| e.to_string())?;
    let (clients, probes) = settle(&mut sys, spec).map_err(|e| {
        // Say which broker is short of subscriptions or has lost a link.
        let brokers: Vec<String> = cluster
            .endpoints
            .iter()
            .map(
                |e| match rebeca_net::fetch_status(e, None, Duration::from_secs(2)) {
                    Ok(report) => report
                        .brokers
                        .iter()
                        .map(|b| {
                            let links: Vec<String> = b
                                .links
                                .iter()
                                .map(|l| {
                                    format!(
                                        "{}:{}",
                                        l.peer,
                                        if l.connected { "up" } else { "down" }
                                    )
                                })
                                .collect();
                            format!(
                                "broker {} entries {} links [{}]",
                                b.broker,
                                b.routing_entries,
                                links.join(" ")
                            )
                        })
                        .collect::<Vec<_>>()
                        .join("; "),
                    Err(err) => format!("{e} unreachable: {err}"),
                },
            )
            .collect();
        format!("{e}; {}", brokers.join("; "))
    })?;
    Ok(Started {
        cluster,
        sys,
        clients,
        probes,
        setup_s: began.elapsed().as_secs_f64(),
    })
}

/// Measures set-up alone: spawn, subscribe, confirm, tear down.
pub fn setup_once(spec: &Spec, seed: u64, node_bin: &Path, work: &Path) -> Result<f64, String> {
    Ok(start(spec, seed, node_bin, work)?.setup_s)
}

/// What a live window measured.
pub struct Window {
    pub observed: Observed,
    pub setup_s: f64,
    /// Broker CPU over the window, summed and of the busiest broker, s.
    pub cpu_s: f64,
    pub busiest_cpu_s: f64,
    pub wall_s: f64,
    /// Share of the host's CPU time the hypervisor withheld (steal) over
    /// the window: high values mean a noisy neighbour, not a slow program.
    pub steal_share: f64,
    pub rss_mb: f64,
    pub frames_dropped: u64,
    pub frames_resent: u64,
    /// Admin status round trips during the window, µs (traced runs only).
    pub status_rtt_us: Vec<f64>,
    /// Status reports taken after the window.
    pub reports: Vec<StatusReport>,
    /// Per-slice figures after the warm-up slice.
    pub slices: Vec<SliceStat>,
    /// Every broker process was still up at the end.
    pub brokers_alive: bool,
}

/// Runs one schedule against a fresh cluster.
pub fn window(
    spec: &Spec,
    seed: u64,
    schedule: &Schedule,
    node_bin: &Path,
    work: &Path,
    drain: Option<SimDuration>,
    probe_status: bool,
) -> Result<Window, String> {
    let Started {
        mut cluster,
        mut sys,
        mut clients,
        probes,
        setup_s,
    } = start(spec, seed, node_bin, work)?;
    let stop = Arc::new(AtomicBool::new(false));
    let prober = probe_status.then(|| {
        let endpoints = cluster.endpoints.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut rtts = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                for endpoint in &endpoints {
                    let began = Instant::now();
                    if rebeca_net::fetch_status(endpoint, None, Duration::from_secs(2)).is_ok() {
                        rtts.push(began.elapsed().as_secs_f64() * 1e6);
                    }
                }
                std::thread::sleep(STATUS_EVERY);
            }
            rtts
        })
    });
    let cpu_before = cluster.cpu_secs();
    let steal_before = host_steal_ticks();
    let began = Instant::now();
    // Host steal and broker CPU at each slice boundary of the schedule.
    let mut marks: Vec<((u64, u64), f64)> = Vec::new();
    let driven = drive(
        &mut sys,
        &mut clients,
        &spec.keys,
        schedule,
        probes + 1,
        drain.unwrap_or(DRAIN),
        &mut |_| marks.push((host_steal_ticks(), cluster.cpu_secs().iter().sum())),
    );
    let wall_s = began.elapsed().as_secs_f64();
    let cpu_after = cluster.cpu_secs();
    let steal_after = host_steal_ticks();
    stop.store(true, Ordering::Relaxed);
    let status_rtt_us = match prober {
        Some(handle) => handle.join().map_err(|_| "status prober panicked")?,
        None => Vec::new(),
    };
    let observed = driven?;
    let slices = slice_stats(&observed, schedule, &marks);
    let deltas: Vec<f64> = cpu_after
        .iter()
        .zip(&cpu_before)
        .map(|(a, b)| a - b)
        .collect();
    let reports: Vec<StatusReport> = cluster
        .endpoints
        .iter()
        .filter_map(|e| rebeca_net::fetch_status(e, None, Duration::from_secs(2)).ok())
        .collect();
    let metrics = sys.metrics();
    let window = Window {
        setup_s,
        cpu_s: deltas.iter().sum(),
        busiest_cpu_s: deltas.iter().copied().fold(0.0, f64::max),
        wall_s,
        steal_share: (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64,
        rss_mb: cluster.peak_rss_mb(),
        frames_dropped: metrics.counter("net.frames_dropped"),
        frames_resent: metrics.counter("net.frames_resent"),
        status_rtt_us,
        reports,
        slices,
        brokers_alive: cluster.alive(),
        observed,
    };
    // The client system's sockets close before the brokers are killed.
    drop(sys);
    drop(cluster);
    Ok(window)
}

/// Latency quantile over a window's samples, µs.
pub fn latency_quantile(observed: &Observed, q: f64) -> f64 {
    let mut values: Vec<f64> = observed.latencies.iter().map(|(_, l)| *l).collect();
    quantile(&mut values, q)
}

/// One slice of a live window.
#[derive(Debug, Clone)]
pub struct SliceStat {
    /// Share of the host's CPU time withheld by the hypervisor.
    pub steal: f64,
    /// Publish→deliver latencies of the slice's publications, µs.
    pub latencies: Vec<f64>,
    /// Broker CPU over the slice, s, and the slice's publications.
    pub cpu_s: f64,
    pub pubs: usize,
}

fn slice_stats(o: &Observed, schedule: &Schedule, marks: &[((u64, u64), f64)]) -> Vec<SliceStat> {
    let mut latencies: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(at, latency) in &o.latencies {
        latencies.entry(at / SLICE_US).or_default().push(latency);
    }
    let first = WARMUP_US / SLICE_US;
    (first..schedule.slices())
        .filter_map(|k| {
            let (((s0, t0), c0), ((s1, t1), c1)) =
                (marks.get(k as usize)?, marks.get(k as usize + 1)?);
            Some(SliceStat {
                steal: (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
                latencies: latencies.remove(&k)?,
                cpu_s: c1 - c0,
                pubs: schedule.pubs_in_slice(k),
            })
        })
        .collect()
}

/// The slices least disturbed by the host: the third with the least steal
/// (at least three).  On a shared machine a neighbour's burst inflates
/// every figure of the slices it lands in; reporting the quiet slices keeps
/// the program's own cost in view.
pub fn quiet(slices: &[SliceStat]) -> Vec<SliceStat> {
    let mut sorted = slices.to_vec();
    sorted.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let keep = (sorted.len() / 3).max(3).min(sorted.len());
    sorted.truncate(keep);
    sorted
}

/// The median over the slices of broker CPU per publication, µs.  Process
/// CPU time excludes steal, so every slice counts; the median sets aside
/// the odd slice where the brokers batched unusually well or badly.
pub fn cpu_per_pub(slices: &[SliceStat]) -> f64 {
    let mut values: Vec<f64> = slices
        .iter()
        .map(|s| s.cpu_s * 1e6 / s.pubs.max(1) as f64)
        .collect();
    quantile(&mut values, 0.5)
}

/// A latency quantile over the slices' pooled samples, µs.
pub fn pooled_quantile(slices: &[SliceStat], q: f64) -> f64 {
    let mut values: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    quantile(&mut values, q)
}

/// One rung of the rate ladder.
pub struct Rung {
    pub rate: f64,
    pub p99_us: f64,
    pub failed: u64,
    pub backlog_grew: bool,
    pub setup_s: f64,
}

impl Rung {
    pub fn meets_slo(&self) -> bool {
        self.p99_us <= SLO_P99_US && self.failed == 0 && !self.backlog_grew
    }
}

/// Searches for the highest sustained rate between `floor` (known to meet
/// the SLO) and `ceiling` by bisection, one fresh cluster per rung: above
/// the knee a client link can fail for good, so nothing carries over.
pub fn ladder(
    spec: &Spec,
    seed: u64,
    (floor, ceiling): (f64, f64),
    rungs: usize,
    node_bin: &Path,
    work: &Path,
) -> Result<Vec<Rung>, String> {
    let (mut met, mut missed) = (floor, ceiling);
    let mut out = Vec::new();
    for i in 0..rungs {
        let rate = (((met + missed) / 2.0) / RATE_STEP).round() * RATE_STEP;
        let schedule = spec.schedule(seed.wrapping_add(i as u64 + 1), RUNG_SECS, rate);
        let w = window(
            spec,
            seed,
            &schedule,
            node_bin,
            work,
            Some(RUNG_DRAIN),
            false,
        )?;
        let o = &w.observed;
        let mut failed = o.verdict.failed() + o.unfinished_moves as u64;
        if o.published < schedule.pubs.len() || w.frames_dropped > 0 {
            failed = failed.max(1);
        }
        let rung = Rung {
            rate,
            p99_us: latency_quantile(o, 0.99),
            failed,
            backlog_grew: backlog_grew(o),
            setup_s: w.setup_s,
        };
        if rung.meets_slo() {
            met = rate;
        } else {
            missed = rate;
        }
        out.push(rung);
    }
    Ok(out)
}

/// Backlog growth: deliveries in the last third of the sampled span wait
/// markedly longer than those of the first third.
fn backlog_grew(o: &Observed) -> bool {
    let Some(end) = o.latencies.iter().map(|(at, _)| *at).max() else {
        return true;
    };
    let third = (end.saturating_sub(WARMUP_US)) / 3;
    let mut early: Vec<f64> = o
        .latencies
        .iter()
        .filter(|(at, _)| *at < WARMUP_US + third)
        .map(|(_, l)| *l)
        .collect();
    let mut late: Vec<f64> = o
        .latencies
        .iter()
        .filter(|(at, _)| *at >= end - third)
        .map(|(_, l)| *l)
        .collect();
    quantile(&mut late, 0.5) > 2.0 * quantile(&mut early, 0.5) + 1_000.0
}
