//! The traced run: the per-layer cost ledger.
//!
//! It combines a shorter live run (for what only real processes show:
//! socket losses and resends, the admin round trip under load, broker busy
//! time, generator lateness, WAL hold times) with an in-process replay of
//! the same workload on a benchmark-owned [`Driver`] over
//! [`rebeca_sim::Network`].  Every node of the replay is wrapped in
//! [`Timed`], which times each call into the layers' public functions:
//!
//! * `Node::handle` of every broker and client (the `core` layer);
//! * `wire::Frame::encode_framed` / `decode_framed` of every message, with a
//!   byte-identical round-trip check (the `net` codec);
//! * a shadow `engine().route()` and `table().matching_destinations()` on
//!   the receiving broker's live table before each notification is handled
//!   (`routing` and `matcher`), and `table().covered_entries()` before each
//!   (un)subscription;
//! * `LogBackend::append` of a file WAL backend (`mobility`).
//!
//! The same schedule is replayed once more untraced, so the tracing
//! overhead is measured, not assumed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rebeca_broker::Message;
use rebeca_core::{Driver, MobileBroker, MobilitySystem, SystemBuilder, SystemNode};
use rebeca_mobility::{FileBackend, HandoffLog, LogBackend};
use rebeca_net::wire::Frame;
use rebeca_obs::StatusReport;
use rebeca_sim::{
    Context, DelayModel, Incoming, Metrics, Network, Node, NodeId, SimDuration, SimTime, Topology,
};

use crate::cluster::{self, BROKERS};
use crate::drive::{drive, settle, Observed};
use crate::ledger::{mean, median, quantile};
use crate::live;
use crate::spec::{Kind, Spec};
use crate::{Args, Report};

/// Share of `--seconds` spent on the live part of a traced run; the replay
/// schedule is as long again, in virtual time.
const LIVE_SHARE: f64 = 0.4;
const REPLAY_SHARE: f64 = 0.25;
/// Drain bound of the replays, virtual time.
const REPLAY_DRAIN: SimDuration = SimDuration::from_secs(15);
/// One notification in this many has its matcher selectivity counted (a
/// full table scan, untimed).
const SELECTIVITY_EVERY: u64 = 16;

/// What the wrapped nodes record.
#[derive(Debug, Default)]
struct Stats {
    /// Spans are recorded only while the measured schedule runs.
    measuring: bool,
    /// Durations per span name, ns.
    spans: BTreeMap<&'static str, Vec<f64>>,
    /// Every `Node::handle` call.
    dispatches: u64,
    /// Messages between nodes, and their framed bytes.
    frames: u64,
    frame_bytes: u64,
    /// Frames whose decode did not re-encode to the same bytes.
    codec_mismatches: u64,
    /// Subscriptions received by brokers, and those sent by a broker.
    subscriptions_in: u64,
    subscriptions_forwarded: u64,
    /// Sampled matching (filter, destination) entries and entries scanned.
    matched_entries: u64,
    scanned_entries: u64,
    notifications: u64,
}

impl Stats {
    fn span(&mut self, name: &'static str, began: Instant) {
        if self.measuring {
            let ns = began.elapsed().as_nanos() as f64;
            self.spans.entry(name).or_default().push(ns);
        }
    }

    fn median(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |values| median(&mut values.clone()))
    }

    fn count(&self, name: &str) -> usize {
        self.spans.get(name).map_or(0, Vec::len)
    }
}

type Shared = Arc<Mutex<Stats>>;

fn lock(stats: &Shared) -> std::sync::MutexGuard<'_, Stats> {
    stats
        .lock()
        .expect("a traced node panicked while recording")
}

/// A node wrapped to time the calls into each layer it makes.
struct Timed {
    inner: SystemNode,
    stats: Shared,
}

impl Node for Timed {
    type Message = Message;

    fn handle(&mut self, ctx: &mut Context<'_, Message>, event: Incoming<Message>) {
        let me = ctx.self_id();
        let span = match &event {
            Incoming::Timer { .. } => match &self.inner {
                SystemNode::Broker(_) => "core.timer_ns",
                SystemNode::Client(_) => "core.client_action_ns",
            },
            Incoming::Message { from, message } => {
                self.codec(*from, me, message);
                match &self.inner {
                    SystemNode::Broker(broker) => self.shadow(broker, *from, message),
                    SystemNode::Client(_) => "core.client_deliver_ns",
                }
            }
        };
        let began = Instant::now();
        self.inner.handle(ctx, event);
        let mut stats = lock(&self.stats);
        stats.span(span, began);
        if stats.measuring {
            stats.dispatches += 1;
        }
    }
}

impl Timed {
    /// Frames the message as the TCP transport would, times encode and
    /// decode, and checks the round trip is byte-identical.
    fn codec(&self, from: NodeId, to: NodeId, message: &Message) {
        let frame = Frame::Message {
            from,
            to,
            delay_micros: 0,
            seq: 1,
            message: message.clone(),
        };
        let began = Instant::now();
        let bytes = frame.encode_framed();
        let encoded = Instant::now();
        let decoded = Frame::decode_framed(&bytes);
        let mut stats = lock(&self.stats);
        stats.span("net.encode_ns", began);
        stats.span("net.decode_ns", encoded);
        let same = match decoded {
            Ok((frame, used)) => used == bytes.len() && frame.encode_framed() == bytes,
            Err(_) => false,
        };
        if stats.measuring {
            stats.frames += 1;
            stats.frame_bytes += bytes.len() as u64;
            stats.codec_mismatches += u64::from(!same);
        }
    }

    /// Times the routing and matching a broker is about to do, on its live
    /// table, and names the core span of the event.
    fn shadow(&self, broker: &MobileBroker, from: NodeId, message: &Message) -> &'static str {
        let core = broker.core();
        let engine = core.engine();
        let from_broker = from.index() < BROKERS;
        match message {
            Message::Publish { notification, .. } => {
                self.route(broker, from, notification);
                "core.publish_ns"
            }
            Message::Notification(envelope) => {
                self.route(broker, from, &envelope.notification);
                "core.forward_ns"
            }
            Message::Subscribe { filter, .. } | Message::Unsubscribe { filter, .. } => {
                let began = Instant::now();
                std::hint::black_box(engine.table().covered_entries(filter));
                let mut stats = lock(&self.stats);
                stats.span("routing.subscribe_ns", began);
                if stats.measuring && matches!(message, Message::Subscribe { .. }) {
                    stats.subscriptions_in += 1;
                    stats.subscriptions_forwarded += u64::from(from_broker);
                }
                "core.subscribe_ns"
            }
            Message::Attach { .. }
            | Message::Replay { .. }
            | Message::Detach { .. }
            | Message::ReSubscribe { .. }
            | Message::Relocate { .. }
            | Message::Fetch { .. } => "core.relocation_ns",
            _ => "core.other_ns",
        }
    }

    fn route(
        &self,
        broker: &MobileBroker,
        from: NodeId,
        notification: &rebeca_filter::Notification,
    ) {
        let core = broker.core();
        let engine = core.engine();
        // One untimed match first, so neither timed call pays for a cold
        // cache on the other's behalf.
        std::hint::black_box(
            engine
                .table()
                .matching_destinations(notification, Some(&from)),
        );
        let began = Instant::now();
        std::hint::black_box(engine.route(notification, Some(&from), core.broker_links()));
        let routed = Instant::now();
        std::hint::black_box(
            engine
                .table()
                .matching_destinations(notification, Some(&from)),
        );
        let mut stats = lock(&self.stats);
        stats.span("routing.route_ns", began);
        stats.span("matcher.match_ns", routed);
        if stats.measuring {
            stats.notifications += 1;
            if stats.notifications.is_multiple_of(SELECTIVITY_EVERY) {
                let table = engine.table();
                stats.scanned_entries += table.len() as u64;
                stats.matched_entries += table
                    .iter()
                    .filter(|(_, filter)| filter.matches(notification))
                    .count() as u64;
            }
        }
    }
}

/// A file WAL backend whose appends (write + `sync_data`) are timed.
#[derive(Debug, Clone)]
struct TimedWal {
    inner: FileBackend,
    stats: Shared,
}

impl LogBackend for TimedWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let began = Instant::now();
        let result = self.inner.append(bytes);
        lock(&self.stats).span("mobility.wal_append_ns", began);
        result
    }

    fn read_all(&self) -> std::io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn reset(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.reset(bytes)
    }

    fn boxed_clone(&self) -> Box<dyn LogBackend> {
        Box::new(self.clone())
    }
}

/// The benchmark's own [`Driver`]: the deterministic simulated network,
/// hosting [`Timed`] wrappers instead of bare nodes.
struct TracedDriver {
    network: Network<Timed>,
    stats: Shared,
    /// Brokers get a timed file WAL under this directory when set.
    wal_dir: Option<PathBuf>,
}

impl TracedDriver {
    fn wrap(&self, node: SystemNode) -> Timed {
        Timed {
            inner: node,
            stats: self.stats.clone(),
        }
    }
}

impl Driver for TracedDriver {
    fn add_node(&mut self, node: SystemNode) -> NodeId {
        let node = match (node, &self.wal_dir) {
            (SystemNode::Broker(broker), Some(dir)) => {
                let index = self.network.len();
                let backend = TimedWal {
                    inner: FileBackend::new(dir.join(format!("broker-{index}.wal"))),
                    stats: self.stats.clone(),
                };
                let log = HandoffLog::with_backend(Box::new(backend))
                    .checkpoint_every(broker.config().wal_checkpoint_every);
                SystemNode::Broker(MobileBroker::with_log(
                    NodeId::new(index),
                    broker.core().role(),
                    broker.core().broker_links().to_vec(),
                    broker.config().clone(),
                    log,
                ))
            }
            (node, _) => node,
        };
        let timed = self.wrap(node);
        self.network.add_node(timed)
    }

    fn ensure_link(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> bool {
        if self.network.has_link(a, b) {
            return false;
        }
        self.network.connect(a, b, delay);
        true
    }

    fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        let delay = at.since(self.network.now());
        self.network.schedule_timer(node, delay, tag);
    }

    fn now(&self) -> SimTime {
        self.network.now()
    }

    fn step(&mut self) -> bool {
        self.network.step()
    }

    fn run_until(&mut self, until: SimTime) -> u64 {
        self.network.run_until(until)
    }

    fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.network.run(max_events)
    }

    fn node(&self, id: NodeId) -> &SystemNode {
        &self.network.node(id).inner
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SystemNode {
        &mut self.network.node_mut(id).inner
    }

    fn replace_node(&mut self, id: NodeId, node: SystemNode) -> SystemNode {
        let timed = self.wrap(node);
        self.network.replace_node(id, timed).inner
    }

    fn node_count(&self) -> usize {
        self.network.len()
    }

    fn metrics(&self) -> &Metrics {
        self.network.metrics()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.network.metrics_mut()
    }

    fn status(&self) -> StatusReport {
        let now = self.network.now();
        let metrics = self.network.metrics();
        let brokers = (0..self.network.len())
            .filter_map(|i| match &self.network.node(NodeId(i)).inner {
                SystemNode::Broker(broker) => Some(rebeca_core::driver_util::broker_status(
                    i as u64,
                    broker,
                    metrics,
                    now,
                    broker.machine().generation(),
                    rebeca_core::driver_util::in_process_links(broker),
                )),
                SystemNode::Client(_) => None,
            })
            .collect();
        StatusReport {
            now_micros: now.as_micros(),
            node_count: self.network.len() as u64,
            brokers,
            events: Vec::new(),
        }
    }
}

fn builder(seed: u64) -> SystemBuilder {
    SystemBuilder::new(&Topology::line(BROKERS))
        .link_delay(DelayModel::Constant(0))
        .seed(seed)
}

/// One in-process replay: its observations and its wall time, s.
struct Replay {
    observed: Observed,
    wall_s: f64,
    sys: MobilitySystem,
}

fn replay(
    mut sys: MobilitySystem,
    spec: &Spec,
    schedule: &crate::spec::Schedule,
    stats: Option<&Shared>,
) -> Result<Replay, String> {
    let (mut clients, probes) = settle(&mut sys, spec)?;
    if let Some(stats) = stats {
        lock(stats).measuring = true;
    }
    let began = Instant::now();
    let observed = drive(
        &mut sys,
        &mut clients,
        &spec.keys,
        schedule,
        probes + 1,
        REPLAY_DRAIN,
        &mut |_| {},
    )?;
    let wall_s = began.elapsed().as_secs_f64();
    if let Some(stats) = stats {
        lock(stats).measuring = false;
    }
    Ok(Replay {
        observed,
        wall_s,
        sys,
    })
}

pub fn run(args: &Args, spec: &Spec) -> Result<Report, String> {
    let mut report = Report::default();
    let work = cluster::work_dir(&args.work_dir, args.kind.name(), args.seed)?;
    let result = ledger(args, spec, &work, &mut report);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| report)
}

fn ledger(args: &Args, spec: &Spec, work: &Path, report: &mut Report) -> Result<(), String> {
    // ---- Live: what only real processes and sockets show -------------
    let live_schedule = spec.schedule(args.seed, args.seconds * LIVE_SHARE, spec.rate);
    let w = live::window(
        spec,
        args.seed,
        &live_schedule,
        &args.node_bin,
        work,
        None,
        true,
    )?;
    let live_ok = crate::exactly_once(&w.observed) && w.brokers_alive;
    let deliver_p50_us = live::latency_quantile(&w.observed, 0.5);

    // ---- Replay, traced and untraced ----------------------------------
    let schedule = spec.schedule(args.seed, args.seconds * REPLAY_SHARE, spec.rate);
    let stats: Shared = Arc::default();
    let wal_dir = spec.persist.then(|| work.join("traced-wal"));
    let traced_driver = TracedDriver {
        network: Network::new(args.seed),
        stats: stats.clone(),
        wal_dir: wal_dir.clone(),
    };
    let traced = replay(
        builder(args.seed)
            .build_with(Box::new(traced_driver))
            .map_err(|e| e.to_string())?,
        spec,
        &schedule,
        Some(&stats),
    )?;
    let mut plain = builder(args.seed);
    if spec.persist {
        plain = plain.persist_to(work.join("plain-wal"));
    }
    let untraced = replay(
        plain.build().map_err(|e| e.to_string())?,
        spec,
        &schedule,
        None,
    )?;
    let replay_ok =
        crate::exactly_once(&traced.observed) && crate::exactly_once(&untraced.observed);

    let s = lock(&stats);
    let pubs = traced.observed.published.max(1) as f64;
    let moves = schedule
        .actions
        .iter()
        .filter(|(_, a)| matches!(a, crate::spec::Action::Move(_)))
        .count();
    let per_move = |n: f64| if moves == 0 { 0.0 } else { n / moves as f64 };

    // net
    let encode = s.median("net.encode_ns");
    let decode = s.median("net.decode_ns");
    report.metric("net.encode_ns", encode, "ns");
    report.metric("net.decode_ns", decode, "ns");
    report.metric(
        "net.frame_bytes",
        s.frame_bytes as f64 / s.frames.max(1) as f64,
        "bytes",
    );
    report.metric("net.frames_per_pub", s.frames as f64 / pubs, "count");
    report.metric("net.frames_dropped", w.frames_dropped as f64, "count");
    report.metric("net.frames_resent", w.frames_resent as f64, "count");
    // The publication path: producer action, publish at broker 2, forward
    // at brokers 1 and 0, client delivery, and four framed hops.
    let path_ns = s.median("core.client_action_ns")
        + s.median("core.publish_ns")
        + 2.0 * s.median("core.forward_ns")
        + s.median("core.client_deliver_ns")
        + 4.0 * (encode + decode);
    report.note("net.path_compute_us", path_ns / 1e3, "us");
    report.note("deliver_p50_us", deliver_p50_us, "us");
    report.metric(
        "net.transport_share",
        1.0 - path_ns / 1e3 / deliver_p50_us.max(f64::MIN_POSITIVE),
        "share",
    );

    // core
    for name in [
        "core.publish_ns",
        "core.forward_ns",
        "core.subscribe_ns",
        "core.relocation_ns",
        "core.client_deliver_ns",
    ] {
        report.metric(name, s.median(name), "ns");
    }
    report.metric(
        "core.dispatches_per_pub",
        s.dispatches as f64 / pubs,
        "count",
    );
    report.metric(
        "core.busy_share",
        w.busiest_cpu_s / w.wall_s.max(1e-9),
        "share",
    );

    // routing
    let status = traced.sys.status();
    let entries: u64 = status.brokers.iter().map(|b| b.routing_entries).sum();
    let subgroups: u64 = status.brokers.iter().map(|b| b.routing_subgroups).sum();
    report.metric("routing.route_ns", s.median("routing.route_ns"), "ns");
    report.metric(
        "routing.subscribe_ns",
        s.median("routing.subscribe_ns"),
        "ns",
    );
    report.metric("routing.entries", entries as f64, "count");
    report.metric("routing.subgroups", subgroups as f64, "count");
    report.metric(
        "routing.forward_ratio",
        s.subscriptions_forwarded as f64 / s.subscriptions_in.max(1) as f64,
        "share",
    );

    // matcher
    report.metric("matcher.match_ns", s.median("matcher.match_ns"), "ns");
    report.metric(
        "matcher.selectivity",
        s.matched_entries as f64 / s.scanned_entries.max(1) as f64,
        "share",
    );

    // mobility
    let wal_appends_ns = s
        .spans
        .get("mobility.wal_append_ns")
        .cloned()
        .unwrap_or_default();
    report.metric(
        "mobility.wal_appends_per_move",
        per_move(s.count("mobility.wal_append_ns") as f64),
        "count",
    );
    report.metric("mobility.wal_append_us", mean(&wal_appends_ns) / 1e3, "us");
    // Counterpart-buffered deliveries replayed to the new border broker,
    // per move of the live run (the replay's zero-delay links buffer none).
    let live_moves = live_schedule
        .actions
        .iter()
        .filter(|(_, a)| matches!(a, crate::spec::Action::Move(_)))
        .count();
    let replayed: u64 = w
        .reports
        .iter()
        .flat_map(|r| &r.brokers)
        .flat_map(|b| &b.relocations)
        .filter(|(name, _)| name == "mobility.replayed")
        .map(|(_, n)| n)
        .sum();
    report.metric(
        "mobility.buffered_per_move",
        if live_moves == 0 {
            0.0
        } else {
            replayed as f64 / live_moves as f64
        },
        "count",
    );
    let (hold_sum, hold_count) =
        w.reports
            .iter()
            .flat_map(|r| &r.brokers)
            .fold((0u64, 0u64), |(sum, count), b| {
                (
                    sum + b.handoff_latency_micros.sum(),
                    count + b.handoff_latency_micros.count(),
                )
            });
    report.metric(
        "mobility.handoff_hold_us",
        if hold_count == 0 {
            0.0
        } else {
            hold_sum as f64 / hold_count as f64
        },
        "us",
    );

    // obs
    let mut rtts = w.status_rtt_us.clone();
    report.metric("obs.status_rtt_us", median(&mut rtts), "us");
    report.metric(
        "obs.trace_overhead_share",
        traced.wall_s / untraced.wall_s.max(1e-9) - 1.0,
        "share",
    );

    // load generator
    let mut late = w.observed.gen_late_us.clone();
    report.metric("load.gen_late_p99_us", quantile(&mut late, 0.99), "us");

    println!(
        "traced replay: {} publications, {} spans, {} frames, codec mismatches {}, \
         replay wall {:.2} s traced / {:.2} s untraced{}",
        traced.observed.published,
        s.spans.values().map(Vec::len).sum::<usize>(),
        s.frames,
        s.codec_mismatches,
        traced.wall_s,
        untraced.wall_s,
        if args.kind == Kind::Roaming {
            format!(
                ", {moves} moves, {} WAL appends",
                s.count("mobility.wal_append_ns")
            )
        } else {
            String::new()
        }
    );
    report.attempted = traced.observed.published.max(1) as u64;
    report.failed = crate::failed_publications(&traced.observed) + s.codec_mismatches;
    report.correct = live_ok && replay_ok && s.codec_mismatches == 0;
    Ok(())
}
