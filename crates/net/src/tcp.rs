//! [`TcpDriver`]: the sans-IO [`Driver`] over real TCP sockets.
//!
//! A deployment is a set of OS processes, each running one `TcpDriver`
//! hosting a subset of the global node space — classically one broker per
//! process (the `rebeca-node` binary), plus one process per application
//! hosting its client nodes.  Every process shares the same broker
//! topology, so broker `i` is [`NodeId`] `i` everywhere; client nodes get
//! ids above the broker range, allocated by the process that hosts them.
//!
//! A `TcpDriver` is the wall-clock event loop of `rebeca-core`
//! ([`WallDriver`]) over a TCP [`Transport`]: the loop dispatches due
//! events and routes sends between hosted nodes; this module places nodes,
//! frames sends to other processes onto their links and feeds what the
//! reader threads receive back into the loop.  The loop writes outbound
//! frames onto their sockets itself; a per-link keeper thread dials,
//! heart-beats, replays after a reconnect and takes over the socket only
//! while a slow peer leaves a backlog, and per-connection reader and
//! ack-pump threads do the blocking reads (see [`link`](crate::link) module
//! docs).
//!
//! # Remote nodes
//!
//! [`Driver::add_node`] calls for nodes another process hosts park the
//! state as an inert *placeholder*: it is never dispatched, and reading it
//! through [`Driver::node`] observes the initial state only.  Inspect
//! brokers and client logs from the process that hosts them.
//!
//! # Link delays
//!
//! Configured [`DelayModel`]s are honoured over TCP: the sender samples the
//! delay and ships it in the frame; the receiver schedules the event that
//! much later than its arrival (clamped per direction, so the link stays
//! FIFO).  Deployments that want raw socket latency configure
//! `DelayModel::Constant(0)`.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebeca_broker::Message;
use rebeca_core::{
    Driver, MobileBroker, MobilitySystem, RebecaError, SystemBuilder, SystemNode, Transport,
    WallDriver, WallState,
};
use rebeca_obs::{LinkStatus, SpanRecord, StatusReport, TraceReport};
use rebeca_sim::{DelayModel, Metrics, NodeId, SimDuration, SimTime};

use crate::endpoint::Endpoint;
use crate::link::{
    spawn_acceptor, FaultPlan, Inbound, LinkConfig, LinkEvent, LinkHandle, LinkRegistry, Sent,
};
use crate::wire::Frame;

/// Configuration of one process of a TCP deployment.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Listen endpoint of every broker, indexed by topology index (broker
    /// `i` is `NodeId(i)` in every process).
    endpoints: Vec<Endpoint>,
    /// Which brokers THIS process hosts (empty for a pure client process).
    local: BTreeSet<usize>,
    /// Where this process listens.  Defaults to the endpoint of its lowest
    /// hosted broker, or an ephemeral loopback port for client processes.
    listen: Option<Endpoint>,
    /// Restart epoch carried in every handshake.  Readers fence peers
    /// whose epoch regresses, so a restarted process MUST bump it.
    epoch: u64,
    /// Seed of the per-process link-delay sampling.
    seed: u64,
    /// Interval without a write after which a link sends a heartbeat.
    heartbeat: Duration,
    /// Interval between dial attempts while a peer process is not up yet.
    dial_retry: Duration,
    /// Backoff cap for redials after a connection loss (the backoff starts
    /// at `dial_retry` and doubles with jitter up to this cap).
    redial_max: Duration,
    /// Maximum unacknowledged frames a link holds for replay across a
    /// reconnect; overflow fails the link loudly instead of losing frames.
    resend_window: usize,
    /// Heartbeat intervals of silence after which an inbound link is
    /// declared down (surfaced in status reports and the journal).
    missed_heartbeats: u32,
    /// Optional link-layer fault injection (tests, benches, chaos drills).
    fault: Option<FaultPlan>,
    /// First node id this process allocates for client nodes.  Defaults to
    /// the end of the broker range; set distinct bases on different client
    /// processes so their client node ids cannot collide.
    first_client_node: Option<usize>,
    /// The endpoint advertised in handshakes for reverse connections.
    /// Defaults to the listen host (wildcard hosts fall back to loopback)
    /// with the actually bound port; LAN deployments binding a wildcard
    /// must set this to a routable address.
    advertise: Option<Endpoint>,
}

impl NetConfig {
    /// Starts a config over the cluster's broker endpoints (index `i` is
    /// broker `i` of the topology).
    pub fn new(endpoints: Vec<Endpoint>) -> Self {
        Self {
            endpoints,
            local: BTreeSet::new(),
            listen: None,
            epoch: 0,
            seed: 0,
            heartbeat: Duration::from_millis(500),
            dial_retry: Duration::from_millis(50),
            redial_max: Duration::from_secs(1),
            resend_window: 1024,
            missed_heartbeats: 3,
            fault: None,
            first_client_node: None,
            advertise: None,
        }
    }

    /// Declares broker `index` as hosted by this process.
    pub fn host(mut self, index: usize) -> Self {
        self.local.insert(index);
        self
    }

    /// Declares every broker as hosted by this process (a single-process
    /// cluster over loopback TCP — useful for tests and benches).
    pub fn host_all(mut self) -> Self {
        self.local = (0..self.endpoints.len()).collect();
        self
    }

    /// Overrides the listen endpoint of this process.
    pub fn listen(mut self, endpoint: Endpoint) -> Self {
        self.listen = Some(endpoint);
        self
    }

    /// Sets the restart epoch carried in handshakes.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Seeds the link-delay sampling of this process.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the link-idle heartbeat interval.
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = interval;
        self
    }

    /// Caps the exponential redial backoff after a connection loss.
    pub fn redial_max(mut self, cap: Duration) -> Self {
        self.redial_max = cap;
        self
    }

    /// Bounds the per-link resend window (unacknowledged frames held for
    /// replay across reconnects).
    pub fn resend_window(mut self, frames: usize) -> Self {
        self.resend_window = frames;
        self
    }

    /// Sets how many silent heartbeat intervals declare an inbound link
    /// down.
    pub fn missed_heartbeats(mut self, count: u32) -> Self {
        self.missed_heartbeats = count;
        self
    }

    /// Installs a link-layer [`FaultPlan`] (drop connections after k
    /// frames) for chaos tests and reconnect benchmarks.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the first node id allocated for client nodes (see the field
    /// docs; only needed when several client processes join one cluster).
    pub fn first_client_node(mut self, base: usize) -> Self {
        self.first_client_node = Some(base);
        self
    }

    /// Sets the endpoint advertised in handshakes for reverse connections
    /// (needed when the process binds a wildcard address on a LAN — peers
    /// cannot dial `0.0.0.0` back).
    pub fn advertise(mut self, endpoint: Endpoint) -> Self {
        self.advertise = Some(endpoint);
        self
    }
}

/// The TCP deployment's [`Transport`]: node placement from the config, the
/// outbound links, and everything the reader threads hand to the loop.
struct TcpTransport {
    cfg: NetConfig,
    /// The endpoint peers dial back (advertised in every Hello).
    advertised: Endpoint,
    /// Listen endpoints of client peers, learned from their handshakes.
    learned: HashMap<usize, Endpoint>,
    /// Highest epoch seen per peer (handshake bookkeeping).
    peer_epochs: HashMap<usize, u64>,
    /// Outbound links: `(local node, peer node)` → the sending end.
    links: HashMap<(usize, usize), LinkHandle>,
    /// When each peer was last heard from (any frame on an inbound
    /// connection) — the source of `last_heartbeat_age_ms` in status
    /// reports.
    last_seen: HashMap<usize, Instant>,
    /// Whether the outbound connection to a peer is currently established,
    /// as reported by its link.
    link_up: HashMap<usize, bool>,
    /// Peers declared down by heartbeat silence (cleared as soon as any
    /// frame arrives from them again).
    stale_links: HashSet<usize>,
    /// When each currently-down peer link went down (either direction).
    down_since: HashMap<usize, Instant>,
    /// Lifetime redial attempts per peer, as reported by link keepers.
    redials: HashMap<usize, u64>,
    /// Next wall-clock instant at which heartbeat-silence liveness is
    /// re-evaluated (throttled to the heartbeat cadence).
    next_liveness: Instant,
    /// A handle on the inbound event channel, handed to links so
    /// they can report link state transitions.
    incoming_tx: Sender<Inbound>,
    incoming_rx: Receiver<Inbound>,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    wake_addr: std::net::SocketAddr,
    /// Nonce for the `link.tx`/`link.rx` span ids this process mints (the
    /// high bits keep them disjoint from broker-minted span ids).
    trace_nonce: u64,
}

/// The TCP transport driver.  See the module docs for the deployment and
/// execution model.
#[derive(Debug)]
pub struct TcpDriver(WallDriver<TcpTransport>);

impl TcpDriver {
    /// Binds the process listener and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Besides bind failures, rejects a config that hosts a broker index
    /// outside the cluster, and one whose co-hosted brokers have differing
    /// configured endpoints: the process has exactly one listener, so peers
    /// resolving any hosted broker must all arrive at the same address
    /// (otherwise their dial-retry loops would spin forever against an
    /// endpoint nobody serves).
    pub fn new(cfg: NetConfig) -> std::io::Result<Self> {
        if let Some(&bad) = cfg.local.iter().find(|&&i| i >= cfg.endpoints.len()) {
            return Err(std::io::Error::other(format!(
                "hosted broker index {bad} is outside the cluster \
                 (endpoints declare {} brokers, indices 0-{})",
                cfg.endpoints.len(),
                cfg.endpoints.len().saturating_sub(1)
            )));
        }
        let mut hosted = cfg.local.iter().filter_map(|&i| cfg.endpoints.get(i));
        if let Some(first) = hosted.next() {
            if let Some(other) = hosted.find(|&ep| ep != first) {
                return Err(std::io::Error::other(format!(
                    "co-hosted brokers must share one configured endpoint \
                     (got {first} and {other}); run them in separate \
                     processes or point their endpoints at the same address"
                )));
            }
        }
        let listen = match &cfg.listen {
            Some(ep) => ep.clone(),
            None => match cfg.local.iter().next() {
                Some(&lowest) => cfg.endpoints[lowest].clone(),
                None => Endpoint::new("127.0.0.1", 0),
            },
        };
        let listener = TcpListener::bind(listen.socket_addr()?)?;
        let bound = listener.local_addr()?;
        let advertised = match &cfg.advertise {
            Some(ep) => ep.clone(),
            None => {
                // A wildcard bind is reachable on every interface but
                // dialable on none; default the dial-back address to
                // loopback (LAN deployments set `NetConfig::advertise`).
                let host = match listen.host() {
                    "0.0.0.0" | "::" | "" => "127.0.0.1",
                    host => host,
                };
                Endpoint::new(host, bound.port())
            }
        };
        let (incoming_tx, incoming_rx) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        // Shared fencing/dedup bookkeeping of every reader thread: newest
        // epoch per peer, receive high-water mark per direction.
        let registry = Arc::new(LinkRegistry::default());
        let acceptor = spawn_acceptor(listener, incoming_tx.clone(), shutdown.clone(), registry);
        let seed = cfg.seed;
        let transport = TcpTransport {
            cfg,
            advertised,
            learned: HashMap::new(),
            peer_epochs: HashMap::new(),
            links: HashMap::new(),
            last_seen: HashMap::new(),
            link_up: HashMap::new(),
            stale_links: HashSet::new(),
            down_since: HashMap::new(),
            redials: HashMap::new(),
            next_liveness: Instant::now(),
            incoming_tx,
            incoming_rx,
            shutdown,
            acceptor: Some(acceptor),
            wake_addr: bound,
            trace_nonce: 0,
        };
        Ok(Self(WallDriver::new(transport, seed)))
    }

    /// The endpoint this process advertises in handshakes (its bound
    /// listener; the port is concrete even when configured as `:0`).
    pub fn listen_endpoint(&self) -> &Endpoint {
        &self.0.transport().advertised
    }

    /// The highest restart epoch a peer has announced, if it ever dialled
    /// this process.
    pub fn peer_epoch(&self, node: NodeId) -> Option<u64> {
        self.0.transport().peer_epochs.get(&node.index()).copied()
    }
}

impl TcpTransport {
    /// The endpoint of a peer node: brokers from the config, clients from
    /// their handshakes.
    fn endpoint_of(&self, peer: usize) -> Option<Endpoint> {
        self.cfg
            .endpoints
            .get(peer)
            .cloned()
            .or_else(|| self.learned.get(&peer).cloned())
    }

    /// Returns the link `(local, peer)`, spawning its keeper thread (which
    /// dials the peer) on first use.  `None` while the peer's endpoint is
    /// still unknown (a client that has not dialled in yet).
    fn link_for(&mut self, local: NodeId, peer: NodeId, delay: DelayModel) -> Option<&LinkHandle> {
        let key = (local.index(), peer.index());
        if !self.links.contains_key(&key) {
            let target = self.endpoint_of(peer.index())?;
            let hello = Frame::Hello {
                from: local,
                to: peer,
                epoch: self.cfg.epoch,
                listen: self.advertised.clone(),
                delay,
            };
            let link = LinkHandle::spawn(
                LinkConfig {
                    target,
                    peer,
                    hello,
                    heartbeat: self.cfg.heartbeat,
                    dial_retry: self.cfg.dial_retry,
                    redial_max: self.cfg.redial_max,
                    resend_window: self.cfg.resend_window,
                    epoch: self.cfg.epoch,
                    fault: self.cfg.fault,
                },
                self.incoming_tx.clone(),
                self.shutdown.clone(),
            );
            self.links.insert(key, link);
        }
        self.links.get(&key)
    }

    fn handle_inbound(&mut self, state: &mut WallState, inbound: Inbound) {
        match inbound {
            Inbound::Hello {
                from,
                to,
                epoch,
                listen,
                delay,
            } => {
                self.learned.insert(from.index(), listen);
                self.mark_alive(state, from.index());
                let known = self.peer_epochs.entry(from.index()).or_insert(epoch);
                *known = (*known).max(epoch);
                state.metrics_mut().incr("net.hello_in");
                if !state.hosts(to.index()) {
                    state.metrics_mut().incr("net.hello_misrouted");
                    return;
                }
                // A dial-in creates the reverse half of the link on demand
                // (the dialling side already ran ensure_link; this side may
                // never have heard of the peer — a client, typically).
                state.learn_link(to, from, delay);
            }
            Inbound::Message {
                from,
                to,
                delay,
                message,
            } => {
                self.mark_alive(state, from.index());
                if !state.hosts(to.index()) {
                    state.metrics_mut().incr("net.frames_misrouted");
                    return;
                }
                state.metrics_mut().incr("net.frames_in");
                self.record_link_span(state, "link.rx", to.index() as u64, from, to, &message);
                state.deliver(from, to, delay, message);
            }
            Inbound::Heartbeat { from, epoch } => {
                self.mark_alive(state, from.index());
                let known = self.peer_epochs.entry(from.index()).or_insert(epoch);
                *known = (*known).max(epoch);
                journal(
                    state,
                    "net.heartbeats_in",
                    "link.heartbeat",
                    format_args!("peer={from} epoch={epoch}"),
                );
            }
            Inbound::Link { peer, event } => {
                let p = peer.index();
                match event {
                    LinkEvent::Up { resent } => {
                        self.link_up.insert(p, true);
                        if !self.stale_links.contains(&p) {
                            self.down_since.remove(&p);
                        }
                        if resent > 0 {
                            state.metrics_mut().add("net.frames_resent", resent as u64);
                        }
                        journal(
                            state,
                            "net.link_up",
                            "link.up",
                            format_args!("peer={peer} resent={resent}"),
                        );
                    }
                    LinkEvent::Down { reason } => {
                        self.link_down(p);
                        journal(
                            state,
                            "net.link_down",
                            "link.drop",
                            format_args!("peer={peer} reason={reason}"),
                        );
                    }
                    LinkEvent::Redial { attempt } => {
                        self.redials.insert(p, attempt);
                        journal(
                            state,
                            "net.link_redial",
                            "link.redial",
                            format_args!("peer={peer} attempt={attempt}"),
                        );
                    }
                    LinkEvent::Fenced { expected } => {
                        self.link_down(p);
                        journal(
                            state,
                            "net.link_fenced",
                            "link.fenced",
                            format_args!("peer={peer} expected_epoch={expected} side=writer"),
                        );
                    }
                    LinkEvent::Failed { reason } => {
                        self.link_down(p);
                        journal(
                            state,
                            "net.link_failed",
                            "link.failed",
                            format_args!("peer={peer} reason={reason}"),
                        );
                    }
                }
            }
            Inbound::Stale {
                from,
                epoch,
                expected,
            } => journal(
                state,
                "net.link_fenced_rejected",
                "link.fenced",
                format_args!(
                    "peer={from} stale_epoch={epoch} expected_epoch={expected} side=reader"
                ),
            ),
            Inbound::Duplicate { from, seq } => {
                let _ = (from, seq);
                state.metrics_mut().incr("net.frames_duplicate");
            }
            Inbound::AdminDrop { peer } => {
                journal(
                    state,
                    "net.admin_drops",
                    "link.admin_drop",
                    format_args!("peer={peer}"),
                );
                for (_, link) in self.links.iter().filter(|(key, _)| key.1 == peer.index()) {
                    link.drop_connection();
                }
            }
            Inbound::Status {
                mut reply,
                events_after,
            } => {
                state.metrics_mut().incr("net.status_requests");
                let mut report = state.status(self);
                if let Some(seq) = events_after {
                    report.events = state
                        .metrics()
                        .journal()
                        .events_after(seq)
                        .cloned()
                        .collect();
                }
                // Best effort: a requester that hung up mid-flight loses
                // its own report, nothing else.
                if reply
                    .write_all(&Frame::StatusReport(report).encode_framed())
                    .is_err()
                {
                    state.metrics_mut().incr("net.status_reply_failed");
                }
            }
            Inbound::Trace {
                mut reply,
                spans_after,
            } => {
                state.metrics_mut().incr("net.trace_requests");
                let report = trace_report(state, spans_after);
                if reply
                    .write_all(&Frame::TraceReport(report).encode_framed())
                    .is_err()
                {
                    state.metrics_mut().incr("net.trace_reply_failed");
                }
            }
        }
    }

    /// Marks the outbound link to a peer down.
    fn link_down(&mut self, peer: usize) {
        self.link_up.insert(peer, false);
        self.down_since.entry(peer).or_insert_with(Instant::now);
    }

    /// Records a wire-hop span when a sampled message crosses a TCP link:
    /// `link.tx` at the sending process, `link.rx` at the receiving one.
    /// Leaf spans — they parent on whatever hop the envelope carries and
    /// nothing parents on them, so the driver needs no wire-format changes
    /// beyond the envelope's own trace tag.
    fn record_link_span(
        &mut self,
        state: &mut WallState,
        kind: &str,
        broker: u64,
        from: NodeId,
        to: NodeId,
        message: &Message,
    ) {
        if !state.metrics().span_enabled() {
            return;
        }
        let Some(ctx) = message.trace_context().filter(|c| c.sampled) else {
            return;
        };
        // High two bits keep driver-minted span ids disjoint from both the
        // broker core's nonce space and the mobility layer's.
        let nonce = self.trace_nonce | (0b11 << 62);
        self.trace_nonce += 1;
        let now = state.now().as_micros();
        state.metrics_mut().record_span(SpanRecord {
            seq: 0,
            trace_id: ctx.trace_id,
            span_id: rebeca_obs::span_id(ctx.trace_id, broker, nonce),
            parent_span: ctx.parent_span,
            broker,
            kind: kind.to_string(),
            start_micros: now,
            end_micros: now,
            detail: format!("from={from} to={to}"),
        });
    }

    /// Records inbound traffic from a peer, clearing any heartbeat-silence
    /// staleness the moment it speaks again.
    fn mark_alive(&mut self, state: &mut WallState, peer: usize) {
        self.last_seen.insert(peer, Instant::now());
        if self.stale_links.remove(&peer) {
            if self.link_up.get(&peer).copied().unwrap_or(false) {
                self.down_since.remove(&peer);
            }
            if state.metrics().journal_enabled() {
                let now = state.now();
                state.metrics_mut().record_event(
                    now,
                    "link.up",
                    format!("peer={peer} reason=traffic-resumed"),
                );
            }
        }
    }

    /// Declares links to silent peers down: a peer we have not heard from
    /// for more than `heartbeat × missed_heartbeats` is marked stale until
    /// it speaks again. Throttled to the heartbeat cadence.
    fn check_liveness(&mut self, state: &mut WallState) {
        let now = Instant::now();
        if now < self.next_liveness {
            return;
        }
        self.next_liveness = now + self.cfg.heartbeat;
        let limit = self.cfg.heartbeat * self.cfg.missed_heartbeats;
        let newly_stale: Vec<usize> = self
            .last_seen
            .iter()
            .filter(|(peer, at)| {
                !state.hosts(**peer) && !self.stale_links.contains(*peer) && at.elapsed() > limit
            })
            .map(|(peer, _)| *peer)
            .collect();
        for peer in newly_stale {
            self.stale_links.insert(peer);
            self.down_since.entry(peer).or_insert_with(Instant::now);
            journal(
                state,
                "net.link_stale",
                "link.drop",
                format_args!("peer={peer} reason=heartbeat-silence"),
            );
        }
    }
}

/// Counts `counter` and journals `kind` with `detail` when the journal is
/// on.
fn journal(state: &mut WallState, counter: &'static str, kind: &str, detail: std::fmt::Arguments) {
    state.metrics_mut().incr(counter);
    if state.metrics().journal_enabled() {
        let now = state.now();
        state
            .metrics_mut()
            .record_event(now, kind, detail.to_string());
    }
}

/// Builds the trace report this process serves: the retained span buffer,
/// optionally only past the `spans_after` cursor.
fn trace_report(state: &WallState, spans_after: Option<u64>) -> TraceReport {
    let spans = state.metrics().spans();
    let spans = match spans_after {
        Some(seq) => spans.spans_after(seq).cloned().collect(),
        None => spans.spans().cloned().collect(),
    };
    TraceReport {
        now_micros: state.now().as_micros(),
        spans,
    }
}

impl Transport for TcpTransport {
    /// Locally idle, in-flight network traffic gets this long per round
    /// before [`Driver::run_to_idle`] concludes the deployment is quiet.
    const IDLE_GRACE: Duration = Duration::from_millis(30);

    fn place(&self, next: usize) -> (usize, bool) {
        let brokers = self.cfg.endpoints.len();
        if next < brokers {
            return (next, self.cfg.local.contains(&next));
        }
        (next.max(self.cfg.first_client_node.unwrap_or(0)), true)
    }

    fn link_created(&mut self, local: NodeId, peer: NodeId, delay: DelayModel) {
        // Dial eagerly when the peer endpoint is already known (a broker); a
        // client peer's endpoint arrives with its handshake and the link
        // spawns on first send.
        self.link_for(local, peer, delay);
    }

    /// Frames the send onto the peer's link (written by the loop itself
    /// when the socket takes it).  A peer whose endpoint is still unknown
    /// is counted as unroutable.
    fn send(
        &mut self,
        state: &mut WallState,
        from: NodeId,
        to: NodeId,
        delay: SimDuration,
        message: Message,
    ) {
        self.record_link_span(state, "link.tx", from.index() as u64, from, to, &message);
        let frame = Frame::Message {
            from,
            to,
            delay_micros: delay.as_micros(),
            // The link assigns the real per-direction sequence number.
            seq: 0,
            message,
        };
        let model = state
            .link_delay(from, to)
            .unwrap_or(DelayModel::Constant(0));
        let Some(link) = self.link_for(from, to, model) else {
            state.unroutable(from, to);
            return;
        };
        // A send is only dropped once the link is gone for good: a fenced
        // link, a resend window overflow, or an unsplittable frame.
        // Transient disconnects never reject sends — the link queues and
        // replays them itself.
        let metrics = state.metrics_mut();
        match link.send(frame) {
            Sent::Accepted => metrics.incr("net.frames_out"),
            Sent::HandedOff => {
                metrics.incr("net.frames_out");
                metrics.incr("net.writes_handed_off");
            }
            Sent::Dropped => metrics.incr("net.frames_dropped"),
        }
    }

    /// Takes what the reader threads delivered, then re-evaluates heartbeat
    /// liveness.
    fn poll(&mut self, state: &mut WallState, timeout: Duration) -> bool {
        let first = if timeout.is_zero() {
            self.incoming_rx.try_recv().ok()
        } else {
            self.incoming_rx.recv_timeout(timeout).ok()
        };
        let arrived = first.is_some();
        if let Some(inbound) = first {
            self.handle_inbound(state, inbound);
            while let Ok(inbound) = self.incoming_rx.try_recv() {
                self.handle_inbound(state, inbound);
            }
        }
        self.check_liveness(state);
        arrived
    }

    /// One incarnation counter per broker: the process restart epoch and
    /// the WAL generation both count restarts, so reports show whichever
    /// has seen more.
    fn restart_epoch(&self) -> u64 {
        self.cfg.epoch
    }

    /// The broker's neighbours, with connection state from the links and
    /// freshness from inbound traffic.
    fn links(&self, state: &WallState, index: usize, _broker: &MobileBroker) -> Vec<LinkStatus> {
        state
            .neighbours(index)
            .iter()
            .map(|peer| {
                let p = peer.index();
                if state.hosts(p) {
                    // In-process links cannot drop and carry no heartbeats.
                    return LinkStatus {
                        peer: p as u64,
                        connected: true,
                        last_heartbeat_age_ms: None,
                        down_since_ms: None,
                        redial_attempts: 0,
                    };
                }
                let up = self.link_up.get(&p).copied().unwrap_or(false);
                LinkStatus {
                    peer: p as u64,
                    connected: up && !self.stale_links.contains(&p),
                    last_heartbeat_age_ms: self
                        .last_seen
                        .get(&p)
                        .map(|at| at.elapsed().as_millis() as u64),
                    down_since_ms: self
                        .down_since
                        .get(&p)
                        .map(|at| at.elapsed().as_millis() as u64),
                    redial_attempts: self.redials.get(&p).copied().unwrap_or(0),
                }
            })
            .collect()
    }
}

impl Driver for TcpDriver {
    fn add_node(&mut self, node: SystemNode) -> NodeId {
        self.0.add_node(node)
    }

    fn ensure_link(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> bool {
        self.0.ensure_link(a, b, delay)
    }

    fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        self.0.schedule_timer(node, at, tag)
    }

    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn step(&mut self) -> bool {
        self.0.step()
    }

    fn run_until(&mut self, until: SimTime) -> u64 {
        self.0.run_until(until)
    }

    fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.0.run_to_idle(max_events)
    }

    fn node(&self, id: NodeId) -> &SystemNode {
        self.0.node(id)
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SystemNode {
        self.0.node_mut(id)
    }

    fn replace_node(&mut self, id: NodeId, node: SystemNode) -> SystemNode {
        self.0.replace_node(id, node)
    }

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    fn metrics(&self) -> &Metrics {
        self.0.metrics()
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.0.metrics_mut()
    }

    fn status(&self) -> StatusReport {
        self.0.status()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its poll loop, then join it; keepers,
        // ack pumps and readers notice the flag on their own.
        let _ = TcpStream::connect(self.wake_addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("listen", &self.advertised)
            .field("connections_out", &self.links.len())
            .finish()
    }
}

/// Extension trait giving [`SystemBuilder`] a TCP build mode.
///
/// (The method lives here rather than on the builder itself because
/// `rebeca-core` must not depend on the transport crate; importing this
/// trait makes `builder.build_tcp(net)` read exactly like the built-in
/// `build()` / `build_threaded()` modes.)
pub trait SystemBuilderTcp {
    /// Builds the system on a [`TcpDriver`] configured by `net`: brokers
    /// this process hosts run here; all others are reached over TCP.
    fn build_tcp(self, net: NetConfig) -> Result<MobilitySystem, RebecaError>;
}

impl SystemBuilderTcp for SystemBuilder {
    fn build_tcp(self, net: NetConfig) -> Result<MobilitySystem, RebecaError> {
        let driver = TcpDriver::new(net).map_err(|e| RebecaError::Transport(e.to_string()))?;
        self.build_with(Box::new(driver))
    }
}
