//! The wall-clock event loop shared by every deployment outside the
//! simulator.
//!
//! [`WallDriver`] is a single-threaded [`Driver`]: it owns the nodes this
//! process hosts, one due-time queue per node, one FIFO clamp per directed
//! link, the wall clock, the link-delay RNG and the metrics.  It dispatches
//! due events into the sans-IO nodes and routes what they harvest: sends to
//! a hosted node go straight into that node's queue, sends to any other node
//! go to the [`Transport`].  The transport holds only what differs between
//! deployments — which nodes this process hosts, how a message reaches a
//! node hosted elsewhere, how the loop waits for outside input, and the
//! link entries of status reports.
//!
//! Two transports exist: the in-process one behind
//! [`SystemBuilder::build_threaded`](crate::SystemBuilder::build_threaded),
//! which hosts every node and waits by sleeping, and the TCP links of
//! `rebeca-net`.
//!
//! Time is the elapsed wall time since the driver was built, reported as a
//! [`SimTime`].  Unlike [`SimDriver`](crate::SimDriver), runs are not
//! deterministic: scheduling jitter shifts when events become due.  Nodes
//! the transport does not host are parked as inert placeholders that are
//! never dispatched.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use rebeca_broker::Message;
use rebeca_obs::{LinkStatus, StatusReport};
use rebeca_sim::{Context, DelayModel, Incoming, Metrics, Node, NodeId, SimDuration, SimTime};

use crate::driver::Driver;
use crate::driver_util::{broker_status, in_process_links, FifoClamp, PendingQueue, WallClock};
use crate::mobile_broker::MobileBroker;
use crate::system::SystemNode;

/// Upper bound on one wait for outside input before the loop re-checks its
/// deadlines.
const MAX_WAIT: Duration = Duration::from_millis(1);

/// Lower bound on one wait, so a deadline a few microseconds out does not
/// spin the loop.
const MIN_WAIT: Duration = Duration::from_micros(20);

/// Settling window [`Driver::run_to_idle`] adds past the next deadline, so
/// cascades of follow-up events drain in one phase.
const SETTLE: SimDuration = SimDuration::from_millis(20);

/// Idle grace rounds [`Driver::run_to_idle`] waits for outside input before
/// it concludes the deployment is quiet.
const IDLE_ROUNDS: u32 = 3;

/// What differs between wall-clock deployments; everything else lives in
/// [`WallDriver`].
///
/// Methods that feed outside input into the loop get the loop's
/// [`WallState`].
pub trait Transport: Send + std::fmt::Debug {
    /// How long [`Driver::run_to_idle`] waits for outside input, per round,
    /// once nothing is pending locally.  Zero when nothing can arrive from
    /// outside.
    const IDLE_GRACE: Duration;

    /// Places the next node: given the loop's next free index, returns the
    /// index the node gets and whether this process hosts it.
    fn place(&self, next: usize) -> (usize, bool);

    /// A link between hosted node `local` and node `peer`, hosted elsewhere,
    /// was created.
    fn link_created(&mut self, local: NodeId, peer: NodeId, delay: DelayModel);

    /// Sends a message from a hosted node to a node this process does not
    /// host; the receiver delays it by `delay` after arrival.
    fn send(
        &mut self,
        state: &mut WallState,
        from: NodeId,
        to: NodeId,
        delay: SimDuration,
        message: Message,
    );

    /// Waits at most `timeout` for outside input and feeds whatever arrived
    /// into `state`.  A zero timeout only takes what is already there.
    /// Returns `true` when any input arrived.
    fn poll(&mut self, state: &mut WallState, timeout: Duration) -> bool;

    /// The restart epoch of this process; status reports show the larger of
    /// it and each broker's WAL generation.
    fn restart_epoch(&self) -> u64;

    /// The link entries of one hosted broker's status.
    fn links(&self, state: &WallState, index: usize, broker: &MobileBroker) -> Vec<LinkStatus>;
}

/// The in-process transport: this process hosts every node, and nothing
/// arrives from outside, so waiting is sleeping.
#[derive(Debug)]
pub(crate) struct InProcess;

impl Transport for InProcess {
    const IDLE_GRACE: Duration = Duration::ZERO;

    fn place(&self, next: usize) -> (usize, bool) {
        (next, true)
    }

    fn link_created(&mut self, _local: NodeId, _peer: NodeId, _delay: DelayModel) {}

    fn send(
        &mut self,
        state: &mut WallState,
        from: NodeId,
        to: NodeId,
        _delay: SimDuration,
        _message: Message,
    ) {
        // Every node added is hosted, so `to` was never added.
        state.unroutable(from, to);
    }

    fn poll(&mut self, _state: &mut WallState, timeout: Duration) -> bool {
        if !timeout.is_zero() {
            std::thread::sleep(timeout);
        }
        false
    }

    fn restart_epoch(&self) -> u64 {
        0
    }

    fn links(&self, _state: &WallState, _index: usize, broker: &MobileBroker) -> Vec<LinkStatus> {
        in_process_links(broker)
    }
}

/// The transport-independent state of a [`WallDriver`], lent to its
/// [`Transport`] while that feeds outside input into the loop.
pub struct WallState {
    /// Hosted nodes, by node index.
    nodes: HashMap<usize, SystemNode>,
    /// Inert stand-ins for nodes hosted by other processes.
    placeholders: HashMap<usize, SystemNode>,
    /// Per hosted node: the peers it may send to.
    neighbours: HashMap<usize, Vec<NodeId>>,
    delays: HashMap<(NodeId, NodeId), DelayModel>,
    /// Due-time watermark per directed link.  A pair is either hosted →
    /// hosted or remote → hosted, so one clamp keeps both kinds FIFO.
    clamp: FifoClamp<(NodeId, NodeId)>,
    /// Events not yet dispatched, per hosted node.
    pending: HashMap<usize, PendingQueue>,
    clock: WallClock,
    rng: StdRng,
    metrics: Metrics,
    next_node: usize,
}

impl WallState {
    /// Elapsed wall time since the driver was built.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Whether this process hosts node `index`.
    pub fn hosts(&self, index: usize) -> bool {
        self.nodes.contains_key(&index)
    }

    /// The metrics store.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the metrics store.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The delay model of the link `from → to`, if the link exists.
    pub fn link_delay(&self, from: NodeId, to: NodeId) -> Option<DelayModel> {
        self.delays.get(&(from, to)).copied()
    }

    /// The peers hosted node `index` may send to.
    pub fn neighbours(&self, index: usize) -> &[NodeId] {
        self.neighbours.get(&index).map_or(&[], Vec::as_slice)
    }

    /// Number of nodes, hosted and placeholder.
    fn node_count(&self) -> usize {
        self.nodes.len() + self.placeholders.len()
    }

    /// Queues a message that arrived from outside for hosted node `to`, due
    /// `delay` after now (clamped so the link stays FIFO).  A message for a
    /// node this process does not host is dropped.
    pub fn deliver(&mut self, from: NodeId, to: NodeId, delay: SimDuration, message: Message) {
        if self.hosts(to.index()) {
            let due = self.clock.now() + delay;
            self.enqueue(from, to, due, message);
        }
    }

    /// Records a link of hosted node `local` (e.g. one a peer opened by
    /// dialling in): `local` may now send to `peer`.
    pub fn learn_link(&mut self, local: NodeId, peer: NodeId, delay: DelayModel) {
        self.delays.entry((local, peer)).or_insert(delay);
        self.delays.entry((peer, local)).or_insert(delay);
        let neighbours = self.neighbours.entry(local.index()).or_default();
        if !neighbours.contains(&peer) {
            neighbours.push(peer);
        }
    }

    /// Counts and journals a send this process cannot route: no link
    /// between the two nodes, or a peer the transport cannot reach yet.
    pub fn unroutable(&mut self, from: NodeId, to: NodeId) {
        self.metrics.incr("net.frames_unroutable");
        if self.metrics.journal_enabled() {
            let now = self.clock.now();
            self.metrics
                .record_event(now, "link.unroutable", format!("from={from} to={to}"));
        }
    }

    /// The status report over every hosted broker, sorted by index.  The
    /// `events` slice is empty.
    pub fn status<T: Transport>(&self, transport: &T) -> StatusReport {
        let now = self.clock.now();
        let mut brokers: Vec<_> = self
            .nodes
            .iter()
            .filter_map(|(&index, node)| match node {
                SystemNode::Broker(broker) => Some(broker_status(
                    index as u64,
                    broker,
                    &self.metrics,
                    now,
                    transport.restart_epoch().max(broker.machine().generation()),
                    transport.links(self, index, broker),
                )),
                SystemNode::Client(_) => None,
            })
            .collect();
        brokers.sort_by_key(|b| b.broker);
        StatusReport {
            now_micros: now.as_micros(),
            node_count: self.node_count() as u64,
            brokers,
            events: Vec::new(),
        }
    }

    /// Pushes a message into hosted node `to`'s queue at `due`, clamped per
    /// direction.
    fn enqueue(&mut self, from: NodeId, to: NodeId, due: SimTime, message: Message) {
        let due = self.clamp.clamp((from, to), due);
        self.pending
            .get_mut(&to.index())
            .expect("hosted node has a queue")
            .push(due, Incoming::Message { from, message });
    }

    /// The earliest pending event over every hosted node, as `(due, node)`.
    fn earliest(&self) -> Option<(SimTime, usize)> {
        self.pending
            .iter()
            .filter_map(|(&index, queue)| queue.next_due().map(|due| (due, index)))
            .min()
    }

    fn slot(&mut self, id: NodeId) -> &mut SystemNode {
        self.nodes
            .get_mut(&id.index())
            .or_else(|| self.placeholders.get_mut(&id.index()))
            .expect("node id from add_node")
    }
}

/// The wall-clock [`Driver`]: one event loop over the nodes its
/// [`Transport`] places here.  See the module docs.
pub struct WallDriver<T: Transport> {
    state: WallState,
    transport: T,
}

impl<T: Transport> WallDriver<T> {
    /// Starts the clock of an empty loop over `transport`; `seed` feeds the
    /// link-delay sampling.
    pub fn new(transport: T, seed: u64) -> Self {
        Self {
            state: WallState {
                nodes: HashMap::new(),
                placeholders: HashMap::new(),
                neighbours: HashMap::new(),
                delays: HashMap::new(),
                clamp: FifoClamp::new(),
                pending: HashMap::new(),
                clock: WallClock::anchored_now(SimTime::ZERO),
                rng: StdRng::seed_from_u64(seed),
                metrics: Metrics::new(),
                next_node: 0,
            },
            transport,
        }
    }

    /// The transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Dispatches the earliest due event of hosted node `index`, if any, and
    /// routes what the node harvested.
    fn dispatch(&mut self, index: usize, now: SimTime) -> bool {
        let state = &mut self.state;
        let Some(pending) = state
            .pending
            .get_mut(&index)
            .and_then(|queue| queue.pop_due(now))
        else {
            return false;
        };
        // A node observes its event no earlier than the event's deadline,
        // even if the loop woke early.
        let at = pending.due.max(now);
        // Move the node and its neighbour list out for the dispatch (no
        // per-event clone) and put both back before routing the harvest.
        let mut node = state
            .nodes
            .remove(&index)
            .expect("dispatch targets a hosted node");
        let neighbours = state.neighbours.remove(&index).unwrap_or_default();
        let id = NodeId::new(index);
        let mut ctx = Context::external(at, id, &neighbours, &mut state.metrics);
        node.handle(&mut ctx, pending.event);
        let (outgoing, timers) = ctx.into_harvest();
        state.nodes.insert(index, node);
        state.neighbours.insert(index, neighbours);
        for (to, message) in outgoing {
            self.send_from(id, to, at, message);
        }
        let queue = self
            .state
            .pending
            .get_mut(&index)
            .expect("hosted node has a queue");
        for (delay, tag) in timers {
            queue.push(at + delay, Incoming::Timer { tag });
        }
        true
    }

    /// Routes one harvested send: into a hosted node's queue, or to the
    /// transport.  A send over no link is counted, not a panic.
    fn send_from(&mut self, from: NodeId, to: NodeId, at: SimTime, message: Message) {
        let state = &mut self.state;
        let Some(model) = state.link_delay(from, to) else {
            state.unroutable(from, to);
            return;
        };
        let delay = model.sample(&mut state.rng);
        state.metrics.incr("network.messages");
        if state.hosts(to.index()) {
            state.enqueue(from, to, at + delay, message);
        } else {
            self.transport.send(state, from, to, delay, message);
        }
    }

    /// Runs the loop until the wall clock reaches `until`.
    fn run_phase(&mut self, until: SimTime) -> u64 {
        let mut processed = 0;
        loop {
            self.transport.poll(&mut self.state, Duration::ZERO);
            let now = self.state.now();
            if now >= until {
                return processed;
            }
            let next = self.state.earliest();
            if let Some((due, index)) = next {
                if due <= now && self.dispatch(index, now) {
                    processed += 1;
                    continue;
                }
            }
            // Nothing due: wait for outside input until the next deadline
            // or the phase end, whichever is first.
            let horizon = next.map_or(until, |(due, _)| due.min(until));
            let wait = self
                .state
                .clock
                .to_wall(horizon)
                .saturating_duration_since(Instant::now())
                .clamp(MIN_WAIT, MAX_WAIT);
            self.transport.poll(&mut self.state, wait);
        }
    }
}

impl<T: Transport> Driver for WallDriver<T> {
    fn add_node(&mut self, node: SystemNode) -> NodeId {
        let state = &mut self.state;
        let (index, hosted) = self.transport.place(state.next_node);
        state.next_node = index + 1;
        if hosted {
            state.nodes.insert(index, node);
            state.pending.insert(index, PendingQueue::default());
        } else {
            state.placeholders.insert(index, node);
        }
        NodeId::new(index)
    }

    fn ensure_link(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> bool {
        let state = &mut self.state;
        if state.delays.contains_key(&(a, b)) {
            return false;
        }
        state.delays.insert((a, b), delay);
        state.delays.insert((b, a), delay);
        for (x, y) in [(a, b), (b, a)] {
            if state.hosts(x.index()) {
                state.learn_link(x, y, delay);
                if !state.hosts(y.index()) {
                    self.transport.link_created(x, y, delay);
                }
            }
        }
        true
    }

    fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        let now = self.state.now();
        let Some(queue) = self.state.pending.get_mut(&node.index()) else {
            // Timers on remote nodes belong to the hosting process.
            self.state.metrics.incr("net.timer_misrouted");
            return;
        };
        queue.push(at.max(now), Incoming::Timer { tag });
    }

    fn now(&self) -> SimTime {
        self.state.now()
    }

    fn step(&mut self) -> bool {
        // Dispatch the earliest pending event, waiting up to its deadline.
        // The wait watches for outside input, so a message that arrives
        // (and becomes due) before a far-out timer is dispatched first.
        loop {
            self.transport.poll(&mut self.state, Duration::ZERO);
            let Some((due, index)) = self.state.earliest() else {
                return false;
            };
            let wait = self
                .state
                .clock
                .to_wall(due)
                .saturating_duration_since(Instant::now());
            if wait.is_zero() || !self.transport.poll(&mut self.state, wait) {
                let now = self.state.now().max(due);
                return self.dispatch(index, now);
            }
        }
    }

    fn run_until(&mut self, until: SimTime) -> u64 {
        self.run_phase(until)
    }

    fn run_to_idle(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        let mut idle_rounds = 0;
        while processed < max_events && idle_rounds < IDLE_ROUNDS {
            self.transport.poll(&mut self.state, Duration::ZERO);
            match self.state.earliest() {
                Some((due, _)) => {
                    idle_rounds = 0;
                    let target = due.max(self.state.now()) + SETTLE;
                    processed += self.run_phase(target);
                }
                None => {
                    // Idle here; give input in flight a grace window before
                    // concluding the deployment is quiet.
                    idle_rounds += 1;
                    if self.transport.poll(&mut self.state, T::IDLE_GRACE) {
                        idle_rounds = 0;
                    }
                }
            }
        }
        processed
    }

    fn node(&self, id: NodeId) -> &SystemNode {
        self.state
            .nodes
            .get(&id.index())
            .or_else(|| self.state.placeholders.get(&id.index()))
            .expect("node id from add_node")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SystemNode {
        self.state.slot(id)
    }

    fn replace_node(&mut self, id: NodeId, node: SystemNode) -> SystemNode {
        std::mem::replace(self.state.slot(id), node)
    }

    fn node_count(&self) -> usize {
        self.state.node_count()
    }

    fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.state.metrics
    }

    fn status(&self) -> StatusReport {
        self.state.status(&self.transport)
    }
}

impl<T: Transport> std::fmt::Debug for WallDriver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WallDriver")
            .field("transport", &self.transport)
            .field("local_nodes", &self.state.nodes.len())
            .field("remote_nodes", &self.state.placeholders.len())
            .field(
                "pending",
                &self.state.pending.values().map(|q| q.len()).sum::<usize>(),
            )
            .finish()
    }
}
