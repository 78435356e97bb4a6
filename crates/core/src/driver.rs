//! The sans-IO driver boundary between the mobility runtime and an event
//! loop.
//!
//! The broker and client runtimes of this workspace are written sans-IO:
//! a node ([`MobileBroker`](crate::MobileBroker),
//! [`ClientNode`](crate::ClientNode)) is a pure state machine that consumes
//! timestamped [`Incoming`](rebeca_sim::Incoming) events and, through the
//! harvest side of [`Context`](rebeca_sim::Context), emits outgoing messages
//! and timer requests — it never sleeps, never opens a socket, never reads a
//! clock.  What *moves* those messages and *fires* those timers is a
//! [`Driver`].
//!
//! Two drivers ship with the workspace:
//!
//! * [`SimDriver`] — the deterministic discrete-event simulator of
//!   `rebeca-sim` (virtual time, seeded delays, single-threaded).  This is
//!   the testbed every protocol test runs on.
//! * [`WallDriver`](crate::WallDriver) — one single-threaded wall-clock
//!   event loop with real [`std::time::Instant`] timers.  Its
//!   [`Transport`](crate::Transport) decides where nodes live: all in this
//!   process under
//!   [`SystemBuilder::build_threaded`](crate::SystemBuilder::build_threaded),
//!   or spread over processes joined by TCP links in `rebeca-net`.  No
//!   async runtime required.
//!
//! [`MobilitySystem`](crate::MobilitySystem) is written against the trait
//! only, so another event loop plugs in by implementing [`Driver`] without
//! touching the protocol code.

use rebeca_obs::StatusReport;
use rebeca_sim::{DelayModel, Metrics, Network, NodeId, SimTime};

use crate::driver_util::{broker_status, in_process_links};
use crate::system::SystemNode;

/// An event loop hosting the deployment's nodes: it delivers timestamped
/// events *into* the sans-IO runtime and shuttles the harvested outgoing
/// messages and timer requests between nodes.
///
/// Implementations must preserve the transport contract the protocols are
/// verified against (Section 2.1 of the paper): links are point-to-point,
/// error-free and FIFO per direction, and a node's timers fire in tag order
/// at (or after) their requested time.
///
/// Drivers are `Send`: a whole [`MobilitySystem`](crate::MobilitySystem)
/// can move into a background thread, which is how multi-driver deployments
/// (e.g. the TCP transport of `rebeca-net` hosting brokers and clients in
/// separate drivers of one process) pump their broker side while the
/// application thread drives the client side.
pub trait Driver: Send {
    /// Adds a node and returns its id.
    fn add_node(&mut self, node: SystemNode) -> NodeId;

    /// Creates the bidirectional FIFO link between two nodes unless it
    /// already exists.  Returns `true` when the link was created.
    fn ensure_link(&mut self, a: NodeId, b: NodeId, delay: DelayModel) -> bool;

    /// Schedules a timer event for a node at the given absolute time (times
    /// in the past fire as soon as the driver runs) with a caller-chosen tag.
    fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64);

    /// The driver's current time.  Virtual for [`SimDriver`]; elapsed wall
    /// time since construction for wall-clock drivers.
    fn now(&self) -> SimTime;

    /// Processes exactly one event: the earliest pending one, which
    /// wall-clock drivers first wait for until it is due.  Returns `false`
    /// when nothing was pending.
    fn step(&mut self) -> bool;

    /// Runs the event loop until the driver's clock reaches `until`.
    /// Returns the number of events processed.
    fn run_until(&mut self, until: SimTime) -> u64;

    /// Runs until no further events are pending, bounded by `max_events`
    /// (a safety net against livelock).  Returns the number of events
    /// processed.  On wall-clock drivers this sleeps through real timer
    /// gaps; prefer [`Driver::run_until`] there.
    fn run_to_idle(&mut self, max_events: u64) -> u64;

    /// Immutable access to a node.  Callers guarantee the id exists (ids
    /// come from [`Driver::add_node`]).
    fn node(&self, id: NodeId) -> &SystemNode;

    /// Mutable access to a node (e.g. to drain an interactive client's
    /// mailbox between runs).
    fn node_mut(&mut self, id: NodeId) -> &mut SystemNode;

    /// Replaces a node's state in place, returning the old node — the
    /// crash/restart hook: links and in-flight traffic addressed to the node
    /// are untouched.
    fn replace_node(&mut self, id: NodeId, node: SystemNode) -> SystemNode;

    /// Number of nodes hosted by the driver.
    fn node_count(&self) -> usize;

    /// Read access to the global metrics.
    fn metrics(&self) -> &Metrics;

    /// Mutable access to the global metrics.
    fn metrics_mut(&mut self) -> &mut Metrics;

    /// A live status report over every broker the driver hosts: routing
    /// table size, WAL depth and checkpoint age, restart epoch, relocation
    /// activity, per-link liveness.  Identical in shape across drivers, so
    /// tests assert deterministically on the simulator what `rebeca-ctl`
    /// reads from a TCP cluster.  The report's `events` slice is empty —
    /// tailing the journal goes through [`Driver::metrics`] in process and
    /// through the `StatusRequest` cursor over the wire.
    fn status(&self) -> StatusReport;
}

/// The discrete-event simulation driver: a thin adapter over
/// [`rebeca_sim::Network`] giving the deterministic virtual-time testbed the
/// [`Driver`] contract.
pub struct SimDriver {
    network: Network<SystemNode>,
}

impl SimDriver {
    /// Creates an empty simulated network whose random delays derive from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            network: Network::new(seed),
        }
    }

    /// The underlying simulated network (e.g. for sim-only inspection that
    /// the driver contract does not cover).
    pub fn network(&self) -> &Network<SystemNode> {
        &self.network
    }
}

impl Driver for SimDriver {
    fn add_node(&mut self, node: SystemNode) -> NodeId {
        self.network.add_node(node)
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
        self.network.node(id)
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SystemNode {
        self.network.node_mut(id)
    }

    fn replace_node(&mut self, id: NodeId, node: SystemNode) -> SystemNode {
        self.network.replace_node(id, node)
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
            .filter_map(|i| match self.network.node(NodeId(i)) {
                SystemNode::Broker(broker) => Some(broker_status(
                    i as u64,
                    broker,
                    metrics,
                    now,
                    broker.machine().generation(),
                    in_process_links(broker),
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

impl std::fmt::Debug for SimDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDriver")
            .field("network", &self.network)
            .finish()
    }
}
