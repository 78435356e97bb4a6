//! The link layer: self-healing directed TCP connections, written from the
//! driver loop itself.
//!
//! A TCP link between two nodes is made of up to two *directed*
//! connections, each owned by the sending side:
//!
//! * the **sender** is a [`LinkHandle`], shared by the driver loop and one
//!   per-link **keeper** thread under a mutex.  On the *fast path* the loop
//!   sequences, encodes and resend-buffers each frame in
//!   [`LinkHandle::send`] and, while the connection is up and nothing is
//!   backlogged, writes it onto the socket right there — no hand-off to
//!   another thread.  The socket carries a constant send timeout of
//!   [`WRITE_TIMEOUT`], so a full socket buffer never wedges the loop: the
//!   loop marks the link `flushing` and hands the backlog to the keeper,
//!   which owns the socket until the backlog drains (exactly one side
//!   writes at a time).  The keeper does everything else: it dials the
//!   peer's listen endpoint (retrying until the peer process is up), sends
//!   the [`Frame::Hello`] handshake, writes [`Frame::Heartbeat`]s after
//!   the configured interval without a write, and when the connection
//!   breaks it *redials* with exponential backoff + jitter and replays the
//!   unacknowledged frames — frames sent while the link was down are
//!   retained, never dropped.  A per-connection **ack pump** thread reads
//!   the cumulative [`Frame::Ack`]s the peer writes back and raises a
//!   shared high-water mark; senders prune the bounded resend window from
//!   it before every overflow check and every replay.  Window overflow
//!   fails the link loudly ([`LinkEvent::Failed`]) rather than ever losing
//!   a frame silently.
//! * the **reader thread** ([`spawn_reader`]) serves one accepted
//!   connection: it decodes frames off the socket and forwards them as
//!   [`Inbound`] events into the driver's event loop channel, suppressing
//!   duplicate sequence numbers (replays of frames that did arrive before
//!   the crash) and acknowledging progress.  A corrupt stream (checksum
//!   mismatch, unknown tag) closes the connection with a typed error —
//!   never a panic.
//!
//! A data frame therefore wakes three threads per hop: the peer's reader,
//! the peer's event loop, and this side's ack pump.
//!
//! Epoch fencing makes the `Hello` restart epoch load-bearing: the shared
//! [`LinkRegistry`] records the newest epoch seen per peer node, a reader
//! rejects a `Hello` that regresses it (answering [`Frame::Fenced`]), and
//! established connections from a superseded epoch are torn down — a
//! zombie pre-crash incarnation can never interleave with its successor.
//!
//! TCP guarantees per-connection FIFO, and the resend window replays the
//! unacknowledged suffix in order on the *same* (new) connection, so
//! per-direction FIFO — the link contract of the paper's Section 2.1 —
//! holds across connection generations: driver send order → sequence order
//! in the resend window → socket order (replayed prefix first, whoever
//! writes) → reader order (duplicates dropped) → event channel order.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebeca_broker::Message;
use rebeca_sim::{DelayModel, NodeId, SimDuration};

use crate::endpoint::Endpoint;
use crate::wire::{Frame, WireError, FRAME_HEADER_LEN, MAX_FRAME_LEN};

/// How long one socket write may block: the driver loop then hands the
/// backlog to the keeper, and the keeper checks its commands before
/// retrying.
const WRITE_TIMEOUT: Duration = Duration::from_millis(1);

/// How long a reader blocks on the socket before re-checking the shutdown
/// flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// How long the acceptor sleeps between polls of its non-blocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// An event arriving over the network, forwarded into the driver loop.
#[derive(Debug)]
pub(crate) enum Inbound {
    /// A peer introduced itself on a fresh connection.
    Hello {
        /// The dialing node.
        from: NodeId,
        /// The local node the connection feeds.
        to: NodeId,
        /// The dialer's restart epoch.
        epoch: u64,
        /// Where the dialer's process can be dialled back.
        listen: Endpoint,
        /// The link's delay model.
        delay: DelayModel,
    },
    /// A protocol message for a local node.
    Message {
        /// The sending node.
        from: NodeId,
        /// The destination node.
        to: NodeId,
        /// The sender-sampled link delay to apply on top of the transfer.
        delay: SimDuration,
        /// The message.
        message: Message,
    },
    /// A liveness beacon from an identified peer (a heartbeat before the
    /// connection's `Hello` has no sender and is dropped at the reader).
    Heartbeat {
        /// The peer the connection was introduced by.
        from: NodeId,
        /// The peer's restart epoch.
        epoch: u64,
    },
    /// An admin status request; the driver answers by writing a
    /// [`Frame::StatusReport`] straight back onto `reply`.
    Status {
        /// A clone of the requesting connection's stream to answer on.
        reply: TcpStream,
        /// Journal cursor: when set, include events with sequence numbers
        /// strictly greater than this.
        events_after: Option<u64>,
    },
    /// An admin trace request; the driver answers by writing a
    /// [`Frame::TraceReport`] straight back onto `reply`.
    Trace {
        /// A clone of the requesting connection's stream to answer on.
        reply: TcpStream,
        /// Span cursor: when set, include spans with buffer sequence
        /// numbers strictly greater than this.
        spans_after: Option<u64>,
    },
    /// A link's outbound connection changed state.
    Link {
        /// The peer the link dials.
        peer: NodeId,
        /// What happened to the connection.
        event: LinkEvent,
    },
    /// A reader rejected (or tore down) a connection whose restart epoch
    /// regressed below the newest epoch seen from that node.
    Stale {
        /// The fenced node.
        from: NodeId,
        /// The stale epoch it presented.
        epoch: u64,
        /// The minimum epoch the registry accepts from it.
        expected: u64,
    },
    /// A reader suppressed a replayed frame it had already received.
    Duplicate {
        /// The sending node.
        from: NodeId,
        /// The duplicate sequence number.
        seq: u64,
    },
    /// An admin [`Frame::LinkDrop`] asked the driver to force-drop its
    /// connections towards `peer` (fault injection).
    AdminDrop {
        /// The peer whose links should be dropped.
        peer: NodeId,
    },
}

/// A state transition of one outbound connection, reported by its link
/// (keeper thread or driver loop) via [`Inbound::Link`].
#[derive(Debug)]
pub(crate) enum LinkEvent {
    /// Dial + handshake succeeded; `resent` unacknowledged frames were
    /// replayed from the resend window (0 on the first connection).
    Up {
        /// Frames replayed from the resend window.
        resent: usize,
    },
    /// An established connection was lost; the keeper is redialing.
    Down {
        /// Why the connection dropped.
        reason: String,
    },
    /// One reconnect attempt towards the peer (successful or not).
    Redial {
        /// Lifetime redial attempt count for this link.
        attempt: u64,
    },
    /// The peer fenced this link's epoch: a newer incarnation of the local
    /// node owns the identity, so the link stops permanently.
    Fenced {
        /// The minimum epoch the peer accepts.
        expected: u64,
    },
    /// The link failed permanently and loudly (resend window overflow or
    /// an unsplittable oversized frame) — never a silent drop.
    Failed {
        /// Why the link cannot honour its contract any more.
        reason: String,
    },
}

/// A command consumed by a link's keeper thread.
pub(crate) enum WriterCmd {
    /// The driver loop handed its backlog over (or failed the link); wake
    /// up and look at the shared state.
    Flush,
    /// The peer fenced this connection's epoch.
    Fenced {
        /// Connection generation the fence arrived on.
        generation: u64,
        /// The minimum epoch the peer accepts.
        expected: u64,
    },
    /// The connection broke: its read half hit EOF or an error, or a write
    /// failed.
    ConnLost {
        /// The generation that died.
        generation: u64,
        /// Why it died.
        reason: String,
    },
    /// Force-drop the current connection (admin fault injection); the
    /// keeper redials and replays as if the socket had broken.
    Drop,
}

/// Deterministic fault injection for the link layer: drop the connection
/// after a number of data frames have been written, exercising the
/// redial + resend path in tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Restrict the fault to links towards this peer node index
    /// (`None` = every link of the driver).
    pub peer: Option<usize>,
    /// Drop the connection once this many sequenced frames have been
    /// written on the link.
    pub drop_after_frames: u64,
    /// Fire once (`true`) or every `drop_after_frames` frames (`false`).
    pub once: bool,
}

impl FaultPlan {
    /// A one-shot plan: drop every link's connection after `frames`
    /// sequenced frames.
    pub fn drop_after(frames: u64) -> Self {
        Self {
            peer: None,
            drop_after_frames: frames,
            once: true,
        }
    }

    /// Restricts the plan to links towards one peer node index.
    pub fn on_peer(mut self, peer: usize) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Makes the plan recurring: fire every `drop_after_frames` frames.
    pub fn recurring(mut self) -> Self {
        self.once = false;
        self
    }
}

/// The knob set of one directed link.
pub(crate) struct LinkConfig {
    /// The peer's listen endpoint to dial.
    pub target: Endpoint,
    /// The peer node the link feeds.
    pub peer: NodeId,
    /// The handshake to (re)send on every fresh connection.
    pub hello: Frame,
    /// Idle interval after which a heartbeat is written.
    pub heartbeat: Duration,
    /// Constant dial cadence for the *first* connection (cluster startup).
    pub dial_retry: Duration,
    /// Backoff cap for redials after a connection loss.
    pub redial_max: Duration,
    /// Maximum unacknowledged frames held for replay; overflow fails the
    /// link loudly.
    pub resend_window: usize,
    /// The local process's restart epoch (stamped on heartbeats).
    pub epoch: u64,
    /// Optional fault injection plan.
    pub fault: Option<FaultPlan>,
}

/// Exponential backoff with deterministic jitter for redial attempt
/// `attempt` (1-based): `base * 2^(attempt-1)` capped at `max`, plus up to
/// 25% jitter derived from `seed` — so a cluster of keepers redialing the
/// same crashed peer does not thunder in lockstep.
fn redial_backoff(attempt: u64, base: Duration, max: Duration, seed: u64) -> Duration {
    let base_us = (base.as_micros() as u64).max(1);
    let max_us = (max.as_micros() as u64).max(base_us);
    let shift = (attempt.saturating_sub(1)).min(20) as u32;
    let exp_us = base_us.saturating_mul(1u64 << shift).min(max_us);
    // xorshift64 over (seed, attempt): cheap, deterministic, no rand dep.
    let mut x = (seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let jitter_bound = exp_us / 4;
    let jitter = if jitter_bound > 0 {
        x % (jitter_bound + 1)
    } else {
        0
    };
    Duration::from_micros(exp_us + jitter)
}

/// Verdict of [`LinkRegistry::admit`].
pub(crate) enum Admit {
    /// The epoch is current (or newer, now recorded); proceed.
    Ok,
    /// The epoch regressed: fence the connection.
    Stale {
        /// The minimum epoch the registry accepts from this node.
        expected: u64,
    },
}

/// Shared per-driver connection bookkeeping: the newest restart epoch seen
/// per peer node (for fencing) and the per-direction receive high-water
/// marks (for duplicate suppression and cumulative acks).  One instance is
/// shared by every reader thread of a driver.
#[derive(Debug, Default)]
pub(crate) struct LinkRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    /// Newest restart epoch seen per peer node index.
    epochs: HashMap<usize, u64>,
    /// Receive high-water mark per `(from, to)` direction.
    recv_high: HashMap<(usize, usize), u64>,
}

impl LinkRegistry {
    /// Judges a `Hello` from node `from` carrying `epoch`.  An epoch newer
    /// than the recorded one resets the node's receive high-water marks:
    /// the successor incarnation restarts its sequence numbers at 1, and
    /// its fresh frames must not be mistaken for the predecessor's
    /// duplicates.
    pub fn admit(&self, from: usize, epoch: u64) -> Admit {
        let mut inner = self.inner.lock().unwrap();
        match inner.epochs.get(&from).copied() {
            Some(known) if epoch < known => Admit::Stale { expected: known },
            Some(known) if epoch > known => {
                inner.epochs.insert(from, epoch);
                inner.recv_high.retain(|(f, _), _| *f != from);
                Admit::Ok
            }
            Some(_) => Admit::Ok,
            None => {
                inner.epochs.insert(from, epoch);
                Admit::Ok
            }
        }
    }

    /// The newest epoch seen from `from` (0 when never heard).
    pub fn current_epoch(&self, from: usize) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .epochs
            .get(&from)
            .copied()
            .unwrap_or(0)
    }

    /// Records `seq` on the `(from, to)` direction.  Returns `true` when
    /// the frame is fresh (forward it) and `false` for a duplicate (drop
    /// it, but still acknowledge).
    pub fn accept_seq(&self, from: usize, to: usize, seq: u64) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let high = inner.recv_high.entry((from, to)).or_insert(0);
        if seq <= *high {
            false
        } else {
            *high = seq;
            true
        }
    }

    /// The receive high-water mark of the `(from, to)` direction.
    pub fn recv_high(&self, from: usize, to: usize) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .recv_high
            .get(&(from, to))
            .copied()
            .unwrap_or(0)
    }
}

/// How the driver loop's [`LinkHandle::send`] left a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sent {
    /// Sequenced and resend-buffered; written onto the socket already, or
    /// queued for the keeper while the connection is down or backlogged.
    Accepted,
    /// Accepted, but the socket buffer filled up: the keeper now owns the
    /// socket and drains the backlog, so the loop never blocks on a slow
    /// peer.
    HandedOff,
    /// The link failed for good (fenced, resend window overflow, or an
    /// unsplittable frame); the frame is not sent.
    Dropped,
}

/// The sender state of one directed link, shared by the driver loop and the
/// link's keeper thread under one mutex.
///
/// Every sequenced frame sits in `unacked` from the moment it is sent until
/// the peer acknowledges it.  The `written`/`partial` cursor says how far
/// the *current* connection got, so exactly the suffix behind it is (re)sent;
/// `flushing` says who may write: the driver loop while it is clear, the
/// keeper while it is set — never both.
struct LinkState {
    /// The established connection, `None` while dialling or down.
    stream: Option<TcpStream>,
    /// Generation of `stream` (one per successful dial).
    generation: u64,
    /// Sequence number of the next frame sent.
    next_seq: u64,
    /// Unacknowledged frames, consecutive in sequence order.
    unacked: VecDeque<(u64, Arc<[u8]>)>,
    /// Highest sequence number fully written on the current connection.
    written: u64,
    /// Bytes of frame `written + 1` already written on the current
    /// connection.
    partial: usize,
    /// Highest sequence number written on any connection: the frames up to
    /// it are in flight, and the resend window bounds them.
    sent_high: u64,
    /// The keeper owns the socket until the backlog drains; meanwhile the
    /// driver loop only queues.
    flushing: bool,
    /// The link failed for good; the keeper exits and sends are dropped.
    failed: bool,
    /// When the last bytes went onto the socket (heartbeat pacing).
    last_write: Instant,
    /// Fault injection plan, if it applies to this link.
    fault: Option<FaultPlan>,
    /// Sequenced frames written since the fault plan last fired.
    fault_frames: u64,
}

impl LinkState {
    fn new(fault: Option<FaultPlan>) -> Self {
        Self {
            stream: None,
            generation: 0,
            next_seq: 1,
            unacked: VecDeque::new(),
            written: 0,
            partial: 0,
            sent_high: 0,
            flushing: false,
            failed: false,
            last_write: Instant::now(),
            fault,
            fault_frames: 0,
        }
    }

    /// Drops every frame the peer acknowledged (`<= acked`).  With
    /// `mid_write` the keeper may be writing frame `written + 1` right now,
    /// so only fully written frames go; a partly written frame is always
    /// kept, since its remaining bytes must still reach the socket for the
    /// peer's framing to stay intact.
    fn prune(&mut self, acked: u64, mid_write: bool) {
        let bound = if mid_write || self.partial > 0 {
            acked.min(self.written)
        } else {
            acked
        };
        while self.unacked.front().is_some_and(|(seq, _)| *seq <= bound) {
            self.unacked.pop_front();
        }
        // Acknowledged frames need no (re)write on this connection.
        self.written = self.written.max(bound);
    }

    /// The next frame to write on the current connection, with the number
    /// of its bytes already written.
    fn next_unwritten(&self) -> Option<(u64, Arc<[u8]>, usize)> {
        let front = self.unacked.front()?.0;
        let index = (self.written + 1).saturating_sub(front) as usize;
        self.unacked
            .get(index)
            .map(|(seq, bytes)| (*seq, bytes.clone(), self.partial))
    }

    /// Unacknowledged frames that were written at least once.
    fn in_flight(&self) -> usize {
        match self.unacked.front() {
            Some(&(front, _)) if self.sent_high >= front => (self.sent_high - front + 1) as usize,
            _ => 0,
        }
    }

    /// Records `n` more bytes of frame `seq` (of `len` bytes) on the socket;
    /// returns whether the frame is now complete.
    fn advance(&mut self, seq: u64, len: usize, n: usize) -> bool {
        self.last_write = Instant::now();
        self.partial += n;
        if self.partial < len {
            return false;
        }
        self.partial = 0;
        self.written = seq;
        self.sent_high = self.sent_high.max(seq);
        self.fault_frames += 1;
        true
    }

    /// Whether the fault plan drops the connection now.
    fn fault_fires(&mut self) -> bool {
        let Some(plan) = self.fault else {
            return false;
        };
        if self.fault_frames < plan.drop_after_frames {
            return false;
        }
        if plan.once {
            self.fault = None;
        } else {
            self.fault_frames = 0;
        }
        true
    }
}

/// What the driver loop, the keeper and the ack pumps of one link share.
struct LinkShared {
    peer: NodeId,
    resend_window: usize,
    /// The peer's cumulative acknowledgement: every sequence number up to
    /// it arrived.  Ack pumps raise it; senders prune from it lazily.
    acked: AtomicU64,
    state: Mutex<LinkState>,
    events: Sender<Inbound>,
    keeper: Sender<WriterCmd>,
}

impl LinkShared {
    fn lock(&self) -> MutexGuard<'_, LinkState> {
        self.state
            .lock()
            .expect("link state lock poisoned: a link thread panicked")
    }

    fn acked(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    fn event(&self, event: LinkEvent) {
        let _ = self.events.send(Inbound::Link {
            peer: self.peer,
            event,
        });
    }

    /// Checks the resend window after a frame went out; overflow fails the
    /// link loudly rather than ever losing a frame silently.
    fn check_window(&self, st: &mut LinkState) {
        let in_flight = st.in_flight();
        if in_flight > self.resend_window {
            self.fail(
                st,
                format!(
                    "resend window overflow: {in_flight} unacked frames exceed the limit of {}",
                    self.resend_window
                ),
            );
        }
    }

    /// Fails the link for good: closes the connection, reports
    /// [`LinkEvent::Failed`] and wakes the keeper so it exits.
    fn fail(&self, st: &mut LinkState, reason: String) {
        st.failed = true;
        if let Some(stream) = st.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.event(LinkEvent::Failed { reason });
        let _ = self.keeper.send(WriterCmd::Flush);
    }

    /// The driver loop lost the connection: tell the keeper (first, so its
    /// reason wins over the ack pump's EOF), then close the socket.
    fn lose(&self, st: &mut LinkState, reason: String) {
        let _ = self.keeper.send(WriterCmd::ConnLost {
            generation: st.generation,
            reason,
        });
        if let Some(stream) = st.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Writes as much of `bytes` as the socket takes before a write blocks for
/// [`WRITE_TIMEOUT`]; a count below `bytes.len()` means the buffer is full.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// The sending end of one directed link, owned by the driver loop.  See the
/// module docs for the split between the loop's fast path and the keeper.
pub(crate) struct LinkHandle {
    shared: Arc<LinkShared>,
}

impl LinkHandle {
    /// Creates the link and spawns its keeper thread, which dials the peer
    /// (retrying until `shutdown`) and reports [`LinkEvent`]s on `events`.
    pub fn spawn(cfg: LinkConfig, events: Sender<Inbound>, shutdown: Arc<AtomicBool>) -> Self {
        let (keeper_tx, keeper_rx) = channel();
        let fault = cfg
            .fault
            .filter(|f| f.peer.is_none() || f.peer == Some(cfg.peer.index()));
        let shared = Arc::new(LinkShared {
            peer: cfg.peer,
            resend_window: cfg.resend_window,
            acked: AtomicU64::new(0),
            state: Mutex::new(LinkState::new(fault)),
            events,
            keeper: keeper_tx,
        });
        let keeper_shared = shared.clone();
        std::thread::spawn(move || keep(keeper_shared, cfg, keeper_rx, shutdown));
        Self { shared }
    }

    /// Sends one [`Frame::Message`] from the driver loop: assigns its
    /// per-direction sequence number (splitting an oversized batch into
    /// halves, each sequenced in order), buffers it for resend, and — when
    /// the connection is up and nothing is backlogged — writes it onto the
    /// socket right here.  Never blocks longer than one [`WRITE_TIMEOUT`].
    pub fn send(&self, frame: Frame) -> Sent {
        let shared = &self.shared;
        let acked = shared.acked();
        let mut st = shared.lock();
        if st.failed {
            return Sent::Dropped;
        }
        let mid_write = st.flushing;
        st.prune(acked, mid_write);
        // A frame over the receiver's size limit is split into halves
        // (batch payloads only) until every piece fits; pieces are
        // sequenced in final order, so per-direction FIFO — and therefore
        // exactly-once delivery — is preserved.
        let mut worklist = VecDeque::from([frame]);
        while let Some(frame) = worklist.pop_front() {
            let Frame::Message {
                from,
                to,
                delay_micros,
                seq: _,
                message,
            } = frame
            else {
                return Sent::Dropped;
            };
            let frame = Frame::Message {
                from,
                to,
                delay_micros,
                seq: st.next_seq,
                message,
            };
            let bytes = frame.encode_framed();
            if bytes.len() > MAX_FRAME_LEN as usize + FRAME_HEADER_LEN {
                match split_frame(frame) {
                    Some((first, second)) => {
                        worklist.push_front(second);
                        worklist.push_front(first);
                        continue;
                    }
                    None => {
                        // An unsplittable message the peer is guaranteed to
                        // reject: the link cannot honour its error-free
                        // contract any more — fail it loudly rather than
                        // silently dropping one message.
                        shared.fail(
                            &mut st,
                            format!(
                                "unsplittable frame of {} bytes exceeds the {MAX_FRAME_LEN} \
                                 payload limit",
                                bytes.len()
                            ),
                        );
                        return Sent::Dropped;
                    }
                }
            }
            let seq = st.next_seq;
            st.next_seq += 1;
            st.unacked.push_back((seq, bytes.into()));
        }
        if st.stream.is_none() || st.flushing {
            return Sent::Accepted;
        }
        // Fast path: the loop owns the socket while nothing is backlogged.
        while let Some((seq, bytes, offset)) = st.next_unwritten() {
            let stream = st.stream.as_ref().expect("checked above");
            match write_some(stream, &bytes[offset..]) {
                Ok(n) => {
                    if !st.advance(seq, bytes.len(), n) {
                        // The socket buffer is full: hand the backlog to the
                        // keeper instead of waiting for the peer to read.
                        st.flushing = true;
                        let _ = shared.keeper.send(WriterCmd::Flush);
                        return Sent::HandedOff;
                    }
                    shared.check_window(&mut st);
                    if st.failed {
                        return Sent::Accepted;
                    }
                    if st.fault_fires() {
                        shared.lose(&mut st, "fault-injected drop".into());
                        return Sent::Accepted;
                    }
                }
                Err(e) => {
                    shared.lose(&mut st, format!("write failed: {e}"));
                    return Sent::Accepted;
                }
            }
        }
        Sent::Accepted
    }

    /// Force-drops the current connection (admin fault injection); the
    /// keeper redials and replays as if the socket had broken.
    pub fn drop_connection(&self) {
        let _ = self.shared.keeper.send(WriterCmd::Drop);
    }
}

/// Spawns the ack pump for one connection: it reads the peer's cumulative
/// [`Frame::Ack`]s off the connection's read half and raises the link's
/// shared high-water mark — no message to anyone, senders prune from it
/// lazily.  A [`Frame::Fenced`] rejection, EOF or an error is reported to
/// the keeper (tagged with the connection generation), so it notices a peer
/// that died silently between writes.  Exits then, or on shutdown.
fn spawn_ack_pump(
    stream: TcpStream,
    generation: u64,
    shared: Arc<LinkShared>,
    shutdown: Arc<AtomicBool>,
) {
    std::thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut stream = stream;
        let mut buf: Vec<u8> = Vec::with_capacity(256);
        let mut chunk = [0u8; 4096];
        let lost = || {
            let _ = shared.keeper.send(WriterCmd::ConnLost {
                generation,
                reason: "peer closed the connection".into(),
            });
        };
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return lost(),
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => return lost(),
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            loop {
                match Frame::decode_framed(&buf[consumed..]) {
                    Ok((Frame::Ack { seq }, used)) => {
                        consumed += used;
                        // Cumulative acks are monotone, so even one from a
                        // dead generation's connection safely prunes.
                        shared.acked.fetch_max(seq, Ordering::AcqRel);
                    }
                    Ok((Frame::Fenced { expected }, _)) => {
                        let _ = shared.keeper.send(WriterCmd::Fenced {
                            generation,
                            expected,
                        });
                        return;
                    }
                    Ok((_, used)) => consumed += used, // unexpected; ignore
                    Err(WireError::Truncated) => break,
                    Err(_) => return lost(),
                }
            }
            buf.drain(..consumed);
        }
    });
}

/// The keeper thread of one link: dial (with retry until `shutdown`),
/// handshake with the configured `hello`, replay the unacknowledged suffix,
/// drain whatever backlog the driver loop handed over, and heart-beat after
/// `heartbeat` without a write.
///
/// On a connection loss the keeper reports [`LinkEvent::Down`] and redials
/// with exponential backoff + jitter ([`LinkEvent::Redial`] per attempt),
/// then replays the unacknowledged frames on the fresh connection
/// ([`LinkEvent::Up`] carries the replay count).  It exits when `shutdown`
/// is raised, the peer fences its epoch ([`LinkEvent::Fenced`]), or the link
/// fails permanently ([`LinkEvent::Failed`]).
fn keep(
    shared: Arc<LinkShared>,
    cfg: LinkConfig,
    rx: Receiver<WriterCmd>,
    shutdown: Arc<AtomicBool>,
) {
    let LinkConfig {
        target,
        peer,
        hello,
        heartbeat,
        dial_retry,
        redial_max,
        epoch,
        ..
    } = cfg;
    let jitter_seed = epoch
        .wrapping_mul(0x1000_0001)
        .wrapping_add(peer.index() as u64);
    let mut generation: u64 = 0;
    let mut redials: u64 = 0;
    'link: loop {
        // Dial.  The first connection keeps the constant startup cadence
        // (cluster processes come up in arbitrary order); after a loss every
        // attempt is reported and backed off exponentially with jitter,
        // capped at `redial_max`.
        let stream = {
            let mut attempt: u64 = 0;
            loop {
                if shutdown.load(Ordering::SeqCst) || shared.lock().failed {
                    return;
                }
                if generation > 0 {
                    attempt += 1;
                    redials += 1;
                    shared.event(LinkEvent::Redial { attempt: redials });
                }
                match target.socket_addr().and_then(TcpStream::connect) {
                    Ok(stream) => break stream,
                    Err(_) if generation == 0 => std::thread::sleep(dial_retry),
                    Err(_) => std::thread::sleep(redial_backoff(
                        attempt,
                        dial_retry,
                        redial_max,
                        jitter_seed,
                    )),
                }
            }
        };
        generation += 1;
        let _ = stream.set_nodelay(true);
        let clones = stream
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .and_then(|()| Ok((stream.try_clone()?, stream.try_clone()?)));
        let Ok((pump_stream, loop_stream)) = clones else {
            shared.event(LinkEvent::Down {
                reason: "handshake failed".into(),
            });
            let _ = stream.shutdown(Shutdown::Both);
            std::thread::sleep(dial_retry);
            continue 'link;
        };
        spawn_ack_pump(pump_stream, generation, shared.clone(), shutdown.clone());
        // Take the socket over, then handshake and replay the
        // unacknowledged suffix in order — the new connection starts
        // exactly where the old one provably left off, preserving
        // per-direction FIFO.
        let resent = {
            let acked = shared.acked();
            let mut st = shared.lock();
            st.written = 0;
            st.partial = 0;
            st.prune(acked, false);
            st.generation = generation;
            st.stream = Some(loop_stream);
            st.flushing = true;
            st.in_flight()
        };
        shared.event(LinkEvent::Up { resent });
        let mut extra = Some((hello.encode_framed(), 0));

        let lost = |reason: String| {
            let mut st = shared.lock();
            if st.generation == generation {
                st.stream = None;
            }
            drop(st);
            let _ = stream.shutdown(Shutdown::Both);
            shared.event(LinkEvent::Down { reason });
        };
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            let (flushing, idle) = {
                let st = shared.lock();
                if st.failed {
                    drop(st);
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                (st.flushing, st.last_write.elapsed())
            };
            let cmd = if flushing {
                rx.try_recv().ok()
            } else {
                let wait = heartbeat.saturating_sub(idle).max(WRITE_TIMEOUT);
                match rx.recv_timeout(wait) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            };
            match cmd {
                Some(WriterCmd::Drop) => {
                    lost("admin-injected drop".into());
                    continue 'link;
                }
                Some(WriterCmd::ConnLost {
                    generation: g,
                    reason,
                }) if g == generation => {
                    lost(reason);
                    continue 'link;
                }
                Some(WriterCmd::Fenced {
                    generation: g,
                    expected,
                }) if g == generation => {
                    shared.lock().failed = true;
                    let _ = stream.shutdown(Shutdown::Both);
                    shared.event(LinkEvent::Fenced { expected });
                    return;
                }
                _ => {}
            }
            if !flushing {
                // Idle: take the socket for a heartbeat once one is due.
                let mut st = shared.lock();
                if st.flushing || st.stream.is_none() || st.last_write.elapsed() < heartbeat {
                    continue;
                }
                st.flushing = true;
                extra = Some((Frame::Heartbeat { epoch }.encode_framed(), 0));
            }
            if let Err(reason) = flush_step(&shared, &stream, &mut extra) {
                lost(reason);
                continue 'link;
            }
        }
    }
}

/// One write of the keeper while it owns the socket: the pending handshake
/// or heartbeat first (they sit between whole frames), else the next
/// unwritten frame.  Gives the socket back to the driver loop once nothing
/// is left.  Each write blocks for at most [`WRITE_TIMEOUT`], so the keeper
/// checks its commands between them.  `Err` carries why the connection is
/// lost.
fn flush_step(
    shared: &LinkShared,
    stream: &TcpStream,
    extra: &mut Option<(Vec<u8>, usize)>,
) -> Result<(), String> {
    let write = |bytes: &[u8]| write_some(stream, bytes).map_err(|e| format!("write failed: {e}"));
    if let Some((bytes, offset)) = extra {
        *offset += write(&bytes[*offset..])?;
        if *offset == bytes.len() {
            *extra = None;
            shared.lock().last_write = Instant::now();
        }
        return Ok(());
    }
    let (seq, bytes, offset) = {
        let acked = shared.acked();
        let mut st = shared.lock();
        st.prune(acked, false);
        match st.next_unwritten() {
            Some(next) => next,
            None => {
                st.flushing = false;
                return Ok(());
            }
        }
    };
    let n = write(&bytes[offset..])?;
    let mut st = shared.lock();
    if st.advance(seq, bytes.len(), n) {
        shared.check_window(&mut st);
        if !st.failed && st.fault_fires() {
            return Err("fault-injected drop".into());
        }
    }
    Ok(())
}

/// Splits an oversized frame into two halves when its message is a batch
/// (the only unbounded payloads).  `Replay` is deliberately NOT split: the
/// relocation protocol treats one replay message as the complete buffered
/// stream, so halving it would flush the holding merge early.
fn split_frame(frame: Frame) -> Option<(Frame, Frame)> {
    let Frame::Message {
        from,
        to,
        delay_micros,
        seq: _,
        message,
    } = frame
    else {
        return None;
    };
    // Halves are re-sequenced by the sender when they are re-popped, so
    // the placeholder 0 here is never written to a socket.
    let remake = |message: Message| Frame::Message {
        from,
        to,
        delay_micros,
        seq: 0,
        message,
    };
    match message {
        Message::PublishBatch {
            publisher,
            mut notifications,
        } if notifications.len() >= 2 => {
            let tail = notifications.split_off(notifications.len() / 2);
            Some((
                remake(Message::PublishBatch {
                    publisher,
                    notifications,
                }),
                remake(Message::PublishBatch {
                    publisher,
                    notifications: tail,
                }),
            ))
        }
        Message::NotificationBatch(mut envelopes) if envelopes.len() >= 2 => {
            let tail = envelopes.split_off(envelopes.len() / 2);
            Some((
                remake(Message::NotificationBatch(envelopes)),
                remake(Message::NotificationBatch(tail)),
            ))
        }
        Message::DeliverBatch(mut deliveries) if deliveries.len() >= 2 => {
            let tail = deliveries.split_off(deliveries.len() / 2);
            Some((
                remake(Message::DeliverBatch(deliveries)),
                remake(Message::DeliverBatch(tail)),
            ))
        }
        _ => None,
    }
}

/// Spawns the reader thread for one accepted connection: decodes frames
/// and forwards them into `tx`.  Exits on EOF, a corrupt stream, a raised
/// `shutdown`, an epoch fence, or when the driver drops the receiving end.
///
/// Bytes are accumulated in a local buffer and frames decoded off its
/// front, so a read timeout in the *middle* of a frame (slow sender, a
/// large frame spanning many TCP segments) just waits for more bytes — it
/// can never desynchronise the framing boundary.
///
/// The reader enforces the self-healing contract for its direction:
/// sequenced messages are checked against the shared [`LinkRegistry`]
/// (duplicates are suppressed but still acknowledged), one cumulative
/// [`Frame::Ack`] is written back per decoded batch, and a `Hello` whose
/// restart epoch regresses the registry is answered with [`Frame::Fenced`]
/// and the connection closed.  An established connection is torn down the
/// same way as soon as a newer incarnation of its peer introduces itself.
pub(crate) fn spawn_reader(
    stream: TcpStream,
    tx: Sender<Inbound>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<LinkRegistry>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(READ_POLL));
        let mut stream = stream;
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        let mut chunk = [0u8; 16 * 1024];
        // Who is on the other end and with which restart epoch, learned
        // from the connection's Hello — needed to attribute heartbeats and
        // to fence a zombie connection when its peer's epoch is superseded
        // (admin connections never say Hello and stay anonymous).
        let mut conn: Option<(NodeId, u64)> = None;
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Zombie fencing: if a newer incarnation of the peer has
            // introduced itself (on any connection of this driver), this
            // pre-crash connection must not interleave with it.
            if let Some((from, epoch)) = conn {
                let current = registry.current_epoch(from.index());
                if current > epoch {
                    let _ = stream.write_all(&Frame::Fenced { expected: current }.encode_framed());
                    let _ = tx.send(Inbound::Stale {
                        from,
                        epoch,
                        expected: current,
                    });
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return, // EOF
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(_) => return, // broken pipe
            };
            buf.extend_from_slice(&chunk[..n]);
            let mut consumed = 0;
            // The direction to acknowledge after this batch, if any
            // sequenced message arrived (duplicates included — the sender
            // prunes its window either way).
            let mut ack_for: Option<(NodeId, NodeId)> = None;
            loop {
                let frame = match Frame::decode_framed(&buf[consumed..]) {
                    Ok((frame, used)) => {
                        consumed += used;
                        frame
                    }
                    Err(WireError::Truncated) => break, // need more bytes
                    Err(e) => {
                        // Corrupt stream: a typed decode error, never a
                        // panic.  Closing the connection is the only safe
                        // reaction — a desynchronised framing boundary
                        // cannot be recovered.
                        eprintln!("rebeca-net: closing corrupt connection: {e}");
                        return;
                    }
                };
                let inbound = match frame {
                    Frame::Hello {
                        from,
                        to,
                        epoch,
                        listen,
                        delay,
                    } => match registry.admit(from.index(), epoch) {
                        Admit::Stale { expected } => {
                            let _ = stream.write_all(&Frame::Fenced { expected }.encode_framed());
                            let _ = tx.send(Inbound::Stale {
                                from,
                                epoch,
                                expected,
                            });
                            let _ = stream.shutdown(Shutdown::Both);
                            return;
                        }
                        Admit::Ok => {
                            conn = Some((from, epoch));
                            Inbound::Hello {
                                from,
                                to,
                                epoch,
                                listen,
                                delay,
                            }
                        }
                    },
                    Frame::Heartbeat { epoch } => match conn {
                        Some((from, _)) => Inbound::Heartbeat { from, epoch },
                        None => continue,
                    },
                    Frame::StatusRequest { events_after } => match stream.try_clone() {
                        Ok(reply) => Inbound::Status {
                            reply,
                            events_after,
                        },
                        Err(e) => {
                            eprintln!("rebeca-net: cannot answer status request: {e}");
                            continue;
                        }
                    },
                    Frame::TraceRequest { spans_after } => match stream.try_clone() {
                        Ok(reply) => Inbound::Trace { reply, spans_after },
                        Err(e) => {
                            eprintln!("rebeca-net: cannot answer trace request: {e}");
                            continue;
                        }
                    },
                    // A report arriving at a serving node is a confused
                    // client; ignore it rather than kill the connection.
                    Frame::StatusReport(_) | Frame::TraceReport(_) => continue,
                    // Writer-side control frames have no business on a
                    // serving connection; ignore them likewise.
                    Frame::Ack { .. } | Frame::Fenced { .. } => continue,
                    Frame::LinkDrop { peer } => Inbound::AdminDrop { peer },
                    Frame::Message {
                        from,
                        to,
                        delay_micros,
                        seq,
                        message,
                    } => {
                        if seq > 0 {
                            ack_for = Some((from, to));
                            if !registry.accept_seq(from.index(), to.index(), seq) {
                                // A replay of a frame that did arrive
                                // before the reconnect: suppress it, but
                                // report it so the driver can count it.
                                if tx.send(Inbound::Duplicate { from, seq }).is_err() {
                                    return;
                                }
                                continue;
                            }
                        }
                        Inbound::Message {
                            from,
                            to,
                            delay: SimDuration::from_micros(delay_micros),
                            message,
                        }
                    }
                };
                if tx.send(inbound).is_err() {
                    return; // driver gone
                }
            }
            if let Some((from, to)) = ack_for {
                let high = registry.recv_high(from.index(), to.index());
                // An ack write failure is not fatal here: if the
                // connection is dying the read path notices next.
                let _ = stream.write_all(&Frame::Ack { seq: high }.encode_framed());
            }
            buf.drain(..consumed);
        }
    })
}

/// Spawns the accept loop: every inbound connection gets its own reader
/// thread sharing the driver's [`LinkRegistry`].  Exits when `shutdown` is
/// raised (the driver wakes the loop by dialling its own listener once).
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    tx: Sender<Inbound>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<LinkRegistry>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = listener.set_nonblocking(true);
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    // Readers exit on their own via the shutdown flag (or
                    // the read timeout); no join bookkeeping needed.
                    let _ = spawn_reader(stream, tx.clone(), shutdown.clone(), registry.clone());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => return,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_broker::{ClientId, Envelope};
    use rebeca_filter::Notification;
    use std::sync::mpsc::channel;

    fn envelope(seq: u64) -> Envelope {
        Envelope::new(
            ClientId::new(1),
            seq,
            Notification::builder().attr("spot", seq as i64).build(),
        )
    }

    fn frame(message: Message) -> Frame {
        Frame::Message {
            from: NodeId::new(0),
            to: NodeId::new(1),
            delay_micros: 7,
            seq: 0,
            message,
        }
    }

    #[test]
    fn oversized_batches_split_in_order_and_keep_the_route() {
        let whole = frame(Message::NotificationBatch(vec![
            envelope(1),
            envelope(2),
            envelope(3),
        ]));
        let (first, second) = split_frame(whole).expect("batches split");
        match (&first, &second) {
            (
                Frame::Message {
                    from,
                    to,
                    delay_micros,
                    message: Message::NotificationBatch(a),
                    ..
                },
                Frame::Message {
                    message: Message::NotificationBatch(b),
                    ..
                },
            ) => {
                assert_eq!(
                    (*from, *to, *delay_micros),
                    (NodeId::new(0), NodeId::new(1), 7)
                );
                let seqs: Vec<u64> = a.iter().chain(b).map(|e| e.publisher_seq).collect();
                assert_eq!(seqs, vec![1, 2, 3], "halves concatenate to the original");
            }
            other => panic!("unexpected split {other:?}"),
        }
    }

    #[test]
    fn singletons_and_protocol_steps_refuse_to_split() {
        // A one-element batch cannot shrink further.
        assert!(split_frame(frame(Message::NotificationBatch(vec![envelope(1)]))).is_none());
        // Replay is one protocol step: halving it would flush the holding
        // merge early.
        assert!(split_frame(frame(Message::Replay {
            client: ClientId::new(1),
            filter: rebeca_filter::Filter::new(),
            deliveries: Vec::new(),
        }))
        .is_none());
        assert!(split_frame(Frame::Heartbeat { epoch: 1 }).is_none());
    }

    #[test]
    fn redial_backoff_is_exponential_capped_and_jittered_within_bounds() {
        let base = Duration::from_millis(50);
        let max = Duration::from_secs(1);
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            for attempt in 1..=12 {
                let exp_us = (base.as_micros() as u64)
                    .saturating_mul(1 << (attempt - 1).min(20))
                    .min(max.as_micros() as u64);
                let d = redial_backoff(attempt, base, max, seed).as_micros() as u64;
                assert!(
                    d >= exp_us,
                    "attempt {attempt}: {d} below exponential floor"
                );
                assert!(
                    d <= exp_us + exp_us / 4,
                    "attempt {attempt}: {d} above the 25% jitter ceiling"
                );
            }
        }
    }

    #[test]
    fn registry_fences_stale_epochs_and_resets_seqs_on_new_incarnations() {
        let registry = LinkRegistry::default();
        assert!(matches!(registry.admit(0, 0), Admit::Ok));
        assert!(registry.accept_seq(0, 1, 1));
        assert!(registry.accept_seq(0, 1, 2));
        assert!(!registry.accept_seq(0, 1, 2), "replay suppressed");
        // A newer incarnation resets the node's receive high-water marks…
        assert!(matches!(registry.admit(0, 1), Admit::Ok));
        assert!(
            registry.accept_seq(0, 1, 1),
            "the successor's fresh seq 1 is not its predecessor's duplicate"
        );
        // …and the predecessor's epoch is fenced from then on.
        match registry.admit(0, 0) {
            Admit::Stale { expected } => assert_eq!(expected, 1),
            Admit::Ok => panic!("stale epoch admitted"),
        }
        assert_eq!(registry.current_epoch(0), 1);
    }

    #[test]
    fn pruning_keeps_a_partly_written_frame_and_skips_acked_ones() {
        let mut st = LinkState::new(None);
        for seq in 1..=4u64 {
            st.unacked.push_back((seq, vec![seq as u8; 10].into()));
        }
        assert!(st.advance(1, 10, 10));
        assert!(!st.advance(2, 10, 4), "frame 2 is only partly written");
        // An ack from an older connection covers frame 2 and 3, but frame
        // 2's remaining bytes must still go out on this one.
        st.prune(3, false);
        let (seq, _, offset) = st.next_unwritten().expect("frame 2 pending");
        assert_eq!((seq, offset), (2, 4));
        assert!(st.advance(2, 10, 6));
        // Now the acknowledged frame 3 is skipped rather than rewritten.
        st.prune(3, false);
        let (seq, _, offset) = st.next_unwritten().expect("frame 4 pending");
        assert_eq!((seq, offset), (4, 0));
        assert_eq!(st.in_flight(), 0, "nothing written is unacknowledged");
    }

    #[test]
    fn resend_window_overflow_fails_the_link_loudly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let port = listener.local_addr().unwrap().port();
        let (ev_tx, ev_rx) = channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let cfg = LinkConfig {
            target: Endpoint::new("127.0.0.1", port),
            peer: NodeId::new(1),
            hello: Frame::Hello {
                from: NodeId::new(0),
                to: NodeId::new(1),
                epoch: 0,
                listen: Endpoint::new("127.0.0.1", 1),
                delay: DelayModel::Constant(0),
            },
            heartbeat: Duration::from_secs(5),
            dial_retry: Duration::from_millis(10),
            redial_max: Duration::from_millis(100),
            resend_window: 4,
            epoch: 0,
            fault: None,
        };
        let handle = LinkHandle::spawn(cfg, ev_tx, shutdown.clone());
        // Accept the connection but never acknowledge anything.
        let (_conn, _) = listener.accept().expect("accept");
        for i in 0..6u32 {
            // The sixth send may already find the link failed (dropped).
            handle.send(frame(Message::Attach {
                client: ClientId::new(i),
            }));
        }
        let mut saw_up = false;
        loop {
            match ev_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Inbound::Link {
                    event: LinkEvent::Up { resent },
                    ..
                }) => {
                    assert_eq!(resent, 0, "first connection replays nothing");
                    saw_up = true;
                }
                Ok(Inbound::Link {
                    event: LinkEvent::Failed { reason },
                    ..
                }) => {
                    assert!(
                        reason.contains("resend window overflow"),
                        "unexpected failure: {reason}"
                    );
                    break;
                }
                Ok(_) => {}
                Err(e) => panic!("no loud failure before timeout: {e}"),
            }
        }
        assert!(saw_up, "the link came up before overflowing");
        shutdown.store(true, Ordering::SeqCst);
    }
}
