//! Real TCP transport and process-per-broker deployment for the Rebeca
//! mobility middleware — entirely behind the sans-IO
//! [`Driver`](rebeca_core::Driver) boundary of PR 4, with **zero changes to
//! the protocol code**.
//!
//! The paper specifies its protocols over point-to-point, error-free, FIFO
//! links (Section 2.1).  Blocking `std::net` sockets satisfy that contract
//! exactly — TCP is FIFO per connection — so no async runtime is needed.
//! Five layers:
//!
//! 1. **wire codec** ([`wire`]) — length-prefixed + CRC32 frames (the same
//!    discipline as the mobility WAL, sharing `rebeca_mobility::codec`)
//!    carrying every [`Message`](rebeca_broker::Message) variant, plus the
//!    `Hello` handshake (node id, epoch, dial-back endpoint, link delay
//!    model) and heartbeats;
//! 2. **link layer** (`link` module) — the driver loop writes each frame
//!    onto its socket itself; a per-link keeper thread dials, handshakes,
//!    heart-beats and drains the backlog a slow peer leaves, and per
//!    connection an ack pump and a decode-and-forward reader thread do the
//!    reading.  Links are **self-healing**: a dropped socket is redialled with exponential
//!    backoff and jitter, unacknowledged frames are replayed from a bounded
//!    resend window (receivers deduplicate by per-direction sequence
//!    number), and `Hello` epochs fence off zombie incarnations of a
//!    restarted peer.  [`FaultPlan`] injects deterministic socket drops for
//!    chaos testing;
//! 3. **[`TcpDriver`]** — the [`Driver`](rebeca_core::Driver)
//!    implementation: the one wall-clock event loop of `rebeca-core`
//!    ([`WallDriver`](rebeca_core::WallDriver), the same loop
//!    `build_threaded()` runs in process) over a TCP
//!    [`Transport`](rebeca_core::Transport) that places nodes, frames sends
//!    to other processes and feeds received frames back into the loop;
//! 4. **deployment harness** — the `rebeca-node` binary hosts one broker
//!    process from a [`ClusterConfig`] file; client processes embed the
//!    driver through [`SystemBuilderTcp::build_tcp`];
//! 5. **status plane** ([`admin`] + the `rebeca-ctl` binary) — a
//!    `StatusRequest`/`StatusReport` admin frame pair served live from the
//!    driver's event loop: routing-table sizes, WAL depth and checkpoint
//!    age, restart epochs, per-link heartbeat freshness, relocation
//!    counters and hand-off latency histograms, plus a resumable tail of
//!    the bounded observability journal ([`rebeca_obs`]).  The
//!    `TraceRequest`/`TraceReport` pair serves the retained distributed
//!    tracing spans the same way; `rebeca-ctl trace` fans it across every
//!    broker and reassembles the causal tree.
//!
//! # Quick start (single process, loopback TCP)
//!
//! ```no_run
//! use rebeca_broker::ClientId;
//! use rebeca_core::SystemBuilder;
//! use rebeca_filter::{Constraint, Filter, Notification};
//! use rebeca_net::{Endpoint, NetConfig, SystemBuilderTcp};
//! use rebeca_sim::{DelayModel, SimDuration, Topology};
//!
//! # fn main() -> Result<(), rebeca_core::RebecaError> {
//! let endpoints: Vec<Endpoint> = (0..3)
//!     .map(|i| Endpoint::new("127.0.0.1", 7101 + i))
//!     .collect();
//! // One process hosting all three brokers — still talking loopback TCP
//! // to the client processes that dial in.
//! let mut brokers = SystemBuilder::new(&Topology::line(3))
//!     .link_delay(DelayModel::constant_millis(1))
//!     .build_tcp(NetConfig::new(endpoints.clone()).host_all())?;
//! let now = brokers.now();
//! brokers.run_until(now + SimDuration::from_secs(5));
//! # Ok(())
//! # }
//! ```
//!
//! For the multi-process deployment (one `rebeca-node` process per broker)
//! see the README's "Deployment" section and the `multiprocess` integration
//! test of this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
mod config;
mod endpoint;
mod link;
mod tcp;
pub mod wire;

pub use admin::{fetch_status, fetch_trace, AdminError};
pub use config::{ClusterConfig, ClusterConfigError};
pub use endpoint::{Endpoint, ParseEndpointError};
pub use link::FaultPlan;
pub use tcp::{NetConfig, SystemBuilderTcp, TcpDriver};
