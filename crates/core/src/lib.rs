//! Mobility support for content-based publish/subscribe — the primary
//! contribution of *"Supporting Mobility in Content-Based Publish/Subscribe
//! Middleware"* (Fiege, Gärtner, Kasten, Zeidler — Middleware 2003),
//! reimplemented on top of the Rebeca-style substrate crates of this
//! workspace.
//!
//! # What this crate provides
//!
//! * [`MobileBroker`] — a Rebeca broker extended with
//!   * the **physical-mobility relocation protocol** of Section 4 (virtual
//!     counterparts buffering deliveries for disconnected clients, reactive
//!     re-subscription with the last received sequence number, junction
//!     detection, fetch/replay along the re-pointed old path, in-order merge
//!     at the new border broker, garbage collection at the old one), and
//!   * **location-dependent subscriptions** of Section 5 (`myloc` templates
//!     instantiated per hop from `ploc(location, q)` according to an
//!     [`AdaptivityPlan`](rebeca_location::AdaptivityPlan), plus the
//!     location-update protocol that swaps those filters when the client
//!     moves).
//! * [`MobilitySystem`] + [`SystemBuilder`] — the deployment facade: builds
//!   a broker network from a [`Topology`](rebeca_sim::Topology) on a sans-IO
//!   [`Driver`] and runs it.  Clients are driven **interactively** through
//!   [`Session`] handles (subscribe/publish/move/poll, interleaved with
//!   [`MobilitySystem::run_until`]) or through pre-arranged scripts
//!   ([`ClientNode`], a thin adapter over the session machinery).
//! * Two [`Driver`] implementations: [`SimDriver`] (the deterministic
//!   discrete-event testbed) and [`WallDriver`] (one single-threaded
//!   wall-clock event loop over a [`Transport`]: every node in process under
//!   [`SystemBuilder::build_threaded`], TCP links between processes in
//!   `rebeca-net`).
//!
//! # Quick start
//!
//! ```
//! use rebeca_broker::ClientId;
//! use rebeca_core::SystemBuilder;
//! use rebeca_filter::{Constraint, Filter, Notification};
//! use rebeca_sim::{DelayModel, SimTime, Topology};
//!
//! # fn main() -> Result<(), rebeca_core::RebecaError> {
//! // Three brokers in a line; a consumer at broker 0, a producer at broker 2.
//! let mut system = SystemBuilder::new(&Topology::line(3))
//!     .link_delay(DelayModel::constant_millis(5))
//!     .seed(42)
//!     .build()?;
//!
//! let consumer = system.connect(ClientId::new(1), 0)?;
//! consumer.subscribe(
//!     &mut system,
//!     Filter::new().with("service", Constraint::Eq("parking".into())),
//! )?;
//! let producer = system.connect(ClientId::new(2), 2)?;
//! system.run_until(SimTime::from_millis(50));
//!
//! producer.publish(
//!     &mut system,
//!     Notification::builder().attr("service", "parking").build(),
//! )?;
//! system.run_until(SimTime::from_secs(1));
//!
//! assert_eq!(consumer.poll_deliveries(&mut system)?.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod driver;
pub mod driver_util;
mod error;
mod mobile_broker;
mod session;
mod system;
mod wall;

pub use client::{ClientAction, ClientNode, LogicalMobilityMode};
pub use driver::{Driver, SimDriver};
pub use error::RebecaError;
pub use mobile_broker::{BrokerConfig, MobileBroker, HANDOFF_LATENCY_HISTOGRAM};
pub use rebeca_obs::{BrokerStatus, LinkStatus, ObsEvent, StatusReport};
pub use session::Session;
pub use system::{MobilitySystem, SystemBuilder, SystemNode};
pub use wall::{Transport, WallDriver, WallState};

// Re-exported so deployments can configure durability and inspect relocation
// phases without depending on `rebeca-mobility` directly.
pub use rebeca_mobility::{
    HandoffLog, LogBackend, MemoryBackend, PersistenceConfig, RelocationMachine, RelocationPhase,
};

// Re-exported so deployments can configure retention (and inspect the
// store's policy) without depending on `rebeca-retain` directly.
pub use rebeca_retain::{RetentionConfig, RetentionStore};
