//! # Rebeca Mobility
//!
//! A Rust reproduction of *"Supporting Mobility in Content-Based
//! Publish/Subscribe Middleware"* (Fiege, Gärtner, Kasten, Zeidler —
//! Middleware 2003): a content-based publish/subscribe middleware in the
//! style of Rebeca, extended with
//!
//! * a **relocation protocol for physically mobile clients** — clients that
//!   disconnect and re-attach at a different border broker keep receiving
//!   every notification exactly once and in sender-FIFO order (Section 4 of
//!   the paper), and
//! * **location-dependent subscriptions for logically mobile clients** —
//!   subscriptions containing a `myloc` marker that the middleware keeps
//!   aligned with the client's current location by pre-subscribing to the
//!   possible future locations `ploc(x, q)` at brokers further away from the
//!   client (Section 5).
//!
//! This crate is a thin facade: it re-exports the workspace crates so that
//! applications can depend on a single crate.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`filter`] | `rebeca-filter` | notifications, content-based filters, covering/merging, `myloc` templates |
//! | [`matcher`] | `rebeca-matcher` | attribute-partitioned predicate index: counting matcher, covering candidates, `FilterSet` |
//! | [`location`] | `rebeca-location` | location spaces, movement graphs, `ploc`, adaptivity plans |
//! | [`obs`] | `rebeca-obs` | observability core: log2 latency histograms, bounded event journals, status reports |
//! | [`routing`] | `rebeca-routing` | index-backed routing tables and the flooding/simple/identity/covering/merging strategies |
//! | [`sim`] | `rebeca-sim` | deterministic discrete-event simulator (FIFO links, delays, metrics, topologies) |
//! | [`broker`] | `rebeca-broker` | the static Rebeca broker, message vocabulary, sequence numbering, delivery logs |
//! | [`retain`] | `rebeca-retain` | segment-rotated retained-publication store answering time-window fetches |
//! | [`mobility`] | `rebeca-core` | the paper's contribution: the mobility-aware broker, sessions, drivers, the deployment facade |
//! | [`net`] | `rebeca-net` | real TCP transport behind the [`Driver`] boundary: wire codec, `TcpDriver`, the `rebeca-node` process binary |
//!
//! The most convenient entry points are re-exported at the crate root:
//! [`SystemBuilder`] constructs a deployment, [`MobilitySystem::connect`]
//! opens an interactive [`Session`], and the sans-IO [`Driver`] boundary
//! picks between the deterministic simulator and the wall-clock
//! [`WallDriver`].
//!
//! # Example
//!
//! ```
//! use rebeca::{
//!     ClientId, Constraint, DelayModel, Filter, Notification, RebecaError, SimTime,
//!     SystemBuilder, Topology,
//! };
//!
//! # fn main() -> Result<(), RebecaError> {
//! let mut system = SystemBuilder::new(&Topology::figure5())
//!     .link_delay(DelayModel::constant_millis(5))
//!     .seed(42)
//!     .build()?;
//!
//! // A consumer session at broker B6, a producer session at broker B8.
//! let consumer = system.connect(ClientId::new(1), 5)?;
//! consumer.subscribe(
//!     &mut system,
//!     Filter::new().with("service", Constraint::Eq("parking".into())),
//! )?;
//! let producer = system.connect(ClientId::new(2), 7)?;
//! system.run_until(SimTime::from_millis(50));
//!
//! // Publish ten vacancies; the consumer roams to B1 mid-stream — the
//! // relocation protocol makes the move invisible to the application.
//! for i in 0..10u64 {
//!     if i == 5 {
//!         consumer.move_to(&mut system, 0)?;
//!     }
//!     producer.publish(
//!         &mut system,
//!         Notification::builder().attr("service", "parking").attr("spot", i as i64).build(),
//!     )?;
//!     system.run_until(SimTime::from_millis(100 + i * 50));
//! }
//! system.run_until(SimTime::from_secs(5));
//!
//! assert_eq!(consumer.log(&system)?.len(), 10);
//! assert!(consumer.log(&system)?.is_clean());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Content-based data and filter model (re-export of `rebeca-filter`).
pub mod filter {
    pub use rebeca_filter::*;
}

/// Location model: spaces, movement graphs, `ploc`, adaptivity
/// (re-export of `rebeca-location`).
pub mod location {
    pub use rebeca_location::*;
}

/// Sub-linear content-based matching: the attribute-partitioned predicate
/// index and the index-backed filter set (re-export of `rebeca-matcher`).
pub mod matcher {
    pub use rebeca_matcher::*;
}

/// Content-based routing engine (re-export of `rebeca-routing`).
pub mod routing {
    pub use rebeca_routing::*;
}

/// Observability core: histograms, event journals, status reports
/// (re-export of `rebeca-obs`).
pub mod obs {
    pub use rebeca_obs::*;
}

/// Discrete-event network simulator (re-export of `rebeca-sim`).
pub mod sim {
    pub use rebeca_sim::*;
}

/// Broker network substrate (re-export of `rebeca-broker`).
pub mod broker {
    pub use rebeca_broker::*;
}

/// Retained publications: the segment-rotated retention store behind
/// time-aware subscriptions (re-export of `rebeca-retain`).
pub mod retain {
    pub use rebeca_retain::*;
}

/// Mobility support — the paper's contribution (re-export of `rebeca-core`).
pub mod mobility {
    pub use rebeca_core::*;
}

/// TCP transport and process-per-broker deployment (re-export of
/// `rebeca-net`).
pub mod net {
    pub use rebeca_net::*;
}

// Convenience re-exports of the most commonly used types.
pub use rebeca_broker::{ClientId, ConsumerLog, Delivery, Envelope, Message, SubscriptionId};
pub use rebeca_core::{
    BrokerConfig, ClientAction, ClientNode, Driver, LogicalMobilityMode, MobileBroker,
    MobilitySystem, PersistenceConfig, RebecaError, Session, SimDriver, SystemBuilder, WallDriver,
};
pub use rebeca_filter::{Constraint, Filter, LocationDependentFilter, Notification, Value};
pub use rebeca_location::{AdaptivityPlan, Itinerary, LocationId, LocationSpace, MovementGraph};
pub use rebeca_matcher::{FilterIndex, FilterSet};
pub use rebeca_net::{ClusterConfig, Endpoint, NetConfig, SystemBuilderTcp, TcpDriver};
pub use rebeca_obs::{BrokerStatus, EventJournal, Histogram, LinkStatus, ObsEvent, StatusReport};
pub use rebeca_retain::{RetainedPublication, RetentionConfig, RetentionStore};
pub use rebeca_routing::RoutingStrategyKind;
pub use rebeca_sim::{DelayModel, Metrics, SimDuration, SimTime, Topology};
