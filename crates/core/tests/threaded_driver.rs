//! Wall-clock smoke tests for `build_threaded()`: the identical protocol
//! code that runs on the discrete-event simulator runs on the wall-clock
//! event loop with real `Instant` timers — and keeps the paper's delivery
//! guarantees across a relocation.
//!
//! These tests sleep real milliseconds by construction; they are sized to
//! finish in well under a second each.

use rebeca_broker::ClientId;
use rebeca_core::SystemBuilder;
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_sim::{DelayModel, SimTime, Topology};

fn telemetry() -> Filter {
    Filter::new().with("service", Constraint::Eq("telemetry".into()))
}

fn reading(i: i64) -> Notification {
    Notification::builder()
        .attr("service", "telemetry")
        .attr("reading", i)
        .build()
}

/// Clean, complete, exactly-once delivery across a mid-run relocation in
/// wall-clock mode.
#[test]
fn relocation_is_lossless_on_the_wall_clock() {
    let mut sys = SystemBuilder::new(&Topology::line(3))
        .link_delay(DelayModel::constant_millis(1))
        .seed(3)
        .build_threaded()
        .expect("non-empty topology");

    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    consumer.subscribe(&mut sys, telemetry()).unwrap();
    let producer = sys.connect(ClientId::new(2), 2).unwrap();
    sys.run_until(SimTime::from_millis(30));

    // First half of the stream at the original broker.
    for i in 1..=10i64 {
        producer.publish(&mut sys, reading(i)).unwrap();
        sys.run_until(SimTime::from_millis(30 + i as u64 * 5));
    }
    // Quiet point, then relocate to the middle broker.
    sys.run_until(SimTime::from_millis(120));
    consumer.move_to(&mut sys, 1).unwrap();
    sys.run_until(SimTime::from_millis(170));

    // Second half after the relocation.
    for i in 11..=20i64 {
        producer.publish(&mut sys, reading(i)).unwrap();
        sys.run_until(SimTime::from_millis(170 + (i as u64 - 10) * 5));
    }
    // Generous drain window for scheduling jitter.
    sys.run_until(SimTime::from_millis(500));

    let log = sys.client_log(consumer.client()).unwrap();
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(producer.client()),
        (1..=20).collect::<Vec<u64>>(),
        "every reading must arrive exactly once across the wall-clock relocation"
    );
    assert!(sys.total_messages() > 0);
    assert!(sys.now() >= SimTime::from_millis(500));
}

/// The mailbox polls incrementally between wall-clock phases, and the
/// driver's metrics count the deliveries.
#[test]
fn mailbox_and_metrics_work_between_phases() {
    let mut sys = SystemBuilder::new(&Topology::line(2))
        .link_delay(DelayModel::constant_millis(1))
        .seed(5)
        .build_threaded()
        .unwrap();

    let consumer = sys.connect(ClientId::new(1), 0).unwrap();
    consumer.subscribe(&mut sys, telemetry()).unwrap();
    let producer = sys.connect(ClientId::new(2), 1).unwrap();
    sys.run_until(SimTime::from_millis(20));

    producer.publish(&mut sys, reading(1)).unwrap();
    sys.run_until(SimTime::from_millis(60));
    let first = consumer.poll_deliveries(&mut sys).unwrap();
    assert_eq!(first.len(), 1);

    producer.publish(&mut sys, reading(2)).unwrap();
    sys.run_until(SimTime::from_millis(100));
    let second = consumer.poll_deliveries(&mut sys).unwrap();
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].envelope.publisher_seq, 2);

    assert_eq!(sys.metrics().counter("client.delivered"), 2);
    assert!(consumer.poll_deliveries(&mut sys).unwrap().is_empty());
}

/// `step()` dispatches the earliest pending event, waiting for it if
/// needed, instead of racing a tiny run window against the wall clock and
/// reporting idle while an event is queued.
#[test]
fn step_dispatches_a_due_event_instead_of_reporting_idle() {
    for round in 0..20 {
        let mut sys = SystemBuilder::new(&Topology::line(3))
            .link_delay(DelayModel::constant_millis(1))
            .seed(round)
            .build_threaded()
            .unwrap();
        let _session = sys.connect(ClientId::new(1), 0).unwrap();
        // The Attach action timer is due immediately.
        assert!(
            sys.step(),
            "round {round}: step() returned false with a due event pending"
        );
    }
}
