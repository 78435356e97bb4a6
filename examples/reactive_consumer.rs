//! Reactive consumer: changing a subscription *in response to* a received
//! notification — impossible under a pre-scripted client, and the reason the
//! session API exists.
//!
//! A telemetry producer publishes on stream "A".  One of the A-notifications
//! carries a hand-over marker telling consumers that the feed will continue
//! on stream "B".  The consumer polls its inbox while the system runs,
//! notices the marker, and subscribes to stream B *because of what it just
//! received*.  Mid-run it also relocates to a different border broker.
//! Every matching notification still arrives exactly once, in order.
//!
//! The same application code runs twice: once on the deterministic
//! discrete-event simulator and once on the wall-clock event loop of
//! `build_threaded()` (every node in process, real `Instant` timers) — the
//! sans-IO driver boundary makes the event loop a deployment choice.
//!
//! Run with:
//! ```text
//! cargo run --example reactive_consumer
//! ```

use rebeca::{
    ClientId, Constraint, DelayModel, Filter, MobilitySystem, Notification, RebecaError, SimTime,
    SystemBuilder, Topology,
};

fn stream_filter(stream: &str) -> Filter {
    Filter::new()
        .with("service", Constraint::Eq("telemetry".into()))
        .with("stream", Constraint::Eq(stream.into()))
}

fn reading(stream: &str, seq: i64) -> Notification {
    Notification::builder()
        .attr("service", "telemetry")
        .attr("stream", stream)
        .attr("reading", seq)
        .build()
}

/// The hand-over notification: still on stream A, but announcing that the
/// feed continues on stream B.
fn handover(seq: i64) -> Notification {
    Notification::builder()
        .attr("service", "telemetry")
        .attr("stream", "A")
        .attr("reading", seq)
        .attr("continues_on", "B")
        .build()
}

fn run(mut system: MobilitySystem, label: &str) -> Result<(), RebecaError> {
    let consumer = system.connect(ClientId::new(1), 0)?;
    consumer.subscribe(&mut system, stream_filter("A"))?;
    let producer = system.connect(ClientId::new(2), 2)?;
    system.run_until(SimTime::from_millis(30));

    let mut reacted_at = None;
    let poll = |system: &mut MobilitySystem, reacted_at: &mut Option<SimTime>| {
        for delivery in consumer.poll_deliveries(system).expect("known client") {
            let continues_on = delivery
                .envelope
                .notification
                .get("continues_on")
                .and_then(|v| v.as_str().map(str::to_owned));
            if let (None, Some(next)) = (&reacted_at, continues_on) {
                // React to the content of a delivery: follow the feed to its
                // announced continuation stream.
                consumer
                    .subscribe(system, stream_filter(&next))
                    .expect("known client");
                *reacted_at = Some(system.now());
            }
        }
    };

    // Stream A, readings 1..=6; reading 4 announces the hand-over to B.
    for i in 1..=6i64 {
        let n = if i == 4 { handover(i) } else { reading("A", i) };
        producer.publish(&mut system, n)?;
        system.run_until(SimTime::from_millis(30 + i as u64 * 10));
        poll(&mut system, &mut reacted_at);
    }

    // Quiet point: the consumer relocates to the middle broker.  Both its
    // subscriptions (A, and the reactively added B) move with it.
    system.run_until(SimTime::from_millis(150));
    consumer.move_to(&mut system, 1)?;
    system.run_until(SimTime::from_millis(220));

    // Stream A continues after the relocation...
    for i in 7..=10i64 {
        producer.publish(&mut system, reading("A", i))?;
        system.run_until(SimTime::from_millis(220 + (i as u64 - 6) * 10));
    }
    // ...and the announced stream B starts.
    for i in 11..=16i64 {
        producer.publish(&mut system, reading("B", i))?;
        system.run_until(SimTime::from_millis(260 + (i as u64 - 10) * 10));
    }
    system.run_until(SimTime::from_millis(700));
    poll(&mut system, &mut reacted_at);

    let log = consumer.log(&system)?;
    println!("[{label}]");
    println!(
        "  reacted to the hand-over marker at {}",
        reacted_at.expect("the consumer must have seen the marker")
    );
    println!(
        "  deliveries: {} (log clean: {})",
        log.len(),
        log.is_clean()
    );
    assert!(log.is_clean(), "violations: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(producer.client()),
        (1..=16).collect::<Vec<u64>>(),
        "every A and B reading must arrive exactly once, across the relocation"
    );
    Ok(())
}

fn main() -> Result<(), RebecaError> {
    let topology = Topology::line(3);
    let builder = || {
        SystemBuilder::new(&topology)
            .link_delay(DelayModel::constant_millis(2))
            .seed(11)
    };

    // Deterministic virtual time.
    run(builder().build()?, "sim driver (virtual time)")?;
    // The identical application on the wall clock: ~0.7 s of real time.
    run(builder().build_threaded()?, "threaded driver (wall clock)")?;

    println!("\nreactive consumer finished: the subscription followed the feed, twice.");
    Ok(())
}
