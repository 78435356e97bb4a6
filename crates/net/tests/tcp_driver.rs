//! In-process TCP cluster tests: brokers and clients in separate
//! [`TcpDriver`]s of one process, talking real loopback TCP.
//!
//! The broker system runs in a background thread (pumping its event loop)
//! while the test thread drives the client system interactively — exactly
//! the two-process deployment shape, minus the `fork`.  The multi-process
//! variant (spawned `rebeca-node` binaries) lives in `multiprocess.rs`.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rebeca_core::{MobilitySystem, SystemBuilder};
use rebeca_net::{Endpoint, FaultPlan, NetConfig, SystemBuilderTcp, TcpDriver};
use rebeca_sim::{DelayModel, SimDuration, Topology};

use common::{
    assert_exactly_once, builder, drive_retention_scenario, drive_scenario, reference_sim_log,
    retention_builder, retention_oracle_sim_log, CONSUMER, PRODUCER, RETAIN_TOTAL,
};

/// Builds the broker-side system: one driver hosting all three brokers of
/// the line, listening on an ephemeral loopback port.  Returns the system
/// and the endpoint client processes dial (the same for every broker —
/// connections are told apart by their handshakes).
fn broker_system() -> (MobilitySystem, Endpoint) {
    let placeholder = vec![Endpoint::new("127.0.0.1", 0); 3];
    let driver = TcpDriver::new(NetConfig::new(placeholder).host_all().seed(11))
        .expect("bind broker listener");
    let endpoint = driver.listen_endpoint().clone();
    let sys = builder(1)
        .build_with(Box::new(driver))
        .expect("broker system builds");
    (sys, endpoint)
}

/// Pumps a system's event loop until asked to stop, then returns it.
fn pump_in_background(
    mut sys: MobilitySystem,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<MobilitySystem> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            let now = sys.now();
            sys.run_until(now + SimDuration::from_millis(25));
        }
        sys
    })
}

/// The acceptance scenario: quickstart plus a mid-run relocation across
/// real TCP, asserted exactly-once and byte-identical to the simulator.
#[test]
fn loopback_cluster_matches_the_simulator_byte_for_byte() {
    let (broker_sys, endpoint) = broker_system();
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let client_net = NetConfig::new(vec![endpoint; 3]).seed(13);
    let mut client_sys = builder(1)
        .build_tcp(client_net)
        .expect("client system builds");

    let tcp_log = drive_scenario(&mut client_sys, 30_000);
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    assert_exactly_once(&tcp_log);
    // The same scenario on the deterministic simulator delivers the
    // byte-identical log (same deliveries, same stream sequence numbers,
    // same order) — the transport is invisible to the protocol.
    let sim_log = reference_sim_log();
    assert_eq!(
        tcp_log, sim_log,
        "TCP and sim delivery logs must be identical"
    );

    // The brokers actually moved traffic over the wire.
    assert!(broker_sys.metrics().counter("net.frames_in") > 0);
    assert!(broker_sys.metrics().counter("net.frames_out") > 0);
    assert!(broker_sys.metrics().counter("net.hello_in") > 0);
}

/// Time-aware subscriptions over real TCP: the consumer detaches from
/// broker 0, misses >100 matching publications, and reattaches at broker 1
/// with a `since`-scoped subscription.  The retained history replays the
/// gap exactly once, merged in order with the live tail — byte-identical
/// to a never-detached run on the deterministic simulator.
#[test]
fn subscribe_since_replays_the_offline_gap_over_tcp() {
    let placeholder = vec![Endpoint::new("127.0.0.1", 0); 3];
    let driver = TcpDriver::new(NetConfig::new(placeholder).host_all().seed(17))
        .expect("bind broker listener");
    let endpoint = driver.listen_endpoint().clone();
    let broker_sys = retention_builder(1)
        .build_with(Box::new(driver))
        .expect("broker system builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let client_net = NetConfig::new(vec![endpoint; 3]).seed(19);
    let mut client_sys = retention_builder(1)
        .build_tcp(client_net)
        .expect("client system builds");

    let tcp_log = drive_retention_scenario(&mut client_sys, 60_000);
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    assert!(tcp_log.is_clean(), "violations: {:?}", tcp_log.violations());
    assert_eq!(
        tcp_log.distinct_publisher_seqs(PRODUCER),
        (1..=RETAIN_TOTAL).collect::<Vec<u64>>(),
        "the offline gap must be closed exactly once"
    );
    assert_eq!(
        tcp_log,
        retention_oracle_sim_log(),
        "history merge must be indistinguishable from never detaching"
    );

    // The history session ran on the broker side, fed by a remote broker's
    // retained slice, and the retention plane shows up in the status report.
    let m = broker_sys.metrics();
    assert_eq!(m.counter("retain.history_session_closed"), 1);
    assert!(m.counter("retain.replayed") >= 100);
    let status = broker_sys.status();
    let b2 = status.brokers.iter().find(|b| b.broker == 2).unwrap();
    assert!(
        b2.retained_publications >= 100,
        "origin broker reports its retained depth"
    );
    assert!(b2.oldest_retained_age_ms.is_some());
}

/// A broker split across two driver processes: broker 0 alone, brokers 1-2
/// together — broker↔broker links cross the wire too.
#[test]
fn split_broker_processes_deliver_end_to_end() {
    // Pre-bind two listeners on ephemeral ports to learn free port
    // numbers, then hand them to the two broker drivers.
    let probe_a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let probe_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port_a = probe_a.local_addr().unwrap().port();
    let port_b = probe_b.local_addr().unwrap().port();
    drop((probe_a, probe_b));
    let endpoints = vec![
        Endpoint::new("127.0.0.1", port_a),
        Endpoint::new("127.0.0.1", port_b),
        Endpoint::new("127.0.0.1", port_b),
    ];

    let sys_a = builder(1)
        .build_tcp(NetConfig::new(endpoints.clone()).host(0).seed(21))
        .expect("process A builds");
    let sys_b = builder(1)
        .build_tcp(NetConfig::new(endpoints.clone()).host(1).host(2).seed(22))
        .expect("process B builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump_a = pump_in_background(sys_a, stop.clone());
    let pump_b = pump_in_background(sys_b, stop.clone());

    let mut client_sys = builder(1)
        .build_tcp(NetConfig::new(endpoints).seed(23))
        .expect("client system builds");
    let tcp_log = drive_scenario(&mut client_sys, 30_000);

    stop.store(true, Ordering::SeqCst);
    let a = pump_a.join().expect("pump A");
    let b = pump_b.join().expect("pump B");

    assert_exactly_once(&tcp_log);
    assert_eq!(tcp_log, reference_sim_log());
    // The inter-broker edge 0-1 crossed processes.
    assert!(a.metrics().counter("net.frames_out") > 0);
    assert!(b.metrics().counter("net.frames_in") > 0);
}

/// The status plane over real TCP: after the scripted relocation, every
/// broker process answers a `StatusRequest` with live structured state —
/// routing tables, WAL depth, restart epoch, per-link heartbeat freshness,
/// the hand-off latency histogram, and a resumable journal tail.
#[test]
fn status_plane_reports_live_cluster_state() {
    let probe_a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let probe_b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port_a = probe_a.local_addr().unwrap().port();
    let port_b = probe_b.local_addr().unwrap().port();
    drop((probe_a, probe_b));
    let endpoints = vec![
        Endpoint::new("127.0.0.1", port_a),
        Endpoint::new("127.0.0.1", port_b),
        Endpoint::new("127.0.0.1", port_b),
    ];

    // Broker 0 alone (restart epoch 2), brokers 1-2 together: the 0-1 edge
    // crosses the wire, so link liveness and heartbeat ages are real.
    let sys_a = builder(1)
        .build_tcp(
            NetConfig::new(endpoints.clone())
                .host(0)
                .epoch(2)
                .heartbeat(Duration::from_millis(50))
                .seed(31),
        )
        .expect("process A builds");
    let sys_b = builder(1)
        .build_tcp(
            NetConfig::new(endpoints.clone())
                .host(1)
                .host(2)
                .heartbeat(Duration::from_millis(50))
                .seed(32),
        )
        .expect("process B builds");
    let stop = Arc::new(AtomicBool::new(false));
    let pump_a = pump_in_background(sys_a, stop.clone());
    let pump_b = pump_in_background(sys_b, stop.clone());

    let mut client_sys = builder(1)
        .build_tcp(NetConfig::new(endpoints.clone()).seed(33))
        .expect("client system builds");
    let tcp_log = drive_scenario(&mut client_sys, 30_000);
    assert_exactly_once(&tcp_log);

    let timeout = Duration::from_secs(5);
    let report_a =
        rebeca_net::fetch_status(&endpoints[0], None, timeout).expect("process A serves status");
    let report_b =
        rebeca_net::fetch_status(&endpoints[1], None, timeout).expect("process B serves status");

    // Process A hosts exactly broker 0; process B brokers 1 and 2.
    assert_eq!(
        report_a
            .brokers
            .iter()
            .map(|b| b.broker)
            .collect::<Vec<_>>(),
        vec![0]
    );
    assert_eq!(
        report_b
            .brokers
            .iter()
            .map(|b| b.broker)
            .collect::<Vec<_>>(),
        vec![1, 2]
    );

    // Routing state is installed somewhere in the cluster.
    let routing_total: u64 = report_a
        .brokers
        .iter()
        .chain(&report_b.brokers)
        .map(|b| b.routing_entries)
        .sum();
    assert!(routing_total > 0, "no routing entries anywhere");
    let subgroup_total: u64 = report_a
        .brokers
        .iter()
        .chain(&report_b.brokers)
        .map(|b| b.routing_subgroups)
        .sum();
    assert!(
        subgroup_total > 0 && subgroup_total <= routing_total,
        "subgroups must be populated and never exceed entries \
         ({subgroup_total} of {routing_total})"
    );

    // The configured restart epoch is surfaced.
    assert_eq!(report_a.brokers[0].restart_epoch, 2);

    // Broker 0's wire link to broker 1 is up and recently heard from.
    let link_to_1 = report_a.brokers[0]
        .links
        .iter()
        .find(|l| l.peer == 1)
        .expect("broker 0 reports its link to broker 1");
    assert!(link_to_1.connected, "link 0->1 is up");
    let age = link_to_1
        .last_heartbeat_age_ms
        .expect("broker 1 has been heard from");
    assert!(age < 10_000, "heartbeat age is fresh, got {age}ms");

    // The relocation settled at the new border broker (broker 1, process
    // B): its hand-off latency histogram has non-zero quantiles.
    let histogram = &report_b.brokers[0].handoff_latency_micros;
    assert!(histogram.count() > 0, "hand-off latency was recorded");
    assert!(histogram.p50() > 0 && histogram.p99() >= histogram.p50());
    let relocation_counters: u64 = report_b
        .brokers
        .iter()
        .flat_map(|b| &b.relocations)
        .map(|(_, count)| count)
        .sum();
    assert!(relocation_counters > 0, "relocation counters in the report");

    // The journal tail is resumable: a cursor past the last seq is empty.
    let tail = rebeca_net::fetch_status(&endpoints[1], Some(0), timeout).expect("tail fetch");
    assert!(!tail.events.is_empty(), "journal events over the wire");
    let seqs: Vec<u64> = tail.events.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs increase");
    assert!(
        tail.events
            .iter()
            .any(|e| e.kind.starts_with("relocation.")),
        "relocation transitions journaled"
    );
    let last = *seqs.last().unwrap();
    let resumed = rebeca_net::fetch_status(&endpoints[1], Some(last), timeout).expect("resume");
    assert!(
        resumed.events.iter().all(|e| e.seq > last),
        "resumed tail starts strictly after the cursor"
    );

    stop.store(true, Ordering::SeqCst);
    let _ = pump_a.join().expect("pump A");
    let _ = pump_b.join().expect("pump B");
}

/// The handshake carries node identity and epoch; heartbeats keep an idle
/// link alive without surfacing as protocol traffic.
#[test]
fn handshake_and_heartbeats_flow() {
    let listener_probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener_probe.local_addr().unwrap().port();
    drop(listener_probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];

    let mut broker = TcpDriver::new(
        NetConfig::new(endpoints.clone())
            .host(0)
            .epoch(3)
            .heartbeat(Duration::from_millis(30)),
    )
    .expect("broker driver binds");
    {
        // Host the single broker node on the raw driver.
        use rebeca_broker::BrokerRole;
        use rebeca_core::{Driver, MobileBroker, SystemNode};
        broker.add_node(SystemNode::Broker(MobileBroker::new(
            rebeca_sim::NodeId::new(0),
            BrokerRole::Border,
            Vec::new(),
            common::broker_config(),
        )));
    }

    let client_net = NetConfig::new(endpoints)
        .epoch(9)
        .heartbeat(Duration::from_millis(30));
    let mut client = SystemBuilder::new(&Topology::line(1))
        .link_delay(DelayModel::constant_millis(1))
        .build_tcp(client_net)
        .expect("client system builds");
    let session = client.connect(CONSUMER, 0).expect("connect");
    session
        .subscribe(&mut client, common::parking_filter())
        .expect("subscribe");

    // Drive both sides; use the raw Driver API on the broker side.
    use rebeca_core::Driver;
    for _ in 0..20 {
        let now = client.now();
        client.run_until(now + SimDuration::from_millis(10));
        let bnow = broker.now();
        broker.run_until(bnow + SimDuration::from_millis(10));
    }

    // The broker saw the client's handshake (node id 1 = first id after
    // the single-broker range) with the client's epoch.
    assert_eq!(broker.peer_epoch(rebeca_sim::NodeId::new(1)), Some(9));
    assert!(broker.metrics().counter("net.hello_in") >= 1);
    assert!(
        broker.metrics().counter("net.frames_in") >= 2,
        "attach + subscribe"
    );
}

/// Self-healing under injected faults: the client's writer drops its socket
/// after every third sequenced frame, redials, and replays its unacked
/// window — the scenario still delivers exactly-once, byte-identical to
/// the simulator, because receivers deduplicate by sequence number.
#[test]
fn forced_drops_resend_without_loss_or_duplication() {
    let (broker_sys, endpoint) = broker_system();
    let stop = Arc::new(AtomicBool::new(false));
    let pump = pump_in_background(broker_sys, stop.clone());

    let client_net = NetConfig::new(vec![endpoint; 3])
        .seed(41)
        .fault(FaultPlan::drop_after(3).recurring());
    let mut client_sys = builder(1)
        .build_tcp(client_net)
        .expect("client system builds");

    let tcp_log = drive_scenario(&mut client_sys, 60_000);
    stop.store(true, Ordering::SeqCst);
    let broker_sys = pump.join().expect("broker pump thread");

    assert_exactly_once(&tcp_log);
    assert_eq!(
        tcp_log,
        reference_sim_log(),
        "forced reconnects must be invisible to the protocol"
    );

    // The fault actually fired and the resend machinery actually worked.
    let m = client_sys.metrics();
    assert!(m.counter("net.link_down") >= 1, "no injected drop fired");
    assert!(
        m.counter("net.frames_resent") >= 1,
        "reconnect replayed nothing"
    );
    // Every drop was followed by a successful re-establishment.
    assert!(m.counter("net.link_up") > m.counter("net.link_down"));
    // The broker side silently absorbed any replay overlap.
    let dups = broker_sys.metrics().counter("net.frames_duplicate");
    let resent = m.counter("net.frames_resent");
    assert!(
        dups <= resent,
        "duplicates ({dups}) cannot exceed resends ({resent})"
    );
}

/// A raw-socket sender that repeats a sequenced frame sees it delivered
/// once: the reader deduplicates by per-direction sequence number and
/// acknowledges cumulatively.
#[test]
fn duplicate_frames_are_suppressed_and_acknowledged_cumulatively() {
    use rebeca_net::wire::Frame;
    use std::io::{Read, Write};

    let listener_probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener_probe.local_addr().unwrap().port();
    drop(listener_probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];

    let mut broker = TcpDriver::new(NetConfig::new(endpoints.clone()).host(0).seed(51))
        .expect("broker driver binds");
    {
        use rebeca_broker::BrokerRole;
        use rebeca_core::{Driver, MobileBroker, SystemNode};
        broker.add_node(SystemNode::Broker(MobileBroker::new(
            rebeca_sim::NodeId::new(0),
            BrokerRole::Border,
            Vec::new(),
            common::broker_config(),
        )));
    }

    let mut socket = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial broker");
    socket
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let hello = Frame::Hello {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        epoch: 0,
        listen: Endpoint::new("127.0.0.1", 1), // never dialled back in this test
        delay: DelayModel::Constant(0),
    };
    let first = Frame::Message {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        delay_micros: 0,
        seq: 1,
        message: rebeca_broker::Message::Attach { client: CONSUMER },
    };
    let second = Frame::Message {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        delay_micros: 0,
        seq: 2,
        message: rebeca_broker::Message::Subscribe {
            subscriber: CONSUMER,
            filter: common::parking_filter(),
        },
    };
    socket.write_all(&hello.encode_framed()).unwrap();
    socket.write_all(&first.encode_framed()).unwrap();
    // The retransmission a reconnecting writer would send: byte-identical.
    socket.write_all(&first.encode_framed()).unwrap();
    socket.write_all(&second.encode_framed()).unwrap();

    // Pump the broker until both unique frames landed, reading the acks the
    // reader pushes back on this same connection.
    use rebeca_core::Driver;
    let mut acked_high = 0u64;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    for _ in 0..100 {
        let now = broker.now();
        broker.run_until(now + SimDuration::from_millis(10));
        match socket.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => {}
        }
        let mut consumed = 0;
        while let Ok((frame, used)) = Frame::decode_framed(&buf[consumed..]) {
            consumed += used;
            if let Frame::Ack { seq } = frame {
                acked_high = acked_high.max(seq);
            }
        }
        buf.drain(..consumed);
        if acked_high >= 2 && broker.metrics().counter("net.frames_duplicate") >= 1 {
            break;
        }
    }

    assert_eq!(acked_high, 2, "cumulative ack reaches the receive high");
    assert_eq!(
        broker.metrics().counter("net.frames_in"),
        2,
        "the duplicate never reached the protocol"
    );
    assert_eq!(broker.metrics().counter("net.frames_duplicate"), 1);
}

/// Epoch fencing: a connection introducing itself with a stale restart
/// epoch is rejected with `Fenced`, and an already-accepted connection is
/// torn down as soon as a newer incarnation of the same peer appears.
#[test]
fn stale_epochs_are_fenced_and_zombie_connections_torn_down() {
    use rebeca_net::wire::Frame;
    use std::io::{Read, Write};

    let listener_probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener_probe.local_addr().unwrap().port();
    drop(listener_probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];

    let mut broker = TcpDriver::new(NetConfig::new(endpoints.clone()).host(0).seed(61))
        .expect("broker driver binds");
    {
        use rebeca_broker::BrokerRole;
        use rebeca_core::{Driver, MobileBroker, SystemNode};
        broker.add_node(SystemNode::Broker(MobileBroker::new(
            rebeca_sim::NodeId::new(0),
            BrokerRole::Border,
            Vec::new(),
            common::broker_config(),
        )));
    }

    let hello = |epoch: u64| Frame::Hello {
        from: rebeca_sim::NodeId::new(1),
        to: rebeca_sim::NodeId::new(0),
        epoch,
        listen: Endpoint::new("127.0.0.1", 1),
        delay: DelayModel::Constant(0),
    };
    let read_fenced = |socket: &mut std::net::TcpStream| -> Option<u64> {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        for _ in 0..100 {
            match socket.read(&mut chunk) {
                Ok(0) => return None, // closed without a reply
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(_) => continue,
            }
            if let Ok((Frame::Fenced { expected }, _)) = Frame::decode_framed(&buf) {
                return Some(expected);
            }
        }
        None
    };
    use rebeca_core::Driver;
    let pump = |broker: &mut TcpDriver| {
        let now = broker.now();
        broker.run_until(now + SimDuration::from_millis(20));
    };

    // Incarnation with epoch 5 introduces itself and is accepted.
    let mut live = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial");
    live.set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    live.write_all(&hello(5).encode_framed()).unwrap();
    pump(&mut broker);

    // A zombie from before the restart (epoch 3) is rejected outright.
    let mut zombie = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial");
    zombie
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    zombie.write_all(&hello(3).encode_framed()).unwrap();
    assert_eq!(
        read_fenced(&mut zombie),
        Some(5),
        "stale hello answered with the expected epoch"
    );

    // A successor incarnation (epoch 6) supersedes the live connection…
    let mut successor = std::net::TcpStream::connect(("127.0.0.1", port)).expect("dial");
    successor
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    successor.write_all(&hello(6).encode_framed()).unwrap();
    pump(&mut broker);

    // …so the epoch-5 connection is fenced off even though it was once
    // legitimate: zombies can never interleave with their successors.
    assert_eq!(read_fenced(&mut live), Some(6), "zombie teardown");

    pump(&mut broker);
    assert!(
        broker.metrics().counter("net.link_fenced_rejected") >= 2,
        "both the stale hello and the superseded connection were counted"
    );
    let journal: Vec<_> = broker
        .metrics()
        .journal()
        .events()
        .filter(|e| e.kind == "link.fenced")
        .map(|e| e.detail.clone())
        .collect();
    assert!(
        journal.iter().any(|d| d.contains("stale_epoch=3")),
        "stale hello journaled, got {journal:?}"
    );
    assert!(
        journal.iter().any(|d| d.contains("stale_epoch=5")),
        "zombie teardown journaled, got {journal:?}"
    );
}

/// Regression: `step()` used to race a 1-microsecond phase window against
/// the live wall clock and intermittently return `false` with the connect
/// timer still pending — the `while system.step() {}` idiom then concluded
/// the system was idle before anything ran.
#[test]
fn step_dispatches_a_due_event_instead_of_reporting_idle() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let endpoints = vec![Endpoint::new("127.0.0.1", port)];
    for round in 0..20 {
        let mut client = SystemBuilder::new(&Topology::line(1))
            .link_delay(DelayModel::constant_millis(1))
            .build_tcp(NetConfig::new(endpoints.clone()).seed(round))
            .expect("client system builds");
        let _session = client.connect(CONSUMER, 0).expect("connect");
        // The Attach action timer is due immediately.
        assert!(
            client.step(),
            "round {round}: step() returned false with a due event pending"
        );
    }
}

/// Hostile input: a node sending to a node it has no link to is counted in
/// `net.frames_unroutable` and journaled — the driver does not panic.
#[test]
fn a_send_to_a_non_neighbour_is_counted_not_a_panic() {
    use rebeca_broker::BrokerRole;
    use rebeca_core::{
        ClientAction, ClientNode, Driver, LogicalMobilityMode, MobileBroker, SystemNode,
    };
    use rebeca_sim::NodeId;

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let mut driver = TcpDriver::new(
        NetConfig::new(vec![Endpoint::new("127.0.0.1", port)])
            .host(0)
            .seed(81),
    )
    .expect("driver binds");
    let config = common::broker_config();
    let graph = config.movement_graph.clone();
    let broker = driver.add_node(SystemNode::Broker(MobileBroker::new(
        NodeId::new(0),
        BrokerRole::Border,
        Vec::new(),
        config,
    )));
    // A client scripted to attach to broker 0, but never linked to it.
    let client = driver.add_node(SystemNode::Client(ClientNode::new(
        CONSUMER,
        vec![ClientAction::Attach { broker }],
        LogicalMobilityMode::LocationDependent,
        graph,
    )));
    let now = driver.now();
    driver.schedule_timer(client, now, 0);
    driver.run_until(now + SimDuration::from_millis(20));

    assert_eq!(driver.metrics().counter("net.frames_unroutable"), 1);
    assert_eq!(driver.metrics().counter("network.messages"), 0);
    let journal: Vec<String> = driver
        .metrics()
        .journal()
        .events()
        .filter(|e| e.kind == "link.unroutable")
        .map(|e| e.detail.clone())
        .collect();
    assert_eq!(journal, vec![format!("from={client} to={broker}")]);
}

/// One frame read off a raw connection: the sender and sequence number of a
/// protocol message, plus how many notifications a `PublishBatch` carried.
struct RawFrame {
    from: usize,
    seq: u64,
    batch: Option<usize>,
}

/// The raw side of one connection the driver dialled: decodes the `Hello`
/// and every message frame; never acknowledges anything.
struct RawConn {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
    frames: Vec<RawFrame>,
}

impl RawConn {
    /// Reads whatever the socket holds right now; returns the byte count.
    fn pump(&mut self) -> usize {
        use rebeca_net::wire::Frame;
        use std::io::Read;
        let mut chunk = [0u8; 64 * 1024];
        let mut total = 0;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    total += n;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
            }
        }
        let mut consumed = 0;
        while let Ok((frame, used)) = Frame::decode_framed(&self.buf[consumed..]) {
            consumed += used;
            if let Frame::Message {
                from, seq, message, ..
            } = frame
            {
                let batch = match message {
                    rebeca_broker::Message::PublishBatch { notifications, .. } => {
                        Some(notifications.len())
                    }
                    _ => None,
                };
                self.frames.push(RawFrame {
                    from: from.index(),
                    seq,
                    batch,
                });
            }
        }
        self.buf.drain(..consumed);
        total
    }
}

/// A slow peer never wedges the driver loop.  A raw listener stands in for
/// broker 1: it accepts the driver's connections but does not read, while a
/// client of broker 1 publishes large batches until the socket buffers are
/// full.  Every `run_until(now + 10 ms)` still returns promptly, and a
/// consumer on the local broker keeps receiving its events.  Once the peer
/// reads, every frame arrives in sequence order with no gap and no
/// duplicate; a peer that never acknowledges still ends in a loud
/// resend-window overflow.
#[test]
fn slow_peer_never_wedges_the_driver_loop() {
    use std::time::Instant;

    const BATCHES: usize = 120;
    const BATCH_LEN: usize = 64;
    const LOCAL_PUBS: u64 = 40;

    let peer = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_port = peer.local_addr().unwrap().port();
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let own_port = probe.local_addr().unwrap().port();
    drop(probe);
    let endpoints = vec![
        Endpoint::new("127.0.0.1", own_port),
        Endpoint::new("127.0.0.1", peer_port),
    ];
    let mut sys = SystemBuilder::new(&Topology::line(2))
        .link_delay(DelayModel::Constant(0))
        .build_tcp(NetConfig::new(endpoints).host(0).seed(91))
        .expect("system builds");

    // Every pump of the loop must come back promptly, whatever the peer.
    fn step(sys: &mut MobilitySystem) {
        let started = Instant::now();
        let now = sys.now();
        sys.run_until(now + SimDuration::from_millis(10));
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "a run_until(now + 10ms) took {took:?} behind a slow peer"
        );
    }

    // Broker 0 serves a local consumer and publisher; the remote producer
    // talks to broker 1 — the raw listener that does not read.
    let consumer = sys.connect(CONSUMER, 0).expect("consumer");
    consumer
        .subscribe(&mut sys, common::parking_filter())
        .expect("subscribe");
    let local = sys
        .connect(rebeca_broker::ClientId::new(3), 0)
        .expect("local publisher");
    let remote = sys.connect(PRODUCER, 1).expect("remote producer");
    for _ in 0..5 {
        step(&mut sys);
    }

    // Phase 1: big batches towards the silent peer, local traffic beside.
    let blob = "x".repeat(1024);
    let batch = |round: usize| -> Vec<rebeca_filter::Notification> {
        (0..BATCH_LEN)
            .map(|i| {
                rebeca_filter::Notification::builder()
                    .attr("round", round as i64)
                    .attr("item", i as i64)
                    .attr("blob", blob.as_str())
                    .build()
            })
            .collect()
    };
    let mut local_sent = 0;
    for round in 0..BATCHES {
        remote
            .publish_batch(&mut sys, batch(round))
            .expect("publish batch");
        if round % 3 == 0 && local_sent < LOCAL_PUBS {
            local_sent += 1;
            local
                .publish(&mut sys, common::vacancy(local_sent))
                .expect("local publish");
        }
        step(&mut sys);
    }
    for _ in 0..10 {
        step(&mut sys);
    }
    assert!(
        sys.metrics().counter("net.writes_handed_off") >= 1,
        "the socket buffer never filled: the test did not exercise a slow peer"
    );
    let received = consumer.log(&sys).expect("consumer log").len() as u64;
    assert_eq!(
        received, local_sent,
        "the local consumer kept receiving while the peer was stalled"
    );

    // Phase 2: the peer starts reading (but never acknowledges).
    peer.set_nonblocking(true).unwrap();
    let mut conns: Vec<RawConn> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let remote_batches = |conns: &[RawConn]| -> usize {
        conns
            .iter()
            .flat_map(|c| &c.frames)
            .filter(|f| f.batch.is_some())
            .count()
    };
    let mut quiet_rounds = 0;
    while quiet_rounds < 20 {
        assert!(Instant::now() < deadline, "the backlog never drained");
        while let Ok((stream, _)) = peer.accept() {
            stream.set_nonblocking(true).unwrap();
            conns.push(RawConn {
                stream,
                buf: Vec::new(),
                frames: Vec::new(),
            });
        }
        let read: usize = conns.iter_mut().map(RawConn::pump).sum();
        step(&mut sys);
        let done = remote_batches(&conns) == BATCHES;
        quiet_rounds = if done && read == 0 {
            quiet_rounds + 1
        } else {
            0
        };
    }
    assert_eq!(conns.len(), 2, "broker 0 and the remote producer dialled");
    for conn in &conns {
        let seqs: Vec<u64> = conn.frames.iter().map(|f| f.seq).collect();
        assert_eq!(
            seqs,
            (1..=seqs.len() as u64).collect::<Vec<_>>(),
            "frames arrive in sequence order with no gap and no duplicate"
        );
        assert!(conn.frames.windows(2).all(|w| w[0].from == w[1].from));
    }
    let sizes: Vec<usize> = conns
        .iter()
        .flat_map(|c| &c.frames)
        .filter_map(|f| f.batch)
        .collect();
    assert_eq!(sizes, vec![BATCH_LEN; BATCHES], "every batch arrived whole");
    assert_eq!(sys.metrics().counter("net.link_failed"), 0);

    // Phase 3: a peer that reads but never acknowledges overflows the
    // resend window, loudly.
    let mut published = 0u64;
    while sys.metrics().counter("net.link_failed") == 0 {
        assert!(
            Instant::now() < deadline,
            "no loud failure from a peer that never acks"
        );
        for _ in 0..50 {
            published += 1;
            remote
                .publish(&mut sys, common::vacancy(published))
                .expect("publish");
        }
        step(&mut sys);
        for conn in &mut conns {
            conn.pump();
        }
    }
    let failures: Vec<String> = sys
        .metrics()
        .journal()
        .events()
        .filter(|e| e.kind == "link.failed")
        .map(|e| e.detail.clone())
        .collect();
    assert!(
        failures
            .iter()
            .any(|d| d.contains("resend window overflow")),
        "overflow journaled, got {failures:?}"
    );
}
