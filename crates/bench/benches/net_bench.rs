//! Loopback TCP transport bench: publish→deliver throughput and relocation
//! latency of [`TcpDriver`] vs the same event loop in process
//! (`build_threaded()`, the `threaded` ids), plus the cost of surviving
//! forced connection drops (`net/reconnect`).
//!
//! One iteration = one full wall-clock deployment run: build the system(s),
//! settle the subscription, publish `PUBLICATIONS` vacancies (relocating
//! the consumer mid-stream in the `relocation` group), and poll until every
//! delivery arrived.  The TCP side runs TWO drivers in one process — the
//! brokers pumped by a background thread, the clients driven by the bench
//! thread — so every client↔broker message crosses a real loopback socket.
//!
//! Both variants share the completion-driven structure (the same settle
//! window and poll cadence), so their within-run ratio isolates the
//! transport cost.  The `reconnect` group runs the TCP quickstart with a
//! recurring [`FaultPlan`] tearing the client's links down every
//! [`DROP_EVERY`] frames, publishing one vacancy at a time so each
//! publish→deliver latency is observed individually; the pooled p99 rides
//! the synthetic sample `net/reconnect/publish_p99/40`.
//! `scripts/bench_gate.py` gates the `threaded` vs `tcp` ratios, the
//! quickstart-vs-reconnect ratio, and the absolute medians against
//! `BENCH_net.json`.
//!
//! Each variant is verified once outside the timed loop: exactly-once
//! delivery of all publications, clean log — for the reconnect variant the
//! verification additionally asserts the injected drops actually fired and
//! frames were resent, so the gated number measures real healing work.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use rebeca_broker::{ClientId, ConsumerLog};
use rebeca_core::{BrokerConfig, MobilitySystem, SystemBuilder};
use rebeca_filter::{Constraint, Filter, Notification};
use rebeca_location::MovementGraph;
use rebeca_net::{Endpoint, FaultPlan, NetConfig, SystemBuilderTcp, TcpDriver};
use rebeca_routing::RoutingStrategyKind;
use rebeca_sim::{DelayModel, SimDuration, Topology};

const CONSUMER: ClientId = ClientId::new(1);
const PRODUCER: ClientId = ClientId::new(2);
const PUBLICATIONS: u64 = 40;
/// Wall-clock window left for attach + subscription flooding per run.
const SETTLE: SimDuration = SimDuration::from_millis(30);
/// Poll cadence while waiting for deliveries.
const POLL: SimDuration = SimDuration::from_millis(5);
/// The reconnect group's fault plan tears the client's writer links down
/// after every this many frames, so one run crosses several redial +
/// resend cycles.
const DROP_EVERY: u64 = 12;
/// Verification rounds pooled into the publish→deliver p99 sample.
const P99_ROUNDS: usize = 3;

fn subscription() -> Filter {
    Filter::new().with("service", Constraint::Eq("parking".into()))
}

fn vacancy(i: u64) -> Notification {
    Notification::builder()
        .attr("service", "parking")
        .attr("spot", i as i64)
        .build()
}

fn builder() -> SystemBuilder {
    SystemBuilder::new(&Topology::line(3))
        .config(
            BrokerConfig::default()
                .with_strategy(RoutingStrategyKind::Covering)
                .with_movement_graph(MovementGraph::paper_example())
                .with_relocation_timeout(SimDuration::from_secs(5)),
        )
        .link_delay(DelayModel::Constant(200))
        .seed(7)
}

fn wait_for_deliveries(sys: &mut MobilitySystem, want: usize) {
    let deadline = sys.now() + SimDuration::from_secs(10);
    loop {
        if sys.client_log(CONSUMER).expect("consumer log").len() >= want {
            return;
        }
        let now = sys.now();
        assert!(now < deadline, "deliveries stalled at {want} wanted");
        sys.run_until(now + POLL);
    }
}

/// The scenario body shared by both drivers (the system is already built).
fn drive(sys: &mut MobilitySystem, relocate: bool) {
    let consumer = sys.connect(CONSUMER, 0).expect("consumer");
    consumer.subscribe(sys, subscription()).expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer");
    let now = sys.now();
    sys.run_until(now + SETTLE);

    let half = PUBLICATIONS / 2;
    for i in 1..=half {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    wait_for_deliveries(sys, half as usize);
    if relocate {
        consumer.move_to(sys, 1).expect("relocate");
    }
    for i in half + 1..=PUBLICATIONS {
        producer.publish(sys, vacancy(i)).expect("publish");
    }
    wait_for_deliveries(sys, PUBLICATIONS as usize);
}

fn run_threaded(relocate: bool) -> ConsumerLog {
    let mut sys = builder().build_threaded().expect("threaded system");
    drive(&mut sys, relocate);
    sys.client_log(CONSUMER).expect("consumer log").clone()
}

/// Broker process stand-in shared by the TCP variants: one driver hosting
/// all brokers on an ephemeral loopback listener, pumped by a background
/// thread until the host is dropped.
struct BrokerHost {
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl BrokerHost {
    fn spawn() -> Self {
        let placeholder = vec![Endpoint::new("127.0.0.1", 0); 3];
        let driver = TcpDriver::new(NetConfig::new(placeholder).host_all().seed(11))
            .expect("bind broker listener");
        let endpoint = driver.listen_endpoint().clone();
        let broker_sys = builder()
            .build_with(Box::new(driver))
            .expect("broker system");
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stop = stop.clone();
            let mut sys = broker_sys;
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let now = sys.now();
                    sys.run_until(now + SimDuration::from_millis(10));
                }
            })
        };
        BrokerHost {
            endpoint,
            stop,
            pump: Some(pump),
        }
    }
}

impl Drop for BrokerHost {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pump) = self.pump.take() {
            pump.join().expect("broker pump");
        }
    }
}

fn run_tcp(relocate: bool) -> ConsumerLog {
    let host = BrokerHost::spawn();
    let mut client_sys = builder()
        .build_tcp(NetConfig::new(vec![host.endpoint.clone(); 3]).seed(13))
        .expect("client system");
    drive(&mut client_sys, relocate);
    client_sys
        .client_log(CONSUMER)
        .expect("consumer log")
        .clone()
}

/// The quickstart scenario over TCP with the client's links forcibly torn
/// down every [`DROP_EVERY`] frames.  Publishes one vacancy at a time and
/// records each wall-clock publish→deliver latency in nanoseconds, so
/// the pooled p99 captures the messages that straddle a redial + resend
/// cycle.  Returns the log, the latencies, and the count of injected
/// drops the client survived.
fn run_reconnect() -> (ConsumerLog, Vec<f64>, u64) {
    let host = BrokerHost::spawn();
    let fault = FaultPlan::drop_after(DROP_EVERY).recurring();
    let mut sys = builder()
        .build_tcp(
            NetConfig::new(vec![host.endpoint.clone(); 3])
                .seed(13)
                .fault(fault),
        )
        .expect("client system");
    let consumer = sys.connect(CONSUMER, 0).expect("consumer");
    consumer
        .subscribe(&mut sys, subscription())
        .expect("subscribe");
    let producer = sys.connect(PRODUCER, 2).expect("producer");
    let now = sys.now();
    sys.run_until(now + SETTLE);

    let mut latencies = Vec::with_capacity(PUBLICATIONS as usize);
    for i in 1..=PUBLICATIONS {
        let published = std::time::Instant::now();
        producer.publish(&mut sys, vacancy(i)).expect("publish");
        wait_for_deliveries(&mut sys, i as usize);
        latencies.push(published.elapsed().as_nanos() as f64);
    }
    let drops = sys.metrics().counter("net.link_down");
    let log = sys.client_log(CONSUMER).expect("consumer log").clone();
    (log, latencies, drops)
}

/// Appends the pooled publish→deliver p99 to `CRITERION_JSON` in the same
/// concatenated-array format the criterion shim emits, so
/// `scripts/bench_gate.py` gates it alongside the regular samples.
fn report_reconnect_p99(mut pooled: Vec<f64>) {
    assert!(!pooled.is_empty(), "no reconnect latency samples");
    pooled.sort_by(|a, b| a.total_cmp(b));
    let idx = ((pooled.len() as f64 * 0.99).ceil() as usize).clamp(1, pooled.len()) - 1;
    let p99 = pooled[idx];
    let samples = pooled.len();
    println!(
        "{:<60} p99: {:>10.1} us ({samples} publishes across forced drops)",
        "net/reconnect/publish_p99/40",
        p99 / 1000.0
    );
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let record = format!(
        "[\n  {{\"name\": \"net/reconnect/publish_p99/40\", \"ns_per_iter\": {p99:.1}, \"iters\": {samples}}}\n]\n"
    );
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = result {
        eprintln!("net_bench: cannot write {path}: {e}");
    }
}

fn verify(log: &ConsumerLog, label: &str) {
    assert!(log.is_clean(), "{label}: {:?}", log.violations());
    assert_eq!(
        log.distinct_publisher_seqs(PRODUCER),
        (1..=PUBLICATIONS).collect::<Vec<u64>>(),
        "{label}: incomplete delivery"
    );
}

fn bench_net(c: &mut Criterion) {
    // Equivalent work outside the timed loops: both transports deliver the
    // full stream exactly once, with and without the mid-run relocation.
    verify(&run_threaded(false), "threaded/quickstart");
    verify(&run_tcp(false), "tcp/quickstart");
    verify(&run_threaded(true), "threaded/relocation");
    verify(&run_tcp(true), "tcp/relocation");

    // Reconnect variant: exactly-once across real injected drops, with the
    // per-publish latencies pooled into the p99 sample.  Requiring at
    // least one drop and one resend per round keeps the gated number
    // honest — a fault plan that silently stopped firing would otherwise
    // make the bench measure a clean run.
    let mut pooled = Vec::with_capacity(P99_ROUNDS * PUBLICATIONS as usize);
    for round in 0..P99_ROUNDS {
        let (log, latencies, drops) = run_reconnect();
        verify(&log, "tcp/reconnect");
        assert!(drops >= 1, "round {round}: no injected drop fired");
        pooled.extend(latencies);
    }
    report_reconnect_p99(pooled);

    let mut group = c.benchmark_group("net/quickstart");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("threaded", PUBLICATIONS), &(), |b, _| {
        b.iter(|| black_box(run_threaded(false)))
    });
    group.bench_with_input(BenchmarkId::new("tcp", PUBLICATIONS), &(), |b, _| {
        b.iter(|| black_box(run_tcp(false)))
    });
    group.finish();

    let mut group = c.benchmark_group("net/relocation");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("threaded", PUBLICATIONS), &(), |b, _| {
        b.iter(|| black_box(run_threaded(true)))
    });
    group.bench_with_input(BenchmarkId::new("tcp", PUBLICATIONS), &(), |b, _| {
        b.iter(|| black_box(run_tcp(true)))
    });
    group.finish();

    let mut group = c.benchmark_group("net/reconnect");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("tcp", PUBLICATIONS), &(), |b, _| {
        b.iter(|| black_box(run_reconnect()))
    });
    group.finish();
}

criterion_group!(benches, bench_net);
criterion_main!(benches);
