//! `perfbench`: the open-loop multi-process load benchmark.
//!
//! ```text
//! perfbench --workload steady|roaming|wide-match --seed N --seconds S \
//!           --trace 0|1 --node-bin PATH --work-dir DIR
//! ```
//!
//! `--trace 0` runs the workload live against three `rebeca-node`
//! processes and prints the end-to-end metrics; `--trace 1` prints the
//! per-layer ledger from a shorter live run plus an in-process replay of
//! the same inputs.  Every metric is printed as `name value unit` on its
//! own line, and the last line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.  The exit code is
//! 0 when delivery was exactly-once, 3 when the result says it was not, and
//! another non-zero code, without a result, when the run could not finish.
//! `perfbench/run.py` builds the binaries and supplies the paths.

mod cluster;
mod drive;
mod ledger;
mod live;
mod spec;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::{median, quantile};
use spec::{Kind, Spec};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut node_bin = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds expects a number")?),
            "--trace" => trace = value == "1",
            "--node-bin" => node_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        node_bin: node_bin.ok_or("--node-bin is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// The metrics of one run, printed as lines and as the closing JSON.
#[derive(Default)]
pub struct Report {
    /// (name, value, unit) in the final JSON object.
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Report {
    /// A metric that goes into the closing JSON object.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!("{name} {value} {unit}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// A metric printed for the reader only.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("{name} {value} {unit}");
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Share of the run given to the nominal window on `steady`; the rest
/// climbs the rate ladder.
const STEADY_NOMINAL_SHARE: f64 = 0.6;
/// The rate ladder searches up to this many publications per second.
const LADDER_CEILING: f64 = 40_000.0;
/// Seconds one rung takes, set-up and drain included (budgeting only).
const RUNG_BUDGET_S: f64 = 2.5;

fn run_live(args: &Args, spec: &Spec) -> Result<Report, String> {
    let mut report = Report::default();
    let work = cluster::work_dir(&args.work_dir, args.kind.name(), args.seed)?;
    let nominal_s = match args.kind {
        Kind::Steady => args.seconds * STEADY_NOMINAL_SHARE,
        _ => args.seconds,
    };
    let schedule = spec.schedule(args.seed, nominal_s, spec.rate);
    let mut setups = Vec::new();
    if args.kind != Kind::Steady {
        for i in 1..spec.setups {
            setups.push(live::setup_once(
                spec,
                args.seed + i as u64,
                &args.node_bin,
                &work,
            )?);
        }
    }
    let w = live::window(
        spec,
        args.seed,
        &schedule,
        &args.node_bin,
        &work,
        None,
        false,
    )?;
    setups.push(w.setup_s);
    let o = &w.observed;

    let mut sustained = None;
    if args.kind == Kind::Steady {
        let budget = args.seconds - nominal_s;
        let rungs = ((budget / RUNG_BUDGET_S).floor() as usize).max(1);
        let range = (spec.rate, LADDER_CEILING);
        for rung in live::ladder(spec, args.seed, range, rungs, &args.node_bin, &work)? {
            println!(
                "rung {} pubs/s: p99 {:.0} us, failed {}, backlog grew {}, slo {}",
                rung.rate,
                rung.p99_us,
                rung.failed,
                rung.backlog_grew,
                if rung.meets_slo() { "met" } else { "missed" }
            );
            setups.push(rung.setup_s);
            if rung.meets_slo() {
                sustained = Some(sustained.unwrap_or(0.0_f64).max(rung.rate));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    let published = o.published.max(1) as f64;
    println!(
        "workload {} seed {} rate {} pubs/s, {} publications over {:.1} s, {} latency samples",
        args.kind.name(),
        args.seed,
        spec.rate,
        o.published,
        o.span_s,
        o.latencies.len()
    );
    let quiet = live::quiet(&w.slices);
    if quiet.is_empty() {
        return Err(format!(
            "a {nominal_s} s window leaves no slice after the warm-up"
        ));
    }
    println!(
        "quiet slices: {} of {} (host steal {:.3} to {:.3})",
        quiet.len(),
        w.slices.len(),
        quiet.first().map_or(0.0, |s| s.steal),
        quiet.last().map_or(0.0, |s| s.steal),
    );
    // Latency is printed, not gated: on a shared host, steal moves it
    // several-fold between runs (see README.md).
    report.note("deliver_p50_us", live::pooled_quantile(&quiet, 0.5), "us");
    report.note("deliver_p90_us", live::pooled_quantile(&quiet, 0.9), "us");
    report.note("deliver_p99_us", live::pooled_quantile(&quiet, 0.99), "us");
    report.metric("broker_cpu_us_per_pub", live::cpu_per_pub(&w.slices), "us");
    report.note(
        "deliver_p50_whole_run_us",
        live::latency_quantile(o, 0.5),
        "us",
    );
    report.note(
        "deliver_p99_whole_run_us",
        live::latency_quantile(o, 0.99),
        "us",
    );
    report.note(
        "deliver_p999_whole_run_us",
        live::latency_quantile(o, 0.999),
        "us",
    );
    report.note(
        "broker_cpu_whole_run_us_per_pub",
        w.cpu_s * 1e6 / published,
        "us",
    );
    report.metric("broker_rss_mb", w.rss_mb, "MiB");
    report.metric("setup_s", median(&mut setups), "s");
    match args.kind {
        Kind::Steady => {
            // The SLO: p99 publish→deliver ≤ 50 ms, zero failed deliveries
            // and no backlog growth.  The search assumes the nominal rate
            // meets it; when it does not, nothing is sustained.
            let sustained = if meets(&w) {
                sustained.unwrap_or(spec.rate)
            } else {
                0.0
            };
            report.note("sustained_pubs_per_s", sustained, "1/s");
        }
        Kind::Roaming => {
            let mut h = o.handoff_ms.clone();
            report.note("handoff_p50_ms", median(&mut h), "ms");
            report.note("handoff_count", o.handoff_ms.len() as f64, "count");
        }
        Kind::WideMatch => {
            let mut s = o.subscribe_ms.clone();
            report.note("subscribe_p50_ms", median(&mut s), "ms");
            report.note("subscribe_count", o.subscribe_ms.len() as f64, "count");
        }
    }
    let deliveries = o.deliveries.max(1) as f64;
    report.note("delivery_failed_share", o.verdict.failed_share(), "share");
    report.note(
        "reordered_share",
        o.fifo_violations as f64 / deliveries,
        "share",
    );
    let mut late = o.gen_late_us.clone();
    report.note("load.gen_late_p99_us", quantile(&mut late, 0.99), "us");
    report.note("host.steal_share", w.steal_share, "share");
    let counter = |name: &str| -> u64 {
        w.reports
            .iter()
            .flat_map(|r| &r.brokers)
            .flat_map(|b| &b.relocations)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    };
    report.note(
        "relocation_timeouts",
        counter("mobility.relocation_timeout") as f64,
        "count",
    );
    let links_down = w
        .reports
        .iter()
        .flat_map(|r| &r.brokers)
        .flat_map(|b| &b.links)
        .filter(|l| (l.peer as usize) < cluster::BROKERS && !l.connected)
        .count();
    report.note("broker_links_down", links_down as f64, "count");
    report.attempted = o.published.max(1) as u64;
    report.failed = failed_publications(o);
    report.correct = exactly_once(o) && o.published == schedule.pubs.len() && w.brokers_alive;
    Ok(report)
}

/// Publications that were not delivered exactly once, in order, to every
/// subscription that should receive them — the relocation protocol's known
/// bounded hand-over duplicate excepted (it is counted in
/// `delivery_failed_share` instead).
pub fn failed_publications(o: &drive::Observed) -> u64 {
    let v = &o.verdict;
    v.lost_publications
        + (v.duplicated - o.handover_duplicates)
        + v.out_of_order
        + o.unfinished_moves as u64
}

/// Prints the delivery check and tells whether it passed: nothing lost,
/// nothing out of per-subscription order, no move left unfinished, and no
/// duplicate except the relocation protocol's known bounded hand-over
/// duplicate (a publication racing the `move_to` call), which is counted in
/// `delivery_failed_share`.
pub fn exactly_once(o: &drive::Observed) -> bool {
    let v = &o.verdict;
    println!(
        "exactly-once: expected {} lost {} duplicated {} (hand-over {}) out-of-order {} \
         cross-filter-fifo {} unfinished-moves {}",
        v.expected,
        v.lost,
        v.duplicated,
        o.handover_duplicates,
        v.out_of_order,
        o.fifo_violations,
        o.unfinished_moves
    );
    failed_publications(o) == 0
}

/// Whether a nominal window met the SLO.
fn meets(w: &live::Window) -> bool {
    live::latency_quantile(&w.observed, 0.99) <= live::SLO_P99_US
        && w.observed.verdict.failed() == 0
        && w.frames_dropped == 0
}

/// Exit code of a run that completed and printed its result, but whose
/// delivery was not exactly-once (`"correct": false`).
const NOT_EXACTLY_ONCE: u8 = 3;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.kind, args.seed);
    let result = if args.trace {
        traced::run(&args, &spec)
    } else {
        run_live(&args, &spec)
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: delivery was not exactly-once");
                ExitCode::from(NOT_EXACTLY_ONCE)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
