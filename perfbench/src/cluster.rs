//! The broker-process harness: three `rebeca-node` processes on loopback
//! ports, readiness from their `listening` line, teardown on drop (panics
//! included), and CPU/RSS read from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rebeca_net::{ClusterConfig, Endpoint};
use rebeca_sim::{DelayModel, Topology};

/// Brokers in the line topology.
pub const BROKERS: usize = 3;
/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;
const READY_TIMEOUT: Duration = Duration::from_secs(20);
const SPAWN_ATTEMPTS: usize = 4;

/// A running three-broker cluster.  Dropping it kills and reaps every
/// broker process and joins the threads draining their output.
pub struct Cluster {
    children: Vec<Child>,
    drains: Vec<JoinHandle<()>>,
    pub endpoints: Vec<Endpoint>,
}

impl Cluster {
    /// Spawns the brokers and waits until each printed its `listening`
    /// line.  A child that dies before that (a probed port stolen between
    /// probe and bind) restarts the attempt on fresh ports.
    pub fn spawn(
        node_bin: &Path,
        work: &Path,
        persist: bool,
        seed: u64,
    ) -> Result<Cluster, String> {
        let mut last_error = String::new();
        for attempt in 0..SPAWN_ATTEMPTS {
            match Cluster::try_spawn(node_bin, work, persist, seed ^ attempt as u64) {
                Ok(cluster) => return Ok(cluster),
                Err(e) => last_error = e,
            }
        }
        Err(format!(
            "cluster failed to start after {SPAWN_ATTEMPTS} attempts: {last_error}"
        ))
    }

    fn try_spawn(
        node_bin: &Path,
        work: &Path,
        persist: bool,
        seed: u64,
    ) -> Result<Cluster, String> {
        let endpoints: Vec<Endpoint> = probe_ports(BROKERS)?
            .into_iter()
            .map(|port| Endpoint::new("127.0.0.1", port))
            .collect();
        let config = ClusterConfig {
            endpoints: endpoints.clone(),
            topology: Topology::line(BROKERS),
            delay: DelayModel::Constant(0),
            seed,
        };
        let config_path = work.join("cluster.cfg");
        std::fs::write(&config_path, config.render())
            .map_err(|e| format!("write {}: {e}", config_path.display()))?;
        let persist_dir = work.join("wal");
        if persist {
            // A fresh log per cluster: a stale WAL would be replayed.
            let _ = std::fs::remove_dir_all(&persist_dir);
        }

        let mut cluster = Cluster {
            children: Vec::new(),
            drains: Vec::new(),
            endpoints,
        };
        let (ready_tx, ready_rx) = channel();
        for broker in 0..BROKERS {
            let mut command = Command::new(node_bin);
            command
                .arg("--config")
                .arg(&config_path)
                .arg("--broker")
                .arg(broker.to_string())
                // A safety net: a broker outlives no run by much.
                .arg("--run-secs")
                .arg("170");
            if persist {
                command.arg("--persist-dir").arg(&persist_dir);
            }
            let mut child = command
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", node_bin.display()))?;
            let stdout = child.stdout.take().expect("stdout is piped");
            cluster.children.push(child);
            let tx = ready_tx.clone();
            cluster.drains.push(std::thread::spawn(move || {
                let mut lines = BufReader::new(stdout).lines();
                for line in lines.by_ref().map_while(Result::ok) {
                    if line.contains("listening") {
                        let _ = tx.send(broker);
                        break;
                    }
                }
                // Keep draining so a child never blocks on a full pipe.
                for _ in lines {}
            }));
        }
        drop(ready_tx);

        let deadline = Instant::now() + READY_TIMEOUT;
        let mut ready = 0;
        while ready < BROKERS {
            let left = deadline.saturating_duration_since(Instant::now());
            match ready_rx.recv_timeout(left.min(Duration::from_millis(20))) {
                Ok(_) => ready += 1,
                Err(RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err("brokers not listening in time".to_string())
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("a broker exited before listening".to_string())
                }
            }
            for child in &mut cluster.children {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("a broker exited early ({status})"));
                }
            }
        }
        Ok(cluster)
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// User+system CPU seconds of each broker process so far.
    pub fn cpu_secs(&self) -> Vec<f64> {
        self.pids().into_iter().map(cpu_secs).collect()
    }

    /// Summed peak resident set (`VmHWM`) of the broker processes, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(peak_rss_kb).sum::<u64>() as f64 / 1024.0
    }

    /// `true` while every broker process is still running.
    pub fn alive(&mut self) -> bool {
        self.children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(None)))
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
    }
}

/// Probes `n` distinct free loopback ports by binding ephemeral listeners
/// (released on return; [`Cluster::spawn`] retries if one is taken again).
fn probe_ports(n: usize) -> Result<Vec<u16>, String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe a loopback port: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("probe a loopback port: {e}"))
}

/// utime + stime of a process from `/proc/<pid>/stat`, in seconds (0 when
/// the process is gone).
pub fn cpu_secs(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks: u64 = fields
        .get(11..13)
        .map(|f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum())
        .unwrap_or(0);
    ticks as f64 / TICKS_PER_SEC
}

/// The host's cumulative (steal, total) CPU ticks from `/proc/stat`: time
/// the hypervisor gave this machine's CPUs to someone else.
pub fn host_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .map(|cpu| {
            cpu.split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// `VmHWM` of a process from `/proc/<pid>/status`, KiB.
pub fn peak_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The directory for cluster configs and WAL files of one run.
pub fn work_dir(root: &Path, name: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = root.join(format!("{name}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
