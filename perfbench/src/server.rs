//! The program under test as child processes: `setlearn train` per tenant
//! and one `setlearn serve --root` registry. Every child is killed and
//! reaped when its handle drops, including on panic.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::{Tenant, Workload};

/// A child process that is killed and waited for on drop.
pub struct Proc {
    child: Child,
}

impl Proc {
    fn spawn(cmd: &mut Command, log: &Path) -> Result<Proc, String> {
        let out =
            std::fs::File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
        Ok(Proc { child })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Trains every tenant under `root` with the shipped CLI, two at a time
/// (the host has two cores), most expensive first. Returns the wall time of
/// each tenant's training, in tenant order.
pub fn train_all(bin: &Path, root: &Path, wl: &Workload, logs: &Path) -> Result<Vec<f64>, String> {
    let mut order: Vec<usize> = (0..wl.tenants.len()).collect();
    // Cardinality with the default subset pool trains longest, then index.
    let cost = |t: &Tenant| match t.task_flag() {
        "cardinality" => 0,
        "index" => 1,
        _ => 2,
    };
    order.sort_by_key(|&i| cost(&wl.tenants[i]));
    let mut times = vec![0.0; wl.tenants.len()];
    let mut running: Vec<(usize, Proc, Instant)> = Vec::new();
    let mut next = 0;
    while next < order.len() || !running.is_empty() {
        while running.len() < 2 && next < order.len() {
            let i = order[next];
            next += 1;
            let t = &wl.tenants[i];
            let mut cmd = Command::new(bin);
            cmd.arg("train")
                .arg("--root")
                .arg(root)
                .arg("--collection")
                .arg(t.name)
                .arg("--task")
                .arg(t.task_flag())
                .args(&t.train_args);
            let proc = Proc::spawn(&mut cmd, &logs.join(format!("train-{}.log", t.name)))?;
            running.push((i, proc, Instant::now()));
        }
        std::thread::sleep(Duration::from_millis(2));
        let mut k = 0;
        while k < running.len() {
            let status = running[k].1.child.try_wait().map_err(|e| e.to_string())?;
            match status {
                None => k += 1,
                Some(status) => {
                    let (i, _proc, started) = running.swap_remove(k);
                    if !status.success() {
                        return Err(format!(
                            "training tenant {} failed ({status}); see {}",
                            wl.tenants[i].name,
                            logs.join(format!("train-{}.log", wl.tenants[i].name))
                                .display()
                        ));
                    }
                    times[i] = started.elapsed().as_secs_f64();
                }
            }
        }
    }
    Ok(times)
}

/// A running `setlearn serve --root` registry.
pub struct Server {
    proc: Proc,
    pub addr: SocketAddr,
}

/// How a server is started; kept so it can be restarted identically.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub bin: PathBuf,
    pub root: PathBuf,
    pub logs: PathBuf,
    pub compact_after: Option<usize>,
}

impl Server {
    /// Starts the registry at CLI defaults (2 workers per collection,
    /// `max_batch` 64, `max_delay` 200 µs). `slow_log` records every
    /// request in the slow-query ring (the traced run's stage source).
    pub fn start(spec: &ServerSpec, slow_log: bool, tag: &str) -> Result<Server, String> {
        let addr_file = spec.logs.join(format!("addr-{tag}.txt"));
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new(&spec.bin);
        cmd.arg("serve")
            .arg("--root")
            .arg(&spec.root)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--addr-file")
            .arg(&addr_file);
        if let Some(n) = spec.compact_after {
            cmd.arg("--compact-after").arg(n.to_string());
        }
        if slow_log {
            cmd.arg("--slow-query-ms").arg("0");
        }
        let log = spec.logs.join(format!("serve-{tag}.log"));
        let mut proc = Proc::spawn(&mut cmd, &log)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    return Ok(Server { proc, addr });
                }
            }
            if let Some(status) = proc.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!(
                    "server exited early ({status}); see {}",
                    log.display()
                ));
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "server did not listen within 30 s; see {}",
                    log.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Peak resident memory of the server process (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.proc.pid()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(f64::NAN)
    }

    /// `kill -9`: no drain, no flush — what a crash leaves behind.
    pub fn kill9(self) {
        drop(self.proc);
    }
}
