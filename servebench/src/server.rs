//! The server under test as a separate process, configured only through
//! `ddn serve` flags, plus readers for its `stats` verb.

use crate::procfs;
use ddn_serve::{ClientConfig, ServeClient, Transport};
use ddn_stats::Json;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a server may take to bind (and recover) before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// A running `ddn serve`. Dropping it kills the process and waits for it.
pub struct Server {
    child: Option<Child>,
    /// The bound `host:port`.
    pub addr: String,
    /// Process id, for `/proc` readings.
    pub pid: u32,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `ddn serve --shards <shards>` on an ephemeral port (with
    /// `--data-dir` when given) and waits until it listens, which for a
    /// durable server means recovery has finished. `scratch` receives the
    /// port file and the server's stderr log.
    pub fn spawn(
        ddn: &Path,
        scratch: &Path,
        tag: &str,
        shards: usize,
        data_dir: Option<&Path>,
    ) -> Result<Server, String> {
        let port_file = scratch.join(format!("port-{tag}"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(scratch.join(format!("serve-{tag}.log")))
            .map_err(|e| format!("server log: {e}"))?;
        let mut cmd = Command::new(ddn);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--shards"])
            .arg(shards.to_string())
            .arg("--port-file")
            .arg(&port_file);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let spawned = Instant::now();
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ddn.display()))?;
        let mut server = Server {
            pid: child.id(),
            child: Some(child),
            addr: String::new(),
            spawned,
        };
        loop {
            // The CLI writes "host:port\n"; a read without the newline
            // caught the write half-way.
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    server.addr = addr.trim().to_string();
                    return Ok(server);
                }
            }
            if let Some(child) = server.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("ddn serve exited during start-up: {status}"));
                }
            }
            if spawned.elapsed() > READY_TIMEOUT {
                return Err("ddn serve did not start listening in time".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Asks the server to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut client = connect(&self.addr)?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let status = self
            .child
            .take()
            .expect("a live server has its child")
            .wait()
            .map_err(|e| format!("waiting for ddn serve: {e}"))?;
        if !status.success() {
            return Err(format!("ddn serve exited with {status}"));
        }
        Ok(())
    }

    /// SIGKILLs the server and waits for it: a crash, as far as the data
    /// directory can tell.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Server CPU time so far, in microseconds.
    pub fn cpu_us(&self) -> Result<f64, String> {
        procfs::cpu_us(self.pid).ok_or_else(|| "cannot read server /proc stat".into())
    }

    /// Server resident set size, in kB.
    pub fn rss_kb(&self) -> Result<u64, String> {
        procfs::rss_kb(self.pid).ok_or_else(|| "cannot read server VmRSS".into())
    }

    /// Context switches over every server thread so far.
    pub fn ctx_switches(&self) -> Result<u64, String> {
        procfs::ctx_switches(self.pid).ok_or_else(|| "cannot read server task status".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Client settings: a generous deadline and immediate retries, so a
/// reconnect after a server restart costs one short backoff.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(120),
        max_retries: 3,
        backoff_base: Duration::from_millis(1),
    }
}

/// A plain client to `addr`.
pub fn connect(addr: &str) -> Result<ServeClient, String> {
    ServeClient::connect_with(addr, client_config()).map_err(|e| format!("connect {addr}: {e}"))
}

/// An address clients dial through, which can be pointed at a restarted
/// server while the clients (and their per-session ingest sequence
/// numbers) live on.
#[derive(Clone, Default)]
pub struct Redirect(Arc<Mutex<String>>);

impl Redirect {
    /// Points every later dial at `addr`.
    pub fn set(&self, addr: &str) {
        *self.0.lock().expect("redirect lock is never poisoned") = addr.to_string();
    }

    /// A client dialing whatever address is current.
    pub fn client(&self) -> Result<ServeClient, String> {
        let target = self.clone();
        ServeClient::from_connector(
            Box::new(move || {
                let addr = target
                    .0
                    .lock()
                    .expect("redirect lock is never poisoned")
                    .clone();
                Ok(Box::new(ddn_serve::TcpTransport::connect(&addr)?) as Box<dyn Transport>)
            }),
            client_config(),
        )
        .map_err(|e| format!("connect: {e}"))
    }
}

/// One `stats` snapshot of the server's registry.
pub struct Stats(Json);

impl Stats {
    /// Polls `stats` through `client`.
    pub fn poll(client: &mut ServeClient) -> Result<Stats, String> {
        let resp = client
            .server_stats(false)
            .map_err(|e| format!("stats: {e}"))?;
        match resp.get("stats") {
            Some(s) => Ok(Stats(s.clone())),
            None => Err(format!("stats response lacks \"stats\": {resp}")),
        }
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// Sum of the gauges whose names start with `prefix`.
    pub fn gauge_sum(&self, prefix: &str) -> f64 {
        self.0
            .get("gauges")
            .and_then(Json::as_object)
            .map(|gs| {
                gs.iter()
                    .filter(|(n, _)| n.starts_with(prefix))
                    .filter_map(|(_, v)| v.as_f64())
                    .sum()
            })
            .unwrap_or(0.0)
    }

    /// `(count, sum)` summed over every shard's histogram
    /// `serve.req.<verb>.<what>.s<k>` — exact, unlike the buckets.
    pub fn shard_hist(&self, verb: &str, what: &str, shards: usize) -> (u64, u64) {
        let mut out = (0, 0);
        for k in 0..shards {
            let name = format!("serve.req.{verb}.{what}.s{k}");
            if let Some(h) = self.0.get("histograms").and_then(|hs| hs.get(&name)) {
                out.0 += h.get("count").and_then(Json::as_u64).unwrap_or(0);
                out.1 += h.get("sum").and_then(Json::as_u64).unwrap_or(0);
            }
        }
        out
    }
}

/// Copies every regular file of `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in sorted_files(from)? {
        let name = entry.file_name().expect("listed files have names");
        std::fs::copy(&entry, to.join(name)).map_err(|e| format!("{}: {e}", entry.display()))?;
    }
    Ok(())
}

/// The regular files directly under `dir`, sorted by name.
pub fn sorted_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    Ok(files)
}
