//! Serving benchmark for `ddn serve`.
//!
//! ```text
//! servebench --workload <chatty-json|bulk-binary|durable-monitor>
//!            --seed <n> --seconds <s> --trace <0|1>
//!            --ddn <path to the ddn binary> --work <scratch dir>
//! ```
//!
//! `--trace 0` spawns the server, sets it up three times, drives the
//! timed phase closed-loop over two connections and prints the
//! end-to-end metrics. `--trace 1` sets up once, drives the same timed
//! phase while reading the server's own counters, then replays the same
//! requests in-process through each layer's public functions and prints
//! the per-layer metrics. Either way the last stdout line is one JSON
//! object; a run that fails a correctness check prints the failure and
//! no metrics, and exits 1. See DESIGN.md beside this crate.

mod drive;
mod gate;
mod layers;
mod procfs;
mod sample;
mod server;
mod stream;

use drive::ConnLog;
use sample::{median, summarize_ns};
use server::{Redirect, Server, Stats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use stream::{Op, Plan, Sizes, Workload, CONNECTIONS, SHARDS};

const USAGE: &str = "usage: servebench --workload <chatty-json|bulk-binary|durable-monitor> \
--seed <n> --seconds <s> --trace <0|1> --ddn <path> --work <dir>";

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Parsed command line.
pub struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    ddn: PathBuf,
    work: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a non-negative integer"))
    };
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
        ddn: PathBuf::from(get("ddn")?),
        work: PathBuf::from(get("work")?),
    };
    for key in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "ddn", "work"].contains(key) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    Ok(args)
}

/// A named metric with its unit, in output order.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Metrics plus the lines explaining them.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds an explanatory line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Everything a finished (gated) run hands to the printer.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
}

/// A check that failed after the run counted its operations.
struct Failure {
    message: String,
    attempted: u64,
    failed: u64,
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure {
            message,
            attempted: 0,
            failed: 0,
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let scratch = args.work.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&scratch)
        .map_err(|e| Failure::from(format!("{}: {e}", scratch.display())))
        .and_then(|()| run(&args, &scratch));
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(out) => {
            for line in &out.report.notes {
                println!("{line}");
            }
            let metrics: Vec<String> = out
                .report
                .metrics
                .iter()
                .map(|m| {
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}}}",
                        json_str(&m.name),
                        json_num(m.value),
                        json_str(m.unit)
                    )
                })
                .collect();
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                out.attempted.max(1),
                out.failed,
                metrics.join(", ")
            );
        }
        Err(f) => {
            println!("FAILED: {}", f.message);
            eprintln!("servebench: {}", f.message);
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
                f.attempted.max(1),
                f.failed.max(1)
            );
            std::process::exit(1);
        }
    }
}

fn json_str(s: &str) -> String {
    ddn_stats::Json::str(s).to_string()
}

/// A finite number as JSON, with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Host facts recorded with every run; never used to rescale or drop.
struct Host {
    steal_start: Option<u64>,
    calibration_s: f64,
}

impl Host {
    fn start() -> Host {
        let steal_start = procfs::steal_ticks();
        // A fixed single-thread loop, timed nine times; its median tracks
        // how fast this host runs plain CPU work right now.
        let times: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(calibration_loop(std::hint::black_box(4_000_000)));
                t.elapsed().as_secs_f64()
            })
            .collect();
        Host {
            steal_start,
            calibration_s: median(&times),
        }
    }

    fn notes(&self, args: &Args, report: &mut Report) {
        let steal = match (self.steal_start, procfs::steal_ticks()) {
            (Some(a), Some(b)) => (b - a).to_string(),
            _ => "unavailable".into(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        report.note(format!(
            "host: nproc={nproc} steal_ticks_delta={steal} calibration_loop_median_s={:.6} \
             cpus_allowed={} data_fs={} git_rev={} source_digest={:016x} seed={}",
            self.calibration_s,
            procfs::cpus_allowed().unwrap_or_else(|| "unknown".into()),
            procfs::fs_type_of(&args.work).unwrap_or_else(|| "unknown".into()),
            git_rev().unwrap_or_else(|| "none".into()),
            source_digest(),
            args.seed,
        ));
    }
}

fn calibration_loop(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
    }
    acc
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(Path::new(".git").join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over the sources the server is built from (the root manifest,
/// lock file and every file under `crates/`), so results from a checkout
/// without git metadata still name the code they measured.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, out);
                } else {
                    out.push(p);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = stream::Fnv::new();
    for f in files {
        h.eat(f.to_string_lossy().as_bytes());
        h.eat(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

/// Server-side readings bracketing the timed phase.
pub struct Bracket {
    /// `stats` before and after the timed phase, and after the closing
    /// estimates.
    pub stats: (Stats, Stats, Stats),
    /// Server CPU microseconds before and after.
    pub cpu_us: (f64, f64),
    /// Server context switches before and after.
    pub ctx: (u64, u64),
    /// Generator CPU microseconds before and after.
    pub self_cpu_us: (f64, f64),
}

/// The live server and the clients left after set-up.
struct Live {
    server: Server,
    clients: Vec<ddn_serve::ServeClient>,
    setup_s: Vec<f64>,
    /// Init round trips measured outside the timed phase (set-up for
    /// bulk-binary, the pre-phase for durable-monitor).
    untimed_inits: Vec<u64>,
    /// Logs of the last set-up (and the durable pre-phase), which the
    /// parity check needs.
    history: ConnLog,
    /// Attempts and failures of every set-up, pre-phase included.
    attempts: (u64, u64),
    /// What the durable pre-phase left behind.
    preload: Option<Preload>,
}

/// The durable pre-phase's data directory, kept to be replayed.
pub struct Preload {
    /// The pre-phase server's `stats` just before the kill.
    pub stats: Stats,
    /// The directory the killed server left.
    pub dir: PathBuf,
    /// FNV-1a over its file names and bytes.
    pub digest: u64,
    /// Its total size in bytes.
    pub bytes: u64,
}

fn spawn(
    args: &Args,
    scratch: &Path,
    tag: &str,
    data_dir: Option<&Path>,
) -> Result<Server, String> {
    Server::spawn(&args.ddn, scratch, tag, SHARDS, data_dir)
}

fn fold(logs: Vec<ConnLog>) -> ConnLog {
    let mut all = ConnLog::default();
    for l in logs {
        all.merge(l);
    }
    all
}

/// Spawns and sets up the server `setups` times (each from scratch) and
/// keeps the last one running.
fn set_up(args: &Args, plan: &Plan, scratch: &Path, setups: usize) -> Result<Live, String> {
    let mut setup_s = Vec::new();
    let mut untimed_inits = Vec::new();
    let mut attempts = (0, 0);
    let book = |log: &ConnLog, attempts: &mut (u64, u64)| {
        let (a, f) = log.totals();
        attempts.0 += a;
        attempts.1 += f;
    };
    if plan.workload == Workload::DurableMonitor {
        let (redirect, mut clients, preload, prelog) = durable_preload(args, plan, scratch)?;
        book(&prelog, &mut attempts);
        untimed_inits.extend_from_slice(prelog.samples("init"));
        let mut history = prelog;
        for k in 0..setups {
            let dir = scratch.join(format!("data-{k}"));
            server::copy_dir(&preload.dir, &dir)?;
            let server = spawn(args, scratch, &format!("setup-{k}"), Some(&dir))?;
            redirect.set(&server.addr);
            let logs = drive::run_lists(plan, &mut clients, &plan.setup);
            setup_s.push(server.spawned.elapsed().as_secs_f64());
            let log = fold(logs);
            book(&log, &mut attempts);
            log.check(&format!("set-up {k}"))?;
            if k + 1 == setups {
                history.merge(log);
                return Ok(Live {
                    server,
                    clients,
                    setup_s,
                    untimed_inits,
                    history,
                    attempts,
                    preload: Some(preload),
                });
            }
            server.kill();
            let _ = std::fs::remove_dir_all(&dir);
        }
        unreachable!("setups >= 1");
    }
    for k in 0..setups {
        let server = spawn(args, scratch, &format!("setup-{k}"), None)?;
        let mut clients = (0..CONNECTIONS)
            .map(|_| server::connect(&server.addr))
            .collect::<Result<Vec<_>, _>>()?;
        let logs = drive::run_lists(plan, &mut clients, &plan.setup);
        setup_s.push(server.spawned.elapsed().as_secs_f64());
        let log = fold(logs);
        book(&log, &mut attempts);
        log.check(&format!("set-up {k}"))?;
        untimed_inits.extend_from_slice(log.samples("init"));
        if k + 1 == setups {
            return Ok(Live {
                server,
                clients,
                setup_s,
                untimed_inits,
                history: log,
                attempts,
                preload: None,
            });
        }
        drop(clients);
        server.shutdown()?;
    }
    unreachable!("setups >= 1")
}

/// The durable pre-phase: load every session over one request stream,
/// settle both shards, SIGKILL the server, and fingerprint what it left.
fn durable_preload(
    args: &Args,
    plan: &Plan,
    scratch: &Path,
) -> Result<(Redirect, Vec<ddn_serve::ServeClient>, Preload, ConnLog), String> {
    let dir = scratch.join("preload");
    let server = spawn(args, scratch, "preload", Some(&dir))?;
    let redirect = Redirect::default();
    redirect.set(&server.addr);
    let mut clients = (0..CONNECTIONS)
        .map(|_| redirect.client())
        .collect::<Result<Vec<_>, _>>()?;
    let mut ops = plan.preload();
    // One read per shard, answered only after any snapshot the last
    // ingests triggered has been written: the directory is then settled.
    for shard in 0..SHARDS {
        if let Some(s) = (0..plan.sessions.len())
            .find(|&s| stream::shard_of(&plan.sessions[s].name, SHARDS) == shard)
        {
            ops.push(Op::Estimate(s));
        }
    }
    let mut log = drive::run_serial(plan, &mut clients, &ops);
    log.check("durable pre-phase")?;
    // A dispatcher-side read: it leaves the data directory untouched.
    let stats = Stats::poll(&mut server::connect(&server.addr)?)?;
    server.kill();
    // The settle reads are not final estimates; parity uses later ones.
    log.estimates.clear();
    let mut h = stream::Fnv::new();
    let mut bytes = 0;
    for f in server::sorted_files(&dir)? {
        let data = std::fs::read(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        h.eat(
            f.file_name()
                .expect("files have names")
                .to_string_lossy()
                .as_bytes(),
        );
        h.eat(&data);
        bytes += data.len() as u64;
    }
    Ok((
        redirect,
        clients,
        Preload {
            stats,
            dir,
            digest: h.0,
            bytes,
        },
        log,
    ))
}

/// Reads the server-side bracket values.
fn read_bracket(
    server: &Server,
    stats_client: &mut ddn_serve::ServeClient,
) -> Result<(Stats, f64, u64, f64), String> {
    let stats = Stats::poll(stats_client)?;
    Ok((
        stats,
        server.cpu_us()?,
        server.ctx_switches()?,
        procfs::self_cpu_us().unwrap_or(0.0),
    ))
}

/// Everything measured in one run, before it is turned into metrics.
pub struct Measured {
    /// Set-up durations, seconds.
    pub setup_s: Vec<f64>,
    /// Timed-phase logs, merged over connections.
    pub timed: ConnLog,
    /// Timed-phase logs per connection (the replay re-runs connection 0).
    pub timed_ops: Vec<usize>,
    /// Timed-phase wall seconds.
    pub wall_s: f64,
    /// Server readings around the timed phase.
    pub bracket: Bracket,
    /// Closing estimates.
    pub closing: ConnLog,
    /// Init round trips measured outside the timed phase.
    pub untimed_inits: Vec<u64>,
    /// RSS of a freshly started empty server, kB.
    pub rss_empty_kb: u64,
    /// `stats` of that empty server: every counter at zero.
    pub empty_stats: Stats,
    /// RSS at the end, kB.
    pub rss_end_kb: u64,
    /// Live sessions at the end.
    pub live_sessions: f64,
    /// Sessions whose parity was checked.
    pub parity_sessions: usize,
    /// Durable pre-phase data, if any.
    pub preload: Option<Preload>,
    /// Client retry attempts during the timed phase.
    pub retries: u64,
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, Failure> {
    let host = Host::start();
    let t_plan = Instant::now();
    let sizes = Sizes::full(args.workload, args.seconds);
    let plan = Plan::build(args.workload, args.seed, sizes)?;
    let plan_s = t_plan.elapsed().as_secs_f64();

    let (rss_empty_kb, empty_stats) = {
        let server = spawn(args, scratch, "empty", None)?;
        // One round trip so every server thread has started.
        let stats = Stats::poll(&mut server::connect(&server.addr)?)?;
        let rss = server.rss_kb()?;
        server.shutdown()?;
        (rss, stats)
    };

    let setups = if args.trace { 1 } else { SETUPS };
    let mut live = set_up(args, &plan, scratch, setups)?;
    let mut stats_client = server::connect(&live.server.addr)?;
    let retries = |clients: &[ddn_serve::ServeClient]| -> u64 {
        clients.iter().map(|c| c.stats().retry_attempts()).sum()
    };
    let retries_before = retries(&live.clients);
    let before = read_bracket(&live.server, &mut stats_client)?;
    let (logs, wall) = drive::run_timed(&plan, &mut live.clients, args.seconds as f64);
    let after = read_bracket(&live.server, &mut stats_client)?;
    let timed_retries = retries(&live.clients) - retries_before;
    let timed_ops: Vec<usize> = logs.iter().map(|l| l.ops).collect();
    let timed = fold(logs);
    let closing_lists: Vec<Vec<Op>> = (0..CONNECTIONS).map(|c| plan.closing(c)).collect();
    let closing = fold(drive::run_lists(&plan, &mut live.clients, &closing_lists));
    let end_stats = Stats::poll(&mut stats_client)?;
    let rss_end_kb = live.server.rss_kb()?;
    drop(stats_client);

    let (mut attempted, mut failed) = live.attempts;
    for log in [&timed, &closing] {
        let (a, f) = log.totals();
        attempted += a;
        failed += f;
    }
    let fail = |message: String| Failure {
        message,
        attempted,
        failed,
    };
    timed.check("timed phase").map_err(fail)?;
    closing.check("closing estimates").map_err(fail)?;
    let delta = after.0.counter("serve.ingest.records") - before.0.counter("serve.ingest.records");
    gate::exactly_once(delta, timed.records_acked).map_err(fail)?;

    // Parity over everything each session was fed, set-up included.
    let mut history = std::mem::take(&mut live.history);
    let mut estimates = std::mem::take(&mut history.estimates);
    estimates.extend(timed.estimates.clone());
    estimates.extend(closing.estimates.clone());
    let mut totals = history.acked_per_session;
    for (&s, &n) in &timed.acked_per_session {
        *totals.entry(s).or_default() += n;
    }
    let parity_sessions = gate::parity(&plan, &estimates, &totals).map_err(fail)?;
    let live_sessions = end_stats.gauge_sum("serve.sessions.live.");

    let measured = Measured {
        setup_s: live.setup_s,
        timed,
        timed_ops,
        wall_s: wall.as_secs_f64(),
        bracket: Bracket {
            stats: (before.0, after.0, end_stats),
            cpu_us: (before.1, after.1),
            ctx: (before.2, after.2),
            self_cpu_us: (before.3, after.3),
        },
        closing,
        untimed_inits: live.untimed_inits,
        rss_empty_kb,
        empty_stats,
        rss_end_kb,
        live_sessions,
        parity_sessions,
        preload: live.preload,
        retries: timed_retries,
    };
    drop(live.clients);
    live.server.shutdown().map_err(fail)?;

    let mut report = Report::default();
    host.notes(args, &mut report);
    report.note(format!(
        "workload={} seed={} seconds={} inputs_realized_s={plan_s:.3} request_stream_digest={:016x}",
        args.workload.name(),
        args.seed,
        args.seconds,
        plan.digest(4096),
    ));
    if let Some(p) = &measured.preload {
        report.note(format!(
            "durable pre-phase: data dir digest={:016x} bytes={} (one request in flight, fixed order)",
            p.digest, p.bytes
        ));
    }
    describe(&measured, &mut report);
    if args.trace {
        layers::report(args, &plan, &measured, scratch, &mut report).map_err(fail)?;
    } else {
        end_to_end(&measured, &mut report);
    }
    Ok(Outcome {
        report,
        attempted,
        failed,
    })
}

/// Per-verb attempts, failures, sample counts, p50 and p99.
fn describe(m: &Measured, report: &mut Report) {
    report.note(format!(
        "setup_s samples: {:?}",
        m.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    ));
    for (phase, log) in [("timed", &m.timed), ("closing", &m.closing)] {
        for (verb, v) in &log.verbs {
            let s = summarize_ns(&v.samples);
            let us: Vec<f64> = v.samples.iter().map(|&ns| ns as f64 / 1e3).collect();
            report.note(format!(
                "{phase} {verb}: attempted={} failed={} n={} p50_us={:.2} p99_us={:.2} mean_us={:.2} \
                 iqr_share={:.3}",
                v.attempted,
                v.failed,
                s.count,
                s.p50,
                s.p99,
                s.mean,
                sample::iqr_share(&us).unwrap_or(0.0)
            ));
        }
    }
    if !m.untimed_inits.is_empty() {
        let s = summarize_ns(&m.untimed_inits);
        report.note(format!(
            "untimed init: n={} p50_us={:.2} p99_us={:.2}",
            s.count, s.p50, s.p99
        ));
    }
    for (framing, samples) in &m.timed.by_framing {
        let s = summarize_ns(samples);
        report.note(format!(
            "timed ingest over {framing}: n={} p50_us={:.2} p99_us={:.2}",
            s.count, s.p50, s.p99
        ));
    }
    report.note(format!(
        "timed phase: records_acked={} wall_s={:.4} parity_sessions={} live_sessions={} \
         rss_empty_kb={} rss_end_kb={}",
        m.timed.records_acked,
        m.wall_s,
        m.parity_sessions,
        m.live_sessions,
        m.rss_empty_kb,
        m.rss_end_kb
    ));
}

/// The seven end-to-end metrics.
fn end_to_end(m: &Measured, report: &mut Report) {
    let records = m.timed.records_acked.max(1) as f64;
    let p50 = |samples: &[u64]| summarize_ns(samples).p50;
    let init = if m.timed.samples("init").is_empty() {
        p50(&m.untimed_inits)
    } else {
        p50(m.timed.samples("init"))
    };
    let estimate = if m.timed.samples("estimate").is_empty() {
        p50(m.closing.samples("estimate"))
    } else {
        p50(m.timed.samples("estimate"))
    };
    report.metric("setup_s", median(&m.setup_s), "s");
    report.metric(
        "records_per_s",
        m.timed.records_acked as f64 / m.wall_s,
        "rec/s",
    );
    report.metric("ingest_p50_us", p50(m.timed.samples("ingest")), "us");
    report.metric("init_p50_us", init, "us");
    report.metric("estimate_p50_us", estimate, "us");
    report.metric(
        "server_cpu_us_per_record",
        (m.bracket.cpu_us.1 - m.bracket.cpu_us.0) / records,
        "us",
    );
    report.metric(
        "server_rss_kb_per_session",
        (m.rss_end_kb as f64 - m.rss_empty_kb as f64) / m.live_sessions.max(1.0),
        "kB",
    );
}
