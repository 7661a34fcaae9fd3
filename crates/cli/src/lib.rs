//! # ddn-cli — trace-driven evaluation from the command line
//!
//! A small operator-facing tool over JSONL traces (the interchange format
//! of `ddn-trace`):
//!
//! ```text
//! ddn stats    <trace.jsonl>
//! ddn evaluate <trace.jsonl> --decision <name> [--estimator <name>]
//!                            [--model tabular|knn] [--confidence 0.95]
//! ddn compare  <trace.jsonl> [--estimator ...] [--model ...]
//! ddn overlap  <trace.jsonl> --decision <name>
//! ddn repair   <in.jsonl> <out.jsonl> [--smoothing 0.5]
//! ddn generate <out.jsonl> --world cfa|wise|relay|netsim [--n 1000] [--seed 7]
//! ```
//!
//! `evaluate` scores the constant policy "always take `--decision`" —
//! the what-if question operators actually ask of a trace ("what if we
//! pinned everyone to CDN 2?"). `compare` ranks every constant policy.
//! Both take any name of the estimator registry
//! ([`ddn_estimators::menu`]) that `ddn serve` accepts, plus `matching`.
//! `repair` fills missing propensities with trace-estimated ones so
//! legacy telemetry becomes IPS/DR-capable.
//!
//! The library surface ([`run`]) takes argv-style strings and returns the
//! rendered output, which is what the tests drive; `main.rs` is a thin
//! shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ddn_estimators::menu::{self, BoxScalar, Defaults};
use ddn_estimators::online::BoxModel;
use ddn_estimators::{
    ErrorTable, Estimator, Ips, MatchingEstimator, OverlapReport, PolicyComparator,
};
use ddn_models::{KnnConfig, KnnRegressor, TabularMeanModel};
use ddn_policy::{LookupPolicy, Policy};
use ddn_scenarios::ablations::{ablation_menu, ablation_menu_instrumented, MenuConfig};
use ddn_scenarios::figure7a::{figure7a_instrumented, figure7a_with, Figure7aConfig};
use ddn_scenarios::figure7b::{figure7b_instrumented, figure7b_with, Figure7bConfig};
use ddn_scenarios::figure7c::{figure7c_instrumented, figure7c_with, Figure7cConfig};
use ddn_scenarios::health::{health_suite_with, HealthConfig};
use ddn_stats::bootstrap::bootstrap_ci;
use ddn_stats::rng::Xoshiro256;
use ddn_stats::Json;
use ddn_telemetry::TelemetrySnapshot;
use ddn_trace::{CoverageReport, EmpiricalPropensity, Trace, TraceStats};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};

/// CLI errors, with user-facing messages.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (usage is included in the message).
    Usage(String),
    /// Trace loading/validation failed.
    Trace(ddn_trace::TraceError),
    /// Estimation failed.
    Estimator(ddn_estimators::EstimatorError),
    /// Filesystem error.
    Io(std::io::Error),
    /// A telemetry file failed validation (bad JSON or missing health keys).
    Telemetry(String),
    /// The streaming evaluation service (or its client) failed.
    Serve(String),
    /// A benchmark artifact failed the regression gate (bench-diff) or
    /// could not be read/compared.
    Bench(String),
}

impl CliError {
    /// Process exit code for this error: usage mistakes exit 2, runtime
    /// failures (I/O, bad traces, estimation, telemetry validation) exit 1.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Trace(e) => write!(f, "trace error: {e}"),
            CliError::Estimator(e) => write!(f, "estimation error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Telemetry(m) => write!(f, "telemetry error: {m}"),
            CliError::Serve(m) => write!(f, "serve error: {m}"),
            CliError::Bench(m) => write!(f, "bench error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ddn_trace::TraceError> for CliError {
    fn from(e: ddn_trace::TraceError) -> Self {
        CliError::Trace(e)
    }
}
impl From<ddn_estimators::EstimatorError> for CliError {
    fn from(e: ddn_estimators::EstimatorError) -> Self {
        CliError::Estimator(e)
    }
}
impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

const USAGE: &str = "\
ddn — trace-driven evaluation toolkit

USAGE:
  ddn stats    <trace.jsonl>
  ddn evaluate <trace.jsonl> --decision <name> [--estimator <name>]
                             [--model tabular|knn] [--confidence 0.95]
                             [--telemetry <out.json>]
  ddn compare  <trace.jsonl> [--estimator <name>] [--model tabular|knn]
  ddn overlap  <trace.jsonl> --decision <name>
  ddn repair   <in.jsonl> <out.jsonl> [--smoothing 0.5]
  ddn generate <out.jsonl> --world cfa|wise|relay|netsim [--n 1000] [--seed 7]
  ddn figure7  [7a|7b|7c|all|menu] [--panel <name>] [--runs 50]
               [--telemetry <out.json>]
  ddn selftest [--runs 16] [--telemetry <out.json>]
  ddn telemetry-check <telemetry.json>   (expects a full-menu snapshot,
                                          i.e. one written by selftest)
  ddn serve    [--addr 127.0.0.1:0] [--shards 4] [--port-file <path>]
               [--data-dir <dir>] [--snapshot-every 256] [--failpoint <marker>]
  ddn replay-to <trace.jsonl> --addr <host:port> --decision <name>
               [--estimator <name>] [--session replay]
               [--batch 256] [--model-value 0] [--window <n>] [--binary]
               [--shutdown]
  ddn query    --addr <host:port> --session <name>
               [--estimator <name>] [--shutdown]
  ddn top      --addr <host:port> [--once] [--json] [--flight]
               [--interval-ms 1000] [--count <n>] [--shutdown]
  ddn flight   <flightrec.jsonl>
  ddn chaos    [--seed 7] [--faults 0.01] [--duration-records 20000]
               [--batch 256] [--shards 4]
  ddn loadgen  [--sessions 100000] [--records 3] [--batch 2] [--workers 0]
               [--shards 4] [--seed 7]
               [--rate 25000] [--profile constant|diurnal] [--framing mixed]
               [--faults 0] [--timescale 1] [--open-loop] [--smoke]
               [--addr <host:port>] [--bench-json <out.json>]
               [--health-every 512] [--stats-every 4096]
  ddn bench-diff <bench-dir> [--floors bench_floors.json] [--pin]

--estimator names a member of the estimator menu — the names serve
accepts: ips, snips, clipped, dm, dr, adaptive, adaptive_dr, mdr,
seqdr. evaluate and compare default to dr and also take matching,
which has no streaming form; replay-to defaults to ips. Offline, the
reward model is the fitted --model and every other knob is at serve's
init default: clip 10, horizon 1, identity embedding, uniform logging.

figure7's `menu` panel (also reachable as `--panel menu`) runs the
estimator-menu ablation instead of a paper panel: three breaking
scenarios (adaptive logging, composite actions, multi-step sessions)
swept over trace size, each challenger against its incumbents. `all`
still means the paper's three panels. 7a and 7c score each seed's trace
once (policy probabilities, weights, model predictions) for their whole
estimator menu; 7b replays sessions chunk by chunk.

With --telemetry, the full snapshot (estimator health, span timings) is
written as JSON to the given path and a summary table goes to stderr.

serve starts the streaming evaluation service (DESIGN.md §10): it prints
the bound address to stderr (and to --port-file, if given) and blocks
until a client sends the shutdown verb. replay-to streams an existing
JSONL trace into a running server without ever loading the whole file,
then asks for the online estimate; with --shutdown it stops the server
afterwards, and with --binary each batch travels as one binary columnar
frame (DESIGN.md §14) instead of a JSON ingest line — same estimates,
a fraction of the wire cost. With --data-dir, serve write-ahead-logs every state-bearing
request and snapshots session state every --snapshot-every frames
(DESIGN.md §12): restarting on the same directory recovers every session
bit-identically. query reads the current estimate of an existing session
without re-initializing it — the way to inspect state recovered from a
--data-dir restart.

chaos is a self-contained soak (DESIGN.md §11): it starts an in-process
server, streams --duration-records synthetic records through a client
whose transport injects a seeded fault plan (partial I/O, delays,
mid-line disconnects, error returns — at least one disconnect always
fires), and exits non-zero unless every acknowledged record was counted
exactly once and the streamed estimate is bit-identical to the offline
estimator. --faults is the per-record fault rate.

top polls a running server's stats verb (DESIGN.md §13) and renders a
per-verb, per-shard table: request counts, rates since the previous
poll, and p50/p99 queue-wait and handler latencies derived from the
served histogram buckets. --once polls a single time; --json prints the
raw stats response instead of the table (scripting mode); --flight also
asks for every shard's flight-recorder ring (rewriting the on-disk
dumps when the server has a --data-dir). flight validates a
flightrec-<shard>.jsonl dump — every line parses, event indices are
consecutive — and summarizes it. serve --failpoint <marker> arms the
test-only panic failpoint: an ingest whose session contains the marker
panics its shard worker, which quarantines the session and dumps that
shard's flight recorder.

loadgen drives a fleet of simulated clients through a live server
(DESIGN.md §15): a seeded nonhomogeneous-Poisson schedule spawns mixed
ABR/CDN/relay sessions that init, ingest their simulator-logged records
(JSON or binary frames per --framing), and ask for estimates, with
sparse health/stats polls. Default is closed-loop; --open-loop issues
arrivals on the schedule clock (divided by --timescale) and measures
init latency from the intended arrival, making coordinated omission
visible. --faults wires the chaos fault plane into every worker's
transport. The run fails unless the server counted every record exactly
once and every session's streamed estimate is bit-identical to the
offline estimator. --smoke runs a small fixed configuration against an
ephemeral self-hosted server and additionally re-derives the schedule to
prove digest-level determinism. --bench-json writes the
BENCH_loadgen.json summary (records/sec, per-verb p50/p99, stalls,
retries) the bench-diff gate consumes.

bench-diff is the perf-trajectory regression gate: it reads the pinned
floors file (repo root bench_floors.json), looks up each metric in the
named BENCH_*.json inside <bench-dir>, and fails (exit 1) if any value
fell below its floor. --pin rewrites the floors file from the current
values times its pin_margin — the one-command way to re-baseline after
an intentional perf change.
";

/// Flags that stand alone (no value follows them).
const BOOL_FLAGS: &[&str] = &[
    "shutdown",
    "once",
    "json",
    "flight",
    "binary",
    "open-loop",
    "smoke",
    "pin",
];

/// Parsed flag set (very small; hand-rolled on purpose — no CLI deps).
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Splits `args` into positional arguments, `--name value` pairs and
    /// switches. `accepted` names every flag the subcommand reads; any
    /// other is a usage error, so a mistyped or retired flag never runs
    /// as if it were absent.
    fn parse(args: &[String], accepted: &[&str]) -> Result<Self, CliError> {
        let mut positional = Vec::new();
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                if !accepted.contains(&name) {
                    return Err(CliError::Usage(format!("unknown flag --{name}\n\n{USAGE}")));
                }
                if BOOL_FLAGS.contains(&name) {
                    switches.push(name.to_string());
                    continue;
                }
                let value = it.next().ok_or_else(|| {
                    CliError::Usage(format!("flag --{name} needs a value\n\n{USAGE}"))
                })?;
                pairs.push((name.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self {
            positional,
            pairs,
            switches,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|n| n == name)
    }
}

fn load_trace(path: &str) -> Result<Trace, CliError> {
    let file = File::open(path)?;
    Ok(Trace::read_jsonl(BufReader::new(file))?)
}

fn fit_model(trace: &Trace, which: &str) -> Result<BoxModel, CliError> {
    match which {
        "tabular" => Ok(Box::new(TabularMeanModel::fit_trace(trace, 1.0))),
        "knn" => Ok(Box::new(KnnRegressor::fit(trace, KnnConfig::default()))),
        other => Err(CliError::Usage(format!(
            "unknown model {other:?} (expected tabular|knn)\n\n{USAGE}"
        ))),
    }
}

/// The scalar estimator `name` picks: a registry row at serve's init
/// defaults over `model`, or `matching`, which has no streaming form.
fn scalar_estimator(name: &str, trace: &Trace, model: BoxModel) -> Result<BoxScalar, CliError> {
    if name == "matching" {
        return Ok(Box::new(MatchingEstimator::new()));
    }
    let row = menu::lookup(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown estimator {name:?} (expected {}|matching)\n\n{USAGE}",
            menu::names()
        ))
    })?;
    (row.scalar)(trace.space(), model, &Defaults).map_err(CliError::Usage)
}

/// Runs the CLI on argv-style arguments (excluding the program name) and
/// returns the rendered output.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(format!("missing subcommand\n\n{USAGE}")));
    };
    match cmd.as_str() {
        "stats" => cmd_stats(rest),
        "evaluate" => cmd_evaluate(rest),
        "compare" => cmd_compare(rest),
        "overlap" => cmd_overlap(rest),
        "repair" => cmd_repair(rest),
        "generate" => cmd_generate(rest),
        "figure7" => cmd_figure7(rest),
        "selftest" => cmd_selftest(rest),
        "telemetry-check" => cmd_telemetry_check(rest),
        "serve" => cmd_serve(rest),
        "replay-to" => cmd_replay_to(rest),
        "query" => cmd_query(rest),
        "top" => cmd_top(rest),
        "flight" => cmd_flight(rest),
        "chaos" => cmd_chaos(rest),
        "loadgen" => cmd_loadgen(rest),
        "bench-diff" => cmd_bench_diff(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n\n{USAGE}"
        ))),
    }
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "stats needs exactly one trace path\n\n{USAGE}"
        )));
    };
    let trace = load_trace(path)?;
    let stats = TraceStats::of(&trace);
    let coverage = CoverageReport::of(&trace);
    let mut out = stats.render();
    out.push_str(&format!(
        "coverage: {} distinct contexts, {}/{} decisions seen, cell fill {:.1}%\n",
        coverage.distinct_contexts,
        coverage.decisions_seen,
        coverage.decisions_total,
        100.0 * coverage.cell_fill,
    ));
    if coverage.has_unseen_decisions() {
        out.push_str(
            "WARNING: some decisions never appear — IPS/DR for policies using them is undefined\n",
        );
    }
    Ok(out)
}

fn cmd_evaluate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &["decision", "estimator", "model", "confidence", "telemetry"],
    )?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "evaluate needs exactly one trace path\n\n{USAGE}"
        )));
    };
    let decision = flags
        .get("decision")
        .ok_or_else(|| CliError::Usage(format!("evaluate needs --decision <name>\n\n{USAGE}")))?;
    let estimator = flags.get("estimator").unwrap_or("dr");
    let model_name = flags.get("model").unwrap_or("tabular");
    let confidence: f64 = flags
        .get("confidence")
        .unwrap_or("0.95")
        .parse()
        .map_err(|_| CliError::Usage("confidence must be a number".into()))?;

    let trace = load_trace(path)?;
    let idx = trace.space().position(decision).ok_or_else(|| {
        CliError::Usage(format!(
            "decision {decision:?} not in the trace's space {:?}",
            trace.space().names()
        ))
    })?;
    let policy = LookupPolicy::constant(trace.space().clone(), idx);
    let chosen = scalar_estimator(estimator, &trace, fit_model(&trace, model_name)?)?;
    let est = if let Some(telemetry_path) = flags.get("telemetry") {
        let (est, collector) = ddn_telemetry::collect(|| {
            let _span = ddn_telemetry::span("evaluate");
            chosen.estimate(&trace, &policy)
        });
        let mut snap = TelemetrySnapshot::from_runs(std::slice::from_ref(&collector));
        snap.set_threads(1);
        write_telemetry(telemetry_path, &snap)?;
        est?
    } else {
        chosen.estimate(&trace, &policy)?
    };
    let mut rng = Xoshiro256::seed_from(0xDDCC);
    let ci = bootstrap_ci(&est.per_record, confidence, 2_000, &mut rng);
    Ok(format!(
        "policy: always {decision}\nestimator: {estimator} (model: {model_name})\n\
         estimate: {:.6}\n{:.0}% CI: [{:.6}, {:.6}]\n\
         effective sample size: {:.0} of {} | max weight {:.2}\n",
        est.value,
        confidence * 100.0,
        ci.lo,
        ci.hi,
        est.diagnostics.effective_sample_size,
        trace.len(),
        est.diagnostics.max_weight,
    ))
}

fn cmd_compare(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["estimator", "model"])?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "compare needs exactly one trace path\n\n{USAGE}"
        )));
    };
    let estimator = flags.get("estimator").unwrap_or("dr");
    let model_name = flags.get("model").unwrap_or("tabular");
    let trace = load_trace(path)?;
    let chosen = scalar_estimator(estimator, &trace, fit_model(&trace, model_name)?)?;

    let policies: Vec<(String, LookupPolicy)> = trace
        .space()
        .names()
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (
                format!("always {n}"),
                LookupPolicy::constant(trace.space().clone(), i),
            )
        })
        .collect();
    let slate: Vec<(&str, &dyn Policy)> = policies
        .iter()
        .map(|(n, p)| (n.as_str(), p as &dyn Policy))
        .collect();

    let mut rng = Xoshiro256::seed_from(0xCCDD);
    let cmp = PolicyComparator::new(&chosen).compare(&trace, &slate, &mut rng);
    let mut out = format!("estimator: {estimator} (model: {model_name})\n");
    out.push_str(&cmp.render());
    match cmp.decisive() {
        Some(true) => out.push_str("verdict: decisive (winner's CI clears the runner-up)\n"),
        Some(false) => out.push_str(
            "verdict: NOT decisive — CIs overlap; collect more (or more randomized) data\n",
        ),
        None => out.push_str("verdict: no candidate evaluable\n"),
    }
    Ok(out)
}

fn cmd_overlap(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["decision"])?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "overlap needs exactly one trace path\n\n{USAGE}"
        )));
    };
    let decision = flags
        .get("decision")
        .ok_or_else(|| CliError::Usage(format!("overlap needs --decision <name>\n\n{USAGE}")))?;
    let trace = load_trace(path)?;
    let idx = trace.space().position(decision).ok_or_else(|| {
        CliError::Usage(format!(
            "decision {decision:?} not in the trace's space {:?}",
            trace.space().names()
        ))
    })?;
    let policy = LookupPolicy::constant(trace.space().clone(), idx);
    let report = OverlapReport::analyze(&trace, &policy)?;
    Ok(format!("policy: always {decision}\n{}", report.render()))
}

fn cmd_repair(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["smoothing"])?;
    let [input, output] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "repair needs input and output paths\n\n{USAGE}"
        )));
    };
    let smoothing: f64 = flags
        .get("smoothing")
        .unwrap_or("0.5")
        .parse()
        .map_err(|_| CliError::Usage("smoothing must be a number".into()))?;
    let trace = load_trace(input)?;
    let missing = trace
        .records()
        .iter()
        .filter(|r| r.propensity.is_none())
        .count();
    let fitted = EmpiricalPropensity::fit(&trace, smoothing);
    let repaired_records: Vec<_> = trace
        .records()
        .iter()
        .map(|r| {
            if r.propensity.is_some() {
                r.clone()
            } else {
                let p = fitted.prob(&r.context, r.decision).clamp(1e-9, 1.0);
                let mut r = r.clone();
                r.propensity = Some(p);
                r
            }
        })
        .collect();
    let repaired = Trace::from_records(
        trace.schema().clone(),
        trace.space().clone(),
        repaired_records,
    )?;
    let file = File::create(output)?;
    repaired.write_jsonl(BufWriter::new(file))?;
    Ok(format!(
        "repaired {missing} of {} records with empirical propensities (smoothing {smoothing}); \
         wrote {output}\n",
        repaired.len(),
    ))
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["world", "n", "seed"])?;
    let [output] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "generate needs an output path\n\n{USAGE}"
        )));
    };
    let world = flags
        .get("world")
        .ok_or_else(|| CliError::Usage(format!("generate needs --world <name>\n\n{USAGE}")))?;
    let n: usize = flags
        .get("n")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| CliError::Usage("n must be a positive integer".into()))?;
    let seed: u64 = flags
        .get("seed")
        .unwrap_or("7")
        .parse()
        .map_err(|_| CliError::Usage("seed must be an integer".into()))?;
    if n == 0 {
        return Err(CliError::Usage("n must be at least 1".into()));
    }

    let trace = match world {
        "cfa" => {
            let w = ddn_cdn::cfa::CfaWorld::new(ddn_cdn::cfa::CfaConfig::default(), seed);
            let mut rng = Xoshiro256::seed_from(seed ^ 0xAAAA);
            let clients = w.sample_clients(n, &mut rng);
            let old = ddn_policy::UniformRandomPolicy::new(w.space().clone());
            w.log_trace(&clients, &old, seed ^ 0xBBBB)
        }
        "wise" => {
            let w = ddn_cdn::wise::WiseWorld::new(ddn_cdn::wise::WiseConfig::default());
            // Scale the canonical population to roughly n clients.
            let pop = w.population();
            let take = n.min(pop.len()).max(1);
            w.log_trace(&pop[..take], &w.old_policy(), seed)
        }
        "relay" => {
            let w = ddn_relay::RelayWorld::new(ddn_relay::RelayConfig::default(), seed);
            let mut rng = Xoshiro256::seed_from(seed ^ 0xCCCC);
            let calls = w.sample_calls(n, &mut rng);
            let old = w.nat_only_relay_policy(0.2);
            w.log_trace(&calls, &old, seed ^ 0xDDDD)
        }
        "netsim" => {
            // Horizon sized so ~n requests arrive at 10 req/s.
            let horizon = (n as f64 / 10.0).max(1.0);
            let w = ddn_netsim::small_world(ddn_netsim::RateProfile::Constant(10.0), horizon);
            let old = ddn_policy::EpsilonSmoothedPolicy::new(
                Box::new(LookupPolicy::constant(w.space().clone(), 0)),
                0.3,
            );
            w.run(&old, seed).trace
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown world {other:?} (expected cfa|wise|relay|netsim)\n\n{USAGE}"
            )))
        }
    };
    let file = File::create(output)?;
    trace.write_jsonl(BufWriter::new(file))?;
    Ok(format!(
        "generated {} records from the {world} world (seed {seed}) into {output}\n\
         decisions: {:?}\n",
        trace.len(),
        trace.space().names(),
    ))
}

/// Writes the telemetry snapshot as JSON to `path` and prints the
/// human-readable summary table to stderr (results stay on stdout).
fn write_telemetry(path: &str, snap: &TelemetrySnapshot) -> Result<(), CliError> {
    let mut body = snap.to_json().to_string();
    body.push('\n');
    std::fs::write(path, body)?;
    eprint!("{}", snap.render());
    Ok(())
}

/// Runs one Figure 7 panel, instrumented or plain.
fn run_panel(
    panel: &str,
    runs: usize,
    with_telemetry: bool,
) -> (ErrorTable, Option<TelemetrySnapshot>) {
    match panel {
        "7a" => {
            let cfg = Figure7aConfig {
                runs,
                ..Default::default()
            };
            if with_telemetry {
                let (t, s) = figure7a_instrumented(&cfg);
                (t, Some(s))
            } else {
                (figure7a_with(&cfg), None)
            }
        }
        "7b" => {
            let cfg = Figure7bConfig {
                runs,
                ..Default::default()
            };
            if with_telemetry {
                let (t, s) = figure7b_instrumented(&cfg);
                (t, Some(s))
            } else {
                (figure7b_with(&cfg), None)
            }
        }
        _ => {
            let cfg = Figure7cConfig {
                runs,
                ..Default::default()
            };
            if with_telemetry {
                let (t, s) = figure7c_instrumented(&cfg);
                (t, Some(s))
            } else {
                (figure7c_with(&cfg), None)
            }
        }
    }
}

fn cmd_figure7(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["panel", "runs", "telemetry"])?;
    // The panel can arrive positionally (`ddn figure7 menu`) or as a
    // flag (`ddn figure7 --panel menu`); the flag wins if both appear.
    let panel = flags
        .get("panel")
        .or_else(|| flags.positional.first().map(String::as_str))
        .unwrap_or("all");
    let runs: usize = flags
        .get("runs")
        .unwrap_or("50")
        .parse()
        .map_err(|_| CliError::Usage("runs must be a positive integer".into()))?;
    if runs == 0 {
        return Err(CliError::Usage("runs must be at least 1".into()));
    }
    let telemetry_path = flags.get("telemetry");

    if panel == "menu" {
        let cfg = MenuConfig {
            runs,
            ..Default::default()
        };
        let (scenarios, snap) = if telemetry_path.is_some() {
            let (s, snap) = ablation_menu_instrumented(&cfg);
            (s, Some(snap))
        } else {
            (ablation_menu(&cfg), None)
        };
        if let (Some(path), Some(snap)) = (telemetry_path, &snap) {
            write_telemetry(path, snap)?;
        }
        return Ok(ddn_scenarios::ablations::menu::render(&scenarios));
    }

    let panels: &[&str] = match panel {
        "7a" => &["7a"],
        "7b" => &["7b"],
        "7c" => &["7c"],
        "all" => &["7a", "7b", "7c"],
        other => {
            return Err(CliError::Usage(format!(
                "unknown panel {other:?} (expected 7a|7b|7c|all|menu)\n\n{USAGE}"
            )))
        }
    };

    let mut out = String::new();
    let mut merged: Option<TelemetrySnapshot> = None;
    for p in panels {
        let (table, snap) = run_panel(p, runs, telemetry_path.is_some());
        out.push_str(&table.render(&format!("Figure {p} — relative error ({runs} runs)")));
        out.push('\n');
        if let Some(snap) = snap {
            match &mut merged {
                Some(m) => m.merge(&snap),
                None => merged = Some(snap),
            }
        }
    }
    if let (Some(path), Some(snap)) = (telemetry_path, &merged) {
        write_telemetry(path, snap)?;
    }
    Ok(out)
}

fn cmd_selftest(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["runs", "telemetry"])?;
    let runs: usize = flags
        .get("runs")
        .unwrap_or("16")
        .parse()
        .map_err(|_| CliError::Usage("runs must be a positive integer".into()))?;
    if runs == 0 {
        return Err(CliError::Usage("runs must be at least 1".into()));
    }
    let cfg = HealthConfig {
        runs,
        ..Default::default()
    };
    let (table, snap) = health_suite_with(&cfg);
    // The suite's contract: every estimator family reports its signature
    // diagnostic. A miss means the observability layer regressed.
    let mut missing = Vec::new();
    for (source, metric) in REQUIRED_HEALTH {
        if snap.health_metric(source, metric).is_none() {
            missing.push(format!("{source}/{metric}"));
        }
    }
    if !missing.is_empty() {
        return Err(CliError::Telemetry(format!(
            "selftest missing health metrics: {}",
            missing.join(", ")
        )));
    }
    if let Some(path) = flags.get("telemetry") {
        write_telemetry(path, &snap)?;
    }
    let mut out = table.render(&format!(
        "estimator health suite — relative error vs truth {} ({runs} runs)",
        ddn_scenarios::health::HEALTH_TRUTH
    ));
    out.push_str(&format!(
        "selftest ok: {} health sources, every signature metric present\n",
        snap.health_sources().len()
    ));
    Ok(out)
}

/// The health metrics a well-formed telemetry file must carry — one
/// signature diagnostic per estimator family.
const REQUIRED_HEALTH: &[(&str, &str)] = &[
    ("IPS", "ess"),
    ("ClippedIPS", "clip_rate"),
    ("Replay", "acceptance_rate"),
    ("CFA", "coverage"),
    ("AdaptiveIPS", "hsum"),
    ("AdaptiveDR", "hsum"),
    ("MarginalizedDR", "embedding_groups"),
    ("SeqDR", "trajectories"),
];

fn cmd_telemetry_check(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "telemetry-check needs exactly one telemetry JSON path\n\n{USAGE}"
        )));
    };
    let body = std::fs::read_to_string(path)?;
    let json =
        Json::parse(&body).map_err(|e| CliError::Telemetry(format!("{path}: bad JSON: {e:?}")))?;
    for key in ["version", "runs", "health", "counters", "timings"] {
        if json.get(key).is_none() {
            return Err(CliError::Telemetry(format!(
                "{path}: missing {key:?} section"
            )));
        }
    }
    let health = json.get("health").expect("checked above");
    let sources = health
        .as_object()
        .ok_or_else(|| CliError::Telemetry(format!("{path}: health must be an object")))?;
    let mut missing = Vec::new();
    for (source, metric) in REQUIRED_HEALTH {
        let present = health
            .get(source)
            .and_then(|m| m.get(metric))
            .and_then(|agg| agg.get("mean"))
            .and_then(Json::as_f64)
            .is_some();
        if !present {
            missing.push(format!("{source}/{metric}"));
        }
    }
    if !missing.is_empty() {
        return Err(CliError::Telemetry(format!(
            "{path}: missing required health metrics: {}",
            missing.join(", ")
        )));
    }
    Ok(format!(
        "{path}: ok — {} runs, {} health sources, all required metrics present\n",
        json.get("runs").and_then(Json::as_i64).unwrap_or(0),
        sources.len(),
    ))
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "shards",
            "port-file",
            "data-dir",
            "snapshot-every",
            "failpoint",
        ],
    )?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(format!(
            "serve takes no positional arguments\n\n{USAGE}"
        )));
    }
    let mut config = ddn_serve::ServeConfig::default();
    if let Some(addr) = flags.get("addr") {
        config.addr = addr.to_string();
    }
    if let Some(shards) = flags.get("shards") {
        config.shards = shards
            .parse()
            .ok()
            .filter(|&s: &usize| s > 0)
            .ok_or_else(|| CliError::Usage("shards must be a positive integer".into()))?;
    }
    if let Some(dir) = flags.get("data-dir") {
        config.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(marker) = flags.get("failpoint") {
        // Test-only: arms the deterministic worker-panic path so the
        // flight-recorder dump flow can be exercised end to end.
        config.failpoint = Some(marker.to_string());
    }
    if let Some(every) = flags.get("snapshot-every") {
        if config.data_dir.is_none() {
            return Err(CliError::Usage("--snapshot-every needs --data-dir".into()));
        }
        config.snapshot_every =
            every.parse().ok().filter(|&n: &u64| n > 0).ok_or_else(|| {
                CliError::Usage("snapshot-every must be a positive integer".into())
            })?;
    }
    let handle = ddn_serve::serve(&config)
        .map_err(|e| CliError::Serve(format!("cannot bind {}: {e}", config.addr)))?;
    let addr = handle.local_addr();
    if let Some(port_file) = flags.get("port-file") {
        std::fs::write(port_file, format!("{addr}\n"))?;
    }
    eprintln!("ddn-serve listening on {addr} (send the shutdown verb to stop)");
    handle.join();
    Ok(format!("server on {addr} shut down cleanly\n"))
}

fn cmd_replay_to(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &[
            "addr",
            "decision",
            "estimator",
            "session",
            "batch",
            "model-value",
            "window",
            "binary",
            "shutdown",
        ],
    )?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "replay-to needs exactly one trace path\n\n{USAGE}"
        )));
    };
    let addr = flags
        .get("addr")
        .ok_or_else(|| CliError::Usage(format!("replay-to needs --addr <host:port>\n\n{USAGE}")))?;
    let decision = flags
        .get("decision")
        .ok_or_else(|| CliError::Usage(format!("replay-to needs --decision <name>\n\n{USAGE}")))?;
    let estimator = flags.get("estimator").unwrap_or("ips");
    let session = flags.get("session").unwrap_or("replay");
    let batch: usize = flags
        .get("batch")
        .unwrap_or("256")
        .parse()
        .ok()
        .filter(|&b| b > 0)
        .ok_or_else(|| CliError::Usage("batch must be a positive integer".into()))?;
    let model_value: f64 = flags
        .get("model-value")
        .unwrap_or("0")
        .parse()
        .map_err(|_| CliError::Usage("model-value must be a number".into()))?;
    let window: Option<usize> = match flags.get("window") {
        None => None,
        Some(w) => Some(
            w.parse()
                .ok()
                .filter(|&w: &usize| w > 0)
                .ok_or_else(|| CliError::Usage("window must be a positive integer".into()))?,
        ),
    };

    // Stream the file: the full trace is never resident — only one
    // `--batch`-sized chunk at a time.
    let mut stream = Trace::stream_file(path)?;
    let serve_err = |e: ddn_serve::ClientError| CliError::Serve(e.to_string());
    let mut client = ddn_serve::ServeClient::connect(addr).map_err(serve_err)?;
    client
        .init(
            session,
            stream.schema(),
            stream.space(),
            &[estimator],
            decision,
            model_value,
            window,
        )
        .map_err(serve_err)?;

    let mut chunk = Vec::with_capacity(batch);
    let mut sent = 0usize;
    loop {
        chunk.clear();
        for rec in &mut stream {
            chunk.push(rec?);
            if chunk.len() == batch {
                break;
            }
        }
        if chunk.is_empty() {
            break;
        }
        if flags.has("binary") {
            client.ingest_binary(session, &chunk).map_err(serve_err)?;
        } else {
            client.ingest(session, &chunk).map_err(serve_err)?;
        }
        sent += chunk.len();
    }

    let resp = client.estimate(session).map_err(serve_err)?;
    let body = resp
        .get("estimates")
        .and_then(|e| e.get(estimator))
        .ok_or_else(|| CliError::Serve(format!("response lacks estimate for {estimator:?}")))?;
    let mut out = format!("policy: always {decision}\nestimator: {estimator} (online)\n");
    match body.get("value").and_then(Json::as_f64) {
        Some(value) => {
            out.push_str(&format!("estimate: {value:.6}\n"));
            if let (Some(ess), Some(max_w)) = (
                body.get("ess").and_then(Json::as_f64),
                body.get("max_weight").and_then(Json::as_f64),
            ) {
                out.push_str(&format!(
                    "effective sample size: {ess:.0} of {sent} | max weight {max_w:.2}\n"
                ));
            }
        }
        None => {
            let msg = body
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("estimator produced no value");
            return Err(CliError::Serve(msg.to_string()));
        }
    }
    if let Some(coupling) = resp.get("coupling") {
        if coupling.get("coupled") == Some(&Json::Bool(true)) {
            out.push_str(&format!(
                "WARNING: coupling detected — {} change point(s) in the trailing reward window\n",
                coupling
                    .get("changepoints")
                    .and_then(Json::as_array)
                    .map(|c| c.len())
                    .unwrap_or(0),
            ));
        }
    }
    out.push_str(&format!(
        "streamed {sent} records{}\n",
        if flags.has("binary") {
            " over binary frames"
        } else {
            ""
        }
    ));
    if flags.has("shutdown") {
        client.shutdown().map_err(serve_err)?;
        out.push_str("server shutdown requested\n");
    }
    Ok(out)
}

fn cmd_query(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["addr", "session", "estimator", "shutdown"])?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(format!(
            "query takes no positional arguments\n\n{USAGE}"
        )));
    }
    let addr = flags
        .get("addr")
        .ok_or_else(|| CliError::Usage(format!("query needs --addr <host:port>\n\n{USAGE}")))?;
    let session = flags
        .get("session")
        .ok_or_else(|| CliError::Usage(format!("query needs --session <name>\n\n{USAGE}")))?;

    let serve_err = |e: ddn_serve::ClientError| CliError::Serve(e.to_string());
    let mut client = ddn_serve::ServeClient::connect(addr).map_err(serve_err)?;
    // Unlike replay-to, query never re-initializes: a session restored
    // from a --data-dir recovery keeps its accumulated state.
    let resp = client.estimate(session).map_err(serve_err)?;
    let estimates = resp
        .get("estimates")
        .and_then(Json::as_object)
        .ok_or_else(|| CliError::Serve(format!("response lacks estimates: {resp}")))?;
    let n = resp.get("n").and_then(Json::as_i64).unwrap_or(0);

    let mut out = format!("session: {session} ({n} records)\n");
    let wanted = flags.get("estimator");
    let mut printed = 0usize;
    for (name, body) in estimates {
        if wanted.is_some_and(|w| w != name) {
            continue;
        }
        match body.get("value").and_then(Json::as_f64) {
            Some(value) => {
                out.push_str(&format!("{name}: {value:.6}"));
                if let (Some(ess), Some(max_w)) = (
                    body.get("ess").and_then(Json::as_f64),
                    body.get("max_weight").and_then(Json::as_f64),
                ) {
                    out.push_str(&format!("  (ess {ess:.0}, max weight {max_w:.2})"));
                }
                out.push('\n');
            }
            None => {
                let msg = body
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("no value");
                out.push_str(&format!("{name}: unavailable ({msg})\n"));
            }
        }
        printed += 1;
    }
    if printed == 0 {
        return Err(CliError::Serve(format!(
            "session {session:?} has no estimator {:?}",
            wanted.unwrap_or("<any>")
        )));
    }
    if let Some(coupling) = resp.get("coupling") {
        if coupling.get("coupled") == Some(&Json::Bool(true)) {
            out.push_str(&format!(
                "WARNING: coupling detected — {} change point(s) in the trailing reward window\n",
                coupling
                    .get("changepoints")
                    .and_then(Json::as_array)
                    .map(|c| c.len())
                    .unwrap_or(0),
            ));
        }
    }
    if flags.has("shutdown") {
        client.shutdown().map_err(serve_err)?;
        out.push_str("server shutdown requested\n");
    }
    Ok(out)
}

/// Renders a nanosecond quantity at human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The `(le, count)` pairs of a served histogram snapshot
/// (`{"count":..,"sum":..,"buckets":[{"le":..,"count":..},..]}`).
fn le_buckets(hist: &Json) -> Vec<(u64, u64)> {
    hist.get("buckets")
        .and_then(Json::as_array)
        .map(|buckets| {
            buckets
                .iter()
                .filter_map(|b| {
                    Some((
                        b.get("le").and_then(Json::as_u64)?,
                        b.get("count").and_then(Json::as_u64)?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One row of the `ddn top` table: a verb on one shard (or handled on
/// the connection thread, shard `conn`).
struct TopRow {
    verb: String,
    shard: String,
    count: u64,
    queue: Vec<(u64, u64)>,
    handle: Vec<(u64, u64)>,
}

/// Extracts table rows from a `stats` snapshot by walking the
/// `serve.req.<verb>.handle_ns[.s<shard>]` histogram names.
fn top_rows(snap: &Json) -> Vec<TopRow> {
    let Some(histograms) = snap.get("histograms").and_then(Json::as_object) else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    for (name, hist) in histograms {
        let Some(rest) = name.strip_prefix("serve.req.") else {
            continue;
        };
        let Some((verb, kind)) = rest.split_once('.') else {
            continue;
        };
        let (kind, shard) = match kind.split_once('.') {
            Some((k, s)) => (k, s.to_string()),
            None => (kind, "conn".to_string()),
        };
        if kind != "handle_ns" {
            continue;
        }
        let queue_name = format!("serve.req.{verb}.queue_ns.{shard}");
        let queue = histograms
            .iter()
            .find(|(n, _)| *n == queue_name)
            .map(|(_, h)| le_buckets(h))
            .unwrap_or_default();
        rows.push(TopRow {
            verb: verb.to_string(),
            shard,
            count: hist.get("count").and_then(Json::as_u64).unwrap_or(0),
            queue,
            handle: le_buckets(hist),
        });
    }
    rows.sort_by(|a, b| (&a.verb, &a.shard).cmp(&(&b.verb, &b.shard)));
    rows
}

/// Request counts of one `ddn top` poll, by (verb, shard) row.
type RowCounts = std::collections::HashMap<(String, String), u64>;

/// Renders one `ddn top` frame from a `stats` snapshot. `prev` is the
/// previous poll's per-row counts plus the seconds since it, for the
/// rate column. Returns the rendered table and this poll's counts.
fn render_top_table(snap: &Json, prev: Option<(&RowCounts, f64)>) -> (String, RowCounts) {
    let rows = top_rows(snap);
    let mut out = format!(
        "{:<10} {:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "verb", "shard", "reqs", "rate/s", "p50 queue", "p99 queue", "p50 handle", "p99 handle"
    );
    let mut counts = std::collections::HashMap::new();
    let quant = |buckets: &[(u64, u64)], q: f64| -> String {
        if buckets.is_empty() {
            "-".to_string()
        } else {
            fmt_ns(ddn_telemetry::quantile_from_le_buckets(buckets, q))
        }
    };
    // A count below the previous poll's means the server restarted (its
    // counters start over at zero). Deltas against the old baseline are
    // meaningless for the whole frame — `saturating_sub` would quietly
    // render 0.0 forever on busy verbs — so the frame shows no rates,
    // marks itself reset, and this poll's counts become the new baseline.
    let reset = match prev {
        Some((before, _)) => rows.iter().any(|r| {
            before
                .get(&(r.verb.clone(), r.shard.clone()))
                .is_some_and(|&was| was > r.count)
        }),
        None => false,
    };
    for row in &rows {
        let key = (row.verb.clone(), row.shard.clone());
        let rate = match prev {
            Some((before, dt)) if dt > 0.0 && !reset => {
                let was = before.get(&key).copied().unwrap_or(0);
                format!("{:.1}", row.count.saturating_sub(was) as f64 / dt)
            }
            _ => "-".to_string(),
        };
        counts.insert(key, row.count);
        out.push_str(&format!(
            "{:<10} {:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            row.verb,
            row.shard,
            row.count,
            rate,
            quant(&row.queue, 0.50),
            quant(&row.queue, 0.99),
            quant(&row.handle, 0.50),
            quant(&row.handle, 0.99),
        ));
    }
    let gauge = |name: &str| {
        snap.get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let gauge_sum = |prefix: &str| {
        snap.get("gauges")
            .and_then(Json::as_object)
            .map(|gs| {
                gs.iter()
                    .filter(|(n, _)| n.starts_with(prefix))
                    .filter_map(|(_, v)| v.as_f64())
                    .sum::<f64>()
            })
            .unwrap_or(0.0)
    };
    let counter = |name: &str| {
        snap.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    out.push_str(&format!(
        "conns {:.0} | queued {:.0} | live sessions {:.0} | wal lag {:.0} frames\n",
        gauge("serve.conn.active"),
        gauge("serve.queue.depth"),
        gauge_sum("serve.sessions.live."),
        gauge_sum("serve.wal.lag_frames."),
    ));
    out.push_str(&format!(
        "ingested {} records | {} stalls | {} dedup replays | {} worker restarts\n",
        counter("serve.ingest.records"),
        counter("serve.backpressure.stalls"),
        counter("serve.dedup.replays"),
        counter("serve.fault.worker_restarts"),
    ));
    if reset {
        out.push_str("counters reset (server restarted); rates re-baseline next poll\n");
    }
    (out, counts)
}

fn cmd_top(args: &[String]) -> Result<String, CliError> {
    use std::time::{Duration, Instant};

    let flags = Flags::parse(
        args,
        &[
            "addr",
            "once",
            "json",
            "flight",
            "interval-ms",
            "count",
            "shutdown",
        ],
    )?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(format!(
            "top takes no positional arguments\n\n{USAGE}"
        )));
    }
    let addr = flags
        .get("addr")
        .ok_or_else(|| CliError::Usage(format!("top needs --addr <host:port>\n\n{USAGE}")))?;
    let json = flags.has("json");
    let flight = flags.has("flight");
    let interval_ms: u64 = flags
        .get("interval-ms")
        .unwrap_or("1000")
        .parse()
        .ok()
        .filter(|&ms: &u64| ms > 0)
        .ok_or_else(|| CliError::Usage("interval-ms must be a positive integer".into()))?;
    let count: u64 = if flags.has("once") {
        1
    } else {
        match flags.get("count") {
            None => u64::MAX, // poll until the process is interrupted
            Some(c) => c
                .parse()
                .ok()
                .filter(|&n: &u64| n > 0)
                .ok_or_else(|| CliError::Usage("count must be a positive integer".into()))?,
        }
    };

    let serve_err = |e: ddn_serve::ClientError| CliError::Serve(e.to_string());
    let mut client = ddn_serve::ServeClient::connect(addr).map_err(serve_err)?;
    let mut out = String::new();
    let mut prev: Option<(RowCounts, Instant)> = None;
    let mut polled = 0u64;
    while polled < count {
        if polled > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let resp = client.server_stats(flight).map_err(serve_err)?;
        let now = Instant::now();
        let rendered = if json {
            format!("{resp}\n")
        } else {
            let snap = resp.get("stats").ok_or_else(|| {
                CliError::Serve(format!("stats response lacks \"stats\": {resp}"))
            })?;
            let last = prev.take();
            let (table, counts) = render_top_table(
                snap,
                last.as_ref()
                    .map(|(c, t)| (c, now.duration_since(*t).as_secs_f64())),
            );
            prev = Some((counts, now));
            format!("ddn top — {addr} — poll {}\n{table}", polled + 1)
        };
        polled += 1;
        if count == 1 {
            // Single poll: the frame IS the command output (scripting).
            out.push_str(&rendered);
        } else {
            // Live mode streams frames as they happen.
            print!("{rendered}");
        }
    }
    if flags.has("shutdown") {
        client.shutdown().map_err(serve_err)?;
        out.push_str("server shutdown requested\n");
    }
    if count > 1 {
        out.push_str(&format!("polled {polled} times\n"));
    }
    Ok(out)
}

fn cmd_flight(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &[])?;
    let [path] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "flight needs exactly one dump path\n\n{USAGE}"
        )));
    };
    fn bump(list: &mut Vec<(String, u64)>, key: &str) {
        if let Some((_, c)) = list.iter_mut().find(|(k, _)| k == key) {
            *c += 1;
        } else {
            list.push((key.to_string(), 1));
        }
    }
    let text = std::fs::read_to_string(path)?;
    let mut events = 0u64;
    let mut first_n = 0u64;
    let mut expected: Option<u64> = None;
    let mut verbs: Vec<(String, u64)> = Vec::new();
    let mut outcomes: Vec<(String, u64)> = Vec::new();
    let mut last: Option<Json> = None;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = Json::parse(line).map_err(|e| {
            CliError::Serve(format!("{path}:{}: bad flight event: {e}", lineno + 1))
        })?;
        let n = event
            .get("n")
            .and_then(Json::as_u64)
            .ok_or_else(|| CliError::Serve(format!("{path}:{}: event lacks \"n\"", lineno + 1)))?;
        match expected {
            // The ring never skips an index, so a gap in a dump means
            // the file was corrupted or hand-edited.
            Some(want) if n != want => {
                return Err(CliError::Serve(format!(
                    "{path}:{}: event index jumped to {n}, expected {want}",
                    lineno + 1
                )));
            }
            Some(_) => {}
            None => first_n = n,
        }
        expected = Some(n + 1);
        bump(
            &mut verbs,
            event.get("verb").and_then(Json::as_str).unwrap_or("?"),
        );
        bump(
            &mut outcomes,
            event.get("outcome").and_then(Json::as_str).unwrap_or("?"),
        );
        events += 1;
        last = Some(event);
    }
    let Some(last) = last else {
        return Err(CliError::Serve(format!("{path}: empty flight dump")));
    };
    let mut out = format!(
        "flight dump {path}: {events} events, indices {first_n}..={} (consecutive)\n",
        expected.expect("events > 0") - 1
    );
    let tally = |list: &[(String, u64)]| {
        list.iter()
            .map(|(k, c)| format!("{k} {c}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!("verbs: {}\n", tally(&verbs)));
    out.push_str(&format!("outcomes: {}\n", tally(&outcomes)));
    out.push_str(&format!("last event: {last}\n"));
    Ok(out)
}

fn cmd_chaos(args: &[String]) -> Result<String, CliError> {
    use ddn_testkit::{Dir, FaultEvent, FaultKind, FaultPlan, FaultPlanConfig};
    use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, TraceRecord};
    use std::time::{Duration, Instant};

    let flags = Flags::parse(
        args,
        &["seed", "faults", "duration-records", "batch", "shards"],
    )?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(format!(
            "chaos takes no positional arguments\n\n{USAGE}"
        )));
    }
    let seed: u64 = flags
        .get("seed")
        .unwrap_or("7")
        .parse()
        .map_err(|_| CliError::Usage("seed must be an integer".into()))?;
    let fault_rate: f64 = flags
        .get("faults")
        .unwrap_or("0.01")
        .parse()
        .ok()
        .filter(|&r: &f64| (0.0..=1.0).contains(&r))
        .ok_or_else(|| CliError::Usage("faults must be a rate in [0, 1]".into()))?;
    let n_records: usize = flags
        .get("duration-records")
        .unwrap_or("20000")
        .parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .ok_or_else(|| CliError::Usage("duration-records must be a positive integer".into()))?;
    let batch: usize = flags
        .get("batch")
        .unwrap_or("256")
        .parse()
        .ok()
        .filter(|&b: &usize| b > 0)
        .ok_or_else(|| CliError::Usage("batch must be a positive integer".into()))?;
    let shards: usize = flags
        .get("shards")
        .unwrap_or("4")
        .parse()
        .ok()
        .filter(|&s: &usize| s > 0)
        .ok_or_else(|| CliError::Usage("shards must be a positive integer".into()))?;

    // Deterministic synthetic workload: a tiny two-armed CDN-style world.
    let schema = ContextSchema::builder().categorical("g", 2).build();
    let space = DecisionSpace::of(&["a", "b"]);
    let mut rng = Xoshiro256::seed_from(seed);
    use ddn_stats::rng::Rng;
    let records: Vec<TraceRecord> = (0..n_records)
        .map(|_| {
            let g = rng.index(2) as u32;
            let c = Context::build(&schema).set_cat("g", g).finish();
            let d = rng.index(2);
            let p = if d == 0 { 0.75 } else { 0.25 };
            let r = 2.0 + g as f64 + 3.0 * d as f64;
            TraceRecord::new(c, Decision::from_index(d), r).with_propensity(p)
        })
        .collect();

    // Size the fault plan from the actual wire format: --faults is per
    // record, and offsets are spread over the byte stream the run will
    // actually produce.
    let bytes_per_record = records[0].to_json().to_string().len() as u64 + 16;
    let write_horizon = (n_records as u64)
        .saturating_mul(bytes_per_record)
        .max(1 << 12);
    let n_batches = n_records.div_ceil(batch) as u64;
    let read_horizon = (n_batches * 96).max(1 << 10);
    let n_faults = ((n_records as f64 * fault_rate).round() as usize).max(1);
    let mut plan = FaultPlan::generate(
        seed,
        &FaultPlanConfig {
            faults: n_faults,
            write_horizon,
            read_horizon,
            max_delay_micros: 50,
            max_partial_bytes: 32,
        },
    );
    // The headline failure mode — a mid-stream disconnect forcing a
    // retry through the dedup window — must always be exercised.
    if !plan.has_kind(&FaultKind::Disconnect) {
        plan.push(FaultEvent {
            dir: Dir::Read,
            offset: read_horizon / 3,
            kind: FaultKind::Disconnect,
        });
    }

    let handle = ddn_serve::serve(&ddn_serve::ServeConfig {
        shards,
        ..ddn_serve::ServeConfig::default()
    })
    .map_err(|e| CliError::Serve(format!("cannot bind chaos server: {e}")))?;
    let addr = handle.local_addr().to_string();

    let state = ddn_serve::FaultState::new(plan.cursor());
    let connector_state = state.clone();
    let connect_addr = addr.clone();
    let serve_err = |e: ddn_serve::ClientError| CliError::Serve(e.to_string());
    let mut client = ddn_serve::ServeClient::from_connector(
        Box::new(move || {
            let inner = Box::new(ddn_serve::TcpTransport::connect(&connect_addr)?)
                as Box<dyn ddn_serve::Transport>;
            Ok(Box::new(ddn_serve::FaultyTransport::new(
                inner,
                connector_state.clone(),
            )) as Box<dyn ddn_serve::Transport>)
        }),
        ddn_serve::ClientConfig {
            read_timeout: Duration::from_secs(10),
            // Every failed attempt consumes at least one scheduled fault,
            // so any finite plan is outlasted.
            max_retries: plan.len() as u32 + 2,
            backoff_base: Duration::from_millis(1),
        },
    )
    .map_err(serve_err)?;

    let start = Instant::now();
    client
        .init("chaos", &schema, &space, &["ips"], "b", 0.0, None)
        .map_err(serve_err)?;
    for chunk in records.chunks(batch) {
        client.ingest("chaos", chunk).map_err(serve_err)?;
    }
    let est = client.estimate("chaos").map_err(serve_err)?;
    let elapsed = start.elapsed();

    // Exactly once: the server-side tally must equal the records sent,
    // however many wire attempts the faults forced.
    let counted = handle.stats().get(ddn_serve::Count::IngestRecords);
    if counted != n_records as u64 {
        return Err(CliError::Serve(format!(
            "exactly-once violated: sent {n_records} records, server counted {counted}"
        )));
    }
    let est_n = est.get("n").and_then(Json::as_i64).unwrap_or(-1);
    if est_n != n_records as i64 {
        return Err(CliError::Serve(format!(
            "estimate ran over {est_n} records, expected {n_records}"
        )));
    }

    // Bit-identical parity with the offline estimator over the same
    // records: the fault path added, dropped, and reordered nothing.
    let online = est
        .get("estimates")
        .and_then(|e| e.get("ips"))
        .and_then(|e| e.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| CliError::Serve(format!("no ips value in {est}")))?;
    let trace = Trace::from_records(schema, space.clone(), records)?;
    let offline = Ips::new()
        .estimate(&trace, &LookupPolicy::constant(space, 1))?
        .value;
    if online.to_bits() != offline.to_bits() {
        return Err(CliError::Serve(format!(
            "estimate parity violated: online {online:?} != offline {offline:?}"
        )));
    }

    // Observability invariant: the stats verb must agree with the
    // counters it mirrors — per verb, the handler-histogram totals equal
    // the request counter, however many retries the fault plan forced
    // (each delivered attempt records both together).
    let stats_resp = client.server_stats(false).map_err(serve_err)?;
    let snap = stats_resp
        .get("stats")
        .ok_or_else(|| CliError::Serve(format!("stats verb returned no snapshot: {stats_resp}")))?;
    let counters = snap
        .get("counters")
        .and_then(Json::as_object)
        .unwrap_or_default();
    let histograms = snap
        .get("histograms")
        .and_then(Json::as_object)
        .unwrap_or_default();
    let mut verbs_checked = 0usize;
    for (name, value) in counters {
        let Some(verb) = name.strip_prefix("serve.req.") else {
            continue;
        };
        if verb.contains('.') {
            continue;
        }
        let want = value.as_u64().unwrap_or(0);
        let conn_name = format!("serve.req.{verb}.handle_ns");
        let shard_prefix = format!("{conn_name}.s");
        let total: u64 = histograms
            .iter()
            .filter(|(h, _)| *h == conn_name || h.starts_with(&shard_prefix))
            .filter_map(|(_, j)| j.get("count").and_then(Json::as_u64))
            .sum();
        if total != want {
            return Err(CliError::Serve(format!(
                "stats invariant violated for verb {verb:?}: counter {want} != histogram total {total}"
            )));
        }
        verbs_checked += 1;
    }

    let injected = state.injected();
    let stats = client.stats();
    let rps = n_records as f64 / elapsed.as_secs_f64().max(1e-9);
    let mut out = format!(
        "chaos: {n_records} records in {n_batches} batches over {shards} shards (seed {seed})\n"
    );
    out.push_str(&format!(
        "faults injected: {} partial, {} delay, {} disconnect, {} error ({} scheduled)\n",
        injected.partial,
        injected.delay,
        injected.disconnect,
        injected.error,
        plan.len(),
    ));
    out.push_str(&format!(
        "client: {} retries, {} reconnects, {} timeouts, {} giveups\n",
        stats.retry_attempts(),
        stats.reconnects(),
        stats.timeouts(),
        stats.giveups(),
    ));
    out.push_str(&format!(
        "server: {} dedup replays, {} worker restarts\n",
        handle.stats().get(ddn_serve::Count::DedupReplays),
        handle.stats().get(ddn_serve::Count::FaultWorkerRestarts),
    ));
    let latency = stats.latency();
    out.push_str(&format!(
        "latency: p50 {} | p99 {} over {} delivered responses\n",
        fmt_ns(latency.quantile(0.50)),
        fmt_ns(latency.quantile(0.99)),
        latency.total(),
    ));
    out.push_str(&format!(
        "stats invariant: ok ({verbs_checked} verbs, histogram totals == counters)\n"
    ));
    out.push_str(&format!(
        "exactly-once: ok ({counted} records counted once)\nestimate parity: ok (online == offline, bit-identical)\n"
    ));
    out.push_str(&format!("throughput: {rps:.0} records/sec\n"));
    drop(client);
    handle.shutdown();
    Ok(out)
}

fn cmd_loadgen(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(
        args,
        &[
            "sessions",
            "records",
            "batch",
            "workers",
            "shards",
            "seed",
            "rate",
            "profile",
            "framing",
            "faults",
            "timescale",
            "open-loop",
            "smoke",
            "addr",
            "bench-json",
            "health-every",
            "stats-every",
        ],
    )?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(format!(
            "loadgen takes no positional arguments\n\n{USAGE}"
        )));
    }
    let usage = |m: String| CliError::Usage(format!("{m}\n\n{USAGE}"));
    let parse_usize = |name: &str, default: usize, min: usize| -> Result<usize, CliError> {
        match flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n: &usize| n >= min)
                .ok_or_else(|| usage(format!("{name} must be an integer >= {min}"))),
        }
    };
    let parse_f64 = |name: &str, default: f64| -> Result<f64, CliError> {
        match flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("{name} must be a number"))),
        }
    };

    let seed: u64 = match flags.get("seed") {
        None => 7,
        Some(v) => v.parse().map_err(|_| usage("seed must be a u64".into()))?,
    };
    let smoke = flags.has("smoke");
    let mut cfg = if smoke {
        ddn_loadgen::LoadgenConfig::smoke(seed)
    } else {
        let rate = parse_f64("rate", 25_000.0)?;
        let sessions = parse_usize("sessions", 100_000, 1)?;
        let profile = match flags.get("profile").unwrap_or("constant") {
            "constant" => ddn_netsim::RateProfile::Constant(rate),
            // One full diurnal cycle spanning the whole schedule, mean
            // offered load equal to --rate.
            "diurnal" => ddn_netsim::RateProfile::Diurnal {
                base: rate,
                amplitude: 0.6,
                period: (sessions as f64 / rate.max(1e-9)).max(1e-6),
                phase: 0.0,
            },
            other => {
                return Err(usage(format!(
                    "unknown profile {other:?} (expected constant|diurnal)"
                )))
            }
        };
        // Workers are I/O-bound (each blocks on its connection's round
        // trips), so even a single-core machine profits from a few of
        // them overlapping with the server's own threads.
        let workers = match parse_usize("workers", 0, 0)? {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(4, 8),
            n => n,
        };
        ddn_loadgen::LoadgenConfig {
            sessions,
            records_per_session: parse_usize("records", 3, 1)?,
            batch: parse_usize("batch", 2, 1)?,
            workers,
            seed,
            rate: profile,
            timescale: parse_f64("timescale", 1.0)?,
            open_loop: flags.has("open-loop"),
            framing: ddn_loadgen::Framing::parse(flags.get("framing").unwrap_or("mixed"))
                .map_err(usage)?,
            fault_rate: parse_f64("faults", 0.0)?,
            addr: flags.get("addr").map(str::to_string),
            serve: ddn_serve::ServeConfig {
                shards: parse_usize("shards", 4, 1)?,
                ..ddn_serve::ServeConfig::default()
            },
            health_every: parse_usize("health-every", 512, 0)?,
            stats_every: parse_usize("stats-every", 4096, 0)?,
        }
    };
    if smoke {
        if flags.has("open-loop") {
            cfg.open_loop = true;
            cfg.timescale = 1000.0;
        }
        if let Some(f) = flags.get("faults") {
            cfg.fault_rate = f
                .parse()
                .map_err(|_| usage("faults must be a number".into()))?;
        }
    }

    let report = ddn_loadgen::run(&cfg).map_err(|e| match e {
        ddn_loadgen::LoadgenError::Config(m) => usage(m),
        // CliError::Serve adds its own "serve error:" prefix, so unwrap
        // the variants rather than Display-ing a doubled one.
        ddn_loadgen::LoadgenError::Serve(m) => CliError::Serve(m),
        ddn_loadgen::LoadgenError::Parity(m) => {
            CliError::Serve(format!("estimate parity violation: {m}"))
        }
    })?;

    // Smoke doubles as the determinism proof: re-deriving the schedule
    // from the same seed must reproduce the digest byte-for-byte.
    let redigest = if smoke {
        let again = ddn_loadgen::Schedule::generate(cfg.sessions, &cfg.rate, cfg.seed, cfg.framing)
            .map_err(CliError::Serve)?
            .wire_digest();
        if again != report.schedule_digest {
            return Err(CliError::Serve(format!(
                "schedule not deterministic: digest {:016x} re-derived as {again:016x}",
                report.schedule_digest
            )));
        }
        true
    } else {
        false
    };

    if let Some(path) = flags.get("bench-json") {
        let doc = Json::Object(vec![
            ("suite".into(), Json::str("loadgen")),
            ("loadgen".into(), report.to_json()),
        ]);
        std::fs::write(path, format!("{doc}\n"))?;
    }

    let mut out =
        format!(
        "loadgen: {} sessions (abr {} / cdn {} / relay {}) x {} records, {} workers, {} shards{}\n",
        report.sessions,
        report.kind_counts[0],
        report.kind_counts[1],
        report.kind_counts[2],
        cfg.records_per_session,
        cfg.workers,
        cfg.serve.shards,
        if cfg.addr.is_some() { " (external server)" } else { "" },
    );
    out.push_str(&format!(
        "schedule: digest {:016x}, {} loop, faults {}\n",
        report.schedule_digest,
        if report.open_loop { "open" } else { "closed" },
        report.fault_rate,
    ));
    out.push_str(&format!(
        "throughput: {:.0} records/sec ({} records, {} requests in {:.2}s)\n",
        report.records_per_sec, report.records, report.requests, report.elapsed_secs,
    ));
    for (verb, hist) in &report.verb_latency {
        if hist.total() == 0 {
            continue;
        }
        out.push_str(&format!(
            "latency {:>8}: p50 {} | p99 {} over {} responses\n",
            verb,
            fmt_ns(hist.quantile(0.50)),
            fmt_ns(hist.quantile(0.99)),
            hist.total(),
        ));
    }
    out.push_str(&format!(
        "client: {} retries, {} reconnects, {} timeouts, {} giveups\n",
        report.retries, report.reconnects, report.timeouts, report.giveups,
    ));
    out.push_str(&format!(
        "server: {} backpressure stalls, {} shard handoffs, {} dedup replays, {:.0} live sessions\n",
        report.backpressure_stalls,
        report.shard_handoffs,
        report.dedup_replays,
        report.live_sessions,
    ));
    out.push_str(&format!(
        "exactly-once: ok ({} records counted once)\n",
        report.server_ingested
    ));
    out.push_str(&format!(
        "estimate parity: ok ({} sessions, online == offline bit-identical)\n",
        report.parity_sessions
    ));
    if redigest {
        out.push_str("determinism: ok (schedule digest re-derived byte-for-byte)\n");
    }
    Ok(out)
}

/// One pinned metric of the bench-diff gate.
struct Floor {
    file: String,
    path: String,
    floor: f64,
}

fn load_floors(path: &str) -> Result<(f64, Vec<Floor>), CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Bench(format!("cannot read floors file {path}: {e}")))?;
    let doc = Json::parse(&text)
        .map_err(|e| CliError::Bench(format!("floors file {path} is not JSON: {e}")))?;
    let margin = doc
        .get("pin_margin")
        .and_then(Json::as_f64)
        .filter(|m| (0.0..=1.0).contains(m))
        .ok_or_else(|| CliError::Bench(format!("floors file {path} needs pin_margin in [0, 1]")))?;
    let floors = doc
        .get("floors")
        .and_then(Json::as_array)
        .ok_or_else(|| CliError::Bench(format!("floors file {path} needs a floors array")))?
        .iter()
        .map(|f| {
            Some(Floor {
                file: f.get("file")?.as_str()?.to_string(),
                path: f.get("path")?.as_str()?.to_string(),
                floor: f.get("floor").and_then(Json::as_f64)?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| {
            CliError::Bench(format!(
                "every floors entry in {path} needs file, path and numeric floor"
            ))
        })?;
    Ok((margin, floors))
}

/// Looks up a dotted path (`"loadgen.records_per_sec"`) in a bench JSON.
fn lookup_metric(doc: &Json, path: &str) -> Option<f64> {
    let mut cur = doc;
    for key in path.split('.') {
        cur = cur.get(key)?;
    }
    cur.as_f64()
}

fn cmd_bench_diff(args: &[String]) -> Result<String, CliError> {
    let flags = Flags::parse(args, &["floors", "pin"])?;
    let [bench_dir] = flags.positional.as_slice() else {
        return Err(CliError::Usage(format!(
            "bench-diff needs exactly one bench directory\n\n{USAGE}"
        )));
    };
    let floors_path = flags.get("floors").unwrap_or("bench_floors.json");
    let (margin, floors) = load_floors(floors_path)?;
    let pin = flags.has("pin");

    let mut out = String::new();
    let mut failures = Vec::new();
    let mut pinned = Vec::new();
    for f in &floors {
        let file = format!("{bench_dir}/{}", f.file);
        let text = std::fs::read_to_string(&file)
            .map_err(|e| CliError::Bench(format!("cannot read {file}: {e}")))?;
        let doc =
            Json::parse(&text).map_err(|e| CliError::Bench(format!("{file} is not JSON: {e}")))?;
        let value = lookup_metric(&doc, &f.path).ok_or_else(|| {
            CliError::Bench(format!("{file} has no numeric metric at {:?}", f.path))
        })?;
        if pin {
            let new_floor = value * margin;
            out.push_str(&format!(
                "pin {} {}: floor {} -> {} (measured {value:.2} x margin {margin})\n",
                f.file, f.path, f.floor, new_floor,
            ));
            pinned.push(Floor {
                file: f.file.clone(),
                path: f.path.clone(),
                floor: new_floor,
            });
        } else if value >= f.floor {
            out.push_str(&format!(
                "ok   {} {}: {value:.2} >= floor {}\n",
                f.file, f.path, f.floor,
            ));
        } else {
            out.push_str(&format!(
                "FAIL {} {}: {value:.2} < floor {}\n",
                f.file, f.path, f.floor,
            ));
            failures.push(format!("{} {} ({value:.2} < {})", f.file, f.path, f.floor));
        }
    }

    if pin {
        let doc = Json::Object(vec![
            ("pin_margin".into(), Json::Num(margin)),
            (
                "floors".into(),
                Json::Array(
                    pinned
                        .iter()
                        .map(|f| {
                            Json::Object(vec![
                                ("file".into(), Json::str(f.file.clone())),
                                ("path".into(), Json::str(f.path.clone())),
                                ("floor".into(), Json::Num(f.floor)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(floors_path, format!("{doc}\n"))?;
        out.push_str(&format!(
            "bench-diff: pinned {} floors into {floors_path}\n",
            pinned.len()
        ));
        return Ok(out);
    }
    if !failures.is_empty() {
        return Err(CliError::Bench(format!(
            "{} of {} pinned metrics regressed below their floor:\n  {}\n{out}",
            failures.len(),
            floors.len(),
            failures.join("\n  "),
        )));
    }
    out.push_str(&format!(
        "bench-diff: ok ({} floors checked against {floors_path})\n",
        floors.len()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_policy::UniformRandomPolicy;
    use ddn_stats::rng::Rng;
    use ddn_trace::{Context, ContextSchema, DecisionSpace, TraceRecord};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Writes a small trace (reward = decision index) to a temp file and
    /// returns its path.
    fn write_temp_trace(name: &str, with_propensity: bool) -> String {
        let schema = ContextSchema::builder().categorical("g", 2).build();
        let space = DecisionSpace::of(&["alpha", "beta"]);
        let old = UniformRandomPolicy::new(space.clone());
        let mut rng = Xoshiro256::seed_from(1);
        let records: Vec<TraceRecord> = (0..400)
            .map(|_| {
                let g = rng.index(2) as u32;
                let c = Context::build(&schema).set_cat("g", g).finish();
                let (d, p) = old.sample_with_prob(&c, &mut rng);
                let r = TraceRecord::new(c, d, d.index() as f64 + 0.1 * g as f64);
                if with_propensity {
                    r.with_propensity(p)
                } else {
                    r
                }
            })
            .collect();
        let trace = Trace::from_records(schema, space, records).unwrap();
        let path =
            std::env::temp_dir().join(format!("ddn-cli-test-{name}-{}.jsonl", std::process::id()));
        let file = File::create(&path).unwrap();
        trace.write_jsonl(BufWriter::new(file)).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn stats_renders_summary() {
        let path = write_temp_trace("stats", true);
        let out = run(&args(&["stats", &path])).unwrap();
        assert!(out.contains("decision"));
        assert!(out.contains("alpha"));
        assert!(out.contains("coverage:"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn evaluate_constant_policy() {
        let path = write_temp_trace("eval", true);
        let out = run(&args(&[
            "evaluate",
            &path,
            "--decision",
            "beta",
            "--estimator",
            "ips",
        ]))
        .unwrap();
        assert!(out.contains("always beta"));
        // Truth for "always beta" is 1 + 0.1·E[g] ≈ 1.05.
        let line = out.lines().find(|l| l.starts_with("estimate:")).unwrap();
        let v: f64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!((v - 1.05).abs() < 0.1, "estimate {v}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn compare_ranks_beta_first() {
        let path = write_temp_trace("cmp", true);
        let out = run(&args(&["compare", &path])).unwrap();
        let beta_pos = out.find("always beta").unwrap();
        let alpha_pos = out.find("always alpha").unwrap();
        assert!(beta_pos < alpha_pos, "beta should rank above alpha:\n{out}");
        assert!(out.contains("verdict:"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn repair_fills_propensities() {
        let input = write_temp_trace("rep-in", false);
        let output = std::env::temp_dir()
            .join(format!("ddn-cli-test-rep-out-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let msg = run(&args(&["repair", &input, &output])).unwrap();
        assert!(msg.contains("repaired 400 of 400"));
        let repaired = load_trace(&output).unwrap();
        assert!(repaired.has_propensities());
        // Uniform logging → estimated propensities near 0.5.
        let mean_p: f64 = repaired
            .records()
            .iter()
            .map(|r| r.propensity.unwrap())
            .sum::<f64>()
            / repaired.len() as f64;
        assert!((mean_p - 0.5).abs() < 0.05, "mean propensity {mean_p}");
        std::fs::remove_file(input).ok();
        std::fs::remove_file(output).ok();
    }

    #[test]
    fn overlap_reports_feasibility() {
        let path = write_temp_trace("ovl", true);
        let out = run(&args(&["overlap", &path, "--decision", "beta"])).unwrap();
        assert!(out.contains("effective sample size"));
        assert!(out.contains("verdict:"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_then_full_workflow() {
        let out = std::env::temp_dir()
            .join(format!("ddn-cli-gen-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        for world in ["cfa", "wise", "relay", "netsim"] {
            let msg = run(&args(&[
                "generate", &out, "--world", world, "--n", "300", "--seed", "3",
            ]))
            .unwrap();
            assert!(msg.contains(world), "{msg}");
            // The generated trace must be consumable by the other verbs.
            let stats = run(&args(&["stats", &out])).unwrap();
            assert!(stats.contains("overall:"), "{world}: {stats}");
        }
        assert!(matches!(
            run(&args(&["generate", &out, "--world", "mars"])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn serve_and_replay_to_match_offline_evaluate() {
        let trace_path = write_temp_trace("serve", true);
        let port_file = std::env::temp_dir()
            .join(format!("ddn-cli-test-port-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();

        let pf = port_file.clone();
        let server = std::thread::spawn(move || run(&args(&["serve", "--port-file", &pf])));

        // Wait for the server to write its bound address.
        let addr = {
            let mut tries = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(&port_file) {
                    let s = s.trim().to_string();
                    if !s.is_empty() {
                        break s;
                    }
                }
                tries += 1;
                assert!(tries < 100, "server never wrote {port_file}");
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        };

        let online = run(&args(&[
            "replay-to",
            &trace_path,
            "--addr",
            &addr,
            "--decision",
            "beta",
            "--estimator",
            "ips",
            "--batch",
            "64",
            "--shutdown",
        ]))
        .unwrap();
        let offline = run(&args(&[
            "evaluate",
            &trace_path,
            "--decision",
            "beta",
            "--estimator",
            "ips",
        ]))
        .unwrap();

        let pick = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("estimate:"))
                .map(str::to_string)
                .unwrap_or_else(|| panic!("no estimate line in:\n{out}"))
        };
        // The streamed online estimate renders the exact same line as the
        // offline batch path — this is the contract the CI smoke diffs.
        assert_eq!(
            pick(&online),
            pick(&offline),
            "online:\n{online}\noffline:\n{offline}"
        );
        assert!(online.contains("streamed 400 records"), "{online}");
        assert!(online.contains("server shutdown requested"), "{online}");

        let served = server.join().unwrap().unwrap();
        assert!(served.contains("shut down cleanly"), "{served}");
        std::fs::remove_file(trace_path).ok();
        std::fs::remove_file(port_file).ok();
    }

    #[test]
    fn serve_data_dir_restart_and_query_see_the_same_estimate() {
        let trace_path = write_temp_trace("durable", true);
        let data_dir = std::env::temp_dir()
            .join(format!("ddn-cli-test-durable-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::remove_dir_all(&data_dir).ok();

        let wait_addr = |port_file: &str| {
            let mut tries = 0;
            loop {
                if let Ok(s) = std::fs::read_to_string(port_file) {
                    let s = s.trim().to_string();
                    if !s.is_empty() {
                        break s;
                    }
                }
                tries += 1;
                assert!(tries < 100, "server never wrote {port_file}");
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        };
        let start = |n: u32| {
            let port_file = std::env::temp_dir()
                .join(format!(
                    "ddn-cli-test-durable-port-{n}-{}",
                    std::process::id()
                ))
                .to_string_lossy()
                .into_owned();
            std::fs::remove_file(&port_file).ok();
            let (pf, dir) = (port_file.clone(), data_dir.clone());
            let server = std::thread::spawn(move || {
                run(&args(&[
                    "serve",
                    "--port-file",
                    &pf,
                    "--data-dir",
                    &dir,
                    "--snapshot-every",
                    "32",
                ]))
            });
            let addr = wait_addr(&port_file);
            std::fs::remove_file(port_file).ok();
            (server, addr)
        };

        let (server, addr) = start(1);
        run(&args(&[
            "replay-to",
            &trace_path,
            "--addr",
            &addr,
            "--decision",
            "beta",
            "--estimator",
            "ips",
            "--batch",
            "64",
        ]))
        .unwrap();
        let before = run(&args(&["query", "--addr", &addr, "--session", "replay"])).unwrap();
        assert!(before.contains("session: replay (400 records)"), "{before}");
        assert!(before.contains("ips: "), "{before}");
        run(&args(&[
            "query",
            "--addr",
            &addr,
            "--session",
            "replay",
            "--shutdown",
        ]))
        .unwrap();
        server.join().unwrap().unwrap();

        // Same data dir, new process-equivalent: the recovered session
        // must answer the same query with the same rendered numbers —
        // without any re-initialization.
        let (server, addr) = start(2);
        let after = run(&args(&[
            "query",
            "--addr",
            &addr,
            "--session",
            "replay",
            "--shutdown",
        ]))
        .unwrap();
        server.join().unwrap().unwrap();
        assert_eq!(
            before.lines().collect::<Vec<_>>(),
            after
                .lines()
                .filter(|l| !l.starts_with("server shutdown"))
                .collect::<Vec<_>>(),
            "recovered estimate differs:\nbefore:\n{before}\nafter:\n{after}"
        );

        std::fs::remove_file(trace_path).ok();
        std::fs::remove_dir_all(&data_dir).ok();
    }

    #[test]
    fn query_and_durability_usage_errors() {
        assert!(matches!(
            run(&args(&["query", "--session", "s"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["query", "--addr", "127.0.0.1:1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&[
                "query",
                "positional",
                "--addr",
                "a",
                "--session",
                "s"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["serve", "--snapshot-every", "8"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&[
                "serve",
                "--data-dir",
                "/tmp/x",
                "--snapshot-every",
                "0"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn chaos_soak_passes_and_reports() {
        let out = run(&args(&[
            "chaos",
            "--seed",
            "7",
            "--faults",
            "0.01",
            "--duration-records",
            "2000",
            "--batch",
            "128",
            "--shards",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("exactly-once: ok"), "{out}");
        assert!(out.contains("estimate parity: ok"), "{out}");
        assert!(out.contains("disconnect"), "{out}");
        assert!(out.contains("records/sec"), "{out}");
        // The observability plane is checked on every run: per-verb
        // histogram totals must equal the request counters, and the
        // client-side latency histogram must have seen every delivered
        // response.
        // All six verbs are registered eagerly at serve() time, so the
        // count is stable whatever traffic the plan produced.
        assert!(out.contains("stats invariant: ok (6 verbs"), "{out}");
        let lat = out.lines().find(|l| l.starts_with("latency:")).unwrap();
        assert!(lat.contains("p50") && lat.contains("p99"), "{lat}");
        // At least one disconnect is guaranteed by construction.
        let faults_line = out
            .lines()
            .find(|l| l.starts_with("faults injected:"))
            .unwrap();
        assert!(!faults_line.contains("0 disconnect"), "{faults_line}");
    }

    #[test]
    fn chaos_usage_errors() {
        assert!(matches!(
            run(&args(&["chaos", "--faults", "2.0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["chaos", "--duration-records", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["chaos", "positional"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_on_a_bound_address_is_a_serve_error() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let err = run(&args(&["serve", "--addr", &addr])).unwrap_err();
        assert!(matches!(err, CliError::Serve(_)), "{err:?}");
        assert_eq!(err.exit_code(), 1);
        assert!(format!("{err}").contains("cannot bind"), "{err}");
        assert!(format!("{err}").contains(&addr), "{err}");
    }

    #[test]
    fn replay_to_usage_errors() {
        assert!(matches!(
            run(&args(&["replay-to", "x.jsonl"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["replay-to", "x.jsonl", "--addr", "127.0.0.1:1"])),
            Err(CliError::Usage(_))
        ));
        // With flags present but no server listening, the failure is a
        // serve error (exit 1), not a usage error.
        let path = write_temp_trace("rt-usage", true);
        let e = run(&args(&[
            "replay-to",
            &path,
            "--addr",
            "127.0.0.1:1",
            "--decision",
            "beta",
        ]))
        .unwrap_err();
        assert!(matches!(e, CliError::Serve(_)), "{e:?}");
        assert_eq!(e.exit_code(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn top_usage_errors() {
        assert!(matches!(run(&args(&["top"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["top", "positional", "--addr", "127.0.0.1:1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&[
                "top",
                "--addr",
                "127.0.0.1:1",
                "--interval-ms",
                "0"
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["top", "--addr", "127.0.0.1:1", "--count", "zero"])),
            Err(CliError::Usage(_))
        ));
        // A dead address with valid flags is a serve error, not usage.
        let e = run(&args(&["top", "--addr", "127.0.0.1:1", "--once"])).unwrap_err();
        assert!(matches!(e, CliError::Serve(_)), "{e:?}");
    }

    #[test]
    fn top_renders_a_live_server_and_json_is_greppable() {
        let handle = ddn_serve::serve(&ddn_serve::ServeConfig::default()).unwrap();
        let addr = handle.local_addr().to_string();

        let out = run(&args(&["top", "--addr", &addr, "--once"])).unwrap();
        assert!(out.contains("verb"), "{out}");
        assert!(out.contains("p99 handle"), "{out}");
        assert!(out.contains("live sessions"), "{out}");
        // Every shard verb appears even before any traffic: metric names
        // are registered at serve() time, so the key set is stable.
        for verb in ["init", "ingest", "estimate"] {
            assert!(out.contains(verb), "missing {verb} row in {out}");
        }

        let json = run(&args(&["top", "--addr", &addr, "--once", "--json"])).unwrap();
        assert!(json.contains("\"serve.req.ingest\":0"), "{json}");
        assert!(json.contains("\"serve.conn.active\""), "{json}");
        // The previous --once poll recorded its own stats request.
        assert!(json.contains("\"serve.req.stats\":1"), "{json}");

        // --flight inlines the per-shard ring (empty here: no traffic).
        let flight = run(&args(&[
            "top", "--addr", &addr, "--once", "--json", "--flight",
        ]))
        .unwrap();
        assert!(flight.contains("\"flight\":{\"shard-0\":["), "{flight}");

        let bye = run(&args(&["top", "--addr", &addr, "--once", "--shutdown"])).unwrap();
        assert!(bye.contains("server shutdown requested"), "{bye}");
        handle.shutdown();
    }

    #[test]
    fn top_rates_rebaseline_after_a_counter_regression() {
        let snap = |count: i64| {
            Json::object(vec![(
                "histograms",
                Json::object(vec![(
                    "serve.req.ingest.handle_ns.s0",
                    Json::object(vec![
                        ("count", Json::Int(count)),
                        ("buckets", Json::Array(vec![])),
                    ]),
                )]),
            )])
        };
        // Baseline poll: 100 requests seen so far.
        let (_, counts) = render_top_table(&snap(100), None);
        // The server restarts between polls, so its counters start over
        // below the baseline. The frame must declare the reset instead
        // of rendering a silent saturating 0.0 rate.
        let (table, counts2) = render_top_table(&snap(5), Some((&counts, 1.0)));
        assert!(table.contains("counters reset"), "{table}");
        assert!(!table.contains("0.0"), "{table}");
        // The regressed poll becomes the new baseline: the next delta is
        // computed from 5, not from the pre-restart 100.
        assert_eq!(counts2.get(&("ingest".into(), "s0".into())), Some(&5));
        let (table, _) = render_top_table(&snap(25), Some((&counts2, 2.0)));
        assert!(table.contains("10.0"), "{table}");
        assert!(!table.contains("counters reset"), "{table}");
    }

    #[test]
    fn flight_validates_dumps_and_rejects_gaps() {
        let dir = std::env::temp_dir().join("ddn-cli-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let line = |n: u64, outcome: &str| {
            format!(
                "{{\"n\":{n},\"verb\":\"ingest\",\"session\":\"s\",\"seq\":{n},\"records\":8,\"outcome\":\"{outcome}\",\"dur_ns\":100}}"
            )
        };

        let good = dir.join("good.jsonl");
        std::fs::write(
            &good,
            format!(
                "{}\n{}\n{}\n",
                line(3, "ok"),
                line(4, "ok"),
                line(5, "panic")
            ),
        )
        .unwrap();
        let out = run(&args(&["flight", good.to_str().unwrap()])).unwrap();
        assert!(
            out.contains("3 events, indices 3..=5 (consecutive)"),
            "{out}"
        );
        assert!(out.contains("ok 2"), "{out}");
        assert!(out.contains("panic 1"), "{out}");
        assert!(out.contains("last event"), "{out}");

        let gap = dir.join("gap.jsonl");
        std::fs::write(&gap, format!("{}\n{}\n", line(3, "ok"), line(5, "ok"))).unwrap();
        let e = run(&args(&["flight", gap.to_str().unwrap()])).unwrap_err();
        assert!(format!("{e}").contains("jumped to 5, expected 4"), "{e}");

        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let e = run(&args(&["flight", bad.to_str().unwrap()])).unwrap_err();
        assert!(format!("{e}").contains("bad flight event"), "{e}");

        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        let e = run(&args(&["flight", empty.to_str().unwrap()])).unwrap_err();
        assert!(format!("{e}").contains("empty flight dump"), "{e}");

        assert!(matches!(run(&args(&["flight"])), Err(CliError::Usage(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_ns_picks_human_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
    }

    #[test]
    fn usage_text_lists_the_serving_subcommands() {
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("serve"), "{help}");
        assert!(help.contains("replay-to"), "{help}");
    }

    #[test]
    fn usage_errors_are_informative() {
        assert!(matches!(run(&args(&[])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
        let path = write_temp_trace("use", true);
        assert!(matches!(
            run(&args(&["evaluate", &path])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["evaluate", &path, "--decision", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&[
                "evaluate",
                &path,
                "--decision",
                "beta",
                "--estimator",
                "magic"
            ])),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(path).ok();
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn loadgen_usage_errors_exit_2() {
        // Every bad-config path must surface as a usage error (exit 2),
        // never a panic: these all once aborted inside RateProfile /
        // WorldConfig validate().
        for bad in [
            vec!["loadgen", "--sessions", "0"],
            vec!["loadgen", "--sessions", "many"],
            vec!["loadgen", "--rate", "-5"],
            vec!["loadgen", "--rate", "0"],
            vec!["loadgen", "--framing", "carrier-pigeon"],
            vec!["loadgen", "--profile", "square-wave"],
            vec!["loadgen", "--faults", "1.5"],
            vec!["loadgen", "--timescale", "-1"],
            vec!["loadgen", "--batch", "0"],
            vec!["loadgen", "stray-positional"],
        ] {
            let err = run(&args(&bad)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad:?}: {err}");
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }
    }

    #[test]
    fn loadgen_small_run_reports_and_writes_bench_json() {
        let bench =
            std::env::temp_dir().join(format!("ddn-cli-loadgen-bench-{}.json", std::process::id()));
        let out = run(&args(&[
            "loadgen",
            "--sessions",
            "90",
            "--records",
            "3",
            "--batch",
            "2",
            "--workers",
            "3",
            "--shards",
            "2",
            "--rate",
            "5000",
            "--seed",
            "21",
            "--faults",
            "0.01",
            "--bench-json",
            bench.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(
            out.contains("exactly-once: ok (270 records counted once)"),
            "{out}"
        );
        assert!(out.contains("estimate parity: ok (90 sessions"), "{out}");
        assert!(out.contains("schedule: digest "), "{out}");
        assert!(out.contains("latency   ingest:"), "{out}");
        let doc = Json::parse(&std::fs::read_to_string(&bench).unwrap()).unwrap();
        assert_eq!(
            doc.get("loadgen")
                .and_then(|l| l.get("records"))
                .and_then(Json::as_u64),
            Some(270)
        );
        assert!(lookup_metric(&doc, "loadgen.records_per_sec").unwrap() > 0.0);
        assert!(doc
            .get("loadgen")
            .unwrap()
            .get("verbs")
            .unwrap()
            .get("estimate")
            .is_some());
        std::fs::remove_file(&bench).ok();
    }

    #[test]
    fn loadgen_smoke_proves_determinism() {
        let out = run(&args(&["loadgen", "--smoke", "--seed", "3"])).unwrap();
        assert!(out.contains("determinism: ok"), "{out}");
        assert!(out.contains("estimate parity: ok (600 sessions"), "{out}");
    }

    #[test]
    fn bench_diff_gates_pins_and_reports() {
        let dir = std::env::temp_dir().join(format!("ddn-cli-bench-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bench_file = dir.join("BENCH_loadgen.json");
        std::fs::write(
            &bench_file,
            r#"{"suite":"loadgen","loadgen":{"records_per_sec":50000.0}}"#,
        )
        .unwrap();
        let floors = dir.join("floors.json");
        let floors_arg = floors.to_str().unwrap().to_string();
        let dir_arg = dir.to_str().unwrap().to_string();
        let write_floors = |floor: f64| {
            std::fs::write(
                &floors,
                format!(
                    r#"{{"pin_margin":0.5,"floors":[{{"file":"BENCH_loadgen.json","path":"loadgen.records_per_sec","floor":{floor}}}]}}"#
                ),
            )
            .unwrap()
        };

        // At floor: passes and says so.
        write_floors(40_000.0);
        let out = run(&args(&["bench-diff", &dir_arg, "--floors", &floors_arg])).unwrap();
        assert!(out.contains("bench-diff: ok (1 floors"), "{out}");

        // Injected regression: the measured value sits below the floor, so
        // the gate must fail with exit code 1.
        write_floors(60_000.0);
        let err = run(&args(&["bench-diff", &dir_arg, "--floors", &floors_arg])).unwrap_err();
        assert!(matches!(err, CliError::Bench(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("records_per_sec"), "{err}");

        // One-command re-pin: floors become measured x margin, after which
        // the gate passes again.
        let out = run(&args(&[
            "bench-diff",
            &dir_arg,
            "--floors",
            &floors_arg,
            "--pin",
        ]))
        .unwrap();
        assert!(out.contains("pinned 1 floors"), "{out}");
        let repinned = Json::parse(&std::fs::read_to_string(&floors).unwrap()).unwrap();
        let new_floor = repinned.get("floors").and_then(Json::as_array).unwrap()[0]
            .get("floor")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((new_floor - 25_000.0).abs() < 1e-6, "{new_floor}");
        let out = run(&args(&["bench-diff", &dir_arg, "--floors", &floors_arg])).unwrap();
        assert!(out.contains("bench-diff: ok"), "{out}");

        // Missing metrics and unreadable files are bench errors too.
        std::fs::write(
            &floors,
            r#"{"pin_margin":0.5,"floors":[{"file":"BENCH_loadgen.json","path":"loadgen.nope","floor":1}]}"#,
        )
        .unwrap();
        let err = run(&args(&["bench-diff", &dir_arg, "--floors", &floors_arg])).unwrap_err();
        assert!(matches!(err, CliError::Bench(_)), "{err}");
        let err = run(&args(&["bench-diff"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
