//! A lightweight benchmark runner replacing Criterion under the
//! hermetic-build policy (no crates.io dependencies).
//!
//! Each `cargo bench` target builds a [`Suite`], registers benchmarks with
//! [`Suite::bench`], and calls [`Suite::finish`], which prints a table and
//! writes `BENCH_<suite>.json` to the current directory so successive runs
//! form a machine-readable timing trajectory.
//!
//! The protocol per benchmark is Criterion-shaped but simpler: a warmup
//! phase (results discarded, caches and branch predictors settle), then N
//! timed iterations, summarized as mean/p50/p99/min/max via
//! `ddn_stats::Summary` and `ddn_stats::quantile`. Iteration counts are
//! configurable through `DDN_BENCH_WARMUP` / `DDN_BENCH_ITERS`.

use ddn_stats::{quantile, Json, Summary};
use std::time::Instant;

/// Iteration counts for one suite.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Untimed iterations run before sampling.
    pub warmup_iters: u32,
    /// Timed iterations per benchmark.
    pub sample_iters: u32,
}

impl Default for BenchConfig {
    /// Ten samples after two warmup iterations, overridable via the
    /// `DDN_BENCH_WARMUP` and `DDN_BENCH_ITERS` environment variables.
    fn default() -> Self {
        let env_u32 = |key: &str, default: u32| {
            std::env::var(key)
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(default)
        };
        Self {
            warmup_iters: env_u32("DDN_BENCH_WARMUP", 2),
            sample_iters: env_u32("DDN_BENCH_ITERS", 10).max(1),
        }
    }
}

/// Timing summary of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (e.g. `"figure7a/5runs"`).
    pub name: String,
    /// Number of timed iterations.
    pub iters: u32,
    /// Mean wall-clock time per iteration.
    pub mean_ns: f64,
    /// Median time per iteration.
    pub p50_ns: f64,
    /// 99th-percentile time per iteration.
    pub p99_ns: f64,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Slowest iteration.
    pub max_ns: f64,
    /// Elements processed per iteration, when declared (enables
    /// throughput reporting).
    pub elements: Option<u64>,
}

impl BenchResult {
    /// Serializes one result for the `BENCH_*.json` trajectory.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name.clone())),
            ("iters", Json::Int(i64::from(self.iters))),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("p50_ns", Json::Num(self.p50_ns)),
            ("p99_ns", Json::Num(self.p99_ns)),
            ("min_ns", Json::Num(self.min_ns)),
            ("max_ns", Json::Num(self.max_ns)),
        ];
        if let Some(e) = self.elements {
            fields.push(("elements", Json::Int(e as i64)));
            fields.push(("elems_per_sec", Json::Num(e as f64 / (self.mean_ns * 1e-9))));
        }
        Json::object(fields)
    }
}

/// A named collection of benchmarks sharing one config; the unit that
/// becomes one `BENCH_<suite>.json` file.
pub struct Suite {
    name: String,
    cfg: BenchConfig,
    results: Vec<BenchResult>,
    telemetry: Option<Json>,
    sections: Vec<(String, Json)>,
}

impl Suite {
    /// Creates a suite with [`BenchConfig::default`].
    pub fn new(name: &str) -> Self {
        Self::with_config(name, BenchConfig::default())
    }

    /// Creates a suite with an explicit config.
    pub fn with_config(name: &str, cfg: BenchConfig) -> Self {
        Self {
            name: name.to_string(),
            cfg,
            results: Vec::new(),
            telemetry: None,
            sections: Vec::new(),
        }
    }

    /// Attaches a telemetry snapshot (e.g. `TelemetrySnapshot::to_json()`)
    /// to the suite, so `BENCH_<suite>.json` carries the estimator-health
    /// and span-timing context the timings were produced under.
    pub fn attach_telemetry(&mut self, snapshot: Json) {
        self.telemetry = Some(snapshot);
    }

    /// Attaches an arbitrary named JSON section to the suite document —
    /// derived summaries (e.g. a batched-vs-unbatched speedup ratio) that
    /// belong in `BENCH_<suite>.json` next to the raw timings they were
    /// computed from.
    pub fn attach_section(&mut self, name: &str, value: Json) {
        self.sections.push((name.to_string(), value));
    }

    /// Runs one benchmark: warmup, then timed iterations.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        self.run(name, None, &mut f);
    }

    /// Like [`Suite::bench`], declaring that each iteration processes
    /// `elements` items, so the report includes throughput.
    pub fn bench_throughput<T>(&mut self, name: &str, elements: u64, mut f: impl FnMut() -> T) {
        self.run(name, Some(elements), &mut f);
    }

    fn run<T>(&mut self, name: &str, elements: Option<u64>, f: &mut dyn FnMut() -> T) {
        for _ in 0..self.cfg.warmup_iters {
            std::hint::black_box(f());
        }
        let mut samples = Vec::with_capacity(self.cfg.sample_iters as usize);
        for _ in 0..self.cfg.sample_iters {
            let start = Instant::now();
            std::hint::black_box(f());
            samples.push(start.elapsed().as_nanos() as f64);
        }
        let s = Summary::of(&samples);
        let result = BenchResult {
            name: name.to_string(),
            iters: self.cfg.sample_iters,
            mean_ns: s.mean,
            p50_ns: quantile(&samples, 0.5),
            p99_ns: quantile(&samples, 0.99),
            min_ns: s.min,
            max_ns: s.max,
            elements,
        };
        println!("{}", render_line(&result));
        self.results.push(result);
    }

    /// The results gathered so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the whole suite for the `BENCH_*.json` trajectory.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("suite", Json::str(self.name.clone())),
            ("warmup_iters", Json::Int(i64::from(self.cfg.warmup_iters))),
            (
                "results",
                Json::Array(self.results.iter().map(BenchResult::to_json).collect()),
            ),
        ];
        if let Some(t) = &self.telemetry {
            fields.push(("telemetry", t.clone()));
        }
        for (name, value) in &self.sections {
            fields.push((name.as_str(), value.clone()));
        }
        Json::object(fields)
    }

    /// Writes `BENCH_<suite>.json` and prints the output path; call this
    /// last, from the bench target's `main`. The file goes to
    /// `DDN_BENCH_DIR` when set, else the current directory (under
    /// `cargo bench` that is the package root, `crates/bench/`).
    pub fn finish(self) {
        let dir = std::env::var("DDN_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = format!("{dir}/BENCH_{}.json", self.name);
        match std::fs::write(&path, self.to_json().to_string()) {
            Ok(()) => println!("\nwrote {path} ({} benchmarks)", self.results.len()),
            Err(e) => eprintln!("\nfailed to write {path}: {e}"),
        }
    }
}

/// One human-readable report line: name, mean, p50/p99 spread, and
/// throughput when elements were declared.
fn render_line(r: &BenchResult) -> String {
    let mut line = format!(
        "{:<40} mean {:>12}  p50 {:>12}  p99 {:>12}",
        r.name,
        format_ns(r.mean_ns),
        format_ns(r.p50_ns),
        format_ns(r.p99_ns),
    );
    if let Some(e) = r.elements {
        let per_sec = e as f64 / (r.mean_ns * 1e-9);
        line.push_str(&format!("  {per_sec:>12.0} elems/s"));
    }
    line
}

/// Scales nanoseconds into the most readable unit.
fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> BenchConfig {
        BenchConfig {
            warmup_iters: 1,
            sample_iters: 5,
        }
    }

    #[test]
    fn suite_collects_results() {
        let mut suite = Suite::with_config("unit", quick_cfg());
        suite.bench("noop", || 1 + 1);
        suite.bench_throughput("sum_1k", 1_000, || (0..1_000u64).sum::<u64>());
        assert_eq!(suite.results().len(), 2);
        let r = &suite.results()[0];
        assert_eq!(r.iters, 5);
        assert!(r.mean_ns >= 0.0 && r.min_ns <= r.max_ns);
        assert!(r.p50_ns >= r.min_ns && r.p99_ns <= r.max_ns);
        assert_eq!(suite.results()[1].elements, Some(1_000));
    }

    #[test]
    fn suite_json_shape() {
        let mut suite = Suite::with_config("unit_json", quick_cfg());
        suite.bench("noop", || ());
        let j = suite.to_json();
        assert_eq!(j.get("suite").unwrap().as_str(), Some("unit_json"));
        let results = j.get("results").unwrap().as_array().unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.get("name").unwrap().as_str(), Some("noop"));
        assert!(r.get("mean_ns").unwrap().as_f64().is_some());
        assert!(r.get("p99_ns").unwrap().as_f64().is_some());
        // The document parses back.
        let text = j.to_string();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn attached_telemetry_lands_in_json() {
        let mut suite = Suite::with_config("unit_telemetry", quick_cfg());
        suite.bench("noop", || ());
        suite.attach_telemetry(Json::object(vec![("runs", Json::Int(3))]));
        let j = suite.to_json();
        let t = j.get("telemetry").expect("telemetry field present");
        assert_eq!(t.get("runs").unwrap().as_i64(), Some(3));
        assert!(Json::parse(&j.to_string()).is_ok());
    }

    #[test]
    fn attached_sections_land_in_json() {
        let mut suite = Suite::with_config("unit_sections", quick_cfg());
        suite.bench("noop", || ());
        suite.attach_section(
            "eval_batch",
            Json::object(vec![("speedup", Json::Num(1.8))]),
        );
        let j = suite.to_json();
        let s = j.get("eval_batch").expect("section present");
        assert_eq!(s.get("speedup").unwrap().as_f64(), Some(1.8));
        assert!(Json::parse(&j.to_string()).is_ok());
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(12_500.0), "12.500 µs");
        assert_eq!(format_ns(12_500_000.0), "12.500 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }
}
