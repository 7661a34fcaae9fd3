//! Deterministic aggregation of per-run [`Collector`]s into a
//! [`TelemetrySnapshot`]: the JSON wire format behind `--telemetry` and
//! the human summary table printed to stderr.
//!
//! Aggregation walks collectors in the order given (the runner passes
//! them in seed order), and within each collector in emission order, so
//! the snapshot — float accumulation included — is bit-identical between
//! serial and parallel execution. Wall-clock span timings are inherently
//! nondeterministic, which is why [`TelemetrySnapshot::to_json_deterministic`]
//! zeroes every nanosecond field while keeping the (deterministic) span
//! occurrence counts and structure.

use crate::collector::Collector;
use ddn_stats::Json;

/// Running aggregate of one health metric across runs.
#[derive(Clone, Copy, Debug)]
pub struct MetricAgg {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (accumulated in seed order).
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl MetricAgg {
    fn first(v: f64) -> Self {
        Self {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    fn absorb(&mut self, other: &MetricAgg) {
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    fn to_json(self) -> Json {
        Json::object(vec![
            ("runs", Json::Int(self.count as i64)),
            ("mean", Json::Num(self.mean())),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// Running aggregate of one span path's timings across runs.
#[derive(Clone, Copy, Debug)]
pub struct TimingAgg {
    /// Number of span occurrences (deterministic).
    pub count: u64,
    /// Total elapsed nanoseconds (nondeterministic).
    pub total_ns: u64,
    /// Fastest occurrence in nanoseconds.
    pub min_ns: u64,
    /// Slowest occurrence in nanoseconds.
    pub max_ns: u64,
}

impl TimingAgg {
    fn first(ns: u64) -> Self {
        Self {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        }
    }

    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        if ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
    }

    fn absorb(&mut self, other: &TimingAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        if other.min_ns < self.min_ns {
            self.min_ns = other.min_ns;
        }
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
    }

    fn to_json(self, zero_times: bool) -> Json {
        let ns = |v: u64| {
            Json::Int(if zero_times {
                0
            } else {
                v.min(i64::MAX as u64) as i64
            })
        };
        let mean = if zero_times || self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        };
        Json::object(vec![
            ("count", Json::Int(self.count as i64)),
            ("total_ns", ns(self.total_ns)),
            ("mean_ns", Json::Num(mean)),
            ("min_ns", ns(self.min_ns)),
            ("max_ns", ns(self.max_ns)),
        ])
    }
}

fn entry<'a, V>(list: &'a mut [(String, V)], key: &str) -> Option<&'a mut V> {
    // Linear scan keeps first-seen order, which is what determinism needs;
    // these lists hold a handful of estimators/paths, not thousands.
    list.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Aggregated telemetry for one experiment (or several, via
/// [`TelemetrySnapshot::merge`]).
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    runs: usize,
    threads: usize,
    /// source → metric → aggregate, both levels in first-seen order.
    health: Vec<(String, Vec<(String, MetricAgg)>)>,
    counters: Vec<(String, u64)>,
    timings: Vec<(String, TimingAgg)>,
}

impl TelemetrySnapshot {
    /// Aggregates per-run collectors. Pass them in seed order: the
    /// accumulation order defines the float bits of every mean.
    pub fn from_runs(collectors: &[Collector]) -> Self {
        let mut snap = TelemetrySnapshot {
            runs: collectors.len(),
            ..Default::default()
        };
        for c in collectors {
            for (source, metrics) in &c.health {
                if entry(&mut snap.health, source).is_none() {
                    snap.health.push((source.clone(), Vec::new()));
                }
                let per_source = entry(&mut snap.health, source).expect("just inserted");
                for &(name, value) in metrics {
                    match entry(per_source, name) {
                        Some(agg) => agg.observe(value),
                        None => per_source.push((name.to_string(), MetricAgg::first(value))),
                    }
                }
            }
            for &(name, delta) in &c.counts {
                match entry(&mut snap.counters, name) {
                    Some(v) => *v += delta,
                    None => snap.counters.push((name.to_string(), delta)),
                }
            }
            for (path, ns) in &c.spans {
                match entry(&mut snap.timings, path) {
                    Some(agg) => agg.observe(*ns),
                    None => snap.timings.push((path.clone(), TimingAgg::first(*ns))),
                }
            }
        }
        snap
    }

    /// Records the worker-thread count used to produce this snapshot
    /// (reported in the full JSON, excluded from the deterministic form).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Worker-thread count recorded via [`TelemetrySnapshot::set_threads`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of runs aggregated.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Adds one timing observation under `path` (used by the runner for
    /// whole-experiment wall time, outside any per-run collector).
    pub fn add_timing(&mut self, path: &str, ns: u64) {
        match entry(&mut self.timings, path) {
            Some(agg) => agg.observe(ns),
            None => self.timings.push((path.to_string(), TimingAgg::first(ns))),
        }
    }

    /// Aggregate for `metric` under `source`, if recorded.
    pub fn health_metric(&self, source: &str, metric: &str) -> Option<&MetricAgg> {
        self.health
            .iter()
            .find(|(s, _)| s == source)
            .and_then(|(_, ms)| ms.iter().find(|(m, _)| m == metric))
            .map(|(_, agg)| agg)
    }

    /// Health sources in first-seen order (estimator / subsystem names).
    pub fn health_sources(&self) -> Vec<&str> {
        self.health.iter().map(|(s, _)| s.as_str()).collect()
    }

    /// Value of run-local counter `name`, if any run incremented it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Folds `other` into `self` (e.g. combining the three figure-7
    /// panels into one file). Aggregates merge pairwise; `other`'s
    /// sources/paths unseen here are appended in their order.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.runs += other.runs;
        self.threads = self.threads.max(other.threads);
        for (source, metrics) in &other.health {
            if entry(&mut self.health, source).is_none() {
                self.health.push((source.clone(), Vec::new()));
            }
            let per_source = entry(&mut self.health, source).expect("just inserted");
            for (name, agg) in metrics {
                match entry(per_source, name) {
                    Some(mine) => mine.absorb(agg),
                    None => per_source.push((name.clone(), *agg)),
                }
            }
        }
        for (name, delta) in &other.counters {
            match entry(&mut self.counters, name) {
                Some(v) => *v += delta,
                None => self.counters.push((name.clone(), *delta)),
            }
        }
        for (path, agg) in &other.timings {
            match entry(&mut self.timings, path) {
                Some(mine) => mine.absorb(agg),
                None => self.timings.push((path.clone(), *agg)),
            }
        }
    }

    fn json(&self, deterministic: bool) -> Json {
        let health = Json::Object(
            self.health
                .iter()
                .map(|(source, metrics)| {
                    (
                        source.clone(),
                        Json::Object(
                            metrics
                                .iter()
                                .map(|(name, agg)| (name.clone(), agg.to_json()))
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::Int((*v).min(i64::MAX as u64) as i64)))
                .collect(),
        );
        let timings = Json::Object(
            self.timings
                .iter()
                .map(|(p, agg)| (p.clone(), agg.to_json(deterministic)))
                .collect(),
        );
        let mut fields = vec![
            ("version", Json::Int(1)),
            ("runs", Json::Int(self.runs as i64)),
        ];
        if !deterministic {
            fields.push(("threads", Json::Int(self.threads as i64)));
        }
        fields.push(("health", health));
        fields.push(("counters", counters));
        fields.push(("timings", timings));
        Json::object(fields)
    }

    /// Full JSON snapshot: version, runs, threads, health aggregates,
    /// counters, and span timings. This is what `--telemetry` writes.
    pub fn to_json(&self) -> Json {
        self.json(false)
    }

    /// Deterministic JSON form: drops the thread count and zeroes every
    /// nanosecond field (span *counts* stay). Bit-identical between
    /// `run_parallel(1, …)` and `run_parallel(n, …)`.
    pub fn to_json_deterministic(&self) -> Json {
        self.json(true)
    }

    /// Human-readable summary table (for stderr).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry: {} run{} ({} thread{})\n",
            self.runs,
            if self.runs == 1 { "" } else { "s" },
            self.threads.max(1),
            if self.threads.max(1) == 1 { "" } else { "s" },
        ));
        if !self.health.is_empty() {
            out.push_str(&format!(
                "  {:<28} {:>6} {:>12} {:>12} {:>12}\n",
                "health", "runs", "mean", "min", "max"
            ));
            for (source, metrics) in &self.health {
                for (name, agg) in metrics {
                    out.push_str(&format!(
                        "  {:<28} {:>6} {:>12.4} {:>12.4} {:>12.4}\n",
                        format!("{source}/{name}"),
                        agg.count,
                        agg.mean(),
                        agg.min,
                        agg.max
                    ));
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("  {:<28} {:>6}\n", "counters", "total"));
            for (name, v) in &self.counters {
                out.push_str(&format!("  {:<28} {:>6}\n", name, v));
            }
        }
        if !self.timings.is_empty() {
            out.push_str(&format!(
                "  {:<28} {:>6} {:>12} {:>12}\n",
                "timings", "count", "total(ms)", "mean(us)"
            ));
            for (path, agg) in &self.timings {
                out.push_str(&format!(
                    "  {:<28} {:>6} {:>12.2} {:>12.1}\n",
                    path,
                    agg.count,
                    agg.total_ns as f64 / 1e6,
                    if agg.count == 0 {
                        0.0
                    } else {
                        agg.total_ns as f64 / agg.count as f64 / 1e3
                    }
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::collect;

    fn one_run(seed: f64) -> Collector {
        let ((), c) = collect(|| {
            let _run = crate::collector::span("run");
            crate::collector::record_health("IPS", &[("ess", 10.0 + seed), ("max_weight", seed)]);
            crate::collector::add_count("records", 100);
        });
        c
    }

    #[test]
    fn aggregates_in_order_with_min_max() {
        let snap = TelemetrySnapshot::from_runs(&[one_run(1.0), one_run(3.0), one_run(2.0)]);
        assert_eq!(snap.runs(), 3);
        let ess = snap.health_metric("IPS", "ess").unwrap();
        assert_eq!(ess.count, 3);
        assert_eq!(ess.min, 11.0);
        assert_eq!(ess.max, 13.0);
        assert!((ess.mean() - 12.0).abs() < 1e-12);
        assert_eq!(snap.counter("records"), Some(300));
    }

    #[test]
    fn deterministic_json_zeroes_times_but_keeps_counts() {
        let mut snap = TelemetrySnapshot::from_runs(&[one_run(1.0)]);
        snap.set_threads(8);
        snap.add_timing("experiment", 12345);
        let j = snap.to_json_deterministic();
        assert!(j.get("threads").is_none());
        let timings = j.get("timings").unwrap();
        let run = timings.get("run").unwrap();
        assert_eq!(run.get("count").unwrap().as_i64(), Some(1));
        assert_eq!(run.get("total_ns").unwrap().as_i64(), Some(0));
        let full = snap.to_json();
        assert_eq!(full.get("threads").unwrap().as_i64(), Some(8));
        assert_eq!(
            full.get("timings")
                .unwrap()
                .get("experiment")
                .unwrap()
                .get("total_ns")
                .unwrap()
                .as_i64(),
            Some(12345)
        );
    }

    #[test]
    fn merge_combines_runs_and_aggregates() {
        let mut a = TelemetrySnapshot::from_runs(&[one_run(1.0)]);
        let b = TelemetrySnapshot::from_runs(&[one_run(5.0)]);
        a.merge(&b);
        assert_eq!(a.runs(), 2);
        let ess = a.health_metric("IPS", "ess").unwrap();
        assert_eq!(ess.count, 2);
        assert_eq!(ess.max, 15.0);
        assert_eq!(a.counter("records"), Some(200));
    }

    #[test]
    fn render_mentions_every_section() {
        let mut snap = TelemetrySnapshot::from_runs(&[one_run(1.0)]);
        snap.set_threads(4);
        let table = snap.render();
        assert!(table.contains("telemetry: 1 run (4 threads)"));
        assert!(table.contains("IPS/ess"));
        assert!(table.contains("records"));
        assert!(table.contains("run"));
    }
}
