//! The paper's experiment protocol: relative evaluation error aggregated
//! over repeated seeded simulations (Figure 7's "mean, minimum and maximum
//! of evaluation errors over 50 runs").

use ddn_stats::summary::ErrorReport;
use ddn_stats::ttest::{paired_t_test, TTest};
use ddn_telemetry::{Collector, TelemetrySnapshot};

/// One run's raw output: the ground truth and named estimates.
pub type RunOutput = (f64, Vec<(String, f64)>);

/// Aggregates run outputs (in seed order) into an [`ErrorTable`].
///
/// # Panics
/// Panics if runs disagree on estimator names, a ground truth is
/// zero/non-finite, or the number of outputs differs from `runs` — a
/// scenario closure that under- or over-produces would otherwise yield
/// a table silently averaged over the wrong number of seeds while still
/// claiming `runs` repetitions in every report.
fn tabulate(outputs: impl IntoIterator<Item = RunOutput>, runs: usize) -> ErrorTable {
    let mut names: Vec<String> = Vec::new();
    let mut errors: Vec<Vec<f64>> = Vec::new();
    let mut produced = 0usize;
    for (i, (truth, estimates)) in outputs.into_iter().enumerate() {
        produced = i + 1;
        if i == 0 {
            names = estimates.iter().map(|(n, _)| n.clone()).collect();
            errors = vec![Vec::with_capacity(runs); names.len()];
        } else {
            let got: Vec<&String> = estimates.iter().map(|(n, _)| n).collect();
            assert!(
                got.iter().zip(&names).all(|(a, b)| **a == *b),
                "estimator names changed between runs: {got:?} vs {names:?}"
            );
        }
        for (j, (_, est)) in estimates.iter().enumerate() {
            errors[j].push(relative_error(truth, *est));
        }
    }
    assert_eq!(
        produced, runs,
        "experiment produced {produced} run outputs but was configured for {runs} runs"
    );
    let rows = names
        .into_iter()
        .zip(errors.iter())
        .map(|(n, e)| (n, ErrorReport::from_errors(e)))
        .collect();
    ErrorTable { rows, raw: errors }
}

/// The paper's error metric: `|V − V̂| / |V|` (§4.2, "relative error
/// between actual average reward V (ground truth) and its estimate V̂").
///
/// # Panics
/// Panics if `truth == 0` (the metric is undefined) or either input is
/// non-finite.
pub fn relative_error(truth: f64, estimate: f64) -> f64 {
    assert!(
        truth.is_finite() && estimate.is_finite(),
        "relative_error needs finite inputs"
    );
    assert!(
        truth != 0.0,
        "relative error undefined for zero ground truth"
    );
    (truth - estimate).abs() / truth.abs()
}

/// Runs an experiment across seeds: each run produces `(truth, estimate)`
/// pairs for a set of named estimators; the runner aggregates per-estimator
/// [`ErrorReport`]s.
///
/// This is deliberately estimator-agnostic — scenario crates hand it a
/// closure that builds the world for a seed, computes ground truth, and
/// returns each evaluator's estimate.
pub struct ExperimentRunner {
    runs: usize,
    base_seed: u64,
}

/// One experiment's aggregated output: rows of (estimator name, report),
/// plus the raw per-run errors so paired comparisons remain possible.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorTable {
    rows: Vec<(String, ErrorReport)>,
    raw: Vec<Vec<f64>>,
}

impl ErrorTable {
    /// The rows in insertion order.
    pub fn rows(&self) -> &[(String, ErrorReport)] {
        &self.rows
    }

    /// The report for a named estimator.
    pub fn get(&self, name: &str) -> Option<&ErrorReport> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, r)| r)
    }

    /// Relative improvement (in mean error) of estimator `a` over `b`, as
    /// the paper reports ("DR's evaluation error is about 32% lower than
    /// WISE").
    ///
    /// # Panics
    /// Panics if either name is missing.
    pub fn improvement(&self, a: &str, b: &str) -> f64 {
        let ra = self
            .get(a)
            .unwrap_or_else(|| panic!("no estimator named {a:?}"));
        let rb = self
            .get(b)
            .unwrap_or_else(|| panic!("no estimator named {b:?}"));
        ra.improvement_over(rb)
    }

    /// The raw per-run relative errors of a named estimator, in seed
    /// order (runs are seeded identically across estimators, so rows are
    /// paired observations).
    pub fn raw_errors(&self, name: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| self.raw[i].as_slice())
    }

    /// Paired t-test of estimator `a`'s per-run errors against `b`'s —
    /// the statistically right way to ask "is a actually better?", since
    /// both ran on identical seeds. `mean_diff < 0` means `a` has lower
    /// error.
    ///
    /// # Panics
    /// Panics if either name is missing.
    pub fn paired_test(&self, a: &str, b: &str) -> TTest {
        let ea = self
            .raw_errors(a)
            .unwrap_or_else(|| panic!("no estimator named {a:?}"));
        let eb = self
            .raw_errors(b)
            .unwrap_or_else(|| panic!("no estimator named {b:?}"));
        paired_t_test(ea, eb)
    }

    /// Renders the table as aligned text (one row per estimator).
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(title);
        out.push('\n');
        let name_w = self
            .rows
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4)
            .max(9);
        out.push_str(&format!(
            "{:<name_w$}  {:>10}  {:>10}  {:>10}  {:>5}\n",
            "estimator", "mean err", "min err", "max err", "runs"
        ));
        for (name, r) in &self.rows {
            out.push_str(&format!(
                "{name:<name_w$}  {:>10.4}  {:>10.4}  {:>10.4}  {:>5}\n",
                r.mean, r.min, r.max, r.runs
            ));
        }
        out
    }
}

impl ExperimentRunner {
    /// Creates a runner executing `runs` seeded repetitions starting at
    /// `base_seed` (run `i` gets seed `base_seed + i`).
    ///
    /// # Panics
    /// Panics if `runs == 0`.
    pub fn new(runs: usize, base_seed: u64) -> Self {
        assert!(runs > 0, "experiment needs at least one run");
        Self { runs, base_seed }
    }

    /// The paper's default protocol: 50 runs.
    pub fn paper_default(base_seed: u64) -> Self {
        Self::new(50, base_seed)
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Executes the experiment. For each seed, `run` returns the ground
    /// truth `V` and a list of `(estimator name, estimate)` pairs; the
    /// estimator name set must be identical across runs.
    ///
    /// # Panics
    /// Panics if runs disagree on the estimator names or a ground truth is
    /// zero/non-finite.
    pub fn run<F>(&self, mut run: F) -> ErrorTable
    where
        F: FnMut(u64) -> (f64, Vec<(String, f64)>),
    {
        let outputs: Vec<RunOutput> = (0..self.runs)
            .map(|i| run(self.base_seed + i as u64))
            .collect();
        tabulate(outputs, self.runs)
    }

    /// Like [`Self::run`], but with a telemetry collector installed for
    /// each seed: estimator health diagnostics and spans recorded by the
    /// closure are aggregated (in seed order) into a
    /// [`TelemetrySnapshot`] alongside the error table.
    pub fn run_instrumented<F>(&self, mut run: F) -> (ErrorTable, TelemetrySnapshot)
    where
        F: FnMut(u64) -> (f64, Vec<(String, f64)>),
    {
        let started = std::time::Instant::now();
        let mut outputs: Vec<RunOutput> = Vec::with_capacity(self.runs);
        let mut collectors: Vec<Collector> = Vec::with_capacity(self.runs);
        for i in 0..self.runs {
            let seed = self.base_seed + i as u64;
            let (out, collector) = ddn_telemetry::collect(|| {
                let _run_span = ddn_telemetry::span("run");
                run(seed)
            });
            outputs.push(out);
            collectors.push(collector);
        }
        let mut snapshot = TelemetrySnapshot::from_runs(&collectors);
        snapshot.set_threads(1);
        snapshot.add_timing("experiment", started.elapsed().as_nanos() as u64);
        (tabulate(outputs, self.runs), snapshot)
    }

    /// The worker-thread count scenario crates should default to: the
    /// `DDN_THREADS` environment variable when set to a positive
    /// integer, otherwise the machine's available parallelism (with a
    /// single-thread fallback when it cannot be determined).
    ///
    /// The chosen count is recorded as the `experiment.default_threads`
    /// gauge in the global telemetry registry exactly once per process —
    /// earlier versions wrote it on every call, so concurrently running
    /// experiments (tier-1 tests in particular) kept overwriting each
    /// other's value mid-read.
    pub fn default_threads() -> usize {
        static GAUGE_ONCE: std::sync::Once = std::sync::Once::new();
        let threads = std::env::var("DDN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        GAUGE_ONCE.call_once(|| {
            ddn_telemetry::Registry::global()
                .gauge("experiment.default_threads")
                .set(threads as f64);
        });
        threads
    }
}

impl ExperimentRunner {
    /// Executes the experiment with runs fanned out across `threads` OS
    /// threads. `run` must be `Sync` (it is called concurrently with
    /// distinct seeds) — simulators in this workspace are pure functions
    /// of the seed, so any of the scenario closures qualify once their
    /// captured state is immutable. Results are identical to [`Self::run`]
    /// regardless of thread count or scheduling (each seed's output is
    /// slotted by index).
    ///
    /// # Panics
    /// Panics if `threads == 0`, on inconsistent estimator names, or if a
    /// worker panics.
    pub fn run_parallel<F>(&self, threads: usize, run: F) -> ErrorTable
    where
        F: Fn(u64) -> (f64, Vec<(String, f64)>) + Sync,
    {
        let outputs = self.fan_out(threads, run);
        tabulate(outputs, self.runs)
    }

    /// Parallel counterpart of [`Self::run_instrumented`]. Each worker
    /// collects its seeds' telemetry independently; the finished
    /// collectors are slotted by seed index and aggregated in seed order
    /// after the join, so the snapshot (float accumulation included) is
    /// bit-identical to the serial instrumented run for any `threads` —
    /// the same guarantee [`Self::run_parallel`] gives the error table.
    /// Wall-clock span durations still vary run to run; compare
    /// [`TelemetrySnapshot::to_json_deterministic`] forms, not raw
    /// timings.
    pub fn run_parallel_instrumented<F>(
        &self,
        threads: usize,
        run: F,
    ) -> (ErrorTable, TelemetrySnapshot)
    where
        F: Fn(u64) -> (f64, Vec<(String, f64)>) + Sync,
    {
        let started = std::time::Instant::now();
        let results = self.fan_out(threads, |seed| {
            ddn_telemetry::collect(|| {
                let _run_span = ddn_telemetry::span("run");
                run(seed)
            })
        });
        let (outputs, collectors): (Vec<RunOutput>, Vec<Collector>) = results.into_iter().unzip();
        let mut snapshot = TelemetrySnapshot::from_runs(&collectors);
        snapshot.set_threads(threads);
        snapshot.add_timing("experiment", started.elapsed().as_nanos() as u64);
        (tabulate(outputs, self.runs), snapshot)
    }

    /// Shared fan-out machinery: a fixed channel-based worker pool.
    ///
    /// All seed indices are queued up front on a shared job channel
    /// (std's mpsc receiver behind a mutex acts as the single work
    /// queue); `threads.min(runs)` scoped workers pull whatever index is
    /// next — idle workers steal the remaining work instead of being
    /// assigned a static share — and send `(index, output)` back on a
    /// results channel. The main thread slots results by index while the
    /// pool drains, so the merged output is in seed order and
    /// bit-identical to serial execution regardless of thread count or
    /// scheduling. A worker panic drops its result sender; the scope
    /// join then re-raises the panic.
    fn fan_out<T, W>(&self, threads: usize, work: W) -> Vec<T>
    where
        T: Send,
        W: Fn(u64) -> T + Sync,
    {
        assert!(threads > 0, "need at least one thread");
        let runs = self.runs;
        let base = self.base_seed;
        let workers = threads.min(runs);
        let (job_tx, job_rx) = std::sync::mpsc::channel::<usize>();
        for i in 0..runs {
            job_tx.send(i).expect("job queue open while filling");
        }
        drop(job_tx); // Workers see Disconnected once the queue drains.
        let job_rx = std::sync::Mutex::new(job_rx);
        let (result_tx, result_rx) = std::sync::mpsc::channel::<(usize, T)>();
        let mut results: Vec<Option<T>> = (0..runs).map(|_| None).collect();
        let work = &work;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let job_rx = &job_rx;
                let result_tx = result_tx.clone();
                scope.spawn(move || loop {
                    // The queue is pre-filled, so holding the lock across
                    // recv never blocks on a producer.
                    let job = job_rx.lock().expect("no poisoned workers").recv();
                    let Ok(i) = job else { break };
                    let out = work(base + i as u64);
                    if result_tx.send((i, out)).is_err() {
                        break;
                    }
                });
            }
            drop(result_tx);
            while let Ok((i, out)) = result_rx.recv() {
                results[i] = Some(out);
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("every seed produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert!((relative_error(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(-10.0, -12.0) - 0.2).abs() < 1e-12);
        assert_eq!(relative_error(5.0, 5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "zero ground truth")]
    fn relative_error_zero_truth_panics() {
        let _ = relative_error(0.0, 1.0);
    }

    #[test]
    fn runner_aggregates_errors() {
        let runner = ExperimentRunner::new(10, 100);
        let table = runner.run(|seed| {
            let truth = 10.0;
            // "good" estimator off by seed-dependent ±0.1; "bad" off by 2.
            let wiggle = if seed % 2 == 0 { 0.1 } else { -0.1 };
            (
                truth,
                vec![
                    ("good".to_string(), truth + wiggle),
                    ("bad".to_string(), truth + 2.0),
                ],
            )
        });
        let good = table.get("good").unwrap();
        let bad = table.get("bad").unwrap();
        assert!((good.mean - 0.01).abs() < 1e-12);
        assert!((bad.mean - 0.2).abs() < 1e-12);
        assert_eq!(good.runs, 10);
        // good improves on bad by 95%.
        assert!((table.improvement("good", "bad") - 0.95).abs() < 1e-9);
    }

    #[test]
    fn runner_seeds_are_sequential() {
        let runner = ExperimentRunner::new(3, 7);
        let mut seen = Vec::new();
        runner.run(|seed| {
            seen.push(seed);
            (1.0, vec![("e".to_string(), 1.0)])
        });
        assert_eq!(seen, vec![7, 8, 9]);
    }

    #[test]
    fn render_contains_rows() {
        let runner = ExperimentRunner::new(2, 0);
        let table = runner.run(|_| (1.0, vec![("DR".to_string(), 0.9)]));
        let text = table.render("Figure 7a");
        assert!(text.contains("Figure 7a"));
        assert!(text.contains("DR"));
        assert!(text.contains("0.1000"));
    }

    #[test]
    #[should_panic(expected = "names changed")]
    fn inconsistent_names_panic() {
        let runner = ExperimentRunner::new(2, 0);
        let mut flip = false;
        runner.run(|_| {
            flip = !flip;
            let name = if flip { "a" } else { "b" };
            (1.0, vec![(name.to_string(), 1.0)])
        });
    }

    #[test]
    #[should_panic(expected = "run outputs")]
    fn under_produced_outputs_panic() {
        // A closure that filters/fails a seed used to yield a table
        // quietly averaged over fewer runs than configured.
        let outputs = vec![
            (1.0, vec![("e".to_string(), 0.9)]),
            (1.0, vec![("e".to_string(), 1.1)]),
        ];
        let _ = tabulate(outputs, 3);
    }

    #[test]
    #[should_panic(expected = "run outputs")]
    fn over_produced_outputs_panic() {
        let outputs = vec![(1.0, vec![("e".to_string(), 0.9)]); 4];
        let _ = tabulate(outputs, 3);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let runner = ExperimentRunner::new(17, 40);
        let work = |seed: u64| {
            let truth = 10.0;
            let noisy = truth + ((seed % 7) as f64 - 3.0) * 0.1;
            (
                truth,
                vec![("e1".to_string(), noisy), ("e2".to_string(), truth + 1.0)],
            )
        };
        let serial = runner.run(work);
        for threads in [1usize, 3, 8] {
            let parallel = runner.run_parallel(threads, work);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_with_more_threads_than_runs() {
        let runner = ExperimentRunner::new(2, 0);
        let t = runner.run_parallel(16, |_| (1.0, vec![("e".to_string(), 0.9)]));
        assert_eq!(t.get("e").unwrap().runs, 2);
    }

    #[test]
    fn paired_test_on_identical_seeds() {
        let runner = ExperimentRunner::new(30, 500);
        let table = runner.run(|seed| {
            let truth = 10.0;
            let shared_noise = ((seed * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
            (
                truth,
                vec![
                    ("good".to_string(), truth + shared_noise),
                    ("bad".to_string(), truth + shared_noise + 1.0),
                ],
            )
        });
        assert_eq!(table.raw_errors("good").unwrap().len(), 30);
        let t = table.paired_test("good", "bad");
        assert!(t.mean_diff < 0.0, "good should have lower error");
        assert!(
            t.significant(0.01),
            "constant gap must be significant: p={}",
            t.p_two_sided
        );
    }

    #[test]
    fn paper_default_is_50_runs() {
        assert_eq!(ExperimentRunner::paper_default(0).runs(), 50);
    }
}
