//! Per-run telemetry collection: a thread-local [`Collector`] installed
//! for the duration of one seeded experiment run.
//!
//! The design constraint is the workspace determinism contract:
//! `ExperimentRunner::run_parallel` must stay bit-identical to the serial
//! path no matter the thread count. Global atomics cannot provide that
//! (increments interleave arbitrarily), so instrumented code writes into
//! whichever collector is installed on *its own thread*, and the runner
//! hands each seed's finished collector back in seed order for the
//! deterministic aggregation in [`crate::snapshot`].
//!
//! When no collector is installed every entry point is a cheap
//! thread-local check and a no-op, which is what keeps the "disabled
//! overhead < 2%" budget honest: un-instrumented callers of estimators
//! pay one TLS load per emission site.

use std::cell::RefCell;
use std::time::Instant;

/// Everything one run recorded, in emission order.
#[derive(Clone, Debug, Default)]
pub struct Collector {
    /// `(source, metrics)` health records, e.g. `("IPS", [("ess", 42.0)])`.
    pub health: Vec<(String, Vec<(&'static str, f64)>)>,
    /// Named event counts accumulated over the run.
    pub counts: Vec<(&'static str, u64)>,
    /// `(span path, elapsed ns)` per span occurrence, close order.
    pub spans: Vec<(String, u64)>,
}

struct Active {
    collector: Collector,
    /// Open span names, innermost last; joined with '/' to form paths.
    stack: Vec<&'static str>,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
}

/// Runs `f` with a fresh collector installed on this thread and returns
/// `f`'s output together with everything it recorded.
///
/// Nesting is allowed: the previous collector (if any) is suspended and
/// restored afterwards, so an instrumented scenario can itself be called
/// from instrumented code without mixing records.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Collector) {
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(Active {
            collector: Collector::default(),
            stack: Vec::new(),
        })
    });
    let out = f();
    let active = ACTIVE
        .with(|a| std::mem::replace(&mut *a.borrow_mut(), prev))
        .expect("telemetry collector removed during collect()");
    (out, active.collector)
}

/// True when a collector is installed on this thread. Instrumented code
/// should gate any non-trivial metric computation behind this.
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Records a batch of health metrics attributed to `source` (an
/// estimator or subsystem name). No-op without a collector.
pub fn record_health(source: &str, metrics: &[(&'static str, f64)]) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            active
                .collector
                .health
                .push((source.to_string(), metrics.to_vec()));
        }
    });
}

/// Adds `delta` to the run-local counter `name`. No-op without a
/// collector.
pub fn add_count(name: &'static str, delta: u64) {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            if let Some((_, v)) = active.collector.counts.iter_mut().find(|(n, _)| *n == name) {
                *v += delta;
            } else {
                active.collector.counts.push((name, delta));
            }
        }
    });
}

/// RAII guard for one timed span; created by [`span`], records its
/// elapsed time on drop.
#[must_use = "a span measures nothing unless held for the region's duration"]
pub struct Span {
    start: Option<Instant>,
}

/// Opens a named span. With a collector installed the guard records
/// `Instant`-based elapsed nanoseconds under the hierarchical path of
/// all open spans (e.g. `"run/fit"`) when dropped; without one it is
/// inert and never reads the clock.
///
/// Guards must be dropped in LIFO order (the natural RAII shape) and
/// inside the enclosing [`collect`] scope.
pub fn span(name: &'static str) -> Span {
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow_mut().as_mut() {
            active.stack.push(name);
            Span {
                start: Some(Instant::now()),
            }
        } else {
            Span { start: None }
        }
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        ACTIVE.with(|a| {
            if let Some(active) = a.borrow_mut().as_mut() {
                let path = active.stack.join("/");
                active.stack.pop();
                active.collector.spans.push((path, ns));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_entry_points_are_no_ops() {
        assert!(!enabled());
        record_health("X", &[("ess", 1.0)]);
        add_count("events", 3);
        let _s = span("outer"); // inert guard
        assert!(!enabled());
    }

    #[test]
    fn collect_captures_health_counts_and_spans() {
        let (value, c) = collect(|| {
            assert!(enabled());
            let _outer = span("run");
            {
                let _inner = span("fit");
                record_health("DR", &[("ess", 12.0), ("max_weight", 3.0)]);
            }
            add_count("records", 10);
            add_count("records", 5);
            42
        });
        assert_eq!(value, 42);
        assert!(!enabled());
        assert_eq!(c.health.len(), 1);
        assert_eq!(c.health[0].0, "DR");
        assert_eq!(c.health[0].1[0], ("ess", 12.0));
        assert_eq!(c.counts, vec![("records", 15)]);
        let paths: Vec<&str> = c.spans.iter().map(|(p, _)| p.as_str()).collect();
        // Inner span closes first; paths are hierarchical.
        assert_eq!(paths, vec!["run/fit", "run"]);
    }

    #[test]
    fn nested_collect_restores_outer_collector() {
        let (_, outer) = collect(|| {
            record_health("outer", &[("n", 1.0)]);
            let ((), inner) = collect(|| {
                record_health("inner", &[("n", 2.0)]);
            });
            assert_eq!(inner.health.len(), 1);
            assert_eq!(inner.health[0].0, "inner");
            record_health("outer", &[("n", 3.0)]);
        });
        let sources: Vec<&str> = outer.health.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(sources, vec!["outer", "outer"]);
    }
}
