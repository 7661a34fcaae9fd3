//! Ablation B — data scarcity (§2.2.1).
//!
//! "The predicted reward may be a poor estimate of the real rewards …
//! because we have insufficient data to estimate a reliable model."
//!
//! We sweep the WISE world's trace size (scaling both the arrow and rare
//! cell counts). The interesting phase transition: below a data threshold
//! BIC cannot justify the full dependency structure, the CBN stays
//! incomplete, and the WISE evaluator is badly biased — while DR is
//! already accurate, because its IPS correction consumes the handful of
//! counterfactual-cell observations directly. With enough data the
//! structure finally resolves and WISE converges to DR. DR never has to
//! wait for the model to become right; that is the operational meaning of
//! double robustness.

use crate::figure7a::{figure7a_with, Figure7aConfig};
use ddn_cdn::wise::WiseConfig;
use ddn_stats::summary::ErrorReport;

/// One row of the sweep.
#[derive(Debug, Clone)]
pub struct TraceSizeRow {
    /// Total records per trace (both ISPs).
    pub trace_len: usize,
    /// WISE (CBN Direct Method) relative error.
    pub wise: ErrorReport,
    /// DR relative error.
    pub dr: ErrorReport,
}

/// Runs the trace-size sweep; `scales` multiplies the paper's 500/5
/// logging pattern.
///
/// # Panics
/// Panics if `scales` is empty or contains a scale that rounds a cell
/// count to zero, or `runs == 0`.
pub fn ablation_trace_size(scales: &[f64], runs: usize, base_seed: u64) -> Vec<TraceSizeRow> {
    assert!(!scales.is_empty(), "need at least one scale");
    assert!(runs > 0, "need at least one run");
    scales
        .iter()
        .map(|&s| {
            let arrow = (500.0 * s).round() as usize;
            let rare = (5.0 * s).round().max(1.0) as usize;
            assert!(arrow > 0, "scale {s} rounds the arrow count to zero");
            let cfg = Figure7aConfig {
                world: WiseConfig {
                    clients_per_arrow: arrow,
                    clients_per_rare_cell: rare,
                    ..Figure7aConfig::default().world
                },
                runs,
                base_seed,
            };
            let table = figure7a_with(&cfg);
            TraceSizeRow {
                trace_len: 2 * (2 * arrow + 2 * rare),
                wise: *table.get("WISE").unwrap(),
                dr: *table.get("DR").unwrap(),
            }
        })
        .collect()
}

/// Renders the sweep as aligned text.
pub fn render(rows: &[TraceSizeRow]) -> String {
    let mut out = String::from("Ablation B - trace size (WISE world, 500/5 pattern scaled)\n");
    out.push_str(&format!(
        "{:>10}  {:>10}  {:>10}\n",
        "records", "WISE err", "DR err"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10}  {:>10.4}  {:>10.4}\n",
            r.trace_len, r.wise.mean, r.dr.mean
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dr_accurate_before_the_cbn_structure_resolves() {
        let rows = ablation_trace_size(&[1.0, 8.0], 6, 910);
        let small = &rows[0];
        let large = &rows[1];
        // In the scarce regime the CBN is incomplete: WISE is biased, DR
        // is already much better.
        assert!(
            small.dr.mean < 0.6 * small.wise.mean,
            "scarce regime: DR {} should be well below WISE {}",
            small.dr.mean,
            small.wise.mean
        );
        // With 8x the data, BIC resolves the structure and WISE's error
        // collapses toward DR's.
        assert!(
            large.wise.mean < 0.5 * small.wise.mean,
            "WISE should improve once the structure resolves: {} -> {}",
            small.wise.mean,
            large.wise.mean
        );
        // DR never does worse than WISE at any scale.
        for row in &rows {
            assert!(
                row.dr.mean <= row.wise.mean * 1.05 + 1e-9,
                "DR {} should never trail WISE {} (n={})",
                row.dr.mean,
                row.wise.mean,
                row.trace_len
            );
        }
    }
}
