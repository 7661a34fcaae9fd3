//! The correctness gate: a run whose server miscounted or mis-estimated
//! reports no metrics.

use crate::stream::{Plan, Workload, DURABLE_WINDOW, MODEL_VALUE};
use ddn_estimators::{DoublyRobust, Estimator, Ips};
use ddn_models::ConstantModel;
use ddn_policy::LookupPolicy;
use ddn_stats::Json;
use ddn_trace::Trace;
use std::collections::BTreeMap;

/// Exactly-once: the server's `serve.ingest.records` delta over a phase
/// must equal the records the clients saw acknowledged in it.
pub fn exactly_once(server_delta: u64, acked: u64) -> Result<(), String> {
    if server_delta == acked {
        Ok(())
    } else {
        Err(format!(
            "exactly-once violated: clients saw {acked} records acknowledged, \
             the server's serve.ingest.records moved by {server_delta}"
        ))
    }
}

/// The offline `(ips, dr)` estimates of session `s` after `total`
/// records: over all of them, or over the last window for a windowed
/// bank.
pub fn offline(plan: &Plan, s: usize, total: usize) -> Result<(f64, f64), String> {
    let recs = plan.records(s);
    let from = match plan.workload {
        Workload::DurableMonitor => total.saturating_sub(DURABLE_WINDOW),
        _ => 0,
    };
    let records = (from..total).map(|k| recs.record(k)).collect();
    let name = &plan.sessions[s].name;
    let trace = Trace::from_records(recs.schema.clone(), recs.space.clone(), records)
        .map_err(|e| format!("session {name}: offline trace: {e}"))?;
    let policy = LookupPolicy::constant(recs.space.clone(), plan.sessions[s].decision);
    let ips = Ips::new()
        .estimate(&trace, &policy)
        .map_err(|e| format!("session {name}: offline ips: {e}"))?;
    let dr = DoublyRobust::new(ConstantModel::new(MODEL_VALUE))
        .estimate(&trace, &policy)
        .map_err(|e| format!("session {name}: offline dr: {e}"))?;
    Ok((ips.value, dr.value))
}

/// Parity: every session's final served `ips` (and, where the bank has
/// it, `dr`) estimate must carry the same bits as the offline estimator
/// over the records the session was acknowledged for. `totals` maps
/// session to acknowledged records; `estimates` holds each session's
/// latest estimate response, which must have come after its last
/// ingest. Returns the number of sessions checked.
pub fn parity(
    plan: &Plan,
    estimates: &BTreeMap<usize, Json>,
    totals: &BTreeMap<usize, u64>,
) -> Result<usize, String> {
    let mut checked = 0;
    for (&s, &total) in totals {
        let name = &plan.sessions[s].name;
        let resp = estimates
            .get(&s)
            .ok_or_else(|| format!("session {name}: no estimate after its last ingest"))?;
        let n = resp.get("n").and_then(Json::as_u64);
        if n != Some(total) {
            return Err(format!(
                "session {name}: server counts {n:?} records, clients saw {total} acknowledged"
            ));
        }
        let (ips, dr) = offline(plan, s, total as usize)?;
        let served = |est: &str| {
            resp.get("estimates")
                .and_then(|e| e.get(est))
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64)
        };
        let mut wanted = vec![("ips", ips)];
        if plan.workload != Workload::ChattyJson {
            wanted.push(("dr", dr));
        }
        for (est, want) in wanted {
            let got = served(est)
                .ok_or_else(|| format!("session {name}: estimate lacks {est}: {resp}"))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "parity violated: session {name} {est} served {got:e} ({:#018x}), \
                     offline {want:e} ({:#018x}) over {total} records",
                    got.to_bits(),
                    want.to_bits()
                ));
            }
        }
        checked += 1;
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Sizes, Workload};

    fn served(ips: f64, dr: f64, n: u64) -> Json {
        Json::object(vec![
            ("ok", Json::Bool(true)),
            ("n", Json::Int(n as i64)),
            (
                "estimates",
                Json::object(vec![
                    ("ips", Json::object(vec![("value", Json::Num(ips))])),
                    ("dr", Json::object(vec![("value", Json::Num(dr))])),
                ]),
            ),
        ])
    }

    fn tiny_plan() -> Plan {
        let sizes = Sizes {
            standing: 0,
            churn: 0,
            churn_traces: 0,
            long_sessions: 2,
            base_records: 64,
        };
        Plan::build(Workload::BulkBinary, 9, sizes).unwrap()
    }

    #[test]
    fn exactly_once_trips_on_a_short_server_count() {
        assert!(exactly_once(4096, 4096).is_ok());
        let err = exactly_once(4095, 4096).unwrap_err();
        assert!(err.contains("exactly-once"), "{err}");
    }

    #[test]
    fn parity_passes_exact_bits_and_trips_on_one_flipped_bit() {
        let plan = tiny_plan();
        // 100 records: the stream wraps the 64 realized ones once.
        let total = 100u64;
        let (ips, dr) = offline(&plan, 0, total as usize).unwrap();
        let totals = BTreeMap::from([(0usize, total)]);
        let good = BTreeMap::from([(0usize, served(ips, dr, total))]);
        assert_eq!(parity(&plan, &good, &totals), Ok(1));

        let flipped = f64::from_bits(ips.to_bits() ^ 1);
        let bad = BTreeMap::from([(0usize, served(flipped, dr, total))]);
        let err = parity(&plan, &bad, &totals).unwrap_err();
        assert!(
            err.contains("parity violated") && err.contains("ips"),
            "{err}"
        );

        let flipped_dr = f64::from_bits(dr.to_bits() ^ 1);
        let bad = BTreeMap::from([(0usize, served(ips, flipped_dr, total))]);
        assert!(parity(&plan, &bad, &totals).unwrap_err().contains("dr"));

        // A server that counted one record short fails before any bits.
        let short = BTreeMap::from([(0usize, served(ips, dr, total - 1))]);
        assert!(parity(&plan, &short, &totals)
            .unwrap_err()
            .contains("counts"));

        let missing = BTreeMap::new();
        assert!(parity(&plan, &missing, &totals).is_err());
    }
}
