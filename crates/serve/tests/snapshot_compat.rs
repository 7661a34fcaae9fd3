//! Snapshot compatibility: a session snapshot written by an older engine
//! must restore bit-identically.
//!
//! `data/snapshot_8aebbcb.json` was written by `Engine::state_save` at
//! commit 8aebbcb, when each online estimator was still its own struct.
//! It holds two sessions over a 3-arm space:
//!
//! - `menu`: every registry name at once under a uniform target policy
//!   (model 1.1, clip 3, embedding `[0,1,1]`, SeqDR horizon 3), 119
//!   records in three sequenced batches — so SeqDR is mid-trajectory and
//!   the dedup state is live;
//! - `windowed`: `ips,snips` over a 16-record window after 40 records.
//!
//! Alongside the state it stores the `estimate` responses that engine
//! returned, then one more batch per session and the responses after it.
//! Restoring the state and replaying that batch must reproduce every
//! response byte for byte.

use ddn_serve::Engine;
use ddn_stats::Json;
use ddn_trace::TraceRecord;

const FIXTURE: &str = include_str!("data/snapshot_8aebbcb.json");

fn records(v: &Json) -> Vec<TraceRecord> {
    v.as_array()
        .expect("record array")
        .iter()
        .map(|r| TraceRecord::from_json(r).expect("fixture record"))
        .collect()
}

#[test]
fn older_snapshot_restores_bit_identically() {
    let fixture = Json::parse(FIXTURE).expect("fixture parses");
    let mut engine = Engine::new();
    let restored = engine
        .restore_sessions(fixture.get("state").unwrap())
        .expect("older snapshot restores");
    assert_eq!(restored, 2);

    for id in ["menu", "windowed"] {
        let want = fixture.get("estimates").and_then(|e| e.get(id)).unwrap();
        assert_eq!(
            engine.handle_estimate(id).to_string(),
            want.to_string(),
            "{id}: restored estimate differs"
        );
    }

    // Continue both streams: the restored state (SeqDR's pending steps,
    // the sequence number, the window) must carry on as the old engine
    // did.
    let more = fixture.get("more").unwrap();
    let resp = engine.handle_ingest("menu", &records(more.get("menu").unwrap()), Some(3));
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    let resp = engine.handle_ingest("windowed", &records(more.get("windowed").unwrap()), None);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    for id in ["menu", "windowed"] {
        let want = fixture.get("continued").and_then(|e| e.get(id)).unwrap();
        assert_eq!(
            engine.handle_estimate(id).to_string(),
            want.to_string(),
            "{id}: estimate after continuing differs"
        );
    }

    // And the state it saves now is the state the old engine saved.
    let mut again = Engine::new();
    again
        .restore_sessions(fixture.get("state").unwrap())
        .unwrap();
    assert_eq!(
        again.state_save().to_string(),
        fixture.get("state").unwrap().to_string(),
        "re-saved state differs from the older engine's"
    );
}
