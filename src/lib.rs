//! # ddn — Doubly Robust trace-driven evaluation for data-driven networking
//!
//! Facade crate re-exporting the whole workspace: a production-quality Rust
//! reproduction of *Biases in Data-Driven Networking, and What to Do About
//! Them* (Bartulovic, Jiang, Balakrishnan, Sekar, Sinopoli — HotNets '17).
//!
//! ## The problem
//!
//! Networked systems increasingly pick policies (CDN selection, bitrate
//! adaptation, relay routing, …) by *trace-driven evaluation*: replaying
//! logged client/decision/reward tuples to predict how a **new** policy
//! would have performed. Done naively this is biased (the logging policy
//! skewed which decisions appear in the trace) or high-variance (matching
//! estimators find few overlapping records).
//!
//! ## The fix
//!
//! The **Doubly Robust (DR) estimator** combines a reward model (Direct
//! Method) with importance weighting (Inverse Propensity Scoring) so the
//! estimate is accurate whenever *either* component is — the "second-order
//! bias" property. This workspace implements DM, IPS, SNIPS, DR and the
//! paper's networking-specific extensions (non-stationary replay,
//! state-aware DR, coupling detection), plus every simulator needed to
//! regenerate the paper's Figure 7 and a battery of ablations.
//!
//! ## Quick start
//!
//! ```
//! use ddn::prelude::*;
//!
//! // A tiny world: two decisions, reward depends on the decision only.
//! let space = DecisionSpace::new(vec!["cdn-a".into(), "cdn-b".into()]);
//! let schema = ContextSchema::builder().numeric("rtt_ms").build();
//!
//! // Log a trace under a uniformly random old policy.
//! let old = UniformRandomPolicy::new(space.clone());
//! let mut rng = Xoshiro256::seed_from(7);
//! let mut records = Vec::new();
//! for i in 0..200 {
//!     let ctx = Context::build(&schema).set_numeric("rtt_ms", 20.0 + (i % 30) as f64).finish();
//!     let (d, p) = old.sample_with_prob(&ctx, &mut rng);
//!     let reward = if d.index() == 0 { 1.0 } else { 0.5 };
//!     records.push(TraceRecord::new(ctx, d, reward).with_propensity(p));
//! }
//! let trace = Trace::from_records(schema, space.clone(), records).unwrap();
//!
//! // Evaluate a new deterministic policy ("always cdn-a") three ways.
//! let new_policy = LookupPolicy::constant(space.clone(), 0);
//! let model = TabularMeanModel::fit_trace(&trace, 0.0);
//! let dm = DirectMethod::new(model.clone());
//! let ips = Ips::new();
//! let dr = DoublyRobust::new(model);
//!
//! let v_dm = dm.estimate(&trace, &new_policy).unwrap().value;
//! let v_ips = ips.estimate(&trace, &new_policy).unwrap().value;
//! let v_dr = dr.estimate(&trace, &new_policy).unwrap().value;
//! for v in [v_dm, v_ips, v_dr] {
//!     assert!((v - 1.0).abs() < 0.15, "estimate {v} far from truth 1.0");
//! }
//! ```
//!
//! See `examples/` for realistic end-to-end scenarios and
//! `ddn-scenarios` for the paper's experiments.

#![forbid(unsafe_code)]

pub use ddn_abr as abr;
pub use ddn_cdn as cdn;
pub use ddn_estimators as estimators;
pub use ddn_loadgen as loadgen;
pub use ddn_models as models;
pub use ddn_netsim as netsim;
pub use ddn_policy as policy;
pub use ddn_relay as relay;
pub use ddn_scenarios as scenarios;
pub use ddn_serve as serve;
pub use ddn_stats as stats;
pub use ddn_telemetry as telemetry;
pub use ddn_trace as trace;

/// Convenient glob-import surface covering the common workflow:
/// build/ingest a trace, define policies, fit a reward model, estimate.
pub mod prelude {
    pub use ddn_estimators::{
        DirectMethod, DoublyRobust, Estimate, Estimator, Ips, SelfNormalizedIps,
    };
    pub use ddn_models::{RewardModel, TabularMeanModel};
    pub use ddn_policy::{LookupPolicy, Policy, UniformRandomPolicy};
    pub use ddn_stats::{Rng, Xoshiro256};
    pub use ddn_trace::{Context, ContextSchema, Decision, DecisionSpace, Trace, TraceRecord};
}
