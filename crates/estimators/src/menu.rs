//! The estimator registry: one table mapping each streaming estimator's
//! protocol name to its online and scalar constructors.
//!
//! Both front ends read [`MENU`] — `ddn serve` to build a session's bank
//! at `init`, `ddn evaluate`/`compare` to build the estimator they run —
//! so they accept the same names, and a name added here is served and
//! evaluated alike. Constructors take the reward model as an argument and
//! read every other knob from a [`MenuConfig`], whose provided methods
//! are the server's defaults.

use crate::online::{
    BoxModel, BoxPolicy, OnlineAdaptiveDr, OnlineAdaptiveIps, OnlineClippedIps, OnlineDm, OnlineDr,
    OnlineEstimator, OnlineIps, OnlineMarginalizedDr, OnlineSeqDr, OnlineSnips,
};
use crate::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, ClippedIps, DirectMethod,
    DoublyRobust, Estimator, EstimatorError, Ips, MarginalizedDr, SelfNormalizedIps, SeqDr,
};
use ddn_policy::UniformRandomPolicy;
use ddn_trace::DecisionSpace;

/// The clip threshold `clipped` uses unless configured otherwise.
pub const DEFAULT_MAX_WEIGHT: f64 = 10.0;

/// The knobs menu members read beyond the target policy and the reward
/// model. The provided methods are the server's defaults: clip 10,
/// horizon 1, identity embedding, uniform logging.
pub trait MenuConfig {
    /// Weight cap for `clipped`.
    fn max_weight(&self) -> f64 {
        DEFAULT_MAX_WEIGHT
    }

    /// Trajectory length for `seqdr`.
    fn horizon(&self) -> usize {
        1
    }

    /// Action embedding for `mdr`: one group per arm.
    fn embedding(&self, space: &DecisionSpace) -> ActionEmbedding {
        ActionEmbedding::identity(space.len())
    }

    /// Logging policy supplying `mdr`'s marginal denominators: uniform.
    /// Built only when an `mdr` is, so a bad logging spec fails only the
    /// banks that read it.
    fn logging(&self, space: &DecisionSpace) -> Result<BoxPolicy, String> {
        Ok(Box::new(UniformRandomPolicy::new(space.clone())))
    }
}

/// Every knob at the server's default.
pub struct Defaults;

impl MenuConfig for Defaults {}

/// A streaming estimator as a serving bank holds it.
pub type BoxOnline = Box<dyn OnlineEstimator + Send>;

/// A scalar estimator as a front end holds it.
pub type BoxScalar = Box<dyn Estimator + Send + Sync>;

/// One row of the registry.
pub struct MenuEntry {
    /// The protocol name (`--estimator`, the init request's list).
    pub name: &'static str,
    /// Whether the estimator reads each record's logged propensity.
    pub needs_propensity: bool,
    /// Builds the streaming estimator of a policy over a space.
    pub online:
        fn(DecisionSpace, BoxPolicy, BoxModel, &dyn MenuConfig) -> Result<BoxOnline, String>,
    /// Builds the scalar estimator for traces over a space.
    pub scalar: fn(&DecisionSpace, BoxModel, &dyn MenuConfig) -> Result<BoxScalar, String>,
}

fn boxed<E: OnlineEstimator + Send + 'static>(
    built: Result<E, EstimatorError>,
) -> Result<BoxOnline, String> {
    built
        .map(|e| Box::new(e) as BoxOnline)
        .map_err(|e| e.to_string())
}

/// The registry, in protocol order.
pub static MENU: &[MenuEntry] = &[
    MenuEntry {
        name: "ips",
        needs_propensity: true,
        online: |space, policy, _, _| boxed(OnlineIps::new(space, policy)),
        scalar: |_, _, _| Ok(Box::new(Ips::new())),
    },
    MenuEntry {
        name: "snips",
        needs_propensity: true,
        online: |space, policy, _, _| boxed(OnlineSnips::new(space, policy)),
        scalar: |_, _, _| Ok(Box::new(SelfNormalizedIps::new())),
    },
    MenuEntry {
        name: "clipped",
        needs_propensity: true,
        online: |space, policy, _, cfg| {
            boxed(OnlineClippedIps::new(space, policy, cfg.max_weight()))
        },
        scalar: |_, _, cfg| Ok(Box::new(ClippedIps::new(cfg.max_weight()))),
    },
    MenuEntry {
        name: "dm",
        needs_propensity: false,
        online: |space, policy, model, _| boxed(OnlineDm::new(space, policy, model)),
        scalar: |_, model, _| Ok(Box::new(DirectMethod::new(model))),
    },
    MenuEntry {
        name: "dr",
        needs_propensity: true,
        online: |space, policy, model, _| boxed(OnlineDr::new(space, policy, model)),
        scalar: |_, model, _| Ok(Box::new(DoublyRobust::new(model))),
    },
    MenuEntry {
        name: "adaptive",
        needs_propensity: true,
        online: |space, policy, _, _| {
            boxed(OnlineAdaptiveIps::new(
                space,
                policy,
                AdaptiveWeights::Stabilized,
            ))
        },
        scalar: |_, _, _| Ok(Box::new(AdaptiveIps::new(AdaptiveWeights::Stabilized))),
    },
    MenuEntry {
        name: "adaptive_dr",
        needs_propensity: true,
        online: |space, policy, model, _| {
            boxed(OnlineAdaptiveDr::new(
                space,
                policy,
                model,
                AdaptiveWeights::Stabilized,
            ))
        },
        scalar: |_, model, _| {
            Ok(Box::new(AdaptiveDr::new(
                model,
                AdaptiveWeights::Stabilized,
            )))
        },
    },
    // Marginalized DR prices records off the declared logging policy's
    // marginals, never the recorded propensity.
    MenuEntry {
        name: "mdr",
        needs_propensity: false,
        online: |space, policy, model, cfg| {
            let (logging, embedding) = (cfg.logging(&space)?, cfg.embedding(&space));
            boxed(OnlineMarginalizedDr::new(
                space, policy, logging, model, embedding,
            ))
        },
        scalar: |space, model, cfg| {
            let (logging, embedding) = (cfg.logging(space)?, cfg.embedding(space));
            Ok(Box::new(MarginalizedDr::new(model, embedding, logging)))
        },
    },
    MenuEntry {
        name: "seqdr",
        needs_propensity: true,
        online: |space, policy, model, cfg| {
            boxed(OnlineSeqDr::new(space, policy, model, cfg.horizon()))
        },
        scalar: |_, model, cfg| Ok(Box::new(SeqDr::new(model, cfg.horizon()))),
    },
];

/// The registry row for `name`.
pub fn lookup(name: &str) -> Option<&'static MenuEntry> {
    MENU.iter().find(|e| e.name == name)
}

/// The registry's names as a `|`-separated list, for error messages.
pub fn names() -> String {
    MENU.iter().map(|e| e.name).collect::<Vec<_>>().join("|")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_name_is_one_row() {
        for e in MENU {
            assert!(std::ptr::eq(lookup(e.name).unwrap(), e), "{}", e.name);
        }
        assert!(
            lookup("matching").is_none(),
            "matching has no streaming form"
        );
    }
}
