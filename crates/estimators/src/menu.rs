//! The estimator registry: one table mapping each streaming estimator's
//! protocol name to the member a served [`crate::Bank`] builds for it and to its
//! scalar constructor.
//!
//! Both front ends read [`MENU`] — `ddn serve` to build a session's bank
//! at `init`, `ddn evaluate`/`compare` to build the estimator they run —
//! so they accept the same names, and a name added here is served and
//! evaluated alike. Scalar constructors take the reward model as an
//! argument; a bank takes its target policy's probabilities and its
//! constant model's value (see [`crate::Bank::new`]). Both read every other knob
//! from a [`MenuConfig`], whose provided methods are the server's
//! defaults.

use crate::online::{BoxModel, Kind};
use crate::{
    ActionEmbedding, AdaptiveDr, AdaptiveIps, AdaptiveWeights, ClippedIps, DirectMethod,
    DoublyRobust, Estimator, Ips, MarginalizedDr, SelfNormalizedIps, SeqDr,
};
use ddn_policy::Policy;
use ddn_trace::{Context, Decision, DecisionSpace};

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

    /// The logging policy supplying `mdr`'s marginal denominators, as its
    /// probability of each arm, the same for every context: uniform.
    /// Asked for only when an `mdr` is built, so a bad logging spec fails
    /// only the banks that read it.
    fn logging(&self, space: &DecisionSpace) -> Result<Vec<f64>, String> {
        Ok(uniform(space))
    }
}

/// The uniform policy's probability of each arm of `space`: the `1/K`
/// that `UniformRandomPolicy::prob` returns.
pub fn uniform(space: &DecisionSpace) -> Vec<f64> {
    vec![1.0 / space.len() as f64; space.len()]
}

/// Every knob at the server's default.
pub struct Defaults;

impl MenuConfig for Defaults {}

/// A scalar estimator as a front end holds it.
pub type BoxScalar = Box<dyn Estimator + Send + Sync>;

/// One row of the registry.
pub struct MenuEntry {
    /// The protocol name (`--estimator`, the init request's list).
    pub name: &'static str,
    /// Whether the estimator reads each record's logged propensity.
    pub needs_propensity: bool,
    /// The member a served bank builds for this name.
    pub(crate) kind: Kind,
    /// Builds the scalar estimator for traces over a space.
    pub scalar: fn(&DecisionSpace, BoxModel, &dyn MenuConfig) -> Result<BoxScalar, String>,
}

/// A policy with the same probabilities for every context: the scalar
/// `mdr`'s logging policy, from [`MenuConfig::logging`].
struct Fixed {
    space: DecisionSpace,
    probs: Vec<f64>,
}

impl Policy for Fixed {
    fn space(&self) -> &DecisionSpace {
        &self.space
    }

    fn prob(&self, _ctx: &Context, d: Decision) -> f64 {
        self.probs[d.index()]
    }
}

/// The registry, in protocol order.
pub static MENU: &[MenuEntry] = &[
    MenuEntry {
        name: "ips",
        needs_propensity: true,
        kind: Kind::Ips,
        scalar: |_, _, _| Ok(Box::new(Ips::new())),
    },
    MenuEntry {
        name: "snips",
        needs_propensity: true,
        kind: Kind::Snips,
        scalar: |_, _, _| Ok(Box::new(SelfNormalizedIps::new())),
    },
    MenuEntry {
        name: "clipped",
        needs_propensity: true,
        kind: Kind::Clipped,
        scalar: |_, _, cfg| Ok(Box::new(ClippedIps::new(cfg.max_weight()))),
    },
    MenuEntry {
        name: "dm",
        needs_propensity: false,
        kind: Kind::Dm,
        scalar: |_, model, _| Ok(Box::new(DirectMethod::new(model))),
    },
    MenuEntry {
        name: "dr",
        needs_propensity: true,
        kind: Kind::Dr,
        scalar: |_, model, _| Ok(Box::new(DoublyRobust::new(model))),
    },
    MenuEntry {
        name: "adaptive",
        needs_propensity: true,
        kind: Kind::Adaptive,
        scalar: |_, _, _| Ok(Box::new(AdaptiveIps::new(AdaptiveWeights::Stabilized))),
    },
    MenuEntry {
        name: "adaptive_dr",
        needs_propensity: true,
        kind: Kind::AdaptiveDr,
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
        kind: Kind::Mdr,
        scalar: |space, model, cfg| {
            let (probs, embedding) = (cfg.logging(space)?, cfg.embedding(space));
            let logging = Box::new(Fixed {
                space: space.clone(),
                probs,
            });
            Ok(Box::new(MarginalizedDr::new(model, embedding, logging)))
        },
    },
    MenuEntry {
        name: "seqdr",
        needs_propensity: true,
        kind: Kind::SeqDr,
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
