//! # ddn-stats — statistics substrate for trace-driven evaluation
//!
//! This crate provides every piece of statistical machinery the rest of the
//! workspace needs, implemented from scratch so that the reproduction of
//! *Biases in Data-Driven Networking, and What to Do About Them*
//! (HotNets '17) has no opaque numerical dependencies:
//!
//! - [`rng`] — deterministic, seedable pseudo-random number generators
//!   (SplitMix64 and xoshiro256\*\*). Every simulator in the workspace is a
//!   pure function of its seed, which is what makes the paper's
//!   "mean/min/max over 50 runs" experiments exactly reproducible.
//! - [`dist`] — samplers for the distributions the synthetic workloads use
//!   (normal, log-normal, exponential, Pareto, categorical, …).
//! - [`summary`] — streaming moments (Welford), quantiles, and the
//!   min/mean/max error reports that Figure 7 of the paper plots.
//! - [`bootstrap`] — percentile bootstrap confidence intervals for
//!   estimator outputs.
//! - [`changepoint`] — PELT change-point detection for
//!   self-induced system-state changes (paper §4.3, refs \[23, 26\]).
//! - [`linalg`] — small dense matrix helpers (Cholesky solve) backing the
//!   hand-rolled ridge regression in `ddn-models`.
//! - [`json`] — a minimal JSON document model, parser and writer; the
//!   workspace builds hermetically with zero crates.io dependencies, so
//!   trace persistence and bench telemetry serialize through this module
//!   instead of serde.
//!
//! Nothing here is networking-specific; the crate is the "math library"
//! substrate named in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod changepoint;
pub mod dist;
pub mod json;
pub mod linalg;
pub mod rng;
pub mod series;
pub mod summary;
pub mod ttest;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use changepoint::{pelt, CostModel, Penalty};
pub use dist::{
    Bernoulli, Categorical, Distribution, Exponential, LogNormal, Normal, Pareto, Uniform,
};
pub use json::{Json, JsonError};
pub use linalg::{Matrix, Vector};
pub use rng::{Rng, SplitMix64, Xoshiro256};
pub use series::{pearson, spearman, Ewma};
pub use summary::{quantile, ErrorReport, Histogram, Summary, Welford};
pub use ttest::{paired_t_test, welch_t_test, TTest};
