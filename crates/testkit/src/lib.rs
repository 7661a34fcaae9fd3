//! # ddn-testkit — deterministic property-based testing
//!
//! A small proptest-style framework with zero dependencies outside this
//! workspace, built on the `ddn-stats` RNG substrate so that every property
//! draws the same cases on every platform and every run (the same
//! determinism contract the paper's 50-run experiments rely on).
//!
//! ## Worked example
//!
//! ```
//! use ddn_testkit::{prop, prop_assert, prop_assert_eq, vecs};
//!
//! fn total(xs: &[f64]) -> f64 { xs.iter().sum() }
//!
//! prop! {
//!     // Each `name in generator` binding draws one input per case;
//!     // `0.0..10.0f64` IS the generator (ranges implement `Gen`).
//!     fn sum_is_order_independent(xs in vecs(0.0..10.0f64, 1..20)) {
//!         let mut reversed = xs.clone();
//!         reversed.reverse();
//!         prop_assert!((total(&xs) - total(&reversed)).abs() < 1e-9);
//!         prop_assert_eq!(xs.len(), reversed.len());
//!     }
//! }
//! // `cargo test` picks up `sum_is_order_independent` like any `#[test]`.
//! ```
//!
//! Each property runs [`DEFAULT_CASES`](runner::DEFAULT_CASES) cases
//! (override with `DDN_TESTKIT_CASES`) from a fixed seed (override with
//! `DDN_TESTKIT_SEED`). On failure the input is shrunk to a minimal
//! counterexample and reported with a reproduction hint.
//!
//! ## Vocabulary
//!
//! - Generators: numeric `Range`s, tuples of generators, [`vecs`],
//!   [`strings_from`], [`just`], [`map`] — see [`gen`].
//! - Assertions inside `prop!`: [`prop_assert!`], [`prop_assert_eq!`],
//!   [`prop_assert_ne!`], and [`prop_assume!`] for preconditions.
//! - Escape hatch: [`check`] / [`check_with`] take a generator and a
//!   closure returning [`TestResult`] when the macro form is too rigid.
//! - Concurrency: [`explore::explore`] walks every interleaving of a
//!   [`explore::Model`]'s thread steps and prints the first schedule that
//!   breaks a property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod explore;
pub mod fault;
pub mod gen;
pub mod runner;

pub use composite::{composite_scenarios, CompositeScenario, CompositeScenarioGen};
pub use fault::{
    fault_plans, lifecycle_plans, Dir, FaultCounts, FaultCursor, FaultEvent, FaultKind, FaultPlan,
    FaultPlanConfig, FaultPlanGen, IoDecision, KillRestart, LifecycleDriver, LifecyclePlan,
    LifecyclePlanConfig, LifecyclePlanGen,
};
pub use gen::{just, map, strings_from, vecs, Gen, JustGen, MapGen, StringGen, VecGen};
pub use runner::{check, check_with, Config, TestResult, DEFAULT_CASES, DEFAULT_SEED};

/// Defines `#[test]` functions that check properties over generated inputs.
///
/// Each `fn name(arg in generator, ...) { body }` item expands to a test
/// that runs the body against [`runner::Config::default`]-many generated
/// cases; the body uses [`prop_assert!`]-family macros (or plain panics —
/// they are caught and shrunk too).
#[macro_export]
macro_rules! prop {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $gen:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            let __gen = ($($gen,)+);
            $crate::check(
                concat!(module_path!(), "::", stringify!($name)),
                &__gen,
                |__value: &_| {
                    let ($($arg,)+) = ::std::clone::Clone::clone(__value);
                    $body
                    #[allow(unreachable_code)]
                    $crate::TestResult::Pass
                },
            );
        }
    )+};
}

/// Asserts a condition inside a [`prop!`] body; on failure the case is
/// reported (and shrunk) instead of aborting the whole test process.
#[macro_export]
macro_rules! prop_assert {
    // `if $cond {} else` rather than `if !$cond`: negating a float
    // comparison reads as its opposite, which it is not for NaN.
    ($cond:expr $(,)?) => {
        if $cond {
        } else {
            return $crate::TestResult::fail(format!(
                "assertion failed: `{}` at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return $crate::TestResult::fail(format!(
                "assertion failed: `{}` at {}:{}: {}",
                stringify!($cond),
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts two expressions compare equal inside a [`prop!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if !(*__l == *__r) {
                    return $crate::TestResult::fail(format!(
                        "assertion failed: `{} == {}` at {}:{}\n  left: {:?}\n right: {:?}",
                        stringify!($left),
                        stringify!($right),
                        file!(),
                        line!(),
                        __l,
                        __r
                    ));
                }
            }
        }
    };
}

/// Asserts two expressions compare unequal inside a [`prop!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (__l, __r) => {
                if *__l == *__r {
                    return $crate::TestResult::fail(format!(
                        "assertion failed: `{} != {}` at {}:{}\n  both: {:?}",
                        stringify!($left),
                        stringify!($right),
                        file!(),
                        line!(),
                        __l
                    ));
                }
            }
        }
    };
}

/// Discards the current case when a precondition does not hold; the runner
/// draws a replacement input (bounded by a discard limit).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return $crate::TestResult::Discard;
        }
    };
}

#[cfg(test)]
mod macro_tests {
    // `#[macro_export]` macros are textually in scope; only `vecs` needs
    // importing.
    use crate::vecs;

    prop! {
        fn addition_commutes(a in 0u32..1_000, b in 0u32..1_000) {
            prop_assert_eq!(a + b, b + a);
        }

        fn assume_filters_inputs(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0, "assume should have filtered odd {}", x);
        }

        fn single_binding_works(xs in vecs(0.0..1.0f64, 1..10)) {
            prop_assert!(!xs.is_empty());
            prop_assert_ne!(xs.len(), 0);
        }

        fn trailing_comma_accepted(x in 0u32..3,) {
            prop_assert!(x < 3);
        }
    }
}
