//! Non-homogeneous Poisson arrival processes with diurnal rate profiles.
//!
//! Paper §4.1: "we want to evaluate the performance of a server selection
//! logic during peak hours, but the trace we have was collected during
//! early morning hours." To reproduce that mismatch we need arrival
//! processes whose intensity depends on the time of day.

use ddn_stats::rng::Rng;

/// A time-varying arrival rate λ(t) in requests/second.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Constant rate.
    Constant(f64),
    /// Sinusoidal diurnal profile:
    /// `λ(t) = base · (1 + amplitude · sin(2π t / period − phase))`,
    /// clamped at zero. `period` is the day length in simulation seconds.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Relative swing in `\[0, 1\]`.
        amplitude: f64,
        /// Day length in seconds.
        period: f64,
        /// Phase offset in radians.
        phase: f64,
    },
    /// Piecewise-constant rate: `(until_time, rate)` segments in ascending
    /// order; the last segment extends to infinity.
    Piecewise(Vec<(f64, f64)>),
}

impl RateProfile {
    /// The instantaneous rate at time `t`.
    ///
    /// # Panics
    /// Panics (in debug) on malformed piecewise segments.
    pub fn rate(&self, t: f64) -> f64 {
        match self {
            RateProfile::Constant(r) => *r,
            RateProfile::Diurnal {
                base,
                amplitude,
                period,
                phase,
            } => {
                let s = (std::f64::consts::TAU * t / period - phase).sin();
                (base * (1.0 + amplitude * s)).max(0.0)
            }
            RateProfile::Piecewise(segs) => {
                for &(until, rate) in segs {
                    if t < until {
                        return rate;
                    }
                }
                segs.last().map(|&(_, r)| r).unwrap_or(0.0)
            }
        }
    }

    /// An upper bound on the rate over all time (for thinning).
    fn max_rate(&self) -> f64 {
        match self {
            RateProfile::Constant(r) => *r,
            RateProfile::Diurnal {
                base, amplitude, ..
            } => base * (1.0 + amplitude),
            RateProfile::Piecewise(segs) => segs.iter().map(|&(_, r)| r).fold(0.0, f64::max),
        }
    }

    /// Checks the profile parameters, returning a user-facing message on
    /// the first violation. Library callers that reached this profile from
    /// untrusted input (the `ddn loadgen` CLI) surface the message as a
    /// usage error instead of aborting the process.
    pub fn check(&self) -> Result<(), String> {
        fn ensure(ok: bool, msg: &str) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(msg.to_string())
            }
        }
        match self {
            RateProfile::Constant(r) => {
                ensure(r.is_finite() && *r > 0.0, "constant rate must be positive")
            }
            RateProfile::Diurnal {
                base,
                amplitude,
                period,
                ..
            } => {
                ensure(
                    base.is_finite() && *base > 0.0,
                    "base rate must be positive",
                )?;
                ensure(
                    (0.0..=1.0).contains(amplitude),
                    "amplitude must be in [0,1]",
                )?;
                ensure(
                    period.is_finite() && *period > 0.0,
                    "period must be positive",
                )
            }
            RateProfile::Piecewise(segs) => {
                ensure(!segs.is_empty(), "piecewise profile needs segments")?;
                let mut last = f64::NEG_INFINITY;
                for &(until, rate) in segs {
                    ensure(until > last, "piecewise segments must be ascending")?;
                    ensure(
                        rate.is_finite() && rate >= 0.0,
                        "rates must be non-negative",
                    )?;
                    last = until;
                }
                ensure(
                    segs.iter().any(|&(_, r)| r > 0.0),
                    "piecewise profile must have a positive-rate segment",
                )
            }
        }
    }

    /// Validates the profile parameters.
    ///
    /// # Panics
    /// Panics on non-positive base rates, amplitude outside `\[0,1\]`,
    /// non-positive period, or unordered piecewise segments. Use
    /// [`RateProfile::check`] to get the violation as an error instead.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }
}

/// Generator of arrival timestamps from a [`RateProfile`], using Lewis–
/// Shedler thinning against the profile's max rate.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    profile: RateProfile,
    t: f64,
}

impl ArrivalProcess {
    /// Creates a process starting at time 0.
    ///
    /// # Panics
    /// Panics if the profile is invalid.
    pub fn new(profile: RateProfile) -> Self {
        profile.validate();
        Self { profile, t: 0.0 }
    }

    /// The next arrival time (advances the internal clock).
    pub fn next_arrival(&mut self, rng: &mut dyn Rng) -> f64 {
        let lam_max = self.profile.max_rate();
        loop {
            // Candidate from the homogeneous dominating process.
            let mut u = rng.next_f64();
            while u <= f64::MIN_POSITIVE {
                u = rng.next_f64();
            }
            self.t += -u.ln() / lam_max;
            // Thin.
            if rng.next_f64() * lam_max < self.profile.rate(self.t) {
                return self.t;
            }
        }
    }

    /// Generates all arrivals in `[0, horizon)`.
    pub fn arrivals_until(&mut self, horizon: f64, rng: &mut dyn Rng) -> Vec<f64> {
        let mut out = Vec::new();
        loop {
            let t = self.next_arrival(rng);
            if t >= horizon {
                break;
            }
            out.push(t);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddn_stats::rng::Xoshiro256;

    #[test]
    fn constant_rate_count_matches() {
        let mut p = ArrivalProcess::new(RateProfile::Constant(5.0));
        let mut g = Xoshiro256::seed_from(1);
        let arr = p.arrivals_until(10_000.0, &mut g);
        let rate = arr.len() as f64 / 10_000.0;
        assert!((rate - 5.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increasing() {
        let mut p = ArrivalProcess::new(RateProfile::Constant(100.0));
        let mut g = Xoshiro256::seed_from(2);
        let arr = p.arrivals_until(100.0, &mut g);
        for w in arr.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn diurnal_peak_denser_than_trough() {
        let profile = RateProfile::Diurnal {
            base: 10.0,
            amplitude: 0.8,
            period: 86_400.0,
            phase: 0.0,
        };
        let mut p = ArrivalProcess::new(profile.clone());
        let mut g = Xoshiro256::seed_from(3);
        let arr = p.arrivals_until(86_400.0, &mut g);
        // Peak quarter-day (centered at period/4) vs trough (3·period/4).
        let peak = arr
            .iter()
            .filter(|&&t| (10_800.0..32_400.0).contains(&t))
            .count();
        let trough = arr
            .iter()
            .filter(|&&t| (54_000.0..75_600.0).contains(&t))
            .count();
        assert!(
            peak as f64 > 3.0 * trough as f64,
            "peak {peak} should far exceed trough {trough}"
        );
        // Instantaneous rates.
        assert!((profile.rate(21_600.0) - 18.0).abs() < 1e-9);
        assert!((profile.rate(64_800.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_profile_switches_rate() {
        let profile = RateProfile::Piecewise(vec![(100.0, 1.0), (200.0, 20.0)]);
        assert_eq!(profile.rate(50.0), 1.0);
        assert_eq!(profile.rate(150.0), 20.0);
        assert_eq!(profile.rate(500.0), 20.0); // extends past the end
        let mut p = ArrivalProcess::new(profile);
        let mut g = Xoshiro256::seed_from(4);
        let arr = p.arrivals_until(200.0, &mut g);
        let early = arr.iter().filter(|&&t| t < 100.0).count();
        let late = arr.iter().filter(|&&t| t >= 100.0).count();
        assert!(late > 10 * early, "late {late} vs early {early}");
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let mut p = ArrivalProcess::new(RateProfile::Constant(3.0));
            let mut g = Xoshiro256::seed_from(9);
            p.arrivals_until(100.0, &mut g)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn bad_piecewise_panics() {
        let _ = ArrivalProcess::new(RateProfile::Piecewise(vec![(10.0, 1.0), (5.0, 2.0)]));
    }

    #[test]
    fn check_returns_errors_instead_of_panicking() {
        assert!(RateProfile::Constant(5.0).check().is_ok());
        let err = RateProfile::Constant(-1.0).check().unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = RateProfile::Piecewise(vec![(10.0, 1.0), (5.0, 2.0)])
            .check()
            .unwrap_err();
        assert!(err.contains("ascending"), "{err}");
        let err = RateProfile::Diurnal {
            base: 10.0,
            amplitude: 1.5,
            period: 100.0,
            phase: 0.0,
        }
        .check()
        .unwrap_err();
        assert!(err.contains("amplitude"), "{err}");
        let err = RateProfile::Piecewise(vec![(10.0, 0.0)])
            .check()
            .unwrap_err();
        assert!(err.contains("positive-rate"), "{err}");
    }
}
