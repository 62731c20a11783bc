//! Evaluation scenarios: one switch selecting *how* a QAOA objective is
//! evaluated — exactly, from finite measurement shots, or under a per-gate
//! depolarizing noise model — behind a single instance type the drivers and
//! the engine can thread through every protocol.
//!
//! Each variant stays a pure function of `(problem, depth, scenario,
//! base_seed)`: the sampled path derives its shot RNG schedule and its SPSA
//! perturbation seed from `base_seed` (domain-separated), and the noisy
//! path is deterministic outright. That is what lets scenario workloads run
//! through `engine::batch`/`compare` with the serial ≡ parallel bit-parity
//! guarantee unchanged.
//!
//! # Example
//!
//! ```
//! use graphs::generators;
//! use optimize::{Lbfgsb, Options};
//! use qaoa::{scenario::{Scenario, ScenarioInstance}, MaxCutProblem};
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let problem = MaxCutProblem::new(&generators::cycle(4))?;
//! let scenario = Scenario::Sampled { shots: 1024 };
//! let inst = ScenarioInstance::new(problem, 1, &scenario, 2020)?;
//! let out = inst.optimize(
//!     &Lbfgsb::default(), // ignored: sampled scenarios always run SPSA
//!     &[0.7, 0.4],
//!     &Options::default().with_max_iters(40),
//! )?;
//! assert!(out.approximation_ratio > 0.0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use optimize::{Fallible, Optimizer, Options, Spsa};
use qsim::NoiseModel;
use rand::Rng;

use crate::instance::{best_of_starts, minimize, InstanceOutcome};
use crate::noisy::NoisyQaoa;
use crate::sampled::SampledExpectation;
use crate::stablehash::mix64;
use crate::{MaxCutProblem, QaoaError, QaoaInstance};

/// Domain separators so the shot schedule and the SPSA perturbation stream
/// derived from one job seed never collide.
const SHOT_DOMAIN: u64 = 0x5348_4f54_5348_4f54; // "SHOTSHOT"
const SPSA_DOMAIN: u64 = 0x5350_5341_5350_5341; // "SPSASPSA"

/// How a QAOA objective evaluation is performed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Exact state-vector expectation (the paper's setting).
    Exact,
    /// Finite-shot estimation of `⟨C⟩`: each objective evaluation draws
    /// `shots` basis states from the Born distribution. Optimized with
    /// SPSA.
    Sampled {
        /// Measurement shots per objective evaluation.
        shots: u32,
    },
    /// Density-matrix evaluation with uniform depolarizing noise after
    /// every gate.
    Noisy {
        /// Depolarizing probability after each one-qubit gate.
        p1: f64,
        /// Depolarizing probability after each two-qubit gate.
        p2: f64,
    },
}

impl Scenario {
    /// `true` for the exact (noiseless, infinite-shot) scenario.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        matches!(self, Scenario::Exact)
    }

    /// Checks the configuration without building anything.
    ///
    /// # Errors
    ///
    /// [`QaoaError::InvalidScenario`] for zero shots or a noise probability
    /// outside `[0, 1]` (or non-finite).
    pub fn validate(&self) -> Result<(), QaoaError> {
        match *self {
            Scenario::Exact => Ok(()),
            Scenario::Sampled { shots } => {
                if shots == 0 {
                    return Err(QaoaError::InvalidScenario {
                        reason: "sampled objective needs at least one shot",
                    });
                }
                Ok(())
            }
            Scenario::Noisy { p1, p2 } => {
                if !(p1.is_finite()
                    && p2.is_finite()
                    && (0.0..=1.0).contains(&p1)
                    && (0.0..=1.0).contains(&p2))
                {
                    return Err(QaoaError::InvalidScenario {
                        reason: "noise probabilities must be finite and within [0, 1]",
                    });
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::Exact => write!(f, "exact"),
            Scenario::Sampled { shots } => write!(f, "shots={shots}"),
            Scenario::Noisy { p1, p2 } => write!(f, "noise={p1},{p2}"),
        }
    }
}

/// A depth-`p` QAOA instance evaluated under a [`Scenario`].
///
/// For [`Scenario::Exact`] this is exactly a [`QaoaInstance`] — same
/// objective, same RNG consumption, bit-identical outcomes — so threading a
/// `ScenarioInstance` through an existing protocol changes nothing when the
/// scenario is exact.
#[derive(Debug)]
pub struct ScenarioInstance {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Exact(QaoaInstance),
    Sampled {
        objective: SampledExpectation,
        spsa: Spsa,
    },
    Noisy(NoisyQaoa),
}

impl ScenarioInstance {
    /// Builds the scenario-specific instance.
    ///
    /// `base_seed` feeds only the stochastic scenarios (shot RNG schedule
    /// and SPSA perturbations, domain-separated); exact and noisy
    /// evaluations are deterministic and ignore it.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] for `depth == 0`.
    /// * [`QaoaError::InvalidScenario`] for an invalid configuration.
    /// * [`QaoaError::TooLarge`] if a noisy scenario exceeds the
    ///   density-matrix register cap.
    pub fn new(
        problem: MaxCutProblem,
        depth: usize,
        scenario: &Scenario,
        base_seed: u64,
    ) -> Result<Self, QaoaError> {
        scenario.validate()?;
        let inner = match *scenario {
            Scenario::Exact => Inner::Exact(QaoaInstance::new(problem, depth)?),
            Scenario::Sampled { shots } => Inner::Sampled {
                objective: SampledExpectation::new(
                    problem,
                    depth,
                    shots,
                    mix64(base_seed ^ SHOT_DOMAIN),
                )?,
                spsa: Spsa::default().with_seed(mix64(base_seed ^ SPSA_DOMAIN)),
            },
            Scenario::Noisy { p1, p2 } => Inner::Noisy(NoisyQaoa::new(
                problem,
                depth,
                NoiseModel::uniform_depolarizing(p1, p2)?,
            )?),
        };
        Ok(Self { inner })
    }

    /// The underlying problem.
    #[must_use]
    pub fn problem(&self) -> &MaxCutProblem {
        match &self.inner {
            Inner::Exact(i) => i.problem(),
            Inner::Sampled { objective, .. } => objective.ansatz().problem(),
            Inner::Noisy(n) => n.ansatz().problem(),
        }
    }

    /// Circuit depth `p`.
    #[must_use]
    pub fn depth(&self) -> usize {
        match &self.inner {
            Inner::Exact(i) => i.depth(),
            Inner::Sampled { objective, .. } => objective.depth(),
            Inner::Noisy(n) => n.depth(),
        }
    }

    /// One local optimization from `initial`, every objective evaluation
    /// counted as one QC call.
    ///
    /// Exact and noisy scenarios run `optimizer`; sampled scenarios always
    /// run the seeded SPSA instead (finite-difference or adjoint gradients
    /// are meaningless on a stochastic objective). A sampled outcome's
    /// `expectation` and `approximation_ratio` are judged on the **exact**
    /// expectation at the returned point, so rows remain comparable with
    /// the noiseless Table-I protocol; a noisy outcome reports the noisy
    /// energy it reached. A failed evaluation is returned as its
    /// [`QaoaError`], never a panic.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::ParameterCount`] on a parameter-length mismatch.
    /// * Evaluation and optimizer errors from the scenario path.
    pub fn optimize(
        &self,
        optimizer: &dyn Optimizer,
        initial: &[f64],
        options: &Options,
    ) -> Result<InstanceOutcome, QaoaError> {
        match &self.inner {
            Inner::Exact(i) => i.optimize(optimizer, initial, options),
            Inner::Sampled { objective, spsa } => {
                let ansatz = objective.ansatz();
                let evaluate = |x: &[f64]| objective.estimate(x).map(|e| -e);
                let mut out = minimize(ansatz, spsa, &Fallible::new(&evaluate), initial, options)?;
                out.expectation = ansatz.expectation(&out.params)?;
                out.approximation_ratio = ansatz.problem().approximation_ratio(out.expectation);
                Ok(out)
            }
            Inner::Noisy(n) => {
                let evaluate = |x: &[f64]| n.expectation(x).map(|e| -e);
                minimize(
                    n.ansatz(),
                    optimizer,
                    &Fallible::new(&evaluate),
                    initial,
                    options,
                )
            }
        }
    }

    /// The multistart protocol under this scenario: `n_starts` runs from
    /// uniformly random initializations drawn from `rng` (the same draw
    /// sequence as [`QaoaInstance::optimize_multistart`] — an exact
    /// scenario reproduces it bit-for-bit), best outcome with summed call
    /// counts.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidScenario`] if `n_starts == 0`.
    /// * Evaluation or optimizer errors from any start.
    pub fn optimize_multistart<R: Rng + ?Sized>(
        &self,
        optimizer: &dyn Optimizer,
        n_starts: usize,
        rng: &mut R,
        options: &Options,
    ) -> Result<InstanceOutcome, QaoaError> {
        best_of_starts(self.depth(), n_starts, rng, |start| {
            self.optimize(optimizer, start, options)
        })
    }

    /// The exact (noiseless, infinite-shot) expectation at `params` — the
    /// common yardstick all scenarios are judged against.
    ///
    /// # Errors
    ///
    /// [`QaoaError::ParameterCount`] on a parameter-length mismatch.
    pub fn exact_expectation(&self, params: &[f64]) -> Result<f64, QaoaError> {
        match &self.inner {
            Inner::Exact(i) => i.ansatz().expectation(params),
            Inner::Sampled { objective, .. } => objective.ansatz().expectation(params),
            Inner::Noisy(n) => n.ansatz().expectation(params),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::Lbfgsb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn problem() -> MaxCutProblem {
        MaxCutProblem::new(&generators::cycle(5)).unwrap()
    }

    #[test]
    fn display_labels() {
        assert_eq!(Scenario::Exact.to_string(), "exact");
        assert_eq!(Scenario::Sampled { shots: 256 }.to_string(), "shots=256");
        assert_eq!(
            Scenario::Noisy {
                p1: 0.002,
                p2: 0.02
            }
            .to_string(),
            "noise=0.002,0.02"
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(Scenario::Exact.validate().is_ok());
        assert!(Scenario::Sampled { shots: 1 }.validate().is_ok());
        assert!(Scenario::Sampled { shots: 0 }.validate().is_err());
        assert!(Scenario::Noisy { p1: 0.0, p2: 1.0 }.validate().is_ok());
        for (p1, p2) in [(-0.1, 0.0), (0.0, 1.5), (f64::NAN, 0.0)] {
            assert!(
                Scenario::Noisy { p1, p2 }.validate().is_err(),
                "({p1}, {p2}) accepted"
            );
        }
    }

    #[test]
    fn exact_scenario_matches_plain_instance_bit_for_bit() {
        let opts = Options::default();
        let si = ScenarioInstance::new(problem(), 2, &Scenario::Exact, 77).unwrap();
        let qi = QaoaInstance::new(problem(), 2).unwrap();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let a = si
            .optimize_multistart(&Lbfgsb::default(), 3, &mut rng_a, &opts)
            .unwrap();
        let b = qi
            .optimize_multistart(&Lbfgsb::default(), 3, &mut rng_b, &opts)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_scenario_is_seed_deterministic() {
        let scenario = Scenario::Sampled { shots: 128 };
        let opts = Options::default().with_max_iters(25);
        let run = |seed: u64| {
            let si = ScenarioInstance::new(problem(), 1, &scenario, seed).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            si.optimize_multistart(&Lbfgsb::default(), 2, &mut rng, &opts)
                .unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        let c = run(43);
        assert_ne!(a.params, c.params, "base seed must matter");
    }

    #[test]
    fn noisy_scenario_runs_and_degrades_energy() {
        let scenario = Scenario::Noisy {
            p1: 0.002,
            p2: 0.02,
        };
        let si = ScenarioInstance::new(problem(), 1, &scenario, 0).unwrap();
        let params = [0.9, 0.35];
        let exact = si.exact_expectation(&params).unwrap();
        let out = si
            .optimize(
                &optimize::NelderMead::default(),
                &params,
                &Options::default().with_max_iters(60),
            )
            .unwrap();
        assert!(out.function_calls > 0);
        // The noisy optimum energy sits below the noiseless ceiling.
        assert!(out.expectation <= si.problem().optimal_cut() + 1e-9);
        let _ = exact;
    }

    #[test]
    fn zero_starts_rejected_for_every_scenario() {
        for scenario in [
            Scenario::Exact,
            Scenario::Sampled { shots: 16 },
            Scenario::Noisy { p1: 0.0, p2: 0.0 },
        ] {
            let si = ScenarioInstance::new(problem(), 1, &scenario, 1).unwrap();
            let mut rng = StdRng::seed_from_u64(0);
            assert!(matches!(
                si.optimize_multistart(&Lbfgsb::default(), 0, &mut rng, &Options::default()),
                Err(QaoaError::InvalidScenario { .. })
            ));
        }
    }

    #[test]
    fn oversized_noisy_graph_rejected() {
        let big = MaxCutProblem::new(&generators::cycle(qsim::MAX_DM_QUBITS + 1)).unwrap();
        assert!(matches!(
            ScenarioInstance::new(big, 1, &Scenario::Noisy { p1: 0.0, p2: 0.0 }, 0),
            Err(QaoaError::TooLarge { .. })
        ));
    }
}
