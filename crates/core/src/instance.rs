use std::cell::RefCell;

use optimize::{Fallible, Objective, Optimizer, Options, Termination};
use rand::Rng;

use crate::{eval, parameter_bounds, MaxCutProblem, QaoaAnsatz, QaoaError};

/// Outcome of optimizing one QAOA instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceOutcome {
    /// Best parameters found, `[γ₁…γ_p, β₁…β_p]`.
    pub params: Vec<f64>,
    /// Best expectation `⟨C⟩`.
    pub expectation: f64,
    /// Approximation ratio `⟨C⟩ / C_max` — the paper's quality metric.
    pub approximation_ratio: f64,
    /// Total objective evaluations (`nfev`) — the paper's cost metric
    /// (QC calls).
    pub function_calls: usize,
    /// Analytic adjoint-gradient evaluations (`njev`) consumed by
    /// gradient-based optimizers; 0 for gradient-free methods.
    pub gradient_calls: usize,
    /// Termination reason of the (best) run.
    pub termination: Termination,
}

impl InstanceOutcome {
    /// The γ parameters (first half of `params`).
    #[must_use]
    pub fn gammas(&self) -> &[f64] {
        &self.params[..self.params.len() / 2]
    }

    /// The β parameters (second half of `params`).
    #[must_use]
    pub fn betas(&self) -> &[f64] {
        &self.params[self.params.len() / 2..]
    }
}

/// A QAOA instance: the closed loop of Fig. 1(a)/(d) — quantum simulator in,
/// classical optimizer out — at a fixed circuit depth.
///
/// The optimizer **minimizes** `−⟨C⟩`; every objective evaluation is one
/// "QC call".
///
/// # Example
///
/// ```
/// use graphs::Graph;
/// use optimize::NelderMead;
/// use qaoa::{MaxCutProblem, QaoaInstance};
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let g = Graph::from_edges(2, &[(0, 1)])?;
/// let instance = QaoaInstance::new(MaxCutProblem::new(&g)?, 1)?;
/// let out = instance.optimize(&NelderMead::default(), &[1.0, 1.0], &Default::default())?;
/// assert!(out.approximation_ratio > 0.9); // p=1 solves the single edge exactly
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QaoaInstance {
    ansatz: QaoaAnsatz,
}

impl QaoaInstance {
    /// Creates an instance of depth `p` for `problem`.
    ///
    /// # Errors
    ///
    /// Returns [`QaoaError::InvalidDepth`] for `p = 0`.
    pub fn new(problem: MaxCutProblem, depth: usize) -> Result<Self, QaoaError> {
        Ok(Self {
            ansatz: QaoaAnsatz::new(problem, depth)?,
        })
    }

    /// The underlying ansatz.
    #[must_use]
    pub fn ansatz(&self) -> &QaoaAnsatz {
        &self.ansatz
    }

    /// The underlying problem.
    #[must_use]
    pub fn problem(&self) -> &MaxCutProblem {
        self.ansatz.problem()
    }

    /// Circuit depth `p`.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.ansatz.depth()
    }

    /// Runs one local optimization from `initial` parameters.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::ParameterCount`] if `initial` has the wrong length.
    /// * Optimizer errors ([`QaoaError::Optimizer`]).
    pub fn optimize(
        &self,
        optimizer: &dyn Optimizer,
        initial: &[f64],
        options: &Options,
    ) -> Result<InstanceOutcome, QaoaError> {
        // Negate: the optimizer minimizes, QAOA maximizes ⟨C⟩. The
        // objective carries the exact adjoint gradient, so gradient-based
        // optimizers (L-BFGS-B, SLSQP) skip their finite-difference probes;
        // evaluations run in the worker thread's cached EvalContext.
        let objective = NegatedAnsatz {
            ansatz: &self.ansatz,
            error: RefCell::new(None),
        };
        minimize(&self.ansatz, optimizer, &objective, initial, options)
    }

    /// The paper's "naive" protocol: `n_starts` local runs from uniformly
    /// random initializations; returns the best outcome with the **summed**
    /// function calls of all starts (the total loop-iteration cost).
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidScenario`] if `n_starts == 0`.
    /// * Optimizer errors from any start.
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
}

/// An objective that hands the optimizer `NaN` for a failed evaluation and
/// keeps the first error for the caller, as [`Fallible`] does.
pub(crate) trait FallibleObjective: Objective {
    /// Removes and returns the first captured evaluation error.
    fn take_error(&self) -> Option<QaoaError>;
}

impl FallibleObjective for Fallible<'_, QaoaError> {
    fn take_error(&self) -> Option<QaoaError> {
        Fallible::take_error(self)
    }
}

/// One local run of `objective` (which minimizes `−⟨C⟩`) over `ansatz`'s
/// parameter box from `initial` — the closed loop of Fig. 1 that every
/// scenario runs through. The outcome's expectation is `−fx`.
///
/// # Errors
///
/// * [`QaoaError::ParameterCount`] if `initial` has the wrong length.
/// * Optimizer errors, then the first evaluation error of any probe.
pub(crate) fn minimize(
    ansatz: &QaoaAnsatz,
    optimizer: &dyn Optimizer,
    objective: &impl FallibleObjective,
    initial: &[f64],
    options: &Options,
) -> Result<InstanceOutcome, QaoaError> {
    if initial.len() != ansatz.n_parameters() {
        return Err(QaoaError::ParameterCount {
            expected: ansatz.n_parameters(),
            actual: initial.len(),
        });
    }
    let bounds = parameter_bounds(ansatz.depth())?;
    let result = optimizer.minimize_objective(objective, initial, &bounds, options)?;
    if let Some(err) = objective.take_error() {
        return Err(err);
    }
    let expectation = -result.fx;
    Ok(InstanceOutcome {
        approximation_ratio: ansatz.problem().approximation_ratio(expectation),
        params: result.x,
        expectation,
        function_calls: result.n_calls,
        gradient_calls: result.n_grad_calls,
        termination: result.termination,
    })
}

/// The multistart protocol over any local run: `n_starts` starts drawn
/// uniformly from the depth-`depth` parameter box, the best outcome by
/// `expectation`, with the function and gradient calls of all starts
/// summed.
///
/// # Errors
///
/// * [`QaoaError::InvalidScenario`] if `n_starts == 0`.
/// * The first error of any start.
pub(crate) fn best_of_starts<R: Rng + ?Sized>(
    depth: usize,
    n_starts: usize,
    rng: &mut R,
    run: impl Fn(&[f64]) -> Result<InstanceOutcome, QaoaError>,
) -> Result<InstanceOutcome, QaoaError> {
    let bounds = parameter_bounds(depth)?;
    let mut best: Option<InstanceOutcome> = None;
    let mut total_calls = 0usize;
    let mut total_grad_calls = 0usize;
    for _ in 0..n_starts {
        let outcome = run(&bounds.sample(rng))?;
        total_calls += outcome.function_calls;
        total_grad_calls += outcome.gradient_calls;
        if best
            .as_ref()
            .is_none_or(|b| outcome.expectation > b.expectation)
        {
            best = Some(outcome);
        }
    }
    let mut best = best.ok_or(QaoaError::InvalidScenario {
        reason: "multistart needs at least one start",
    })?;
    best.function_calls = total_calls;
    best.gradient_calls = total_grad_calls;
    Ok(best)
}

/// The minimized objective `−⟨C⟩` with its exact adjoint gradient, evaluated
/// in the calling thread's cached [`EvalContext`](crate::EvalContext).
struct NegatedAnsatz<'a> {
    ansatz: &'a QaoaAnsatz,
    error: RefCell<Option<QaoaError>>,
}

impl NegatedAnsatz<'_> {
    /// `−⟨C⟩` for a successful evaluation; `NaN` for a failed one, whose
    /// error is kept if it is the first.
    fn negated(&self, evaluation: Result<f64, QaoaError>) -> f64 {
        match evaluation {
            Ok(e) => -e,
            Err(err) => {
                self.error.borrow_mut().get_or_insert(err);
                f64::NAN
            }
        }
    }
}

impl Objective for NegatedAnsatz<'_> {
    fn value(&self, x: &[f64]) -> f64 {
        self.negated(self.ansatz.expectation(x))
    }

    fn value_and_grad(&self, x: &[f64], grad: &mut [f64]) -> Option<f64> {
        let e = eval::with_thread_context(self.ansatz.problem().n_qubits(), |ctx| {
            self.ansatz.expectation_and_grad_in(ctx, x, grad)
        });
        for g in grad.iter_mut() {
            *g = -*g;
        }
        Some(self.negated(e))
    }
}

impl FallibleObjective for NegatedAnsatz<'_> {
    fn take_error(&self) -> Option<QaoaError> {
        self.error.borrow_mut().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::{generators, Graph};
    use optimize::{Cobyla, Lbfgsb, NelderMead, Slsqp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn single_edge_instance(p: usize) -> QaoaInstance {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        QaoaInstance::new(MaxCutProblem::new(&g).unwrap(), p).unwrap()
    }

    #[test]
    fn p1_single_edge_all_optimizers_reach_optimum() {
        // The p=1 landscape for one edge has max ⟨C⟩ = 1 at (π/2, π/4).
        let instance = single_edge_instance(1);
        let mut rng = StdRng::seed_from_u64(3);
        for opt in optimize::all_optimizers() {
            let out = instance
                .optimize_multistart(opt.as_ref(), 5, &mut rng, &Options::default())
                .unwrap();
            assert!(
                out.approximation_ratio > 0.999,
                "{}: AR = {}",
                opt.name(),
                out.approximation_ratio
            );
            assert!(out.function_calls > 0);
        }
    }

    #[test]
    fn ar_improves_with_depth_on_odd_cycle() {
        // C5 is not solved exactly at p=1; AR must not decrease with p.
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut prev_ar = 0.0;
        for p in 1..=3 {
            let inst = QaoaInstance::new(problem.clone(), p).unwrap();
            let out = inst
                .optimize_multistart(&Lbfgsb::default(), 8, &mut rng, &Options::default())
                .unwrap();
            assert!(
                out.approximation_ratio >= prev_ar - 0.02,
                "p={p}: AR {} < previous {prev_ar}",
                out.approximation_ratio
            );
            prev_ar = out.approximation_ratio;
        }
        assert!(prev_ar > 0.85, "p=3 AR on C5 = {prev_ar}");
    }

    #[test]
    fn outcome_accessors() {
        let instance = single_edge_instance(2);
        let out = instance
            .optimize(
                &NelderMead::default(),
                &[1.0, 1.0, 0.5, 0.5],
                &Options::default(),
            )
            .unwrap();
        assert_eq!(out.gammas().len(), 2);
        assert_eq!(out.betas().len(), 2);
        assert_eq!(out.params.len(), 4);
    }

    #[test]
    fn multistart_accumulates_calls() {
        let instance = single_edge_instance(1);
        let mut rng = StdRng::seed_from_u64(9);
        let one = instance
            .optimize_multistart(&Slsqp::default(), 1, &mut rng, &Options::default())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let five = instance
            .optimize_multistart(&Slsqp::default(), 5, &mut rng, &Options::default())
            .unwrap();
        assert!(five.function_calls > one.function_calls);
    }

    #[test]
    fn zero_starts_is_an_error_not_a_panic() {
        let instance = single_edge_instance(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            instance.optimize_multistart(&Lbfgsb::default(), 0, &mut rng, &Options::default()),
            Err(QaoaError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn wrong_parameter_count_rejected() {
        let instance = single_edge_instance(2);
        assert!(matches!(
            instance.optimize(&Cobyla::default(), &[0.5], &Options::default()),
            Err(QaoaError::ParameterCount { .. })
        ));
    }

    #[test]
    fn deterministic_under_seed() {
        let instance = single_edge_instance(1);
        let a = instance
            .optimize_multistart(
                &NelderMead::default(),
                3,
                &mut StdRng::seed_from_u64(1),
                &Options::default(),
            )
            .unwrap();
        let b = instance
            .optimize_multistart(
                &NelderMead::default(),
                3,
                &mut StdRng::seed_from_u64(1),
                &Options::default(),
            )
            .unwrap();
        assert_eq!(a.params, b.params);
        assert_eq!(a.function_calls, b.function_calls);
    }
}
