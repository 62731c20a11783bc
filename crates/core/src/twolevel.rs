use optimize::{Optimizer, Options};
use rand::Rng;

use crate::scenario::{Scenario, ScenarioInstance};
use crate::stablehash::mix64;
use crate::{InstanceOutcome, MaxCutProblem, ParameterPredictor, QaoaError, QaoaInstance};

/// Domain separators for the level-1 and level-2 scenario seeds, so the two
/// levels of one run never share a shot schedule.
const LEVEL1_DOMAIN: u64 = 0x4c45_5645_4c31; // "LEVEL1"
const LEVEL2_DOMAIN: u64 = 0x4c45_5645_4c32; // "LEVEL2"

/// Configuration of the two-level flow.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelConfig {
    /// Random initializations for the level-1 (`p = 1`) optimization.
    /// The paper treats level 1 as a single cheap random-init run; raise
    /// this for a more robust (but costlier) depth-1 optimum.
    pub level1_starts: usize,
    /// Optimizer options for both levels (paper: ftol 1e-6).
    pub options: Options,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        Self {
            level1_starts: 1,
            options: Options::default(),
        }
    }
}

/// Outcome of one two-level run.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelOutcome {
    /// Final parameters at the target depth.
    pub params: Vec<f64>,
    /// Final expectation `⟨C⟩`.
    pub expectation: f64,
    /// Final approximation ratio.
    pub approximation_ratio: f64,
    /// Function calls spent on level 1 (`p = 1`, random init).
    pub level1_calls: usize,
    /// Function calls spent on intermediate levels (hierarchical runs only).
    pub intermediate_calls: usize,
    /// Function calls spent on level 2 (target depth, ML init).
    pub level2_calls: usize,
    /// Analytic gradient evaluations (`njev`) across all levels; 0 for
    /// gradient-free optimizers.
    pub gradient_calls: usize,
    /// The ML-predicted initial parameters that seeded level 2.
    pub predicted_init: Vec<f64>,
}

impl TwoLevelOutcome {
    /// Total function calls — the paper's cost metric for the proposed flow
    /// (level-1 + intermediate + level-2 calls).
    #[must_use]
    pub fn total_calls(&self) -> usize {
        self.level1_calls + self.intermediate_calls + self.level2_calls
    }

    /// The outcome of a level-1 run and a level-2 run seeded by
    /// `predicted_init`, with no intermediate level.
    pub(crate) fn assemble(
        level1: &InstanceOutcome,
        level2: InstanceOutcome,
        predicted_init: Vec<f64>,
    ) -> Self {
        Self {
            params: level2.params,
            expectation: level2.expectation,
            approximation_ratio: level2.approximation_ratio,
            level1_calls: level1.function_calls,
            intermediate_calls: 0,
            level2_calls: level2.function_calls,
            gradient_calls: level1.gradient_calls + level2.gradient_calls,
            predicted_init,
        }
    }
}

/// The proposed two-level QAOA implementation flow (Fig. 4).
///
/// Level 1 optimizes the cheap `p = 1` instance from random initialization;
/// the trained [`ParameterPredictor`] maps `(γ₁OPT, β₁OPT, pt)` to tuned
/// initial parameters; level 2 runs the target-depth instance from that
/// initialization with a local optimizer.
///
/// # Example
///
/// ```no_run
/// use graphs::generators;
/// use ml::ModelKind;
/// use optimize::Lbfgsb;
/// use qaoa::datagen::{DataGenConfig, ParameterDataset};
/// use qaoa::{MaxCutProblem, ParameterPredictor, TwoLevelConfig, TwoLevelFlow};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let corpus = ParameterDataset::generate(&DataGenConfig::quick())?;
/// let predictor = ParameterPredictor::train(ModelKind::Gpr, &corpus)?;
/// let flow = TwoLevelFlow::new(&predictor);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let problem = MaxCutProblem::new(&generators::cycle(6))?;
/// let out = flow.run(&problem, 3, &Lbfgsb::default(), &TwoLevelConfig::default(), &mut rng)?;
/// assert!(out.total_calls() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TwoLevelFlow<'a> {
    predictor: &'a ParameterPredictor,
}

impl<'a> TwoLevelFlow<'a> {
    /// Wraps a trained predictor.
    #[must_use]
    pub fn new(predictor: &'a ParameterPredictor) -> Self {
        Self { predictor }
    }

    /// The wrapped predictor.
    #[must_use]
    pub fn predictor(&self) -> &ParameterPredictor {
        self.predictor
    }

    /// Runs the two-level flow for `problem` at `target_depth`.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] if the target depth exceeds the
    ///   predictor's training depth.
    /// * Instance/optimizer errors from either level.
    pub fn run<R: Rng + ?Sized>(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        config: &TwoLevelConfig,
        rng: &mut R,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        self.run_scenario(
            problem,
            target_depth,
            optimizer,
            config,
            rng,
            &Scenario::Exact,
            0,
        )
    }

    /// Runs the flow's second level from an **already-computed** depth-1
    /// optimum — the entry point the parallel engine uses when its
    /// isomorphism cache already holds the level-1 solution for this
    /// graph's canonical class, so the `p = 1` optimization is skipped
    /// entirely.
    ///
    /// `level1.function_calls` is carried into the outcome's
    /// `level1_calls`; pass an outcome with zeroed calls to account a
    /// cache hit as free.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] if the target depth exceeds the
    ///   predictor's training depth.
    /// * Instance/optimizer errors from level 2.
    pub fn run_with_level1(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        config: &TwoLevelConfig,
        level1: &InstanceOutcome,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        let level2 = ScenarioInstance::new(problem.clone(), target_depth, &Scenario::Exact, 0)?;
        self.level2(&level2, optimizer, &config.options, level1)
    }

    /// Runs the two-level flow with every objective evaluation performed
    /// under `scenario` — level 1 and level 2 both pay the scenario's cost
    /// (sampled or decohered evaluations), which is the point of the
    /// noisy Table-I question.
    ///
    /// `base_seed` feeds the stochastic scenarios, domain-separated per
    /// level. [`TwoLevelFlow::run`] is this flow under [`Scenario::Exact`],
    /// where the seed is unused.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] if the target depth exceeds the
    ///   predictor's training depth.
    /// * Scenario construction, evaluation, or optimizer errors from
    ///   either level.
    #[allow(clippy::too_many_arguments)]
    pub fn run_scenario<R: Rng + ?Sized>(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        config: &TwoLevelConfig,
        rng: &mut R,
        scenario: &Scenario,
        base_seed: u64,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        // Level 1: cheap p = 1 optimization from random init, under the
        // scenario.
        let level1 = ScenarioInstance::new(
            problem.clone(),
            1,
            scenario,
            mix64(base_seed ^ LEVEL1_DOMAIN),
        )?;
        let l1 =
            level1.optimize_multistart(optimizer, config.level1_starts, rng, &config.options)?;

        // Level 2 at the target depth, under the scenario.
        let level2 = ScenarioInstance::new(
            problem.clone(),
            target_depth,
            scenario,
            mix64(base_seed ^ LEVEL2_DOMAIN),
        )?;
        self.level2(&level2, optimizer, &config.options, &l1)
    }

    /// Runs the hierarchical variant (§I(d)): level 1 at `p = 1`, an
    /// intermediate optimization at the predictor's intermediate depth
    /// (itself ML-initialized through a two-level companion predictor), then
    /// the target depth seeded by the hierarchical predictor.
    ///
    /// `two_level` supplies the intermediate initialization; `self` must be
    /// a hierarchical predictor.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::Ml`] if `self` is not hierarchical.
    /// * Depth/instance/optimizer errors from any level.
    pub fn run_hierarchical<R: Rng + ?Sized>(
        &self,
        two_level: &ParameterPredictor,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        config: &TwoLevelConfig,
        rng: &mut R,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        let Some(pm) = self.predictor.intermediate_depth() else {
            return Err(QaoaError::Ml(ml::MlError::ShapeMismatch {
                expected: 6,
                actual: 3,
                what: "features (run_hierarchical needs a hierarchical predictor)",
            }));
        };

        // Level 1.
        let level1 = QaoaInstance::new(problem.clone(), 1)?;
        let l1 =
            level1.optimize_multistart(optimizer, config.level1_starts, rng, &config.options)?;

        // Intermediate level at pm, ML-initialized via the two-level model.
        let l1_canon = crate::canonical::canonicalize_packed(&l1.params);
        let mid_init = two_level.predict(l1_canon[0], l1_canon[1], pm)?;
        let mid_instance = QaoaInstance::new(problem.clone(), pm)?;
        let mid = mid_instance.optimize(optimizer, &mid_init, &config.options)?;
        let mid_canon = crate::canonical::canonicalize_packed(&mid.params);

        // Target level with hierarchical features.
        let init = self.predictor.predict_hierarchical(
            l1_canon[0],
            l1_canon[1],
            mid_canon[0],
            mid_canon[pm],
            target_depth,
        )?;
        let level2 = QaoaInstance::new(problem.clone(), target_depth)?;
        let l2 = level2.optimize(optimizer, &init, &config.options)?;

        let mut outcome = TwoLevelOutcome::assemble(&l1, l2, init);
        outcome.intermediate_calls = mid.function_calls;
        outcome.gradient_calls += mid.gradient_calls;
        Ok(outcome)
    }

    /// Level 2 of the flow: folds the level-1 optimum into the canonical
    /// symmetry domain (the corpus the predictor was trained on), predicts
    /// tuned initial parameters at `instance`'s depth and optimizes from
    /// them.
    fn level2(
        &self,
        instance: &ScenarioInstance,
        optimizer: &dyn Optimizer,
        options: &Options,
        level1: &InstanceOutcome,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        let l1_canon = crate::canonical::canonicalize_packed(&level1.params);
        let init = self
            .predictor
            .predict(l1_canon[0], l1_canon[1], instance.depth())?;
        let l2 = instance.optimize(optimizer, &init, options)?;
        Ok(TwoLevelOutcome::assemble(level1, l2, init))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{DataGenConfig, ParameterDataset};
    use graphs::generators;
    use ml::ModelKind;
    use optimize::Lbfgsb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus() -> ParameterDataset {
        ParameterDataset::generate(&DataGenConfig {
            n_graphs: 6,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 3,
            seed: 5,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        })
        .unwrap()
    }

    #[test]
    fn two_level_produces_valid_outcome() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = flow
            .run(
                &problem,
                2,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.params.len(), 4);
        assert_eq!(out.predicted_init.len(), 4);
        assert!(out.level1_calls > 0);
        assert!(out.level2_calls > 0);
        assert_eq!(out.intermediate_calls, 0);
        assert_eq!(out.total_calls(), out.level1_calls + out.level2_calls);
        assert!(out.approximation_ratio > 0.6);
        assert!((0.0..=1.0 + 1e-9).contains(&out.approximation_ratio));
    }

    #[test]
    fn run_matches_hand_composed_two_level_flow() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let config = TwoLevelConfig::default();
        let out = flow
            .run(
                &problem,
                2,
                &Lbfgsb::default(),
                &config,
                &mut StdRng::seed_from_u64(2),
            )
            .unwrap();

        // Reference: Fig. 4 composed by hand from plain instances — level-1
        // multistart, prediction from the canonicalized optimum, level-2
        // local run from the prediction.
        let l1 = QaoaInstance::new(problem.clone(), 1)
            .unwrap()
            .optimize_multistart(
                &Lbfgsb::default(),
                config.level1_starts,
                &mut StdRng::seed_from_u64(2),
                &config.options,
            )
            .unwrap();
        let canon = crate::canonical::canonicalize_packed(&l1.params);
        let init = predictor.predict(canon[0], canon[1], 2).unwrap();
        let l2 = QaoaInstance::new(problem, 2)
            .unwrap()
            .optimize(&Lbfgsb::default(), &init, &config.options)
            .unwrap();

        assert_eq!(out.params, l2.params);
        assert_eq!(out.expectation, l2.expectation);
        assert_eq!(out.approximation_ratio, l2.approximation_ratio);
        assert_eq!(out.level1_calls, l1.function_calls);
        assert_eq!(out.intermediate_calls, 0);
        assert_eq!(out.level2_calls, l2.function_calls);
        assert_eq!(out.gradient_calls, l1.gradient_calls + l2.gradient_calls);
        assert_eq!(out.predicted_init, init);
    }

    #[test]
    fn sampled_scenario_run_is_seed_deterministic() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let config = TwoLevelConfig {
            level1_starts: 1,
            options: Options::default().with_max_iters(20),
        };
        let run = |base: u64| {
            flow.run_scenario(
                &problem,
                2,
                &Lbfgsb::default(),
                &config,
                &mut StdRng::seed_from_u64(3),
                &Scenario::Sampled { shots: 64 },
                base,
            )
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b);
        assert!(a.total_calls() > 0);
    }

    #[test]
    fn target_depth_beyond_training_rejected() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(4)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            flow.run(
                &problem,
                9,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng
            ),
            Err(QaoaError::InvalidDepth { depth: 9 })
        ));
    }

    #[test]
    fn hierarchical_run_accumulates_intermediate_cost() {
        let ds = corpus();
        let two_level = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let hier = ParameterPredictor::train_hierarchical(ModelKind::Linear, &ds, 2).unwrap();
        let flow = TwoLevelFlow::new(&hier);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let out = flow
            .run_hierarchical(
                &two_level,
                &problem,
                3,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert!(out.intermediate_calls > 0);
        assert_eq!(
            out.total_calls(),
            out.level1_calls + out.intermediate_calls + out.level2_calls
        );
        // Running the plain entry point with a hierarchical predictor fails.
        assert!(flow
            .run(
                &problem,
                3,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng
            )
            .is_err());
    }
}
