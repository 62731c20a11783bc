use graphs::{Graph, MaxCut};
use qsim::DiagonalObservable;

use crate::QaoaError;

/// Maximum graph size accepted for dense simulation (2^20 amplitudes).
pub const MAX_PROBLEM_NODES: usize = 20;

/// A MaxCut instance prepared for QAOA: the diagonal cost Hamiltonian
/// `C(z) = Σ_{(u,v)∈E} w·[z_u ≠ z_v]` plus the exact optimum used to compute
/// approximation ratios.
///
/// # Example
///
/// ```
/// use graphs::generators;
/// use qaoa::MaxCutProblem;
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let problem = MaxCutProblem::new(&generators::cycle(6))?;
/// assert_eq!(problem.optimal_cut(), 6.0);
/// assert_eq!(problem.n_qubits(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxCutProblem {
    graph: Graph,
    cost: DiagonalObservable,
    optimal_cut: f64,
}

impl MaxCutProblem {
    /// Prepares a graph for QAOA: builds the dense cost diagonal and solves
    /// MaxCut exactly.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::EmptyGraph`] if the graph has no edges (the objective
    ///   would be identically zero).
    /// * [`QaoaError::TooLarge`] beyond [`MAX_PROBLEM_NODES`] nodes.
    pub fn new(graph: &Graph) -> Result<Self, QaoaError> {
        if graph.is_empty() {
            return Err(QaoaError::EmptyGraph);
        }
        if graph.n_nodes() > MAX_PROBLEM_NODES {
            return Err(QaoaError::TooLarge {
                n_nodes: graph.n_nodes(),
                max: MAX_PROBLEM_NODES,
            });
        }
        let cost = DiagonalObservable::from_fn(graph.n_nodes(), |z| graph.cut_value(z));
        let optimal_cut = MaxCut::solve(graph).value();
        Ok(Self {
            graph: graph.clone(),
            cost,
            optimal_cut,
        })
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of qubits (= nodes).
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.graph.n_nodes()
    }

    /// The diagonal cost observable `C`.
    #[must_use]
    pub fn cost(&self) -> &DiagonalObservable {
        &self.cost
    }

    /// The exact maximum cut `C_max`.
    #[must_use]
    pub fn optimal_cut(&self) -> f64 {
        self.optimal_cut
    }

    /// Approximation ratio `⟨C⟩ / C_max` of an expectation value.
    ///
    /// The constructor guarantees `C_max > 0` (non-empty graph with positive
    /// weights); negative-weight graphs can yield `C_max = 0`, in which case
    /// `0.0` is returned to avoid division by zero.
    #[must_use]
    pub fn approximation_ratio(&self, expectation: f64) -> f64 {
        if self.optimal_cut <= 0.0 {
            0.0
        } else {
            expectation / self.optimal_cut
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;

    #[test]
    fn cost_diagonal_matches_cut_values() {
        let g = generators::cycle(4);
        let p = MaxCutProblem::new(&g).unwrap();
        for z in 0..16 {
            assert_eq!(p.cost().diagonal()[z], g.cut_value(z));
        }
        assert_eq!(p.cost().max(), p.optimal_cut());
    }

    #[test]
    fn ar_normalization() {
        let p = MaxCutProblem::new(&generators::path(3)).unwrap();
        assert_eq!(p.optimal_cut(), 2.0);
        assert_eq!(p.approximation_ratio(1.0), 0.5);
        assert_eq!(p.approximation_ratio(2.0), 1.0);
    }

    #[test]
    fn rejects_degenerate_graphs() {
        assert!(matches!(
            MaxCutProblem::new(&Graph::new(4)),
            Err(QaoaError::EmptyGraph)
        ));
        let big = generators::cycle(MAX_PROBLEM_NODES + 2);
        assert!(matches!(
            MaxCutProblem::new(&big),
            Err(QaoaError::TooLarge { .. })
        ));
    }

    #[test]
    fn cost_is_flip_symmetric_bitwise() {
        // `EvalContext` evolves half the register on the strength of
        // C(z) = C(z̄): the diagonal and its phase levels must agree bitwise
        // at every index and its complement, weighted or not.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for n in 2..=10 {
            let unweighted = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
            let mut weighted = Graph::new(n);
            for e in unweighted.edges() {
                weighted
                    .add_weighted_edge(e.u, e.v, rng.gen_range(0.1..3.0))
                    .unwrap();
            }
            for g in [unweighted, weighted] {
                let cost = MaxCutProblem::new(&g).unwrap().cost().clone();
                let mask = (1usize << n) - 1;
                for z in 0..=mask {
                    let (d, l) = (cost.diagonal(), cost.level_of());
                    assert_eq!(d[z].to_bits(), d[!z & mask].to_bits(), "n={n} z={z}");
                    assert_eq!(l[z], l[!z & mask], "n={n} z={z}");
                }
            }
        }
    }

    #[test]
    fn weighted_graph_cost() {
        let mut g = Graph::new(2);
        g.add_weighted_edge(0, 1, 3.5).unwrap();
        let p = MaxCutProblem::new(&g).unwrap();
        assert_eq!(p.optimal_cut(), 3.5);
        assert_eq!(p.cost().diagonal()[1], 3.5);
        assert_eq!(p.cost().diagonal()[0], 0.0);
    }
}
