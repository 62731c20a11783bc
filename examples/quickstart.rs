//! Quickstart: solve a MaxCut instance with plain QAOA.
//!
//! Builds a small random graph, runs the depth-2 QAOA optimization loop
//! with L-BFGS-B from random initializations, and reports the cut found.
//!
//! Run: `cargo run --release -p qaoa --example quickstart`

use graphs::{generators, MaxCut};
use optimize::{Lbfgsb, Options};
use qaoa::{MaxCutProblem, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A problem graph: 8 nodes from the paper's Erdős–Rényi ensemble.
    let graph = generators::erdos_renyi_nonempty(8, 0.5, &mut rng);
    println!("graph: {graph}");
    let exact = MaxCut::solve(&graph);
    println!("exact MaxCut: {}", exact.value());

    // 2. Prepare the QAOA instance (depth 2 = 4 parameters).
    let problem = MaxCutProblem::new(&graph)?;
    let instance = QaoaInstance::new(problem, 2)?;

    // 3. The closed optimization loop: simulator <-> classical optimizer.
    let outcome = instance.optimize_multistart(
        &Lbfgsb::default(),
        10, // random initializations
        &mut rng,
        &Options::default(),
    )?;

    println!("best expectation <C>: {:.4}", outcome.expectation);
    println!("approximation ratio : {:.4}", outcome.approximation_ratio);
    println!("function calls      : {}", outcome.function_calls);
    println!("gammas: {:?}", outcome.gammas());
    println!("betas : {:?}", outcome.betas());

    // 4. Read out a concrete cut by sampling the optimized circuit.
    let ansatz = instance.ansatz();
    let state = ansatz.state_gate_level(&outcome.params)?;
    let samples = qsim::sample_counts(&state, 512, &mut rng)?;
    let (best_state, _) = samples
        .iter()
        .max_by_key(|(&z, &c)| (c, z))
        .expect("non-empty sample");
    println!(
        "most frequent measured cut: {:#010b} with value {}",
        best_state,
        instance.problem().graph().cut_value(*best_state)
    );
    Ok(())
}
