//! Fig. 3: across-depth trends in the optimal control parameters of a single
//! 3-regular graph — for a fixed stage i, γᵢOPT decreases as the circuit
//! depth p grows while βᵢOPT increases.
//!
//! Optima are produced by multistart at `p = 1` and the INTERP chain above
//! (Zhou et al., the paper's ref \[5\]) and displayed without symmetry
//! folding, the same protocol as the `fig2` binary.
//!
//! Run: `cargo run --release -p bench --bin fig3 [-- --quick]`

use bench::RunConfig;
use graphs::generators;
use optimize::{Lbfgsb, Options};
use qaoa::datagen::interp_resample;
use qaoa::{MaxCutProblem, QaoaInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let config = RunConfig::from_env();
    let max_depth = if config.quick { 3 } else { 5 };
    let nodes = config.nodes.max(4);
    let degree = 3.min(nodes - 1);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let graph = generators::random_regular(nodes, degree, &mut rng).expect("valid regular params");
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let optimizer = Lbfgsb::default();
    let options = Options::default();

    println!(
        "# Fig 3: optimal gamma_i / beta_i vs depth p, one {degree}-regular {nodes}-node graph"
    );
    println!(
        "# {} random inits at p=1, INTERP chain above, L-BFGS-B, ftol 1e-6",
        config.restarts
    );
    println!(
        "{:>3} {:>3} {:>10} {:>10} {:>9}",
        "p", "i", "gamma_i", "beta_i", "AR"
    );
    let mut chain: Vec<Vec<f64>> = Vec::new();
    let mut ars = Vec::new();
    for p in 1..=max_depth {
        let instance = QaoaInstance::new(problem.clone(), p).expect("valid depth");
        let outcome = match chain.last() {
            None => instance
                .optimize_multistart(&optimizer, config.restarts, &mut rng, &options)
                .expect("level-1 optimization"),
            Some(packed) => {
                let half = packed.len() / 2;
                let mut seed = interp_resample(&packed[..half], p);
                seed.extend(interp_resample(&packed[half..], p));
                instance
                    .optimize(&optimizer, &seed, &options)
                    .expect("seeded optimization")
            }
        };
        ars.push(outcome.approximation_ratio);
        chain.push(outcome.params);
    }
    for (row, display) in qaoa::canonical::display_fold_chain(&chain)
        .iter()
        .enumerate()
    {
        let p = row + 1;
        for i in 0..p {
            println!(
                "{:>3} {:>3} {:>10.4} {:>10.4} {:>9.4}",
                p,
                i + 1,
                display[i],
                display[p + i],
                ars[row]
            );
        }
    }
    println!("# Expected shape: reading a fixed i down the table, gamma_i falls and beta_i rises with p.");
}
