//! Bit-parity of the SoA/SIMD kernels (`qsim::soa`) against the scalar
//! `StateVector` reference, the invariant the whole `EvalContext` fast
//! path rests on: **per-amplitude floating-point operations are identical
//! in value and order**, so amplitudes match bitwise — not to tolerance —
//! for any width, any depth, any parameters, and any within-state thread
//! budget.
//!
//! `EvalContext` evolves only the lower half of the register (MaxCut's
//! `C(z) = C(z̄)` symmetry, `qsim::soa::FlipSymmetricState`). The
//! full-register forward and adjoint algorithm it replaced lives on here as
//! [`full_register_reference`], built from the public `SplitState` kernels
//! and `soa::sum_*` reductions; energies, gradients and the materialized
//! state must equal it bitwise.
//!
//! Thread budgets come from `KERNEL_PARITY_THREADS` (comma-separated,
//! default `1,4`), so CI can pin serial and fanned-out runs as separate
//! steps: `KERNEL_PARITY_THREADS=1` then `KERNEL_PARITY_THREADS=4`.

use graphs::generators;
use proptest::prelude::*;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use qsim::soa::{self, SplitState};
use qsim::{Complex64, DiagonalObservable, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread budgets under test, from `KERNEL_PARITY_THREADS`.
fn thread_budgets() -> Vec<usize> {
    let spec = std::env::var("KERNEL_PARITY_THREADS").unwrap_or_else(|_| "1,4".to_string());
    let budgets: Vec<usize> = spec
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .collect();
    assert!(
        !budgets.is_empty(),
        "KERNEL_PARITY_THREADS must list at least one positive budget, got {spec:?}"
    );
    budgets
}

/// Asserts bitwise amplitude equality between the SoA state and the
/// scalar reference.
fn assert_bit_identical(soa: &SplitState, reference: &StateVector, what: &str) {
    assert_eq!(soa.dim(), reference.dim(), "{what}: dimension mismatch");
    for (i, amp) in reference.amplitudes().iter().enumerate() {
        let got = soa.amplitude(i);
        assert_eq!(
            got.re.to_bits(),
            amp.re.to_bits(),
            "{what}: re differs at amplitude {i}: {} vs {}",
            got.re,
            amp.re
        );
        assert_eq!(
            got.im.to_bits(),
            amp.im.to_bits(),
            "{what}: im differs at amplitude {i}: {} vs {}",
            got.im,
            amp.im
        );
    }
}

/// Runs the full p-layer QAOA circuit on both paths at every budget and
/// asserts bitwise parity of states and expectations.
fn check_circuit_parity(n: usize, gammas: &[f64], betas: &[f64], graph_seed: u64) {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let graph = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let cost = problem.cost();

    // Scalar reference: the pre-SoA kernels, untouched in qsim::state.
    let mut reference = StateVector::plus_state(n);
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        let table: Vec<Complex64> = cost
            .levels()
            .iter()
            .map(|&v| Complex64::cis(-gamma * v))
            .collect();
        reference
            .apply_phase_levels(cost.level_of(), &table)
            .expect("matching dims");
        reference.apply_rx_layer(2.0 * beta);
    }
    let reference_e = cost.expectation(&reference).expect("matching dims");

    for &threads in &thread_budgets() {
        let mut soa = SplitState::plus_state(n);
        for (&gamma, &beta) in gammas.iter().zip(betas) {
            let mut table_re = Vec::new();
            let mut table_im = Vec::new();
            for &v in cost.levels() {
                let angle = -gamma * v;
                table_re.push(angle.cos());
                table_im.push(angle.sin());
            }
            soa.apply_phase_rx(cost.level_of(), &table_re, &table_im, 2.0 * beta, threads);
        }
        assert_bit_identical(&soa, &reference, &format!("n={n} threads={threads}"));
        let soa_e = soa.expectation_diag(cost.diagonal(), threads);
        // The SoA reduction tiles differently from the scalar sum, so the
        // expectation is budget-invariant (bitwise across budgets) and
        // tolerance-close to the scalar value.
        assert!(
            (soa_e - reference_e).abs() <= 1e-12 * reference_e.abs().max(1.0),
            "n={n} threads={threads}: expectation drifted: {soa_e} vs {reference_e}"
        );
    }
}

/// Runs `expectation_and_grad_in` at every budget and asserts the energy
/// and every gradient component are bitwise identical across budgets.
fn check_gradient_budget_invariance(n: usize, p: usize, params: &[f64], graph_seed: u64) {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let graph = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let ansatz = QaoaAnsatz::new(problem, p).expect("valid depth");

    let mut baseline: Option<(f64, Vec<f64>)> = None;
    for &threads in &thread_budgets() {
        let mut ctx = EvalContext::new(n);
        ctx.set_threads(threads);
        let mut grad = vec![0.0; 2 * p];
        let e = ansatz
            .expectation_and_grad_in(&mut ctx, params, &mut grad)
            .expect("valid params");
        match &baseline {
            None => baseline = Some((e, grad)),
            Some((e0, grad0)) => {
                assert_eq!(
                    e.to_bits(),
                    e0.to_bits(),
                    "n={n} threads={threads}: energy differs across budgets"
                );
                for (i, (g, g0)) in grad.iter().zip(grad0).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        g0.to_bits(),
                        "n={n} threads={threads}: grad[{i}] differs across budgets"
                    );
                }
            }
        }
    }
}

/// `cis(scale · level)` per distinct level, split into re/im planes.
fn phase_table(cost: &DiagonalObservable, scale: f64) -> (Vec<f64>, Vec<f64>) {
    cost.levels()
        .iter()
        .map(|&v| {
            let angle = scale * v;
            (angle.cos(), angle.sin())
        })
        .unzip()
}

/// The full-register evaluation `EvalContext` performed before it evolved
/// half the register: forward pass on a `2^n` `SplitState`, tiled
/// expectation, then the adjoint backward pass on full state and costate.
/// Returns the forward state, the energy and the `[γ…, β…]` gradient.
fn full_register_reference(
    cost: &DiagonalObservable,
    gammas: &[f64],
    betas: &[f64],
    threads: usize,
) -> (SplitState, f64, Vec<f64>) {
    let p = gammas.len();
    let mut psi = SplitState::plus_state(cost.n_qubits());
    for (&gamma, &beta) in gammas.iter().zip(betas) {
        let (tre, tim) = phase_table(cost, -gamma);
        psi.apply_phase_rx(cost.level_of(), &tre, &tim, 2.0 * beta, threads);
    }
    let forward = psi.clone();
    let energy = psi.expectation_diag(cost.diagonal(), threads);
    let mut lambda = SplitState::plus_state(cost.n_qubits());
    lambda.assign_scaled(&psi, cost.diagonal(), threads);
    let mut grad = vec![0.0; 2 * p];
    for k in (0..p).rev() {
        grad[p + k] = 2.0 * soa::sum_im_cross_x(&lambda, &psi, threads);
        psi.apply_rx_layer(-2.0 * betas[k], threads);
        lambda.apply_rx_layer(-2.0 * betas[k], threads);
        grad[k] = 2.0 * soa::sum_diag_im_cross(cost.diagonal(), &lambda, &psi, threads);
        let (tre, tim) = phase_table(cost, gammas[k]);
        psi.apply_phase_levels(cost.level_of(), &tre, &tim, threads);
        lambda.apply_phase_levels(cost.level_of(), &tre, &tim, threads);
    }
    (forward, energy, grad)
}

/// Asserts two split states are equal plane by plane, bitwise.
fn assert_planes_bitwise(got: &SplitState, want: &SplitState, what: &str) {
    assert_eq!(got.dim(), want.dim(), "{what}: dimension mismatch");
    for (plane, g, w) in [("re", got.re(), want.re()), ("im", got.im(), want.im())] {
        for (i, (a, b)) in g.iter().zip(w).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: {plane} differs at amplitude {i}: {a} vs {b}"
            );
        }
    }
}

/// At every budget: `EvalContext`'s half-register energy and gradient are
/// bitwise the full-register reference's, and after a plain evaluation
/// `state()` is bitwise the full forward state.
fn check_half_matches_full(n: usize, p: usize, params: &[f64], graph_seed: u64) {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let graph = generators::erdos_renyi_nonempty(n, 0.5, &mut rng);
    let problem = MaxCutProblem::new(&graph).expect("non-empty graph");
    let ansatz = QaoaAnsatz::new(problem.clone(), p).expect("valid depth");
    let (gammas, betas) = params.split_at(p);
    for &threads in &thread_budgets() {
        let what = format!("n={n} p={p} threads={threads}");
        let (forward, energy, grad_ref) =
            full_register_reference(problem.cost(), gammas, betas, threads);
        let mut ctx = EvalContext::new(n);
        ctx.set_threads(threads);
        let mut grad = vec![0.0; 2 * p];
        let e = ansatz
            .expectation_and_grad_in(&mut ctx, params, &mut grad)
            .expect("valid params");
        assert_eq!(
            e.to_bits(),
            energy.to_bits(),
            "{what}: gradient-path energy"
        );
        for (i, (g, r)) in grad.iter().zip(&grad_ref).enumerate() {
            assert_eq!(g.to_bits(), r.to_bits(), "{what}: grad[{i}]: {g} vs {r}");
        }
        let e = ansatz
            .expectation_in(&mut ctx, params)
            .expect("valid params");
        assert_eq!(e.to_bits(), energy.to_bits(), "{what}: expectation");
        assert_eq!(ctx.n_qubits(), n, "{what}: context width");
        assert_planes_bitwise(ctx.state(), &forward, &what);
    }
}

/// Deterministic in-range parameters for the fixed-width checks.
fn fixed_params(p: usize) -> Vec<f64> {
    let mut params: Vec<f64> = (0..p)
        .map(|k| (0.3 + 0.2 * k as f64) * qaoa::GAMMA_MAX)
        .collect();
    params.extend((0..p).map(|k| (0.7 - 0.15 * k as f64) * qaoa::BETA_MAX));
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random small circuits: SoA amplitudes are bit-identical to the
    /// scalar reference at every thread budget. Widths 2..=9 cover the
    /// SIMD lane boundary (SSE2 holds 2 f64 lanes) many times over, plus
    /// every qubit-0 / high-qubit kernel split below one tile.
    #[test]
    fn random_circuits_bit_identical(
        seed in 0u64..1000,
        n in 2usize..10,
        depth in 1usize..4,
        gamma_frac in proptest::collection::vec(-1.0f64..1.0, 3),
        beta_frac in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let gammas: Vec<f64> = gamma_frac[..depth].iter().map(|f| f * 2.0).collect();
        let betas: Vec<f64> = beta_frac[..depth].iter().map(|f| f * 2.0).collect();
        check_circuit_parity(n, &gammas, &betas, seed);
    }

    /// Random parameters: energies and gradients through the full
    /// `EvalContext` adjoint path are bitwise invariant in the budget.
    #[test]
    fn random_gradients_budget_invariant(
        seed in 0u64..1000,
        n in 2usize..9,
        depth in 1usize..4,
        frac in proptest::collection::vec(0.05f64..0.95, 6),
    ) {
        let mut params = Vec::with_capacity(2 * depth);
        params.extend(frac.iter().take(depth).map(|f| f * qaoa::GAMMA_MAX));
        params.extend(frac[depth..2 * depth].iter().map(|f| f * qaoa::BETA_MAX));
        check_gradient_budget_invariance(n, depth, &params, seed);
    }

    /// Random circuits: the half-register `EvalContext` reproduces the
    /// full-register reference bitwise — energy, every gradient component
    /// and the materialized state.
    #[test]
    fn half_register_matches_full_register(
        seed in 0u64..1000,
        n in 2usize..10,
        depth in 1usize..4,
        gamma_frac in proptest::collection::vec(-1.0f64..1.0, 3),
        beta_frac in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let mut params: Vec<f64> = gamma_frac[..depth].iter().map(|f| f * 2.0).collect();
        params.extend(beta_frac[..depth].iter().map(|f| f * 2.0));
        check_half_matches_full(n, depth, &params, seed);
    }
}

/// Widths straddling the cache tile (`TILE` amplitudes: n = TILE_BITS
/// is exactly one tile, n = TILE_BITS + 1 is the first multi-tile
/// width) stay bitwise identical to the scalar reference.
#[test]
fn tile_boundary_widths_bit_identical() {
    for n in [qsim::soa::TILE_BITS, qsim::soa::TILE_BITS + 1] {
        check_circuit_parity(n, &[0.7, -0.4], &[0.3, 0.9], 42 + n as u64);
    }
}

/// Widths straddling the within-state parallelism threshold
/// (`PAR_MIN_DIM` amplitudes: one qubit below stays serial at any
/// budget, the threshold width actually fans out when the budget
/// allows) stay bitwise identical to the scalar reference — the
/// serial ≡ parallel invariant.
#[test]
fn parallelism_threshold_widths_bit_identical() {
    let par_min_qubits = qsim::soa::PAR_MIN_DIM.trailing_zeros() as usize;
    for n in [par_min_qubits - 1, par_min_qubits] {
        check_circuit_parity(n, &[0.55], &[-0.25], 42 + n as u64);
    }
}

/// Gradient budget-invariance at a width past the parallelism threshold:
/// the adjoint backward pass fans out too, and its tiled reductions
/// combine partials in fixed index order.
#[test]
fn gradient_budget_invariant_past_threshold() {
    let par_min_qubits = qsim::soa::PAR_MIN_DIM.trailing_zeros() as usize;
    check_gradient_budget_invariance(par_min_qubits, 1, &[0.6, 0.2], 7);
}

/// Half ≡ full across the tile boundary: n = TILE_BITS is one full-register
/// tile (the half is half a tile), n = TILE_BITS + 1 is the first width
/// whose half fills a tile and whose top-qubit partners cross tiles.
#[test]
fn half_register_matches_full_at_tile_boundary() {
    for n in [qsim::soa::TILE_BITS, qsim::soa::TILE_BITS + 1] {
        check_half_matches_full(n, 2, &fixed_params(2), 42 + n as u64);
    }
}

/// Half ≡ full across the within-state parallelism threshold: the full
/// register fans out from `PAR_MIN_DIM` amplitudes, the stored half one
/// qubit later, so the widths around both thresholds are covered.
#[test]
fn half_register_matches_full_at_parallelism_threshold() {
    let par_min_qubits = qsim::soa::PAR_MIN_DIM.trailing_zeros() as usize;
    for n in [par_min_qubits - 1, par_min_qubits, par_min_qubits + 1] {
        check_half_matches_full(n, 1, &fixed_params(1), 7 + n as u64);
    }
}
