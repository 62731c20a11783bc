//! Cross-version bit pins for the evaluation hot path: energies, adjoint
//! gradients and one shot-sampled estimate, compared by `to_bits()` against
//! constants recorded before `EvalContext` moved to the half-register
//! (`C(z) = C(z̄)`) kernels. Any change to the kernels' arithmetic or
//! reduction order fails here, not only in a manual output `cmp`.

use graphs::generators;
use qaoa::sampled::SampledExpectation;
use qaoa::{EvalContext, MaxCutProblem, QaoaAnsatz};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(n, p, energy bits, [∂γ…, ∂β…] bits)` on `erdos_renyi_nonempty(n, 0.5)`
/// seeded with `n`, at [`params`]`(p)`.
const GOLDEN: &[(usize, usize, u64, &[u64])] = &[
    (
        4,
        1,
        0x3feb4aa2103c61cb,
        &[0xbfd821ff0a5af366, 0xbff3154d3f7b856a],
    ),
    (
        4,
        3,
        0x3ffacbbec11fef1f,
        &[
            0xbfd00d7bdf3354a6,
            0xbfa0fdbd0152c1e2,
            0x3fe0d0071af06264,
            0x3fd249b2e69d6252,
            0x3f9d886e2f33b588,
            0xbfe7e80995942111,
        ],
    ),
    (
        8,
        1,
        0x4016e05aba5d6ca7,
        &[0xc018231f00e137ce, 0xc01adba2c4ecc1fc],
    ),
    (
        8,
        3,
        0x401d4c4c833f89e5,
        &[
            0xbff47c1e91732fd5,
            0xc006711d15c004d4,
            0xbfff9821fce53801,
            0xbffb31245ce36336,
            0xc01f582d0c57a482,
            0x3ffe6d94b1bb847b,
        ],
    ),
    (
        12,
        1,
        0x4027acce62692770,
        &[0xc0222d1b76cb127c, 0xc028a422baa98574],
    ),
    (
        12,
        3,
        0x402e94f65e91ec62,
        &[
            0x3ffdc70e64fb3575,
            0x3fe7e861289ee28f,
            0x400223a0dac0ff7f,
            0x400422afc242626c,
            0xc00e961fb60a0425,
            0x400accd4c96d7814,
        ],
    ),
];

/// The first two estimates of `SampledExpectation(n = 8, p = 2, 256 shots,
/// seed 11)` at [`params`]`(2)` — the `Scenario::Sampled` objective.
const GOLDEN_SAMPLED: [u64; 2] = [0x401b380000000000, 0x401b8c0000000000];

fn params(p: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..p).map(|k| 0.35 + 0.4 * k as f64).collect();
    v.extend((0..p).map(|k| 0.9 - 0.25 * k as f64));
    v
}

fn problem(n: usize) -> MaxCutProblem {
    let g = generators::erdos_renyi_nonempty(n, 0.5, &mut StdRng::seed_from_u64(n as u64));
    MaxCutProblem::new(&g).expect("non-empty graph")
}

#[test]
fn energies_and_gradients_match_pinned_bits() {
    for &(n, p, energy, grad_bits) in GOLDEN {
        let ansatz = QaoaAnsatz::new(problem(n), p).expect("valid depth");
        let mut ctx = EvalContext::new(n);
        let mut grad = vec![0.0; 2 * p];
        let e = ansatz
            .expectation_and_grad_in(&mut ctx, &params(p), &mut grad)
            .expect("valid params");
        assert_eq!(e.to_bits(), energy, "n={n} p={p}: gradient-path energy {e}");
        let got: Vec<u64> = grad.iter().map(|g| g.to_bits()).collect();
        assert_eq!(got, grad_bits, "n={n} p={p}: gradient {grad:?}");
        let e = ansatz
            .expectation_in(&mut ctx, &params(p))
            .expect("valid params");
        assert_eq!(e.to_bits(), energy, "n={n} p={p}: expectation {e}");
    }
}

#[test]
fn sampled_estimates_match_pinned_bits() {
    let sampled = SampledExpectation::new(problem(8), 2, 256, 11).expect("valid objective");
    for (k, &bits) in GOLDEN_SAMPLED.iter().enumerate() {
        let e = sampled.estimate(&params(2)).expect("valid params");
        assert_eq!(e.to_bits(), bits, "estimate {k}: {e}");
    }
}
