//! State-vector quantum circuit simulator.
//!
//! This crate is the workspace's substitute for the QuTiP simulator the
//! paper used as its "quantum computer": a dense state-vector simulator with
//! a small gate set, a circuit IR, expectation values and measurement
//! sampling. It is sized for NISQ-scale QAOA studies (the paper uses 8-qubit
//! MaxCut instances, i.e. 256 amplitudes).
//!
//! Layout:
//!
//! * [`Complex64`] — first-party complex arithmetic (no external crates),
//! * [`StateVector`] — `2^n` amplitudes with single/two-qubit gate kernels,
//! * [`soa::SplitState`] — split re/im (structure-of-arrays) kernels for the
//!   QAOA evaluation hot path: autovectorizable, cache-blocked, with
//!   deterministic within-state parallelism,
//! * [`gates`] — standard gate matrices (H, X, Y, Z, RX, RY, RZ, phase),
//! * [`Circuit`] / [`Gate`] — a replayable circuit IR,
//! * [`DiagonalObservable`] — fast diagonal (cost-Hamiltonian) expectations,
//! * [`sample_counts`] — projective measurement in the computational basis.
//!
//! Qubit `k` owns bit `k` of the basis-state index (little-endian), so basis
//! state `|q_{n-1} … q_1 q_0⟩` has index `Σ q_k 2^k`.
//!
//! # Example: Bell state
//!
//! ```
//! use qsim::{Circuit, StateVector};
//!
//! # fn main() -> Result<(), qsim::QsimError> {
//! let mut circuit = Circuit::new(2);
//! circuit.h(0).cnot(0, 1);
//! let state = circuit.run(StateVector::zero_state(2))?;
//! let probs = state.probabilities();
//! assert!((probs[0] - 0.5).abs() < 1e-12); // |00⟩
//! assert!((probs[3] - 0.5).abs() < 1e-12); // |11⟩
//! # Ok(())
//! # }
//! ```

mod channels;
mod circuit;
mod complex;
mod density;
mod error;
mod expectation;
pub mod gates;
mod sampling;
pub mod soa;
mod state;

pub use channels::{KrausChannel, NoiseModel};
pub use circuit::{Circuit, Gate};
pub use complex::Complex64;
pub use density::{DensityMatrix, MAX_DM_QUBITS};
pub use error::QsimError;
pub use expectation::{DiagonalObservable, PauliZString};
pub use sampling::{
    sample_counts, sample_density_counts, sample_density_indices, sample_indices, CdfSampler,
};
pub use state::StateVector;
