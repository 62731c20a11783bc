//! Parallel batch-execution engine for the QAOA pipeline.
//!
//! Every expensive path in this repository — corpus generation (§III-A),
//! the Table-I comparison sweep, the figure/table binaries — is
//! embarrassingly parallel batch work: thousands of independent QAOA
//! optimization loops. This crate turns those loops into scheduled work:
//!
//! * [`Pool`] — a work-stealing executor on `std::thread::scope` that runs
//!   a queue of jobs across a configurable worker count and returns results
//!   in submission order,
//! * [`seed`] — deterministic per-job RNG derivation (master seed + stable
//!   job key → `StdRng`), the invariant that makes parallel runs
//!   **bit-identical** to serial runs,
//! * [`Level1Cache`] — a concurrent depth-1 optimum cache keyed by the
//!   canonical graph class ([`qaoa::canonical::graph_key`]) and the solve's
//!   restarts count ([`Level1Key`]), so isomorphic instances with equal
//!   restarts are never re-optimized,
//! * [`Engine`] / [`Job`] / [`BatchReport`] — the batch front door with
//!   per-job wall-clock and function-call accounting,
//! * [`corpus`] — the parallel §III-A corpus generator,
//! * [`compare`] — the parallel naive-vs-ML comparison sweep,
//! * [`wire`] — the versioned line-delimited text codec for jobs, outcomes,
//!   canonical keys, corpus records, batch reports, and shard tasking,
//! * [`persist`] — save/load/merge of the depth-1 cache across processes
//!   (corrupt or stale files are discarded, never fatal),
//! * [`model`] — versioned `QMODEL1` persistence of trained parameter
//!   predictors (same discard-and-retrain failure policy), the artifact
//!   behind the `qaoa-predict` prediction service,
//! * [`server`] — the job-server request loop behind the `qaoa-serve`
//!   binary: `JOB` lines in, `OUTCOME`/`REPORT` lines out, in submission
//!   order, plus the worker side of shard tasking (`SHARD`/`RANGE` in,
//!   `RECORD`/`DONE` out),
//! * [`shard`] — the corpus shard coordinator: a validated [`ShardPlan`]
//!   over graph-index ranges, driven over a streaming transport
//!   ([`shard::run_streaming`] / [`shard::run_wire`]; the `qaoa-shard`
//!   binary), merging records in global graph-index order with bounded
//!   buffering and re-tasking the ranges of dead or timed-out workers —
//!   output **bit-identical** to the unsharded run,
//! * [`transport`] — the [`ShardTransport`] trait the coordinator drives:
//!   in-process [`transport::LoopbackTransport`] workers (the reference
//!   implementation), spawned `qaoa-serve` processes
//!   ([`transport::SubprocessTransport`]), and fault injectors for the
//!   failover test-suite.
//!
//! # Quickstart
//!
//! ```
//! use engine::{BatchConfig, Engine, Job};
//! use graphs::generators;
//! use optimize::Lbfgsb;
//!
//! # fn main() -> Result<(), qaoa::QaoaError> {
//! let engine = Engine::new(4);
//! let jobs: Vec<Job> = (4..8)
//!     .map(|n| Job::new(generators::cycle(n), 1, 3))
//!     .collect();
//! let (outcomes, report) = engine.run_batch(
//!     &Lbfgsb::default(),
//!     &jobs,
//!     &BatchConfig::default(),
//! )?;
//! assert_eq!(outcomes.len(), 4);
//! assert!(report.total_function_calls > 0);
//! println!("{}", report.summary());
//! # Ok(())
//! # }
//! ```
//!
//! # Determinism contract
//!
//! For a fixed job queue and master seed, results at `threads = 1` and
//! `threads = N` are **identical**: no job draws randomness from a shared
//! stream, worker identity, or scheduling order. Depth-1 cache entries are
//! pure functions of `(master seed, canonical class, restarts)` — solved
//! on the canonical representative, seeded from the class hash and the
//! restarts count, and keyed on both — so cache races between isomorphic
//! jobs are benign (all contenders compute the same bits) and jobs that
//! differ only in restarts never share an entry.

pub mod batch;
pub mod cache;
pub mod compare;
pub mod corpus;
pub mod model;
pub mod persist;
pub mod pool;
pub mod seed;
pub mod server;
pub mod shard;
pub mod transport;
pub mod wire;

pub use batch::{BatchConfig, BatchReport, Engine, Job, JobStats};
pub use cache::{Level1Cache, Level1Key};
pub use corpus::CorpusReport;
pub use model::ModelLoad;
pub use persist::LoadStatus;
pub use pool::Pool;
pub use server::ServeSummary;
pub use shard::{ShardError, ShardPlan, ShardReport, ShardStats, StreamOptions};
pub use transport::{
    KillAfter, LoopbackTransport, ShardTransport, StallAfter, SubprocessTransport, TransportError,
};
pub use wire::WireError;

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::Lbfgsb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn batch_outcomes_are_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(400);
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                Job::new(
                    generators::erdos_renyi_nonempty(5, 0.5, &mut rng),
                    1 + i % 3,
                    2,
                )
            })
            .collect();
        let config = BatchConfig {
            master_seed: 7,
            ..BatchConfig::default()
        };
        let (serial, _) = Engine::new(1)
            .run_batch(&Lbfgsb::default(), &jobs, &config)
            .unwrap();
        let (parallel, report) = Engine::new(4)
            .run_batch(&Lbfgsb::default(), &jobs, &config)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.params, b.params);
            assert_eq!(a.expectation.to_bits(), b.expectation.to_bits());
            assert_eq!(a.function_calls, b.function_calls);
        }
        assert_eq!(report.jobs.len(), 8);
        assert!(report.summary().contains("8 jobs"));
    }

    #[test]
    fn depth1_jobs_hit_the_isomorphism_cache() {
        // The same cycle under two labelings: second job must hit.
        let a = generators::cycle(5);
        let b = graphs::Graph::from_edges(5, &[(1, 3), (3, 0), (0, 4), (4, 2), (2, 1)]).unwrap();
        let jobs = vec![Job::new(a, 1, 2), Job::new(b, 1, 2)];
        let engine = Engine::new(1);
        let (outcomes, report) = engine
            .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
            .unwrap();
        assert_eq!(report.cache_hits + report.cache_misses, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(outcomes[0].params, outcomes[1].params);
        assert_eq!(engine.cache().len(), 1);
    }

    #[test]
    fn depth1_jobs_with_different_restarts_do_not_conflate() {
        // Two isomorphic depth-1 jobs whose restart counts differ: the
        // second must NOT be served the first's optimum (it was computed
        // under a different multistart budget). Each outcome must equal the
        // same job run alone on a fresh engine.
        let a = generators::cycle(5);
        let b = graphs::Graph::from_edges(5, &[(1, 3), (3, 0), (0, 4), (4, 2), (2, 1)]).unwrap();
        let jobs = vec![Job::new(a, 1, 2), Job::new(b, 1, 3)];
        let engine = Engine::new(1);
        let (outcomes, report) = engine
            .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
            .unwrap();
        assert_eq!(report.cache_hits, 0, "different restarts must both miss");
        assert_eq!(report.cache_misses, 2);
        assert_eq!(engine.cache().len(), 2, "one entry per restarts variant");
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let (alone, _) = Engine::new(1)
                .run_batch(
                    &Lbfgsb::default(),
                    std::slice::from_ref(job),
                    &BatchConfig::default(),
                )
                .unwrap();
            assert_eq!(alone[0].params, outcome.params);
            assert_eq!(
                alone[0].expectation.to_bits(),
                outcome.expectation.to_bits()
            );
            assert_eq!(alone[0].function_calls, outcome.function_calls);
        }
    }

    #[test]
    fn cache_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(9);
        let jobs: Vec<Job> = (0..4)
            .map(|_| Job::new(generators::erdos_renyi_nonempty(5, 0.6, &mut rng), 1, 2))
            .collect();
        let cached = BatchConfig {
            use_cache: true,
            ..BatchConfig::default()
        };
        let uncached = BatchConfig {
            use_cache: false,
            ..BatchConfig::default()
        };
        let (with_cache, _) = Engine::new(2)
            .run_batch(&Lbfgsb::default(), &jobs, &cached)
            .unwrap();
        let (without, _) = Engine::new(2)
            .run_batch(&Lbfgsb::default(), &jobs, &uncached)
            .unwrap();
        for (a, b) in with_cache.iter().zip(&without) {
            assert_eq!(a.params, b.params);
            assert_eq!(a.function_calls, b.function_calls);
        }
    }

    #[test]
    fn empty_batch() {
        let (outcomes, report) = Engine::new(2)
            .run_batch(&Lbfgsb::default(), &[], &BatchConfig::default())
            .unwrap();
        assert!(outcomes.is_empty());
        assert_eq!(report.total_function_calls, 0);
    }

    #[test]
    fn job_errors_propagate() {
        // Depth 0 is invalid and must surface as an error, not a panic.
        let jobs = vec![Job::new(generators::cycle(4), 0, 1)];
        assert!(Engine::new(2)
            .run_batch(&Lbfgsb::default(), &jobs, &BatchConfig::default())
            .is_err());
    }
}
