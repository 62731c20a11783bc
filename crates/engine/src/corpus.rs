//! Parallel training-corpus generation (§III-A) on the engine.
//!
//! The unit of parallelism is the **graph**: depths within one graph are
//! coupled by trend seeding (depth `p` is initialized from the depth-`p−1`
//! optimum), so one worker walks `p = 1..=max_depth` for its graph while
//! other graphs run concurrently.
//!
//! Unlike the serial `ParameterDataset::from_graphs`, which streams one RNG
//! across every cell, each `(graph, depth)` cell here draws from an RNG
//! derived from stable keys ([`crate::seed`]):
//!
//! * depth 1 — seeded from the graph's **canonical class hash** and solved
//!   on the canonical representative, so isomorphic graphs produce
//!   bit-identical depth-1 optima and share one [`Level1Cache`](crate::cache::Level1Cache) entry,
//! * depth ≥ 2 — seeded from `(graph_index, depth)`.
//!
//! Consequently corpus output is a pure function of `(graphs, config)` —
//! identical at any worker count, with or without cache hits.

use std::ops::Range;
use std::time::{Duration, Instant};

use graphs::{generators, Graph};
use optimize::Lbfgsb;
use qaoa::datagen::{solve_depth, DataGenConfig, OptimalRecord, ParameterDataset};
use qaoa::QaoaError;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{BatchConfig, Engine};
use crate::seed;

/// Accounting for one corpus generation run.
#[derive(Debug, Clone)]
pub struct CorpusReport {
    /// Graphs solved.
    pub graphs: usize,
    /// `(graph, depth)` cells solved.
    pub cells: usize,
    /// End-to-end wall-clock time.
    pub wall: Duration,
    /// Worker count used.
    pub threads: usize,
    /// Depth-1 solves served from the isomorphism cache.
    pub cache_hits: usize,
    /// Total function calls across all records.
    pub function_calls: usize,
}

impl CorpusReport {
    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} graphs / {} cells on {} threads in {:.2?} ({} level-1 cache hits, {} fn calls)",
            self.graphs, self.cells, self.threads, self.wall, self.cache_hits, self.function_calls,
        )
    }
}

/// Generates the Erdős–Rényi ensemble of `config` — the exact graph
/// sequence the serial [`ParameterDataset::generate`] draws (one RNG
/// streamed across the whole ensemble). Exposed so the shard coordinator
/// ([`crate::shard`]) and wire workers ([`crate::server`]) materialize
/// identical ensembles from the spec alone.
#[must_use]
pub fn ensemble(config: &DataGenConfig) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..config.n_graphs)
        .map(|_| {
            generators::erdos_renyi_nonempty(config.n_nodes, config.edge_probability, &mut rng)
        })
        .collect()
}

/// Generates the Erdős–Rényi ensemble of `config` and solves it in
/// parallel. The ensemble itself matches the serial
/// [`ParameterDataset::generate`] exactly (same seed stream); the records
/// come from the engine's per-cell seeding.
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors.
pub fn generate(
    config: &DataGenConfig,
    engine: &Engine,
) -> Result<(ParameterDataset, CorpusReport), QaoaError> {
    from_graphs(ensemble(config), config, engine)
}

/// Solves a caller-supplied ensemble in parallel (one worker per graph).
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors.
pub fn from_graphs(
    graphs: Vec<Graph>,
    config: &DataGenConfig,
    engine: &Engine,
) -> Result<(ParameterDataset, CorpusReport), QaoaError> {
    let (records, report) = solve_range(&graphs, 0..graphs.len(), config, engine)?;
    let dataset = ParameterDataset::from_parts(graphs, records, config.max_depth)?;
    Ok((dataset, report))
}

/// Solves the `(graph, depth)` cells of `range` (global graph indices into
/// `graphs`) in parallel, returning the records in graph-index order.
///
/// This is the shard worker's unit of work: every per-cell RNG is derived
/// from the **global** graph index, so a worker handed `graphs[a..b]` of a
/// larger ensemble produces exactly the records an unsharded run computes
/// for those indices — the bit-parity invariant [`crate::shard`] builds on.
///
/// # Errors
///
/// Propagates problem-construction and optimizer errors; rejects a range
/// extending past the ensemble.
pub fn solve_range(
    graphs: &[Graph],
    range: Range<usize>,
    config: &DataGenConfig,
    engine: &Engine,
) -> Result<(Vec<OptimalRecord>, CorpusReport), QaoaError> {
    if range.end > graphs.len() || range.start > range.end {
        return Err(QaoaError::InvalidRange {
            start: range.start,
            end: range.end,
            len: graphs.len(),
        });
    }
    let start = Instant::now();
    let batch_config = BatchConfig {
        master_seed: config.seed,
        options: config.options,
        use_cache: true,
        scenario: qaoa::Scenario::Exact,
    };
    let optimizer = Lbfgsb::default();

    let per_graph: Vec<Result<(Vec<OptimalRecord>, usize), QaoaError>> = engine
        .pool()
        .run_ordered_fanout(range.len(), |offset, inner| {
            qaoa::eval::with_within_state_threads(inner, || {
                let graph_id = range.start + offset;
                solve_graph(
                    &graphs[graph_id],
                    graph_id,
                    config,
                    engine,
                    &optimizer,
                    &batch_config,
                )
            })
        });

    let mut records = Vec::with_capacity(range.len() * config.max_depth);
    let mut cache_hits = 0;
    for result in per_graph {
        let (graph_records, hits) = result?;
        cache_hits += hits;
        records.extend(graph_records);
    }
    let function_calls = records.iter().map(|r| r.function_calls).sum();
    let report = CorpusReport {
        graphs: range.len(),
        cells: records.len(),
        wall: start.elapsed(),
        threads: engine.threads(),
        cache_hits,
        function_calls,
    };
    Ok((records, report))
}

/// Solves all depths of one graph; returns its records and the number of
/// depth-1 cache hits (0 or 1).
fn solve_graph(
    graph: &Graph,
    graph_id: usize,
    config: &DataGenConfig,
    engine: &Engine,
    optimizer: &Lbfgsb,
    batch_config: &BatchConfig,
) -> Result<(Vec<OptimalRecord>, usize), QaoaError> {
    let problem = qaoa::MaxCutProblem::new(graph)?;
    let mut records = Vec::with_capacity(config.max_depth);
    let mut prev: Option<(Vec<f64>, Vec<f64>)> = None;
    let mut cache_hits = 0;

    for depth in 1..=config.max_depth {
        let record = if depth == 1 {
            // Depth 1 goes through the isomorphism cache: solved on the
            // canonical representative, seeded from the class hash.
            let (outcome, hit) =
                engine.level1_cached(graph, optimizer, config.restarts, batch_config)?;
            if hit {
                cache_hits += 1;
            }
            let mut gammas = outcome.gammas().to_vec();
            let mut betas = outcome.betas().to_vec();
            qaoa::canonical::canonicalize(&mut gammas, &mut betas);
            OptimalRecord {
                graph_id,
                depth,
                gammas,
                betas,
                expectation: outcome.expectation,
                approximation_ratio: outcome.approximation_ratio,
                function_calls: outcome.function_calls,
            }
        } else {
            let mut rng = StdRng::seed_from_u64(seed::derive2(
                config.seed,
                "corpus",
                seed::wide(graph_id),
                seed::wide(depth),
            ));
            solve_depth(&problem, graph_id, depth, prev.as_ref(), config, &mut rng)?
        };
        prev = Some((record.gammas.clone(), record.betas.clone()));
        records.push(record);
    }
    Ok((records, cache_hits))
}
