//! Failover and streaming-merge tests for the shard coordinator: injected
//! worker death and stalls must not cost a byte of parity (merged records
//! and the persisted cache file stay identical to the unsharded run), and
//! the coordinator's buffering must stay bounded by the dispatch window,
//! never by corpus size.

mod common;

use std::sync::Arc;
use std::time::Duration;

use engine::shard::{self, ShardPlan, StreamOptions};
use engine::{persist, Engine, KillAfter, Level1Cache, LoopbackTransport, StallAfter};
use proptest::prelude::*;
use qaoa::datagen::DataGenConfig;

/// The suite's corpus spec — small enough that one case solves in
/// milliseconds, rich enough (2 depths, 2 restarts) to exercise both the
/// depth-1 cache path and the trend-seeded depth-2 path.
fn spec(n_graphs: usize) -> DataGenConfig {
    common::tiny_datagen(n_graphs, 4, 0.6, 2, 2, 77)
}

fn reference(config: &DataGenConfig) -> qaoa::datagen::ParameterDataset {
    let (dataset, _) = engine::corpus::generate(config, &Engine::new(1)).expect("reference corpus");
    dataset
}

/// A partition of `0..n` from arbitrary cut points.
fn plan_from_cuts(n: usize, mut cuts: Vec<usize>) -> ShardPlan {
    cuts.sort_unstable();
    let mut ranges = Vec::with_capacity(cuts.len() + 1);
    let mut cursor = 0;
    for cut in cuts {
        ranges.push(cursor..cut);
        cursor = cut;
    }
    ranges.push(cursor..n);
    ShardPlan::from_ranges(n, ranges).expect("cut construction is always valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The failover headline: kill an arbitrary worker after an arbitrary
    /// number of delivered lines, over an arbitrary partition — the
    /// surviving worker re-runs whatever was lost and the merged corpus is
    /// still bit-identical to the unsharded run.
    #[test]
    fn killed_worker_mid_range_costs_no_parity(
        (n, cuts, victim, after) in (2usize..6).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0usize..=n, 0..3),
                0usize..2,
                0usize..5,
            )
        })
    ) {
        let config = spec(n);
        let plan = plan_from_cuts(n, cuts);
        let unsharded = reference(&config);
        let mut transport = KillAfter::new(LoopbackTransport::new(2, 2), victim, after);
        let (merged, report) = shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
            .expect("failover run must complete on the survivor");
        prop_assert!(report.lost_workers <= 1);
        common::assert_corpora_bit_identical(
            &unsharded,
            &merged,
            &format!("kill worker {victim} after {after} lines, {} shards", plan.shards()),
        );
    }
}

#[test]
fn killed_worker_report_shows_the_retask() {
    // Deterministic companion to the property: kill worker 0 after its
    // first delivered line; the run completes and says what happened.
    let config = spec(5);
    let plan = ShardPlan::split_even(config.n_graphs, 3);
    let unsharded = reference(&config);
    let mut transport = KillAfter::new(LoopbackTransport::new(2, 2), 0, 1);
    let (merged, report) =
        shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
            .expect("failover run");
    assert_eq!(report.lost_workers, 1, "the victim must be declared dead");
    assert_eq!(report.retasked, 1, "its range must move to the survivor");
    assert!(
        report.per_shard.iter().any(|s| s.attempts > 1),
        "some range must record a second attempt"
    );
    assert!(report.summary().contains("lost 1 worker"));
    common::assert_corpora_bit_identical(&unsharded, &merged, "kill-one-worker run");
}

#[test]
fn stalled_worker_times_out_and_is_retasked() {
    // The timeout path: the victim delivers one line and then goes silent
    // (the worker is alive but the transport swallows everything). The
    // coordinator must declare it dead after the configured quiet period
    // and finish on the survivor, bit-identically.
    let config = spec(4);
    let plan = ShardPlan::split_even(config.n_graphs, 2);
    let unsharded = reference(&config);
    let mut transport = StallAfter::new(LoopbackTransport::new(2, 2), 1, 1);
    let options = StreamOptions {
        timeout: Duration::from_millis(300),
        ..StreamOptions::default()
    };
    let (merged, report) =
        shard::run_wire(&config, &plan, &mut transport, &options).expect("timeout failover");
    assert_eq!(report.lost_workers, 1);
    assert_eq!(report.retasked, 1);
    common::assert_corpora_bit_identical(&unsharded, &merged, "stalled-worker run");
}

#[test]
fn cache_file_survives_a_kill_byte_identically() {
    // The second half of the parity guarantee under failover: the cache
    // file persisted from a shared coordinator cache after a
    // kill-one-worker run equals the unsharded run's file byte-for-byte.
    let config = spec(6);
    let unsharded_path = common::temp_path("failover_cache_unsharded");
    let killed_path = common::temp_path("failover_cache_killed");
    std::fs::remove_file(&unsharded_path).ok();
    std::fs::remove_file(&killed_path).ok();

    let engine = Engine::new(2);
    engine::corpus::generate(&config, &engine).expect("unsharded corpus");
    persist::save_merge(engine.cache(), &unsharded_path, config.seed).unwrap();

    let shared = Arc::new(Level1Cache::new());
    let plan = ShardPlan::split_even(config.n_graphs, 3);
    let inner = LoopbackTransport::with_cache(2, 2, config.seed, Some(Arc::clone(&shared)));
    let mut transport = KillAfter::new(inner, 0, 2);
    let (_, report) = shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
        .expect("failover run");
    assert_eq!(report.lost_workers, 1);
    persist::save_merge(&shared, &killed_path, config.seed).unwrap();

    let unsharded_bytes = std::fs::read(&unsharded_path).unwrap();
    let killed_bytes = std::fs::read(&killed_path).unwrap();
    assert!(!unsharded_bytes.is_empty());
    assert_eq!(
        unsharded_bytes, killed_bytes,
        "cache file after a worker kill must be byte-identical to the unsharded one"
    );
    std::fs::remove_file(&unsharded_path).ok();
    std::fs::remove_file(&killed_path).ok();
}

#[test]
fn peak_buffering_is_bounded_by_the_window_not_the_corpus() {
    // The streaming-merge memory bound (acceptance criterion): records may
    // be buffered only for in-flight ranges past the emit frontier, and
    // dispatch is throttled to `window_per_worker × workers` ranges beyond
    // it. With every range a single graph, the bound is a small constant
    // while the corpus itself is many times larger — and it does not grow
    // when the corpus does.
    for n in [8usize, 16] {
        let config = spec(n);
        let plan = ShardPlan::split_even(config.n_graphs, n); // 1 graph per range
        let mut transport = LoopbackTransport::new(2, 1);
        let options = StreamOptions {
            window_per_worker: 1,
            ..StreamOptions::default()
        };
        let unsharded = reference(&config);
        let mut streamed = Vec::new();
        let report = shard::run_streaming(&config, &plan, &mut transport, &options, &mut |r| {
            streamed.push(r);
            Ok(())
        })
        .expect("streaming run");
        let cells_per_range = config.max_depth; // 1 graph per range
        let window_ranges = 2; // window_per_worker (1) × workers (2)
        let bound = window_ranges * cells_per_range;
        let total_cells = n * config.max_depth;
        assert!(
            report.peak_buffered_records <= bound,
            "n={n}: peak {} exceeds the window bound {bound}",
            report.peak_buffered_records
        );
        assert!(
            bound < total_cells,
            "the bound must be smaller than the corpus for the assertion to mean anything"
        );
        assert_eq!(streamed.len(), total_cells);
        for (got, want) in streamed.iter().zip(unsharded.records()) {
            assert_eq!(got, want, "streamed record differs from unsharded");
        }
    }
}

#[test]
fn losing_every_worker_is_an_error_not_a_hang() {
    let config = spec(3);
    let plan = ShardPlan::split_even(config.n_graphs, 2);
    // Both workers are victims: kill each on its first receive.
    let inner = KillAfter::new(LoopbackTransport::new(2, 1), 0, 0);
    let mut transport = KillAfter::new(inner, 1, 0);
    match shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default()) {
        Err(engine::ShardError::Transport(message)) => {
            assert!(message.contains("all 2 workers lost"), "got: {message}");
        }
        other => panic!("expected the fleet lost, got {other:?}"),
    }
}
