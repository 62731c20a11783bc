//! End-to-end tests of the spawned-subprocess transport: real `qaoa-serve`
//! processes (the `CARGO_BIN_EXE` build of this crate's own binary) driven
//! by the streaming shard coordinator over stdin/stdout.
//!
//! These live in the bench crate — not `tests/` — because only the crate
//! that owns a binary gets `CARGO_BIN_EXE_<name>` at test-build time.

use std::time::Duration;

use bench::RunConfig;
use engine::shard::{self, ShardPlan, StreamOptions};
use engine::{wire, Engine, Fault, FaultAfter, ShardTransport, SubprocessTransport};
use qaoa::datagen::{DataGenConfig, ParameterDataset};

/// A corpus spec small enough that even debug-build workers answer in
/// milliseconds, deep enough (2 depths) to cover the trend-seeded path.
fn spec(graphs: usize) -> DataGenConfig {
    let mut config = RunConfig::quick();
    config.graphs = graphs;
    config.nodes = 4;
    config.max_depth = 2;
    config.restarts = 2;
    config.seed = 77;
    config.datagen()
}

/// The worker argv: this build's own `qaoa-serve`, plus `extra`.
fn serve_cmd(extra: &[&str]) -> Vec<String> {
    let mut cmd = vec![env!("CARGO_BIN_EXE_qaoa-serve").to_string()];
    cmd.extend(extra.iter().map(ToString::to_string));
    cmd
}

fn reference(config: &DataGenConfig) -> ParameterDataset {
    let (dataset, _) = engine::corpus::generate(config, &Engine::new(1)).expect("reference corpus");
    dataset
}

fn assert_bit_identical(a: &ParameterDataset, b: &ParameterDataset, what: &str) {
    assert_eq!(a.records().len(), b.records().len(), "{what}: record count");
    for (x, y) in a.records().iter().zip(b.records()) {
        assert_eq!(x.graph_id, y.graph_id, "{what}: graph_id");
        assert_eq!(x.depth, y.depth, "{what}: depth");
        assert_eq!(
            x.expectation.to_bits(),
            y.expectation.to_bits(),
            "{what}: expectation bits (graph {}, depth {})",
            x.graph_id,
            x.depth
        );
        assert_eq!(
            x.approximation_ratio.to_bits(),
            y.approximation_ratio.to_bits(),
            "{what}: ar bits"
        );
        assert_eq!(x.function_calls, y.function_calls, "{what}: fn calls");
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x.gammas), bits(&y.gammas), "{what}: gammas");
        assert_eq!(bits(&x.betas), bits(&y.betas), "{what}: betas");
    }
}

#[test]
fn spawned_workers_match_the_unsharded_corpus() {
    let config = spec(5);
    let unsharded = reference(&config);
    let cmd = serve_cmd(&["--threads", "1", "--seed", "77"]);
    for shards in [2usize, 3] {
        let plan = ShardPlan::split_even(config.n_graphs, shards);
        let mut transport =
            SubprocessTransport::spawn(&cmd, 2).expect("spawning qaoa-serve workers");
        let (merged, report) =
            shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
                .expect("subprocess shard run");
        assert_eq!(report.lost_workers, 0);
        assert_eq!(report.retasked, 0);
        assert_bit_identical(
            &unsharded,
            &merged,
            &format!("{shards} shards over subprocesses"),
        );
    }
}

#[test]
fn killed_subprocess_worker_still_matches() {
    // Kill a real worker process after its first delivered line: the
    // coordinator must detect the death (closed pipe), re-task the range
    // onto the surviving process, and still merge bit-identically.
    let config = spec(5);
    let unsharded = reference(&config);
    let plan = ShardPlan::split_even(config.n_graphs, 3);
    let cmd = serve_cmd(&["--threads", "1", "--seed", "77"]);
    let inner = SubprocessTransport::spawn(&cmd, 2).expect("spawning qaoa-serve workers");
    let mut transport = FaultAfter::new(inner, 0, 1, Fault::Kill);
    let (merged, report) =
        shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
            .expect("failover over subprocesses");
    assert_eq!(
        report.lost_workers, 1,
        "the killed process must be declared dead"
    );
    assert!(report.retasked >= 1, "its range must be re-tasked");
    assert_bit_identical(&unsharded, &merged, "kill-one-subprocess run");
}

#[test]
fn half_written_line_from_a_dying_worker_is_retasked() {
    // Worker 0 takes its SHARD and RANGE lines, writes half a RECORD line
    // with no newline, and exits: the unterminated tail is not a line, so
    // the coordinator must see a dead worker and re-task its range onto
    // the real `qaoa-serve` worker, not fail the run on a torn record.
    let config = spec(5);
    let unsharded = reference(&config);
    let plan = ShardPlan::split_even(config.n_graphs, 2);
    let dying = [
        "sh",
        "-c",
        "read a; read b; printf 'QW1 RECORD 0 1 3ff'; exit 1",
    ];
    let commands = vec![
        dying.iter().map(ToString::to_string).collect(),
        serve_cmd(&["--threads", "1", "--seed", "77"]),
    ];
    let mut transport = SubprocessTransport::spawn_each(&commands).expect("spawning workers");
    let (merged, report) =
        shard::run_wire(&config, &plan, &mut transport, &StreamOptions::default())
            .expect("a torn last line is worker death, not a protocol error");
    assert_eq!(report.lost_workers, 1);
    assert_eq!(report.retasked, 1);
    assert_bit_identical(&unsharded, &merged, "half-line worker run");
}

#[test]
fn spawned_server_answers_predict_from_a_model_artifact() {
    // The prediction service over the subprocess transport: train a tiny
    // predictor, persist it as a QMODEL1 artifact, spawn `qaoa-serve
    // --model` on it, and get a tiered PREDICTED answer over the pipe.
    let config = spec(4);
    let corpus = reference(&config);
    let predictor =
        qaoa::ParameterPredictor::train(ml::ModelKind::Gpr, &corpus).expect("tiny predictor");
    let model_path =
        std::env::temp_dir().join(format!("qaoa_subprocess_model_{}.qm", std::process::id()));
    engine::model::save(&predictor, &model_path, config.seed).expect("model artifact");

    let cmd = serve_cmd(&[
        "--threads",
        "1",
        "--seed",
        "77",
        "--model",
        model_path.to_str().expect("utf-8 temp path"),
    ]);
    let mut transport = SubprocessTransport::spawn(&cmd, 1).expect("spawning qaoa-serve");
    let graph = engine::corpus::ensemble(&config)
        .into_iter()
        .next()
        .expect("ensemble has a graph");
    let request = wire::PredictRequest {
        id: 42,
        depth: 2,
        restarts: config.restarts,
        graph,
    };
    let line = wire::encode_predict(&request).expect("encodable request");
    transport
        .send_line(0, &line)
        .expect("request reaches the worker");
    let answer = transport
        .recv_line(0, Duration::from_secs(60))
        .expect("worker answers");
    let predicted = wire::decode_predicted(&answer).expect("well-formed PREDICTED line");
    assert_eq!(predicted.id, 42);
    assert_eq!(
        predicted.params.len(),
        2 * request.depth,
        "a depth-p answer carries 2p parameters"
    );
    assert!(predicted.params.iter().all(|p| p.is_finite()));
    transport.close(0);
    std::fs::remove_file(&model_path).ok();
}

#[test]
fn qaoa_shard_cli_matches_the_unsharded_corpus_tsv() {
    // The full CLI path: `qaoa-shard` in its default mode and with
    // `--workers spawn:2` must each write to stdout exactly the TSV bytes
    // `engine::corpus::generate` produces for the same spec.
    let shard_bin = env!("CARGO_BIN_EXE_qaoa-shard");
    let serve_bin = env!("CARGO_BIN_EXE_qaoa-serve");
    let common = [
        "--quick",
        "--graphs",
        "5",
        "--nodes",
        "4",
        "--max-depth",
        "2",
        "--restarts",
        "2",
        "--seed",
        "77",
        "--threads",
        "1",
    ];
    let config = RunConfig::parse(common.iter().map(ToString::to_string)).expect("valid flags");
    let mut expected = Vec::new();
    reference(&config.datagen())
        .write_tsv(&mut expected)
        .expect("in-memory TSV");
    assert!(!expected.is_empty());

    let run = |extra: &[&str]| -> (Vec<u8>, String) {
        let output = std::process::Command::new(shard_bin)
            .args(common)
            .args(extra)
            .output()
            .expect("qaoa-shard runs");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(
            output.status.success(),
            "qaoa-shard {extra:?} failed: {stderr}"
        );
        (output.stdout, stderr)
    };
    let cache_path = std::env::temp_dir().join(format!(
        "qaoa_subprocess_shard_{}.cache",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    let (default_tsv, stderr) = run(&[
        "--cache-file",
        cache_path.to_str().expect("utf-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&cache_path);
    assert_eq!(
        default_tsv, expected,
        "default-mode stdout TSV differs from engine::corpus"
    );
    // The coordinator's cache only collects worker entries; it must not
    // claim a hit/miss count it never measured.
    assert!(
        stderr.contains("saved "),
        "no cache-file save line: {stderr}"
    );
    assert!(!stderr.contains("hits /"), "unmeasured hit count: {stderr}");
    let (spawned, _) = run(&[
        "--shards",
        "3",
        "--workers",
        "spawn:2",
        "--worker-cmd",
        serve_bin,
    ]);
    assert_eq!(
        spawned, expected,
        "spawn-mode stdout TSV differs from engine::corpus"
    );
}

#[test]
fn qaoa_shard_rejects_a_kill_worker_it_does_not_run() {
    // `--kill-worker 5` with two workers would kill nothing; the CLI must
    // refuse it before any worker starts.
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_qaoa-shard"))
        .args([
            "--quick",
            "--graphs",
            "4",
            "--nodes",
            "4",
            "--max-depth",
            "1",
        ])
        .args(["--workers", "loopback:2", "--kill-worker", "5"])
        .output()
        .expect("qaoa-shard runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--kill-worker 5"), "stderr: {stderr}");
    assert!(!stderr.contains("# qaoa-shard:"), "a run started: {stderr}");
    assert!(output.stdout.is_empty(), "a corpus was written");
}
