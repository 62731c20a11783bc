//! `perfbench-tracer`: the in-process, traced half of the benchmark.
//!
//! `perfbench/run.py` measures the shipped release binaries with tracing
//! off. This program re-runs each workload in-process, through the public
//! functions of every layer, and records a span (name, start, end, parent)
//! around each call. It writes three things:
//!
//! * the workload's output (Table-I text, `PREDICTED` transcript, or merged
//!   corpus TSV), which the runner compares byte-for-byte with the
//!   binaries' output;
//! * the spans, one JSON object per line, for self-time accounting;
//! * one JSON line of per-layer metrics on stdout.
//!
//! ```text
//! perfbench-tracer table1  --seed S --nodes N --graphs G --restarts R --max-depth D
//!                          --threads T --sample-graphs K --out ROWS --spans SPANS
//! perfbench-tracer predict --model PATH --model-seed S --threads T --requests IN
//!                          --out TRANSCRIPT --spans SPANS
//! perfbench-tracer shard   --seed S --nodes N --graphs G --restarts R --max-depth D
//!                          --threads T --worker-threads W --workers K --shards M
//!                          --worker-cmd PATH
//!                          --reference TSV --out TSV --spans SPANS
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use engine::shard::{ShardPlan, StreamOptions};
use engine::wire::{self, AnswerTier};
use engine::{BatchConfig, Engine, Level1Key, ShardTransport, SubprocessTransport, TransportError};
use graphs::Graph;
use ml::ModelKind;
use optimize::{Lbfgsb, Optimizer};
use qaoa::canonical::graph_key;
use qaoa::evaluation::{self, cell_seed, graph_seed, EvaluationConfig};
use qaoa::{
    EvalContext, MaxCutProblem, ParameterPredictor, QaoaAnsatz, ScenarioInstance, TwoLevelConfig,
    TwoLevelFlow,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Result<T> = std::result::Result<T, String>;

// --- spans -----------------------------------------------------------------

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span recorder for calls made from this (single) thread.
struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and duration.
    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let parent = self.stack.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.t0.elapsed(),
                end: Duration::ZERO,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(index);
        let out = f();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[index].end = self.t0.elapsed();
        (out, spans[index].end - spans[index].start)
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    fn write(&self, path: &Path) -> Result<()> {
        let mut text = String::new();
        for span in self.spans.borrow().iter() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}\n",
                span.name,
                span.start.as_secs_f64() * 1e6,
                span.end.as_secs_f64() * 1e6,
            ));
        }
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

// --- small helpers ---------------------------------------------------------

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Self> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Self(map))
    }

    fn str(&self, key: &str) -> Result<&str> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }

    fn path(&self, key: &str) -> Result<PathBuf> {
        Ok(PathBuf::from(self.str(key)?))
    }
}

type Metrics = BTreeMap<&'static str, f64>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn count(n: usize) -> f64 {
    n as f64
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * count(sorted.len())).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// User + system CPU seconds of this process so far, from
/// `/proc/self/stat` (clock ticks at the Linux default of 100 Hz).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Mean time of one `expectation_in` and one `expectation_and_grad_in`
/// call for `graph` at `depth` and `params`, in microseconds.
fn kernel_us(graph: &Graph, depth: usize, params: &[f64]) -> Result<(f64, f64)> {
    let problem = MaxCutProblem::new(graph).map_err(|e| e.to_string())?;
    let n = problem.n_qubits();
    let ansatz = QaoaAnsatz::new(problem, depth).map_err(|e| e.to_string())?;
    let mut ctx = EvalContext::new(n);
    let mut grad = vec![0.0; params.len()];
    ansatz
        .expectation_in(&mut ctx, params)
        .map_err(|e| e.to_string())?;
    let exp = time_per_call(|| {
        black_box(ansatz.expectation_in(&mut ctx, black_box(params)).is_ok());
    });
    let grad_time = time_per_call(|| {
        let value = ansatz.expectation_and_grad_in(&mut ctx, black_box(params), &mut grad);
        black_box(value.is_ok());
    });
    Ok((exp, grad_time))
}

/// Mean µs per call of `f`, repeated in batches of 16 until 20 ms have passed.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while start.elapsed() < Duration::from_millis(20) {
        for _ in 0..16 {
            f();
        }
        calls += 16;
    }
    us(start.elapsed()) / count(calls)
}

/// Kernel timings per `(n, p)`, measured once each on the first graph of
/// that size the workload supplies.
#[derive(Default)]
struct KernelTable {
    by_shape: BTreeMap<(usize, usize), (f64, f64)>,
    /// Call-weighted sums per `n`: (calls, exp-weighted, grad calls, grad-weighted).
    mix: BTreeMap<usize, (f64, f64, f64, f64)>,
}

impl KernelTable {
    fn cost(&mut self, tracer: &Tracer, graph: &Graph, depth: usize) -> Result<(f64, f64)> {
        let key = (graph.n_nodes(), depth);
        if let Some(&cost) = self.by_shape.get(&key) {
            return Ok(cost);
        }
        // Fixed, mid-range parameters: the kernels' cost does not depend on
        // the values.
        let params: Vec<f64> = (0..2 * depth).map(|i| 0.1 + 0.05 * count(i)).collect();
        let cost = tracer.span("sample.kernel", || kernel_us(graph, depth, &params))?;
        self.by_shape.insert(key, cost);
        Ok(cost)
    }

    /// Adds `nfev` objective calls, `njev` of them with a gradient, at
    /// `(graph, depth)` to the workload mix; returns their modelled
    /// pure-kernel time in µs.
    fn charge(
        &mut self,
        tracer: &Tracer,
        graph: &Graph,
        depth: usize,
        nfev: usize,
        njev: usize,
    ) -> Result<f64> {
        let (exp, grad) = self.cost(tracer, graph, depth)?;
        // A gradient call also yields the value, so only the value calls
        // beyond the gradient calls are priced as plain expectations.
        let value_only = nfev.saturating_sub(njev);
        let entry = self.mix.entry(graph.n_nodes()).or_default();
        entry.0 += count(value_only);
        entry.1 += count(value_only) * exp;
        entry.2 += count(njev);
        entry.3 += count(njev) * grad;
        Ok(count(value_only) * exp + count(njev) * grad)
    }

    /// Writes `eval.exp_us.nN` / `eval.grad_us.nN` (call-weighted over the
    /// mix) and `eval.bytes_per_call` (computed, not measured).
    fn report(&self, metrics: &mut Metrics) {
        for (n, exp_key, grad_key) in [
            (6, "eval.exp_us.n6", "eval.grad_us.n6"),
            (8, "eval.exp_us.n8", "eval.grad_us.n8"),
            (12, "eval.exp_us.n12", "eval.grad_us.n12"),
        ] {
            // Call-weighted over the workload's depth mix; where it made no
            // calls of a kind, the plain mean over the depths it timed.
            let shapes: Vec<(f64, f64)> = self
                .by_shape
                .iter()
                .filter(|((size, _), _)| *size == n)
                .map(|(_, &cost)| cost)
                .collect();
            let plain = |pick: fn(&(f64, f64)) -> f64| {
                shapes.iter().map(pick).sum::<f64>() / count(shapes.len().max(1))
            };
            let (calls, exp_w, gcalls, grad_w) = self.mix.get(&n).copied().unwrap_or_default();
            let exp = if calls > 0.0 {
                exp_w / calls
            } else {
                plain(|c| c.0)
            };
            let grad = if gcalls > 0.0 {
                grad_w / gcalls
            } else {
                plain(|c| c.1)
            };
            metrics.insert(exp_key, exp);
            metrics.insert(grad_key, grad);
        }
        // 2^n amplitudes x 16 B (split re/im f64) x (2p + 2) state passes:
        // initial state, p cost-phase layers, p mixer layers, final reduction.
        let mut bytes = 0.0;
        let mut shapes = 0.0;
        for &(n, p) in self.by_shape.keys() {
            bytes += f64::powi(2.0, n as i32) * 16.0 * count(2 * p + 2);
            shapes += 1.0;
        }
        metrics.insert(
            "eval.bytes_per_call",
            if shapes > 0.0 { bytes / shapes } else { 0.0 },
        );
    }
}

fn print_metrics(metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!("{{{}}}", body.join(","));
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<()> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Times `graph_key` over `graphs`: key count and p50/p99 in µs.
fn canonical_metrics(tracer: &Tracer, graphs: &[Graph], metrics: &mut Metrics) {
    let times: Vec<f64> = graphs
        .iter()
        .map(|g| us(tracer.timed("canonical.key", || black_box(graph_key(g))).1))
        .collect();
    metrics.insert("canonical.keys", count(times.len()));
    metrics.insert("canonical.key_us.p50", percentile(&times, 0.5));
    metrics.insert("canonical.key_us.p99", percentile(&times, 0.99));
}

/// Times cold depth-1 solves (fresh engine, so every call misses) of the
/// first `k` graphs: median ms.
fn solve_ms(
    tracer: &Tracer,
    graphs: &[Graph],
    restarts: usize,
    seed: u64,
    k: usize,
) -> Result<f64> {
    let config = BatchConfig {
        master_seed: seed,
        ..BatchConfig::default()
    };
    let mut times = Vec::new();
    for graph in graphs.iter().take(k) {
        let cold = Engine::new(1);
        let (solved, took) = tracer.timed("cache.solve", || {
            cold.level1_cached(graph, &Lbfgsb::default(), restarts, &config)
        });
        solved.map_err(|e| e.to_string())?;
        times.push(ms(took));
    }
    Ok(percentile(&times, 0.5))
}

fn bench_config(args: &Args) -> Result<bench::RunConfig> {
    let flags: Vec<String> = [
        ("--nodes", args.str("nodes")?),
        ("--graphs", args.str("graphs")?),
        ("--restarts", args.str("restarts")?),
        ("--max-depth", args.str("max-depth")?),
        ("--seed", args.str("seed")?),
        ("--threads", args.str("threads")?),
    ]
    .iter()
    .flat_map(|(k, v)| [k.to_string(), v.to_string()])
    .collect();
    bench::RunConfig::parse(flags)
}

// --- table1-n8 ---------------------------------------------------------------

/// Corpus -> GPR training -> Table-I sweep, as the `table1` binary runs it,
/// plus per-cell protocol and kernel timings on a fixed sample of cells.
fn table1(args: &Args, tracer: &Tracer, metrics: &mut Metrics) -> Result<()> {
    let config = bench_config(args)?;
    let sample_graphs: usize = args.num("sample-graphs")?;
    let engine = Engine::new(config.threads());

    let cpu_start = cpu_seconds();
    let (generated, corpus_time) = tracer.timed("stage.corpus", || {
        engine::corpus::generate(&config.datagen(), &engine)
    });
    let (dataset, _) = generated.map_err(|e| e.to_string())?;
    let (train, test) = dataset.split_by_graph(0.2);
    let (predictor, train_time) = tracer.timed("stage.train", || {
        ParameterPredictor::train(ModelKind::Gpr, &train)
    });
    let predictor = predictor.map_err(|e| e.to_string())?;
    let scenario = config.scenario()?;
    let eval = EvaluationConfig {
        depths: (2..=config.max_depth.min(5)).collect(),
        naive_starts: config.naive_starts(),
        level1_starts: 1,
        options: bench::cli::scenario::tuned_options(&scenario, Default::default()),
        seed: config.seed,
        scenario,
    };
    let optimizers = optimize::all_optimizers();
    let pool = bench::cli::pool(&config);
    let (rows, sweep_time) = tracer.timed("stage.sweep", || {
        engine::compare::compare(test.graphs(), &optimizers, &predictor, &eval, &pool)
    });
    let rows = rows.map_err(|e| e.to_string())?;
    let pipeline_cpu = cpu_seconds() - cpu_start;

    // The Table-I text exactly as `table1` prints it.
    let mut text = format!(
        "# Table I: naive random init vs two-level ML init (FC in thousands of calls, \
         scenario {})\n{}\n",
        eval.scenario,
        evaluation::table_header()
    );
    for row in &rows {
        text.push_str(&row.to_table_line());
        text.push('\n');
    }
    write_file(&args.path("out")?, text.as_bytes())?;

    let busy_wall = (corpus_time + sweep_time).as_secs_f64() * count(config.threads());
    metrics.insert("stage.corpus_s", corpus_time.as_secs_f64());
    metrics.insert("stage.train_s", train_time.as_secs_f64());
    metrics.insert("stage.sweep_s", sweep_time.as_secs_f64());
    metrics.insert("pool.busy_frac", pipeline_cpu / busy_wall.max(1e-9));
    metrics.insert("ml.train_ms", ms(train_time));
    metrics.insert("cache.hits", count(engine.cache().hits()));
    metrics.insert("cache.misses", count(engine.cache().misses()));
    metrics.insert(
        "trace.wall_s",
        (corpus_time + train_time + sweep_time).as_secs_f64(),
    );

    // Sampled cells: every (optimizer, depth) cell on the first test graphs.
    let mut kernels = KernelTable::default();
    let mut protocol_time = Duration::ZERO;
    let mut calls = 0usize;
    let mut kernel_time_us = 0.0;
    let sample = &test.graphs()[..sample_graphs.min(test.graphs().len())];
    for (oi, optimizer) in optimizers.iter().enumerate() {
        for (di, &depth) in eval.depths.iter().enumerate() {
            let seed = cell_seed(eval.seed, oi, di);
            for (gi, graph) in sample.iter().enumerate() {
                let naive_seed = graph_seed(seed, gi);
                let (naive, took) = tracer.timed("sample.protocol", || {
                    evaluation::naive_protocol_graph(
                        graph,
                        depth,
                        optimizer.as_ref(),
                        eval.naive_starts,
                        &eval.options,
                        naive_seed,
                        &eval.scenario,
                    )
                });
                naive.map_err(|e| e.to_string())?;
                protocol_time += took;
                let (nfev, njev) =
                    naive_counts(graph, depth, optimizer.as_ref(), &eval, naive_seed)?;
                calls += nfev + njev;
                kernel_time_us += kernels.charge(tracer, graph, depth, nfev, njev)?;

                let ml_seed = graph_seed(seed.wrapping_add(500), gi);
                let (ml, took) = tracer.timed("sample.protocol", || {
                    evaluation::two_level_protocol_graph(
                        graph,
                        depth,
                        optimizer.as_ref(),
                        &predictor,
                        eval.level1_starts,
                        &eval.options,
                        ml_seed,
                        &eval.scenario,
                    )
                });
                ml.map_err(|e| e.to_string())?;
                protocol_time += took;
                let outcome = two_level_outcome(
                    graph,
                    depth,
                    optimizer.as_ref(),
                    &predictor,
                    &eval,
                    ml_seed,
                )?;
                calls += outcome.total_calls() + outcome.gradient_calls;
                kernel_time_us += kernels.charge(tracer, graph, 1, outcome.level1_calls, 0)?;
                kernel_time_us += kernels.charge(
                    tracer,
                    graph,
                    depth,
                    outcome.intermediate_calls + outcome.level2_calls,
                    outcome.gradient_calls,
                )?;
            }
        }
    }
    optimize_metrics(metrics, protocol_time, calls, kernel_time_us);
    kernels.report(metrics);

    canonical_metrics(tracer, dataset.graphs(), metrics);
    metrics.insert(
        "cache.solve_ms",
        solve_ms(tracer, sample, config.restarts, config.seed, sample.len())?,
    );

    // GPR predictions from each test graph's depth-1 optimum.
    let mut predict_times = Vec::new();
    for graph_id in 0..test.graphs().len() {
        let Some(level1) = test.record(graph_id, 1) else {
            continue;
        };
        let (Some(&gamma), Some(&beta)) = (level1.gammas.first(), level1.betas.first()) else {
            continue;
        };
        for depth in 2..=predictor.max_depth() {
            let (predicted, took) =
                tracer.timed("ml.predict", || predictor.predict(gamma, beta, depth));
            predicted.map_err(|e| e.to_string())?;
            predict_times.push(us(took));
        }
    }
    metrics.insert("ml.predict_us", percentile(&predict_times, 0.5));
    Ok(())
}

/// `nfev` and `njev` of the naive protocol for one graph: the same starts
/// and optimizer runs `naive_protocol_graph` makes, with gradient calls kept.
fn naive_counts(
    graph: &Graph,
    depth: usize,
    optimizer: &dyn Optimizer,
    eval: &EvaluationConfig,
    seed: u64,
) -> Result<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = qaoa::parameter_bounds(depth).map_err(|e| e.to_string())?;
    let problem = MaxCutProblem::new(graph).map_err(|e| e.to_string())?;
    let instance =
        ScenarioInstance::new(problem, depth, &eval.scenario, seed).map_err(|e| e.to_string())?;
    let (mut nfev, mut njev) = (0, 0);
    for _ in 0..eval.naive_starts {
        let start = bounds.sample(&mut rng);
        let out = instance
            .optimize(optimizer, &start, &eval.options)
            .map_err(|e| e.to_string())?;
        nfev += out.function_calls;
        njev += out.gradient_calls;
    }
    Ok((nfev, njev))
}

/// The two-level flow for one graph, as `two_level_protocol_graph` runs it,
/// returning the full outcome (level and gradient call counts).
fn two_level_outcome(
    graph: &Graph,
    depth: usize,
    optimizer: &dyn Optimizer,
    predictor: &ParameterPredictor,
    eval: &EvaluationConfig,
    seed: u64,
) -> Result<qaoa::TwoLevelOutcome> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = TwoLevelConfig {
        level1_starts: eval.level1_starts,
        options: eval.options,
    };
    let problem = MaxCutProblem::new(graph).map_err(|e| e.to_string())?;
    TwoLevelFlow::new(predictor)
        .run_scenario(
            &problem,
            depth,
            optimizer,
            &config,
            &mut rng,
            &eval.scenario,
            seed,
        )
        .map_err(|e| e.to_string())
}

fn optimize_metrics(metrics: &mut Metrics, time: Duration, calls: usize, kernel_us: f64) {
    metrics.insert("optimize.calls", count(calls));
    metrics.insert(
        "optimize.us_per_call",
        if calls > 0 {
            us(time) / count(calls)
        } else {
            0.0
        },
    );
    metrics.insert(
        "optimize.overhead_ratio",
        if kernel_us > 0.0 {
            us(time) / kernel_us
        } else {
            0.0
        },
    );
}

// --- predict-mixed -------------------------------------------------------------

/// Replays a `PREDICT` stream through the calls the server makes to answer
/// each request: decode, canonical key, memo, cache peek, then the tier's
/// work (cached optimum / GPR predict / warm-start solve), then encode.
fn predict(args: &Args, tracer: &Tracer, metrics: &mut Metrics) -> Result<()> {
    let seed: u64 = args.num("model-seed")?;
    let threads: usize = args.num("threads")?;
    let model_path = args.path("model")?;
    let predictor = match tracer.span("setup.model_load", || {
        engine::model::load(&model_path, seed)
    }) {
        engine::ModelLoad::Loaded(predictor) => predictor,
        other => return Err(format!("model fixture: {}", other.summary())),
    };
    let engine = Engine::new(threads);
    let config = BatchConfig {
        master_seed: seed,
        options: Default::default(),
        use_cache: true,
        scenario: qaoa::Scenario::Exact,
    };
    let optimizer = Lbfgsb::default();
    let requests = std::fs::read_to_string(args.path("requests")?)
        .map_err(|e| format!("reading requests: {e}"))?;

    let mut memo: BTreeMap<(Level1Key, usize), (AnswerTier, Vec<f64>)> = BTreeMap::new();
    let mut transcript = String::new();
    let mut tiers = [0usize; 3];
    let mut memo_hits = 0usize;
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut key_times = Vec::new();
    let mut decode_times = Vec::new();
    let mut encode_times = Vec::new();
    let mut predict_times = Vec::new();
    let mut solve_times = Vec::new();
    let mut tier3_times = Vec::new();
    let mut wire_bytes = 0usize;
    let mut tier3_busy = Duration::ZERO;
    let mut tier3_wall = Duration::ZERO;
    let mut calls = 0usize;
    // Tier-3 optimizer calls as (graph, depth, nfev, njev), priced against
    // the kernels after the replay so kernel timing stays out of its spans.
    let mut charges: Vec<(Graph, usize, usize, usize)> = Vec::new();
    let mut replay_time = Duration::ZERO;

    for line in requests.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let (answer, took) = tracer.timed("request", || -> Result<(String, AnswerTier, bool)> {
            wire_bytes += line.len() + 1;
            let (request, took) = tracer.timed("wire.decode", || wire::decode_predict(line));
            decode_times.push(us(took));
            let request = request.map_err(|e| e.to_string())?;
            if request.depth > predictor.max_depth() {
                return Err(format!("PREDICT {} beyond the model depth", request.id));
            }
            let (class, took) = tracer.timed("canonical.key", || graph_key(&request.graph));
            key_times.push(us(took));
            let key = Level1Key::new(class, request.restarts);
            let memo_key = (key.clone(), request.depth);
            let memoized = memo.get(&memo_key).filter(|_| request.depth > 1).cloned();
            let from_memo = memoized.is_some();
            let (tier, params) = if let Some(answer) = memoized {
                answer
            } else {
                let cached = tracer.span("cache.peek", || engine.cache().peek(&key));
                if cached.is_some() {
                    hits += 1
                } else {
                    misses += 1
                }
                let answered = match cached {
                    Some(level1) if request.depth == 1 => (AnswerTier::CachedExact, level1.params),
                    Some(level1) => {
                        let (Some(&gamma), Some(&beta)) =
                            (level1.params.first(), level1.params.get(1))
                        else {
                            return Err("cached depth-1 optimum carries no parameters".into());
                        };
                        let (predicted, took) = tracer.timed("ml.predict", || {
                            predictor.predict(gamma, beta, request.depth)
                        });
                        predict_times.push(us(took));
                        (AnswerTier::Model, predicted.map_err(|e| e.to_string())?)
                    }
                    None if request.depth == 1 => {
                        let (solved, took) = tracer.timed("cache.solve", || {
                            engine.level1_cached(
                                &request.graph,
                                &optimizer,
                                request.restarts,
                                &config,
                            )
                        });
                        let (outcome, _) = solved.map_err(|e| e.to_string())?;
                        solve_times.push(ms(took));
                        tier3_wall += took;
                        tier3_busy += took;
                        calls += outcome.function_calls + outcome.gradient_calls;
                        charges.push((
                            request.graph.clone(),
                            1,
                            outcome.function_calls,
                            outcome.gradient_calls,
                        ));
                        (AnswerTier::WarmStart, outcome.params)
                    }
                    None => {
                        let (batch, took) = tracer.timed("engine.two_level", || {
                            engine.run_two_level_batch(
                                std::slice::from_ref(&request.graph),
                                request.depth,
                                &optimizer,
                                &predictor,
                                request.restarts,
                                &config,
                            )
                        });
                        let (outcomes, report) = batch.map_err(|e| e.to_string())?;
                        let outcome = outcomes
                            .into_iter()
                            .next()
                            .ok_or("two-level batch returned no outcome")?;
                        tier3_wall += took;
                        tier3_busy += report.busy();
                        calls += outcome.total_calls() + outcome.gradient_calls;
                        charges.push((request.graph.clone(), 1, outcome.level1_calls, 0));
                        charges.push((
                            request.graph.clone(),
                            request.depth,
                            outcome.intermediate_calls + outcome.level2_calls,
                            outcome.gradient_calls,
                        ));
                        (AnswerTier::WarmStart, outcome.params)
                    }
                };
                if request.depth > 1 {
                    memo.insert(memo_key, answered.clone());
                }
                answered
            };
            let answer = wire::Predicted {
                id: request.id,
                tier,
                params,
            };
            let (encoded, took) = tracer.timed("wire.encode", || wire::encode_predicted(&answer));
            encode_times.push(us(took));
            wire_bytes += encoded.len() + 1;
            Ok((encoded, tier, from_memo))
        });
        let (encoded, tier, from_memo) = answer?;
        match (from_memo, tier) {
            (true, _) => memo_hits += 1,
            (false, AnswerTier::CachedExact) => tiers[0] += 1,
            (false, AnswerTier::Model) => tiers[1] += 1,
            (false, AnswerTier::WarmStart) => {
                tiers[2] += 1;
                tier3_times.push(ms(took));
            }
        }
        replay_time += took;
        transcript.push_str(&encoded);
        transcript.push('\n');
    }
    write_file(&args.path("out")?, transcript.as_bytes())?;

    let mut kernels = KernelTable::default();
    let mut kernel_time_us = 0.0;
    for (graph, depth, nfev, njev) in &charges {
        kernel_time_us += kernels.charge(tracer, graph, *depth, *nfev, *njev)?;
    }
    metrics.insert("trace.wall_s", replay_time.as_secs_f64());
    metrics.insert("server.tier1", count(tiers[0]));
    metrics.insert("server.tier2", count(tiers[1]));
    metrics.insert("server.tier3", count(tiers[2]));
    metrics.insert("server.memo", count(memo_hits));
    metrics.insert("server.tier3_ms.p50", percentile(&tier3_times, 0.5));
    metrics.insert("server.tier3_ms.p99", percentile(&tier3_times, 0.99));
    metrics.insert("canonical.keys", count(key_times.len()));
    metrics.insert("canonical.key_us.p50", percentile(&key_times, 0.5));
    metrics.insert("canonical.key_us.p99", percentile(&key_times, 0.99));
    metrics.insert("cache.hits", count(hits));
    metrics.insert("cache.misses", count(misses));
    metrics.insert("cache.solve_ms", percentile(&solve_times, 0.5));
    metrics.insert("ml.predict_us", percentile(&predict_times, 0.5));
    metrics.insert("wire.predict_decode_us", percentile(&decode_times, 0.5));
    metrics.insert("wire.predicted_encode_us", percentile(&encode_times, 0.5));
    metrics.insert("wire.bytes", count(wire_bytes));
    metrics.insert(
        "pool.busy_frac",
        tier3_busy.as_secs_f64() / (tier3_wall.as_secs_f64() * count(threads)).max(1e-9),
    );
    optimize_metrics(metrics, tier3_wall, calls, kernel_time_us);
    kernels.report(metrics);
    Ok(())
}

// --- shard-spawn ----------------------------------------------------------------

/// A [`ShardTransport`] wrapper that times every receive (the coordinator's
/// wait for workers), counts wire bytes, and times the `RECORD` codec on
/// the lines that actually cross the wire. Built like `engine::KillAfter`.
struct TracedTransport<'a, T: ShardTransport> {
    inner: T,
    tracer: &'a Tracer,
    recv_wait: Duration,
    bytes: usize,
    decode_times: Vec<f64>,
    encode_times: Vec<f64>,
}

impl<'a, T: ShardTransport> TracedTransport<'a, T> {
    fn new(inner: T, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            recv_wait: Duration::ZERO,
            bytes: 0,
            decode_times: Vec::new(),
            encode_times: Vec::new(),
        }
    }
}

impl<T: ShardTransport> ShardTransport for TracedTransport<'_, T> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> std::result::Result<(), TransportError> {
        self.bytes += line.len() + 1;
        let inner = &mut self.inner;
        self.tracer
            .span("transport.send", || inner.send_line(worker, line))
    }

    fn recv_line(
        &mut self,
        worker: usize,
        wait: Duration,
    ) -> std::result::Result<String, TransportError> {
        let inner = &mut self.inner;
        let (line, took) = self
            .tracer
            .timed("transport.recv", || inner.recv_line(worker, wait));
        self.recv_wait += took;
        if let Ok(line) = &line {
            self.bytes += line.len() + 1;
            if wire::message_type(line) == Ok("RECORD") {
                let (record, took) = self
                    .tracer
                    .timed("wire.codec", || wire::decode_record(line));
                self.decode_times.push(us(took));
                if let Ok(record) = record {
                    let (_, took) = self
                        .tracer
                        .timed("wire.codec", || black_box(wire::encode_record(&record)));
                    self.encode_times.push(us(took));
                }
            }
        }
        line
    }

    fn kill(&mut self, worker: usize) {
        self.inner.kill(worker);
    }

    fn close(&mut self, worker: usize) {
        self.inner.close(worker);
    }
}

/// In-process reference corpus (`engine::corpus`), then the streaming
/// coordinator over spawned `qaoa-serve` workers behind a timing wrapper.
fn shard(args: &Args, tracer: &Tracer, metrics: &mut Metrics) -> Result<()> {
    let config = bench_config(args)?;
    let spec = config.datagen();
    let workers: usize = args.num("workers")?;
    let shards: usize = args.num("shards")?;
    let worker_cmd = args.str("worker-cmd")?.to_string();

    let engine = Engine::new(config.threads());
    let cpu_start = cpu_seconds();
    let (generated, corpus_time) =
        tracer.timed("stage.corpus", || engine::corpus::generate(&spec, &engine));
    let (dataset, report) = generated.map_err(|e| e.to_string())?;
    let corpus_cpu = cpu_seconds() - cpu_start;
    let mut reference = Vec::new();
    dataset
        .write_tsv(&mut reference)
        .map_err(|e| e.to_string())?;
    write_file(&args.path("reference")?, &reference)?;

    // The worker argv `qaoa-shard --workers spawn:K` builds.
    let command = vec![
        worker_cmd,
        "--threads".to_string(),
        args.str("worker-threads")?.to_string(),
        "--seed".to_string(),
        config.seed.to_string(),
    ];
    let commands = vec![command; workers];
    let (transport, spawn_time) =
        tracer.timed("shard.spawn", || SubprocessTransport::spawn_each(&commands));
    let transport = transport.map_err(|e| e.to_string())?;
    let mut traced = TracedTransport::new(transport, tracer);
    let plan = ShardPlan::split_even(config.graphs, shards);
    let graphs = engine::corpus::ensemble(&spec);
    let options = StreamOptions {
        timeout: Duration::from_secs(config.timeout_secs.max(1)),
        ..StreamOptions::default()
    };
    let mut merged = Vec::new();
    qaoa::datagen::write_tsv_header(&mut merged).map_err(|e| e.to_string())?;
    let (streamed, stream_time) = tracer.timed("shard.stream", || {
        engine::shard::run_streaming(&spec, &plan, &mut traced, &options, &mut |record| {
            qaoa::datagen::write_tsv_record(&mut merged, &record, &graphs[record.graph_id])
                .map_err(|e| e.to_string())
        })
    });
    let streamed = streamed.map_err(|e| e.to_string())?;
    write_file(&args.path("out")?, &merged)?;

    metrics.insert("trace.wall_s", (spawn_time + stream_time).as_secs_f64());
    metrics.insert("shard.spawn_ms", ms(spawn_time));
    metrics.insert(
        "shard.recv_wait_frac",
        traced.recv_wait.as_secs_f64() / stream_time.as_secs_f64().max(1e-9),
    );
    metrics.insert(
        "shard.peak_buffered_records",
        count(streamed.peak_buffered_records),
    );
    metrics.insert("shard.retasks", count(streamed.retasked));
    metrics.insert(
        "wire.record_decode_us",
        percentile(&traced.decode_times, 0.5),
    );
    metrics.insert(
        "wire.record_encode_us",
        percentile(&traced.encode_times, 0.5),
    );
    metrics.insert("wire.bytes", count(traced.bytes));
    metrics.insert("stage.corpus_s", corpus_time.as_secs_f64());
    metrics.insert(
        "pool.busy_frac",
        corpus_cpu / (corpus_time.as_secs_f64() * count(config.threads())).max(1e-9),
    );
    // Cache figures come from the in-process corpus run: wire workers do not
    // report their depth-1 hits (`ShardStats::cache_hits` is 0 on that path).
    metrics.insert("cache.hits", count(report.cache_hits));
    metrics.insert("cache.misses", count(engine.cache().misses()));

    let mut kernels = KernelTable::default();
    for record in dataset.records() {
        kernels.charge(
            tracer,
            &graphs[record.graph_id],
            record.depth,
            record.function_calls,
            0,
        )?;
    }
    kernels.report(metrics);
    canonical_metrics(tracer, &graphs, metrics);
    metrics.insert(
        "cache.solve_ms",
        solve_ms(tracer, &graphs, config.restarts, config.seed, 8)?,
    );
    Ok(())
}

// --- main ------------------------------------------------------------------------

/// Host-speed probe: times a fixed split re/im rotation kernel, which uses
/// no code of the workspace, three times on each of two threads (one per
/// core), and prints the mean over threads of the median seconds per run.
fn calibrate() {
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut times: Vec<f64> = (0..3)
                        .map(|_| {
                            let start = Instant::now();
                            black_box(rotation_kernel());
                            start.elapsed().as_secs_f64()
                        })
                        .collect();
                    times.sort_by(f64::total_cmp);
                    times[1]
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    println!(
        "{}",
        per_thread.iter().sum::<f64>() / count(per_thread.len())
    );
}

fn rotation_kernel() -> f64 {
    let mut re = [0.0f64; 512];
    let mut im = [0.0f64; 512];
    for (i, (r, m)) in re.iter_mut().zip(im.iter_mut()).enumerate() {
        *r = 1.0 / (1.0 + count(i));
        *m = 0.5 / (2.0 + count(i));
    }
    let (c, s) = (0.6f64.cos(), 0.6f64.sin());
    for _ in 0..black_box(30_000) {
        for (r, m) in re.iter_mut().zip(im.iter_mut()) {
            let (a, b) = (*r, *m);
            *r = a * c - b * s;
            *m = a * s + b * c;
        }
    }
    re.iter().chain(im.iter()).sum()
}

fn run() -> Result<()> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (workload, rest) = raw
        .split_first()
        .ok_or("usage: perfbench-tracer table1|predict|shard|calibrate --flag value ...")?;
    if workload == "calibrate" {
        calibrate();
        return Ok(());
    }
    let args = Args::parse(rest)?;
    let tracer = Tracer::new();
    // Names a workload does not exercise are left out; the runner reports
    // them as 0.
    let mut metrics = Metrics::new();
    match workload.as_str() {
        "table1" => table1(&args, &tracer, &mut metrics)?,
        "predict" => predict(&args, &tracer, &mut metrics)?,
        "shard" => shard(&args, &tracer, &mut metrics)?,
        other => return Err(format!("unknown workload {other}")),
    }
    let value = |name| metrics.get(name).copied().unwrap_or(0.0);
    let hits = value("cache.hits");
    let lookups = hits + value("cache.misses");
    metrics.insert(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    tracer.write(&args.path("spans")?)?;
    print_metrics(&metrics);
    std::io::stdout().flush().map_err(|e| e.to_string())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("perfbench-tracer: {message}");
        std::process::exit(1);
    }
}
