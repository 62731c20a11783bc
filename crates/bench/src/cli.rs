//! Command-line parsing and engine construction shared by every experiment
//! binary.
//!
//! Flag parsing — including `--threads N` and `--cache-file PATH` — used to
//! be duplicated across the bench binaries; it lives here once. Binaries
//! call [`RunConfig::from_env`](crate::RunConfig::from_env) (which
//! delegates here) and [`pool`] / [`RunConfig::engine`](crate::RunConfig::engine)
//! for the worker pool sized by `--threads`.

use std::path::PathBuf;

use crate::{RunConfig, WorkerMode};

pub mod scenario;

/// Usage text shared by `--help` (stdout, exit 0) and the error path
/// (stderr, exit 2).
pub const USAGE: &str = "\
usage: [--quick] [--nodes N] [--graphs N] [--restarts N] [--max-depth N]
       [--seed N] [--naive-starts N] [--threads N] [--shots N]
       [--noise P1,P2] [--cache-file PATH] [--model PATH] [--shards K]
       [--out PATH] [--workers MODE] [--worker-cmd CMD] [--timeout-secs N]
       [--kill-worker W] [--help]

  --quick            CI-scale preset (small ensemble, shallow depths)
  --nodes N          nodes per graph            (paper: 8)
  --graphs N         ensemble size              (paper: 330)
  --restarts N       random inits per instance  (paper: 20)
  --max-depth N      corpus depth               (paper: 6)
  --seed N           RNG seed                   (default: 2020)
  --naive-starts N   naive-protocol starts      (default: --restarts)
  --threads N        engine worker count        (default: all cores)
  --shots N          evaluate sampled <C> from N measurement shots per
                     objective call (SPSA-optimized, seed-deterministic)
                     instead of the exact expectation
  --noise P1,P2      evaluate under depolarizing gate noise: P1 after
                     one-qubit gates, P2 after two-qubit gates (density-
                     matrix path); mutually exclusive with --shots
  --cache-file PATH  persistent depth-1 optimum cache shared across runs
                     and processes (corrupt/stale files regenerate). Note:
                     also disables the whole-corpus TSV cache, so depth >= 2
                     cells re-solve every run; only depth-1 is persisted
  --model PATH       trained QMODEL1 predictor artifact shared across runs
                     and processes (corrupt/stale files retrain).
                     qaoa-predict trains and serves it; qaoa-serve loads it
                     to answer PREDICT requests in the same session as JOBs
  --shards K         split corpus generation into K contiguous graph-index
                     ranges, one worker per range (qaoa-shard; default: 1;
                     output is bit-identical at any K)
  --out PATH         write the merged corpus TSV to PATH instead of stdout
                     (qaoa-shard)
  --workers MODE     qaoa-shard worker mode (default: loopback:1):
                       loopback:K  K in-process wire workers (streaming
                                   coordinator, reference transport)
                       spawn:K     K spawned worker subprocesses over
                                   stdin/stdout (failover re-tasking)
  --worker-cmd CMD   spawn-mode worker command, whitespace-split (default:
                     the qaoa-serve binary next to this executable);
                     --threads/--seed and a per-worker --cache-file are
                     appended automatically
  --timeout-secs N   declare a silent wire worker dead after N seconds and
                     re-task its range (default: 30)
  --kill-worker W    fault injection: kill wire worker W after its first
                     delivered line; the run must still complete
                     bit-identically on the survivors (CI)
  --help, -h         print this help and exit";

/// What the argument list asked for: a run, or just the usage text.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// A fully-validated run configuration (boxed: [`RunConfig`] is much
    /// larger than the `Help` variant).
    Run(Box<RunConfig>),
    /// `--help`/`-h` was present; callers print [`USAGE`] and exit 0.
    Help,
}

/// Parses a flag's counted value: non-negative, and within `usize` on every
/// target (values are parsed as `u64` and range-checked rather than
/// silently truncated with `as` on 32-bit targets).
fn parse_count(flag: &str, value: &str) -> Result<usize, String> {
    let parsed: u64 = value.parse().map_err(|e| format!("{flag} {value}: {e}"))?;
    usize::try_from(parsed)
        .map_err(|_| format!("{flag} {value}: exceeds this target's usize range"))
}

/// Parses `args` (without the program name) on top of the paper preset.
///
/// # Errors
///
/// Returns a human-readable message for unknown flags or bad values.
/// `--help` is *not* an error — it parses to [`Parsed::Help`].
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Parsed, String> {
    let args: Vec<String> = args.into_iter().collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(Parsed::Help);
    }
    let mut config = if args.iter().any(|a| a == "--quick") {
        RunConfig::quick()
    } else {
        RunConfig::paper()
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--quick" {
            i += 1;
            continue;
        }
        // The remaining flags take a value. Each gets an explicit arm — a
        // catch-all here once silently routed `--seed` (and would have
        // routed any future flag) into the wrong field. A following token
        // that is itself a flag is a missing value, not a value (else
        // `--cache-file --quick` would create a file named `--quick`).
        let value = || match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(v.as_str()),
            _ => Err(format!("{flag} needs a value")),
        };
        match flag {
            "--nodes" => config.nodes = parse_count(flag, value()?)?,
            "--graphs" => config.graphs = parse_count(flag, value()?)?,
            "--restarts" => config.restarts = parse_count(flag, value()?)?,
            "--max-depth" => config.max_depth = parse_count(flag, value()?)?,
            "--naive-starts" => config.naive_starts = Some(parse_count(flag, value()?)?),
            "--threads" => config.threads = Some(parse_count(flag, value()?)?.max(1)),
            "--shots" => config.shots = Some(scenario::parse_shots(value()?)?),
            "--noise" => config.noise = Some(scenario::parse_noise(value()?)?),
            "--seed" => {
                let v = value()?;
                config.seed = v.parse().map_err(|e| format!("{flag} {v}: {e}"))?;
            }
            "--cache-file" => config.cache_file = Some(PathBuf::from(value()?)),
            "--model" => config.model = Some(PathBuf::from(value()?)),
            "--shards" => config.shards = parse_count(flag, value()?)?.max(1),
            "--out" => config.out = Some(PathBuf::from(value()?)),
            "--workers" => config.workers = WorkerMode::parse(value()?)?,
            "--worker-cmd" => config.worker_cmd = Some(value()?.to_string()),
            "--timeout-secs" => {
                let v = value()?;
                config.timeout_secs = v.parse().map_err(|e| format!("{flag} {v}: {e}"))?;
            }
            "--kill-worker" => config.kill_worker = Some(parse_count(flag, value()?)?),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if config.nodes < 2 || config.graphs == 0 || config.restarts == 0 || config.max_depth == 0 {
        return Err("nodes >= 2, graphs/restarts/max-depth >= 1 required".into());
    }
    // Reject contradictory scenario flags at parse time, not first use.
    scenario::resolve(config.shots, config.noise)?;
    Ok(Parsed::Run(Box::new(config)))
}

/// Parses the real process arguments: prints usage to stdout and exits 0 on
/// `--help`, exits 2 with the usage on stderr on errors.
#[must_use]
pub fn from_env() -> RunConfig {
    match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(config)) => *config,
        Ok(Parsed::Help) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// The worker pool sized by `--threads` (default: all cores) — the one
/// construction every engine-parallel binary shares.
#[must_use]
pub fn pool(config: &RunConfig) -> engine::Pool {
    engine::Pool::new(config.threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(ToString::to_string).collect()
    }

    fn run(s: &[&str]) -> RunConfig {
        match parse_args(args(s)).unwrap() {
            Parsed::Run(c) => *c,
            Parsed::Help => panic!("expected a run configuration"),
        }
    }

    #[test]
    fn help_is_not_an_error() {
        // `--help` used to route through the error path (stderr + exit 2).
        assert_eq!(parse_args(args(&["--help"])), Ok(Parsed::Help));
        assert_eq!(parse_args(args(&["-h"])), Ok(Parsed::Help));
        // Help wins even when combined with other flags — including ones
        // that would otherwise fail validation.
        assert_eq!(
            parse_args(args(&["--nodes", "0", "--help"])),
            Ok(Parsed::Help)
        );
        assert!(USAGE.contains("--cache-file"));
    }

    #[test]
    fn threads_flag_parses_and_clamps() {
        let c = run(&["--threads", "4"]);
        assert_eq!(c.threads, Some(4));
        assert_eq!(c.threads(), 4);
        // 0 clamps to 1 rather than erroring.
        let c = run(&["--threads", "0"]);
        assert_eq!(c.threads, Some(1));
        assert!(parse_args(args(&["--threads"])).is_err());
    }

    #[test]
    fn pool_matches_config_threads() {
        let c = run(&["--quick", "--threads", "3"]);
        assert_eq!(pool(&c).threads(), 3);
    }

    #[test]
    fn quick_preset_and_overrides() {
        let c = run(&["--quick", "--nodes", "7", "--seed", "9"]);
        assert!(c.quick);
        assert_eq!(c.nodes, 7);
        assert_eq!(c.seed, 9);
        // Unknown flags say so, with or without a trailing value.
        assert_eq!(
            parse_args(args(&["--bogus"])),
            Err("unknown flag --bogus".into())
        );
        assert_eq!(
            parse_args(args(&["--bogus", "3"])),
            Err("unknown flag --bogus".into())
        );
    }

    #[test]
    fn seed_has_an_explicit_arm_and_keeps_u64_range() {
        // Seeds above usize::MAX on 32-bit targets must survive: the seed
        // is u64 end to end, never squeezed through a count conversion.
        let c = run(&["--seed", "18446744073709551615"]);
        assert_eq!(c.seed, u64::MAX);
        assert!(parse_args(args(&["--seed", "not-a-number"])).is_err());
    }

    #[test]
    fn counted_flags_range_check_instead_of_truncating() {
        // On 64-bit hosts u64::MAX fits usize, so emulate the 32-bit
        // failure by checking the error message path with a value that
        // never parses as u64 at all, plus the range-check helper directly.
        assert!(parse_count("--graphs", "12").unwrap() == 12);
        assert!(parse_count("--graphs", "99999999999999999999").is_err());
        if usize::BITS < 64 {
            assert!(parse_count("--graphs", "4294967296").is_err());
        }
    }

    #[test]
    fn cache_file_flag() {
        let c = run(&["--quick", "--cache-file", "/tmp/l1.cache"]);
        assert_eq!(c.cache_file, Some(PathBuf::from("/tmp/l1.cache")));
        assert!(parse_args(args(&["--cache-file"])).is_err());
        assert_eq!(run(&["--quick"]).cache_file, None);
    }

    #[test]
    fn model_flag() {
        let c = run(&["--quick", "--model", "/tmp/model.qm"]);
        assert_eq!(c.model, Some(PathBuf::from("/tmp/model.qm")));
        assert!(parse_args(args(&["--model"])).is_err());
        assert!(parse_args(args(&["--model", "--quick"])).is_err());
        assert_eq!(run(&["--quick"]).model, None);
        assert!(USAGE.contains("--model"));
    }

    #[test]
    fn shards_and_out_flags() {
        let c = run(&["--quick", "--shards", "3", "--out", "/tmp/corpus.tsv"]);
        assert_eq!(c.shards, 3);
        assert_eq!(c.out, Some(PathBuf::from("/tmp/corpus.tsv")));
        // Defaults: one shard (unsharded), stdout.
        assert_eq!(run(&["--quick"]).shards, 1);
        assert_eq!(run(&["--quick"]).out, None);
        // 0 shards clamps to 1 (like --threads 0).
        assert_eq!(run(&["--quick", "--shards", "0"]).shards, 1);
        assert!(parse_args(args(&["--shards"])).is_err());
        assert!(parse_args(args(&["--out", "--quick"])).is_err());
        assert!(USAGE.contains("--shards"));
    }

    #[test]
    fn worker_mode_flags() {
        use crate::WorkerMode;
        // Default: one in-process loopback wire worker.
        let c = run(&["--quick"]);
        assert_eq!(c.workers, WorkerMode::Loopback(1));
        assert_eq!(c.worker_cmd, None);
        assert_eq!(c.timeout_secs, 30);
        assert_eq!(c.kill_worker, None);

        let c = run(&[
            "--quick",
            "--workers",
            "spawn:3",
            "--worker-cmd",
            "target/release/qaoa-serve --quick",
            "--timeout-secs",
            "5",
            "--kill-worker",
            "1",
        ]);
        assert_eq!(c.workers, WorkerMode::Spawn(3));
        assert_eq!(
            c.worker_cmd.as_deref(),
            Some("target/release/qaoa-serve --quick")
        );
        assert_eq!(c.timeout_secs, 5);
        assert_eq!(c.kill_worker, Some(1));

        assert_eq!(
            run(&["--workers", "loopback:2"]).workers,
            WorkerMode::Loopback(2)
        );
        // Malformed modes and counts are errors, not silent defaults.
        assert!(parse_args(args(&["--workers", "local"])).is_err());
        assert!(parse_args(args(&["--workers", "remote:2"])).is_err());
        assert!(parse_args(args(&["--workers", "spawn:0"])).is_err());
        assert!(parse_args(args(&["--workers", "spawn:many"])).is_err());
        assert!(parse_args(args(&["--workers"])).is_err());
        assert!(parse_args(args(&["--timeout-secs", "soon"])).is_err());
        assert!(USAGE.contains("--workers"));
        assert!(USAGE.contains("--kill-worker"));
    }

    #[test]
    fn value_flags_reject_a_following_flag_as_their_value() {
        // `--cache-file --quick` once silently created a file named
        // `--quick`; `--nodes --seed` failed with a confusing parse error.
        assert_eq!(
            parse_args(args(&["--cache-file", "--quick"])),
            Err("--cache-file needs a value".into())
        );
        assert_eq!(
            parse_args(args(&["--nodes", "--seed"])),
            Err("--nodes needs a value".into())
        );
        assert_eq!(
            parse_args(args(&["--quick", "--threads", "--graphs", "4"])),
            Err("--threads needs a value".into())
        );
    }
}
