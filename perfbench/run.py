#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the QAOA workspace.

One command builds the release binaries from source, runs one workload
against them with tracing off, checks the output for correctness, and
prints every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload table1-n8 --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/NOTES.md for why each was chosen):

    table1-n8      `table1 --nodes 8 --threads 2`: corpus -> GPR -> Table-I sweep
    predict-mixed  one closed-loop client against `qaoa-predict serve --threads 2`
    shard-spawn    `qaoa-shard --workers spawn:2 --threads 1` over small graphs

With `--trace 0` the JSON carries the end-to-end metrics, measured on the
shipped binaries. With `--trace 1` it carries the per-layer metrics from
`perfbench-tracer`, which re-runs the workload in-process with a span
around every call into a layer. Both modes run both halves, because the
traced run's output is the reference the binaries' output must equal.

Run it from the repository root. It reads and writes only inside the
repository: builds go to $CARGO_TARGET_DIR (default `.bench_build`), every
process runs in a fresh directory under `.bench_work/`, and with `--trace 1`
the spans are kept as `.bench_work/spans-<workload>-seed<seed>.jsonl`.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Workload sizes: 2 cores, no process above 2 threads, one driving process.
TABLE1 = dict(nodes=8, graphs=40, restarts=5, max_depth=4, threads=2, sample_graphs=2)
PREDICT = dict(
    requests=1200,  # per session; sessions repeat until --seconds have passed
    repeat_share=0.7,  # share of requests for a class seen earlier, relabelled
    sizes=(8, 12),
    max_depth=4,
    restarts=3,
    threads=2,
    # The model fixture: trained once per run, before any timing.
    fixture=dict(nodes=8, graphs=24, restarts=5, max_depth=4, seed=2020),
)
SHARD = dict(
    nodes=6,
    graphs=800,
    restarts=3,
    max_depth=3,
    workers=2,
    shards=8,
    threads=1,  # per spawned worker
    reference_threads=2,  # the in-process engine::corpus reference run
)

WORKLOADS = ("table1-n8", "predict-mixed", "shard-spawn")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

TRACER_METRICS = [
    ("eval.exp_us.n6", "us"),
    ("eval.exp_us.n8", "us"),
    ("eval.exp_us.n12", "us"),
    ("eval.grad_us.n6", "us"),
    ("eval.grad_us.n8", "us"),
    ("eval.grad_us.n12", "us"),
    ("eval.bytes_per_call", "B"),
    ("optimize.calls", "count"),
    ("optimize.us_per_call", "us"),
    ("optimize.overhead_ratio", "ratio"),
    ("canonical.keys", "count"),
    ("canonical.key_us.p50", "us"),
    ("canonical.key_us.p99", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.solve_ms", "ms"),
    ("ml.train_ms", "ms"),
    ("ml.predict_us", "us"),
    ("server.tier1", "count"),
    ("server.tier2", "count"),
    ("server.tier3", "count"),
    ("server.memo", "count"),
    ("server.tier3_ms.p50", "ms"),
    ("server.tier3_ms.p99", "ms"),
    ("wire.predict_decode_us", "us"),
    ("wire.predicted_encode_us", "us"),
    ("wire.record_decode_us", "us"),
    ("wire.record_encode_us", "us"),
    ("wire.bytes", "B"),
    ("shard.spawn_ms", "ms"),
    ("shard.recv_wait_frac", "ratio"),
    ("shard.peak_buffered_records", "count"),
    ("shard.retasks", "count"),
    ("stage.corpus_s", "s"),
    ("stage.train_s", "s"),
    ("stage.sweep_s", "s"),
    ("pool.busy_frac", "ratio"),
    ("trace.wall_s", "s"),
]

# Spans whose self time (duration minus the time their child spans cover)
# is reported as `self_s.<name>`.
SELF_SPANS = [
    "stage.corpus",
    "stage.train",
    "stage.sweep",
    "sample.protocol",
    "request",
    "wire.decode",
    "canonical.key",
    "cache.peek",
    "ml.predict",
    "cache.solve",
    "engine.two_level",
    "wire.encode",
    "shard.spawn",
    "shard.stream",
    "transport.recv",
    "transport.send",
]

PER_LAYER = (
    TRACER_METRICS
    + [("self_s." + name, "s") for name in SELF_SPANS]
    + [("trace.overhead_frac", "ratio")]
)

JOB_TIMEOUT_S = 120
RSS_POLL_S = 0.02

# Host-speed calibration. The reference container shares its 2 cores with
# other tenants, and the same job's wall time drifts by up to 1.8x in phases
# of seconds to minutes; user CPU time drifts with it, so this is slower
# execution, not descheduling. A fixed kernel timed between jobs tracks the
# drift, and every reported time is scaled by CALIBRATION_REF_S / (the mean
# of the calibrations before and after it): seconds at the reference speed.
# The kernel runs no code of the program under test, so a change to the
# program moves the scaled times exactly as it moves the raw ones.
CALIBRATION_REF_S = 0.0075  # `perfbench-tracer calibrate` on the reference container

# Extra launches per run that only time set-up (launch to ready), so
# `setup_s` is a median of many samples even when the workload's own
# repeats are few.
SETUP_PROBES = 20


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A set-up problem: the benchmark cannot run here."""


# --- processes ----------------------------------------------------------------


def _vm_hwm_kb(pid):
    """A process's peak resident set (VmHWM) in KiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _child_pids(pid):
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as f:
            return [int(child) for child in f.read().split()]
    except (OSError, ValueError):
        return []


class Process:
    """A child process with timestamped stderr lines and its peak memory.

    Peak memory is the largest VmHWM of any process in the child's tree,
    sampled every `RSS_POLL_S` while it runs. (`wait4`'s `ru_maxrss` cannot
    serve: Linux carries the forking parent's high-water mark across the
    exec, so it would report this Python process.)
    """

    def __init__(self, cmd, cwd, stdin=False):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=cwd,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self.stderr_lines = []  # (seconds since launch, line)
        self.stdout = b""
        self.rss_mb = 0.0
        self.code = None
        self._cond = threading.Condition()
        self._err = threading.Thread(target=self._read_stderr, daemon=True)
        self._err.start()
        self._peak_kb = {}
        self._done = threading.Event()
        self._rss = threading.Thread(target=self._poll_rss, daemon=True)
        self._rss.start()
        # Guarantees an exit within the time limit even if a child hangs.
        self._watchdog = threading.Timer(JOB_TIMEOUT_S, self.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def _read_stderr(self):
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace").rstrip("\n")
            with self._cond:
                self.stderr_lines.append((time.perf_counter() - self.t0, line))
                self._cond.notify_all()
        with self._cond:
            self.stderr_lines.append((None, None))  # EOF marker
            self._cond.notify_all()

    def _poll_rss(self):
        while True:
            pending = [self.proc.pid]
            while pending:
                pid = pending.pop()
                self._peak_kb[pid] = max(self._peak_kb.get(pid, 0), _vm_hwm_kb(pid))
                pending += _child_pids(pid)
            if self._done.wait(RSS_POLL_S):
                return

    def wait_for_stderr(self, marker, count=1, timeout=60.0):
        """Seconds from launch to the `count`-th stderr line containing
        `marker`; None if it never appeared."""
        deadline = time.perf_counter() + timeout
        with self._cond:
            while True:
                seen = [t for t, line in self.stderr_lines if line is not None and marker in line]
                if len(seen) >= count:
                    return seen[count - 1]
                if self.stderr_lines and self.stderr_lines[-1][0] is None:
                    return None
                left = deadline - time.perf_counter()
                if left <= 0:
                    return None
                self._cond.wait(left)

    def stderr_text(self):
        with self._cond:
            return "\n".join(line for _, line in self.stderr_lines if line is not None)

    def wait(self):
        """Reads the rest of stdout, reaps the child, and returns seconds
        from launch to exit."""
        self.stdout += self.proc.stdout.read()
        # Stop sampling before reaping, which removes the /proc entries.
        self._done.set()
        self._rss.join()
        _, status, _ = os.wait4(self.proc.pid, 0)
        took = time.perf_counter() - self.t0
        self.proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self._watchdog.cancel()
        self._err.join()
        self.proc.stdout.close()
        self.proc.stderr.close()
        self.rss_mb = max(self._peak_kb.values(), default=0) / 1024.0
        return took

    def kill(self):
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass


def run_quiet(cmd, cwd, what):
    """Runs a set-up command to completion; its output goes to stderr."""
    done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
    if done.returncode != 0:
        raise BenchError(f"{what} failed (exit {done.returncode})")


# --- build and host ---------------------------------------------------------------


def build():
    for path in ("Cargo.toml", "crates/bench/Cargo.toml", "perfbench/tracer/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, path)):
            raise BenchError(f"{path} not found: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    bins = ["table1", "qaoa-predict", "qaoa-shard", "qaoa-serve"]
    cmd = ["cargo", "build", "--release", "--offline", "-p", "bench"]
    for name in bins:
        cmd += ["--bin", name]
    run_quiet(cmd, ROOT, "building the release binaries")
    run_quiet(
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/tracer/Cargo.toml"],
        ROOT,
        "building perfbench-tracer",
    )
    release = os.path.join(target, "release")
    paths = {name: os.path.join(release, name) for name in bins + ["perfbench-tracer"]}
    for name, path in paths.items():
        if not os.path.isfile(path):
            raise BenchError(f"build produced no {name} at {path}")
    return paths


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def host_record(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for base in ("crates", "perfbench/tracer/src"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
    }


# --- statistics --------------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def nearest_rank(values, q):
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered))))
    return ordered[rank - 1]


# --- workloads ------------------------------------------------------------------------


class Workdir:
    """Fresh per-process directories under `.bench_work/`, removed at exit."""

    def __init__(self):
        self.base = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
        shutil.rmtree(self.base, ignore_errors=True)
        os.makedirs(self.base)
        self.count = 0

    def fresh(self):
        self.count += 1
        path = os.path.join(self.base, f"p{self.count}")
        os.makedirs(path)
        return path

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)


class Gates:
    """Correctness checks; every miss is a failure and is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CORRECTNESS MISS: {what}")
        return ok


def calibrate():
    """Seconds per run of `perfbench-tracer calibrate`: a fixed
    floating-point kernel, on one thread per core, that uses no code of the
    workspace."""
    done = subprocess.run([TRACER, "calibrate"], capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


TRACER = None  # path of the perfbench-tracer binary, set in main()


def measure(seconds, job):
    """Runs `job` back to back until `seconds` have passed (at least once),
    with a calibration between jobs; each result gets its `scale`."""
    results = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        result = job()
        after = calibrate()
        result["scale"] = CALIBRATION_REF_S / ((before + after) / 2)
        results.append(result)
        before = after
        if time.perf_counter() >= deadline:
            return results


def probe_setups(cmd, workdir, marker, stdin=False):
    """Scaled launch-to-ready times of `SETUP_PROBES` extra launches of
    `cmd`, each stopped once ready: a server by closing its input, a batch
    job by a kill (it has no child processes)."""
    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        proc = Process(cmd, workdir.fresh(), stdin=stdin)
        ready = proc.wait_for_stderr(marker)
        if stdin:
            proc.proc.stdin.close()
        else:
            proc.kill()
        proc.wait()
        if ready is None:
            raise BenchError(f"{os.path.basename(cmd[0])} never printed {marker!r}")
        times.append(ready)
    scale = CALIBRATION_REF_S / ((before + calibrate()) / 2)
    return [t * scale for t in times]


def tracer_run(bins, workdir, args):
    cwd = workdir.fresh()
    spans = os.path.join(cwd, "spans.jsonl")
    proc = Process([bins["perfbench-tracer"]] + args + ["--spans", spans], cwd)
    proc.wait()
    if proc.code != 0:
        raise BenchError(f"perfbench-tracer failed (exit {proc.code}): {proc.stderr_text()[-2000:]}")
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]), spans


def table1_flags(seed):
    return [
        "--nodes", str(TABLE1["nodes"]),
        "--graphs", str(TABLE1["graphs"]),
        "--restarts", str(TABLE1["restarts"]),
        "--max-depth", str(TABLE1["max_depth"]),
        "--seed", str(seed),
        "--threads", str(TABLE1["threads"]),
    ]


def table1_rows(stdout):
    """The Table-I title, header and rows the binary prints (no summary)."""
    lines = stdout.decode().splitlines()
    return lines[: lines.index("")] if "" in lines else lines


def table1_ars(rows):
    """(naive AR, ML AR) of each Table-I row; None for a row that does not parse."""
    pairs = []
    for row in rows[2:]:
        fields = row.split()
        try:
            pairs.append((float(fields[2]), float(fields[6])))
        except (IndexError, ValueError):
            pairs.append(None)
    return pairs


def run_table1(bins, workdir, gates, seed, seconds):
    flags = table1_flags(seed)
    test_graphs = TABLE1["graphs"] - round(TABLE1["graphs"] * 0.2)
    depths = len(range(2, min(TABLE1["max_depth"], 5) + 1))
    # Corpus cells (graph x depth) plus Table-I cells (test graph x optimizer x depth).
    cells = TABLE1["graphs"] * TABLE1["max_depth"] + test_graphs * 4 * depths

    def job():
        proc = Process([bins["table1"]] + flags, workdir.fresh())
        setup = proc.wait_for_stderr("# generating corpus")
        wall = proc.wait()
        gates.check(proc.code == 0, f"table1 exited {proc.code}")
        gates.check(setup is not None, "table1 did not print `# generating corpus` (corpus read from disk?)")
        return dict(setup=setup or 0.0, wall=wall, rss=proc.rss_mb, stdout=proc.stdout)

    jobs = measure(seconds, job)
    setups = [j["setup"] * j["scale"] for j in jobs] + probe_setups(
        [bins["table1"]] + flags, workdir, "# generating corpus"
    )
    traced, spans = tracer_run(
        bins,
        workdir,
        ["table1"] + flags + ["--sample-graphs", str(TABLE1["sample_graphs"]), "--out", os.path.join(workdir.base, "rows.txt")],
    )
    with open(os.path.join(workdir.base, "rows.txt"), "rb") as f:
        reference = table1_rows(f.read())

    for n, job_result in enumerate(jobs):
        rows = table1_rows(job_result["stdout"])
        ars = table1_ars(rows)
        gates.check(len(ars) == 12, f"table1 job {n}: {len(ars)} Table-I rows, expected 12")
        gates.check(
            all(pair is not None and 0.0 < min(pair) and max(pair) <= 1.0 for pair in ars),
            f"table1 job {n}: an AR outside (0, 1] or a row that does not parse",
        )
        gates.check(rows == reference, f"table1 job {n}: rows differ from the traced in-process run")
    # Deterministic for a seed, so the first job's figures stand for all.
    summary = jobs[0]["stdout"].decode().splitlines()
    reductions = [float(line.split(":")[1].split("%")[0]) for line in summary if line.startswith("# average FC reduction:")]
    ml_ars = [pair[1] for pair in table1_ars(table1_rows(jobs[0]["stdout"])) if pair is not None]

    walls = [j["wall"] * j["scale"] for j in jobs]
    samples = {
        "setup_s": setups,
        "wall_s": walls,
        "p50_ms": [w * 1e3 for w in walls],
        "rate_per_s": [cells / w for w in walls],
        "peak_rss_mb": [j["rss"] for j in jobs],
    }
    extra = {
        "raw_wall_s": (statistics.median(j["wall"] for j in jobs), "s (unscaled)"),
        "fc_reduction_pct": (reductions[0] if reductions else float("nan"), "%"),
        "ml_ar_mean": (statistics.mean(ml_ars) if ml_ars else float("nan"), "ratio"),
    }
    untraced = statistics.median(j["wall"] for j in jobs)
    return samples, extra, traced, spans, untraced, jobs


def predict_requests(seed):
    """The request stream: depths 1-4, n in {8, 12}, and `repeat_share` of
    the requests naming an earlier graph class under a random relabelling.

    The mix is stratified so that seeds differ in their graphs, not in how
    much work they ask for: every block of 10 requests holds exactly
    10 * (1 - repeat_share) new classes, new classes alternate between the
    sizes, and every block of 4 requests asks for each depth once."""
    rng = random.Random(seed)
    seen = []
    lines = []
    new_per_block = round(10 * (1 - PREDICT["repeat_share"]))
    kinds, depths, sizes = [], [], []
    for request_id in range(1, PREDICT["requests"] + 1):
        if not kinds:
            kinds = [True] * new_per_block + [False] * (10 - new_per_block)
            rng.shuffle(kinds)
        if not depths:
            depths = list(range(1, PREDICT["max_depth"] + 1))
            rng.shuffle(depths)
        is_new = kinds.pop() or not seen
        if is_new:
            if not sizes:
                sizes = list(PREDICT["sizes"])
                rng.shuffle(sizes)
            n = sizes.pop()
            edges = []
            while not edges:
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            seen.append((n, edges))
        else:
            n, edges = rng.choice(seen)
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
            rng.shuffle(edges)
        wire_edges = ",".join(f"{u}-{v}" for u, v in edges)
        lines.append(f"QW1 PREDICT {request_id} {depths.pop()} {PREDICT['restarts']} {n} {wire_edges}")
    return lines


def run_predict(bins, workdir, gates, seed, seconds):
    fixture = PREDICT["fixture"]
    model = os.path.join(workdir.base, "model.qm")
    run_quiet(
        [
            bins["qaoa-predict"], "train",
            "--nodes", str(fixture["nodes"]),
            "--graphs", str(fixture["graphs"]),
            "--restarts", str(fixture["restarts"]),
            "--max-depth", str(fixture["max_depth"]),
            "--seed", str(fixture["seed"]),
            "--threads", str(PREDICT["threads"]),
            "--out", model,
        ],
        workdir.fresh(),
        "training the model fixture",
    )
    requests = predict_requests(seed)
    request_file = os.path.join(workdir.base, "requests.txt")
    with open(request_file, "w") as f:
        f.write("\n".join(requests) + "\n")
    serve = [
        bins["qaoa-predict"], "serve",
        "--model", model,
        "--seed", str(fixture["seed"]),
        "--threads", str(PREDICT["threads"]),
    ]

    def session():
        proc = Process(serve, workdir.fresh(), stdin=True)
        try:
            ready = proc.wait_for_stderr("reading QW1 lines from stdin")
            if ready is None:
                raise BenchError(f"qaoa-predict never became ready: {proc.stderr_text()[-2000:]}")
            latencies = []
            answers = []
            for line in requests:
                sent = time.perf_counter()
                proc.proc.stdin.write(line.encode() + b"\n")
                proc.proc.stdin.flush()
                answer = proc.proc.stdout.readline()
                latencies.append((time.perf_counter() - sent) * 1e3)
                if not answer:
                    break  # the server stopped answering
                answers.append(answer.decode().rstrip("\n"))
            last = time.perf_counter() - proc.t0
            proc.proc.stdin.close()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.wait()
        gates.check(proc.code == 0, f"qaoa-predict exited {proc.code}")
        gates.check(not proc.stdout.strip(), "qaoa-predict printed lines after the last answer")
        return dict(setup=ready, last=last, latencies=latencies, answers=answers, rss=proc.rss_mb)

    sessions = measure(seconds, session)
    setups = [s["setup"] * s["scale"] for s in sessions] + probe_setups(
        serve, workdir, "reading QW1 lines from stdin", stdin=True
    )
    traced, spans = tracer_run(
        bins,
        workdir,
        [
            "predict",
            "--model", model,
            "--model-seed", str(fixture["seed"]),
            "--threads", str(PREDICT["threads"]),
            "--requests", request_file,
            "--out", os.path.join(workdir.base, "transcript.txt"),
        ],
    )
    with open(os.path.join(workdir.base, "transcript.txt")) as f:
        reference = f.read().splitlines()

    # One check per request: exactly one PREDICTED, in id order, no ERR,
    # equal to the traced replay's answer.
    for n, s in enumerate(sessions):
        gates.check(len(s["answers"]) == len(requests), f"predict session {n}: {len(s['answers'])} answers to {len(requests)} requests")
        for request_id, (answer, expected) in enumerate(zip(s["answers"], reference), start=1):
            fields = answer.split()
            gates.check(
                fields[:3] == ["QW1", "PREDICTED", str(request_id)] and answer == expected,
                f"predict session {n}, request {request_id}: answered {answer[:60]!r}",
            )

    latencies = [ms * s["scale"] for s in sessions for ms in s["latencies"]]
    serving = [(s["last"] - s["setup"]) * s["scale"] for s in sessions]
    p99 = nearest_rank(latencies, 0.99)
    beyond = sum(1 for v in latencies if v > p99)
    samples = {
        "setup_s": setups,
        "wall_s": [s["last"] * s["scale"] for s in sessions],
        "p50_ms": latencies,
        "rate_per_s": [len(s["latencies"]) / t for s, t in zip(sessions, serving)],
        "peak_rss_mb": [s["rss"] for s in sessions],
    }
    extra = {
        "raw_wall_s": (statistics.median(s["last"] for s in sessions), "s (unscaled)"),
        "predict_p50_ms": (statistics.median(latencies), "ms"),
        "predict_p99_ms": (p99, f"ms ({beyond} of {len(latencies)} samples beyond)"),
        "predict_rps": (len(latencies) / sum(serving), "req/s"),
    }
    untraced = statistics.median(s["last"] - s["setup"] for s in sessions)
    return samples, extra, traced, spans, untraced, sessions


def shard_flags(seed):
    return [
        "--nodes", str(SHARD["nodes"]),
        "--graphs", str(SHARD["graphs"]),
        "--restarts", str(SHARD["restarts"]),
        "--max-depth", str(SHARD["max_depth"]),
        "--seed", str(seed),
    ]


def run_shard(bins, workdir, gates, seed, seconds):
    flags = shard_flags(seed)
    cmd = [bins["qaoa-shard"]] + flags + [
        "--threads", str(SHARD["threads"]),
        "--workers", f"spawn:{SHARD['workers']}",
        "--shards", str(SHARD["shards"]),
    ]
    cells = SHARD["graphs"] * SHARD["max_depth"]

    def job():
        proc = Process(cmd, workdir.fresh())
        # Ready once every spawned worker has printed its start-up banner.
        setup = proc.wait_for_stderr("reading QW1 lines from stdin", count=SHARD["workers"])
        wall = proc.wait()
        gates.check(proc.code == 0, f"qaoa-shard exited {proc.code}")
        gates.check(setup is not None, "qaoa-shard workers never reported ready")
        return dict(setup=setup or 0.0, wall=wall, rss=proc.rss_mb, stdout=proc.stdout)

    jobs = measure(seconds, job)
    reference_path = os.path.join(workdir.base, "reference.tsv")
    merged_path = os.path.join(workdir.base, "merged.tsv")
    traced, spans = tracer_run(
        bins,
        workdir,
        ["shard"] + flags + [
            "--threads", str(SHARD["reference_threads"]),
            "--worker-threads", str(SHARD["threads"]),
            "--workers", str(SHARD["workers"]),
            "--shards", str(SHARD["shards"]),
            "--worker-cmd", bins["qaoa-serve"],
            "--reference", reference_path,
            "--out", merged_path,
        ],
    )
    with open(reference_path, "rb") as f:
        reference = f.read()
    with open(merged_path, "rb") as f:
        merged = f.read()
    gates.check(merged == reference, "traced run_streaming TSV differs from the in-process engine::corpus TSV")
    for n, j in enumerate(jobs):
        gates.check(j["stdout"] == reference, f"qaoa-shard job {n}: merged TSV differs from engine::corpus")

    walls = [j["wall"] * j["scale"] for j in jobs]
    samples = {
        "setup_s": [j["setup"] * j["scale"] for j in jobs],
        "wall_s": walls,
        "p50_ms": [w * 1e3 for w in walls],
        "rate_per_s": [cells / w for w in walls],
        "peak_rss_mb": [j["rss"] for j in jobs],
    }
    extra = {
        "raw_wall_s": (statistics.median(j["wall"] for j in jobs), "s (unscaled)"),
        "corpus_cells_per_s": (statistics.median(samples["rate_per_s"]), "cells/s"),
    }
    untraced = statistics.median(j["wall"] for j in jobs)
    return samples, extra, traced, spans, untraced, jobs


RUNNERS = {"table1-n8": run_table1, "predict-mixed": run_predict, "shard-spawn": run_shard}


# --- spans ---------------------------------------------------------------------------


def self_times(spans_path):
    """Total self time per span name: each span's duration minus the time
    its child spans cover (children nest on one thread, so they never
    overlap)."""
    spans = []
    with open(spans_path) as f:
        for line in f:
            spans.append(json.loads(line))
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end_us"] - span["start_us"]
    totals = {}
    for span, children in zip(spans, child_time):
        own = span["end_us"] - span["start_us"] - children
        totals[span["name"]] = totals.get(span["name"], 0.0) + own / 1e6
    return totals, len(spans)


# --- main ------------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        bins = build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2

    global TRACER
    TRACER = bins["perfbench-tracer"]
    workdir = Workdir()
    gates = Gates()
    try:
        samples, extra, traced, spans_path, untraced_wall, runs = RUNNERS[args.workload](
            bins, workdir, gates, args.seed, args.seconds
        )
        self_s, span_count = self_times(spans_path)
        if args.trace:
            keep = os.path.join(ROOT, ".bench_work", f"spans-{args.workload}-seed{args.seed}.jsonl")
            shutil.copyfile(spans_path, keep)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        workdir.close()

    host = host_record(args.seed)
    host["speed_scale"] = statistics.median(r["scale"] for r in runs)
    print(f"# perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s measured, {len(runs)} runs of the workload")
    print("# host " + json.dumps(host, sort_keys=True))
    print("# end-to-end (binaries, tracing off; times scaled to the reference host speed): median [q1, q3] over n samples")
    end_to_end = {}
    for name, unit in END_TO_END:
        values = samples[name]
        q1, med, q3 = quartiles(values)
        end_to_end[name] = {"value": med, "unit": unit}
        print(f"{name:<24} {med:14.6g} {unit:<6} [{q1:.6g}, {q3:.6g}] n={len(values)}")
    fail_frac = gates.failed / max(gates.attempted, 1)
    extra["fail_frac"] = (fail_frac, f"ratio ({gates.failed} of {gates.attempted} checks failed)")
    for name, (value, unit) in extra.items():
        print(f"{name:<24} {value:14.6g} {unit}")

    traced["trace.overhead_frac"] = traced["trace.wall_s"] / untraced_wall - 1.0
    for name in SELF_SPANS:
        traced["self_s." + name] = self_s.get(name, 0.0)
    per_layer = {name: {"value": float(traced.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
    print(f"# per-layer (in-process traced run, {span_count} spans; 0 = layer not exercised)")
    for name, unit in PER_LAYER:
        print(f"{name:<30} {per_layer[name]['value']:14.6g} {unit}")

    result = {
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": per_layer if args.trace else end_to_end,
    }
    print(json.dumps(result))
    return 0 if gates.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
