//! Pluggable line transports for the streaming shard coordinator.
//!
//! [`crate::shard::run_streaming`] drives workers through the
//! [`ShardTransport`] trait: a full-duplex, line-oriented channel per
//! worker with incremental receive and worker-death detection. Both
//! shipped transports are the same worker pipe — an OS pipe into the
//! worker, an OS pipe out of it, and a reader thread that turns the
//! worker's output into complete lines — and differ only in what runs the
//! worker:
//!
//! * [`LoopbackTransport`] — the reference implementation: one in-process
//!   thread per worker running [`crate::server::serve`] over its pipes,
//!   wired exactly like a `qaoa-serve` process's stdin/stdout, without
//!   process overhead; what tests and single-machine wire rehearsals use.
//! * [`SubprocessTransport`] — the production transport: spawns real
//!   worker processes (normally `qaoa-serve`) and speaks `QW1` over their
//!   stdin/stdout.
//!
//! Worker exit, a closed pipe, a kill, or a line the worker died before
//! finishing all surface as [`TransportError::Dead`], which the
//! coordinator answers by re-tasking the worker's range on a survivor.
//! [`FaultAfter`] wraps any inner transport to inject deterministic worker
//! death or silent stalls, used by the failover test-suite and
//! `qaoa-shard --kill-worker`.
//!
//! The trait is deliberately clock-free: `recv_line` takes a wait budget
//! as a [`Duration`] and reports [`TransportError::Timeout`] when nothing
//! arrived, but only the coordinator (an allowed wall-clock module)
//! decides when accumulated silence becomes worker death.

use std::fmt;
use std::io::{BufRead, BufReader, LineWriter, PipeReader, PipeWriter, Write};
use std::process::{Child, Command};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::batch::{BatchConfig, Engine};
use crate::cache::Level1Cache;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The worker is gone for good: its process exited, a pipe closed, its
    /// thread hung up, or it was already killed. Every later operation on
    /// the same worker fails the same way.
    Dead(String),
    /// No complete line arrived within the wait budget. The worker may
    /// simply still be computing — the coordinator decides when silence
    /// becomes death.
    Timeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Dead(message) => write!(f, "worker dead: {message}"),
            TransportError::Timeout => write!(f, "no line within the wait budget"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A full-duplex, line-oriented channel to a fixed set of workers.
///
/// Workers are addressed `0..workers()`. Lines carry no trailing newline.
/// A worker that reports [`TransportError::Dead`] once is gone: the
/// coordinator never re-spawns it, it re-tasks the dead worker's work onto
/// survivors (safe because re-run ranges return bit-identical records).
pub trait ShardTransport {
    /// Number of worker slots (dead ones included).
    fn workers(&self) -> usize;

    /// Sends one line (newline appended by the transport) to a worker.
    ///
    /// # Errors
    ///
    /// [`TransportError::Dead`] when the worker cannot accept input.
    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError>;

    /// Receives the next complete line from a worker, waiting at most
    /// roughly `wait` (implementations may overshoot while assembling a
    /// partially-arrived line).
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when no line arrived in time;
    /// [`TransportError::Dead`] when the worker hung up.
    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError>;

    /// Forcibly tears a worker down (kill the process, hang up the
    /// channel). Idempotent; a no-op for workers already gone.
    fn kill(&mut self, worker: usize);

    /// Gracefully shuts a worker down: signals end-of-input and waits for
    /// it to finish (fold caches, persist state, exit). Idempotent; a
    /// no-op for workers already gone.
    fn close(&mut self, worker: usize);
}

// --- the worker pipe -------------------------------------------------------

/// What runs a worker.
enum Runner {
    /// A spawned worker process.
    Process(Child),
    /// An in-process [`crate::server::serve`] thread.
    Thread(JoinHandle<()>),
}

/// A live worker: the write end of its input, the complete lines of its
/// output, and what runs it.
struct Worker {
    input: PipeWriter,
    lines: mpsc::Receiver<String>,
    /// The thread feeding `lines`; it decouples pipe draining from the
    /// coordinator's poll loop, so a worker never blocks on a full pipe
    /// while the coordinator is busy elsewhere.
    reader: JoinHandle<()>,
    runner: Runner,
}

impl Worker {
    /// Makes the worker's two pipes, hands their worker ends to `start`,
    /// and reads the worker's output on a thread.
    fn start(
        start: impl FnOnce(PipeReader, PipeWriter) -> std::io::Result<Runner>,
    ) -> std::io::Result<Self> {
        let (worker_input, input) = std::io::pipe()?;
        let (output, worker_output) = std::io::pipe()?;
        let runner = start(worker_input, worker_output)?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || forward_lines(output, &tx));
        Ok(Self {
            input,
            lines,
            reader,
            runner,
        })
    }

    /// Ends the worker. Both ways start by closing its input. A graceful
    /// end then waits for the worker to finish (a thread's cache fold, a
    /// process's cache-file write) and for its last lines. A forced end
    /// kills and reaps a process; a thread may be mid-solve, so it and its
    /// reader are detached rather than joined, and it winds down on its
    /// own at its next read (end of input) or write (broken pipe).
    fn end(self, graceful: bool) {
        drop(self.input);
        match self.runner {
            Runner::Process(mut child) => {
                if !graceful {
                    let _ = child.kill();
                }
                let _ = child.wait(); // reap; no zombies
            }
            Runner::Thread(handle) if graceful => {
                let _ = handle.join();
            }
            Runner::Thread(_) => return,
        }
        let _ = self.reader.join(); // the worker's end of the pipe is closed
    }
}

/// One worker at the other end of a line pipe.
struct Slot {
    /// `None` once the worker is gone for good.
    worker: Option<Worker>,
    /// Why the worker is gone, once it is: what every later operation
    /// reports.
    fate: String,
}

impl Slot {
    fn live(worker: Worker) -> Self {
        Self {
            worker: Some(worker),
            fate: String::new(),
        }
    }

    fn dead(fate: String) -> Self {
        Self { worker: None, fate }
    }

    fn worker(&mut self) -> Result<&mut Worker, TransportError> {
        self.worker
            .as_mut()
            .ok_or_else(|| TransportError::Dead(self.fate.clone()))
    }

    fn send_line(&mut self, line: &str) -> Result<(), TransportError> {
        let worker = self.worker()?;
        writeln!(worker.input, "{line}")
            .map_err(|e| self.end(format!("write to worker failed: {e}"), false))
    }

    fn recv_line(&mut self, wait: Duration) -> Result<String, TransportError> {
        match self.worker()?.lines.recv_timeout(wait) {
            Ok(line) => Ok(line),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                Err(self.end("worker hung up (end of stream)".into(), false))
            }
        }
    }

    /// Ends a live worker with `fate` (see [`Worker::end`]) and returns
    /// the error every later operation reports; a slot already gone keeps
    /// its first fate.
    fn end(&mut self, fate: String, graceful: bool) -> TransportError {
        if let Some(worker) = self.worker.take() {
            self.fate = fate;
            worker.end(graceful);
        }
        TransportError::Dead(self.fate.clone())
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.end("transport dropped".into(), false);
    }
}

/// The reader thread: forwards each newline-terminated line of the
/// worker's output. End of stream, a read error, or a line that is not
/// UTF-8 ends the stream — and an unterminated tail at end of stream is
/// what a dying worker leaves behind, so it is dropped with the worker
/// rather than handed on as a line.
fn forward_lines(output: PipeReader, lines: &mpsc::Sender<String>) {
    let mut output = BufReader::new(output);
    loop {
        let mut bytes = Vec::new();
        match output.read_until(b'\n', &mut bytes) {
            Ok(_) if bytes.last() == Some(&b'\n') => {}
            _ => return,
        }
        bytes.pop();
        if bytes.last() == Some(&b'\r') {
            bytes.pop();
        }
        let Ok(line) = String::from_utf8(bytes) else {
            return;
        };
        if lines.send(line).is_err() {
            return;
        }
    }
}

/// The transports built on [`Slot`]s; they share one [`ShardTransport`]
/// implementation.
trait Slots {
    fn slots(&self) -> &[Slot];
    fn slots_mut(&mut self) -> &mut [Slot];
}

fn slot<T: Slots>(transport: &mut T, worker: usize) -> Result<&mut Slot, TransportError> {
    let slots = transport.slots_mut();
    let count = slots.len();
    slots
        .get_mut(worker)
        .ok_or_else(|| TransportError::Dead(format!("worker {worker} of {count} (no such slot)")))
}

impl<T: Slots> ShardTransport for T {
    fn workers(&self) -> usize {
        self.slots().len()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        slot(self, worker)?.send_line(line)
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        slot(self, worker)?.recv_line(wait)
    }

    fn kill(&mut self, worker: usize) {
        if let Ok(slot) = slot(self, worker) {
            slot.end("killed".into(), false);
        }
    }

    fn close(&mut self, worker: usize) {
        if let Ok(slot) = slot(self, worker) {
            slot.end("closed".into(), true);
        }
    }
}

// --- loopback --------------------------------------------------------------

/// The reference [`ShardTransport`]: one in-process [`crate::server::serve`]
/// worker thread per slot, reading and writing OS pipes.
///
/// Each worker owns a fresh [`Engine`] with `threads` pool workers, exactly
/// like one spawned `qaoa-serve` process. With [`LoopbackTransport::with_cache`]
/// the workers additionally warm-start from (and fold back into) a shared
/// depth-1 cache, mirroring what per-worker `--cache-file`s plus a merge
/// give the subprocess transport.
pub struct LoopbackTransport {
    slots: Vec<Slot>,
}

impl Slots for LoopbackTransport {
    fn slots(&self) -> &[Slot] {
        &self.slots
    }

    fn slots_mut(&mut self) -> &mut [Slot] {
        &mut self.slots
    }
}

impl LoopbackTransport {
    /// `workers` in-process serve workers, `threads` pool workers each, no
    /// shared cache (each worker still caches internally).
    #[must_use]
    pub fn new(workers: usize, threads: usize) -> Self {
        Self::with_cache(workers, threads, BatchConfig::default().master_seed, None)
    }

    /// [`LoopbackTransport::new`] plus a shared depth-1 cache: every worker
    /// pre-warms from `cache` at spawn and folds its entries back when it
    /// finishes (on [`ShardTransport::close`]). `master_seed` must equal
    /// the corpus spec's seed for the worker-side fold to engage (the
    /// server only folds seed-matching sessions — see
    /// [`crate::server`]).
    #[must_use]
    pub fn with_cache(
        workers: usize,
        threads: usize,
        master_seed: u64,
        cache: Option<Arc<Level1Cache>>,
    ) -> Self {
        let slots = (0..workers.max(1))
            .map(|_| {
                let shared = cache.clone();
                Worker::start(|input, output| {
                    std::thread::Builder::new()
                        .spawn(move || loopback_worker(threads, master_seed, shared, input, output))
                        .map(Runner::Thread)
                })
                .map_or_else(|e| Slot::dead(format!("starting worker: {e}")), Slot::live)
            })
            .collect();
        Self { slots }
    }
}

/// One worker thread: a fresh engine serving its input pipe until end of
/// input, wired the way `qaoa-serve` wires stdin and stdout, then a fold
/// into the shared cache. The fold also runs when serve aborts early
/// (coordinator hung up): depth-1 entries are pure functions of their
/// key, so folding a partial set is always sound.
fn loopback_worker(
    threads: usize,
    master_seed: u64,
    shared: Option<Arc<Level1Cache>>,
    input: PipeReader,
    output: PipeWriter,
) {
    let engine = Engine::new(threads);
    if let Some(cache) = &shared {
        engine.cache().merge_from(cache);
    }
    let config = BatchConfig {
        master_seed,
        ..BatchConfig::default()
    };
    let _ = crate::server::serve(
        BufReader::new(input),
        LineWriter::new(output),
        &engine,
        &optimize::Lbfgsb::default(),
        &config,
    );
    if let Some(cache) = &shared {
        cache.merge_from(engine.cache());
    }
}

// --- subprocess ------------------------------------------------------------

/// The production [`ShardTransport`]: spawned worker processes speaking
/// `QW1` over stdin/stdout (normally `qaoa-serve`; stderr passes through).
///
/// Worker death — a crash, a kill, an exit, a closed pipe — surfaces as
/// [`TransportError::Dead`] on the next send or receive, which is what the
/// coordinator's failover re-tasking keys off. [`ShardTransport::close`]
/// closes the worker's stdin and waits for a clean exit, giving workers
/// started with `--cache-file` the chance to persist what they solved.
pub struct SubprocessTransport {
    slots: Vec<Slot>,
}

impl Slots for SubprocessTransport {
    fn slots(&self) -> &[Slot] {
        &self.slots
    }

    fn slots_mut(&mut self) -> &mut [Slot] {
        &mut self.slots
    }
}

impl SubprocessTransport {
    /// Spawns `workers` copies of `command` (argv form: `command[0]` is the
    /// program, the rest its arguments).
    ///
    /// # Errors
    ///
    /// [`TransportError::Dead`] when the command is empty or any spawn
    /// fails; workers spawned before the failure are killed and reaped.
    pub fn spawn(command: &[String], workers: usize) -> Result<Self, TransportError> {
        if command.is_empty() {
            return Err(TransportError::Dead("empty worker command".into()));
        }
        let commands: Vec<Vec<String>> = (0..workers.max(1)).map(|_| command.to_vec()).collect();
        Self::spawn_each(&commands)
    }

    /// Spawns one worker per command in `commands` (each in argv form) —
    /// the constructor for workers that need per-worker arguments, e.g.
    /// distinct `--cache-file` paths so each process persists its own
    /// depth-1 cache for the coordinator to merge.
    ///
    /// # Errors
    ///
    /// [`TransportError::Dead`] when `commands` is empty, any command is
    /// empty, or any spawn fails; workers spawned before the failure are
    /// killed and reaped.
    pub fn spawn_each(commands: &[Vec<String>]) -> Result<Self, TransportError> {
        if commands.is_empty() {
            return Err(TransportError::Dead("no worker commands".into()));
        }
        let mut slots = Vec::with_capacity(commands.len());
        for (index, command) in commands.iter().enumerate() {
            let Some((program, args)) = command.split_first() else {
                return Err(TransportError::Dead(format!(
                    "spawning worker {index}: empty worker command"
                )));
            };
            // An early return drops `slots`, which kills and reaps the
            // workers spawned so far.
            let worker = Worker::start(|stdin, stdout| {
                Command::new(program)
                    .args(args)
                    .stdin(stdin)
                    .stdout(stdout)
                    .spawn()
                    .map(Runner::Process)
            })
            .map_err(|e| {
                TransportError::Dead(format!("spawning worker {index} ({program}): {e}"))
            })?;
            slots.push(Slot::live(worker));
        }
        Ok(Self { slots })
    }
}

// --- fault injection -------------------------------------------------------

/// The fault [`FaultAfter`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Kill the worker. The kill is real — the inner worker is torn down —
    /// so everything downstream (re-tasking, cache-file merging) sees an
    /// honest mid-range death, not a simulation.
    Kill,
    /// Go silent: every later receive waits out its budget and reports
    /// [`TransportError::Timeout`], so the coordinator's liveness timeout
    /// is what declares the worker dead. Exercises the timeout → kill →
    /// re-task path end to end.
    Stall,
}

/// Fault injector: lets `victim` deliver `after` lines, then injects a
/// [`Fault`] on every later receive from it. Used by the failover tests
/// and `qaoa-shard --kill-worker`.
pub struct FaultAfter<T: ShardTransport> {
    inner: T,
    victim: usize,
    after: usize,
    fault: Fault,
    seen: usize,
}

impl<T: ShardTransport> FaultAfter<T> {
    /// Injects `fault` into `victim` once it has delivered `after` lines.
    pub fn new(inner: T, victim: usize, after: usize, fault: Fault) -> Self {
        Self {
            inner,
            victim,
            after,
            fault,
            seen: 0,
        }
    }
}

impl<T: ShardTransport> ShardTransport for FaultAfter<T> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        self.inner.send_line(worker, line)
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        if worker != self.victim {
            return self.inner.recv_line(worker, wait);
        }
        if self.seen >= self.after {
            return Err(match self.fault {
                Fault::Kill => {
                    self.inner.kill(worker);
                    TransportError::Dead(format!(
                        "fault injection: worker {worker} killed after {} lines",
                        self.seen
                    ))
                }
                Fault::Stall => {
                    // Emulate silence honestly: consume the wait, deliver nothing.
                    std::thread::sleep(wait);
                    TransportError::Timeout
                }
            });
        }
        let line = self.inner.recv_line(worker, wait)?;
        self.seen += 1;
        Ok(line)
    }

    fn kill(&mut self, worker: usize) {
        self.inner.kill(worker);
    }

    fn close(&mut self, worker: usize) {
        self.inner.close(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn loopback_answers_a_predict_less_request_with_err() {
        let mut transport = LoopbackTransport::new(1, 1);
        transport.send_line(0, "QW1 PREDICT 0 1 2 4 0-1").unwrap();
        let line = transport.recv_line(0, Duration::from_secs(30)).unwrap();
        assert_eq!(wire::message_type(&line).unwrap(), "ERR");
        transport.close(0);
        assert!(matches!(
            transport.send_line(0, "x"),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn loopback_recv_times_out_without_traffic() {
        let mut transport = LoopbackTransport::new(1, 1);
        assert_eq!(
            transport.recv_line(0, Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn killed_loopback_worker_reports_dead() {
        let mut transport = LoopbackTransport::new(2, 1);
        transport.kill(0);
        assert!(matches!(
            transport.recv_line(0, Duration::from_millis(10)),
            Err(TransportError::Dead(_))
        ));
        // The sibling is unaffected.
        transport.send_line(1, "QW1 RANGE 0 1").unwrap();
        let line = transport.recv_line(1, Duration::from_secs(30)).unwrap();
        assert_eq!(wire::message_type(&line).unwrap(), "ERR"); // RANGE before SHARD
    }

    #[test]
    fn out_of_range_worker_is_dead_not_panic() {
        let mut transport = LoopbackTransport::new(1, 1);
        assert!(matches!(
            transport.send_line(5, "x"),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn unterminated_tail_at_end_of_stream_is_worker_death() {
        // A worker that dies mid-line: the complete line passes, the
        // half-written one does not — the slot reports Dead instead.
        let mut slot = Slot::live(
            Worker::start(|_input, mut output| {
                std::thread::Builder::new()
                    .spawn(move || {
                        let _ = output.write_all(b"QW1 ERR x\nQW1 REC");
                    })
                    .map(Runner::Thread)
            })
            .unwrap(),
        );
        assert_eq!(
            slot.recv_line(Duration::from_secs(30)),
            Ok("QW1 ERR x".to_string())
        );
        assert!(matches!(
            slot.recv_line(Duration::from_secs(30)),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn empty_subprocess_command_is_rejected() {
        assert!(matches!(
            SubprocessTransport::spawn(&[], 2),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn unspawnable_subprocess_command_is_dead() {
        let command = vec!["/nonexistent/qaoa-serve-definitely-missing".to_string()];
        assert!(matches!(
            SubprocessTransport::spawn(&command, 1),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn fault_after_injects_death_and_timeouts() {
        let inner = LoopbackTransport::new(1, 1);
        let mut faulty = FaultAfter::new(inner, 0, 1, Fault::Kill);
        faulty.send_line(0, "bogus").unwrap();
        faulty.send_line(0, "bogus again").unwrap();
        // First line (an ERR) passes; the second receive kills the worker.
        let first = faulty.recv_line(0, Duration::from_secs(30)).unwrap();
        assert_eq!(wire::message_type(&first).unwrap(), "ERR");
        assert!(matches!(
            faulty.recv_line(0, Duration::from_secs(30)),
            Err(TransportError::Dead(_))
        ));

        let inner = LoopbackTransport::new(1, 1);
        let mut stalled = FaultAfter::new(inner, 0, 0, Fault::Stall);
        stalled.send_line(0, "bogus").unwrap();
        assert_eq!(
            stalled.recv_line(0, Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
        assert_eq!(
            stalled.recv_line(0, Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
    }
}
