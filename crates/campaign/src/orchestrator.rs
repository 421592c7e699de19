//! The fault-tolerant campaign orchestrator behind `ftsched orchestrate`.
//!
//! The executor (one process) and the `--shard`/`merge` protocol (many
//! processes, one human driving them) already make campaign results a
//! pure function of the spec. This module adds the missing supervisor:
//! it plans the shard split, launches shard workers through a
//! [`WorkerBackend`], and keeps the campaign alive when workers die,
//! stall or emit garbage — the same transient-fault story the paper
//! tells about jobs, applied to the experiment pipeline itself.
//!
//! ## Supervision model
//!
//! * Every shard is a retryable unit of work. A failed attempt (launch
//!   error, non-zero exit, per-shard timeout, unparsable output) is
//!   re-queued with **exponential backoff plus deterministic jitter**
//!   (the frozen [`trial_seed`] mix keyed on the jitter seed, shard
//!   index and attempt number, so two orchestrator runs with the same
//!   config back off identically) up to a bounded number of retries.
//! * Re-queued shards are picked up by whichever worker slot frees up
//!   first — failed work migrates away from a sick worker on its own
//!   (counted as a *reassignment* when the slot differs).
//! * Each completed shard is persisted as an atomic, integrity-checked
//!   [`Checkpoint`](crate::checkpoint) **before** it counts as done. On
//!   restart the orchestrator adopts every valid checkpoint and re-runs
//!   only missing or corrupt shards; the final fold goes through
//!   [`merge_reports`], so a resumed campaign's report is byte-identical
//!   to an uninterrupted (or unsharded) run.
//! * With `allow_partial`, permanently failed shards degrade the run
//!   instead of aborting it: the merged report records the missing
//!   shard ranges (see [`CampaignReport::missing_shards`]).
//!
//! Everything the orchestrator observes about its own work — launches,
//! retries, reassignments, timeouts, checkpoint adopts — is
//! machine-dependent and therefore lives strictly on the *timing* side
//! of the metrics split: [`OrchestratorStats`] in the
//! [`OrchestratorMetrics`] document, never in [`RunCounters`].

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::checkpoint::{load_checkpoint, write_checkpoint_in, Checkpoint, CheckpointError};
use crate::columnar::ReportFormat;
use crate::executor::{run_campaign_shard, ExecutorConfig};
use crate::metrics::{RunCounters, RunMetrics};
use crate::report::{merge_reports, merge_reports_partial, CampaignReport, ShardInfo};
use crate::seed::trial_seed;
use crate::spec::CampaignSpec;
use crate::CampaignError;

/// Everything a backend needs to run one shard attempt: the campaign,
/// the shard coordinates, which attempt this is (0 = first), where to
/// write the partial report and its metrics, and the per-shard timeout
/// (if any) the backend must enforce.
#[derive(Debug)]
pub struct ShardLaunch<'a> {
    /// The campaign being orchestrated.
    pub spec: &'a CampaignSpec,
    /// Coordinates of the shard to run.
    pub shard: ShardInfo,
    /// Zero-based attempt number; retries increment it. Backends use it
    /// to disarm one-shot fault injection on re-runs.
    pub attempt: u32,
    /// Where the worker must write the shard's partial report (JSON).
    pub report_path: &'a Path,
    /// Where the worker must write the shard's [`RunMetrics`] (JSON).
    pub metrics_path: &'a Path,
    /// Per-shard wall-clock budget; `None` disables the timeout.
    pub timeout: Option<Duration>,
}

/// Why one shard attempt failed. Every variant is retryable; the
/// orchestrator only distinguishes them for metrics and diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerFailure {
    /// The worker could not be started at all.
    Launch(String),
    /// The worker ran but exited unsuccessfully (or panicked).
    Exit(String),
    /// The worker exceeded the per-shard timeout and was killed.
    TimedOut(Duration),
    /// The worker claimed success but its output files are missing,
    /// unparsable, or belong to the wrong shard or spec.
    Output(String),
}

impl fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerFailure::Launch(e) => write!(f, "cannot launch worker: {e}"),
            WorkerFailure::Exit(e) => write!(f, "worker failed: {e}"),
            WorkerFailure::TimedOut(t) => {
                write!(
                    f,
                    "worker exceeded the {:.1}s shard timeout",
                    t.as_secs_f64()
                )
            }
            WorkerFailure::Output(e) => write!(f, "worker output rejected: {e}"),
        }
    }
}

/// How the orchestrator runs one shard. The contract: execute the
/// launch's shard of `launch.spec`, write the partial report to
/// `launch.report_path` and its run metrics to `launch.metrics_path`,
/// and return only after both files are complete (the orchestrator
/// itself validates them and owns checkpointing). Implementations must
/// be callable from several supervisor threads at once.
///
/// [`LocalProcessBackend`] (a local `ftsched run --shard` process pool)
/// is the shipping implementation; the trait seam is what an SSH or
/// container backend would implement — nothing in the supervision loop
/// assumes the worker is local.
pub trait WorkerBackend: Sync {
    /// Runs one shard attempt to completion.
    ///
    /// # Errors
    ///
    /// A [`WorkerFailure`] describing why the attempt is unusable; the
    /// orchestrator will back off and retry up to its retry budget.
    fn run_shard(&self, launch: &ShardLaunch<'_>) -> Result<(), WorkerFailure>;
}

/// The local process pool backend: each shard attempt spawns
/// `<program> run <spec> --shard I/N --out ... --metrics-json ...` and
/// waits for it (polling, so a per-shard timeout can kill it). Retry
/// attempts drop the `FTSCHED_ORCH_FAULT` variable from the child's
/// environment, so injected faults fire exactly once per shard.
#[derive(Debug, Clone)]
pub struct LocalProcessBackend {
    /// The `ftsched` binary to spawn (usually
    /// [`std::env::current_exe`]).
    pub program: PathBuf,
    /// The spec file to pass to the worker (workers re-load and
    /// re-validate it themselves; the orchestrator checks the output's
    /// embedded spec matches).
    pub spec_path: PathBuf,
    /// `--threads` for each worker; `0` omits the flag (worker default).
    pub worker_threads: usize,
    /// Report format the workers write (`--format columnar` is appended
    /// when columnar); must match the orchestrator's
    /// [`OrchestratorConfig::format`].
    pub format: ReportFormat,
}

/// Name of the fault-injection environment hook honored by workers (see
/// the CLI's `run --shard` path): `kill:I[,stall:J,corrupt:K]` makes
/// shard `I` abort, shard `J` hang and shard `K` write a corrupt
/// report — on their *first* attempt only.
pub const FAULT_ENV: &str = "FTSCHED_ORCH_FAULT";

impl WorkerBackend for LocalProcessBackend {
    fn run_shard(&self, launch: &ShardLaunch<'_>) -> Result<(), WorkerFailure> {
        let mut cmd = std::process::Command::new(&self.program);
        cmd.arg("run")
            .arg(&self.spec_path)
            .arg("--shard")
            .arg(launch.shard.to_string())
            .arg("--out")
            .arg(launch.report_path)
            .arg("--metrics-json")
            .arg(launch.metrics_path)
            .arg("--quiet")
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if self.worker_threads > 0 {
            cmd.arg("--threads").arg(self.worker_threads.to_string());
        }
        if self.format == ReportFormat::Columnar {
            cmd.arg("--format").arg("columnar");
        }
        if launch.attempt > 0 {
            // Injected faults are one-shot: the retry runs clean.
            cmd.env_remove(FAULT_ENV);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| WorkerFailure::Launch(format!("{}: {e}", self.program.display())))?;
        let started = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(WorkerFailure::Exit(format!(
                        "shard {} worker exited with {status}",
                        launch.shard
                    )))
                }
                Ok(None) => {
                    if let Some(timeout) = launch.timeout {
                        if started.elapsed() >= timeout {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err(WorkerFailure::TimedOut(timeout));
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    return Err(WorkerFailure::Exit(format!(
                        "cannot wait for shard {} worker: {e}",
                        launch.shard
                    )))
                }
            }
        }
    }
}

/// An in-process backend for tests: runs the shard on this process's
/// executor and writes the same two files a worker process would.
///
/// Each shard run owns its metrics recorder, so shards running
/// concurrently on several worker slots count only their own events.
/// Timeouts are not enforced (threads cannot be killed); tests exercise
/// timeout handling through backend wrappers instead.
#[derive(Debug, Clone)]
pub struct InProcessBackend {
    /// Executor threads per shard run (`0` = one per core).
    pub threads: usize,
}

impl WorkerBackend for InProcessBackend {
    fn run_shard(&self, launch: &ShardLaunch<'_>) -> Result<(), WorkerFailure> {
        let exec = ExecutorConfig {
            threads: self.threads,
            ..ExecutorConfig::default()
        };
        let recorder = ftsched_obs::Recorder::new();
        let _run = recorder.install();
        let started = Instant::now();
        let report = run_campaign_shard(launch.spec, &exec, Some(launch.shard))
            .map_err(|e| WorkerFailure::Exit(e.to_string()))?;
        let metrics = recorder.metrics(
            exec.effective_threads() as u64,
            started.elapsed().as_secs_f64(),
        );
        let write = |path: &Path, text: String| {
            std::fs::write(path, text).map_err(|e| {
                WorkerFailure::Output(format!("cannot write `{}`: {e}", path.display()))
            })
        };
        write(launch.report_path, report.to_json())?;
        write(
            launch.metrics_path,
            serde_json::to_string_pretty(&metrics).expect("metrics always serialise"),
        )
    }
}

/// Progress/event callback type of [`OrchestratorConfig::on_event`].
pub type EventSink = Box<dyn Fn(&OrchestratorEvent) + Send + Sync>;

/// Orchestrator tuning. Everything that affects *which* work runs is
/// deterministic; only wall-clock-dependent knobs (timeout) are not.
pub struct OrchestratorConfig {
    /// Number of shards to split the campaign into (≥ 1).
    pub shards: usize,
    /// Concurrent worker slots; `0` means `min(shards, cores)`.
    pub workers: usize,
    /// Retry budget per shard *beyond* the first attempt.
    pub max_retries: u32,
    /// Base backoff delay; attempt `a` waits `base · 2^a` (capped)
    /// plus deterministic jitter in `[0, base)`.
    pub backoff_base_ms: u64,
    /// Upper bound on the exponential part of the backoff.
    pub backoff_cap_ms: u64,
    /// Seed of the deterministic retry jitter.
    pub jitter_seed: u64,
    /// Per-shard wall-clock budget; `None` disables timeouts.
    pub shard_timeout: Option<Duration>,
    /// Degrade gracefully: merge whatever completed and record the
    /// missing shard ranges instead of failing the run.
    pub allow_partial: bool,
    /// Where checkpoints (and worker scratch files) live. Created on
    /// demand; a later run pointed at the same directory resumes.
    pub checkpoint_dir: PathBuf,
    /// Format the workers write their shard reports in (and checkpoints
    /// are stored in). The merged result is format-agnostic — the
    /// orchestrator sniffs worker output — but a columnar fleet keeps
    /// scratch I/O and checkpoint sizes compact.
    pub format: ReportFormat,
    /// Progress/event sink (the CLI routes these through `ui`); called
    /// from supervisor threads, without any internal lock held.
    pub on_event: Option<EventSink>,
}

impl OrchestratorConfig {
    /// A config with production defaults: auto worker count, 3 retries,
    /// 250 ms base / 10 s cap backoff, no timeout, strict (no partial)
    /// merging.
    pub fn new(shards: usize, checkpoint_dir: impl Into<PathBuf>) -> Self {
        OrchestratorConfig {
            shards,
            workers: 0,
            max_retries: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 10_000,
            jitter_seed: 2007,
            shard_timeout: None,
            allow_partial: false,
            checkpoint_dir: checkpoint_dir.into(),
            format: ReportFormat::Json,
            on_event: None,
        }
    }

    fn effective_workers(&self, pending: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let slots = if self.workers > 0 { self.workers } else { auto };
        slots.min(pending).max(1)
    }

    /// The deterministic jitter (in milliseconds, below the base delay)
    /// added to the backoff of `shard`'s failed `attempt`.
    ///
    /// This is *the* jitter formula: [`Self::backoff`] and the
    /// orchestrator tests both call it, so the implementation and its
    /// assertions cannot silently drift apart.
    pub fn backoff_jitter(&self, shard: ShardInfo, attempt: u32) -> u64 {
        trial_seed(self.jitter_seed, shard.index, attempt as usize) % self.backoff_base_ms.max(1)
    }

    /// The deterministic delay before re-queueing `shard` after failed
    /// attempt `attempt`: capped exponential backoff plus seeded jitter.
    pub fn backoff(&self, shard: ShardInfo, attempt: u32) -> Duration {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64.checked_shl(attempt.min(20)).unwrap_or(u64::MAX));
        let jitter = self.backoff_jitter(shard, attempt);
        Duration::from_millis(exp.min(self.backoff_cap_ms).saturating_add(jitter))
    }
}

/// Progress notifications emitted by the supervision loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrchestratorEvent {
    /// A valid checkpoint was adopted instead of re-running its shard.
    CheckpointAdopted {
        /// The adopted shard.
        shard: ShardInfo,
    },
    /// A checkpoint exists but failed validation; the shard re-runs.
    CheckpointInvalid {
        /// The affected shard.
        shard: ShardInfo,
        /// Why the checkpoint was rejected.
        reason: String,
    },
    /// A worker slot started (or restarted) a shard.
    ShardStarted {
        /// The shard being run.
        shard: ShardInfo,
        /// Zero-based attempt number.
        attempt: u32,
        /// Worker slot index running it.
        worker: usize,
    },
    /// A shard completed and its checkpoint is on disk.
    ShardCompleted {
        /// The completed shard.
        shard: ShardInfo,
        /// The attempt that succeeded.
        attempt: u32,
    },
    /// A shard attempt failed and will be retried.
    ShardFailed {
        /// The failed shard.
        shard: ShardInfo,
        /// The attempt that failed.
        attempt: u32,
        /// The failure, rendered.
        error: String,
        /// Backoff before the next attempt.
        retry_in: Duration,
    },
    /// A shard exhausted its retry budget.
    ShardAbandoned {
        /// The abandoned shard.
        shard: ShardInfo,
        /// The final failure, rendered.
        error: String,
    },
}

/// What the orchestrator did, in numbers. All of this is wall-clock- and
/// scheduling-dependent (how often workers die is not a function of the
/// spec), so the whole struct lives on the timing side of the metrics
/// split — it is serialised into [`OrchestratorMetrics`], never into the
/// deterministic [`RunCounters`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct OrchestratorStats {
    /// Shards the campaign was split into.
    pub shards: u64,
    /// Worker launches (first attempts and retries).
    pub launches: u64,
    /// Failed attempts that were re-queued.
    pub retries: u64,
    /// Retried shards picked up by a different worker slot.
    pub reassignments: u64,
    /// Attempts killed by the per-shard timeout.
    pub timeouts: u64,
    /// Attempts that failed to launch, exited non-zero or panicked.
    pub worker_failures: u64,
    /// Attempts whose output files were missing or unusable.
    pub corrupt_outputs: u64,
    /// Checkpoints found on disk but rejected by validation.
    pub checkpoints_invalid: u64,
    /// Checkpoints adopted on resume instead of re-running.
    pub checkpoints_adopted: u64,
    /// Checkpoints written by this run.
    pub checkpoints_written: u64,
    /// Shards that exhausted their retry budget.
    pub shards_failed: u64,
    /// Wall-clock seconds of the whole orchestration.
    pub wall_seconds: f64,
}

/// The `orchestrate --metrics-json` document: the run's supervision
/// stats (timing-classified) next to the fold of every shard's
/// deterministic counters (byte-identical to the counters of an
/// unsharded run of the same spec).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorMetrics {
    /// Supervision stats — machine-dependent.
    pub orchestrator: OrchestratorStats,
    /// Shard-merged deterministic worker counters.
    pub workers: RunCounters,
}

/// A finished orchestration.
#[derive(Debug)]
pub struct OrchestratorOutcome {
    /// The merged campaign report. Byte-identical to an unsharded run
    /// when every shard completed; with `allow_partial` and failures,
    /// its [`CampaignReport::missing_shards`] records the gaps.
    pub report: CampaignReport,
    /// The fold (in shard order) of every completed shard's
    /// deterministic counters.
    pub worker_counters: RunCounters,
    /// Supervision statistics.
    pub stats: OrchestratorStats,
    /// Shards that never completed (non-empty only with
    /// `allow_partial`).
    pub missing: Vec<ShardInfo>,
}

/// One schedulable unit in the supervision queue.
struct QueuedTask {
    shard: ShardInfo,
    attempt: u32,
    ready_at: Instant,
    last_worker: Option<usize>,
}

/// Shared supervisor state (behind one mutex).
struct SupervisorState {
    pending: Vec<QueuedTask>,
    in_flight: usize,
    done: Vec<Option<Checkpoint>>,
    failed: Vec<(ShardInfo, String)>,
    stats: OrchestratorStats,
}

fn emit(config: &OrchestratorConfig, event: OrchestratorEvent) {
    if let Some(sink) = &config.on_event {
        sink(&event);
    }
}

fn lock<'a>(state: &'a Mutex<SupervisorState>) -> MutexGuard<'a, SupervisorState> {
    state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `spec` as `config.shards` supervised shard workers on `backend`
/// and folds the results: the fault-tolerant, resumable equivalent of
/// [`crate::run_campaign`].
///
/// Completed shards are checkpointed into `config.checkpoint_dir`
/// before they count; calling `orchestrate` again with the same spec
/// and directory adopts them and runs only the rest. The merged report
/// is byte-identical to an unsharded run whenever every shard
/// completes — however many crashes, retries and resumes it took.
///
/// # Errors
///
/// [`CampaignError::InvalidSpec`] for a bad spec or shard count,
/// [`CampaignError::Orchestration`] when shards failed permanently and
/// `allow_partial` is off (completed checkpoints stay on disk, so a
/// rerun resumes), or when the checkpoint directory cannot be created.
/// [`CampaignError::InvalidMerge`] is impossible unless checkpoints
/// were tampered with mid-run — the orchestrator only merges partials
/// it validated.
pub fn orchestrate<B: WorkerBackend + ?Sized>(
    spec: &CampaignSpec,
    config: &OrchestratorConfig,
    backend: &B,
) -> Result<OrchestratorOutcome, CampaignError> {
    spec.validate()?;
    if config.shards == 0 {
        return Err(CampaignError::InvalidSpec(
            "shard count must be at least 1".into(),
        ));
    }
    let started = Instant::now();
    let work_dir = config.checkpoint_dir.join("work");
    std::fs::create_dir_all(&work_dir).map_err(|e| {
        CampaignError::Orchestration(format!(
            "cannot create checkpoint directory `{}`: {e}",
            work_dir.display()
        ))
    })?;

    let mut state = SupervisorState {
        pending: Vec::new(),
        in_flight: 0,
        done: (0..config.shards).map(|_| None).collect(),
        failed: Vec::new(),
        stats: OrchestratorStats {
            shards: config.shards as u64,
            ..OrchestratorStats::default()
        },
    };

    // Adoption phase: completed checkpoints stand in for their shard;
    // anything missing or invalid goes on the queue.
    let now = Instant::now();
    for index in 0..config.shards {
        let shard = ShardInfo {
            index,
            count: config.shards,
        };
        match load_checkpoint(&config.checkpoint_dir, shard, spec) {
            Ok(checkpoint) => {
                state.done[index] = Some(checkpoint);
                state.stats.checkpoints_adopted += 1;
                emit(config, OrchestratorEvent::CheckpointAdopted { shard });
            }
            Err(CheckpointError::Missing) => state.pending.push(QueuedTask {
                shard,
                attempt: 0,
                ready_at: now,
                last_worker: None,
            }),
            Err(e) => {
                state.stats.checkpoints_invalid += 1;
                emit(
                    config,
                    OrchestratorEvent::CheckpointInvalid {
                        shard,
                        reason: e.to_string(),
                    },
                );
                state.pending.push(QueuedTask {
                    shard,
                    attempt: 0,
                    ready_at: now,
                    last_worker: None,
                });
            }
        }
    }

    let workers = config.effective_workers(state.pending.len());
    let state = Mutex::new(state);
    let wakeup = Condvar::new();

    if !lock(&state).pending.is_empty() {
        std::thread::scope(|scope| {
            for worker_id in 0..workers {
                let state = &state;
                let wakeup = &wakeup;
                let work_dir = &work_dir;
                scope.spawn(move || {
                    supervise(worker_id, spec, config, backend, work_dir, state, wakeup)
                });
            }
        });
    }

    let SupervisorState {
        done,
        failed,
        mut stats,
        ..
    } = state.into_inner().unwrap_or_else(|e| e.into_inner());
    stats.shards_failed = failed.len() as u64;
    stats.wall_seconds = started.elapsed().as_secs_f64();

    if !failed.is_empty() && !config.allow_partial {
        let detail: Vec<String> = failed
            .iter()
            .map(|(shard, error)| format!("shard {shard}: {error}"))
            .collect();
        return Err(CampaignError::Orchestration(format!(
            "{} of {} shards failed permanently ({}); completed checkpoints are kept in `{}` — \
             rerun to resume, or pass --allow-partial to merge what completed",
            failed.len(),
            config.shards,
            detail.join("; "),
            config.checkpoint_dir.display(),
        )));
    }

    let mut parts = Vec::with_capacity(config.shards);
    let mut worker_counters = RunCounters::default();
    for checkpoint in done.into_iter().flatten() {
        worker_counters = worker_counters.merged(&checkpoint.counters);
        parts.push(checkpoint.report);
    }
    let report = if failed.is_empty() {
        merge_reports(parts)?
    } else {
        merge_reports_partial(parts)?
    };
    let missing = report.missing_shards.clone();
    Ok(OrchestratorOutcome {
        report,
        worker_counters,
        stats,
        missing,
    })
}

/// One worker slot's supervision loop: claim a ready task, run it on
/// the backend, validate + checkpoint its output, and either record the
/// result or re-queue the shard with backoff.
fn supervise<B: WorkerBackend + ?Sized>(
    worker_id: usize,
    spec: &CampaignSpec,
    config: &OrchestratorConfig,
    backend: &B,
    work_dir: &Path,
    state: &Mutex<SupervisorState>,
    wakeup: &Condvar,
) {
    loop {
        // Claim the next ready task (or leave when everything is done).
        let task = {
            let mut st = lock(state);
            loop {
                if st.pending.is_empty() && st.in_flight == 0 {
                    wakeup.notify_all();
                    return;
                }
                let now = Instant::now();
                if let Some(pos) = st.pending.iter().position(|t| t.ready_at <= now) {
                    let task = st.pending.swap_remove(pos);
                    st.in_flight += 1;
                    st.stats.launches += 1;
                    if task.attempt > 0 && task.last_worker != Some(worker_id) {
                        st.stats.reassignments += 1;
                    }
                    break task;
                }
                // Nothing ready: sleep until the earliest backoff
                // deadline (or a state change wakes us).
                let wait = st
                    .pending
                    .iter()
                    .map(|t| t.ready_at.saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_millis(50));
                let (guard, _) = wakeup
                    .wait_timeout(st, wait.max(Duration::from_millis(1)))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
            }
        };

        emit(
            config,
            OrchestratorEvent::ShardStarted {
                shard: task.shard,
                attempt: task.attempt,
                worker: worker_id,
            },
        );
        let report_path = work_dir.join(format!(
            "shard-{:04}.report.{}",
            task.shard.index,
            config.format.extension()
        ));
        let metrics_path = work_dir.join(format!("shard-{:04}.metrics.json", task.shard.index));
        let launch = ShardLaunch {
            spec,
            shard: task.shard,
            attempt: task.attempt,
            report_path: &report_path,
            metrics_path: &metrics_path,
            timeout: config.shard_timeout,
        };
        // Run, then validate: the worker's word is not enough — the
        // output files must parse and belong to this shard of this
        // spec before anything is checkpointed.
        let result = backend.run_shard(&launch).and_then(|()| {
            let checkpoint = validate_worker_output(spec, task.shard, &report_path, &metrics_path)?;
            write_checkpoint_in(&config.checkpoint_dir, &checkpoint, config.format)
                .map_err(|e| WorkerFailure::Output(format!("cannot write checkpoint: {e}")))?;
            let _ = std::fs::remove_file(&report_path);
            let _ = std::fs::remove_file(&metrics_path);
            Ok(checkpoint)
        });

        let mut st = lock(state);
        st.in_flight -= 1;
        match result {
            Ok(checkpoint) => {
                st.stats.checkpoints_written += 1;
                st.done[task.shard.index] = Some(checkpoint);
                drop(st);
                emit(
                    config,
                    OrchestratorEvent::ShardCompleted {
                        shard: task.shard,
                        attempt: task.attempt,
                    },
                );
            }
            Err(failure) => {
                match &failure {
                    WorkerFailure::TimedOut(_) => st.stats.timeouts += 1,
                    WorkerFailure::Output(_) => st.stats.corrupt_outputs += 1,
                    WorkerFailure::Launch(_) | WorkerFailure::Exit(_) => {
                        st.stats.worker_failures += 1
                    }
                }
                if task.attempt < config.max_retries {
                    let delay = config.backoff(task.shard, task.attempt);
                    st.stats.retries += 1;
                    st.pending.push(QueuedTask {
                        shard: task.shard,
                        attempt: task.attempt + 1,
                        ready_at: Instant::now() + delay,
                        last_worker: Some(worker_id),
                    });
                    drop(st);
                    emit(
                        config,
                        OrchestratorEvent::ShardFailed {
                            shard: task.shard,
                            attempt: task.attempt,
                            error: failure.to_string(),
                            retry_in: delay,
                        },
                    );
                } else {
                    st.failed.push((task.shard, failure.to_string()));
                    drop(st);
                    emit(
                        config,
                        OrchestratorEvent::ShardAbandoned {
                            shard: task.shard,
                            error: failure.to_string(),
                        },
                    );
                }
            }
        }
        wakeup.notify_all();
    }
}

/// Parses and cross-checks one worker's output files, producing the
/// checkpoint payload. Rejections are [`WorkerFailure::Output`] — the
/// shard retries rather than poisoning the merge.
fn validate_worker_output(
    spec: &CampaignSpec,
    shard: ShardInfo,
    report_path: &Path,
    metrics_path: &Path,
) -> Result<Checkpoint, WorkerFailure> {
    let output = |message: String| WorkerFailure::Output(message);
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| output(format!("cannot read `{}`: {e}", path.display())))
    };
    // Sniff the report format: the in-process test backend always writes
    // JSON even when the orchestrator runs a columnar fleet, and a
    // mixed-format scratch directory must never poison the merge.
    let report_text = read(report_path)?;
    let report: CampaignReport = if report_text.starts_with(crate::columnar::MAGIC) {
        crate::columnar::read_report_str(&report_text).map_err(|e| {
            output(format!(
                "report `{}` does not parse: {e}",
                report_path.display()
            ))
        })?
    } else {
        serde_json::from_str(&report_text).map_err(|e| {
            output(format!(
                "report `{}` does not parse: {e}",
                report_path.display()
            ))
        })?
    };
    match report.shard {
        Some(found) if found == shard => {}
        other => {
            return Err(output(format!(
                "report `{}` is for shard {:?}, expected {shard}",
                report_path.display(),
                other.map(|s| s.to_string()),
            )))
        }
    }
    if report.spec != *spec {
        return Err(output(format!(
            "report `{}` embeds a different campaign spec",
            report_path.display()
        )));
    }
    let metrics: RunMetrics = serde_json::from_str(&read(metrics_path)?).map_err(|e| {
        output(format!(
            "metrics `{}` do not parse: {e}",
            metrics_path.display()
        ))
    })?;
    Ok(Checkpoint {
        report,
        counters: metrics.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let config = OrchestratorConfig::new(4, "unused");
        let shard = ShardInfo { index: 1, count: 4 };
        assert_eq!(config.backoff(shard, 0), config.backoff(shard, 0));
        // The exponential part is monotone until the cap.
        let base: Vec<u128> = (0..8)
            .map(|a| {
                config.backoff(shard, a).as_millis() - (config.backoff_jitter(shard, a) as u128)
            })
            .collect();
        assert!(base.windows(2).all(|w| w[0] <= w[1]));
        assert!(base.iter().all(|&ms| ms <= config.backoff_cap_ms as u128));
        // Jitter differs across shards (with overwhelming probability
        // for these fixed coordinates).
        let other = ShardInfo { index: 2, count: 4 };
        assert_ne!(config.backoff(shard, 0), config.backoff(other, 0));
    }

    #[test]
    fn worker_failure_displays_name_the_cause() {
        assert!(WorkerFailure::TimedOut(Duration::from_secs(3))
            .to_string()
            .contains("3.0s"));
        assert!(WorkerFailure::Output("bad report".into())
            .to_string()
            .contains("bad report"));
    }
}
