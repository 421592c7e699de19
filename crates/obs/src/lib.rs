//! # ftsched-obs
//!
//! Instrumentation for the `ftsched` workspace: atomic event counters
//! and fixed-bin duration histograms that belong to **one run** — a
//! campaign, a shard, a bench entry, a test.
//!
//! The build environment is offline and the workspace vendors its own
//! shims, so this crate is hand-rolled in the same spirit instead of
//! pulling in `tracing`: plain `std` atomics, a thread-local for the
//! installed [`Recorder`], and the serde shim for the `--metrics-json`
//! document. It sits below every other crate in the workspace.
//!
//! ## Runs own their counters
//!
//! The owner of a run creates a [`Recorder`] and installs it on its
//! thread for the length of the run. Threads spawned for that run (the
//! campaign executor's workers, the rayon shim's scoped workers) install
//! the spawning thread's [`Recorder::current`]. Instrumentation sites
//! reach the installed recorder through [`record`] and [`span`]; an
//! event with no recorder installed is dropped. Two runs in one process
//! therefore never see each other's events, and a recorder's snapshot
//! *is* its run's metrics — no baselines, no deltas.
//!
//! ## The two halves
//!
//! Instrumented events fall into two strictly separated classes, and the
//! split is the whole point of the layer:
//!
//! * **Deterministic counters** ([`RunCounters`]) — pure `u64` event
//!   counts incremented a fixed number of times per campaign trial
//!   (trials started/completed per status, cache *requests*, simulator
//!   windows/slices/jobs). Their totals are sums over trials, so they
//!   are identical at any thread count and add up exactly across
//!   `--shard` runs: the shard-merged value equals the unsharded value,
//!   byte for byte. CI compares this half across runs.
//! * **Timing / scheduling-dependent data** ([`RunTimings`]) —
//!   wall-clock span histograms, cache hit/miss tallies (racing workers
//!   may compute a key twice; shards keep separate caches), sweep
//!   build-vs-rescale counts (they run inside cached stages), arena
//!   reuse and per-worker throughput. Explicitly machine- and
//!   schedule-dependent, excluded from every identity check.
//!
//! Counters are one relaxed `fetch_add` per event, batched on hot
//! paths, and recording a span costs two monotonic clock reads.
//! Emission is what callers opt into: nothing here prints or writes.
//!
//! ## Usage
//!
//! ```
//! use ftsched_obs::{record, span, Recorder, Stage};
//!
//! let recorder = Recorder::new();
//! {
//!     let _run = recorder.install();
//!     record(|m| m.counters.trials_started.incr());
//!     let _design = span(Stage::Design);
//!     // ... design work ...
//! }
//! record(|m| m.counters.trials_started.incr()); // no recorder: dropped
//! let metrics = recorder.metrics(1, 0.0);
//! assert_eq!(metrics.counters.trials_started, 1);
//! assert_eq!(metrics.timings.stages[2].count, 1);
//! ```

#![warn(missing_docs)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter (relaxed atomic `u64`).
///
/// Relaxed ordering is sufficient: counts are only read in aggregate by
/// [`Recorder::metrics`], never used for synchronisation, and integer
/// addition is commutative, so totals are independent of interleaving.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bin histogram of wall-clock durations.
///
/// Bin `i` counts spans in `[2^i, 2^(i+1))` microseconds (bin 0 also
/// takes sub-microsecond spans, the last bin everything beyond the
/// range). Power-of-two bins need no configuration, cover nanosecond
/// kernels to multi-second campaigns in [`Self::BINS`] slots, and — like
/// every count here — merge by plain addition.
#[derive(Debug)]
struct DurationHisto {
    bins: [AtomicU64; Self::BINS],
    count: AtomicU64,
    total_nanos: AtomicU64,
}

impl Default for DurationHisto {
    fn default() -> Self {
        DurationHisto {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
        }
    }
}

impl DurationHisto {
    /// Number of power-of-two microsecond bins: `2^21` µs ≈ 2 s in the
    /// top regular bin, far beyond any single pipeline stage.
    const BINS: usize = 22;

    /// Records one span.
    fn record(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        // floor(log2(micros)) via the leading-zero count; sub-µs spans
        // land in bin 0, outliers saturate into the last bin.
        let idx = (63 - micros.max(1).leading_zeros()) as usize;
        self.bins[idx.min(Self::BINS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// The current contents, labelled with `stage`.
    fn timing(&self, stage: Stage) -> StageTiming {
        StageTiming {
            stage: stage.label().to_owned(),
            count: self.count.load(Ordering::Relaxed),
            total_nanos: self.total_nanos.load(Ordering::Relaxed),
            bins_micros_log2: self
                .bins
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The pipeline stages the layer keeps span histograms for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Synthetic task-set generation (UUniFast draw + construction).
    Generation,
    /// Partitioning a drawn task set onto the mode channels.
    Partition,
    /// The deterministic design stage (region sweep, goal search, slot
    /// schedule construction) or, for design-only trials, the
    /// feasibility check.
    Design,
    /// The validation stage (discrete-event simulation of the design).
    Validate,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 4] = [
        Stage::Generation,
        Stage::Partition,
        Stage::Design,
        Stage::Validate,
    ];

    /// Stable lower-case label (the key used in metrics reports).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Generation => "generation",
            Stage::Partition => "partition",
            Stage::Design => "design",
            Stage::Validate => "validate",
        }
    }
}

/// An RAII span: records the elapsed wall-clock time into the stage
/// histogram of the recorder installed when it drops. Created by
/// [`span`].
#[derive(Debug)]
pub struct Span {
    stage: Stage,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        record(|m| m.spans[self.stage as usize].record(elapsed));
    }
}

/// Starts a wall-clock span for `stage`; the elapsed time is recorded
/// when the returned guard drops.
#[inline]
pub fn span(stage: Stage) -> Span {
    Span {
        stage,
        start: Instant::now(),
    }
}

/// Hit/miss tallies of one memo cache. Scheduling-dependent by nature:
/// two workers racing on a fresh key each count a miss, and sharded runs
/// keep per-process caches — which is exactly why these live in the
/// timing half, never in the deterministic one.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: Counter,
    /// Lookups that had to compute (includes racing double-computes).
    pub misses: Counter,
    /// Hits whose stored payload was additionally verified equal to the
    /// caller's inputs (the content-hash collision check).
    pub verified_hits: Counter,
}

impl CacheStats {
    /// The current tallies.
    pub fn snapshot(&self) -> CacheCounts {
        CacheCounts {
            hits: self.hits.get(),
            misses: self.misses.get(),
            verified_hits: self.verified_hits.get(),
        }
    }

    /// Adds another cache's tallies (a run absorbing the caches it
    /// owned).
    pub fn add(&self, counts: CacheCounts) {
        self.hits.add(counts.hits);
        self.misses.add(counts.misses);
        self.verified_hits.add(counts.verified_hits);
    }
}

/// Declares the deterministic counters once: the live [`Counters`], the
/// serialisable [`RunCounters`] snapshot (fields in declaration order),
/// the snapshot itself and the shard-merge sum.
macro_rules! deterministic_counters {
    ($($(#[$doc:meta])* $field:ident,)+) => {
        /// The deterministic half of a run's registry, live: bumped by
        /// the instrumentation sites through [`record`].
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $field: Counter,)+
        }

        /// The deterministic half of a run's metrics: pure event counts,
        /// byte-identical across thread counts and additive across
        /// shards. The shard-merge operation ([`RunCounters::merged`])
        /// is associative and commutative with [`RunCounters::default`]
        /// as identity (enforced by `tests/property_merge.rs`).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
        pub struct RunCounters {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl Counters {
            /// The current totals.
            pub fn snapshot(&self) -> RunCounters {
                RunCounters { $($field: self.$field.get(),)+ }
            }
        }

        impl RunCounters {
            /// Field-wise sum: the shard-merge operation. Saturating, so
            /// it is exactly associative and commutative over all of
            /// `u64`, with [`RunCounters::default`] as the identity.
            pub fn merged(&self, other: &RunCounters) -> RunCounters {
                RunCounters { $($field: self.$field.saturating_add(other.$field),)+ }
            }
        }
    };
}

deterministic_counters! {
    /// Trials the executor started.
    trials_started,
    /// Trials that ran to a status.
    trials_completed,
    /// Trials accepted by the design (and, where applicable, validation)
    /// stage.
    trials_accepted,
    /// Trials whose workload generation failed.
    trials_generation_failed,
    /// Trials with no valid partition.
    trials_partition_failed,
    /// Trials whose feasible-period region was empty.
    trials_design_rejected,
    /// Trials rejected by the simulator (consistency backstop).
    trials_simulation_failed,
    /// Design-stage lookups (one per paper-workload trial).
    design_cache_requests,
    /// Generation-stage lookups (one per synthetic trial).
    generation_cache_requests,
    /// Partition-stage lookups (one per generated task set).
    partition_cache_requests,
    /// Validation-stage executions (never cached).
    validate_runs,
    /// Complete simulator runs.
    sim_runs,
    /// Slot windows walked by the simulator (idle-jumped windows are
    /// skipped, not counted).
    sim_windows,
    /// Execution slices scheduled.
    sim_slices,
    /// Jobs released inside simulation horizons.
    sim_jobs_released,
    /// Jobs completed inside simulation horizons.
    sim_jobs_completed,
    /// Faults injected across all fault schedules.
    sim_faults_injected,
    /// Simulator events processed (windows walked, job admissions,
    /// dispatches, completions).
    sim_events,
    /// Idle spans the event engine skipped by jumping ≥ 2 windows at
    /// once.
    sim_idle_spans_jumped,
    /// Ticks materialised inside fault windows by the fault classifier.
    sim_ticks_materialised,
}

/// One run's live registry: what a [`Recorder`] owns and [`record`]
/// hands to instrumentation sites. The field split mirrors the two
/// halves of [`RunMetrics`] — see the crate docs for why a counter lands
/// on one side or the other.
#[derive(Debug, Default)]
pub struct Registry {
    /// Deterministic half: incremented a fixed number of times per
    /// trial.
    pub counters: Counters,
    /// Paper design-stage cache tallies (absorbed from the run's cache
    /// when the run ends).
    pub design_cache: CacheStats,
    /// Synthetic generation cache tallies.
    pub generation_cache: CacheStats,
    /// Synthetic partition cache tallies.
    pub partition_cache: CacheStats,
    /// Design-stage executions (cache misses recompute, so this is
    /// scheduling-dependent — unlike `validate_runs`).
    pub design_stage_runs: Counter,
    /// `MinQSweep` enumerations built from scratch.
    pub sweep_builds: Counter,
    /// `MinQSweep::rescale_into` reuses of an existing enumeration.
    pub sweep_rescales: Counter,
    /// Rescales served by the integer quantised fast path (all scaled
    /// WCETs exactly representable on a shared power-of-two grid).
    pub sweep_rescales_quantised: Counter,
    /// Rescales served by the sequential f64 fallback fold.
    pub sweep_rescales_scalar: Counter,
    /// Simulation runs that had to grow a fresh arena.
    pub arena_fresh: Counter,
    /// Simulation runs that reused a warm arena's buffers.
    pub arena_reused: Counter,
    spans: [DurationHisto; 4],
    worker_trials: Mutex<Vec<u64>>,
}

impl Registry {
    /// Records that one campaign worker processed `trials` trials (the
    /// per-worker throughput list of the timing half).
    pub fn record_worker_trials(&self, trials: u64) {
        self.worker_trials
            .lock()
            .expect("worker list poisoned")
            .push(trials);
    }
}

thread_local! {
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Hands the registry of the recorder installed on this thread to `f`;
/// without one (or while the thread is being torn down), the event is
/// dropped and `f` never runs.
#[inline]
pub fn record(f: impl FnOnce(&Registry)) {
    let _ = CURRENT.try_with(|current| {
        if let Some(recorder) = current.borrow().as_ref() {
            f(recorder);
        }
    });
}

/// The metrics of one run. Clones share one registry, so a clone handed
/// to a worker thread records into the same run.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Arc<Registry>);

impl Recorder {
    /// A recorder with every count at zero.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The recorder installed on this thread, if any — what a thread
    /// that spawns workers for its run passes on to them.
    pub fn current() -> Option<Recorder> {
        CURRENT.with(|current| current.borrow().clone())
    }

    /// Installs this recorder on the calling thread until the returned
    /// guard drops, which restores whatever was installed before.
    #[must_use = "the recorder is uninstalled as soon as the guard drops"]
    pub fn install(&self) -> Installed {
        let previous = CURRENT.with(|current| current.replace(Some(self.clone())));
        Installed {
            previous,
            _thread_bound: PhantomData,
        }
    }

    /// The run's metrics document. `workers` and `wall_seconds` are
    /// facts of the run its owner measured, not events.
    pub fn metrics(&self, workers: u64, wall_seconds: f64) -> RunMetrics {
        let m = &self.0;
        RunMetrics {
            counters: m.counters.snapshot(),
            timings: RunTimings {
                wall_seconds,
                workers,
                design_cache: m.design_cache.snapshot(),
                generation_cache: m.generation_cache.snapshot(),
                partition_cache: m.partition_cache.snapshot(),
                design_stage_runs: m.design_stage_runs.get(),
                sweep_builds: m.sweep_builds.get(),
                sweep_rescales: m.sweep_rescales.get(),
                sweep_rescales_quantised: m.sweep_rescales_quantised.get(),
                sweep_rescales_scalar: m.sweep_rescales_scalar.get(),
                arena_fresh: m.arena_fresh.get(),
                arena_reused: m.arena_reused.get(),
                stages: Stage::ALL
                    .iter()
                    .map(|&s| m.spans[s as usize].timing(s))
                    .collect(),
                worker_trials: m
                    .worker_trials
                    .lock()
                    .expect("worker list poisoned")
                    .clone(),
            },
        }
    }
}

impl Deref for Recorder {
    type Target = Registry;

    fn deref(&self) -> &Registry {
        &self.0
    }
}

/// Guard of [`Recorder::install`]: restores the previously installed
/// recorder when dropped. Bound to the installing thread.
#[derive(Debug)]
pub struct Installed {
    previous: Option<Recorder>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let previous = self.previous.take();
        let _ = CURRENT.try_with(|current| *current.borrow_mut() = previous);
    }
}

/// Hit/miss split of one memo cache (timing half: racing workers may
/// both miss the same fresh key, so the split is scheduling-dependent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that computed (including disabled-cache lookups).
    pub misses: u64,
    /// Hits additionally confirmed by a full equality check (the
    /// content-hash collision guard).
    pub verified_hits: u64,
}

impl CacheCounts {
    fn merged(&self, other: &CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            verified_hits: self.verified_hits.saturating_add(other.verified_hits),
        }
    }
}

/// Wall-clock distribution of one pipeline stage: a fixed-bin histogram
/// of power-of-two microsecond buckets (bin `i` covers `[2^i, 2^(i+1))`
/// µs, first and last bins open-ended).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTiming {
    /// Stage label (`generation`, `partition`, `design`, `validate`).
    pub stage: String,
    /// Spans recorded.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_nanos: u64,
    /// Per-bin span counts (power-of-two microsecond buckets).
    pub bins_micros_log2: Vec<u64>,
}

impl StageTiming {
    fn merged(&self, other: &StageTiming) -> StageTiming {
        let bins = self
            .bins_micros_log2
            .iter()
            .zip(&other.bins_micros_log2)
            .map(|(a, b)| a.saturating_add(*b))
            .collect();
        StageTiming {
            stage: self.stage.clone(),
            count: self.count.saturating_add(other.count),
            total_nanos: self.total_nanos.saturating_add(other.total_nanos),
            bins_micros_log2: bins,
        }
    }
}

/// The machine-dependent half of a run's metrics. Excluded from every
/// identity check; merging shards sums the accumulable observations and
/// concatenates per-worker throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunTimings {
    /// Wall-clock seconds of the run (summed across merged shards).
    pub wall_seconds: f64,
    /// Worker threads the run used (max across merged shards).
    pub workers: u64,
    /// Paper design-stage cache hit/miss split.
    pub design_cache: CacheCounts,
    /// Synthetic generation cache hit/miss split.
    pub generation_cache: CacheCounts,
    /// Synthetic partition cache hit/miss split.
    pub partition_cache: CacheCounts,
    /// Design-stage executions (cache misses recompute, so this depends
    /// on scheduling — unlike `validate_runs`).
    pub design_stage_runs: u64,
    /// Fresh minimum-quanta sweeps built.
    pub sweep_builds: u64,
    /// Sweeps reused via WCET rescaling instead of a rebuild.
    pub sweep_rescales: u64,
    /// Rescales served by the integer quantised fast path.
    pub sweep_rescales_quantised: u64,
    /// Rescales served by the sequential f64 fallback fold.
    pub sweep_rescales_scalar: u64,
    /// Simulations that allocated a cold arena.
    pub arena_fresh: u64,
    /// Simulations that reused a warm arena.
    pub arena_reused: u64,
    /// Per-stage wall-clock histograms.
    pub stages: Vec<StageTiming>,
    /// Trials executed per worker, one entry per worker.
    pub worker_trials: Vec<u64>,
}

impl RunTimings {
    /// Lossy shard merge: sums, maximum worker count, concatenated
    /// per-worker throughput.
    pub fn merged(&self, other: &RunTimings) -> RunTimings {
        // Stages merge by label; a label present on one side only is
        // carried over unchanged (order: self's labels, then other's
        // extras — in practice both sides carry the fixed stage list).
        let mut stages: Vec<StageTiming> = self.stages.clone();
        for theirs in &other.stages {
            match stages.iter_mut().find(|s| s.stage == theirs.stage) {
                Some(ours) => *ours = ours.merged(theirs),
                None => stages.push(theirs.clone()),
            }
        }
        let mut worker_trials = self.worker_trials.clone();
        worker_trials.extend_from_slice(&other.worker_trials);
        RunTimings {
            wall_seconds: self.wall_seconds + other.wall_seconds,
            workers: self.workers.max(other.workers),
            design_cache: self.design_cache.merged(&other.design_cache),
            generation_cache: self.generation_cache.merged(&other.generation_cache),
            partition_cache: self.partition_cache.merged(&other.partition_cache),
            design_stage_runs: self
                .design_stage_runs
                .saturating_add(other.design_stage_runs),
            sweep_builds: self.sweep_builds.saturating_add(other.sweep_builds),
            sweep_rescales: self.sweep_rescales.saturating_add(other.sweep_rescales),
            sweep_rescales_quantised: self
                .sweep_rescales_quantised
                .saturating_add(other.sweep_rescales_quantised),
            sweep_rescales_scalar: self
                .sweep_rescales_scalar
                .saturating_add(other.sweep_rescales_scalar),
            arena_fresh: self.arena_fresh.saturating_add(other.arena_fresh),
            arena_reused: self.arena_reused.saturating_add(other.arena_reused),
            stages,
            worker_trials,
        }
    }
}

/// One run's complete metrics document (the `--metrics-json` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Deterministic event counts — see [`RunCounters`].
    pub counters: RunCounters,
    /// Machine-dependent observations — see [`RunTimings`].
    pub timings: RunTimings,
}

impl RunMetrics {
    /// Merges two runs' metrics: counters sum exactly (so merged shard
    /// counters reproduce the unsharded run byte for byte); timings
    /// aggregate lossily (summed wall clock and observations, maximum
    /// worker count, concatenated per-worker throughput).
    pub fn merged(&self, other: &RunMetrics) -> RunMetrics {
        RunMetrics {
            counters: self.counters.merged(&other.counters),
            timings: self.timings.merged(&other.timings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_are_power_of_two_micros() {
        let h = DurationHisto::default();
        h.record(Duration::from_nanos(10)); // sub-µs → bin 0
        h.record(Duration::from_micros(1)); // bin 0
        h.record(Duration::from_micros(3)); // bin 1
        h.record(Duration::from_micros(100)); // bin 6 (64..128 µs)
        h.record(Duration::from_secs(60)); // saturates into last bin
        let s = h.timing(Stage::Design);
        assert_eq!(s.stage, "design");
        assert_eq!(s.count, 5);
        assert_eq!(s.bins_micros_log2[0], 2);
        assert_eq!(s.bins_micros_log2[1], 1);
        assert_eq!(s.bins_micros_log2[6], 1);
        assert_eq!(s.bins_micros_log2[DurationHisto::BINS - 1], 1);
        assert_eq!(s.bins_micros_log2.iter().sum::<u64>(), 5);
        assert!(s.total_nanos >= 60_000_000_000);
    }

    #[test]
    fn spans_record_on_drop() {
        let recorder = Recorder::new();
        {
            let _run = recorder.install();
            drop(span(Stage::Design));
            drop(span(Stage::Validate));
        }
        let stages = recorder.metrics(1, 0.0).timings.stages;
        let count = |label: &str| stages.iter().find(|s| s.stage == label).unwrap().count;
        assert_eq!(count("design"), 1);
        assert_eq!(count("validate"), 1);
        assert_eq!(count("generation"), 0);
    }

    #[test]
    fn cache_stats_split_verified_hits() {
        let stats = CacheStats::default();
        stats.hits.incr();
        stats.verified_hits.incr();
        stats.misses.add(2);
        let expected = CacheCounts {
            hits: 1,
            misses: 2,
            verified_hits: 1,
        };
        assert_eq!(stats.snapshot(), expected);
        let recorder = Recorder::new();
        recorder.partition_cache.add(stats.snapshot());
        assert_eq!(recorder.metrics(1, 0.0).timings.partition_cache, expected);
    }

    #[test]
    fn events_outside_any_installed_recorder_are_invisible() {
        let recorder = Recorder::new();
        record(|m| m.counters.sim_runs.incr());
        drop(span(Stage::Design));
        {
            let _run = recorder.install();
            record(|m| m.counters.sim_runs.add(2));
        }
        record(|m| m.counters.sim_runs.incr());
        let metrics = recorder.metrics(1, 0.0);
        assert_eq!(metrics.counters.sim_runs, 2);
        assert!(metrics.timings.stages.iter().all(|s| s.count == 0));
        assert!(Recorder::current().is_none());
    }

    #[test]
    fn scoped_worker_threads_inherit_the_recorder() {
        let recorder = Recorder::new();
        let _run = recorder.install();
        let inherited = Recorder::current();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _run = inherited.as_ref().map(Recorder::install);
                    record(|m| m.counters.trials_started.incr());
                    record(|m| m.record_worker_trials(5));
                });
            }
        });
        let metrics = recorder.metrics(3, 0.0);
        assert_eq!(metrics.counters.trials_started, 3);
        assert_eq!(metrics.timings.worker_trials, vec![5, 5, 5]);
    }

    #[test]
    fn nested_install_restores_the_outer_recorder_on_drop() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _outer = outer.install();
        record(|m| m.sweep_builds.incr());
        {
            let _inner = inner.install();
            record(|m| m.sweep_builds.add(10));
        }
        record(|m| m.sweep_builds.incr());
        assert_eq!(outer.sweep_builds.get(), 2);
        assert_eq!(inner.sweep_builds.get(), 10);
    }
}
