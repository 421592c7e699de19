//! The orchestrator's recovery contract, end to end: supervised shard
//! workers with retries, atomic integrity-checked checkpoints, and
//! resume-by-adoption must always converge on a merged report that is
//! **byte-identical** to an unsharded `run_campaign` of the same spec —
//! however many workers fail, however many times the orchestrator is
//! restarted, and whatever random subset of checkpoints survives (or is
//! corrupted) between restarts.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use proptest::prelude::*;

use ftsched_campaign::checkpoint::checkpoint_path;
use ftsched_campaign::prelude::*;
use ftsched_campaign::{InProcessBackend, ShardLaunch, WorkerFailure};

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        algorithms: vec![Algorithm::EarliestDeadlineFirst],
        utilizations: vec![0.6, 1.1, 1.5],
        trials_per_scenario: 4,
        ..CampaignSpec::base("orchestrator-test")
    }
}

static DIR_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty checkpoint directory unique to this process + call.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ftsched-orch-test-{tag}-{}-{}",
        std::process::id(),
        DIR_SERIAL.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fast-retry orchestrator config for tests.
fn config(shards: usize, dir: &Path) -> OrchestratorConfig {
    let mut config = OrchestratorConfig::new(shards, dir.to_path_buf());
    config.backoff_base_ms = 1;
    config.backoff_cap_ms = 2;
    config.workers = 2;
    config
}

/// Wraps the in-process backend, failing listed shards once (injected
/// failures are consumed, so the retry succeeds).
struct FlakyBackend {
    inner: InProcessBackend,
    fail_once: Mutex<HashSet<usize>>,
}

impl FlakyBackend {
    fn failing(indices: impl IntoIterator<Item = usize>) -> Self {
        FlakyBackend {
            inner: InProcessBackend { threads: 1 },
            fail_once: Mutex::new(indices.into_iter().collect()),
        }
    }
}

impl WorkerBackend for FlakyBackend {
    fn run_shard(&self, launch: &ShardLaunch<'_>) -> Result<(), WorkerFailure> {
        if self.fail_once.lock().unwrap().remove(&launch.shard.index) {
            return Err(WorkerFailure::Exit("injected crash".into()));
        }
        self.inner.run_shard(launch)
    }
}

/// Always fails the listed shards; runs the rest normally.
struct BrokenShardBackend {
    inner: InProcessBackend,
    broken: HashSet<usize>,
}

impl WorkerBackend for BrokenShardBackend {
    fn run_shard(&self, launch: &ShardLaunch<'_>) -> Result<(), WorkerFailure> {
        if self.broken.contains(&launch.shard.index) {
            return Err(WorkerFailure::Exit("permanently broken".into()));
        }
        self.inner.run_shard(launch)
    }
}

/// A backend that must never be called (resume should adopt instead).
struct ForbiddenBackend;

impl WorkerBackend for ForbiddenBackend {
    fn run_shard(&self, launch: &ShardLaunch<'_>) -> Result<(), WorkerFailure> {
        panic!(
            "shard {} was launched although its checkpoint should have been adopted",
            launch.shard
        );
    }
}

#[test]
fn orchestrated_report_matches_unsharded_run() {
    let spec = tiny_spec();
    let reference = run_campaign(&spec, &ExecutorConfig::default()).unwrap();
    let dir = temp_dir("identity");
    let outcome = orchestrate(&spec, &config(4, &dir), &InProcessBackend { threads: 1 }).unwrap();
    assert_eq!(outcome.report.to_json(), reference.to_json());
    assert_eq!(outcome.report.to_csv(), reference.to_csv());
    assert!(outcome.missing.is_empty());
    assert_eq!(outcome.stats.launches, 4);
    assert_eq!(outcome.stats.retries, 0);
    assert_eq!(outcome.stats.checkpoints_written, 4);
    // The deterministic worker counters fold exactly: every trial the
    // unsharded run would start is accounted for across the shards.
    assert_eq!(
        outcome.worker_counters.trials_started,
        spec.trial_count() as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_shard_workers_fold_to_the_unsharded_counters() {
    let spec = CampaignSpec {
        kind: TrialKind::DesignAndValidate,
        ..tiny_spec()
    };
    let recorder = ftsched_obs::Recorder::new();
    {
        let _run = recorder.install();
        run_campaign(&spec, &ExecutorConfig::default()).unwrap();
    }
    let unsharded = recorder.counters.snapshot();
    assert!(
        unsharded.sim_runs > 0,
        "the spec must exercise the simulator"
    );
    let dir = temp_dir("counters");
    let mut two_workers = config(4, &dir);
    two_workers.workers = 2;
    let outcome = orchestrate(&spec, &two_workers, &InProcessBackend { threads: 2 }).unwrap();
    assert_eq!(outcome.worker_counters, unsharded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_shards_are_retried_to_a_byte_identical_report() {
    let spec = tiny_spec();
    let reference = run_campaign(&spec, &ExecutorConfig::default()).unwrap();
    let dir = temp_dir("retry");
    let backend = FlakyBackend::failing([0, 2]);
    let outcome = orchestrate(&spec, &config(4, &dir), &backend).unwrap();
    assert_eq!(outcome.report.to_json(), reference.to_json());
    assert_eq!(outcome.stats.retries, 2);
    assert_eq!(outcome.stats.worker_failures, 2);
    assert_eq!(outcome.stats.launches, 6); // 4 first attempts + 2 retries
    assert_eq!(outcome.stats.shards_failed, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_fail_strict_and_degrade_with_allow_partial() {
    let spec = tiny_spec();
    let dir = temp_dir("exhaust");
    let backend = BrokenShardBackend {
        inner: InProcessBackend { threads: 1 },
        broken: [2usize].into_iter().collect(),
    };

    // Strict mode: the run fails and says which shard and why.
    let mut strict = config(4, &dir);
    strict.max_retries = 1;
    let error = orchestrate(&spec, &strict, &backend).unwrap_err();
    let message = error.to_string();
    assert!(message.contains("shard 2/4"), "got: {message}");
    assert!(message.contains("permanently broken"), "got: {message}");

    // Graceful degradation: the merged report records the gap.
    let mut partial = config(4, &dir);
    partial.max_retries = 1;
    partial.allow_partial = true;
    let outcome = orchestrate(&spec, &partial, &backend).unwrap();
    assert_eq!(outcome.missing, vec![ShardInfo { index: 2, count: 4 }]);
    assert_eq!(outcome.report.missing_shards, outcome.missing);
    assert!(!outcome.report.is_complete());
    assert!(outcome.report.to_json().contains("missing_shards"));
    assert!(outcome.report.render_table().contains("missing shards 2/4"));

    // The three completed checkpoints survived both runs: a rerun with a
    // healed fleet adopts them and only runs the broken shard.
    let reference = run_campaign(&spec, &ExecutorConfig::default()).unwrap();
    let healed = orchestrate(&spec, &config(4, &dir), &InProcessBackend { threads: 1 }).unwrap();
    assert_eq!(healed.stats.checkpoints_adopted, 3);
    assert_eq!(healed.stats.launches, 1);
    assert_eq!(healed.report.to_json(), reference.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_adopts_every_checkpoint_without_launching_workers() {
    let spec = tiny_spec();
    let dir = temp_dir("adopt");
    let first = orchestrate(&spec, &config(3, &dir), &InProcessBackend { threads: 1 }).unwrap();
    // Same directory, a backend that panics on any launch: adoption must
    // cover all shards.
    let resumed = orchestrate(&spec, &config(3, &dir), &ForbiddenBackend).unwrap();
    assert_eq!(resumed.stats.checkpoints_adopted, 3);
    assert_eq!(resumed.stats.launches, 0);
    assert_eq!(resumed.report.to_json(), first.report.to_json());
    // Adopted counters equal the original run's fold.
    assert_eq!(resumed.worker_counters, first.worker_counters);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tampered_checkpoints_are_rejected_and_rerun() {
    let spec = tiny_spec();
    let reference = run_campaign(&spec, &ExecutorConfig::default()).unwrap();
    let dir = temp_dir("tamper");
    orchestrate(&spec, &config(3, &dir), &InProcessBackend { threads: 1 }).unwrap();

    // Flip one payload byte of shard 1's checkpoint: the FNV-1a footer
    // no longer matches, so resume must re-run exactly that shard.
    let path = checkpoint_path(&dir, ShardInfo { index: 1, count: 3 });
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.iter().position(|&b| b == b'8').unwrap_or(10);
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let resumed = orchestrate(&spec, &config(3, &dir), &InProcessBackend { threads: 1 }).unwrap();
    assert_eq!(resumed.stats.checkpoints_invalid, 1);
    assert_eq!(resumed.stats.checkpoints_adopted, 2);
    assert_eq!(resumed.stats.launches, 1);
    assert_eq!(resumed.report.to_json(), reference.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For ANY subset of surviving checkpoints — with any sub-subset of
    /// them truncated on disk — resuming the orchestrator re-runs
    /// exactly the missing/corrupt shards and merges byte-identically
    /// to the unsharded report.
    #[test]
    fn resume_from_any_checkpoint_subset_is_byte_identical(
        keep_mask in 0u32..32,
        corrupt_mask in 0u32..32,
    ) {
        const SHARDS: usize = 5;
        let spec = tiny_spec();
        let reference = run_campaign(&spec, &ExecutorConfig::default()).unwrap().to_json();

        // Seed a complete checkpoint set, then knock out / corrupt the
        // masked shards, simulating an interrupted campaign.
        let dir = temp_dir("proptest");
        orchestrate(&spec, &config(SHARDS, &dir), &InProcessBackend { threads: 1 }).unwrap();
        let mut kept = 0u64;
        let mut corrupted = 0u64;
        for index in 0..SHARDS {
            let path = checkpoint_path(&dir, ShardInfo { index, count: SHARDS });
            if keep_mask & (1 << index) == 0 {
                std::fs::remove_file(&path).unwrap();
            } else if corrupt_mask & (1 << index) != 0 {
                // Truncate: loses the integrity footer.
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
                corrupted += 1;
            } else {
                kept += 1;
            }
        }

        let resumed = orchestrate(&spec, &config(SHARDS, &dir), &InProcessBackend { threads: 1 }).unwrap();
        prop_assert_eq!(resumed.report.to_json(), reference);
        prop_assert_eq!(resumed.stats.checkpoints_adopted, kept);
        prop_assert_eq!(resumed.stats.checkpoints_invalid, corrupted);
        prop_assert_eq!(resumed.stats.launches, SHARDS as u64 - kept);
        // Round-trip invariant: the merged partials re-parse to the
        // same report `ftsched merge` would produce from files.
        let reparsed: CampaignReport =
            serde_json::from_str(&resumed.report.to_json()).unwrap();
        prop_assert_eq!(reparsed.to_json(), resumed.report.to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
