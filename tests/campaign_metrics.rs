//! End-to-end checks of the observability layer's contracts: the
//! *deterministic counters* ([`RunCounters`]) of a campaign run are
//! byte-identical across worker counts, across shard + merge and under
//! concurrent runs in the same process, while the campaign report
//! itself stays byte-identical to its golden file — collecting metrics
//! never perturbs a report.
//!
//! Every run here owns its [`Recorder`], so tests in this file may run
//! in parallel with each other and with anything else in the process.

use std::sync::Barrier;

use ftsched_campaign::prelude::*;
use ftsched_campaign::RunCounters;
use ftsched_obs::Recorder;

fn root(path: &str) -> String {
    format!("{}/{path}", env!("CARGO_MANIFEST_DIR"))
}

fn example(name: &str) -> CampaignSpec {
    let path = root(&format!("examples/{name}"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let spec: CampaignSpec = serde_json::from_str(&text).expect("example spec parses");
    spec.validate().unwrap();
    spec
}

fn exec(threads: usize, block_size: usize) -> ExecutorConfig {
    ExecutorConfig {
        threads,
        block_size,
        progress: false,
        heartbeat: false,
        design_cache: true,
    }
}

/// Runs `run` under a recorder of its own and returns its report plus
/// the metrics that recorder collected.
fn recorded(run: impl FnOnce() -> CampaignReport) -> (CampaignReport, RunMetrics) {
    let recorder = Recorder::new();
    let report = {
        let _run = recorder.install();
        run()
    };
    (report, recorder.metrics(1, 0.0))
}

fn counted(run: impl FnOnce() -> CampaignReport) -> (CampaignReport, RunCounters) {
    let (report, metrics) = recorded(run);
    (report, metrics.counters)
}

#[test]
fn deterministic_counters_match_across_thread_counts_and_shard_merge() {
    let spec = example("grid_sweep.json");
    let golden = std::fs::read_to_string(root("tests/golden/grid_sweep.json")).unwrap();

    let (sequential, seq_counters) = counted(|| run_campaign(&spec, &exec(1, 32)).unwrap());
    let (threaded, thr_counters) = counted(|| run_campaign(&spec, &exec(4, 8)).unwrap());

    // Two shards, each its own recorder — exactly what two separate
    // `ftsched run --shard i/2 --metrics-json` processes would write.
    let shard = |index| ShardInfo { index, count: 2 };
    let (part0, c0) = counted(|| run_campaign_shard(&spec, &exec(2, 16), Some(shard(0))).unwrap());
    let (part1, c1) = counted(|| run_campaign_shard(&spec, &exec(2, 16), Some(shard(1))).unwrap());
    let merged = merge_reports(vec![part0, part1]).unwrap();
    let shard_counters = c0.merged(&c1);

    // The deterministic half is a pure function of the spec: identical
    // at any worker count, and additive across shards.
    assert_eq!(seq_counters, thr_counters, "1-thread vs 4-thread counters");
    assert_eq!(
        seq_counters, shard_counters,
        "unsharded vs shard-merged counters"
    );

    // Sanity on the event algebra itself: every trial is accounted for
    // by exactly one terminal status, and the simulator ran once per
    // accepted trial (caches memoise design stages, never simulation).
    let c = &seq_counters;
    let grid_trials = (spec.scenarios().len() * spec.trials_per_scenario) as u64;
    assert_eq!(c.trials_started, grid_trials);
    assert_eq!(c.trials_completed, c.trials_started);
    assert_eq!(
        c.trials_accepted
            + c.trials_generation_failed
            + c.trials_partition_failed
            + c.trials_design_rejected
            + c.trials_simulation_failed,
        c.trials_completed
    );
    assert_eq!(c.sim_runs, c.trials_accepted);
    assert_eq!(c.validate_runs, c.trials_accepted);

    // Observability never touches report bytes: all three runs still
    // reproduce the golden exactly.
    assert_eq!(sequential.to_json(), golden, "1-thread report vs golden");
    assert_eq!(threaded.to_json(), golden, "4-thread report vs golden");
    assert_eq!(merged.to_json(), golden, "shard-merged report vs golden");
}

#[test]
fn concurrent_campaigns_count_only_their_own_events() {
    let grid = example("grid_sweep.json");
    let faults = example("fault_injection.json");
    let (_, grid_solo) = counted(|| run_campaign(&grid, &exec(2, 8)).unwrap());
    let (_, faults_solo) = counted(|| run_campaign(&faults, &exec(2, 8)).unwrap());

    // Both campaigns start together, so their workers overlap.
    let start = Barrier::new(2);
    let concurrent = |spec: &CampaignSpec| {
        counted(|| {
            start.wait();
            run_campaign(spec, &exec(2, 8)).unwrap()
        })
        .1
    };
    let (grid_both, faults_both) = std::thread::scope(|scope| {
        let a = scope.spawn(|| concurrent(&grid));
        let b = scope.spawn(|| concurrent(&faults));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(
        grid_both, grid_solo,
        "grid_sweep counters under concurrency"
    );
    assert_eq!(
        faults_both, faults_solo,
        "fault_injection counters under concurrency"
    );
}

fn design_spans(metrics: &RunMetrics) -> u64 {
    let design = metrics.timings.stages.iter().find(|s| s.stage == "design");
    design.expect("every stage is listed").count
}

#[test]
fn design_only_trials_record_design_spans() {
    // Synthetic design-only trials: one feasibility check per trial
    // whose task set partitions.
    let spec = example("acceptance_ratio.json");
    let (_, metrics) = recorded(|| run_campaign(&spec, &ExecutorConfig::default()).unwrap());
    assert!(
        design_spans(&metrics) > 0,
        "acceptance_ratio records no design span"
    );
    assert!(design_spans(&metrics) <= metrics.counters.trials_started);

    // The paper workload's design-only prefix is computed once per
    // scenario and served from the design cache afterwards.
    let paper = CampaignSpec {
        workload: WorkloadSpec::Paper,
        utilizations: Vec::new(),
        trials_per_scenario: 3,
        ..CampaignSpec::base("paper-design-only")
    };
    let (_, metrics) = recorded(|| run_campaign(&paper, &exec(1, 32)).unwrap());
    assert_eq!(design_spans(&metrics), 1);
    assert_eq!(metrics.counters.design_cache_requests, 3);
}
