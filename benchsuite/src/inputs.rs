//! Seeded inputs: campaign specs and admission request streams.
//!
//! Everything the program sees is drawn here from `--seed`: the same
//! seed gives byte-identical spec files and request frames. Sizes are
//! chosen so each timed command runs for seconds (the checked-in
//! `examples/*.json` run for 0.01–0.14 s, too short to time steadily).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ftsched::analysis::Algorithm;
use ftsched::campaign::{CampaignSpec, WorkloadSpec};
use ftsched::design::partitioner::PartitionHeuristic;
use ftsched::design::DesignGoal;
use ftsched::serve::{AdmissionRequest, TaskRequest};
use ftsched::task::generator::{generate_taskset, GeneratorConfig};
use ftsched::task::TaskSet;

/// The `grid_sweep` example's shape: 10-task synthetic sets,
/// 2 algorithms x 3 overheads x 3 heuristics, Poisson faults over one
/// hyperperiod, response histograms.
const SYNTHETIC_GRID: &str = r#"{
  "name": "design-heavy",
  "master_seed": 0,
  "trials_per_scenario": 200,
  "workload": {
    "Synthetic": {
      "task_count": 10,
      "max_task_utilization": 0.7,
      "periods": { "Choice": { "periods": [4, 6, 8, 10, 12, 15, 20, 30] } },
      "mode_mix": { "ft": 0.3076923076923077, "fs": 0.3076923076923077, "nf": 0.38461538461538464 },
      "period_granularity": null
    }
  },
  "algorithms": ["EarliestDeadlineFirst", "RateMonotonic"],
  "utilizations": [0.6, 1.0, 1.4],
  "partition_heuristic": "WorstFitDecreasing",
  "total_overhead": 0.05,
  "goal": "MinimizeOverheadBandwidth",
  "slack_policy": "KeepUnallocated",
  "faults": { "Poisson": { "mean_interarrival": 10.0, "fault_duration": 0.25 } },
  "horizon_hyperperiods": 1,
  "kind": "DesignAndValidate",
  "compare_baselines": false,
  "region_samples": 300,
  "region_refine_iterations": 10,
  "overheads": [0.02, 0.05, 0.1],
  "partition_heuristics": ["FirstFitDecreasing", "BestFitDecreasing", "WorstFitDecreasing"],
  "response_histogram": { "bin_width": 0.25, "bins": 160 }
}"#;

/// The paper's task set under EDF/RM x three overheads, Poisson faults
/// over five hyperperiods: the design stage runs once per scenario and
/// the simulator carries the trials.
const PAPER_VALIDATION: &str = r#"{
  "name": "validate-heavy",
  "master_seed": 0,
  "trials_per_scenario": 6000,
  "workload": "Paper",
  "algorithms": ["EarliestDeadlineFirst", "RateMonotonic"],
  "utilizations": [],
  "partition_heuristic": "WorstFitDecreasing",
  "total_overhead": 0.05,
  "goal": "MinimizeOverheadBandwidth",
  "slack_policy": "KeepUnallocated",
  "faults": { "Poisson": { "mean_interarrival": 8.0, "fault_duration": 0.25 } },
  "horizon_hyperperiods": 5,
  "kind": "DesignAndValidate",
  "compare_baselines": false,
  "region_samples": null,
  "region_refine_iterations": null,
  "overheads": [0.01, 0.02, 0.05]
}"#;

/// Independent streams drawn from one `--seed`.
fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn spec_from(template: &str, seed: u64) -> CampaignSpec {
    let mut spec: CampaignSpec = serde_json::from_str(template).expect("built-in spec parses");
    spec.master_seed = stream(seed, 1).gen();
    spec
}

/// `design_heavy`: the grid_sweep shape at 200 trials per scenario
/// (54 scenarios, 10,800 trials).
pub fn design_heavy_spec(seed: u64) -> CampaignSpec {
    spec_from(SYNTHETIC_GRID, seed)
}

/// `validate_heavy`: the paper task set, 6 scenarios x 6000 trials.
pub fn validate_heavy_spec(seed: u64) -> CampaignSpec {
    spec_from(PAPER_VALIDATION, seed)
}

/// `shard_merge`: the grid_sweep shape over 13 utilisations (234
/// scenarios, each carrying per-task response histograms) at 4 trials
/// per scenario, so report encode, decode and merge outweigh the trials.
pub fn shard_merge_spec(seed: u64) -> CampaignSpec {
    let mut spec = spec_from(SYNTHETIC_GRID, seed);
    spec.name = "shard-merge".into();
    spec.trials_per_scenario = 4;
    spec.utilizations = (0..13).map(|i| (4 + i) as f64 / 10.0).collect();
    spec
}

/// Serve traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every request a novel seeded task set: both serve caches miss
    /// and each request runs a full design.
    Cold,
    /// A fixed working set of platform configurations with goal flips:
    /// the admission cache answers nine requests in ten, and the rest
    /// (fixed-period goals) reuse a hot analysis context.
    Hot,
}

/// Configurations in the hot working set.
const HOT_CONFIGS: usize = 16;

/// A seeded, unbounded admission request stream.
pub struct RequestStream {
    rng: StdRng,
    traffic: Traffic,
    workload: WorkloadSpec,
    hot: Vec<AdmissionRequest>,
    next_id: u64,
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn draw_request(rng: &mut StdRng, workload: &WorkloadSpec, goal: DesignGoal) -> AdmissionRequest {
    let utilization = pick(rng, &[0.6, 0.8, 1.0, 1.2]);
    let config: GeneratorConfig = workload
        .generator_config(utilization)
        .expect("synthetic workloads have generator configs");
    let tasks: TaskSet = loop {
        if let Ok(tasks) = generate_taskset(rng, &config) {
            break tasks;
        }
    };
    AdmissionRequest {
        id: 0,
        tasks: task_requests(&tasks),
        algorithm: pick(
            rng,
            &[Algorithm::EarliestDeadlineFirst, Algorithm::RateMonotonic],
        ),
        goal,
        total_overhead: pick(rng, &[0.02, 0.05, 0.1]),
        heuristic: pick(
            rng,
            &[
                PartitionHeuristic::FirstFitDecreasing,
                PartitionHeuristic::BestFitDecreasing,
                PartitionHeuristic::WorstFitDecreasing,
            ],
        ),
    }
}

fn task_requests(tasks: &TaskSet) -> Vec<TaskRequest> {
    tasks
        .iter()
        .map(|t| TaskRequest {
            id: t.id.0,
            wcet: t.wcet,
            period: t.period,
            deadline: t.deadline,
            mode: t.mode,
        })
        .collect()
}

fn draw_goal(rng: &mut StdRng) -> DesignGoal {
    pick(
        rng,
        &[
            DesignGoal::MinimizeOverheadBandwidth,
            DesignGoal::MaximizeSlackBandwidth,
        ],
    )
}

impl RequestStream {
    pub fn new(seed: u64, traffic: Traffic) -> Self {
        // Requests draw task sets the way design_heavy's trials do.
        let workload = design_heavy_spec(seed).workload;
        let mut setup = stream(seed, 2);
        let hot = (0..HOT_CONFIGS)
            .map(|_| draw_request(&mut setup, &workload, DesignGoal::MinimizeOverheadBandwidth))
            .collect();
        RequestStream {
            rng: stream(seed, 3),
            traffic,
            workload,
            hot,
            next_id: 1,
        }
    }

    /// Every (configuration, goal) pair of the hot working set once:
    /// sent before timing starts so the caches are filled.
    pub fn warmup(&mut self) -> Vec<AdmissionRequest> {
        if self.traffic == Traffic::Cold {
            return Vec::new();
        }
        let mut out = Vec::new();
        for config in self.hot.clone() {
            for goal in [
                DesignGoal::MinimizeOverheadBandwidth,
                DesignGoal::MaximizeSlackBandwidth,
            ] {
                out.push(self.with_id(AdmissionRequest {
                    goal,
                    ..config.clone()
                }));
            }
        }
        out
    }

    fn with_id(&mut self, mut request: AdmissionRequest) -> AdmissionRequest {
        request.id = self.next_id;
        self.next_id += 1;
        request
    }

    fn hot_request(&mut self) -> AdmissionRequest {
        let config = self.hot[self.rng.gen_range(0..HOT_CONFIGS)].clone();
        let goal = if self.rng.gen_bool(0.1) {
            DesignGoal::FixedPeriod(self.rng.gen_range(0.5..4.0))
        } else {
            draw_goal(&mut self.rng)
        };
        AdmissionRequest { goal, ..config }
    }

    /// The next `n` requests of the stream.
    pub fn take(&mut self, n: usize) -> Vec<AdmissionRequest> {
        (0..n)
            .map(|_| {
                let request = if self.traffic == Traffic::Cold {
                    let goal = draw_goal(&mut self.rng);
                    draw_request(&mut self.rng, &self.workload, goal)
                } else {
                    self.hot_request()
                };
                self.with_id(request)
            })
            .collect()
    }
}

/// The fixed request `setup_s` waits for: the paper's task set, the
/// first row of its Table 2.
pub fn probe_request() -> AdmissionRequest {
    AdmissionRequest {
        id: 1,
        tasks: task_requests(&ftsched::task::examples::paper_taskset()),
        algorithm: Algorithm::EarliestDeadlineFirst,
        goal: DesignGoal::MinimizeOverheadBandwidth,
        total_overhead: 0.05,
        heuristic: PartitionHeuristic::WorstFitDecreasing,
    }
}

/// A request as one length-prefixed frame.
pub fn frame(request: &AdmissionRequest) -> Vec<u8> {
    let payload = serde_json::to_string(request).expect("requests serialise");
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}
