//! In-memory spans around the calls into each layer, and the traced
//! re-execution of a workload through the layers' public functions.
//!
//! A span records its name, start, end, parent and the trial or request
//! it belongs to. Self time is a span's duration minus the part its
//! children cover; time no layer span covers is reported as an explicit
//! unattributed residual. Spans are written out only at the end.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ftsched::campaign::seed::trial_seed;
use ftsched::campaign::{CampaignReport, CampaignSpec, ScenarioStats, WorkloadSpec};
use ftsched::core::pipeline::{design_stage_with, validate_stage, PipelineError};
use ftsched::core::PipelineConfig;
use ftsched::design::partitioner::{partition_system, PartitionHeuristic};
use ftsched::design::DesignProblem;
use ftsched::sim::SimArena;
use ftsched::task::{SystemPartition, TaskSet, Time};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Trial, shard or request id the span belongs to.
    pub id: u64,
}

/// Span recorder; when disabled, [`Tracer::span`] only runs the closure.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Durations of every span named `name`, seconds, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        Ok(())
    }
}

/// Counts the traced trial loop observes at the layer boundaries.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub analysis_points: u64,
    pub design_calls: u64,
    pub design_accepted: u64,
    pub sim_calls: u64,
    pub gen_failed: u64,
    pub partition_failed: u64,
}

/// Per-scenario outcome counts, comparable with a report's rows.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StatusCounts {
    pub accepted: u64,
    pub generation_failures: u64,
    pub partition_failures: u64,
    pub design_rejected: u64,
    pub simulation_failures: u64,
}

impl StatusCounts {
    pub fn of(stats: &ScenarioStats) -> StatusCounts {
        StatusCounts {
            accepted: stats.accepted,
            generation_failures: stats.generation_failures,
            partition_failures: stats.partition_failures,
            design_rejected: stats.design_rejected,
            simulation_failures: stats.simulation_failures,
        }
    }
}

/// Checks that the traced loop reproduced the report's per-scenario
/// outcome counts, i.e. that it re-executed the program's trials.
pub fn matches_report(counts: &[StatusCounts], report: &CampaignReport) -> bool {
    counts.len() == report.scenarios.len()
        && report
            .scenarios
            .iter()
            .zip(counts)
            .all(|(row, traced)| StatusCounts::of(&row.stats) == *traced)
}

/// Re-executes every trial of `spec` through the layers' public
/// functions, one span per layer call. Mirrors the program's campaign
/// caches: a synthetic task set is generated once per workload point and
/// trial and partitioned once per heuristic; the paper workload's design
/// runs once per scenario.
pub fn run_trials(
    spec: &CampaignSpec,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Vec<StatusCounts> {
    let scenarios = spec.scenarios();
    let mut status = vec![StatusCounts::default(); scenarios.len()];
    let mut arena = SimArena::new();
    let mut generated: HashMap<(usize, usize), (Option<TaskSet>, StdRng)> = HashMap::new();
    let mut partitioned: HashMap<(usize, usize, PartitionHeuristic), Option<SystemPartition>> =
        HashMap::new();
    let record_response_times = spec.response_histogram.is_some() || spec.latency_curves.is_some();
    let paper = matches!(spec.workload, WorkloadSpec::Paper);
    let mut global = 0u64;

    for scenario in &scenarios {
        let row = &mut status[scenario.index];
        // Paper workload: the trial-independent design prefix, once.
        let paper_design = paper.then(|| {
            // `paper_example()`, split at the layer boundary: the fixed
            // task set is this workload's generator, its manual
            // partition (validated against it) its partitioner.
            let tasks = tracer.span("task.generate", scenario.index as u64, |_| {
                ftsched::task::examples::paper_taskset()
            });
            let partition = tracer.span("partition", scenario.index as u64, |_| {
                let partition = ftsched::task::examples::paper_partition();
                partition
                    .validate(&tasks)
                    .expect("the paper partition covers exactly the Table 1 tasks");
                partition
            });
            let (problem, ctx) = tracer.span("analysis.context", scenario.index as u64, |_| {
                let problem = DesignProblem::with_total_overhead(
                    tasks,
                    partition,
                    scenario.overhead,
                    scenario.algorithm,
                )
                .expect("the paper problem is valid");
                let ctx = problem
                    .analysis_context()
                    .expect("a validated problem yields a context");
                (problem, ctx)
            });
            counts.analysis_points += ctx.point_count() as u64;
            let region = spec.region_config(&problem);
            counts.design_calls += 1;
            let designed = tracer.span("design", scenario.index as u64, |_| {
                design_stage_with(&problem, &ctx, spec.goal, &region, spec.slack_policy)
            });
            if designed.is_ok() {
                counts.design_accepted += 1;
            }
            (problem, region, designed)
        });

        for trial in 0..spec.trials_per_scenario {
            global += 1;
            let seed = trial_seed(spec.master_seed, scenario.workload_point, trial);
            let outcome = tracer.span("trial", global, |tracer| {
                let mut rng = StdRng::seed_from_u64(seed);
                let owned;
                let (problem, region, designed) = match &paper_design {
                    Some((problem, region, designed)) => (problem, *region, designed),
                    None => {
                        let key = (scenario.workload_point, trial);
                        let (tasks, after) = generated.entry(key).or_insert_with(|| {
                            tracer.span("task.generate", global, |_| {
                                let config = spec
                                    .workload
                                    .generator_config(scenario.utilization.unwrap_or(1.0))
                                    .expect("synthetic workloads have generator configs");
                                let mut fresh = rng.clone();
                                let tasks =
                                    ftsched::task::generator::generate_taskset(&mut fresh, &config)
                                        .ok();
                                if tasks.is_none() {
                                    counts.gen_failed += 1;
                                }
                                (tasks, fresh)
                            })
                        });
                        rng = after.clone();
                        let Some(tasks) = tasks.clone() else {
                            return TrialEnd::GenerationFailed;
                        };
                        let heuristic = scenario.partition_heuristic;
                        let pkey = (key.0, key.1, heuristic);
                        let partition = partitioned
                            .entry(pkey)
                            .or_insert_with(|| {
                                tracer.span("partition", global, |_| {
                                    let p = partition_system(&tasks, heuristic).ok();
                                    if p.is_none() {
                                        counts.partition_failed += 1;
                                    }
                                    p
                                })
                            })
                            .clone();
                        let Some(partition) = partition else {
                            return TrialEnd::PartitionFailed;
                        };
                        let built = tracer.span("analysis.context", global, |_| {
                            let problem = DesignProblem::with_total_overhead(
                                tasks,
                                partition,
                                scenario.overhead,
                                scenario.algorithm,
                            )
                            .ok()?;
                            let ctx = problem
                                .analysis_context()
                                .expect("a validated problem yields a context");
                            Some((problem, ctx))
                        });
                        let Some((problem, ctx)) = built else {
                            return TrialEnd::PartitionFailed;
                        };
                        counts.analysis_points += ctx.point_count() as u64;
                        let region = spec.region_config(&problem);
                        counts.design_calls += 1;
                        let designed = tracer.span("design", global, |_| {
                            design_stage_with(&problem, &ctx, spec.goal, &region, spec.slack_policy)
                        });
                        if designed.is_ok() {
                            counts.design_accepted += 1;
                        }
                        owned = (problem, designed);
                        (&owned.0, region, &owned.1)
                    }
                };
                let (solution, slots) = match designed {
                    Ok(pair) => pair,
                    Err(PipelineError::Design(_)) => return TrialEnd::DesignRejected,
                    Err(PipelineError::Simulation(_)) => return TrialEnd::SimulationFailed,
                };
                counts.sim_calls += 1;
                tracer.span("sim.validate", global, |_| {
                    let horizon =
                        problem.tasks.hyperperiod() * spec.horizon_hyperperiods.max(1) as f64;
                    let config = PipelineConfig {
                        region,
                        slack_policy: spec.slack_policy,
                        horizon_hyperperiods: spec.horizon_hyperperiods,
                        fault_schedule: spec.faults.schedule(&mut rng, Time::from_units(horizon)),
                        record_trace: false,
                        record_response_times,
                    };
                    match validate_stage(problem, solution, slots, &config, &mut arena) {
                        Ok(_) => TrialEnd::Accepted,
                        Err(_) => TrialEnd::SimulationFailed,
                    }
                })
            });
            match outcome {
                TrialEnd::Accepted => row.accepted += 1,
                TrialEnd::GenerationFailed => row.generation_failures += 1,
                TrialEnd::PartitionFailed => row.partition_failures += 1,
                TrialEnd::DesignRejected => row.design_rejected += 1,
                TrialEnd::SimulationFailed => row.simulation_failures += 1,
            }
        }
        // Entries of a finished workload point are never read again.
        if paper_design.is_none() && scenario_is_last_of_point(&scenarios, scenario.index) {
            generated.retain(|(point, _), _| *point != scenario.workload_point);
            partitioned.retain(|(point, _, _), _| *point != scenario.workload_point);
        }
    }
    status
}

fn scenario_is_last_of_point(scenarios: &[ftsched::campaign::Scenario], index: usize) -> bool {
    let point = scenarios[index].workload_point;
    scenarios[index + 1..]
        .iter()
        .all(|s| s.workload_point != point)
}

enum TrialEnd {
    Accepted,
    GenerationFailed,
    PartitionFailed,
    DesignRejected,
    SimulationFailed,
}
