//! The event-driven simulation engine.
//!
//! Because the partitioned scheme makes channels independent (a channel
//! only ever executes its own task subset, and only during its mode's
//! useful windows), the engine simulates one channel at a time. Time
//! advances **event to event** — job releases, useful-window edges and
//! job completions — never tick by tick:
//!
//! * useful windows are derived lazily from the cycle index `k`
//!   (`[kP + offset, kP + offset + Q̃)`, clamped to the horizon) instead
//!   of being materialised up front;
//! * when the ready queue runs dry and the next release falls beyond the
//!   current window, the engine jumps straight to the first window that
//!   can run it, skipping every idle cycle in between;
//! * jobs are dispatched by index into a flat release array, with
//!   remaining-work and completion-time kept in parallel vectors — no
//!   per-job cloning or hashing on the hot path.
//!
//! Fault classification is a single slice-major pass per channel: slices
//! are produced in time order and the schedule's fault windows are sorted
//! and disjoint, so one monotone cursor finds each slice's candidate
//! fault in O(slices + faults). Tick granularity is materialised only
//! inside fault windows (the overlap spans the classifier examines);
//! everything else is interval arithmetic.
//!
//! The result is **bit-identical** to the original slot-stepping engine,
//! which survives as [`crate::reference`] — an executable specification
//! the proptest battery and the `ftsched bench --sim` bitwise gate check
//! this engine against.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ftsched_analysis::Algorithm;
use ftsched_platform::{classify_outcome, ChannelLayout, FaultSchedule};
use ftsched_task::{Duration, Mode, PerMode, SystemPartition, Task, TaskSet, Time};

use crate::error::SimError;
use crate::job::{release_jobs_into, Job, JobId};
use crate::queue::ReadyQueue;
use crate::report::{OutcomeCounts, SimulationReport};
use crate::slot::{SlotSchedule, UsefulWindow};
use crate::trace::{ExecutionSlice, JobRecord, Trace};

/// Configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationConfig {
    /// Length of the simulated interval, in paper time units.
    pub horizon: f64,
    /// Transient faults injected during the run.
    pub fault_schedule: FaultSchedule,
    /// Whether to keep the full trace in the report (disable for large
    /// campaigns).
    pub record_trace: bool,
    /// Whether to record every completed job's response time, grouped per
    /// task, in [`SimulationReport::response_times`]. Off by default: the
    /// campaign engine enables it only when a spec asks for response-time
    /// histograms, so trials that don't need the data pay nothing.
    pub record_response_times: bool,
}

impl SimulationConfig {
    /// A fault-free run over the given horizon with trace recording on.
    pub fn fault_free(horizon: f64) -> Self {
        SimulationConfig {
            horizon,
            fault_schedule: FaultSchedule::none(),
            record_trace: true,
            record_response_times: false,
        }
    }
}

/// Reusable scratch storage for [`simulate_in`]: the job list, execution
/// slices, job records and the per-job dispatch state of one simulation
/// run (plus the window/queue/completion buffers of the slot-stepping
/// [`crate::reference`] engine, which shares the arena).
///
/// A fresh arena is allocated by the convenience [`simulate`]; campaign
/// kernels that run thousands of trials keep one arena per worker and
/// pass it to [`simulate_in`], so every trial after the first reuses the
/// buffers instead of reallocating them. The arena carries **no state
/// between runs** — every buffer is cleared before use, and reports are
/// bit-identical with or without reuse.
#[derive(Debug)]
pub struct SimArena {
    pub(crate) jobs: Vec<Job>,
    pub(crate) windows: Vec<UsefulWindow>,
    pub(crate) queue: ReadyQueue,
    pub(crate) slices: Vec<ExecutionSlice>,
    pub(crate) records: Vec<JobRecord>,
    pub(crate) completions: HashMap<JobId, Time>,
    /// Indices (into `jobs`) of released-but-unfinished jobs.
    ready: Vec<u32>,
    /// Remaining work per job, parallel to `jobs`.
    remaining: Vec<Duration>,
    /// Completion instant per job, parallel to `jobs`.
    completed_at: Vec<Option<Time>>,
    /// Job index behind each entry of `slices` (the trace slice itself
    /// carries only the `JobId`), so the fault classifier can mark jobs
    /// in O(1).
    slice_jobs: Vec<u32>,
    /// Fault-overlap flag per job, parallel to `jobs`.
    fault_marks: Vec<bool>,
}

impl Default for SimArena {
    fn default() -> Self {
        SimArena {
            jobs: Vec::new(),
            windows: Vec::new(),
            // Placeholder policy; `reset` installs the real one per run.
            queue: ReadyQueue::new(Algorithm::EarliestDeadlineFirst),
            slices: Vec::new(),
            records: Vec::new(),
            completions: HashMap::new(),
            ready: Vec::new(),
            remaining: Vec::new(),
            completed_at: Vec::new(),
            slice_jobs: Vec::new(),
            fault_marks: Vec::new(),
        }
    }
}

impl SimArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SimArena::default()
    }
}

/// Per-channel tallies of the event engine, batched into `ftsched_obs`
/// once per run. All three are pure functions of the simulation inputs.
#[derive(Debug, Default, Clone, Copy)]
struct ChannelStats {
    /// Useful windows actually visited (idle-jumped windows don't count).
    windows_walked: u64,
    /// Events processed: windows entered, jobs admitted, dispatches,
    /// completions.
    events: u64,
    /// Idle spans skipped by jumping ≥ 2 windows ahead at once.
    idle_jumps: u64,
}

/// Simulates the partitioned, slot-gated system.
///
/// * `tasks` — the whole application task set;
/// * `partition` — the per-mode channel assignment;
/// * `algorithm` — the local dispatching policy on every channel;
/// * `slots` — the slot schedule (period, quanta, overheads);
/// * `config` — horizon, fault schedule, trace recording.
///
/// Allocates a fresh [`SimArena`] per call; hot loops should hold one
/// arena and call [`simulate_in`] instead.
///
/// # Errors
///
/// Returns a [`SimError`] for a non-positive horizon or an invalid
/// partition.
pub fn simulate(
    tasks: &TaskSet,
    partition: &SystemPartition,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    config: &SimulationConfig,
) -> Result<SimulationReport, SimError> {
    let mut arena = SimArena::default();
    simulate_in(tasks, partition, algorithm, slots, config, &mut arena)
}

/// [`simulate`] with caller-owned scratch storage: buffers in `arena` are
/// cleared and reused instead of reallocated, which is the dominant
/// saving for short campaign trials. The report is bit-identical to
/// [`simulate`]'s.
///
/// # Errors
///
/// Returns a [`SimError`] for a non-positive horizon or an invalid
/// partition.
pub fn simulate_in(
    tasks: &TaskSet,
    partition: &SystemPartition,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    config: &SimulationConfig,
    arena: &mut SimArena,
) -> Result<SimulationReport, SimError> {
    if !(config.horizon > 0.0 && config.horizon.is_finite()) {
        return Err(SimError::InvalidHorizon);
    }
    partition.validate(tasks)?;
    // Arena warmth before any buffer is touched: a reused arena keeps its
    // capacities from the previous run, a fresh one has none.
    let arena_warm = arena.jobs.capacity() + arena.windows.capacity() + arena.slices.capacity() > 0;
    let mut windows_walked = 0u64;
    let mut slices_scheduled = 0u64;
    let mut events_processed = 0u64;
    let mut idle_jumps = 0u64;
    let mut fault_ticks = 0u64;
    let horizon = Duration::from_units(config.horizon);
    let horizon_time = Time::ZERO + horizon;

    let mut trace = Trace::default();
    let mut outcomes: PerMode<OutcomeCounts> = PerMode::splat(OutcomeCounts::default());
    let mut worst_response: HashMap<ftsched_task::TaskId, f64> = HashMap::new();
    // BTreeMap: per-task response-time lists iterate in task-id order, so
    // everything derived from them downstream is deterministic.
    let mut response_times: Option<std::collections::BTreeMap<ftsched_task::TaskId, Vec<f64>>> =
        config.record_response_times.then(Default::default);
    let mut executed_time = PerMode::splat(0.0);
    let mut released_jobs = 0u64;
    let mut completed_jobs = 0u64;
    let mut deadline_misses = 0u64;
    let mut effective_faults: std::collections::HashSet<u64> = std::collections::HashSet::new();

    for mode in Mode::ALL {
        let channel_sets = partition.mode(mode).channel_task_sets(tasks)?;
        let layout = ChannelLayout::canonical(mode);
        for (channel, channel_set) in channel_sets.iter().enumerate() {
            let stats =
                simulate_channel(channel_set, mode, channel, algorithm, slots, horizon, arena);
            windows_walked += stats.windows_walked;
            events_processed += stats.events;
            idle_jumps += stats.idle_jumps;
            slices_scheduled += arena.slices.len() as u64;
            released_jobs += arena.records.len() as u64;

            // Slice-major fault classification. The record-major form —
            // "for each job, scan its slices in time order; at each slice
            // take the schedule's first overlapping fault; mark the job
            // and stop at the first right-channel hit" — is reproduced
            // exactly by one pass over all slices (each job's slices
            // appear in the same relative order) with a monotone cursor
            // over the sorted, disjoint fault windows. Jobs already
            // marked skip further checks, matching the record-major
            // break; a wrong-channel overlap leaves the job unmarked so
            // its later slices are still examined, as before.
            let faults = config.fault_schedule.faults();
            arena.fault_marks.clear();
            arena.fault_marks.resize(arena.records.len(), false);
            if !faults.is_empty() {
                let mut cursor = 0usize;
                for (slice, &ji) in arena.slices.iter().zip(&arena.slice_jobs) {
                    while cursor < faults.len() && faults[cursor].end() <= slice.start {
                        cursor += 1;
                    }
                    let Some(fault) = faults.get(cursor) else {
                        break;
                    };
                    if arena.fault_marks[ji as usize] {
                        continue;
                    }
                    if fault.overlaps(slice.start, slice.end) {
                        // Tick granularity exists only here: the overlap
                        // span the classifier examines inside the fault
                        // window.
                        fault_ticks +=
                            fault.end().min(slice.end).ticks() - fault.at.max(slice.start).ticks();
                        if layout.channel_of_core(fault.core) == Some(channel) {
                            arena.fault_marks[ji as usize] = true;
                            effective_faults.insert(fault.at.ticks());
                        }
                    }
                }
            }

            for (record, &overlapped) in arena.records.iter().zip(&arena.fault_marks) {
                let outcome = classify_outcome(mode, overlapped);
                outcomes[mode].record(outcome);

                let mut record = *record;
                record.outcome = outcome;
                if let Some(completion) = record.completion {
                    completed_jobs += 1;
                    let rt = completion.saturating_since(record.release).as_units();
                    let entry = worst_response.entry(record.job.task).or_insert(0.0);
                    if rt > *entry {
                        *entry = rt;
                    }
                    if let Some(map) = response_times.as_mut() {
                        map.entry(record.job.task).or_default().push(rt);
                    }
                }
                let missed = match record.completion {
                    Some(completion) => completion > record.deadline,
                    None => record.deadline < horizon_time,
                };
                record.deadline_met = !missed;
                if missed {
                    deadline_misses += 1;
                }
                if config.record_trace {
                    trace.jobs.push(record);
                }
            }
            executed_time[mode] += arena
                .slices
                .iter()
                .map(|s| s.length().as_units())
                .sum::<f64>();
            if config.record_trace {
                trace.slices.extend_from_slice(&arena.slices);
            }
        }
    }

    // One batched update per run: the deterministic counts are pure
    // functions of the inputs (arena warmth provably does not affect
    // them — see `arena_reuse_is_bit_identical_to_fresh_allocation`),
    // while the arena tallies are scheduling-dependent and live in the
    // timing half.
    ftsched_obs::record(|m| {
        let c = &m.counters;
        c.sim_runs.incr();
        c.sim_windows.add(windows_walked);
        c.sim_slices.add(slices_scheduled);
        c.sim_jobs_released.add(released_jobs);
        c.sim_jobs_completed.add(completed_jobs);
        c.sim_faults_injected
            .add(config.fault_schedule.len() as u64);
        c.sim_events.add(events_processed);
        c.sim_idle_spans_jumped.add(idle_jumps);
        c.sim_ticks_materialised.add(fault_ticks);
        if arena_warm {
            m.arena_reused.incr();
        } else {
            m.arena_fresh.incr();
        }
    });

    Ok(SimulationReport {
        horizon: config.horizon,
        released_jobs,
        completed_jobs,
        deadline_misses,
        outcomes,
        worst_response_times: worst_response,
        response_times,
        executed_time,
        effective_faults: effective_faults.len() as u64,
        trace: if config.record_trace {
            Some(trace)
        } else {
            None
        },
    })
}

/// Simulates one channel of one mode over the horizon, leaving the
/// execution slices and job records in `arena.slices` / `arena.records`
/// (with `arena.slice_jobs` carrying the job index behind each slice).
///
/// Useful windows are derived on the fly from the cycle index: window `k`
/// of a mode is `[kP + offset, kP + offset + Q̃)` clamped to the horizon,
/// exactly the intervals [`SlotSchedule::useful_windows_into`] would
/// materialise (`u64` tick arithmetic, so `k·P` equals the reference
/// engine's iterated `cycle_start += P` bit for bit). Whenever the ready
/// queue is empty and the next release lies beyond the current window,
/// the cycle index jumps straight to the first window whose useful part
/// can run that release.
#[allow(clippy::too_many_arguments)]
fn simulate_channel(
    channel_tasks: &TaskSet,
    mode: Mode,
    channel: usize,
    algorithm: Algorithm,
    slots: &SlotSchedule,
    horizon: Duration,
    arena: &mut SimArena,
) -> ChannelStats {
    // Order tasks by the dispatching policy's priority (only meaningful for
    // FP; EDF ignores the index).
    let ordered: Vec<Task> = match algorithm.priority_order() {
        Some(order) => channel_tasks.sorted_by_priority(order),
        None => channel_tasks.tasks().to_vec(),
    };
    let SimArena {
        jobs,
        slices,
        records,
        ready,
        remaining,
        completed_at,
        slice_jobs,
        ..
    } = arena;
    release_jobs_into(&ordered, horizon, jobs);
    slices.clear();
    records.clear();
    slice_jobs.clear();
    ready.clear();
    remaining.clear();
    remaining.extend(jobs.iter().map(|j| j.wcet));
    completed_at.clear();
    completed_at.resize(jobs.len(), None);

    let all_jobs: &[Job] = jobs;
    let mut stats = ChannelStats::default();

    // Pick the ready job the dispatching policy would run next. The keys
    // are exactly [`ReadyQueue`]'s and are unique per job (FP priorities
    // are release-array indices per task, and (task, activation) breaks
    // every remaining tie), so selection is order-insensitive.
    let pop_best = |ready: &mut Vec<u32>| -> Option<u32> {
        if ready.is_empty() {
            return None;
        }
        let best = match algorithm {
            Algorithm::RateMonotonic | Algorithm::DeadlineMonotonic => ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    let j = &all_jobs[i as usize];
                    (j.priority, j.release, j.id.activation, j.id.task)
                })
                .map(|(pos, _)| pos),
            Algorithm::EarliestDeadlineFirst => ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &i)| {
                    let j = &all_jobs[i as usize];
                    (j.deadline, j.id.task, j.id.activation)
                })
                .map(|(pos, _)| pos),
        };
        best.map(|pos| ready.swap_remove(pos))
    };

    let p = slots.period().ticks();
    let o = slots.slot_offset(mode).ticks();
    let q = slots.useful_quantum(mode).ticks();
    let h = (Time::ZERO + horizon).ticks();

    if q == 0 || p == 0 {
        // No useful windows (a zero quantum, or a period that rounds to
        // zero ticks and therefore admits no positive quantum): nothing
        // runs, every record stays incomplete.
        push_records(all_jobs, completed_at, mode, channel, records);
        return stats;
    }

    let mut next_release = 0usize;
    let mut k: u64 = 0;
    'windows: loop {
        let w_start = match k.checked_mul(p).and_then(|v| v.checked_add(o)) {
            Some(v) if v < h => v,
            _ => break,
        };
        let w_end = w_start.saturating_add(q).min(h);
        let window_end = Time::from_ticks(w_end);
        let mut now = Time::from_ticks(w_start);
        stats.windows_walked += 1;
        stats.events += 1;
        loop {
            // Admit everything released up to `now`.
            while next_release < all_jobs.len() && all_jobs[next_release].release <= now {
                ready.push(next_release as u32);
                next_release += 1;
                stats.events += 1;
            }
            if now >= window_end {
                break;
            }
            let Some(ji) = pop_best(ready) else {
                // Idle: hop to the next release inside this window, or
                // jump the whole idle span to the first window that can
                // run the next release.
                match all_jobs.get(next_release) {
                    Some(next) if next.release < window_end => {
                        now = next.release.max(now);
                        continue;
                    }
                    Some(next) => {
                        // `release ≥ window_end` and the horizon clamp
                        // only bites on the last window (releases are
                        // strictly inside the horizon), so here
                        // `release ≥ kP + offset + Q̃`: the first cycle
                        // whose useful part ends after the release is
                        // `(release − offset − Q̃) / P + 1`.
                        let r = next.release.ticks();
                        let jump = if r < o + q { 0 } else { (r - o - q) / p + 1 };
                        debug_assert!(jump > k);
                        if jump > k + 1 {
                            stats.idle_jumps += 1;
                        }
                        k = jump.max(k + 1);
                        continue 'windows;
                    }
                    // No pending work and no future releases: done.
                    None => break 'windows,
                }
            };
            let ji = ji as usize;
            let job = &all_jobs[ji];
            // Run until the job completes, the window closes, or a new
            // release may pre-empt it.
            let mut run_until = (now + remaining[ji]).min(window_end);
            if let Some(next) = all_jobs.get(next_release) {
                if next.release > now && next.release < run_until {
                    run_until = next.release;
                }
            }
            remaining[ji] -= run_until - now;
            slices.push(ExecutionSlice {
                job: job.id,
                mode,
                channel,
                start: now,
                end: run_until,
            });
            slice_jobs.push(ji as u32);
            now = run_until;
            stats.events += 1;
            if remaining[ji].is_zero() {
                completed_at[ji] = Some(now);
                stats.events += 1;
            } else {
                ready.push(ji as u32);
            }
        }
        k += 1;
    }

    push_records(all_jobs, completed_at, mode, channel, records);
    stats
}

/// Emits one [`JobRecord`] per released job, completion taken from the
/// parallel `completed_at` vector; outcome and deadline fields are
/// finalised by [`simulate_in`].
fn push_records(
    all_jobs: &[Job],
    completed_at: &[Option<Time>],
    mode: Mode,
    channel: usize,
    records: &mut Vec<JobRecord>,
) {
    for (job, &completion) in all_jobs.iter().zip(completed_at) {
        records.push(JobRecord {
            job: job.id,
            mode,
            channel,
            release: job.release,
            deadline: job.deadline,
            completion,
            deadline_met: true, // finalised by the caller
            outcome: ftsched_platform::JobOutcome::CorrectNoFault, // finalised by the caller
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_platform::{Fault, FaultSchedule};
    use ftsched_task::examples::{paper_example, PAPER_TOTAL_OVERHEAD};
    use ftsched_task::{Mode, PerMode, TaskId};

    /// The Table 2(b) slot schedule.
    fn table2b_slots() -> SlotSchedule {
        SlotSchedule::new(
            2.966,
            PerMode {
                ft: 0.820,
                fs: 1.281,
                nf: 0.815,
            },
            PerMode::splat(PAPER_TOTAL_OVERHEAD / 3.0),
        )
        .unwrap()
    }

    fn fault_at(at: f64, dur: f64, core: usize) -> Fault {
        Fault {
            at: Time::from_units(at),
            duration: Duration::from_units(dur),
            core: ftsched_platform::cpu::CoreId(core),
            mask: 0xF0F0,
        }
    }

    #[test]
    fn paper_design_runs_without_deadline_misses_under_edf() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(240.0),
        )
        .unwrap();
        assert!(report.released_jobs > 50);
        assert!(
            report.all_deadlines_met(),
            "misses: {}",
            report.deadline_misses
        );
        assert!(report.integrity_preserved());
        let trace = report.trace.as_ref().unwrap();
        assert!(trace.slices_are_disjoint_per_channel());
    }

    #[test]
    fn paper_design_runs_without_deadline_misses_under_rm() {
        // The Table 2(b) quanta were derived for EDF; for RM we derive the
        // minimum quanta from the analysis layer at a period well inside
        // the RM region of Figure 4 (P = 1.8 < 2.381) and simulate those.
        let (tasks, partition) = paper_example();
        let period = 1.8;
        let channel_sets = partition.channel_task_sets(&tasks).unwrap();
        let quanta = PerMode::from_fn(|mode| {
            ftsched_analysis::min_quantum_multi(
                channel_sets.get(mode),
                Algorithm::RateMonotonic,
                period,
            )
            .unwrap()
            .quantum
        });
        let total = quanta.total() + PAPER_TOTAL_OVERHEAD;
        assert!(
            total <= period,
            "P={period} not RM-feasible (needs {total:.3})"
        );
        let slots =
            SlotSchedule::new(period, quanta, PerMode::splat(PAPER_TOTAL_OVERHEAD / 3.0)).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::RateMonotonic,
            &slots,
            &SimulationConfig::fault_free(240.0),
        )
        .unwrap();
        assert!(
            report.all_deadlines_met(),
            "misses: {}",
            report.deadline_misses
        );
    }

    #[test]
    fn undersized_quanta_produce_deadline_misses() {
        let (tasks, partition) = paper_example();
        // Starve the FT slot: 0.1 per period is far below minQ ≈ 0.82.
        let slots = SlotSchedule::new(
            2.966,
            PerMode {
                ft: 0.1,
                fs: 1.281,
                nf: 0.815,
            },
            PerMode::splat(PAPER_TOTAL_OVERHEAD / 3.0),
        )
        .unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &slots,
            &SimulationConfig::fault_free(240.0),
        )
        .unwrap();
        assert!(!report.all_deadlines_met());
        assert!(report.deadline_misses > 0);
    }

    #[test]
    fn response_times_are_bounded_by_deadlines_in_a_valid_design() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(120.0),
        )
        .unwrap();
        for task in tasks.iter() {
            if let Some(rt) = report.worst_response_time(task.id) {
                assert!(
                    rt.as_units() <= task.deadline + 1e-9,
                    "{}: response {:.3} > deadline {}",
                    task.id,
                    rt.as_units(),
                    task.deadline
                );
            }
        }
    }

    #[test]
    fn executed_time_matches_task_demand() {
        let (tasks, partition) = paper_example();
        let horizon = 240.0;
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(horizon),
        )
        .unwrap();
        // All jobs complete, so the executed time per mode approaches the
        // mode utilisation × horizon (edge effects at the horizon aside).
        for mode in Mode::ALL {
            let demand = tasks.mode_utilization(mode) * horizon;
            let executed = report.executed_time[mode];
            assert!(
                (executed - demand).abs() < demand * 0.1 + 5.0,
                "{mode}: executed {executed:.1}, demand {demand:.1}"
            );
        }
    }

    #[test]
    fn fault_on_ft_slot_is_masked() {
        let (tasks, partition) = paper_example();
        // The FT useful window of the first cycle is [0, 0.820); a fault on
        // core 2 during it overlaps whatever FT job is running then.
        let schedule = FaultSchedule::new(vec![fault_at(0.1, 0.3, 2)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 60.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.outcomes[Mode::FaultTolerant].correct_masked >= 1);
        assert_eq!(report.outcomes[Mode::FaultTolerant].wrong_result, 0);
        assert!(report.integrity_preserved());
        assert!(report.all_deadlines_met());
        assert!(report.effective_faults >= 1);
    }

    #[test]
    fn fault_on_fs_slot_silences_but_never_corrupts() {
        let (tasks, partition) = paper_example();
        // The FS useful window of the first cycle is roughly
        // [0.837, 2.118); core 1 belongs to FS channel 0.
        let schedule = FaultSchedule::new(vec![fault_at(1.0, 0.4, 1)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 60.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.outcomes[Mode::FailSilent].silenced_lost >= 1);
        assert_eq!(report.outcomes[Mode::FailSilent].wrong_result, 0);
        assert!(report.integrity_preserved());
    }

    #[test]
    fn fault_on_nf_slot_can_corrupt_results() {
        let (tasks, partition) = paper_example();
        // The NF useful window of the first cycle is roughly
        // [2.135, 2.950); core 0 hosts NF channel 0 (task τ1).
        let schedule = FaultSchedule::new(vec![fault_at(2.3, 0.4, 0)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 60.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.outcomes[Mode::NonFaultTolerant].wrong_result >= 1);
        assert!(!report.integrity_preserved());
        // Protected modes are untouched by an NF-slot fault.
        assert_eq!(report.outcomes[Mode::FaultTolerant].wrong_result, 0);
        assert_eq!(report.outcomes[Mode::FailSilent].wrong_result, 0);
    }

    #[test]
    fn fault_outside_any_execution_has_no_effect() {
        let (tasks, partition) = paper_example();
        // A fault inside the FT switch overhead (~[0.820, 0.837)) of the
        // first cycle hits no executing job — at that instant nothing runs.
        let schedule = FaultSchedule::new(vec![fault_at(0.825, 0.005, 3)]).unwrap();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 30.0,
                fault_schedule: schedule,
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert_eq!(report.total_outcomes().silenced_lost, 0);
        assert_eq!(report.total_outcomes().wrong_result, 0);
        assert_eq!(report.effective_faults, 0);
    }

    #[test]
    fn invalid_horizon_is_rejected() {
        let (tasks, partition) = paper_example();
        let err = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(0.0),
        )
        .unwrap_err();
        assert_eq!(err, SimError::InvalidHorizon);
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig {
                horizon: 30.0,
                fault_schedule: FaultSchedule::none(),
                record_trace: false,
                record_response_times: false,
            },
        )
        .unwrap();
        assert!(report.trace.is_none());
        assert!(report.released_jobs > 0);
    }

    #[test]
    fn arena_reuse_is_bit_identical_to_fresh_allocation() {
        let (tasks, partition) = paper_example();
        let slots = table2b_slots();
        let faults =
            FaultSchedule::new(vec![fault_at(0.1, 0.3, 2), fault_at(1.0, 0.4, 1)]).unwrap();
        let mut arena = SimArena::new();
        for record_trace in [true, false] {
            for horizon in [30.0, 120.0, 60.0] {
                let config = SimulationConfig {
                    horizon,
                    fault_schedule: faults.clone(),
                    record_trace,
                    record_response_times: false,
                };
                let fresh = simulate(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                )
                .unwrap();
                // The same arena reused across horizons and trace modes
                // (dirty from the previous run) must not change a bit.
                let reused = simulate_in(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                    &mut arena,
                )
                .unwrap();
                assert_eq!(fresh, reused, "horizon {horizon}, trace {record_trace}");
            }
        }
    }

    #[test]
    fn per_task_response_times_are_recorded() {
        let (tasks, partition) = paper_example();
        let report = simulate(
            &tasks,
            &partition,
            Algorithm::EarliestDeadlineFirst,
            &table2b_slots(),
            &SimulationConfig::fault_free(120.0),
        )
        .unwrap();
        // τ9 (C=1, T=4, FS) releases 30 jobs in 120 units; it must appear.
        assert!(report.worst_response_time(TaskId(9)).is_some());
        assert!(report.worst_response_time(TaskId(9)).unwrap().as_units() <= 4.0 + 1e-9);
    }

    #[test]
    fn event_engine_matches_slot_stepping_reference() {
        // The proptest battery in `tests/sim_equivalence.rs` covers
        // randomised workloads; this is the fast in-crate smoke over the
        // paper design with and without faults.
        let (tasks, partition) = paper_example();
        let slots = table2b_slots();
        let faults =
            FaultSchedule::new(vec![fault_at(0.1, 0.3, 2), fault_at(5.9, 0.4, 1)]).unwrap();
        for schedule in [FaultSchedule::none(), faults] {
            for record_trace in [true, false] {
                let config = SimulationConfig {
                    horizon: 120.0,
                    fault_schedule: schedule.clone(),
                    record_trace,
                    record_response_times: true,
                };
                let event = simulate(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                )
                .unwrap();
                let slot = crate::reference::simulate_slot_stepping(
                    &tasks,
                    &partition,
                    Algorithm::EarliestDeadlineFirst,
                    &slots,
                    &config,
                )
                .unwrap();
                assert_eq!(event, slot, "trace {record_trace}");
            }
        }
    }
}
