//! Serialisable run metrics: the `--metrics-json` side channel.
//!
//! A [`RunMetrics`] document is split into two strictly separated halves:
//!
//! * [`RunCounters`] — **deterministic** event counts. Every field is a
//!   pure `u64` count of events that occur a fixed number of times per
//!   trial, so the whole struct is a pure function of the campaign spec
//!   (and the shard slice): byte-identical at any thread count, and
//!   additive across shards — merging the counters of `--shard 0/2` and
//!   `--shard 1/2` reproduces the unsharded counters exactly. The merge
//!   operation ([`RunCounters::merged`]) is associative and commutative
//!   with [`RunCounters::default`] as identity (enforced by
//!   `tests/property_merge.rs`).
//! * [`RunTimings`] — **machine-dependent** observations: wall clock,
//!   worker throughput, stage-duration histograms, cache hit/miss splits
//!   (racing workers may both miss a fresh key) and arena/sweep reuse
//!   counts (work inside cached stages runs a scheduling-dependent
//!   number of times). These are excluded from every identity check;
//!   `ftsched metrics-strip` drops them before comparing runs.
//!
//! Campaign reports never embed either half: a report stays a pure
//! function of its spec, byte for byte, whether or not metrics are
//! collected.
//!
//! The document types are the `ftsched_obs` snapshot types themselves:
//! the owner of a run installs an [`ftsched_obs::Recorder`] around it,
//! and [`ftsched_obs::Recorder::metrics`] is the run's document.

pub use ftsched_obs::{CacheCounts, RunCounters, RunMetrics, RunTimings, StageTiming};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> RunCounters {
        RunCounters {
            trials_started: seed,
            trials_completed: seed.wrapping_mul(3),
            trials_accepted: seed / 2,
            sim_windows: seed.wrapping_mul(17),
            ..RunCounters::default()
        }
    }

    #[test]
    fn counter_merge_is_commutative_with_zero_identity() {
        let a = sample(11);
        let b = sample(29);
        assert_eq!(a.merged(&b), b.merged(&a));
        assert_eq!(a.merged(&RunCounters::default()), a);
        assert_eq!(RunCounters::default().merged(&a), a);
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let timings = RunTimings {
            wall_seconds: 1.5,
            workers: 4,
            design_cache: CacheCounts {
                hits: 3,
                misses: 1,
                verified_hits: 0,
            },
            generation_cache: CacheCounts::default(),
            partition_cache: CacheCounts::default(),
            design_stage_runs: 4,
            sweep_builds: 2,
            sweep_rescales: 7,
            sweep_rescales_quantised: 3,
            sweep_rescales_scalar: 4,
            arena_fresh: 1,
            arena_reused: 9,
            stages: vec![StageTiming {
                stage: "design".into(),
                count: 4,
                total_nanos: 123_456,
                bins_micros_log2: vec![0, 1, 3],
            }],
            worker_trials: vec![10, 12],
        };
        let doc = RunMetrics {
            counters: sample(5),
            timings,
        };
        let json = serde_json::to_string_pretty(&doc).unwrap();
        let back: RunMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn merged_timings_aggregate_lossily() {
        let mk = |wall, workers, trials: &[u64]| RunTimings {
            wall_seconds: wall,
            workers,
            design_cache: CacheCounts::default(),
            generation_cache: CacheCounts::default(),
            partition_cache: CacheCounts::default(),
            design_stage_runs: 1,
            sweep_builds: 0,
            sweep_rescales: 0,
            sweep_rescales_quantised: 0,
            sweep_rescales_scalar: 0,
            arena_fresh: 0,
            arena_reused: 0,
            stages: vec![],
            worker_trials: trials.to_vec(),
        };
        let merged = mk(1.0, 2, &[5, 6]).merged(&mk(2.0, 8, &[7]));
        assert!((merged.wall_seconds - 3.0).abs() < 1e-12);
        assert_eq!(merged.workers, 8);
        assert_eq!(merged.worker_trials, vec![5, 6, 7]);
        assert_eq!(merged.design_stage_runs, 2);
    }
}
