//! Machine-speed calibration and steal accounting.
//!
//! On a shared machine the speed available to one tenant drifts by tens
//! of percent over minutes, as other tenants' load comes and goes: the
//! same campaign's wall time moved from 1.6 s to 2.3 s within ten minutes
//! while the program stayed the same. A fixed CPU kernel, timed between
//! the campaign runs of one benchmark run, follows that drift; the
//! run's campaign throughput and set-up time are scaled by it to a
//! reference speed (see
//! `benchsuite/README.md`). The kernel is this file's own code, and it is
//! timed only while the program under test uses no CPU (the caller
//! checks the server's CPU ticks around it), so a change to the program
//! cannot move it.
//!
//! The hypervisor also takes whole CPUs away for other guests, in
//! episodes; `/proc/stat` counts that time as steal. Every measured part
//! of a run records its steal share, so parts measured during an episode
//! can be repeated or left out of the medians.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference machine, seconds (its median
/// on the 2-core VM the benchmark was built on). A figure reported "at
/// reference speed" is what the run would have measured had the kernel
/// taken this long.
pub const REFERENCE_S: f64 = 0.44;

/// Sorts per kernel thread, each over `SORT_LEN` pseudo-random words.
const SORTS: u64 = 12;
const SORT_LEN: usize = 400_000;
/// Pops (and re-pushes) per kernel thread from an event queue of
/// `QUEUE_LEN` entries.
const QUEUE_STEPS: usize = 1_500_000;
const QUEUE_LEN: u32 = 256;
/// Maps built per kernel thread, each from `MAP_INSERTS` formatted keys
/// and parsed values.
const MAPS: usize = 120;
const MAP_INSERTS: usize = 2000;

/// Runs the kernel once, one thread per available core (as the
/// campaign's own thread pool does), and returns its wall time. Each
/// thread runs three parts, one per kind of work the program does: a
/// sort and fold over megabytes (cache misses, branches), an event
/// queue that stays in L1 (the simulator's shape) and small
/// allocations with formatting and parsing (the report encoder and
/// decoder's). On the reference VM their sum followed the campaigns'
/// drift better than the sort alone (see `benchsuite/README.md`).
pub fn kernel_seconds() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                for k in 0..SORTS {
                    black_box(sort_and_sum(black_box(t * SORTS + k + 1)));
                }
                black_box(event_queue(black_box(t + 1)));
                black_box(maps(black_box(t + 1)));
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Steal and total time of all CPUs so far, in clock ticks, from
/// `/proc/stat`: the time the hypervisor ran other guests on this VM's
/// CPUs, and everything.
#[derive(Debug, Clone, Copy)]
pub struct Ticks {
    steal: u64,
    total: u64,
}

impl Ticks {
    pub fn now() -> Result<Ticks, String> {
        let stat = std::fs::read_to_string("/proc/stat")
            .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal [guest guest_nice],
        // where guest time is already counted in user time.
        if fields.len() < 8 {
            return Err("no aggregate cpu line in /proc/stat".into());
        }
        Ok(Ticks {
            steal: fields[7],
            total: fields[..8].iter().sum(),
        })
    }

    /// Share of all CPU time since `earlier` that other guests took.
    pub fn steal_since(&self, earlier: &Ticks) -> f64 {
        (self.steal - earlier.steal) as f64 / (self.total - earlier.total).max(1) as f64
    }
}

/// User plus system CPU time process `pid` has used so far, in clock
/// ticks (`/proc/<pid>/stat` fields 14 and 15).
pub fn process_ticks(pid: u32) -> Result<u64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // The command name (field 2) is parenthesised and may hold spaces.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    match (fields.get(11), fields.get(12)) {
        (Some(utime), Some(stime)) => {
            Ok(utime.parse::<u64>().unwrap_or(0) + stime.parse::<u64>().unwrap_or(0))
        }
        _ => Err(format!("short /proc/{pid}/stat")),
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Fills a buffer from an xorshift stream, sorts it and folds it with
/// floating-point work: branchy, cache-missing and arithmetic load.
fn sort_and_sum(seed: u64) -> f64 {
    let mut x = seed;
    let mut words: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut x)).collect();
    words.sort_unstable();
    words
        .iter()
        .enumerate()
        .map(|(i, w)| ((w >> 11) as f64 * 1e-12 + i as f64).sqrt())
        .sum()
}

/// A discrete-event loop: pops the earliest of `QUEUE_LEN` pending
/// events and schedules its successor at a pseudo-random delay.
fn event_queue(seed: u64) -> f64 {
    let mut x = seed;
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> = (0..QUEUE_LEN)
        .map(|id| Reverse((xorshift(&mut x) % 1000, id)))
        .collect();
    let mut acc = 0.0;
    for _ in 0..QUEUE_STEPS {
        let Reverse((time, id)) = queue.pop().expect("the queue is never empty");
        let r = xorshift(&mut x);
        acc += (time as f64 * 0.001).mul_add(1.0001, id as f64);
        let delay = match r & 3 {
            0 => r % 97,
            1 => r % 13 + 1,
            _ => (r >> 8) % 500 + 3,
        };
        queue.push(Reverse((time + delay, id)));
    }
    acc
}

/// Builds hash maps from formatted keys and values parsed back from
/// text: many small allocations, hashing and number formatting.
fn maps(seed: u64) -> f64 {
    let mut x = seed;
    let mut acc = 0.0;
    for _ in 0..MAPS {
        let mut map: HashMap<String, Vec<f64>> = HashMap::new();
        for i in 0..MAP_INSERTS {
            let key = format!("k{}", xorshift(&mut x) % 500);
            let value: f64 = format!("{:.6}", i as f64 * 0.37)
                .parse()
                .expect("a formatted number parses");
            map.entry(key).or_default().push(value);
        }
        acc += map.values().map(|v| v.iter().sum::<f64>()).sum::<f64>();
    }
    acc
}
