//! End-to-end benchmark of the `ftsched` binary.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchsuite/Cargo.toml -- \
//!     --workload design_heavy|validate_heavy|shard_merge \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The benchmark builds the shipped
//! binary, generates the workload's spec and request stream from the
//! seed, and drives `ftsched run` / `ftsched orchestrate` and
//! `ftsched serve --socket` from outside, at their default thread
//! settings. Every output is checked against the library called
//! in-process. With `--trace 0` the last stdout line carries the
//! end-to-end metrics, campaign throughput and set-up time scaled to a
//! reference machine speed measured in the same run (see
//! `calibrate.rs`); with `--trace 1` it carries the per-layer metrics,
//! serve latency among them, and those of a traced in-process
//! re-execution of the same workload (see `benchsuite/README.md`).

mod calibrate;
mod inputs;
mod loadgen;
mod spawn;
mod sys;
mod trace;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ftsched::campaign::{
    run_campaign, CampaignReport, CampaignSpec, ExecutorConfig, MergeFold, RunCounters, RunMetrics,
    ShardInfo,
};
use ftsched::serve::{AdmissionEngine, AdmissionRequest, AdmissionResponse, EngineConfig, Verdict};

use calibrate::Ticks;
use inputs::{RequestStream, Traffic};
use loadgen::PhaseResult;
use sys::Usage;
use trace::{LayerCounts, Tracer};

/// Rounds (one campaign run, one low-rate and one high-rate block each)
/// per `--seconds`, and their bounds.
const SECONDS_PER_ROUND: f64 = 4.0;
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 15;
/// Serve processes started per round to time set-up: spread over the
/// run, so one burst of interference cannot carry the median.
const SETUP_PER_ROUND: usize = 4;
/// Fixed-rate blocks per rate per round, and their length.
const BLOCKS_PER_ROUND: usize = 2;
const BLOCK_SECONDS: f64 = 0.5;
/// Fewest requests per max-rate probe: its p99 then has 10 samples
/// beyond it.
const MIN_PHASE_REQUESTS: usize = 1000;
/// A part of a run (a calibration, a campaign command, a serve block)
/// during which other guests took more than this share of the machine's
/// CPU time (`/proc/stat` steal) is disturbed: a campaign is repeated
/// (at most `rounds / 2` times per run), a calibration retaken, and the
/// medians use the undisturbed parts only (see `calm`). Over an idle
/// second this VM shows 0.01-0.03, over a busy one under 0.01; steal
/// episodes reach 0.06-0.36.
const STEAL_LIMIT: f64 = 0.05;
/// Most attempts at one calibration sample.
const KERNEL_ATTEMPTS: usize = 3;
/// CPU ticks the idle server may use while the calibration kernel runs;
/// a sample during which it used more is discarded.
const SERVER_IDLE_TICKS: u64 = 2;
/// Length of one max-rate probe (at least `MIN_PHASE_REQUESTS` requests).
const PROBE_SECONDS: f64 = 0.5;
/// Stream requests sent before timing starts, after the hot working set.
const WARMUP_REQUESTS: usize = 200;
/// Bisection of the max-rate search stops at this bracket ratio.
const RATE_RESOLUTION: f64 = 1.05;
/// Most probes one max-rate search makes.
const MAX_PROBES: usize = 12;
/// How long a phase waits past its last due time for responses.
const DRAIN: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DesignHeavy,
    ValidateHeavy,
    ShardMerge,
}

/// What one workload runs. Rates and the latency limit are the ones
/// recorded in `BENCHMARK.json`'s workload descriptions: the low rate
/// is 1/5 and the high rate 2/5 of the workload's serve max rate on the
/// reference VM, the limit ten times its low-rate p99 there (see
/// `benchsuite/README.md`).
struct Plan {
    spec: CampaignSpec,
    /// `Some(n)`: the campaign command is `orchestrate --shards n`.
    shards: Option<usize>,
    traffic: Traffic,
    low_rps: f64,
    high_rps: f64,
    limit_ms: f64,
}

fn plan(workload: Workload, seed: u64) -> Plan {
    match workload {
        Workload::DesignHeavy => Plan {
            spec: inputs::design_heavy_spec(seed),
            shards: None,
            traffic: Traffic::Cold,
            low_rps: 450.0,
            high_rps: 900.0,
            limit_ms: 20.0,
        },
        Workload::ValidateHeavy => Plan {
            spec: inputs::validate_heavy_spec(seed),
            shards: None,
            traffic: Traffic::Hot,
            low_rps: 3250.0,
            high_rps: 6500.0,
            limit_ms: 3.5,
        },
        Workload::ShardMerge => Plan {
            spec: inputs::shard_merge_spec(seed),
            shards: Some(4),
            // validate_heavy's traffic: a control that report-layer
            // changes must not move.
            traffic: Traffic::Hot,
            low_rps: 3250.0,
            high_rps: 6500.0,
            limit_ms: 3.5,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "design_heavy" => Workload::DesignHeavy,
                    "validate_heavy" => Workload::ValidateHeavy,
                    "shard_merge" => Workload::ShardMerge,
                    other => return Err(format!("unknown workload `{other}`")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(spawn::FLAG) {
        return spawn::helper();
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchsuite: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchsuite: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Attempts, failures and output checks of one run.
struct Tally {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Tally {
    fn wrong(&mut self, what: String) {
        eprintln!("benchsuite: WRONG OUTPUT: {what}");
        self.correct = false;
    }
}

/// Metric name, value, unit — printed in this order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<bool, String> {
    // First, while this process is still small (see spawn.rs).
    let mut spawner =
        spawn::Spawner::start().map_err(|e| format!("cannot start the spawner: {e}"))?;
    let bin = build_ftsched()?;
    let plan = plan(args.workload, args.seed);
    // Relative to the checkout root (the working directory): keeps the
    // socket path well under the 108-byte `sun_path` limit.
    let work = WorkDir(PathBuf::from(format!(
        "benchsuite/.work/{:?}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {:?}: {e}", work.0))?;
    let spec_path = work.0.join("spec.json");
    let spec_json = serde_json::to_string_pretty(&plan.spec).map_err(|e| e.to_string())?;
    std::fs::write(&spec_path, spec_json).map_err(|e| e.to_string())?;

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        correct: true,
    };
    let mut metrics: Metrics = Vec::new();
    let trials = plan.spec.trial_count() as f64;

    let reference = run_campaign(
        &plan.spec,
        &ExecutorConfig {
            threads: 1,
            ..ExecutorConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let reference_json = reference.to_json();

    let sock = work.0.join("s.sock");
    let setup_sock = work.0.join("setup.sock");
    let rounds =
        ((args.seconds / SECONDS_PER_ROUND).round() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS);
    // The machine's speed: the calibration kernel's time, once now and
    // once per round.
    let mut kernel = vec![kernel_sample(None)?];
    let mut campaigns = Vec::new();
    let mut setup = Vec::new();
    let mut stream = RequestStream::new(args.seed, plan.traffic);
    let mut fixed = FixedRate::default();
    let (server, mut conns) =
        start_loaded(&bin, &sock, &plan, &mut stream, &mut fixed.log, &mut tally)?;
    fixed.warmup = fixed.log.len();
    let mut retries = rounds / 2;
    let ticks_before = Ticks::now()?;
    // Campaign runs, set-up launches and fixed-rate serve blocks
    // alternate, so drift in the shared machine's speed during the run
    // touches every figure alike. The server idles while a campaign runs.
    for _ in 0..rounds {
        let round_start = Ticks::now()?;
        kernel.push(kernel_sample(Some(server.pid()))?);
        loop {
            let rep = timed(|| {
                campaign_rep(
                    &mut spawner,
                    &bin,
                    &plan,
                    &work.0,
                    &spec_path,
                    &reference_json,
                    &mut tally,
                )
            })?;
            let disturbed = rep.steal > STEAL_LIMIT;
            campaigns.push(rep);
            if !disturbed || retries == 0 {
                break;
            }
            retries -= 1;
        }
        let mut launches = Vec::with_capacity(SETUP_PER_ROUND);
        for _ in 0..SETUP_PER_ROUND {
            tally.attempted += 1;
            launches.push(measure_setup(&bin, &setup_sock)?);
        }
        for _ in 0..BLOCKS_PER_ROUND {
            for (stats, rate) in [
                (&mut fixed.low, plan.low_rps),
                (&mut fixed.high, plan.high_rps),
            ] {
                let requests = stream.take((rate * BLOCK_SECONDS) as usize);
                stats.blocks.push(timed(|| {
                    send(&mut conns, requests, rate, &mut fixed.log, &mut tally)
                })?);
            }
        }
        // A launch takes milliseconds, too short to count steal over:
        // the launches carry their round's steal share.
        setup.push(Timed {
            value: launches,
            steal: Ticks::now()?.steal_since(&round_start),
        });
    }
    let steal_frac = Ticks::now()?.steal_since(&ticks_before);
    drop(conns);
    fixed.usage = server.stop()?;
    let calm_campaigns = calm(&campaigns);
    let calibration_s = median(calm(&kernel).into_iter().copied());
    // How much slower than the reference machine this run's machine was.
    let slowdown = calibration_s / calibrate::REFERENCE_S;
    let raw_trials_per_s = median(calm_campaigns.iter().map(|(wall, _)| trials / wall));
    let raw_setup_s = median(calm(&setup).into_iter().flatten().copied());
    eprintln!(
        "benchsuite: {rounds} rounds; campaign of {trials} trials, wall {:?} s; \
         block p50 ms: low {:?}, high {:?}; set-up {:?}; calibration {:?} s; \
         steal {steal_frac}, by part: kernel {:?}, campaign {:?}, low {:?}, high {:?}, \
         round {:?}; \
         unscaled trials_per_s {raw_trials_per_s}, setup_s {raw_setup_s}",
        campaigns.iter().map(|c| c.value.0).collect::<Vec<_>>(),
        fixed.low.block_p50s(),
        fixed.high.block_p50s(),
        setup.iter().map(|r| &r.value).collect::<Vec<_>>(),
        kernel.iter().map(|k| k.value).collect::<Vec<_>>(),
        steals(&kernel),
        steals(&campaigns),
        steals(&fixed.low.blocks),
        steals(&fixed.high.blocks),
        steals(&setup),
    );

    // The plain run: the orchestrate reference, and the source of the
    // program's own counters in traced runs.
    let plain_metrics = if plan.shards.is_some() || args.trace {
        let metrics_path = work.0.join("metrics.json");
        let out = work.0.join("plain.json");
        let args: Vec<String> = vec![
            "run".into(),
            spec_path.display().to_string(),
            "--quiet".into(),
            "--out".into(),
            out.display().to_string(),
            "--metrics-json".into(),
            metrics_path.display().to_string(),
        ];
        tally.attempted += 1;
        let (ok, _, _) = spawner
            .run(&bin, &args)
            .map_err(|e| format!("cannot run ftsched: {e}"))?;
        if !ok {
            tally.failed += 1;
        }
        check_file(
            &out,
            &reference_json,
            "plain `ftsched run` report",
            &mut tally,
        );
        let text = std::fs::read_to_string(&metrics_path).map_err(|e| e.to_string())?;
        Some(serde_json::from_str::<RunMetrics>(&text).map_err(|e| e.to_string())?)
    } else {
        None
    };

    let mut probe_log = Vec::new();
    // The max-rate search and the p99s are reported by traced runs only:
    // on a shared 2-core machine their run-to-run spread exceeded any
    // usable regression bound (see benchsuite/README.md).
    let max_rate = if args.trace {
        let (server, mut conns) =
            start_loaded(&bin, &sock, &plan, &mut stream, &mut probe_log, &mut tally)?;
        let found = max_rate(&mut conns, &mut stream, &plan, &mut probe_log, &mut tally)?;
        drop(conns);
        server.stop()?;
        found
    } else {
        0.0
    };

    let check_start = Instant::now();
    let answered: Log = fixed.log.iter().chain(&probe_log).cloned().collect();
    check_serve(&answered, &mut tally);
    eprintln!(
        "benchsuite: {} serve responses checked in {:.2} s",
        answered.len(),
        check_start.elapsed().as_secs_f64()
    );

    if !args.trace {
        // Campaign throughput and set-up time (a process spawn and one
        // design) are CPU work and follow the kernel. Serve latency is
        // reported by traced runs: a steal episode moves it further than
        // any bound allows (see benchsuite/README.md).
        metrics.push(("trials_per_s", raw_trials_per_s * slowdown, "1/s"));
        metrics.push((
            "peak_rss_mb.campaign",
            median(calm_campaigns.iter().map(|(_, u)| u.peak_rss_mb)),
            "MB",
        ));
        metrics.push(("setup_s", raw_setup_s / slowdown, "s"));
        metrics.push(("peak_rss_mb.serve", fixed.usage.peak_rss_mb, "MB"));
    } else {
        let counters = plain_metrics.expect("traced runs make the plain run");
        traced_metrics(
            &plan,
            &reference,
            &reference_json,
            &counters,
            &calm_campaigns
                .iter()
                .map(|(_, usage)| *usage)
                .collect::<Vec<_>>(),
            &fixed,
            max_rate,
            args.workload,
            &mut metrics,
            &mut tally,
        )?;
        metrics.push(("machine.calibration_s", calibration_s, "s"));
        metrics.push(("machine.steal_frac", steal_frac, "ratio"));
    }
    print_result(&tally, &metrics);
    Ok(tally.correct && tally.failed == 0)
}

/// Builds the shipped binary from this checkout and returns its path.
fn build_ftsched() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ftsched-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building ftsched failed".into());
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("ftsched");
    if !bin.is_file() {
        return Err(format!("no binary at {}", bin.display()));
    }
    Ok(bin)
}

fn check_file(path: &Path, expected: &str, what: &str, tally: &mut Tally) {
    match std::fs::read(path) {
        Ok(bytes) if bytes == expected.as_bytes() => {}
        Ok(_) => tally.wrong(format!("{what} differs from the in-process report")),
        Err(e) => tally.wrong(format!("{what} missing: {e}")),
    }
}

/// Runs the campaign command once and checks its report; returns its
/// wall time and usage.
fn campaign_rep(
    spawner: &mut spawn::Spawner,
    bin: &Path,
    plan: &Plan,
    work: &Path,
    spec_path: &Path,
    reference_json: &str,
    tally: &mut Tally,
) -> Result<(f64, Usage), String> {
    let out = work.join("report.json");
    let checkpoints = work.join("ckpt");
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir_all(&checkpoints);
    let mut args = vec![
        if plan.shards.is_some() {
            "orchestrate"
        } else {
            "run"
        }
        .to_string(),
        spec_path.display().to_string(),
        "--quiet".into(),
        "--out".into(),
        out.display().to_string(),
    ];
    if let Some(shards) = plan.shards {
        args.extend([
            "--shards".into(),
            shards.to_string(),
            "--checkpoint-dir".into(),
            checkpoints.display().to_string(),
        ]);
    }
    tally.attempted += 1;
    let (ok, wall, usage) = spawner
        .run(bin, &args)
        .map_err(|e| format!("cannot run ftsched: {e}"))?;
    if !ok {
        tally.failed += 1;
    }
    check_file(&out, reference_json, "campaign report", tally);
    Ok((wall, usage))
}

/// A running `ftsched serve --socket`, killed and reaped however the
/// run ends.
struct Server(Option<Child>);

impl Server {
    fn start(bin: &Path, sock: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(sock);
        Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(sock)
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map(|child| Server(Some(child)))
            .map_err(|e| format!("cannot start ftsched serve: {e}"))
    }

    fn pid(&self) -> u32 {
        self.0.as_ref().expect("a live server has a child").id()
    }

    /// Connects to the socket, retrying until the server has bound it.
    fn connect(&mut self, sock: &Path) -> Result<UnixStream, String> {
        let child = self.0.as_mut().expect("a live server has a child");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(sock) {
                Ok(stream) => return Ok(stream),
                Err(_) if Instant::now() < deadline => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(format!("ftsched serve exited early: {status}"));
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) => return Err(format!("cannot connect to {}: {e}", sock.display())),
            }
        }
    }

    /// Kills the server and returns its usage over its whole life. The
    /// peak RSS is the process's own high-water mark (`VmHWM`), read
    /// before the kill: `wait4` would report at least this harness's RSS
    /// at the spawn (see spawn.rs).
    fn stop(mut self) -> Result<Usage, String> {
        // On an early return, drop kills and reaps the server.
        let pid = self.pid();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        let hwm_kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in the server's status")?;
        let mut child = self.0.take().expect("a live server has a child");
        let _ = child.kill();
        let (_, usage) = sys::reap(child).map_err(|e| format!("wait4: {e}"))?;
        Ok(Usage {
            peak_rss_mb: hwm_kb / 1024.0,
            ..usage
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn read_response(conn: &mut UnixStream) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    conn.read_exact(&mut len)?;
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    conn.read_exact(&mut payload)?;
    Ok(payload)
}

/// Launch of `ftsched serve --socket` until its first answer, seconds.
fn measure_setup(bin: &Path, sock: &Path) -> Result<f64, String> {
    let start = Instant::now();
    let mut server = Server::start(bin, sock)?;
    let mut conn = server.connect(sock)?;
    conn.set_read_timeout(Some(DRAIN))
        .map_err(|e| e.to_string())?;
    let probe = inputs::probe_request();
    conn.write_all(&inputs::frame(&probe))
        .map_err(|e| e.to_string())?;
    let payload = read_response(&mut conn).map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(conn);
    server.stop()?;
    let parsed: AdmissionResponse = std::str::from_utf8(&payload)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
        .map_err(|e| format!("probe response: {e}"))?;
    if !matches!(parsed.verdict, Verdict::Admitted { .. }) {
        return Err("the set-up probe was not admitted".into());
    }
    Ok(elapsed)
}

/// Latencies and generator lateness of one block, ms.
struct PhaseStats {
    lat: Vec<f64>,
    lateness: Vec<f64>,
}

/// The fixed-rate blocks of one rate.
#[derive(Default)]
struct RateStats {
    blocks: Vec<Timed<PhaseStats>>,
}

impl RateStats {
    fn block_p50s(&self) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| quantile(&b.value.lat, 0.5))
            .collect()
    }

    /// Median over the undisturbed blocks of each block's p50. A burst
    /// of interference inflates whole blocks; a slower program inflates
    /// every block, so it still shows.
    fn p50(&self) -> f64 {
        median(calm(&self.blocks).iter().map(|b| quantile(&b.lat, 0.5)))
    }

    /// p99 of the undisturbed blocks' latencies, pooled.
    fn p99(&self) -> f64 {
        let lat: Vec<f64> = calm(&self.blocks)
            .iter()
            .flat_map(|b| b.lat.iter().copied())
            .collect();
        quantile(&lat, 0.99)
    }

    fn lateness(&self) -> impl Iterator<Item = f64> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.value.lateness.iter().copied())
    }
}

/// A measured part of a run and the share of the machine's CPU time
/// other guests took while it ran.
struct Timed<T> {
    value: T,
    steal: f64,
}

fn steals<T>(parts: &[Timed<T>]) -> Vec<f64> {
    parts.iter().map(|p| p.steal).collect()
}

fn timed<T>(part: impl FnOnce() -> Result<T, String>) -> Result<Timed<T>, String> {
    let before = Ticks::now()?;
    let value = part()?;
    let steal = Ticks::now()?.steal_since(&before);
    Ok(Timed { value, steal })
}

/// The undisturbed parts: those with steal at most `STEAL_LIMIT`, or,
/// when none is, the one with the least steal. Inside an episode the
/// steal share varies from part to part, and the least disturbed part
/// is the closest to a calm one.
fn calm<T>(parts: &[Timed<T>]) -> Vec<&T> {
    let mut sorted: Vec<&Timed<T>> = parts.iter().collect();
    sorted.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let under = sorted.iter().filter(|p| p.steal <= STEAL_LIMIT).count();
    let keep = under.max(1).min(parts.len());
    sorted[..keep].iter().map(|p| &p.value).collect()
}

/// Times the calibration kernel. With `server` given, the sample counts
/// only if that server used no more than `SERVER_IDLE_TICKS` of CPU
/// meanwhile: a program that burns CPU while idle would otherwise slow
/// the kernel and hide its own slowdown in the scaling. A disturbed or
/// discarded sample is retaken, up to `KERNEL_ATTEMPTS` times; if the
/// server was busy on every attempt the run fails.
fn kernel_sample(server: Option<u32>) -> Result<Timed<f64>, String> {
    let mut last = None;
    for _ in 0..KERNEL_ATTEMPTS {
        let busy_before = server.map(calibrate::process_ticks).transpose()?;
        let sample = timed(|| Ok(calibrate::kernel_seconds()))?;
        if let (Some(pid), Some(before)) = (server, busy_before) {
            let busy = calibrate::process_ticks(pid)? - before;
            if busy > SERVER_IDLE_TICKS {
                eprintln!("benchsuite: the idle server used {busy} CPU ticks during calibration");
                continue;
            }
        }
        if sample.steal <= STEAL_LIMIT {
            return Ok(sample);
        }
        last = Some(sample);
    }
    last.ok_or_else(|| {
        "ftsched serve used CPU while idle during every calibration attempt".to_string()
    })
}

type Log = Vec<(AdmissionRequest, Option<Vec<u8>>)>;

/// The fixed-rate server's run: the same request count every run.
#[derive(Default)]
struct FixedRate {
    /// Every request answered, in send order.
    log: Log,
    /// Requests of `log` sent before timing started.
    warmup: usize,
    low: RateStats,
    high: RateStats,
    usage: Usage,
}

/// Starts a server, connects `nproc` clients and sends the warm-up:
/// the hot working set (if any) and a slice of the stream at the low
/// rate, so caches are filled and lazy set-up is done before timing.
fn start_loaded(
    bin: &Path,
    sock: &Path,
    plan: &Plan,
    stream: &mut RequestStream,
    log: &mut Log,
    tally: &mut Tally,
) -> Result<(Server, Vec<UnixStream>), String> {
    let mut server = Server::start(bin, sock)?;
    let connections = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut conns = Vec::with_capacity(connections);
    for _ in 0..connections {
        conns.push(server.connect(sock)?);
    }
    let mut warm = stream.warmup();
    warm.extend(stream.take(WARMUP_REQUESTS));
    send(&mut conns, warm, plan.low_rps, log, tally)?;
    Ok((server, conns))
}

/// Sends `requests` open-loop at `rate` and logs every response.
fn send(
    conns: &mut [UnixStream],
    requests: Vec<AdmissionRequest>,
    rate: f64,
    log: &mut Log,
    tally: &mut Tally,
) -> Result<PhaseStats, String> {
    let frames: Vec<Vec<u8>> = requests.iter().map(inputs::frame).collect();
    let result: PhaseResult = loadgen::run_phase(conns, &frames, rate, DRAIN)
        .map_err(|e| format!("load generator: {e}"))?;
    tally.attempted += requests.len() as u64;
    let missing = requests.len() - result.answered();
    if missing > 0 {
        // Responses of one connection arrive in order; a gap desyncs it.
        tally.failed += missing as u64;
        return Err(format!(
            "{missing} requests got no response within {DRAIN:?}"
        ));
    }
    let stats = PhaseStats {
        lat: result
            .latency_ms
            .iter()
            .map(|l| l.expect("every request answered"))
            .collect(),
        lateness: result.lateness_ms,
    };
    log.extend(requests.into_iter().zip(result.responses));
    Ok(stats)
}

/// One max-rate probe at `rate`: passes when no request fails, p99 is
/// within the limit and the last tenth of the probe (where a growing
/// backlog shows first) has its median within the limit. Returns the
/// throughput delivered when it passes.
fn probe(
    conns: &mut [UnixStream],
    stream: &mut RequestStream,
    plan: &Plan,
    rate: f64,
    log: &mut Log,
    tally: &mut Tally,
) -> Result<Option<f64>, String> {
    let n = MIN_PHASE_REQUESTS.max((rate * PROBE_SECONDS) as usize);
    let stats = send(conns, stream.take(n), rate, log, tally)?;
    let errors = log[log.len() - n..]
        .iter()
        .filter(|(_, r)| r.as_deref().is_none_or(is_error))
        .count();
    let tail = &stats.lat[n - n / 10..];
    let p99 = quantile(&stats.lat, 0.99);
    let ok = errors == 0 && p99 <= plan.limit_ms && quantile(tail, 0.5) <= plan.limit_ms;
    eprintln!(
        "benchsuite: probe {rate:.0} rps: p99 {p99:.2} ms -> {}",
        if ok { "pass" } else { "fail" }
    );
    // Delivered rate: requests over first due time to last response.
    let last = stats
        .lat
        .iter()
        .enumerate()
        .map(|(i, l)| i as f64 / rate + l / 1e3)
        .fold(0.0, f64::max);
    Ok(ok.then(|| n as f64 / last.max(1e-9)))
}

/// Highest open-loop rate whose p99 stays under the limit with no
/// growing backlog: geometric search from the high rate, then bisection
/// to `RATE_RESOLUTION`. A failing rate is probed twice before it
/// counts as failed, so one burst of outside interference does not
/// steer the search. Returns the throughput delivered at the highest
/// passing rate, or 0 when even the low rate fails: the search goes no
/// lower, since below it a probe of `MIN_PHASE_REQUESTS` takes longer
/// than a run may (inside a steal episode a descheduled CPU alone can
/// put p99 past the limit at any rate).
fn max_rate(
    conns: &mut [UnixStream],
    stream: &mut RequestStream,
    plan: &Plan,
    log: &mut Log,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut pass: Option<(f64, f64)> = None;
    let mut fail: Option<f64> = None;
    let mut rate = plan.high_rps;
    for _ in 0..MAX_PROBES {
        let mut delivered = probe(conns, stream, plan, rate, log, tally)?;
        if delivered.is_none() {
            delivered = probe(conns, stream, plan, rate, log, tally)?;
        }
        match delivered {
            Some(d) => pass = Some((rate, d)),
            None => fail = Some(rate),
        }
        rate = match (pass, fail) {
            (Some((lo, _)), Some(hi)) if hi / lo <= RATE_RESOLUTION => break,
            (Some((lo, _)), Some(hi)) => (lo * hi).sqrt(),
            (Some((lo, _)), None) => lo * 2.0,
            (None, Some(hi)) if hi <= plan.low_rps => break,
            (None, Some(hi)) => hi / 2.0,
            (None, None) => unreachable!("every probe passes or fails"),
        };
    }
    Ok(pass.map_or(0.0, |(_, delivered)| delivered))
}

fn is_error(payload: &[u8]) -> bool {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|text| serde_json::from_str::<AdmissionResponse>(text).ok())
        .is_none_or(|r| matches!(r.verdict, Verdict::Error { .. }))
}

/// Every response must equal, byte for byte, what an uncached engine
/// answers in-process; error verdicts and missing answers are failures.
fn check_serve(log: &Log, tally: &mut Tally) {
    // Identical requests (apart from the id) share one decision.
    let key = |r: &AdmissionRequest| {
        serde_json::to_string(&AdmissionRequest { id: 0, ..r.clone() }).expect("requests serialise")
    };
    let mut unique: HashMap<String, &AdmissionRequest> = HashMap::new();
    for (request, _) in log {
        unique.entry(key(request)).or_insert(request);
    }
    let unique: Vec<(String, &AdmissionRequest)> = unique.into_iter().collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = unique.len().div_ceil(threads).max(1);
    let verdicts: HashMap<String, Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = unique
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let engine = AdmissionEngine::new(EngineConfig {
                        cache: false,
                        ..EngineConfig::default()
                    });
                    part.iter()
                        .map(|(k, r)| (k.clone(), engine.admit(r).verdict))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference engine thread panicked"))
            .collect()
    });
    let mut mismatched = 0;
    for (request, response) in log {
        let verdict = &verdicts[&key(request)];
        let expected = serde_json::to_string(&AdmissionResponse {
            id: request.id,
            verdict: verdict.clone(),
        })
        .expect("responses serialise");
        if matches!(verdict, Verdict::Error { .. }) {
            tally.failed += 1;
        }
        if response.as_deref() != Some(expected.as_bytes()) {
            mismatched += 1;
        }
    }
    if mismatched > 0 {
        tally.wrong(format!(
            "{mismatched} of {} serve responses differ from the in-process engine",
            log.len()
        ));
    }
}

/// Per-layer metrics: the program's own counters and process usage from
/// the untraced commands, plus a traced in-process re-execution.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    plan: &Plan,
    reference: &CampaignReport,
    reference_json: &str,
    program: &RunMetrics,
    campaign_usage: &[Usage],
    serve: &FixedRate,
    max_rate: f64,
    workload: Workload,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    // Tracing overhead: the traced trial loop against the mean of an
    // untraced loop before and after it.
    let untraced = || {
        let start = Instant::now();
        trace::run_trials(
            &plan.spec,
            &mut Tracer::new(false),
            &mut LayerCounts::default(),
        );
        start.elapsed().as_secs_f64()
    };
    let before_s = untraced();
    let mut tracer = Tracer::new(true);
    let mut counts = LayerCounts::default();
    let traced_start = Instant::now();
    let status = trace::run_trials(&plan.spec, &mut tracer, &mut counts);
    let traced_trials_s = traced_start.elapsed().as_secs_f64();
    let untraced_s = (before_s + untraced()) / 2.0;
    if !trace::matches_report(&status, reference) {
        tally.wrong("the traced trial loop diverged from the report's outcome counts".into());
    }

    // Report layer: shard partials run, encoded, decoded and folded as
    // the orchestrator does. An unsharded workload goes through as one
    // shard, so every report-layer time is a measured one.
    let report_start = Instant::now();
    let shards = plan.shards.unwrap_or(1);
    let mut fold = MergeFold::new();
    for index in 0..shards {
        let shard = ShardInfo {
            index,
            count: shards,
        };
        let part = tracer.span("orchestrator.worker", index as u64, |_| {
            ftsched::campaign::run_campaign_shard(
                &plan.spec,
                &ExecutorConfig {
                    threads: 1,
                    ..ExecutorConfig::default()
                },
                Some(shard),
            )
        });
        let part = part.map_err(|e| e.to_string())?;
        let text = tracer.span("campaign.report_encode", index as u64, |_| part.to_json());
        let back: CampaignReport = tracer
            .span("campaign.report_decode", index as u64, |_| {
                serde_json::from_str(&text)
            })
            .map_err(|e| format!("decoding a shard report: {e}"))?;
        tracer
            .span("campaign.merge", index as u64, |_| fold.add_report(&back))
            .map_err(|e| e.to_string())?;
    }
    let merged = tracer
        .span("campaign.merge", shards as u64, |_| fold.finish(false))
        .map_err(|e| e.to_string())?;
    let json = tracer.span("campaign.report_encode", shards as u64, |_| {
        merged.to_json()
    });
    if json != reference_json {
        tally.wrong("in-process shard fold differs from the unsharded report".into());
    }
    let report_s = report_start.elapsed().as_secs_f64();

    // Serve engine: the same request sequence through one cached engine.
    let engine = AdmissionEngine::new(EngineConfig::default());
    let (warmup, timed) = serve.log.split_at(serve.warmup);
    for (request, _) in warmup {
        engine.admit(request);
    }
    let serve_start = Instant::now();
    for (request, _) in timed {
        tracer.span("serve.admit", request.id, |_| engine.admit(request));
    }
    let serve_s = serve_start.elapsed().as_secs_f64();
    let summary = engine.summary();
    let engine_us: Vec<f64> = tracer
        .durations("serve.admit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    // Wall time of the three traced sections; whatever no layer span
    // covers in it (the trial loop's own glue included) is unattributed.
    let traced_wall = traced_trials_s + report_s + serve_s;
    let own = tracer.self_seconds();
    let layer = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let attributed: f64 = own
        .iter()
        .filter(|(name, _)| **name != "trial")
        .map(|(_, s)| s)
        .sum();
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let c: &RunCounters = &program.counters;
    let t = &program.timings;
    let low_p50_us = serve.low.p50() * 1e3;
    let all_lateness: Vec<f64> = serve.low.lateness().chain(serve.high.lateness()).collect();

    metrics.extend([
        ("analysis.context_s", layer("analysis.context"), "s"),
        ("analysis.points", counts.analysis_points as f64, "count"),
        ("design.busy_s", layer("design"), "s"),
        ("design.calls", counts.design_calls as f64, "count"),
        (
            "design.admit_ratio",
            ratio(
                counts.design_accepted,
                counts.design_calls - counts.design_accepted,
            ),
            "ratio",
        ),
        (
            "process.cpu_s.campaign",
            median(campaign_usage.iter().map(|u| u.cpu_s)),
            "s",
        ),
        (
            "process.ctx_switches.campaign",
            median(campaign_usage.iter().map(|u| u.ctx_switches)),
            "count",
        ),
        ("process.cpu_s.serve", serve.usage.cpu_s, "s"),
        (
            "process.ctx_switches.serve",
            serve.usage.ctx_switches,
            "count",
        ),
        ("sim.busy_s", layer("sim.validate"), "s"),
        ("sim.calls", counts.sim_calls as f64, "count"),
        ("sim.events", c.sim_events as f64, "count"),
        ("sim.faults", c.sim_faults_injected as f64, "count"),
        ("task.gen_s", layer("task.generate"), "s"),
        ("task.gen_failed", counts.gen_failed as f64, "count"),
        ("partition.busy_s", layer("partition"), "s"),
        ("partition.failed", counts.partition_failed as f64, "count"),
        (
            "campaign.cache_hit_ratio.generation",
            ratio(t.generation_cache.hits, t.generation_cache.misses),
            "ratio",
        ),
        (
            "campaign.cache_hit_ratio.partition",
            ratio(t.partition_cache.hits, t.partition_cache.misses),
            "ratio",
        ),
        (
            "campaign.cache_hit_ratio.design",
            ratio(t.design_cache.hits, t.design_cache.misses),
            "ratio",
        ),
        (
            "campaign.report_encode_s",
            layer("campaign.report_encode"),
            "s",
        ),
        (
            "campaign.report_decode_s",
            layer("campaign.report_decode"),
            "s",
        ),
        ("campaign.merge_s", layer("campaign.merge"), "s"),
        (
            "campaign.report_bytes",
            reference_json.len() as f64,
            "bytes",
        ),
        ("orchestrator.worker_s", layer("orchestrator.worker"), "s"),
        ("serve.engine_us.p50", quantile(&engine_us, 0.5), "us"),
        ("serve.engine_us.p99", quantile(&engine_us, 0.99), "us"),
        (
            "serve.admission_hit_ratio",
            ratio(summary.admission_cache_hits, summary.admission_cache_misses),
            "ratio",
        ),
        (
            "serve.context_hit_ratio",
            ratio(summary.context_cache_hits, summary.context_cache_misses),
            "ratio",
        ),
        ("serve.p50_ms.low_rate", serve.low.p50(), "ms"),
        ("serve.p50_ms.high_rate", serve.high.p50(), "ms"),
        ("serve.p99_ms.low_rate", serve.low.p99(), "ms"),
        ("serve.p99_ms.high_rate", serve.high.p99(), "ms"),
        ("serve.max_rate_rps", max_rate, "1/s"),
        (
            "serve.transport_us.p50",
            low_p50_us - quantile(&engine_us, 0.5),
            "us",
        ),
        (
            "serve.queue_ms.p99.high_rate",
            (serve.high.p99() - serve.low.p50()).max(0.0),
            "ms",
        ),
        (
            "loadgen.lateness_ms.p99",
            quantile(&all_lateness, 0.99),
            "ms",
        ),
        (
            "trace.unattributed_frac",
            1.0 - attributed / traced_wall,
            "ratio",
        ),
        (
            "trace.overhead_frac",
            traced_trials_s / untraced_s - 1.0,
            "ratio",
        ),
    ]);

    let spans_path = PathBuf::from(format!("benchsuite/.out/spans-{workload:?}.jsonl"));
    std::fs::create_dir_all("benchsuite/.out").map_err(|e| e.to_string())?;
    let mut out =
        std::io::BufWriter::new(std::fs::File::create(&spans_path).map_err(|e| e.to_string())?);
    tracer.write_jsonl(&mut out).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "benchsuite: {} spans written to {}; self time by layer: {own:?}",
        tracer.spans().len(),
        spans_path.display()
    );
    Ok(())
}

/// Nearest-rank quantile (`p` in (0, 1]) of unsorted samples.
fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Every digit of a finite value; non-finite values cannot be JSON.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".into()
    }
}
