//! Runs the timed campaign commands from a small helper process.
//!
//! Linux reports a child's peak RSS (`ru_maxrss`) as at least its
//! parent's RSS at the time of the spawn: exec records the high-water
//! mark of the address space it replaces. The harness holds reference
//! reports and response logs, so a command it spawned itself would
//! report the harness's memory. The commands are spawned instead by a
//! helper, this binary re-executed with [`FLAG`] at start-up, whose own
//! footprint is a couple of megabytes.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

use crate::sys::{self, Usage};

/// First argument that turns this binary into the helper.
pub const FLAG: &str = "--spawner";

/// The harness's handle on the helper.
pub struct Spawner {
    child: Child,
    /// `None` only while dropping: closing it ends the helper's loop.
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Spawner {
    pub fn start() -> io::Result<Spawner> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let requests = child.stdin.take();
        let replies = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Spawner {
            child,
            requests,
            replies,
        })
    }

    /// Runs `program args` to completion in the helper; returns whether
    /// it exited with status 0, its wall time in seconds and its usage.
    pub fn run(&mut self, program: &Path, args: &[String]) -> io::Result<(bool, f64, Usage)> {
        let mut line = program
            .to_str()
            .ok_or_else(|| io::Error::other("non-UTF-8 program path"))?
            .to_string();
        for arg in args {
            line.push('\t');
            line.push_str(arg);
        }
        let requests = self.requests.as_mut().expect("open until drop");
        writeln!(requests, "{line}")?;
        requests.flush()?;
        let mut reply = String::new();
        self.replies.read_line(&mut reply)?;
        let fields: Vec<f64> = reply
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| io::Error::other(format!("spawner: {}", reply.trim())))?;
        let [ok, wall, cpu_s, peak_rss_mb, ctx_switches] = fields[..] else {
            return Err(io::Error::other(format!("spawner: {}", reply.trim())));
        };
        Ok((
            ok == 1.0,
            wall,
            Usage {
                cpu_s,
                peak_rss_mb,
                ctx_switches,
            },
        ))
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        drop(self.requests.take());
        let _ = self.child.wait();
    }
}

/// The helper: one tab-separated command line per input line, one reply
/// line `ok wall_s cpu_s peak_rss_mb ctx_switches` per command.
pub fn helper() -> ExitCode {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let mut parts = line.split('\t');
        let program = parts.next().unwrap_or_default();
        let start = Instant::now();
        let reaped = Command::new(program)
            .args(parts)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .and_then(sys::reap);
        let reply = match reaped {
            Ok((ok, usage)) => format!(
                "{} {} {} {} {}",
                u8::from(ok),
                start.elapsed().as_secs_f64(),
                usage.cpu_s,
                usage.peak_rss_mb,
                usage.ctx_switches
            ),
            Err(e) => format!("error: {e}"),
        };
        if writeln!(out, "{reply}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}
