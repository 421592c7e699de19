//! Open-loop load generator for `ftsched serve --socket`.
//!
//! Requests are due on a fixed schedule (`i / rate` after the phase
//! starts, uniformly spaced) whatever the server does, so a stalled
//! server builds a queue instead of slowing the generator. Request `i`
//! goes to connection `i % connections`; each connection has one thread
//! that sends what is due and, until the next send is due, waits for
//! responses with `ppoll` (sub-millisecond timeouts, no spinning).
//! Latency is timed from the request's due time, so a stall also counts
//! against the requests queued behind it, and the generator's own
//! lateness is recorded beside it.

use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::sys::{poll_one, POLLIN, POLLOUT};

/// What one phase observed, indexed like its request slice.
pub struct PhaseResult {
    /// Due time → response received, ms (`None`: no response).
    pub latency_ms: Vec<Option<f64>>,
    /// Due time → handed to the socket, ms.
    pub lateness_ms: Vec<f64>,
    /// Response payloads (without the length prefix).
    pub responses: Vec<Option<Vec<u8>>>,
}

/// One request as its connection's thread saw it.
struct Record {
    index: usize,
    lateness_ms: f64,
    /// Seconds after the phase start the response arrived.
    received_s: Option<f64>,
    payload: Vec<u8>,
}

impl PhaseResult {
    /// Requests that were answered.
    pub fn answered(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_some()).count()
    }
}

/// Sends `frames` (length-prefixed request frames) at `rate` per second
/// over `conns`, then waits up to `drain` past the last due time for the
/// remaining responses.
pub fn run_phase(
    conns: &mut [UnixStream],
    frames: &[Vec<u8>],
    rate: f64,
    drain: Duration,
) -> io::Result<PhaseResult> {
    let n = frames.len();
    let k = conns.len();
    let start = Instant::now() + Duration::from_millis(2);
    let per_conn: Vec<io::Result<Vec<Record>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<usize> = (c..n).step_by(k).collect();
                scope.spawn(move || drive(conn, frames, &mine, rate, start, drain))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut result = PhaseResult {
        latency_ms: vec![None; n],
        lateness_ms: vec![0.0; n],
        responses: vec![None; n],
    };
    for records in per_conn {
        for record in records? {
            let i = record.index;
            result.lateness_ms[i] = record.lateness_ms;
            if let Some(at) = record.received_s {
                let due = i as f64 / rate;
                result.latency_ms[i] = Some((at - due) * 1e3);
                result.responses[i] = Some(record.payload);
            }
        }
    }
    Ok(result)
}

/// One connection's loop: a record per request it owns, in send order.
fn drive(
    conn: &mut UnixStream,
    frames: &[Vec<u8>],
    mine: &[usize],
    rate: f64,
    start: Instant,
    drain: Duration,
) -> io::Result<Vec<Record>> {
    conn.set_nonblocking(true)?;
    let fd = conn.as_raw_fd();
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let deadline = mine.last().map_or(start, |&i| due(i)) + drain;
    let mut out: Vec<Record> = Vec::with_capacity(mine.len());
    let mut outbuf: Vec<u8> = Vec::new();
    let mut outpos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0usize;
    let mut received = 0usize;
    while received < mine.len() {
        let now = Instant::now();
        while next < mine.len() && due(mine[next]) <= now {
            let i = mine[next];
            outbuf.extend_from_slice(&frames[i]);
            out.push(Record {
                index: i,
                lateness_ms: now.saturating_duration_since(due(i)).as_secs_f64() * 1e3,
                received_s: None,
                payload: Vec::new(),
            });
            next += 1;
        }
        if outpos < outbuf.len() {
            match conn.write(&outbuf[outpos..]) {
                Ok(written) => outpos += written,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
            if outpos == outbuf.len() {
                outbuf.clear();
                outpos = 0;
            }
        }
        loop {
            match conn.read(&mut chunk) {
                Ok(0) => return Ok(out),
                Ok(got) => inbuf.extend_from_slice(&chunk[..got]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let at = start.elapsed().as_secs_f64();
        let mut consumed = 0usize;
        while inbuf.len() - consumed >= 4 {
            let len = u32::from_be_bytes(
                inbuf[consumed..consumed + 4]
                    .try_into()
                    .expect("slice of four bytes"),
            ) as usize;
            if inbuf.len() - consumed - 4 < len {
                break;
            }
            // The server answers one connection's frames in order.
            let Some(slot) = out.get_mut(received) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response without a request",
                ));
            };
            slot.received_s = Some(at);
            slot.payload = inbuf[consumed + 4..consumed + 4 + len].to_vec();
            received += 1;
            consumed += 4 + len;
        }
        inbuf.drain(..consumed);
        if received == mine.len() {
            break;
        }
        let now = Instant::now();
        let wake = if next < mine.len() {
            due(mine[next])
        } else {
            deadline
        };
        if next == mine.len() && now >= deadline {
            break;
        }
        let mut events = POLLIN;
        if outpos < outbuf.len() {
            events |= POLLOUT;
        }
        poll_one(fd, events, wake.saturating_duration_since(now))?;
    }
    Ok(out)
}
