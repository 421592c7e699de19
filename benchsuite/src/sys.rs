//! The two Linux calls the standard library does not expose: `wait4`,
//! for the resource usage of a reaped process tree, and `ppoll`, for
//! waiting on a socket with a sub-millisecond timeout.

use std::io;
use std::os::raw::{c_int, c_long, c_void};
use std::process::Child;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux (two timevals followed by fourteen longs).
#[repr(C)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut RawRusage) -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

pub const POLLIN: i16 = 0x1;
pub const POLLOUT: i16 = 0x4;

/// Resource usage of one reaped process and the descendants it reaped.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set size of the tree's largest process, MiB.
    pub peak_rss_mb: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: f64,
}

/// Reaps `child` with `wait4` and returns whether it exited with status
/// 0, together with its resource usage (which covers every descendant
/// the child itself waited for, so a supervisor's workers count too).
pub fn reap(child: Child) -> io::Result<(bool, Usage)> {
    let pid = c_int::try_from(child.id()).expect("Linux pids fit in a C int");
    let mut status: c_int = 0;
    let mut raw = std::mem::MaybeUninit::<RawRusage>::zeroed();
    loop {
        // SAFETY: `status` and `raw` are valid, writable and live for the
        // call; `pid` is our own unreaped child, so no other process's
        // status can be consumed. `std::process::Child` never reaps on
        // drop, so nothing else waits for this pid concurrently.
        let rc = unsafe { wait4(pid, &mut status, 0, raw.as_mut_ptr()) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // SAFETY: wait4 returned the pid, so the kernel filled the struct (it
    // was zero-initialised besides, and every field is a plain integer).
    let raw = unsafe { raw.assume_init() };
    let seconds = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    // WIFEXITED && WEXITSTATUS == 0 is exactly a zero status word.
    let ok = status == 0;
    drop(child);
    Ok((
        ok,
        Usage {
            cpu_s: seconds(&raw.ru_utime) + seconds(&raw.ru_stime),
            peak_rss_mb: raw.ru_maxrss as f64 / 1024.0,
            ctx_switches: (raw.ru_nvcsw + raw.ru_nivcsw) as f64,
        },
    ))
}

/// Waits until `fd` has any of `events` ready or `timeout` passes, and
/// returns the ready events (0 on timeout).
pub fn poll_one(fd: c_int, events: i16, timeout: Duration) -> io::Result<i16> {
    let mut pfd = PollFd {
        fd,
        events,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as c_long,
        tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `pfd` and `ts` are valid for the call and `nfds` is 1, the
    // length of the one-element array `pfd` stands for; a null sigmask
    // leaves the signal mask alone.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        rc if rc >= 0 => Ok(pfd.revents),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        }
    }
}
