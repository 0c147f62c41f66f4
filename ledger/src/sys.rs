//! Child processes with per-child resource usage (`wait4`), a kill-on-
//! timeout watchdog, and the host description printed with every run.
//! Linux only.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;
const SIGKILL: i32 = 9;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn waitid(idtype: u32, id: u32, infop: *mut u64, options: i32) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exit {
    /// Exited with this code.
    Code(i32),
    /// Killed by this signal.
    Signal(i32),
    /// Killed by the watchdog after the timeout.
    Timeout,
}

/// One finished child.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChildRun {
    /// How it ended.
    pub exit: Exit,
    /// Wall seconds from spawn to exit.
    pub wall: f64,
    /// The child's peak resident set (`ru_maxrss`), in MiB.
    pub maxrss_mb: f64,
    /// User plus system CPU seconds.
    pub cpu: f64,
}

fn retry_eintr(mut f: impl FnMut() -> i32) -> std::io::Result<i32> {
    loop {
        let r = f();
        if r >= 0 {
            return Ok(r);
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Runs `program args…` in `cwd`, which also serves as `HOME`, `TMPDIR`
/// and `XDG_CACHE_HOME`, with stdout and stderr sent to the given files.
/// Blocks until the child ends; a child still running after `timeout` is
/// killed. The child is always reaped before this returns.
///
/// # Errors
///
/// Spawn and wait failures.
pub(crate) fn run(
    program: &Path,
    args: &[String],
    cwd: &Path,
    stdout: File,
    stderr: File,
    timeout: Duration,
) -> std::io::Result<ChildRun> {
    let t0 = Instant::now();
    let child = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .env("HOME", cwd)
        .env("TMPDIR", cwd)
        .env("XDG_CACHE_HOME", cwd)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let timed_out = AtomicBool::new(false);
    let observed = std::thread::scope(|scope| {
        let (done, wait_done) = mpsc::channel::<()>();
        let timed_out = &timed_out;
        scope.spawn(move || {
            if wait_done.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
                timed_out.store(true, Ordering::SeqCst);
                // SAFETY: plain syscall. The child is not reaped until
                // this thread has been joined (WNOWAIT below), so `pid`
                // still names it — at worst a zombie, which ignores it.
                unsafe { kill(pid, SIGKILL) };
            }
        });
        // Wait for exit without reaping, so the pid stays reserved while
        // the watchdog may still signal it.
        let mut info = [0u64; 16];
        // SAFETY: `info` is a 128-byte, 8-aligned buffer, the size and
        // alignment of `siginfo_t`.
        let r = retry_eintr(|| unsafe {
            waitid(P_PID, pid as u32, info.as_mut_ptr(), WEXITED | WNOWAIT)
        });
        let wall = t0.elapsed().as_secs_f64();
        drop(done);
        r.map(|_| wall)
    });
    // Reap even when `waitid` failed, so no child outlives the call.
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both out-pointers refer to live locals of the right types.
    retry_eintr(|| unsafe { wait4(pid, &mut status, 0, &mut usage) })?;
    drop(child);
    let wall = observed?;
    let exit = if timed_out.load(Ordering::SeqCst) {
        Exit::Timeout
    } else if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(ChildRun {
        exit,
        wall,
        maxrss_mb: usage.maxrss as f64 / 1024.0,
        cpu: secs(&usage.utime) + secs(&usage.stime),
    })
}

/// This process's resident set right now, in MiB (from
/// `/proc/self/status`).
pub(crate) fn self_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line a short helper command prints, if it runs.
fn capture(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
}

/// The host block: `(key, value)` pairs describing the machine and the
/// build a measurement comes from.
pub fn host(root: &Path) -> Vec<(&'static str, String)> {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", capture("nproc", &[], root).unwrap_or_else(unknown)),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        (
            "kernel",
            read("/proc/sys/kernel/osrelease").trim().to_string(),
        ),
        (
            "rustc",
            capture("rustc", &["-V"], root).unwrap_or_else(unknown),
        ),
        (
            "commit",
            capture("git", &["rev-parse", "HEAD"], root).unwrap_or_else(unknown),
        ),
    ]
}
