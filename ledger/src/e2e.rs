//! The end-to-end phase: the `ccube` release binary run as users run it,
//! one child at a time, with tracing off.
//!
//! Set-up: each of the workload's fresh environments (an empty directory
//! used as working directory, `HOME`, `TMPDIR` and `XDG_CACHE_HOME`) runs
//! one pass; the median of those first passes is `setup_s`. Steady passes
//! then reuse the last environment until the time budget is spent (at
//! least two), giving `wall_s` and `peak_rss_mb`. Output checks run after
//! each pass, outside its timing.

use crate::sys::{self, Exit};
use crate::workloads::{self, Command, Oracle, Workload};
use crate::{Metric, Tally};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A command still running after this long is killed and counted as
/// failed.
const TIMEOUT: Duration = Duration::from_secs(60);

/// Where the end-to-end phase finds the binary and keeps its files.
pub struct Paths<'a> {
    /// Repository root (goldens, expected digests).
    pub root: &'a Path,
    /// The `ccube` release binary.
    pub ccube: &'a Path,
    /// Output directory: environments under `env/`, captured stdout and
    /// stderr under `io/`.
    pub out: &'a Path,
}

fn io_err(what: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", what.display())
}

/// Creates (or empties) environment directory `out/env/<name>`.
fn fresh_env(out: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = out.join("env").join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
    }
    fs::create_dir_all(&dir).map_err(io_err(&dir))?;
    Ok(dir)
}

/// Runs `ccube --help` in a fresh environment: the resident-memory floor
/// every child reports (Linux charges a child the parent's resident set
/// at exec). Returns `(this process's RSS, the child's peak RSS)` in MiB.
///
/// # Errors
///
/// I/O failures setting up or spawning the child.
pub fn calibrate(paths: &Paths, tally: &mut Tally) -> Result<(f64, f64), String> {
    let env = fresh_env(paths.out, "calibration")?;
    let parent = sys::self_rss_mb();
    let stdout = env.join("help.stdout");
    let r = sys::run(
        paths.ccube,
        &["--help".to_string()],
        &env,
        File::create(&stdout).map_err(io_err(&stdout))?,
        File::create(env.join("help.stderr")).map_err(io_err(&env))?,
        TIMEOUT,
    )
    .map_err(|e| format!("ccube --help: {e}"))?;
    tally.check(r.exit == Exit::Code(0), || {
        format!("ccube --help: {:?}", r.exit)
    });
    Ok((parent, r.maxrss_mb))
}

/// The [`speed_probe`] time that counts as the host's nominal speed:
/// `wall_s` and `setup_s` are pass wall times rescaled to it.
const PROBE_NOMINAL: f64 = 0.0012;

/// Mean wall seconds of one start-up of this executable as `ledger
/// speed-probe`, which exits at once, over `count` start-ups. On a shared
/// host the speed of the same work drifts by tens of percent over seconds
/// to minutes, and process start-up tracks that drift more closely than
/// compute or memory kernels do. A pass's wall time divided by the probes
/// on either side of it cancels most of the drift; the probe's code is
/// the same for every commit measured.
fn speed_probe(paths: &Paths, count: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let null = || File::create("/dev/null").map_err(|e| format!("/dev/null: {e}"));
    let mut total = 0.0;
    for _ in 0..count {
        let r = sys::run(
            &exe,
            &["speed-probe".to_string()],
            paths.out,
            null()?,
            null()?,
            TIMEOUT,
        )
        .map_err(|e| format!("speed probe: {e}"))?;
        if r.exit != Exit::Code(0) {
            return Err(format!("speed probe: {:?}", r.exit));
        }
        total += r.wall;
    }
    Ok(total / count as f64)
}

struct Pass {
    wall: f64,
    rss: f64,
    /// User plus system CPU seconds of the pass's commands.
    cpu: f64,
    walls: Vec<f64>,
    /// Mean [`speed_probe`] time around the pass (set by the caller).
    probe: f64,
}

/// Runs one pass of `cmds` in `env`. `None` when a command failed (the
/// failure is tallied and the workload stops).
fn pass(
    paths: &Paths,
    env: &Path,
    io: &Path,
    cmds: &[Command],
    oracle: &mut Oracle,
    tally: &mut Tally,
) -> Result<Option<Pass>, String> {
    for c in cmds {
        for f in &c.files {
            let _ = fs::remove_file(env.join(f));
        }
    }
    let mut sinks = Vec::with_capacity(cmds.len());
    for c in cmds {
        let out = io.join(format!("{}.stdout", c.name));
        let err = io.join(format!("{}.stderr", c.name));
        sinks.push((
            File::create(&out).map_err(io_err(&out))?,
            File::create(&err).map_err(io_err(&err))?,
        ));
    }
    let t0 = Instant::now();
    let mut walls = Vec::with_capacity(cmds.len());
    let (mut rss, mut cpu) = (0.0f64, 0.0);
    for (c, (out, err)) in cmds.iter().zip(sinks) {
        let r = sys::run(paths.ccube, &c.args, env, out, err, TIMEOUT)
            .map_err(|e| format!("ccube {}: {e}", c.args.join(" ")))?;
        walls.push(r.wall);
        rss = rss.max(r.maxrss_mb);
        cpu += r.cpu;
        let ok = r.exit == Exit::Code(c.exit);
        tally.check(ok, || {
            format!(
                "ccube {}: {:?}, expected exit {} (stderr: {})",
                c.args.join(" "),
                r.exit,
                c.exit,
                io.join(format!("{}.stderr", c.name)).display()
            )
        });
        if !ok {
            return Ok(None);
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    for c in cmds {
        let out = io.join(format!("{}.stdout", c.name));
        oracle.check(
            tally,
            &format!("{}.stdout", c.name),
            &fs::read(&out).map_err(io_err(&out))?,
        );
        for f in &c.files {
            match fs::read(env.join(f)) {
                Ok(bytes) => oracle.check(tally, f, &bytes),
                Err(e) => tally.check(false, || format!("{f}: not written ({e})")),
            }
        }
    }
    Ok(Some(Pass {
        wall,
        rss,
        cpu,
        walls,
        probe: 0.0,
    }))
}

/// Runs the end-to-end phase of `wl` and returns its metrics: `wall_s`,
/// `setup_s` and `peak_rss_mb`, the unscaled timings and probe time
/// beside them, and one `core.cli.<command>_s` per command. Operations
/// and their failures go to `tally`.
///
/// # Errors
///
/// I/O failures (a failing command is a tallied failure, not an error).
pub fn run(
    paths: &Paths,
    wl: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    tally: &mut Tally,
) -> Result<BTreeMap<String, Metric>, String> {
    let cmds = workloads::commands(wl.name, seed, quick);
    let mut oracle = Oracle::load(paths.root, wl, seed, quick)?;
    let io = paths.out.join("io").join(wl.name);
    fs::create_dir_all(&io).map_err(io_err(&io))?;

    // Probes alternate with passes; each pass is rescaled by the mean of
    // the probes on either side of it. A probe takes one start-up per
    // 50 ms of the pass before it (10 to 100), so long passes get
    // proportionally steadier probes.
    let mut probe = speed_probe(paths, 10)?;
    let mut probed = |p: Option<Pass>| -> Result<Option<Pass>, String> {
        let Some(mut p) = p else { return Ok(None) };
        let after = speed_probe(paths, ((p.wall / 0.05).ceil() as usize).clamp(10, 100))?;
        p.probe = (probe + after) / 2.0;
        probe = after;
        Ok(Some(p))
    };
    let envs = if quick { 1 } else { wl.envs };
    let mut setup = Vec::new();
    let mut env = PathBuf::new();
    for k in 0..envs {
        env = fresh_env(paths.out, &format!("{}-{k}", wl.name))?;
        match probed(pass(paths, &env, &io, &cmds, &mut oracle, tally)?)? {
            Some(p) => setup.push(p),
            None => break,
        }
    }
    let mut steady = Vec::new();
    if setup.len() == envs {
        let start = Instant::now();
        while let Some(p) = probed(pass(paths, &env, &io, &cmds, &mut oracle, tally)?)? {
            steady.push(p);
            if steady.len() >= 2 && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }
    if let (Some((check, timed)), false) =
        (workloads::cross_check(wl.name, seed), steady.is_empty())
    {
        let stdout = io.join(format!("{}.stdout", check.name));
        let r = sys::run(
            paths.ccube,
            &check.args,
            &env,
            File::create(&stdout).map_err(io_err(&stdout))?,
            File::create(io.join(format!("{}.stderr", check.name))).map_err(io_err(&io))?,
            TIMEOUT,
        )
        .map_err(|e| format!("ccube {}: {e}", check.args.join(" ")))?;
        let same = fs::read(env.join(&check.files[0])).ok() == fs::read(env.join(timed)).ok();
        tally.check(r.exit == Exit::Code(check.exit) && same, || {
            format!("ccube {}: does not reproduce {timed}", check.args.join(" "))
        });
    }

    // Timings are rescaled to the nominal host speed; the raw medians and
    // the probe itself are reported alongside.
    let scaled = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| -> Vec<f64> {
        ps.iter().map(|p| f(p) * PROBE_NOMINAL / p.probe).collect()
    };
    let raw = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { ps.iter().map(f).collect() };
    let mut m = BTreeMap::new();
    m.insert(
        "wall_s".into(),
        Metric::of(&scaled(&steady, &|p| p.wall), "s"),
    );
    m.insert(
        "setup_s".into(),
        Metric::of(&scaled(&setup, &|p| p.wall), "s"),
    );
    m.insert(
        "peak_rss_mb".into(),
        Metric::of(&raw(&steady, &|p| p.rss), "MB"),
    );
    m.insert(
        "raw_wall_s".into(),
        Metric::of(&raw(&steady, &|p| p.wall), "s"),
    );
    m.insert(
        "raw_cpu_s".into(),
        Metric::of(&raw(&steady, &|p| p.cpu), "s"),
    );
    m.insert(
        "raw_setup_s".into(),
        Metric::of(&raw(&setup, &|p| p.wall), "s"),
    );
    m.insert(
        "speed_probe_ms".into(),
        Metric::of(&raw(&steady, &|p| p.probe * 1e3), "ms"),
    );
    for (i, c) in cmds.iter().enumerate() {
        m.insert(
            format!("core.cli.{}_s", c.name),
            Metric::of(&scaled(&steady, &|p| p.walls[i]), "s"),
        );
    }
    Ok(m)
}
