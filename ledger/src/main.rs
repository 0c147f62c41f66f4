//! `ledger`: the repository's benchmark. See `ledger/README.md`.
//!
//! ```text
//! ledger [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--quick]
//! ledger compare <parent.json…> [--] <change.json…>
//! ```
//!
//! Builds the `ccube` release binary, then for each workload runs the
//! end-to-end phase (`--trace 0`), the traced replay (`--trace 1`), or
//! both (no `--trace`; end-to-end first, so the replay's heap never
//! inflates a child's exec-time resident set). Prints every metric with
//! unit and sample count, writes `<out>/ledger.json` and one
//! `<out>/<workload>.trace.json` per replayed workload, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.

use ccube_ledger::alloc::CountingAlloc;
use ccube_ledger::json::{self, num, quote, Json};
use ccube_ledger::workloads::{self, Workload, DEFAULT_SEED, WORKLOADS};
use ccube_ledger::{compare, e2e, replay, spans, sys, Metric, Tally};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: ledger [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out DIR] [--quick]
       ledger compare <parent.json...> [--] <change.json...>
       ledger speed-probe   (one host-speed probe; the end-to-end phase runs it)";

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<PathBuf>,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.to_vec(),
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        out: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads =
                    vec![workloads::workload(v).ok_or_else(|| format!("unknown workload {v:?}"))?];
            }
            "--seed" => {
                let v = value()?;
                o.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: {v:?} is not a non-negative number"))?,
                );
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: {v:?} is not 0 or 1")),
                });
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// A metric declared in `BENCHMARK.json`.
struct Declared {
    name: String,
    unit: String,
}

fn declared(bench: &Json, key: &str) -> Vec<Declared> {
    bench
        .get(key)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some(Declared {
                name: m.get("name")?.str()?.to_string(),
                unit: m.get("unit")?.str()?.to_string(),
            })
        })
        .collect()
}

fn show(out: &mut String, name: &str, m: &Metric) {
    let _ = write!(
        out,
        "  {name:<36} {:>16.6} {:<6} n={}",
        m.value, m.unit, m.samples
    );
    if let Some((a, b)) = m.quartiles {
        let _ = write!(out, "  p25 {a:.6} p75 {b:.6}");
    }
    if let Some(p) = m.p90 {
        let _ = write!(out, "  p90 {p:.6}");
    }
    out.push('\n');
}

fn metric_json(m: &Metric) -> String {
    let mut s = format!(
        "{{\"value\":{},\"unit\":{},\"samples\":{}",
        num(m.value),
        quote(m.unit),
        m.samples
    );
    if let Some((a, b)) = m.quartiles {
        let _ = write!(s, ",\"p25\":{},\"p75\":{}", num(a), num(b));
    }
    if let Some(p) = m.p90 {
        let _ = write!(s, ",\"p90\":{}", num(p));
    }
    s.push('}');
    s
}

fn metrics_json(ms: &BTreeMap<String, Metric>) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(k, m)| format!("{}:{}", quote(k), metric_json(m)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Everything measured for one workload.
#[derive(Default)]
struct Report {
    end_to_end: BTreeMap<String, Metric>,
    per_layer: BTreeMap<String, Metric>,
    extra: BTreeMap<String, Metric>,
    tally: Tally,
}

fn build_ccube(root: &Path, target: &Path) -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "ccube",
            "--bin",
            "ccube",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p ccube failed: {status}"));
    }
    Ok(target.join("release/ccube"))
}

fn run(opts: &Opts) -> Result<(), String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the ledger package sits in the repository root")
        .to_path_buf();
    let bench_path = root.join("BENCHMARK.json");
    let bench = json::parse(
        &std::fs::read_to_string(&bench_path)
            .map_err(|e| format!("{}: {e}", bench_path.display()))?,
    )?;
    let (e2e_declared, layer_declared) = (
        declared(&bench, "end_to_end"),
        declared(&bench, "per_layer"),
    );
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => cwd.join(t),
        None => root.join("target"),
    };
    let out = opts
        .out
        .clone()
        .map_or_else(|| target.join("ledger"), |o| cwd.join(o));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let ccube = build_ccube(&root, &target)?;
    let seconds = opts.seconds.unwrap_or(if opts.quick { 0.0 } else { 10.0 });
    let (do_e2e, do_replay) = (opts.trace != Some(true), opts.trace != Some(false));

    let host = sys::host(&root);
    let mut text = String::from("host:");
    for (k, v) in &host {
        let _ = write!(text, " {k}={v};");
    }
    println!("{text}");

    let paths = e2e::Paths {
        root: &root,
        ccube: &ccube,
        out: &out,
    };
    let mut reports: BTreeMap<&str, Report> = BTreeMap::new();
    let mut calibration = Tally::default();
    let (parent_rss, help_rss) = e2e::calibrate(&paths, &mut calibration)?;
    println!(
        "calibration: ledger RSS {parent_rss:.1} MB; `ccube --help` child peak RSS {help_rss:.1} MB (the exec floor)"
    );
    if do_e2e {
        for wl in &opts.workloads {
            let r = reports.entry(wl.name).or_default();
            let m = e2e::run(&paths, *wl, opts.seed, seconds, opts.quick, &mut r.tally)?;
            for (k, v) in m {
                if e2e_declared.iter().any(|d| d.name == k) {
                    r.end_to_end.insert(k, v);
                } else {
                    r.extra.insert(k, v);
                }
            }
        }
    }
    if do_replay {
        for wl in &opts.workloads {
            let r = reports.entry(wl.name).or_default();
            let rep = replay::run(&root, *wl, opts.seed, seconds, opts.quick, &mut r.tally)?;
            let trace_path = out.join(format!("{}.trace.json", wl.name));
            std::fs::write(&trace_path, spans::to_chrome_json(&rep.spans))
                .map_err(|e| format!("{}: {e}", trace_path.display()))?;
            r.per_layer = rep.metrics;
            r.per_layer.insert(
                "bench.parent_rss_mb".into(),
                Metric::new(parent_rss, "MB", 1),
            );
            r.per_layer.insert(
                "bench.calibration_rss_mb".into(),
                Metric::new(help_rss, "MB", 1),
            );
            r.extra.extend(rep.entries);
        }
    }
    if let Some(first) = reports.values_mut().next() {
        first.tally.absorb(calibration);
    }

    let mut all_ok = true;
    let mut final_metrics = Vec::new();
    let single = opts.workloads.len() == 1;
    let mut doc =
        format!(
        "{{\"schema\":1,\"seed\":{},\"quick\":{},\"seconds\":{},\"host\":{{{}}},\"workloads\":{{",
        opts.seed,
        opts.quick,
        num(seconds),
        host.iter().map(|(k, v)| format!("{}:{}", quote(k), quote(v))).collect::<Vec<_>>().join(",")
    );
    for (i, (name, r)) in reports.iter_mut().enumerate() {
        let mut text = format!("\n== workload {name} (seed {}) ==\n", opts.seed);
        let phases = [
            (
                do_e2e,
                &e2e_declared,
                &r.end_to_end,
                "end to end, tracing off",
            ),
            (
                do_replay,
                &layer_declared,
                &r.per_layer,
                "per layer, traced replay",
            ),
        ];
        for (on, decl, got, title) in phases {
            if !on {
                continue;
            }
            let _ = writeln!(text, "{title}:");
            for d in decl {
                match got.get(&d.name) {
                    Some(m) if m.unit == d.unit => {
                        show(&mut text, &d.name, m);
                        let key = if single {
                            d.name.clone()
                        } else {
                            format!("{name}.{}", d.name)
                        };
                        final_metrics.push(format!(
                            "{}:{{\"value\":{},\"unit\":{}}}",
                            quote(&key),
                            num(m.value),
                            quote(m.unit)
                        ));
                    }
                    other => r.tally.check(false, || {
                        format!(
                            "declared metric {} ({}) not measured: {other:?}",
                            d.name, d.unit
                        )
                    }),
                }
            }
        }
        if !r.extra.is_empty() {
            let _ = writeln!(text, "commands and entry points:");
            for (k, m) in &r.extra {
                show(&mut text, k, m);
            }
        }
        let _ = writeln!(
            text,
            "  {:<36} {:>16} {} of {} operations failed",
            "error_rate",
            r.tally.error_rate(),
            r.tally.failed,
            r.tally.attempted
        );
        for f in &r.tally.failures {
            let _ = writeln!(text, "  FAILED: {f}");
        }
        print!("{text}");
        all_ok &= r.tally.failed == 0;
        let failures: Vec<String> = r.tally.failures.iter().map(|f| quote(f)).collect();
        let _ = write!(
            doc,
            "{}{}:{{\"attempted\":{},\"failed\":{},\"error_rate\":{},\"end_to_end\":{},\"per_layer\":{},\"commands_and_entries\":{},\"failures\":[{}]}}",
            if i == 0 { "" } else { "," },
            quote(name),
            r.tally.attempted,
            r.tally.failed,
            num(r.tally.error_rate()),
            metrics_json(&r.end_to_end),
            metrics_json(&r.per_layer),
            metrics_json(&r.extra),
            failures.join(",")
        );
    }
    doc.push_str("}}\n");
    let ledger_path = out.join("ledger.json");
    std::fs::write(&ledger_path, &doc).map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    println!("\nwrote {}", ledger_path.display());

    let (attempted, failed) = reports.values().fold((0, 0), |(a, f), r| {
        (a + r.tally.attempted, f + r.tally.failed)
    });
    println!(
        "{{\"correct\":{all_ok},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        final_metrics.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("speed-probe") {
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        return match compare::run(&root, &args[1..]) {
            Ok((report, worse)) => {
                print!("{report}");
                if worse {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
