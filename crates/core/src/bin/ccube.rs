//! The `ccube` command-line tool: drive the reproduction without writing
//! code. `ccube help` lists every subcommand, its modes and the flags
//! each mode reads; the table behind it is `ccube::cli::MODES`.

use ccube::cli::{self, Parsed};
use ccube::experiments;
use ccube::pipeline::{Mode, TrainingPipeline};
use ccube_dnn::{resnet50, vgg16, zfnet, ComputeModel, NetworkModel};
use ccube_topology::ByteSize;
use std::path::PathBuf;
use std::process::ExitCode;

/// Prints the help: to stdout when asked for (exit 0), to stderr with a
/// usage error (exit 2).
fn usage(code: u8) -> ExitCode {
    if code == 0 {
        println!("{}", cli::help());
    } else {
        eprintln!("{}", cli::help());
    }
    ExitCode::from(code)
}

/// What a subcommand returns: its exit code, or a usage error that
/// `main` prints as `<cmd>: <message>` on stderr and exits 2 on.
type CmdResult = Result<ExitCode, String>;

fn cmd_figures(p: &Parsed) -> CmdResult {
    let dir = PathBuf::from(p.text("out_dir").unwrap_or("target/figures"));
    match experiments::run_all(&dir, workers(p), network(p)?) {
        Ok(paths) => {
            println!("wrote {} CSV files to {}", paths.len(), dir.display());
            for p in paths {
                println!("  {}", p.display());
            }
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_compare(p: &Parsed) -> CmdResult {
    let net: NetworkModel = match p.text("network") {
        Some("zfnet") => zfnet(),
        Some("vgg16") => vgg16(),
        Some("resnet50") => resnet50(),
        other => unreachable!("parse admits only the table's networks, not {other:?}"),
    };
    let batch = p.count("batch").unwrap_or(64);
    let low = p.given("--low");
    let scale = if low { 0.25 } else { 1.0 };
    let pipeline = TrainingPipeline::dgx1_with(&net, batch, &ComputeModel::v100(), scale);
    println!(
        "{net} on an 8-GPU DGX-1 model, batch {batch}, {} bandwidth",
        if low { "low" } else { "high" }
    );
    println!(
        "{:<4} {:>12} {:>12} {:>12} {:>10} {:>8}",
        "mode", "comm", "turnaround", "iteration", "bubbles", "norm."
    );
    for r in pipeline.all_modes() {
        println!(
            "{:<4} {:>12} {:>12} {:>12} {:>10} {:>8.3}",
            r.mode.label(),
            format!("{}", r.t_comm),
            format!("{}", r.turnaround),
            format!("{}", r.t_iter),
            format!("{}", r.total_bubble),
            r.normalized_perf,
        );
    }
    let b = pipeline.iteration(Mode::Baseline);
    let cc = pipeline.iteration(Mode::CCube);
    println!(
        "C-Cube over baseline tree: +{:.1}%",
        (b.t_iter / cc.t_iter - 1.0) * 100.0
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_scaleout(p: &Parsed) -> CmdResult {
    let max_p = p.count("max_p").unwrap_or(128);
    if max_p < 4 {
        return Err(format!("max_p expects an integer >= 4, got {max_p}"));
    }
    let mut sizes = p.mibs("mib");
    if sizes.is_empty() {
        sizes = vec![ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)];
    }
    let ps: Vec<usize> = std::iter::successors(Some(4), |n| Some(n * 2))
        .take_while(|&n| n <= max_p)
        .collect();
    for row in experiments::fig14::run_with_threads_net(&ps, &sizes, workers(p), network(p)?) {
        println!("{row}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_search(p: &Parsed) -> CmdResult {
    println!("schedule policy search: topology x tree shape x arbitration x chunks");
    let rows = if p.given("--bounds") {
        let outcome = experiments::policy_search::run_bounded();
        println!(
            "static gate pruned {} invalid candidate(s) before simulation:",
            outcome.pruned.len()
        );
        for p in &outcome.pruned {
            println!("  {p}");
        }
        println!(
            "lower bounds skipped {} of {} candidate(s) ({} simulated):",
            outcome.skipped.len(),
            outcome.candidates,
            outcome.simulated
        );
        for s in &outcome.skipped {
            println!("  {s}");
        }
        outcome.rows
    } else {
        let outcome = experiments::policy_search::run_full(workers(p));
        println!(
            "static gate pruned {} invalid candidate(s) before simulation:",
            outcome.pruned.len()
        );
        for p in &outcome.pruned {
            println!("  {p}");
        }
        outcome.rows
    };
    for row in &rows {
        println!("{row}");
    }
    for topo in ["dgx1", "hier16"] {
        let best = experiments::policy_search::best_for(&rows, topo);
        println!(
            "{topo}: best schedule is {} / {} / K={} (makespan {}, queue wait {})",
            best.shape,
            experiments::policy_search::arbitration_name(best.arbitration),
            best.k,
            best.makespan,
            best.queue_wait
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_timeline(p: &Parsed) -> CmdResult {
    use ccube_collectives::cost::{k_opt, CostParams};
    use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
    use ccube_sim::{render_timeline, simulate, SimOptions, TimelineOptions};
    use ccube_topology::dgx1;

    let n = p.mibs("mib").first().copied().unwrap_or(ByteSize::mib(64));
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let k = k_opt(&CostParams::nvlink(), 8, n).div_ceil(2).max(1) * 2;
    for (title, overlap) in [
        ("baseline double tree (B)", Overlap::None),
        ("overlapped double tree (C1)", Overlap::ReductionBroadcast),
    ] {
        let s = tree_allreduce(dt.trees(), &Chunking::even(n, k), overlap);
        let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
        let report = simulate(&topo, &s, &e, &SimOptions::default()).expect("simulates");
        println!("== {title}: {n} in {k} chunks ==");
        println!(
            "{}",
            render_timeline(&s, &report, &TimelineOptions::default())
        );
        println!(
            "makespan {}   turnaround {}\n",
            report.makespan(),
            report.turnaround()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_train(p: &Parsed) -> CmdResult {
    use ccube_runtime::{serial_reference, Trainer, TrainerConfig};
    let iterations = p.count("iterations").unwrap_or(10);
    let config = TrainerConfig {
        num_ranks: 8,
        num_params: 8192,
        num_chunks: 32,
        layer_chunk_table: vec![2, 4, 8, 12, 18, 25, 32],
        learning_rate: 0.05,
    };
    let mut trainer = match Trainer::new(config.clone()) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("train: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut chained = 0usize;
    for _ in 0..iterations {
        match trainer.step() {
            Ok(early) => chained += early,
            Err(e) => {
                eprintln!("train: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    let ok =
        trainer.replicas_agree() && trainer.params(0) == &serial_reference(&config, iterations)[..];
    // How many layers started before their collective finished depends
    // on thread timing, so it goes to stderr; stdout stays deterministic.
    eprintln!("{chained} chained layer-starts");
    println!(
        "{iterations} iterations, replicas {}",
        if ok {
            "bit-identical (== serial)"
        } else {
            "DIVERGED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The network model the fabric flags ask for: the channel
/// approximation unless `--fabric switch` or a shaping flag (which
/// implies it) is given. The switch fabric at its passthrough shape
/// reproduces the approximation exactly. `--uplinks N` or `--spines N`
/// above 1 without `--radix` defaults the radix to 4, so the fabric
/// actually has leaves to uplink.
fn network(p: &Parsed) -> Result<ccube_sim::NetworkModel, String> {
    use ccube_sim::{NetworkModel, UplinkPolicy};
    let shaping = ["--radix", "--spines", "--uplinks", "--uplink-policy"];
    let shaped = shaping.iter().any(|f| p.given(f));
    match p.text("--fabric") {
        Some("approx") if shaped => {
            return Err(format!("{} need --fabric switch", shaping.join("/")))
        }
        Some("approx") => return Ok(NetworkModel::ChannelApprox),
        None if !shaped => return Ok(NetworkModel::ChannelApprox),
        _ => {}
    }
    let mut spec = ccube_sim::FabricSpec::passthrough();
    spec.uplinks = p.count("--uplinks").unwrap_or(spec.uplinks);
    // One spine per slot unless stated: the homogeneous spine/leaf
    // shape the fabric-resilience study uses.
    spec.spines = p.count("--spines").unwrap_or(spec.uplinks);
    let multi = spec.uplinks > 1 || spec.spines > 1;
    spec.radix = p.count("--radix").or(multi.then_some(4));
    spec.uplink_policy = match p.text("--uplink-policy") {
        Some("hash") => UplinkPolicy::Hash,
        Some("least-queued") => UplinkPolicy::LeastQueued,
        Some("failover") => UplinkPolicy::Failover,
        _ => spec.uplink_policy,
    };
    Ok(NetworkModel::SwitchFabric(spec))
}

/// The sweep worker count: `--threads`, or the machine's available
/// parallelism.
fn workers(p: &Parsed) -> usize {
    p.count("--threads")
        .unwrap_or_else(ccube_sim::available_threads)
}

fn write_or_print(out: Option<&str>, content: &str) -> ExitCode {
    match out {
        Some(path) => match std::fs::write(path, content) {
            Ok(()) => {
                println!("wrote {path}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                ExitCode::FAILURE
            }
        },
        None => {
            print!("{content}");
            ExitCode::SUCCESS
        }
    }
}

fn cmd_faults(p: &Parsed) -> CmdResult {
    use ccube::experiments::resilience;
    let fabric = network(p)?;
    if let Some(seed) = p.seed("--shrink") {
        return Ok(cmd_faults_shrink(seed, fabric));
    }
    let seed = p.seed("--seed").unwrap_or(resilience::DEFAULT_SEED);
    if let Some(path) = p.text("--html") {
        // The explorable fabric-failover figure: k=1 vs k=2 uplinks
        // under the same seeded slot-0 outage, side by side. The demo
        // fixes its own switch fabric, so it reads no fabric flags.
        let html = resilience::fabric_demo_html(seed);
        return Ok(write_or_print(Some(path), &html));
    }
    let rows = if p.given("--smoke") {
        resilience::run_smoke_network(fabric)
    } else {
        resilience::run_with_network(seed, workers(p), fabric)
    };
    let out = p.text("out");
    if out.is_none() {
        for row in &rows {
            println!("{row}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    Ok(write_or_print(out, &resilience::to_csv(&rows)))
}

/// Renders one fault event as a human-readable line.
fn describe_event(e: &ccube_sim::FaultEvent) -> String {
    use ccube_sim::FaultEvent as E;
    use ccube_topology::Seconds;
    let window = |from: Seconds, until: Seconds| {
        if until.as_secs_f64().is_infinite() {
            format!("[{from}, forever)")
        } else {
            format!("[{from}, {until})")
        }
    };
    match *e {
        E::LinkDown {
            channel,
            from,
            until,
        } => format!("link-down    channel {} {}", channel.0, window(from, until)),
        E::Degraded {
            channel,
            from,
            until,
            rate,
        } => format!(
            "degraded     channel {} rate {:.2} {}",
            channel.0,
            rate,
            window(from, until)
        ),
        E::Straggler {
            gpu,
            from,
            until,
            slowdown,
        } => format!(
            "straggler    gpu {} x{:.2} {}",
            gpu.0,
            slowdown,
            window(from, until)
        ),
        E::UplinkDown {
            leaf,
            uplink,
            from,
            until,
        } => format!(
            "uplink-down  leaf {leaf} slot {uplink} {}",
            window(from, until)
        ),
        E::SwitchDown { spine, from, until } => {
            format!("switch-down  spine {spine} {}", window(from, until))
        }
    }
}

/// `ccube faults --shrink <seed>`: sample the severity-3 plan of `seed`
/// on the hierarchical C1 workload (plus uplink outages when the fabric
/// is a multi-leaf spine/leaf), replay it, and delta-debug the plan down
/// to a 1-minimal reproducer — removing any single remaining event no
/// longer reproduces the faulted outcome (the typed failure, or the full
/// faulted makespan).
fn cmd_faults_shrink(seed: u64, fabric: ccube_sim::NetworkModel) -> ExitCode {
    use ccube::experiments::resilience::healthy_run;
    use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
    use ccube_sim::{
        simulate_system_faulted, FaultModel, FaultPlan, SimError, SimOptions, SimRng, SystemJob,
    };
    use ccube_topology::hierarchical;

    // The C1 collective on hierarchical(16): the same workload the
    // resilience grid stresses, so a shrunk plan maps straight onto a
    // grid row.
    let topo = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).expect("16 ranks");
    let job = SystemJob {
        schedule: tree_allreduce(
            dt.trees(),
            &Chunking::even(ByteSize::mib(16), 16),
            Overlap::ReductionBroadcast,
        ),
        compute: vec![],
        transfer_gates: vec![],
    };
    let e = Embedding::nic(&topo, &job.schedule).expect("embeds");
    // Every run reads only the makespan or the error: none is traced.
    let opts = SimOptions::scale_out().with_network(fabric).without_trace();
    let h = healthy_run(&topo, &job, &e, &opts).makespan;

    let mut events = FaultPlan::sample(&FaultModel::severity(3, h), &topo, &SimRng::new(seed))
        .events()
        .to_vec();
    if let ccube_sim::NetworkModel::SwitchFabric(spec) = fabric {
        if let Some(radix) = spec.radix {
            let leaves = topo.num_gpus().div_ceil(radix);
            events.extend_from_slice(
                FaultPlan::sample_uplinks(
                    leaves,
                    spec.uplinks,
                    h * 0.5,
                    h * 0.25,
                    h,
                    &SimRng::new(seed),
                )
                .events(),
            );
        }
    }
    let full = match FaultPlan::new(events) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("faults --shrink: sampled plan is invalid: {e}");
            return ExitCode::FAILURE;
        }
    };

    let run = |p: &FaultPlan| simulate_system_faulted(&topo, &job, &e, &opts, p);
    let minimal = match run(&full) {
        Ok(r) => {
            let target = r.makespan;
            println!(
                "seed {seed}: {} sampled events, faulted makespan {} (slowdown {:.3})",
                full.len(),
                target,
                target / h
            );
            // Keep an event iff dropping it no longer reaches the full
            // faulted makespan; a plan that turns unroutable without one
            // of its repairs still "fails".
            full.shrink(|p| run(p).map(|r| r.makespan >= target).unwrap_or(true))
        }
        Err(SimError::Unroutable { .. }) => {
            println!(
                "seed {seed}: {} sampled events, outcome: unroutable",
                full.len()
            );
            full.shrink(|p| matches!(run(p), Err(SimError::Unroutable { .. })))
        }
        Err(err) => {
            eprintln!("faults --shrink: full plan failed unexpectedly: {err}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "1-minimal reproducer: {} of {} events",
        minimal.len(),
        full.len()
    );
    for ev in minimal.events() {
        println!("  {}", describe_event(ev));
    }
    ExitCode::SUCCESS
}

/// `ccube trace --diff <a> <b>`: compare two traces and report the first
/// diverging line, per-record-kind count deltas, and busy / horizon
/// drift. Each side is either a trace-CSV path, or a seed (any u64) —
/// seeds are re-simulated in-process, so `ccube trace --diff 7 8`
/// compares two live runs without temp files, and `ccube trace --diff 7
/// before.csv` checks a live run against a saved baseline. With `--html
/// <out.html>` the same comparison is written as a side-by-side HTML
/// viewer. Exit code 0 when identical, 1 when they differ, and 2 (a
/// usage error) when a side cannot be read, parsed or simulated or the
/// viewer cannot be written.
fn cmd_trace_diff(p: &Parsed, fabric: ccube_sim::NetworkModel) -> CmdResult {
    use ccube::experiments::resilience;
    // A side that parses as a u64 is a seed: re-simulate it in-process.
    // A side that cannot be read, parsed or run is an input error (exit
    // 2), never a difference.
    let side = |arg: &str| -> Result<(ccube_sim::SimTrace, ccube_sim::LaneLabels), String> {
        if let Ok(seed) = arg.parse::<u64>() {
            let report = resilience::demo_trace(seed, fabric)
                .map_err(|e| format!("--diff side {seed}: faulted run failed: {e}"))?;
            return Ok((
                report.trace,
                resilience::demo_labels(format!("seed {seed}"), &fabric),
            ));
        }
        let text = std::fs::read_to_string(arg)
            .map_err(|e| format!("--diff side {arg}: failed to read: {e}"))?;
        let trace =
            ccube_sim::SimTrace::from_csv(&text).map_err(|e| format!("--diff side {arg}: {e}"))?;
        Ok((trace, resilience::demo_labels(arg.to_string(), &fabric)))
    };
    let (lt, ll) = side(p.text("a").expect("--diff takes two sides"))?;
    let (rt, rl) = side(p.text("b").expect("--diff takes two sides"))?;
    let diff = ccube_sim::diff_csv(&lt.to_csv(), &rt.to_csv());
    if let Some(path) = p.text("--html") {
        let doc = ccube_sim::diff_to_html((&lt, &ll), (&rt, &rl));
        std::fs::write(path, doc).map_err(|e| format!("--diff: failed to write {path}: {e}"))?;
        println!(
            "traces are {}; wrote {path}",
            if diff.is_identical() {
                "identical"
            } else {
                "different"
            }
        );
    } else if diff.is_identical() {
        println!("traces are identical");
    } else {
        print!("{diff}");
    }
    Ok(if diff.is_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_trace(p: &Parsed) -> CmdResult {
    use ccube::experiments::resilience;
    let fabric = network(p)?;
    if p.given("--diff") {
        return cmd_trace_diff(p, fabric);
    }
    let seed = p.seed("--seed").unwrap_or(resilience::DEFAULT_SEED);
    let report = match resilience::demo_trace(seed, fabric) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace: faulted run failed: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if let Some(path) = p.text("--html") {
        let labels = resilience::demo_labels(format!("seed {seed}"), &fabric);
        return Ok(write_or_print(
            Some(path),
            &ccube_sim::to_html(&report.trace, &labels),
        ));
    }
    // Under the switch fabric the grant records carry port indices, so
    // label the Chrome-trace lanes accordingly.
    let lane = match fabric {
        ccube_sim::NetworkModel::ChannelApprox => "channel",
        ccube_sim::NetworkModel::SwitchFabric(_) => "port",
    };
    let content = if p.given("--json") {
        report.trace.to_chrome_json_labeled(lane)
    } else {
        report.trace.to_csv()
    };
    Ok(write_or_print(p.text("out"), &content))
}

fn cmd_lint(p: &Parsed) -> CmdResult {
    use ccube::lint;
    let which = p.text("case");
    let physical = p.given("--physical");
    // An explicitly named case gates on its own findings — DEMO or not —
    // so CI can assert a specific hazard. `all` exempts the DEMO cases,
    // whose errors are the point.
    let named = !matches!(which, None | Some("all"));
    let reports = match which {
        None | Some("all") => {
            if physical {
                lint::run_physical_all()
            } else {
                lint::run_all()
            }
        }
        Some(name) => {
            let case = if physical {
                lint::run_physical_case(name)
            } else {
                lint::run_case(name)
            };
            match case {
                Some(r) => vec![r],
                None => {
                    let cases: &[(&str, &str)] = if physical {
                        &lint::PHYSICAL_CASES
                    } else {
                        &lint::CASES
                    };
                    let mut msg = format!("unknown case {name:?}; available cases:");
                    for (n, d) in cases {
                        msg.push_str(&format!("\n  {n:<20} {d}"));
                    }
                    return Err(msg);
                }
            }
        }
    };
    if p.given("--json") {
        println!("{}", lint::to_json(&reports));
    } else {
        print!("{}", lint::to_text(&reports));
    }
    // Demo cases are expected to carry errors; the exit code of a full
    // run reflects only the shipped configurations (non-DEMO cases).
    let dirty = reports
        .iter()
        .any(|r| (named || !r.description.starts_with("DEMO")) && !r.report.is_clean());
    Ok(if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_rings(_: &Parsed) -> CmdResult {
    let topo = ccube_topology::dgx1();
    let rings = ccube_topology::disjoint_rings(&topo, 3);
    println!(
        "DGX-1 NVLink graph decomposes into {} Hamiltonian cycles:",
        rings.len()
    );
    for (i, ring) in rings.iter().enumerate() {
        let path: Vec<String> = ring.iter().map(|g| g.0.to_string()).collect();
        println!("  ring {i}: {} -> (back to {})", path.join(" -> "), path[0]);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // A leading `--threads N` joins the subcommand's own arguments.
    let mut at = 0;
    while let Some(arg) = raw.get(at) {
        match arg.as_str() {
            "--threads" => at += 2,
            a if a.starts_with("--threads=") => at += 1,
            _ => break,
        }
    }
    let Some(name) = raw.get(at) else {
        return usage(2);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return usage(0);
    }
    let rest: Vec<String> = raw[..at].iter().chain(&raw[at + 1..]).cloned().collect();
    let Some(parsed) = cli::parse(name, &rest) else {
        eprintln!("unknown command {name:?}");
        return usage(2);
    };
    let result = parsed.and_then(|p| match name.as_str() {
        "figures" => cmd_figures(&p),
        "compare" => cmd_compare(&p),
        "scaleout" => cmd_scaleout(&p),
        "search" => cmd_search(&p),
        "timeline" => cmd_timeline(&p),
        "train" => cmd_train(&p),
        "rings" => cmd_rings(&p),
        "faults" => cmd_faults(&p),
        "trace" => cmd_trace(&p),
        "lint" => cmd_lint(&p),
        other => unreachable!("no body for {other}"),
    });
    result.unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        ExitCode::from(2)
    })
}
