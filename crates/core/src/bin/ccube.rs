//! The `ccube` command-line tool: drive the reproduction without writing
//! code.
//!
//! ```text
//! ccube figures [out_dir]          regenerate every paper figure (CSV)
//! ccube compare <network> [batch] [--low]
//!                                  mode table (B/C1/C2/R/CC) for a network
//! ccube scaleout [max_p] [mib...]  Fig. 14 sweep on the switch fabric
//! ccube search                     best schedule per topology (policy search)
//! ccube timeline [mib]             ASCII Fig. 7 timelines on the DGX-1
//! ccube train [iterations]         threaded C-Cube training loop
//! ccube rings                      DGX-1 Hamiltonian ring decomposition
//! ccube faults [out] [--seed N] [--smoke]
//!                                  resilience sweep under sampled fault plans
//! ccube faults --shrink <seed>     1-minimal reproducer of the seed's plan
//! ccube trace [out] [--json] [--seed N]
//!                                  faulted C1 trace (CSV or Chrome trace_event)
//! ccube trace --html <out.html>    same run as a self-contained HTML viewer
//! ccube trace --diff <a> <b> [--html <out.html>]
//!                                  compare two traces (CSV paths or live-run
//!                                  seeds; first divergence, per-kind deltas;
//!                                  --html: side-by-side viewer)
//! ccube faults --html <out.html>   fabric-failover demo viewer (k=1 vs k=2)
//! ccube lint [case|all] [--json]   static schedule analyzer (CC001.. lints)
//! ```
//!
//! Sweep-backed commands (`figures`, `scaleout`, `search`, `faults`)
//! accept `--threads N` (default: the machine's available parallelism);
//! the output is bit-identical at any worker count. DES-backed commands
//! (`figures`, `scaleout`, `faults`, `trace`) accept `--fabric
//! {approx,switch}` to pick the network model: `approx` (default) is the
//! channel approximation, `switch` runs the componentized switch fabric
//! (per-port queues and spine/leaf uplinks); at the passthrough
//! configuration the two produce identical results. The spine/leaf shape
//! of the switch fabric is set with `--radix N`, `--spines N`,
//! `--uplinks N` and `--uplink-policy {hash,least-queued,failover}`
//! (each implies `--fabric switch`).

use ccube::experiments;
use ccube::pipeline::{Mode, TrainingPipeline};
use ccube_dnn::{resnet50, vgg16, zfnet, ComputeModel, NetworkModel};
use ccube_topology::ByteSize;
use std::path::PathBuf;
use std::process::ExitCode;

/// The complete help text. Kept as one audited constant: the
/// doc-consistency test (`tests/doc_consistency.rs`) checks every flag
/// the subcommands actually parse appears here and in README.md's
/// subcommand table.
const USAGE: &str = "\
usage: ccube <command>

commands:
  figures [out_dir]                regenerate every paper figure (CSV)
  compare <network> [batch] [--low] mode table for zfnet|vgg16|resnet50
  scaleout [max_p] [mib...]        Fig. 14 sweep on the switch fabric
  search [--bounds]                best schedule per topology (policy search;
                                   --bounds: skip candidates by lower bound)
  timeline [mib]                   ASCII Fig. 7 timelines on the DGX-1
  train [iterations]               threaded C-Cube training loop
  rings                            DGX-1 Hamiltonian ring decomposition
  faults [out] [--seed N] [--smoke] resilience sweep under sampled fault plans
  faults --shrink <seed>           1-minimal reproducer of the seed's plan
  faults --html <out.html>         fabric-failover demo viewer: k=1 vs k=2
                                   uplinks under the same seeded outage
  trace [out] [--json] [--seed N]  faulted C1 trace (CSV or Chrome JSON)
  trace --html <out.html>          the same run as a self-contained HTML
                                   trace viewer (Gantt lanes, zoom, faults)
  trace --diff <a> <b> [--html <out.html>]
                                   compare two traces; each side is a
                                   trace-CSV path or a live-run seed
                                   (--html: side-by-side diff viewer)
  lint [case|all] [--json]         static schedule analyzer (CC001.. lints)
  lint --physical [case|all]       physical-layer analyzer (CC015.. lints:
                                   fabric hazards, bounds, fault severance)

figures/scaleout/search/faults take --threads N (default: all cores);
results are bit-identical at any worker count.
figures/scaleout/faults/trace take --fabric {approx,switch}:
the channel approximation (default) or the componentized switch fabric.
the spine/leaf fabric is shaped with --radix N, --spines N, --uplinks N
and --uplink-policy {hash,least-queued,failover} (imply --fabric switch).";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn network_by_name(name: &str) -> Option<NetworkModel> {
    match name {
        "zfnet" => Some(zfnet()),
        "vgg16" => Some(vgg16()),
        "resnet50" => Some(resnet50()),
        _ => None,
    }
}

fn cmd_figures(args: &[String], threads: usize) -> ExitCode {
    let (args, fabric) = match fabric_from_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    match experiments::run_all_with_network(&dir, threads, fabric) {
        Ok(paths) => {
            println!("wrote {} CSV files to {}", paths.len(), dir.display());
            for p in paths {
                println!("  {}", p.display());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        eprintln!("compare: which network? (zfnet | vgg16 | resnet50)");
        return ExitCode::from(2);
    };
    let Some(net) = network_by_name(name) else {
        eprintln!("compare: unknown network {name:?} (zfnet | vgg16 | resnet50)");
        return ExitCode::from(2);
    };
    let low = args.iter().any(|a| a == "--low");
    let batch = match args[1..].iter().find(|a| *a != "--low") {
        None => 64,
        Some(s) => match positive(s) {
            Some(b) => b,
            None => {
                eprintln!("compare: batch {s:?} is not a positive integer");
                return ExitCode::from(2);
            }
        },
    };
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
    ExitCode::SUCCESS
}

fn cmd_scaleout(args: &[String], threads: usize) -> ExitCode {
    let (args, fabric) = match fabric_from_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("scaleout: {e}");
            return ExitCode::from(2);
        }
    };
    let max_p = match args.first().map(|s| s.parse::<usize>()) {
        None => 128,
        Some(Ok(p)) if p >= 4 => p,
        Some(_) => {
            eprintln!("scaleout: max_p {:?} is not an integer >= 4", args[0]);
            return ExitCode::from(2);
        }
    };
    let mut sizes = Vec::new();
    for s in args.iter().skip(1) {
        match s.parse::<u64>() {
            Ok(mib) if mib > 0 => sizes.push(ByteSize::mib(mib)),
            _ => {
                eprintln!("scaleout: size {s:?} is not a positive integer (MiB)");
                return ExitCode::from(2);
            }
        }
    }
    if sizes.is_empty() {
        sizes = vec![ByteSize::kib(16), ByteSize::mib(1), ByteSize::mib(64)];
    }
    let mut ps = Vec::new();
    let mut p = 4;
    while p <= max_p {
        ps.push(p);
        p *= 2;
    }
    for row in experiments::fig14::run_with_threads_net(&ps, &sizes, threads, fabric) {
        println!("{row}");
    }
    ExitCode::SUCCESS
}

fn cmd_search(args: &[String], threads: usize) -> ExitCode {
    let bounds = args.iter().any(|a| a == "--bounds");
    println!("schedule policy search: topology x tree shape x arbitration x chunks");
    let rows = if bounds {
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
        let outcome = experiments::policy_search::run_full(threads);
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
    ExitCode::SUCCESS
}

fn cmd_timeline(args: &[String]) -> ExitCode {
    use ccube_collectives::cost::{k_opt, CostParams};
    use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
    use ccube_sim::{render_timeline, simulate, SimOptions, TimelineOptions};
    use ccube_topology::dgx1;

    let mib = match args.first() {
        None => 64,
        Some(s) => match positive(s) {
            Some(m) => m,
            None => {
                eprintln!("timeline: size {s:?} is not a positive integer (MiB)");
                return ExitCode::from(2);
            }
        },
    };
    let n = ByteSize::mib(mib);
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
    ExitCode::SUCCESS
}

fn cmd_train(args: &[String]) -> ExitCode {
    use ccube_runtime::{serial_reference, Trainer, TrainerConfig};
    let iterations = match args.first() {
        None => 10,
        Some(s) => match positive(s) {
            Some(i) => i,
            None => {
                eprintln!("train: iterations {s:?} is not a positive integer");
                return ExitCode::from(2);
            }
        },
    };
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
            return ExitCode::FAILURE;
        }
    };
    let mut chained = 0usize;
    for _ in 0..iterations {
        match trainer.step() {
            Ok(early) => chained += early,
            Err(e) => {
                eprintln!("train: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let ok =
        trainer.replicas_agree() && trainer.params(0) == &serial_reference(&config, iterations)[..];
    println!(
        "{iterations} iterations, {chained} chained layer-starts, replicas {}",
        if ok {
            "bit-identical (== serial)"
        } else {
            "DIVERGED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses a positional count or size that must be a positive integer.
fn positive<T: std::str::FromStr + Default + PartialOrd>(s: &str) -> Option<T> {
    s.parse().ok().filter(|v| *v > T::default())
}

/// Splits one `--name value` / `--name=value` flag out of `args`,
/// returning the remaining args and the (last) value if present.
fn split_flag(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let eq = format!("{name}=");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == name {
            let v = iter
                .next()
                .ok_or_else(|| format!("{name} requires a value"))?;
            value = Some(v.clone());
        } else if let Some(v) = arg.strip_prefix(&eq) {
            value = Some(v.to_string());
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, value))
}

/// Splits the network-model flags out of `args`, defaulting to the
/// channel approximation. `--fabric switch` selects the componentized
/// switch fabric — at its passthrough configuration it reproduces the
/// approximation exactly, so the flag is both an end-to-end equivalence
/// check and the hook for fabric experiments. The shaping flags
/// `--radix N`, `--spines N`, `--uplinks N` and `--uplink-policy
/// {hash,least-queued,failover}` configure the spine/leaf fabric (and
/// imply `--fabric switch` when it is not stated); `--uplinks N` or
/// `--spines N` above 1 without `--radix` defaults the radix to 4 so
/// the fabric actually has leaves to uplink.
fn fabric_from_args(args: &[String]) -> Result<(Vec<String>, ccube_sim::NetworkModel), String> {
    let (args, fabric) = split_flag(args, "--fabric")?;
    let (args, radix) = split_flag(&args, "--radix")?;
    let (args, spines) = split_flag(&args, "--spines")?;
    let (args, uplinks) = split_flag(&args, "--uplinks")?;
    let (args, policy) = split_flag(&args, "--uplink-policy")?;

    let shaped = radix.is_some() || spines.is_some() || uplinks.is_some() || policy.is_some();
    let parse_pos = |v: &String, what: &str| -> Result<usize, String> {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{what}: {v:?} is not a positive integer")),
        }
    };
    let mut spec = ccube_sim::FabricSpec::passthrough();
    if let Some(v) = &radix {
        spec.radix = Some(parse_pos(v, "--radix")?);
    }
    if let Some(v) = &uplinks {
        spec.uplinks = parse_pos(v, "--uplinks")?;
    }
    spec.spines = match &spines {
        Some(v) => parse_pos(v, "--spines")?,
        // One spine per slot unless stated: the homogeneous spine/leaf
        // shape the fabric-resilience study uses.
        None => spec.uplinks,
    };
    if let Some(v) = &policy {
        spec.uplink_policy = match v.as_str() {
            "hash" => ccube_sim::UplinkPolicy::Hash,
            "least-queued" => ccube_sim::UplinkPolicy::LeastQueued,
            "failover" => ccube_sim::UplinkPolicy::Failover,
            other => {
                return Err(format!(
                    "--uplink-policy: unknown policy {other:?} (hash | least-queued | failover)"
                ))
            }
        };
    }
    match fabric.as_deref() {
        Some("approx") if shaped => Err(
            "--radix/--spines/--uplinks/--uplink-policy shape the switch fabric; \
             they cannot combine with --fabric approx"
                .to_string(),
        ),
        None if !shaped => Ok((args, ccube_sim::NetworkModel::ChannelApprox)),
        Some("approx") => Ok((args, ccube_sim::NetworkModel::ChannelApprox)),
        None | Some("switch") => {
            if (spec.uplinks > 1 || spec.spines > 1) && spec.radix.is_none() {
                spec.radix = Some(4);
            }
            Ok((args, ccube_sim::NetworkModel::SwitchFabric(spec)))
        }
        Some(v) => Err(format!("--fabric: unknown model {v:?} (approx | switch)")),
    }
}

/// Splits a `--seed N` / `--seed=N` flag out of `args`, defaulting to
/// `default`.
fn seed_from_args(args: &[String], default: u64) -> Result<(Vec<String>, u64), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut seed = default;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let value = if arg == "--seed" {
            Some(
                iter.next()
                    .ok_or_else(|| "--seed requires a value".to_string())?
                    .as_str(),
            )
        } else {
            arg.strip_prefix("--seed=")
        };
        match value {
            Some(v) => {
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed: {v:?} is not a valid u64"))?;
            }
            None => rest.push(arg.clone()),
        }
    }
    Ok((rest, seed))
}

fn write_or_print(out: Option<&String>, content: &str) -> ExitCode {
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

fn cmd_faults(args: &[String], threads: usize) -> ExitCode {
    use ccube::experiments::resilience;
    let (args, fabric) = match fabric_from_args(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("faults: {e}");
            return ExitCode::from(2);
        }
    };
    let (args, shrink) = match split_flag(&args, "--shrink") {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("faults: {e} (the seed of the plan to shrink)");
            return ExitCode::from(2);
        }
    };
    if let Some(v) = shrink {
        let Ok(seed) = v.parse::<u64>() else {
            eprintln!("faults --shrink: {v:?} is not a valid u64 seed");
            return ExitCode::from(2);
        };
        return cmd_faults_shrink(seed, fabric);
    }
    let (args, seed) = match seed_from_args(&args, resilience::DEFAULT_SEED) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("faults: {e}");
            return ExitCode::from(2);
        }
    };
    let (args, html) = match split_flag(&args, "--html") {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("faults: {e} (the viewer output path)");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = html {
        // The explorable fabric-failover figure: k=1 vs k=2 uplinks
        // under the same seeded slot-0 outage, side by side. The demo
        // is inherently a switch-fabric run, so --fabric is ignored.
        return write_or_print(Some(&path), &resilience::fabric_demo_html(seed));
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args.iter().find(|a| !a.starts_with("--"));
    let rows = if smoke {
        resilience::run_smoke_network(fabric)
    } else {
        resilience::run_with_network(seed, threads, fabric)
    };
    if out.is_none() {
        for row in &rows {
            println!("{row}");
        }
        return ExitCode::SUCCESS;
    }
    write_or_print(out, &resilience::to_csv(&rows))
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
    use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
    use ccube_sim::{simulate_faulted, FaultModel, FaultPlan, SimError, SimOptions, SimRng};
    use ccube_topology::hierarchical;

    // The C1 collective on hierarchical(16): the same workload the
    // resilience grid stresses, so a shrunk plan maps straight onto a
    // grid row.
    let topo = hierarchical(16);
    let dt = DoubleBinaryTree::new(16).expect("16 ranks");
    let s = tree_allreduce(
        dt.trees(),
        &Chunking::even(ByteSize::mib(16), 16),
        Overlap::ReductionBroadcast,
    );
    let e = Embedding::nic(&topo, &s).expect("embeds");
    let opts = SimOptions::scale_out().with_network(fabric);
    let healthy = simulate_faulted(
        &topo,
        &s,
        &e,
        &opts.with_network(fabric.static_stripe()),
        &FaultPlan::empty(),
    )
    .expect("healthy run simulates");
    let h = healthy.makespan;

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

    let run = |p: &FaultPlan| simulate_faulted(&topo, &s, &e, &opts, p);
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
/// viewer. Exit code 0 when identical, 1 when they differ.
fn cmd_trace_diff(
    sides: &[&String],
    fabric: ccube_sim::NetworkModel,
    html: Option<&String>,
) -> ExitCode {
    use ccube::experiments::resilience;
    let [left, right] = sides else {
        eprintln!("trace --diff: expected exactly two sides (trace-CSV paths or seeds)");
        return ExitCode::from(2);
    };
    // A side that parses as a u64 is a seed: re-simulate it in-process.
    let side = |arg: &String| -> Option<(ccube_sim::SimTrace, ccube_sim::LaneLabels)> {
        if let Ok(seed) = arg.parse::<u64>() {
            match resilience::demo_trace(seed, fabric) {
                Ok(report) => Some((
                    report.trace,
                    resilience::demo_labels(format!("seed {seed}"), &fabric),
                )),
                Err(e) => {
                    eprintln!("trace --diff: seed {seed}: faulted run failed: {e}");
                    None
                }
            }
        } else {
            let text = match std::fs::read_to_string(arg) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("trace --diff: failed to read {arg}: {e}");
                    return None;
                }
            };
            match ccube_sim::SimTrace::from_csv(&text) {
                Ok(t) => Some((t, resilience::demo_labels(arg.clone(), &fabric))),
                Err(e) => {
                    eprintln!("trace --diff: {arg}: {e}");
                    None
                }
            }
        }
    };
    let (Some((lt, ll)), Some((rt, rl))) = (side(left), side(right)) else {
        return ExitCode::FAILURE;
    };
    let diff = ccube_sim::diff_csv(&lt.to_csv(), &rt.to_csv());
    if let Some(path) = html {
        let doc = ccube_sim::diff_to_html((&lt, &ll), (&rt, &rl));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("trace --diff: failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
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
    if diff.is_identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_trace(args: &[String]) -> ExitCode {
    use ccube::experiments::resilience;
    let parsed = fabric_from_args(args)
        .and_then(|(args, fabric)| Ok((split_flag(&args, "--html")?, fabric)));
    let ((args, html), fabric) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace: {e}");
            return ExitCode::from(2);
        }
    };
    if args.iter().any(|a| a == "--diff") {
        let sides: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
        return cmd_trace_diff(&sides, fabric, html.as_ref());
    }
    let (args, seed) = match seed_from_args(&args, resilience::DEFAULT_SEED) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("trace: {e}");
            return ExitCode::from(2);
        }
    };
    let json = args.iter().any(|a| a == "--json");
    if json && html.is_some() {
        eprintln!("trace: --json and --html are mutually exclusive");
        return ExitCode::from(2);
    }
    let out = args.iter().find(|a| !a.starts_with("--"));
    let report = match resilience::demo_trace(seed, fabric) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace: faulted run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &html {
        let labels = resilience::demo_labels(format!("seed {seed}"), &fabric);
        return write_or_print(Some(path), &ccube_sim::to_html(&report.trace, &labels));
    }
    // Under the switch fabric the grant records carry port indices, so
    // label the Chrome-trace lanes accordingly.
    let lane = match fabric {
        ccube_sim::NetworkModel::ChannelApprox => "channel",
        ccube_sim::NetworkModel::SwitchFabric(_) => "port",
    };
    let content = if json {
        report.trace.to_chrome_json_labeled(lane)
    } else {
        report.trace.to_csv()
    };
    write_or_print(out, &content)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    use ccube::lint;
    let json = args.iter().any(|a| a == "--json");
    let physical = args.iter().any(|a| a == "--physical");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str);
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
                    eprintln!("lint: unknown case {name:?}; available cases:");
                    let cases: &[(&str, &str)] = if physical {
                        &lint::PHYSICAL_CASES
                    } else {
                        &lint::CASES
                    };
                    for (n, d) in cases {
                        eprintln!("  {n:<20} {d}");
                    }
                    return ExitCode::from(2);
                }
            }
        }
    };
    if json {
        println!("{}", lint::to_json(&reports));
    } else {
        print!("{}", lint::to_text(&reports));
    }
    // Demo cases are expected to carry errors; the exit code of a full
    // run reflects only the shipped configurations (non-DEMO cases).
    let dirty = reports
        .iter()
        .any(|r| (named || !r.description.starts_with("DEMO")) && !r.report.is_clean());
    if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_rings() -> ExitCode {
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
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (args, threads) = match ccube_sim::threads_from_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match command.as_str() {
        "figures" => cmd_figures(rest, threads),
        "compare" => cmd_compare(rest),
        "scaleout" => cmd_scaleout(rest, threads),
        "search" => cmd_search(rest, threads),
        "timeline" => cmd_timeline(rest),
        "train" => cmd_train(rest),
        "rings" => cmd_rings(),
        "faults" => cmd_faults(rest, threads),
        "trace" => cmd_trace(rest),
        "lint" => cmd_lint(rest),
        "help" | "--help" | "-h" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage()
        }
    }
}
