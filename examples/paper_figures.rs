//! Regenerates every figure of the paper's evaluation and writes one CSV
//! per figure to `target/figures/` (or a directory given as the first
//! argument).
//!
//! ```text
//! cargo run --release --example paper_figures [out_dir]
//! ```
//!
//! The sweeps use every available core; the CSVs are bit-identical at
//! any worker count (see `ccube_sim::sweep`).

use ccube::experiments;
use std::path::PathBuf;

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/figures"));
    let threads = ccube_sim::available_threads();

    println!("== Fig. 1: AllReduce share of execution time ==");
    for row in experiments::fig01::run() {
        println!("  {row}");
    }

    println!("\n== Fig. 3: invocation granularity (ResNet-50) ==");
    for row in experiments::fig03::run() {
        println!("  {row}");
    }

    println!("\n== Fig. 4: ring vs tree cost model (excerpt) ==");
    for row in experiments::fig04::run().iter().step_by(6) {
        println!("  {row}");
    }

    println!("\n== Fig. 12: overlap benefit on the DGX-1 ==");
    for row in experiments::fig12::run() {
        println!("  {row}");
    }

    println!("\n== Fig. 13: normalized overall performance (batch 64) ==");
    for row in experiments::fig13::run().iter().filter(|r| r.batch == 64) {
        println!("  {row}");
    }

    println!("\n== Fig. 14: scale-out (C1 vs R, turnaround) ==");
    for row in experiments::fig14::run() {
        println!("  {row}");
    }

    println!("\n== Fig. 15: detour-node overhead ==");
    for row in experiments::fig15::run() {
        println!("  {row}");
    }

    println!("\n== Fig. 16: communication/computation patterns ==");
    for row in experiments::fig16::run() {
        println!("  {row}");
    }

    println!("\n== Fig. 17: ResNet-50 layer profile (excerpt) ==");
    for row in experiments::fig17::run(64).iter().step_by(6) {
        println!("  {row}");
    }

    println!("\n== Extensions: alternative topology (NVSwitch) ==");
    for row in experiments::extensions::topology_study() {
        println!("  {row}");
    }

    println!("\n== Extensions: detour routes vs PCIe host bridge ==");
    for row in experiments::extensions::detour_vs_host() {
        println!("  {row}");
    }

    println!("\n== Extensions: chunk-count sensitivity (Eq. 4 check) ==");
    for row in experiments::extensions::chunk_sensitivity() {
        println!("  {row}");
    }

    println!("\n== Extensions: schedule policy search ==");
    for row in experiments::policy_search::run_full(threads).rows {
        println!("  {row}");
    }

    match experiments::run_all(&dir, threads, ccube_sim::NetworkModel::ChannelApprox) {
        Ok(paths) => {
            println!("\nwrote {} CSV files to {}:", paths.len(), dir.display());
            for p in paths {
                println!("  {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("failed to write CSVs: {e}");
            std::process::exit(1);
        }
    }
}
