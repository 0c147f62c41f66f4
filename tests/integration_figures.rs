//! Headline-claims test: the numbers the paper's abstract and evaluation
//! call out must hold (as shapes/bands) for our reproduction.

use ccube::experiments::{fig12, fig13, fig14};
use ccube::pipeline::Mode;
use ccube_sim::NetworkModel;
use ccube_topology::ByteSize;

#[test]
fn abstract_claim_up_to_61_percent_overall_improvement() {
    // "C-Cube ... achieve up to 61% improvement in overall performance,
    // compared to baseline two-tree algorithm." Our substrate differs, so
    // accept a generous band around 61% for the maximum.
    let rows = fig13::run();
    let mut max_improvement: f64 = 0.0;
    for net in ["zfnet", "vgg16", "resnet50"] {
        for batch in [16usize, 32, 64, 128] {
            for bw in ["low", "high"] {
                let b = fig13::lookup(&rows, net, batch, bw, Mode::Baseline);
                let cc = fig13::lookup(&rows, net, batch, bw, Mode::CCube);
                max_improvement = max_improvement.max(cc / b - 1.0);
            }
        }
    }
    assert!(
        (0.4..1.2).contains(&max_improvement),
        "max CC-over-B improvement {max_improvement:.3}"
    );
}

#[test]
fn evaluation_claim_c1_communication_gain() {
    // "The overlapping tree algorithm (C1) always exceeds the performance
    // of the baseline tree algorithm (B) by 75% for 64MB data size and up
    // to 80% for larger data size."
    let sizes = [ByteSize::mib(64), ByteSize::mib(256)];
    for row in fig12::run().iter().filter(|r| sizes.contains(&r.n)) {
        assert!(
            row.improvement_sim > 0.55,
            "N={}: {:.3}",
            row.n,
            row.improvement_sim
        );
    }
}

#[test]
fn evaluation_claim_c1_average_overall_gain() {
    // "C1 provides 10% performance improvement on average ... compared
    // to B" — C1 alone is a modest overall win.
    let rows = fig13::run();
    let mut gains = Vec::new();
    for net in ["zfnet", "vgg16", "resnet50"] {
        for batch in [16usize, 32, 64, 128] {
            for bw in ["low", "high"] {
                let b = fig13::lookup(&rows, net, batch, bw, Mode::Baseline);
                let c1 = fig13::lookup(&rows, net, batch, bw, Mode::OverlappedTree);
                gains.push(c1 / b - 1.0);
            }
        }
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    assert!((0.02..0.45).contains(&avg), "average C1 gain {avg:.3}");
    // and every cell is a non-loss
    assert!(gains.iter().all(|&g| g >= -1e-9));
}

#[test]
fn evaluation_claim_turnaround_speedup_scale_out() {
    // Fig. 14(b): "29x improvement on average (and up to 69x)" for large
    // messages. Shape: the speedup must reach tens of x at 64 MiB.
    let rows = fig14::run_with_threads_net(
        &[64, 128],
        &[ByteSize::mib(64)],
        1,
        NetworkModel::ChannelApprox,
    );
    let max = rows
        .iter()
        .map(|r| r.turnaround_speedup)
        .fold(0.0, f64::max);
    assert!(max > 15.0, "max turnaround speedup {max:.1}");
}

#[test]
fn evaluation_claim_scale_out_crossover() {
    // Fig. 14(a): the tree-based C1 overtakes the ring as node count
    // grows (here shown for 1 MiB messages, whose crossover falls inside
    // a quick sweep; 64 MiB crosses over beyond P=512).
    let rows = fig14::run_with_threads_net(
        &[4, 128],
        &[ByteSize::mib(1)],
        1,
        NetworkModel::ChannelApprox,
    );
    let small = rows.iter().find(|r| r.p == 4).unwrap().c1_over_ring;
    let large = rows.iter().find(|r| r.p == 128).unwrap().c1_over_ring;
    assert!(large > small);
    assert!(small < 1.0, "ring should win at small scale ({small:.2})");
    assert!(large > 1.0, "C1 must beat the ring at scale ({large:.2})");
}
