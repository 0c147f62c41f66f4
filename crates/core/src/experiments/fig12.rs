//! Fig. 12 — benefit of communication overlap (C1 over B) on the DGX-1,
//! measured by the discrete-event simulator and compared against the
//! §II-C cost model.

use ccube_collectives::cost::{self, k_opt, t_double_tree_chunked, t_overlapped_double_chunked};
use ccube_collectives::{tree_allreduce, Chunking, DoubleBinaryTree, Embedding, Overlap};
use ccube_sim::{simulate, SimOptions};
use ccube_topology::{dgx1, ByteSize, Seconds};
use std::fmt;

/// One data-size point of Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// AllReduce message size.
    pub n: ByteSize,
    /// Chunk count used (Eq. 4, rounded to the tree pair).
    pub k: usize,
    /// Simulated baseline double-tree time.
    pub t_baseline: Seconds,
    /// Simulated overlapped double-tree time.
    pub t_overlapped: Seconds,
    /// Simulated improvement of C1 over B (`t_b/t_c1 - 1`).
    pub improvement_sim: f64,
    /// Cost-model improvement (Eq. 3-family) for Fig. 12(b).
    pub improvement_model: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={:<10} K={:<4} B={} C1={} sim=+{:.1}% model=+{:.1}%",
            format!("{}", self.n),
            self.k,
            self.t_baseline,
            self.t_overlapped,
            self.improvement_sim * 100.0,
            self.improvement_model * 100.0
        )
    }
}

/// Default sweep over the paper's data-size range.
pub fn run() -> Vec<Row> {
    run_net(ccube_sim::NetworkModel::ChannelApprox)
}

/// [`run`] under an explicit network model (`ccube figures --fabric
/// switch` reruns the DES-backed figures on the componentized switch
/// fabric; a passthrough fabric reproduces the defaults).
///
/// # Panics
///
/// Panics if the DGX-1 embedding or simulation fails — both are
/// deterministic and covered by tests.
pub fn run_net(network: ccube_sim::NetworkModel) -> Vec<Row> {
    let ns = [
        ByteSize::mib(4),
        ByteSize::mib(16),
        ByteSize::mib(64),
        ByteSize::mib(128),
        ByteSize::mib(256),
    ];
    let topo = dgx1();
    let dt = DoubleBinaryTree::new(8).expect("8 ranks");
    let params = cost::CostParams::nvlink();
    ns.into_iter()
        .map(|n| {
            let k = k_opt(&params, 8, n).div_ceil(2).max(1) * 2;
            let chunking = Chunking::even(n, k);
            let run_one = |overlap| {
                let s = tree_allreduce(dt.trees(), &chunking, overlap);
                let e = Embedding::dgx1_double_tree(&topo, &s).expect("embeddable");
                simulate(&topo, &s, &e, &SimOptions::default().with_network(network))
                    .expect("simulates")
                    .makespan()
            };
            let t_baseline = run_one(Overlap::None);
            let t_overlapped = run_one(Overlap::ReductionBroadcast);
            let model_b = t_double_tree_chunked(&params, 8, n, k);
            let model_o = t_overlapped_double_chunked(&params, 8, n, k);
            Row {
                n,
                k,
                t_baseline,
                t_overlapped,
                improvement_sim: t_baseline / t_overlapped - 1.0,
                improvement_model: model_b / model_o - 1.0,
            }
        })
        .collect()
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out =
        String::from("bytes,k,t_baseline_us,t_overlapped_us,improvement_sim,improvement_model\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.2},{:.2},{:.4},{:.4}\n",
            r.n.as_u64(),
            r.k,
            r.t_baseline.as_micros(),
            r.t_overlapped.as_micros(),
            r.improvement_sim,
            r.improvement_model
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_gains_match_paper_band() {
        // Paper Fig. 12(a): 75% improvement at 64 MB, up to 80% beyond.
        let rows: Vec<Row> = run()
            .into_iter()
            .filter(|r| [ByteSize::mib(64), ByteSize::mib(256)].contains(&r.n))
            .collect();
        for r in &rows {
            assert!(
                (0.55..1.0).contains(&r.improvement_sim),
                "N={}: sim improvement {:.2}",
                r.n,
                r.improvement_sim
            );
        }
        // benefit grows (or holds) with message size
        assert!(rows[1].improvement_sim >= rows[0].improvement_sim - 0.05);
    }

    #[test]
    fn sim_matches_model_closely() {
        // Paper Fig. 12(b): "the expected benefit of C1 over B from
        // modeling closely matches the measured benefits".
        for r in run()
            .into_iter()
            .filter(|r| [ByteSize::mib(16), ByteSize::mib(64)].contains(&r.n))
        {
            let gap = (r.improvement_sim - r.improvement_model).abs();
            assert!(
                gap < 0.25,
                "N={}: sim {:.3} vs model {:.3}",
                r.n,
                r.improvement_sim,
                r.improvement_model
            );
        }
    }
}
