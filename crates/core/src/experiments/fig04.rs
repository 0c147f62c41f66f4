//! Fig. 4 — ring vs tree AllReduce cost-model comparison over (P, N).

use ccube_collectives::cost::{t_ring, t_tree, CostParams};
use ccube_topology::ByteSize;
use std::fmt;

/// One grid point of Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Number of processors.
    pub p: usize,
    /// Message size.
    pub n: ByteSize,
    /// `T_ring / T_tree` — above 1.0 the tree algorithm wins.
    pub ring_over_tree: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P={:<5} N={:<10} ratio={:.3}",
            self.p,
            format!("{}", self.n),
            self.ring_over_tree
        )
    }
}

/// Default sweep: P in powers of two up to 1024, N from 16 KiB to
/// 256 MiB, with the α/β parameters of the NCCL 2.4 scale-out blog the
/// paper cites.
pub fn run() -> Vec<Row> {
    let ps: Vec<usize> = (1..=10).map(|e| 1usize << e).collect();
    let ns = [
        ByteSize::kib(16),
        ByteSize::kib(256),
        ByteSize::mib(1),
        ByteSize::mib(16),
        ByteSize::mib(64),
        ByteSize::mib(256),
    ];
    let params = CostParams::nccl_blog();
    let mut rows = Vec::new();
    for p in ps {
        for n in ns {
            rows.push(Row {
                p,
                n,
                ring_over_tree: t_ring(&params, p, n) / t_tree(&params, p, n),
            });
        }
    }
    rows
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("p,bytes,ring_over_tree\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.4}\n",
            r.p,
            r.n.as_u64(),
            r.ring_over_tree
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(rows: &[Row], p: usize, n: ByteSize) -> f64 {
        rows.iter()
            .find(|r| r.p == p && r.n == n)
            .unwrap()
            .ring_over_tree
    }

    #[test]
    fn small_messages_favor_tree() {
        let rows = run();
        assert!(at(&rows, 64, ByteSize::kib(16)) > 1.0);
        assert!(at(&rows, 1024, ByteSize::kib(16)) > 5.0);
    }

    #[test]
    fn large_messages_small_scale_favor_ring_modestly() {
        // Paper: ring wins "by up to 14%" for large messages at smaller
        // node counts. At P=8 the ring moves 2(P-1)/P = 1.75 βN against
        // the tree's 2 βN, a ~12% edge.
        let rows = run();
        let r = at(&rows, 8, ByteSize::mib(256));
        assert!(r < 1.0, "tree should lose here, ratio {r}");
        assert!(r > 0.80, "ring advantage should be modest, ratio {r}");
    }

    #[test]
    fn tree_advantage_grows_with_scale() {
        let rows = run();
        for n in [ByteSize::kib(16), ByteSize::mib(64)] {
            let small = at(&rows, 4, n);
            let large = at(&rows, 1024, n);
            assert!(large > small, "N={n}: {small} -> {large}");
        }
    }

    #[test]
    fn crossover_exists_for_large_messages() {
        // For 256 MiB the ring wins at small P but the tree overtakes it
        // as P grows — the crossover of Fig. 4.
        let rows = run();
        let n = ByteSize::mib(256);
        assert!(at(&rows, 2, n) < 1.0);
        assert!(at(&rows, 1024, n) > 1.0);
    }
}
