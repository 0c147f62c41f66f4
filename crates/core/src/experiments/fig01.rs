//! Fig. 1 — AllReduce as a fraction of execution time (MLPerf suite).

use ccube_dnn::workloads::{mlperf_suite, FrameworkEnv};
use std::fmt;

/// One bar of Fig. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// AllReduce time / total execution time.
    pub ratio: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<24} {:>5.1}%", self.workload, self.ratio * 100.0)
    }
}

/// Computes the AllReduce share for every workload of the suite under
/// the default framework environment (8-GPU DGX-1, NCCL ring through
/// PyTorch-style bucketing).
pub fn run() -> Vec<Row> {
    let env = FrameworkEnv::default();
    mlperf_suite()
        .iter()
        .map(|w| Row {
            workload: w.name(),
            ratio: w.allreduce_ratio(&env),
        })
        .collect()
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("workload,allreduce_ratio\n");
    for r in rows {
        out.push_str(&format!("{},{:.4}\n", r.workload, r.ratio));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = run();
        assert_eq!(rows.len(), 7);
        let max = rows.iter().map(|r| r.ratio).fold(0.0, f64::max);
        let min = rows.iter().map(|r| r.ratio).fold(1.0, f64::min);
        // "up to 60%" at the top, "approximately 10%" at the bottom.
        assert!((0.5..0.72).contains(&max), "max {max}");
        assert!((0.04..0.2).contains(&min), "min {min}");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&run());
        assert!(csv.starts_with("workload,"));
        assert_eq!(csv.lines().count(), 8);
    }
}
