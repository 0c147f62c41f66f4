//! Fig. 3 — AllReduce performance vs invocation granularity (one-shot,
//! layer-wise, slicing) for ResNet-50's gradients.

use ccube_collectives::cost::{CostParams, GranularityModel};
use ccube_dnn::resnet50;
use ccube_topology::{Bandwidth, ByteSize, Seconds};
use std::fmt;

/// One bar of Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scheme name (`one-shot`, `layer-wise`, `slicing-4x`).
    pub scheme: &'static str,
    /// AllReduce invocations per iteration.
    pub invocations: usize,
    /// Effective bandwidth in GB/s.
    pub effective_gbps: f64,
    /// Bandwidth normalized to the one-shot scheme (1.0 for one-shot).
    pub relative: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>5} invocations {:>7.2} GB/s (x{:.2})",
            self.scheme, self.invocations, self.effective_gbps, self.relative
        )
    }
}

/// The NCCL-on-DGX-1 environment of the measurement: an effective
/// multi-ring bandwidth with per-invocation launch overhead.
pub fn default_model() -> GranularityModel {
    GranularityModel::new(
        CostParams::new(Seconds::from_micros(1.0), Bandwidth::gb_per_sec(60.0)),
        Seconds::from_micros(5.0),
        8,
    )
}

/// Runs the three schemes over ResNet-50's per-layer gradient tensors.
pub fn run() -> Vec<Row> {
    let model = default_model();
    let net = resnet50();
    let one_shot = vec![net.total_param_bytes()];
    // "Layer-wise" launches one AllReduce per gradient *tensor*: a conv
    // layer contributes its weight plus two batch-norm tensors, a fully
    // connected layer its weight plus bias — 161 tensors for ResNet-50,
    // matching the real framework's tensor count.
    let layer_wise: Vec<ByteSize> = net.layers().iter().flat_map(|l| l.tensor_bytes()).collect();
    let slicing: Vec<ByteSize> = layer_wise.iter().flat_map(|b| b.split(4)).collect();

    let schemes: [(&'static str, Vec<ByteSize>); 3] = [
        ("one-shot", one_shot),
        ("layer-wise", layer_wise),
        ("slicing-4x", slicing),
    ];
    let base = model.effective_bandwidth(&schemes[0].1).as_gb_per_sec();
    schemes
        .iter()
        .map(|(name, messages)| {
            let bw = model.effective_bandwidth(messages).as_gb_per_sec();
            Row {
                scheme: name,
                invocations: messages.len(),
                effective_gbps: bw,
                relative: bw / base,
            }
        })
        .collect()
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("scheme,invocations,effective_gbps,relative_to_one_shot\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{:.4}\n",
            r.scheme, r.invocations, r.effective_gbps, r.relative
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_losses_match_paper() {
        let rows = run();
        assert_eq!(rows[0].scheme, "one-shot");
        assert!((rows[0].relative - 1.0).abs() < 1e-12);
        // layer-wise: ~2x loss (paper: "approximately 2x").
        let layer_loss = 1.0 / rows[1].relative;
        assert!((1.5..3.2).contains(&layer_loss), "layer loss {layer_loss}");
        // slicing: >4x loss (paper: "over 4x").
        let slice_loss = 1.0 / rows[2].relative;
        assert!(slice_loss > 4.0, "slice loss {slice_loss}");
        // slicing is strictly worse than layer-wise
        assert!(rows[2].effective_gbps < rows[1].effective_gbps);
    }

    #[test]
    fn invocation_counts_follow_resnet_structure() {
        let rows = run();
        assert_eq!(rows[0].invocations, 1);
        // 53 convs x 3 tensors + 1 fc x 2 tensors = 161, the real
        // gradient-tensor count of ResNet-50.
        assert_eq!(rows[1].invocations, 161);
        assert_eq!(rows[2].invocations, 161 * 4);
    }
}
