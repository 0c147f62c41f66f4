//! Self-contained HTML trace viewer — single runs and side-by-side
//! diffs.
//!
//! The Chrome `trace_event` export ([`SimTrace::to_chrome_json`])
//! requires an external UI; this module renders the same structured
//! trace into **one HTML file with zero external assets**: an embedded
//! JSON payload plus a small hand-written canvas renderer, vendored
//! inline from `trace_html/viewer.html`. Open the file in any browser —
//! per-channel (or per-port, under the switch fabric) Gantt lanes,
//! per-GPU compute lanes, fault windows shaded behind the traffic they
//! perturb, instant marks for queue waits / re-routes / failovers /
//! detours, hover tooltips, wheel zoom + drag pan, and a
//! [`utilization_bins`](crate::utilization_bins)-backed utilization
//! strip.
//!
//! [`diff_to_html`] renders **two** runs in locked-scroll side-by-side
//! panes sharing one time axis, with the [`TraceDiff`](crate::TraceDiff)'s first
//! divergence marked in both panes and the per-kind record deltas
//! tabulated in the header — the visual counterpart of `ccube trace
//! --diff`.
//!
//! # The embedded payload is a stability contract
//!
//! The JSON inside `<script type="application/json"
//! id="ccube-trace-data">` is the **stable trace schema** documented in
//! DESIGN.md §15 and pinned byte-for-byte by
//! `tests/trace_html_golden.rs`: external tooling may parse it out of a
//! viewer file (everything between the opening tag and the next
//! `</script>`). The surrounding markup and script are explicitly *not*
//! part of the contract — cosmetic template changes never churn the
//! goldens.
//!
//! Top-level payload object:
//!
//! | key    | value |
//! |--------|-------|
//! | `schema` | payload schema version, currently `1` |
//! | `mode`   | `"single"` or `"diff"` |
//! | `left`   | a *scene* (below) |
//! | `right`  | second scene, diff mode only |
//! | `diff`   | [`TraceDiff::to_json`](crate::TraceDiff::to_json) object, diff mode only |
//!
//! Each scene (one run, produced by [`scene_json`]):
//!
//! | key | value |
//! |-----|-------|
//! | `title`      | run label (CLI seed / file name / study cell) |
//! | `lane_kind`  | `"channel"` or `"port"` — what the grant lanes are |
//! | `horizon_us` | last record timestamp (µs, 3 decimals) |
//! | `dropped`    | records evicted by the trace ring buffer |
//! | `lanes`      | `[{group, id, label}]` — `group` ∈ lane_kind \| `"gpu"` \| `"fault"`; channel/port lanes first (ascending id), then GPUs, then faults |
//! | `spans`      | `[{lane, name, start_us, end_us}]` — closed occupancy spans; `lane` indexes `lanes`; names are `t<id>` / `c<id>` / `fault<id>` |
//! | `marks`      | `[{kind, name, t_us, lane}]` — instants; `kind` ∈ `"wait"` \| `"reroute"` \| `"failover"` \| `"detour"`; `lane` is a lanes index or `null` |
//! | `counts`     | per-record-kind counts (`to_csv` kind names, name order) |
//! | `util`       | 64 bins of mean grant-lane utilization over the horizon (6 decimals), `[]` when no grant completed |
//!
//! Pairing records into lanes, spans and marks is not decided here: the
//! Chrome export and this viewer serialize one shared scene of the trace
//! (crate-private, in `trace.rs`). A grant-lane span opens at
//! [`TraceRecord::ChannelGrant`](crate::TraceRecord::ChannelGrant) and
//! closes at the matching
//! [`TraceRecord::TransferEnd`](crate::TraceRecord::TransferEnd);
//! compute spans pair start/end records; a fault window still open at
//! the end of the trace (a permanent link-down) closes at the horizon.
//!
//! # Examples
//!
//! ```
//! use ccube_collectives::{ring_allreduce, Embedding};
//! use ccube_sim::{simulate, SimOptions};
//! use ccube_sim::trace_html::{to_html, LaneLabels};
//! use ccube_topology::{dgx1, ByteSize};
//!
//! let topo = dgx1();
//! let s = ring_allreduce(8, ByteSize::mib(1));
//! let e = Embedding::identity(&topo, &s).unwrap();
//! let report = simulate(&topo, &s, &e, &SimOptions::default()).unwrap();
//! let html = to_html(report.trace(), &LaneLabels::channels("ring on dgx1"));
//! assert!(html.contains("id=\"ccube-trace-data\""));
//! assert!(!html.contains("href=\"http")); // self-contained
//! ```

use crate::fabric::NetworkModel;
use crate::trace::{diff_csv, json_escape, Item, Lane, Scene, SimTrace};
use ccube_topology::{FabricGraph, Topology};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The vendored single-file viewer template. `__CCUBE_DATA__` is
/// replaced by the payload, `__CCUBE_TITLE__` by the page title.
const TEMPLATE: &str = include_str!("trace_html/viewer.html");

/// How a scene labels its lanes: the grant-lane kind (`"channel"` for
/// the channel approximation, `"port"` for the switch fabric) plus optional
/// per-lane names — e.g. the [`FabricGraph`] port labels (`sw0.up1`), so
/// the viewer shows fabric structure instead of bare indices.
#[derive(Debug, Clone)]
pub struct LaneLabels {
    title: String,
    lane_kind: &'static str,
    names: BTreeMap<u32, String>,
}

impl LaneLabels {
    /// Channel-approximation lanes: `ch <n>`.
    pub fn channels(title: impl Into<String>) -> Self {
        LaneLabels {
            title: title.into(),
            lane_kind: "channel",
            names: BTreeMap::new(),
        }
    }

    /// Switch-fabric lanes named by the graph's stable port labels
    /// (`sw0.inc3`, `sw2.up0`, …); grant records on the switch fabric
    /// carry port indices, which are exactly [`FabricGraph`] port ids.
    pub fn ports(title: impl Into<String>, graph: &FabricGraph) -> Self {
        LaneLabels {
            title: title.into(),
            lane_kind: "port",
            names: graph
                .ports()
                .iter()
                .map(|p| (p.id().0, p.label()))
                .collect(),
        }
    }

    /// Labels appropriate for a run of `network` on `topo`:
    /// [`LaneLabels::channels`] under the approximation,
    /// [`LaneLabels::ports`] of the derived fabric graph under the
    /// switch fabric.
    pub fn for_network(title: impl Into<String>, topo: &Topology, network: &NetworkModel) -> Self {
        match network {
            NetworkModel::ChannelApprox => LaneLabels::channels(title),
            NetworkModel::SwitchFabric(spec) => LaneLabels::ports(
                title,
                &FabricGraph::from_topology(topo, &spec.fabric_config()),
            ),
        }
    }

    /// The run title shown in the viewer header.
    pub fn title(&self) -> &str {
        &self.title
    }
}

/// Serializes one run into the viewer's *scene* JSON object — the
/// byte-stable payload half of the module-level schema contract.
pub fn scene_json(trace: &SimTrace, labels: &LaneLabels) -> String {
    let scene = Scene::of(trace);
    let index: BTreeMap<Lane, usize> = scene.lanes.iter().copied().zip(0..).collect();
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"title\":\"{}\",\"lane_kind\":\"{}\",\"horizon_us\":{:.3},\"dropped\":{},\"lanes\":[",
        json_escape(&labels.title),
        labels.lane_kind,
        scene.horizon.as_micros(),
        trace.dropped()
    );
    for (i, &(g, id)) in scene.lanes.iter().enumerate() {
        let group = Scene::group(g, labels.lane_kind);
        let label = match labels.names.get(&id) {
            Some(name) if g == 0 => json_escape(name),
            _ => format!("{group} {id}"),
        };
        let _ = write!(
            out,
            "{}{{\"group\":\"{group}\",\"id\":{id},\"label\":\"{label}\"}}",
            sep(i)
        );
    }
    // Spans, then marks, each in record order.
    let (mut spans, mut marks) = (String::new(), String::new());
    for item in &scene.items {
        let _ = match *item {
            Item::Span {
                lane,
                name,
                start,
                end,
            } => write!(
                spans,
                "{}{{\"lane\":{},\"name\":\"{name}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                sep(spans.len()),
                index[&lane],
                start.as_micros(),
                end.as_micros()
            ),
            Item::Mark {
                kind,
                name,
                at,
                lane,
            } => write!(
                marks,
                "{}{{\"kind\":\"{kind}\",\"name\":\"{name}\",\"t_us\":{:.3},\"lane\":{}}}",
                sep(marks.len()),
                at.as_micros(),
                lane.map_or("null".to_string(), |l| index[&l].to_string())
            ),
        };
    }
    let _ = write!(
        out,
        "],\"spans\":[{spans}],\"marks\":[{marks}],\"counts\":{{"
    );
    for (i, (kind, n)) in scene.counts.iter().enumerate() {
        let _ = write!(out, "{}\"{kind}\":{n}", sep(i));
    }
    out.push_str("},\"util\":[");
    for (i, m) in scene
        .mean_utilization()
        .unwrap_or_default()
        .iter()
        .enumerate()
    {
        let _ = write!(out, "{}{m:.6}", sep(i));
    }
    out.push_str("]}");
    out
}

/// The separator written before element `i` of a JSON list.
fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ","
    }
}

/// Renders one run as a self-contained HTML viewer.
pub fn to_html(trace: &SimTrace, labels: &LaneLabels) -> String {
    let payload = format!(
        "{{\"schema\":1,\"mode\":\"single\",\"left\":{}}}",
        scene_json(trace, labels)
    );
    render(&payload, labels.title())
}

/// Renders two runs as a side-by-side diff viewer: locked zoom/pan, the
/// [`TraceDiff`](crate::TraceDiff) summary (computed here via
/// [`diff_csv`] over the traces' CSV renderings, exactly as `ccube trace
/// --diff` computes it) in the header, and the first-divergence instant
/// marked in both panes.
pub fn diff_to_html(left: (&SimTrace, &LaneLabels), right: (&SimTrace, &LaneLabels)) -> String {
    let diff = diff_csv(&left.0.to_csv(), &right.0.to_csv());
    let payload = format!(
        "{{\"schema\":1,\"mode\":\"diff\",\"left\":{},\"right\":{},\"diff\":{}}}",
        scene_json(left.0, left.1),
        scene_json(right.0, right.1),
        diff.to_json()
    );
    render(
        &payload,
        &format!("{} vs {}", left.1.title(), right.1.title()),
    )
}

/// Extracts the embedded payload back out of a rendered viewer file —
/// the reader side of the schema contract (and what the golden test
/// pins). Returns `None` if `html` carries no payload tag.
pub fn extract_payload(html: &str) -> Option<&str> {
    let tag = "id=\"ccube-trace-data\">";
    let start = html.find(tag)? + tag.len();
    let end = html[start..].find("</script>")?;
    Some(&html[start..start + end])
}

fn render(payload: &str, title: &str) -> String {
    let title: String = title
        .chars()
        .map(|c| match c {
            '<' => '⟨',
            '>' => '⟩',
            '&' => '+',
            c => c,
        })
        .collect();
    TEMPLATE
        .replacen("__CCUBE_TITLE__", &title, 1)
        .replacen("__CCUBE_DATA__", payload, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceRecord;
    use ccube_collectives::TransferId;
    use ccube_topology::{ChannelId, GpuId, Seconds};

    fn sample_trace() -> SimTrace {
        let mut t = SimTrace::default();
        t.push(TraceRecord::FaultStart {
            fault: 0,
            at: Seconds::from_micros(1.0),
        });
        t.push(TraceRecord::ChannelGrant {
            channel: ChannelId(4),
            id: TransferId(2),
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::ComputeStart {
            id: 9,
            gpu: GpuId(3),
            at: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::QueueWait {
            id: TransferId(2),
            enqueued: Seconds::from_micros(1.0),
            granted: Seconds::from_micros(2.0),
        });
        t.push(TraceRecord::TransferEnd {
            id: TransferId(2),
            at: Seconds::from_micros(5.0),
        });
        t.push(TraceRecord::ComputeEnd {
            id: 9,
            gpu: GpuId(3),
            at: Seconds::from_micros(6.0),
        });
        t
    }

    #[test]
    fn scene_pairs_spans_and_closes_open_faults_at_horizon() {
        let scene = scene_json(&sample_trace(), &LaneLabels::channels("test run"));
        // Grant at 2µs closes at the transfer end (5µs) on the ch-4 lane.
        assert!(scene.contains("{\"lane\":0,\"name\":\"t2\",\"start_us\":2.000,\"end_us\":5.000}"));
        // Compute slice on gpu 3.
        assert!(scene.contains("{\"lane\":1,\"name\":\"c9\",\"start_us\":2.000,\"end_us\":6.000}"));
        // The never-ended fault closes at the 6µs horizon.
        assert!(
            scene.contains("{\"lane\":2,\"name\":\"fault0\",\"start_us\":1.000,\"end_us\":6.000}")
        );
        // Lanes in contract order: channels, gpus, faults.
        assert!(scene.contains(
            "\"lanes\":[{\"group\":\"channel\",\"id\":4,\"label\":\"channel 4\"},\
             {\"group\":\"gpu\",\"id\":3,\"label\":\"gpu 3\"},\
             {\"group\":\"fault\",\"id\":0,\"label\":\"fault 0\"}]"
        ));
        // The queue wait is a lane-less mark; counts cover every kind.
        assert!(scene.contains("{\"kind\":\"wait\",\"name\":\"t2\",\"t_us\":2.000,\"lane\":null}"));
        assert!(scene.contains("\"queue_wait\":1"));
        assert!(scene.contains("\"horizon_us\":6.000"));
        // 64 utilization bins present (the grant lane completed a span).
        assert!(scene.matches("0.").count() >= 64 / 2);
    }

    #[test]
    fn html_is_self_contained_and_payload_round_trips() {
        let labels = LaneLabels::channels("solo");
        let html = to_html(&sample_trace(), &labels);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(!html.contains("src=\"http") && !html.contains("href=\"http"));
        let payload = extract_payload(&html).expect("payload embedded");
        assert_eq!(
            payload,
            format!(
                "{{\"schema\":1,\"mode\":\"single\",\"left\":{}}}",
                scene_json(&sample_trace(), &labels)
            )
        );
    }

    #[test]
    fn diff_html_embeds_both_scenes_and_the_structured_diff() {
        let left = sample_trace();
        let mut right = sample_trace();
        right.push(TraceRecord::Reroute {
            id: TransferId(2),
            at: Seconds::from_micros(7.0),
        });
        let ll = LaneLabels::channels("left");
        let rl = LaneLabels::channels("right");
        let html = diff_to_html((&left, &ll), (&right, &rl));
        let payload = extract_payload(&html).expect("payload embedded");
        assert!(payload.starts_with("{\"schema\":1,\"mode\":\"diff\",\"left\":{"));
        assert!(payload.contains("\"diff\":{\"identical\":false"));
        assert!(payload.contains("\"reroute\":[0,1]"));
        // Identical traces produce an identical-diff payload.
        let same = diff_to_html((&left, &ll), (&left, &rl));
        assert!(extract_payload(&same)
            .unwrap()
            .contains("\"diff\":{\"identical\":true"));
    }

    #[test]
    fn port_labels_come_from_the_fabric_graph() {
        use crate::fabric::FabricSpec;
        let topo = ccube_topology::hierarchical(8);
        let spec = FabricSpec {
            radix: Some(4),
            uplinks: 2,
            spines: 2,
            ..FabricSpec::passthrough()
        };
        let labels = LaneLabels::for_network("fabric", &topo, &NetworkModel::SwitchFabric(spec));
        assert_eq!(labels.lane_kind, "port");
        // Slot-0 uplink of leaf sw0 keeps the graph's stable label.
        assert!(labels.names.values().any(|l| l.contains("up0")));
        let approx = LaneLabels::for_network("approx", &topo, &NetworkModel::ChannelApprox);
        assert_eq!(approx.lane_kind, "channel");
        assert!(approx.names.is_empty());
    }
}
