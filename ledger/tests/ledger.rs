//! The ledger's own checks: `BENCHMARK.json` is well formed and matches
//! the ledger, and a `--quick` replay of every workload emits every
//! declared per-layer metric with sound spans and repeatable counters.
//!
//! ```text
//! cargo test --manifest-path ledger/Cargo.toml
//! ```

use ccube_ledger::alloc::CountingAlloc;
use ccube_ledger::json::{self, Json};
use ccube_ledger::workloads::{DEFAULT_SEED, WORKLOADS};
use ccube_ledger::{replay, spans, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark() -> Json {
    let text =
        std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json exists");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::str)
                .expect("every entry has a name")
                .to_string()
        })
        .collect()
}

/// Metrics the ledger binary adds from its calibration child, which the
/// in-process replay cannot run.
const FROM_CALIBRATION: [&str; 2] = ["bench.parent_rss_mb", "bench.calibration_rss_mb"];

#[test]
fn benchmark_json_is_well_formed() {
    let bench = benchmark();
    let keys: Vec<&String> = bench.obj().expect("an object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };

    let workloads = bench.get("workloads").map(Json::arr).unwrap_or_default();
    let declared: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("workload name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        declared, ours,
        "BENCHMARK.json workloads must be the ledger's"
    );
    for w in workloads {
        assert_eq!(
            w.obj().map(|o| o.len()),
            Some(2),
            "a workload has exactly name and why"
        );
        let why = w.get("why").and_then(Json::str).expect("workload why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = bench.get("end_to_end").map(Json::arr).unwrap_or_default();
    let layers = bench.get("per_layer").map(Json::arr).unwrap_or_default();
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layers.len()));
    let mut seen = std::collections::BTreeSet::new();
    for (m, keys) in e2e
        .iter()
        .map(|m| (m, 4))
        .chain(layers.iter().map(|m| (m, 3)))
    {
        let name = m.get("name").and_then(Json::str).expect("metric name");
        assert!(name_ok(name), "bad metric name {name:?}");
        assert!(seen.insert(name), "metric {name} declared twice");
        assert!(
            unit_ok(m.get("unit").and_then(Json::str).expect("unit")),
            "{name}: bad unit"
        );
        assert!(
            matches!(
                m.get("better").and_then(Json::str),
                Some("lower" | "higher")
            ),
            "{name}: direction"
        );
        assert_eq!(m.obj().map(|o| o.len()), Some(keys), "{name}: exact keys");
        if keys == 4 {
            let bound = m.get("bound").and_then(Json::num).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
    }
    let setup = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Json::str), Some("s"));
    let largest = e2e
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::num))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Json::num), Some(largest));

    let paths: Vec<&str> = bench
        .get("paths")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Json::str)
        .collect();
    assert_eq!(paths, ["ledger"]);
    let seconds = bench
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn quick_replay_emits_every_layer_metric_with_sound_spans() {
    let bench = benchmark();
    let declared = names(&bench, "per_layer");
    let units: BTreeMap<String, String> = bench
        .get("per_layer")
        .map(Json::arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string(),
                m.get("unit")
                    .and_then(Json::str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect();
    for wl in WORKLOADS {
        let mut tally = Tally::default();
        let r = replay::run(&root(), wl, DEFAULT_SEED, 0.0, true, &mut tally).expect("replay runs");
        // Outputs match their digests, and counters and per-layer
        // allocation counts repeat exactly across the passes.
        assert_eq!(tally.failed, 0, "{}: {:#?}", wl.name, tally.failures);
        assert!(r.traced_walls.len() >= 2);

        for name in declared
            .iter()
            .filter(|n| !FROM_CALIBRATION.contains(&n.as_str()))
        {
            let m = r
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("{}: {name} missing", wl.name));
            assert_eq!(m.unit, units[name], "{}: {name} unit", wl.name);
            assert!(m.value.is_finite(), "{}: {name} = {}", wl.name, m.value);
            if m.unit == "ms" {
                assert!(m.value > 0.0, "{}: {name} measured nothing", wl.name);
            }
        }

        // Self times never exceed durations, and on each worker they sum
        // to at most the pass's wall time.
        let selfs = spans::self_times(&r.spans);
        let mut per_worker: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut pass_wall: BTreeMap<u32, u64> = BTreeMap::new();
        for (s, own) in r.spans.iter().zip(&selfs) {
            assert!(
                *own <= s.dur(),
                "{}: span {} self > duration",
                wl.name,
                s.name
            );
            *per_worker.entry((s.pass, s.worker)).or_default() += own;
            if s.parent.is_none() {
                pass_wall.insert(s.pass, s.dur());
            }
        }
        for ((pass, worker), total) in per_worker {
            assert!(
                total <= pass_wall[&pass],
                "{}: pass {pass} worker {worker}: self times {total} ns > pass {} ns",
                wl.name,
                pass_wall[&pass]
            );
        }
        let root_self = r.metrics["bench.root_self_frac"].value;
        assert!(
            root_self < 0.15,
            "{}: unattributed root time {root_self}",
            wl.name
        );
    }
}
