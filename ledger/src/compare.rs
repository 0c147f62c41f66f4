//! `ledger compare`: parent runs against change runs, per workload and
//! end-to-end metric, with this verdict rule:
//!
//! * **better** — the change wins at least 90% of the (alternating) run
//!   pairs, ties counting for neither, and the medians differ by more than
//!   the parent's own interquartile range;
//! * **unresolved** — the parent's run-to-run spread (IQR over median)
//!   exceeds the metric's bound, unless every change run beats every
//!   parent run;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the bound in `BENCHMARK.json`;
//! * **no-worse** — otherwise.

use crate::json::{self, Json};
use crate::stats;
use std::fmt::Write as _;
use std::path::Path;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shown better by the win-share rule.
    Better,
    /// Within the bound.
    NoWorse,
    /// Worse than the bound allows.
    Worse,
    /// Too noisy to say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no-worse",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from per-run values of each side (run `i` of the
/// parent pairs with run `i` of the change). `lower` says lower is
/// better; `bound` is the allowed relative worsening.
pub fn verdict(parent: &[f64], change: &[f64], lower: bool, bound: f64) -> (Verdict, f64) {
    let better = |c: f64, p: f64| if lower { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let share = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (pm, cm) = (stats::median(parent), stats::median(change));
    let (q1, q3) = stats::quartiles(parent);
    let iqr = q3 - q1;
    let spread = if pm == 0.0 { 0.0 } else { iqr / pm.abs() };
    let worsening = if pm == 0.0 {
        0.0
    } else if lower {
        (cm - pm) / pm.abs()
    } else {
        (pm - cm) / pm.abs()
    };
    let dominates = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if share >= 0.9 && better(cm, pm) && (cm - pm).abs() > iqr {
        Verdict::Better
    } else if spread > bound && !dominates {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    (v, share)
}

struct Run {
    doc: Json,
}

impl Run {
    fn load(path: &str) -> Result<Run, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(Run {
            doc: json::parse(&text).map_err(|e| format!("{path}: {e}"))?,
        })
    }

    fn workload(&self, name: &str) -> Option<&Json> {
        self.doc.get("workloads")?.get(name)
    }

    fn value(&self, workload: &str, metric: &str) -> Option<f64> {
        self.workload(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get("value")?
            .num()
    }

    fn counts(&self, workload: &str) -> (f64, f64) {
        let w = self.workload(workload);
        let n = |k: &str| w.and_then(|w| w.get(k)).and_then(Json::num).unwrap_or(0.0);
        (n("attempted"), n("failed"))
    }
}

/// Runs `ledger compare`. `args` are the ledger.json files: parent runs
/// then change runs, split at `--` or, without it, in half. Returns the
/// report and whether any row is `worse`.
///
/// # Errors
///
/// Unreadable or malformed files, or an uneven split.
pub fn run(root: &Path, args: &[String]) -> Result<(String, bool), String> {
    let (parent, change): (&[String], &[String]) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if !args.is_empty() && args.len().is_multiple_of(2) => args.split_at(args.len() / 2),
        None => {
            return Err(
                "compare: give parent runs then change runs, split by `--` or in equal halves"
                    .into(),
            )
        }
    };
    if parent.is_empty() || change.is_empty() {
        return Err("compare: each side needs at least one ledger.json".into());
    }
    let bench_path = root.join("BENCHMARK.json");
    let bench = json::parse(
        &std::fs::read_to_string(&bench_path)
            .map_err(|e| format!("{}: {e}", bench_path.display()))?,
    )?;
    let load = |files: &[String]| {
        files
            .iter()
            .map(|f| Run::load(f))
            .collect::<Result<Vec<_>, _>>()
    };
    let (parent, change) = (load(parent)?, load(change)?);

    let mut workloads: Vec<String> = Vec::new();
    for w in bench.get("workloads").map(Json::arr).unwrap_or_default() {
        if let Some(name) = w.get("name").and_then(Json::str) {
            workloads.push(name.to_string());
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<9} {:<12} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "parent",
        "parent p25..p75",
        "change",
        "change p25..p75",
        "delta",
        "wins"
    );
    let mut any_worse = false;
    for w in &workloads {
        if !parent
            .iter()
            .chain(&change)
            .any(|r| r.workload(w).is_some())
        {
            continue;
        }
        for m in bench.get("end_to_end").map(Json::arr).unwrap_or_default() {
            let (Some(name), Some(bound)) = (
                m.get("name").and_then(Json::str),
                m.get("bound").and_then(Json::num),
            ) else {
                continue;
            };
            let lower = m.get("better").and_then(Json::str) != Some("higher");
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.value(w, name)).collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                let _ = writeln!(out, "{w:<9} {name:<12} missing on one side");
                continue;
            }
            let (v, share) = verdict(&p, &c, lower, bound);
            any_worse |= v == Verdict::Worse;
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            let (pq, cq) = (stats::quartiles(&p), stats::quartiles(&c));
            let _ = writeln!(
                out,
                "{w:<9} {name:<12} {pm:>12.6} {:>25} {cm:>12.6} {:>25} {:>+7.2}% {:>5.0}%  {} (bound {:.0}%)",
                format!("{:.6}..{:.6}", pq.0, pq.1),
                format!("{:.6}..{:.6}", cq.0, cq.1),
                if pm == 0.0 { 0.0 } else { (cm - pm) / pm * 100.0 },
                share * 100.0,
                v.label(),
                bound * 100.0
            );
        }
        let rate = |runs: &[Run]| {
            let (a, f) = runs
                .iter()
                .map(|r| r.counts(w))
                .fold((0.0, 0.0), |x, y| (x.0 + y.0, x.1 + y.1));
            (if a == 0.0 { 0.0 } else { f / a }, f, a)
        };
        let (pr, pf, pa) = rate(&parent);
        let (cr, cf, ca) = rate(&change);
        let _ = writeln!(
            out,
            "{w:<9} error_rate   parent {pr} ({pf}/{pa})   change {cr} ({cf}/{ca})"
        );
    }
    let _ = writeln!(
        out,
        "{} parent run(s), {} change run(s); pairs alternate in the order given",
        parent.len(),
        change.len()
    );
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        // Identical runs: no-worse.
        assert_eq!(verdict(&parent, &parent, true, 0.1).0, Verdict::NoWorse);
        // 20% slower everywhere: worse.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &slow, true, 0.1).0, Verdict::Worse);
        // 20% faster in every pair: better.
        let fast: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &fast, true, 0.1), (Verdict::Better, 1.0));
        // A parent spread wider than the bound: unresolved.
        let noisy = [1.0, 2.0, 1.0, 2.0];
        assert_eq!(verdict(&noisy, &noisy, true, 0.1).0, Verdict::Unresolved);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&parent, &slow, false, 0.1).0, Verdict::Better);
    }
}
