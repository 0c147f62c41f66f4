//! The C-Cube performance ledger.
//!
//! Two measurements per workload:
//!
//! * [`e2e`] times the `ccube` release binary as users run it, one child
//!   process at a time, with tracing off: pass wall time, set-up time in
//!   fresh environments, and peak resident memory.
//! * [`replay`] replays the same workload in-process with [`spans`]
//!   around the calls into `topology`, `collectives`, `sim` and `core`,
//!   and derives the per-layer metrics from them.
//!
//! Every output of both is checked by [`workloads::Oracle`]. The metric
//! names, units, directions and bounds are declared in `BENCHMARK.json`
//! at the repository root; see `ledger/README.md` for the glossary.

pub mod alloc;
pub mod compare;
pub mod e2e;
pub mod json;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value (a median unless the name says otherwise).
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// `(p25, p75)` of the samples, where they are timings.
    pub quartiles: Option<(f64, f64)>,
    /// p90, when there are at least 100 samples.
    pub p90: Option<f64>,
}

impl Metric {
    /// A single-valued metric.
    pub fn new(value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            value,
            unit,
            samples,
            quartiles: None,
            p90: None,
        }
    }

    /// The median of `samples`, with quartiles (and p90 from 100 samples
    /// on).
    pub fn of(samples: &[f64], unit: &'static str) -> Metric {
        Metric {
            value: stats::median(samples),
            unit,
            samples: samples.len(),
            quartiles: Some(stats::quartiles(samples)),
            p90: (samples.len() >= 100).then(|| stats::quantiles(samples, 10)[8]),
        }
    }
}

/// Operations attempted and failed. An operation is a command run or an
/// output check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One message per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds another tally's counts and messages.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
