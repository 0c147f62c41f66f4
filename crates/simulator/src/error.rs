//! Simulator error types.

use ccube_collectives::LowerError;
use ccube_topology::GpuId;
use std::error::Error;
use std::fmt;

/// Errors produced while simulating a schedule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The input failed the lowering's check: a malformed schedule DAG,
    /// or a missing or invalid route.
    Lowering(LowerError),
    /// A [`SystemJob`](crate::SystemJob)'s compute tasks or gates do not
    /// fit its schedule or topology: a compute id that is not its index,
    /// a gate or dependency naming a transfer or compute task the job
    /// does not have, or a compute task on a GPU outside the topology.
    JobInvalid(String),
    /// The event loop stalled with transfers outstanding (a dependency
    /// cycle or an impossible resource requirement).
    Deadlock {
        /// Number of transfers that never ran.
        remaining: usize,
    },
    /// A transfer's channels went down permanently and no surviving
    /// route — direct, detour, or host bridge — connects its endpoints.
    Unroutable {
        /// The sending GPU.
        src: GpuId,
        /// The receiving GPU.
        dst: GpuId,
    },
    /// A fault plan failed validation (an event with a non-positive
    /// window, a degrade rate outside (0, 1], a straggler slowdown below
    /// 1, or a channel/GPU outside the topology).
    FaultPlanInvalid(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Lowering(e) => write!(f, "{e}"),
            SimError::JobInvalid(why) => write!(f, "invalid system job: {why}"),
            SimError::Deadlock { remaining } => {
                write!(
                    f,
                    "simulation deadlocked with {remaining} transfers outstanding"
                )
            }
            SimError::Unroutable { src, dst } => {
                write!(
                    f,
                    "no surviving route from {src} to {dst} under the injected faults"
                )
            }
            SimError::FaultPlanInvalid(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl Error for SimError {}

impl From<LowerError> for SimError {
    fn from(e: LowerError) -> Self {
        SimError::Lowering(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccube_collectives::{EdgeKey, Rank, TreeIndex};

    #[test]
    fn display_is_informative() {
        let e = SimError::Lowering(LowerError::MissingRoute(EdgeKey {
            src: Rank(0),
            dst: Rank(1),
            tree: TreeIndex(0),
        }));
        assert!(e.to_string().contains("r0->r1"));
        let d = SimError::Deadlock { remaining: 3 };
        assert!(d.to_string().contains('3'));
    }

    #[test]
    fn fault_variant_displays_are_informative() {
        let u = SimError::Unroutable {
            src: GpuId(2),
            dst: GpuId(4),
        };
        let text = u.to_string();
        assert!(text.contains("gpu2") && text.contains("gpu4"), "{text}");
        assert!(text.contains("route"));
        let p = SimError::FaultPlanInvalid("until must exceed from".into());
        assert!(p.to_string().contains("invalid fault plan"));
        assert!(p.to_string().contains("until must exceed from"));
    }
}
