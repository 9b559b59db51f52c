//! Shared environment builders. Per-run measurement lives in the
//! scenario-sweep subsystem (`crate::sweep`); experiments declare
//! [`crate::sweep::ScenarioSpec`]s instead of hand-rolling seed loops.

use wan_cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use wan_cm::{FairWakeUp, PreStabilization};
use wan_sim::crash::NoCrashes;
use wan_sim::loss::{Ecf, RandomLoss};
use wan_sim::{Components, CrashAdversary, Round};

/// Stabilization schedule for an adversarial-but-admissible ECF
/// environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvPlan {
    /// Collision-freedom round `r_cf`.
    pub r_cf: u64,
    /// Detector accuracy round `r_acc`.
    pub r_acc: u64,
    /// Wake-up stabilization round `r_wake`.
    pub r_wake: u64,
    /// Pre-CST loss probability.
    pub loss: f64,
    /// Detector freedom-slack false-positive probability before `r_acc`.
    pub noise: f64,
}

impl EnvPlan {
    /// A chaotic prefix of `prefix` rounds before all three services
    /// stabilize.
    pub fn chaos(prefix: u64) -> Self {
        EnvPlan {
            r_cf: prefix,
            r_acc: prefix,
            r_wake: prefix,
            loss: 0.6,
            noise: 0.3,
        }
    }

    /// Immediate stabilization (CST = 1).
    pub fn immediate() -> Self {
        EnvPlan {
            r_cf: 1,
            r_acc: 1,
            r_wake: 1,
            loss: 0.0,
            noise: 0.0,
        }
    }

    /// Builds the component bundle for a detector of `class`, certified
    /// against it by a [`CheckedDetector`].
    pub fn components(&self, class: CdClass, seed: u64) -> Components {
        self.components_with_crash(class, seed, Box::new(NoCrashes))
    }

    /// As [`EnvPlan::components`] with an explicit crash adversary.
    pub fn components_with_crash(
        &self,
        class: CdClass,
        seed: u64,
        crash: Box<dyn CrashAdversary>,
    ) -> Components {
        let policy = if self.noise > 0.0 {
            FreedomPolicy::Random { p: self.noise }
        } else {
            FreedomPolicy::Quiet
        };
        Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(class, policy, seed ^ 0xCD).accurate_from(Round(self.r_acc)),
                class,
            )),
            manager: Box::new(FairWakeUp::new(
                Round(self.r_wake),
                PreStabilization::Random { p: 0.4 },
                seed ^ 0xC3,
            )),
            loss: Box::new(Ecf::new(
                RandomLoss::new(self.loss, seed ^ 0x10),
                Round(self.r_cf),
            )),
            crash,
        }
    }
}
