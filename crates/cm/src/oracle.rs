//! A wake-up service that never stabilizes on a dead or halted process.

use crate::schedule::PreStabilization;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wan_sim::{CmAdvice, CmView, ContentionManager, Round, ScenarioEvent};

/// A *fair* wake-up service: before `r_wake`, [`PreStabilization`] chaos;
/// from `r_wake` on, the unique active process is the lowest-indexed process
/// that is alive **and still contending** (falling back to the lowest alive
/// index, then to index 0, if none contend).
///
/// Rationale (the root package's `tests/halted_leader.rs` reproduces it):
/// the formal wake-up service of Property 2 is oblivious and may stabilize
/// on a process that has already decided-and-halted, in which case no one
/// ever broadcasts again and the termination bounds of Theorems 1 and 2 do
/// not hold. A real contention manager is built from carrier sensing and
/// backoff among processes that are *trying to send*, so it cannot elect a
/// silent process; `FairWakeUp` models exactly that, and is what the
/// upper-bound experiments use.
#[derive(Debug, Clone)]
pub struct FairWakeUp {
    r_wake: Round,
    pre: PreStabilization,
    rng: StdRng,
}

impl FairWakeUp {
    /// A fair wake-up service stabilizing at `r_wake`.
    pub fn new(r_wake: Round, pre: PreStabilization, seed: u64) -> Self {
        FairWakeUp {
            r_wake,
            pre,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Stabilized from round 1 (no chaos prefix): `CST = max(r_cf, r_acc)`.
    pub fn immediate() -> Self {
        FairWakeUp::new(Round::FIRST, PreStabilization::AllPassive, 0)
    }
}

impl ContentionManager for FairWakeUp {
    fn advise_into(&mut self, round: Round, view: &CmView<'_>, out: &mut [CmAdvice]) {
        if round < self.r_wake {
            self.pre.fill_advice(out, &mut self.rng);
            return;
        }
        let target = view
            .contending
            .iter()
            .position(|&c| c)
            .or_else(|| view.alive.iter().position(|&a| a))
            .unwrap_or(0);
        out.fill(CmAdvice::Passive);
        out[target] = CmAdvice::Active;
    }

    fn stabilized_from(&self) -> Option<Round> {
        Some(self.r_wake)
    }

    /// A scheduled [`ScenarioEvent::ContentionShift`] swaps the
    /// pre-stabilization chaos for `Random { p }` at the new probability —
    /// a mid-run contention-regime change. The post-`r_wake` behaviour
    /// (and therefore the declared stabilization) is untouched.
    fn apply_event(&mut self, _round: Round, event: ScenarioEvent) {
        if let ScenarioEvent::ContentionShift { p } = event {
            assert!((0.0..=1.0).contains(&p), "activation probability in [0,1]");
            self.pre = PreStabilization::Random { p };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn actives(advice: &[CmAdvice]) -> Vec<usize> {
        advice
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.is_active().then_some(i))
            .collect()
    }

    #[test]
    fn picks_lowest_contending() {
        let mut cm = FairWakeUp::immediate();
        let alive = [true, true, true];
        let contending = [false, true, true];
        let advice = cm.advise(
            Round(1),
            &CmView {
                n: 3,
                alive: &alive,
                contending: &contending,
            },
        );
        assert_eq!(actives(&advice), vec![1]);
    }

    #[test]
    fn falls_back_to_alive_then_zero() {
        let mut cm = FairWakeUp::immediate();
        let alive = [false, true];
        let contending = [false, false];
        let advice = cm.advise(
            Round(1),
            &CmView {
                n: 2,
                alive: &alive,
                contending: &contending,
            },
        );
        assert_eq!(actives(&advice), vec![1]);
        let none_alive = [false, false];
        let advice = cm.advise(
            Round(2),
            &CmView {
                n: 2,
                alive: &none_alive,
                contending: &none_alive,
            },
        );
        assert_eq!(actives(&advice), vec![0]);
    }

    #[test]
    fn chaos_before_stabilization() {
        let mut cm = FairWakeUp::new(Round(5), PreStabilization::AllActive, 0);
        let alive = [true; 4];
        let advice = cm.advise(
            Round(4),
            &CmView {
                n: 4,
                alive: &alive,
                contending: &alive,
            },
        );
        assert_eq!(actives(&advice).len(), 4);
        assert_eq!(cm.stabilized_from(), Some(Round(5)));
    }
}
