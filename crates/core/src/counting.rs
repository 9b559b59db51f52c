//! Anonymous counting (Section 4.1's separation example).
//!
//! The paper: "There exist simple problems, such as counting the number of
//! anonymous processes in the system, that can easily be shown to be
//! solvable with a k-wake-up service, but impossible with a leader election
//! service (and, thus, wake-up service as well)."
//!
//! This module makes both halves executable:
//!
//! * [`CountingProcess`] counts the roster under a one-shot k-wake-up
//!   service (`wan_cm::KWakeUp`) with a zero-complete, accurate detector
//!   and reliable solo delivery: every process broadcasts throughout its
//!   private block; by the Noise Lemma every block is *audible* (a message
//!   or a `±`) at every process, and with accuracy the first truly silent
//!   round marks the roster's end — the count is the number of audible
//!   rounds, divided by the block length.
//! * The impossibility direction is demonstrated in the tests and in
//!   `tests/` — with a leader election service, executions of n and n+1
//!   anonymous processes are indistinguishable to everyone (the extra
//!   process is never told to speak and an anonymous, advice-following
//!   algorithm keeps it silent), so no correct count can be decided.

use crate::value::Value;
use wan_sim::{Automaton, CdAdvice, CmAdvice, RoundInput};

/// The only message: an anonymous "I exist" beacon.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct HereMsg;

/// One anonymous process of the counting protocol. All processes run
/// identical code (no identifiers anywhere).
#[derive(Debug, Clone)]
pub struct CountingProcess {
    /// Block length of the k-wake-up service in use.
    k: u64,
    /// Rounds (from the first audible round on) that were audible.
    audible_rounds: u64,
    /// Whether the roster has started (first audible round seen).
    started: bool,
    /// The decided population count.
    count: Option<u64>,
}

impl CountingProcess {
    /// A counting process for a k-wake-up service with block length `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: u64) -> Self {
        assert!(k >= 1, "block length must be positive");
        CountingProcess {
            k,
            audible_rounds: 0,
            started: false,
            count: None,
        }
    }

    /// The decided count, once the roster has closed.
    pub fn count(&self) -> Option<u64> {
        self.count
    }

    /// The decided count as a [`Value`] (for harness reuse).
    pub fn decision(&self) -> Option<Value> {
        self.count.map(Value)
    }
}

impl Automaton for CountingProcess {
    type Msg = HereMsg;

    fn message(&self, cm: CmAdvice) -> Option<HereMsg> {
        // Speak during the private block; stay silent otherwise. (Following
        // the advice is what an anonymous process *can* do — it has no
        // other way to break symmetry.)
        (self.count.is_none() && cm.is_active()).then_some(HereMsg)
    }

    fn transition(&mut self, input: RoundInput<'_, HereMsg>) {
        if self.count.is_some() {
            return;
        }
        let audible = !input.received.is_empty() || input.cd == CdAdvice::Collision;
        if audible {
            self.started = true;
            self.audible_rounds += 1;
        } else if self.started {
            // With zero completeness + accuracy, true silence after the
            // roster started means no process remains unheard.
            debug_assert_eq!(self.audible_rounds % self.k, 0, "ragged roster");
            self.count = Some(self.audible_rounds / self.k);
        }
    }

    fn is_contending(&self) -> bool {
        self.count.is_none()
    }
}

/// Builds `n` anonymous counting processes for block length `k`.
pub fn processes(n: usize, k: u64) -> Vec<CountingProcess> {
    (0..n).map(|_| CountingProcess::new(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wan_cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
    use wan_cm::{KWakeUp, LeaderElectionService};
    use wan_sim::crash::NoCrashes;
    use wan_sim::loss::NoLoss;
    use wan_sim::{Components, Engine};

    fn run_counting(n: usize, k: u64, rounds: u64) -> Vec<Option<u64>> {
        let mut sim = Engine::new(
            processes(n, k),
            Components {
                detector: Box::new(CheckedDetector::new(
                    ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, 0),
                    CdClass::ZERO_AC,
                )),
                manager: Box::new(KWakeUp::new(k, 0)),
                loss: Box::new(NoLoss),
                crash: Box::new(NoCrashes),
            },
        );
        for _ in 0..rounds {
            sim.advance(&mut ());
        }
        sim.processes().iter().map(|p| p.count()).collect()
    }

    #[test]
    fn counts_exactly_with_k_wakeup() {
        for n in 1..=9usize {
            for k in [1u64, 2, 3] {
                let counts = run_counting(n, k, k * n as u64 + 3);
                assert!(
                    counts.iter().all(|&c| c == Some(n as u64)),
                    "n={n} k={k}: {counts:?}"
                );
            }
        }
    }

    #[test]
    fn counting_survives_collision_only_observation() {
        // Even if every beacon is lost, zero completeness keeps each block
        // audible, so the count still comes out right.
        let n = 5;
        let k = 2;
        let mut sim = Engine::new(
            processes(n, k),
            Components {
                detector: Box::new(CheckedDetector::new(
                    ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, 0),
                    CdClass::ZERO_AC,
                )),
                manager: Box::new(KWakeUp::new(k, 0)),
                loss: Box::new(wan_sim::loss::RandomLoss::new(1.0, 3)),
                crash: Box::new(NoCrashes),
            },
        );
        for _ in 0..k * n as u64 + 3 {
            sim.advance(&mut ());
        }
        assert!(sim.processes().iter().all(|p| p.count() == Some(n as u64)));
    }

    #[test]
    fn leader_election_service_cannot_count() {
        // The separation: under a leader election service, systems of
        // different sizes are indistinguishable (only the leader ever
        // speaks), so the counting algorithm either never decides or
        // decides the same — wrong — number for some population.
        let count_under_ls = |n: usize| -> Vec<Option<u64>> {
            let mut sim = Engine::new(
                processes(n, 1),
                Components {
                    detector: Box::new(ClassDetector::new(
                        CdClass::ZERO_AC,
                        FreedomPolicy::Quiet,
                        0,
                    )),
                    manager: Box::new(LeaderElectionService::min_leader_from_start()),
                    loss: Box::new(NoLoss),
                    crash: Box::new(NoCrashes),
                },
            );
            for _ in 0..30 {
                sim.advance(&mut ());
            }
            sim.processes().iter().map(|p| p.count()).collect()
        };
        let two = count_under_ls(2);
        let three = count_under_ls(3);
        // Whatever the algorithm does, the common processes observe the
        // same thing in both systems, so it cannot be right in both.
        let wrong = two
            .iter()
            .zip(three.iter())
            .any(|(a, b)| a == b && (a != &Some(2) || b != &Some(3)));
        assert!(
            wrong,
            "counting looked solvable under LS?! two={two:?} three={three:?}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_rejected() {
        let _ = CountingProcess::new(0);
    }
}
