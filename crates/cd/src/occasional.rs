//! Occasionally well-behaved detectors — the Section 9 open question.
//!
//! The paper closes with: "It might also be interesting to consider
//! occasionally well-behaved detectors. For example, a collision detector
//! that is always zero complete and occasionally fully complete. Given
//! such a service, could we design a consensus algorithm that terminates
//! efficiently during the periods where the detector happens to behave
//! well?"
//!
//! [`OccasionalDetector`] implements exactly that object: a detector that
//! *always* honours a weak completeness guarantee and, in a
//! (deterministically seeded) fraction of rounds, also honours a strong
//! one. Its declared class is the **weak** one — the strong rounds are not
//! a promise.
//!
//! The probe experiment (`wan_bench` E15 and `tests/occasional.rs`) gives a
//! negative data point for the naive reading of the question: running the
//! *strong-class* algorithm (Algorithm 1 needs majority completeness)
//! against a detector that is majority-complete in even 95% of rounds
//! produces agreement violations — safety cannot be bought with
//! high-probability completeness, because one bad silent round splits the
//! estimate. Any fast-path design must therefore get its safety from the
//! weak guarantee and only its *speed* from the strong rounds, which is
//! precisely the safety/liveness separation the paper advocates.

use crate::class::Completeness;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wan_sim::{CdAdvice, CollisionDetector, Round, TransmissionEntry};

/// A detector that always satisfies `weak` completeness and additionally
/// satisfies `strong` completeness in an i.i.d. `strong_prob` fraction of
/// rounds (accuracy always holds). Deterministic given the seed; the
/// strong/weak choice is per round, not per process, matching a channel
/// whose ambient noise floor varies over time.
#[derive(Debug, Clone)]
pub struct OccasionalDetector {
    weak: Completeness,
    strong: Completeness,
    strong_prob: f64,
    rng: StdRng,
}

impl OccasionalDetector {
    /// A detector that is always `weak`-complete and `strong`-complete with
    /// probability `strong_prob` per round.
    ///
    /// # Panics
    ///
    /// Panics if `strong` does not imply `weak` or the probability is out
    /// of range.
    pub fn new(weak: Completeness, strong: Completeness, strong_prob: f64, seed: u64) -> Self {
        assert!(
            strong.implies(weak),
            "the strong property must imply the weak one"
        );
        assert!((0.0..=1.0).contains(&strong_prob), "probability range");
        OccasionalDetector {
            weak,
            strong,
            strong_prob,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The paper's example: always zero complete, occasionally fully
    /// complete.
    pub fn zero_sometimes_complete(strong_prob: f64, seed: u64) -> Self {
        OccasionalDetector::new(
            Completeness::Zero,
            Completeness::Complete,
            strong_prob,
            seed,
        )
    }
}

impl CollisionDetector for OccasionalDetector {
    fn advise_into(&mut self, _round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        assert_eq!(out.len(), tx.received.len(), "advice arity");
        let strong_now = self.rng.random_bool(self.strong_prob);
        let completeness = if strong_now { self.strong } else { self.weak };
        let c = tx.sent_count;
        for (slot, &t) in out.iter_mut().zip(tx.received.iter()) {
            *slot = if completeness.must_report(c, t) {
                CdAdvice::Collision
            } else {
                // Accuracy always: silence wherever not obliged.
                CdAdvice::Null
            };
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        Some(Round::FIRST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checked::CheckedDetector;
    use crate::class::CdClass;

    fn tx(c: usize, t: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: t,
        }
    }

    #[test]
    fn always_honours_the_weak_guarantee() {
        let det = OccasionalDetector::zero_sometimes_complete(0.5, 9);
        let mut checked = CheckedDetector::new(det, CdClass::ZERO_AC);
        for r in 1..200u64 {
            checked.advise(Round(r), &tx(3, vec![0, 1, 3]));
        }
    }

    #[test]
    fn strong_rounds_happen_and_weak_rounds_happen() {
        let mut det = OccasionalDetector::zero_sometimes_complete(0.5, 4);
        // A process that received 1 of 3 messages: complete must report,
        // zero must not. Both behaviours must occur across rounds.
        let mut reported = 0;
        let mut silent = 0;
        for r in 1..400u64 {
            match det.advise(Round(r), &tx(3, vec![1]))[0] {
                CdAdvice::Collision => reported += 1,
                CdAdvice::Null => silent += 1,
            }
        }
        assert!(reported > 100, "strong rounds too rare: {reported}");
        assert!(silent > 100, "weak rounds too rare: {silent}");
    }

    #[test]
    fn probability_extremes_degenerate_correctly() {
        let mut never = OccasionalDetector::zero_sometimes_complete(0.0, 1);
        let mut always = OccasionalDetector::zero_sometimes_complete(1.0, 1);
        for r in 1..50u64 {
            assert_eq!(never.advise(Round(r), &tx(2, vec![1]))[0], CdAdvice::Null);
            assert_eq!(
                always.advise(Round(r), &tx(2, vec![1]))[0],
                CdAdvice::Collision
            );
        }
    }

    #[test]
    #[should_panic(expected = "must imply")]
    fn inverted_strength_rejected() {
        let _ = OccasionalDetector::new(Completeness::Complete, Completeness::Zero, 0.5, 0);
    }
}
