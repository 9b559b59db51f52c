//! A wrapper that certifies detector advice against a class's obligations.

use crate::class::CdClass;
use std::fmt;
use wan_sim::{CdAdvice, CollisionDetector, ProcessId, Round, TransmissionEntry};

/// Wraps a detector and checks, every round, that its advice is admissible
/// for `class` (via [`CdClass::admits`]) — i.e. that the wrapped behaviour is
/// one of the behaviours of the maximal detector `MAXCD(class)` of
/// Definition 15.
///
/// The first inadmissible advice panics, naming the class, the broken
/// obligation, the round, the process, `c` and `T(i)`.
pub struct CheckedDetector<D> {
    inner: D,
    class: CdClass,
    r_acc: Round,
}

impl<D: CollisionDetector> CheckedDetector<D> {
    /// Wraps `inner`, checking against `class`.
    ///
    /// The accuracy horizon used for `Eventual` classes is the inner
    /// detector's declared [`CollisionDetector::accuracy_from`]; if it
    /// declares none, accuracy violations before the end of time cannot be
    /// established and only completeness is checked.
    pub fn new(inner: D, class: CdClass) -> Self {
        let r_acc = inner.accuracy_from().unwrap_or(Round(u64::MAX));
        CheckedDetector {
            inner,
            class,
            r_acc,
        }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The class being checked against.
    pub fn class(&self) -> CdClass {
        self.class
    }
}

impl<D: CollisionDetector> CollisionDetector for CheckedDetector<D> {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        assert_eq!(out.len(), tx.received.len(), "advice arity");
        self.inner.advise_into(round, tx, out);
        let c = tx.sent_count;
        for (i, (&t, &a)) in tx.received.iter().zip(out.iter()).enumerate() {
            assert!(
                t <= c,
                "invalid transmission entry at {round}: T({i})={t} > c={c}"
            );
            let collision = a.is_collision();
            if !self.class.admits(round, self.r_acc, c, t, collision) {
                let kind = if collision {
                    "false positive (accuracy)"
                } else {
                    "missed collision (completeness)"
                };
                panic!(
                    "collision detector violated {}: {kind} at {round} for {}: c={c}, T(i)={t}",
                    self.class,
                    ProcessId(i)
                );
            }
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        self.inner.accuracy_from()
    }

    fn apply_event(&mut self, round: Round, event: wan_sim::ScenarioEvent) {
        self.inner.apply_event(round, event);
    }
}

impl<D> fmt::Debug for CheckedDetector<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckedDetector")
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{ClassDetector, FreedomPolicy};
    use crate::trivial::NoCdDetector;
    use proptest::prelude::*;

    fn tx(c: usize, t: Vec<usize>) -> TransmissionEntry {
        TransmissionEntry {
            sent_count: c,
            received: t,
        }
    }

    #[test]
    fn clean_detector_produces_no_violations() {
        let mut d = CheckedDetector::new(ClassDetector::perfect(), CdClass::AC);
        for r in 1..10u64 {
            d.advise(Round(r), &tx(3, vec![3, 2, 0]));
        }
    }

    #[test]
    #[should_panic(expected = "missed collision (completeness)")]
    fn missed_collision_is_caught() {
        // A detector that stays silent on total loss violates zero
        // completeness.
        let mut d = CheckedDetector::new(wan_sim::AlwaysNull, CdClass::ZERO_AC);
        d.advise(Round(1), &tx(2, vec![0]));
    }

    #[test]
    #[should_panic(expected = "false positive (accuracy)")]
    fn false_positive_is_caught_for_accurate_class() {
        let mut d = CheckedDetector::new(NoCdDetector, CdClass::ZERO_AC);
        // NoCD reports ± even though everyone received everything.
        d.advise(Round(1), &tx(1, vec![1, 1]));
    }

    #[test]
    fn nocd_is_admissible_for_no_acc() {
        // Lemma 1: the trivial detector never violates NoACC.
        let mut d = CheckedDetector::new(NoCdDetector, CdClass::NO_ACC);
        for c in 0..4usize {
            d.advise(Round(1), &tx(c, vec![c.min(1); 3]));
        }
    }

    #[test]
    #[should_panic(
        expected = "collision detector violated AC: false positive (accuracy) at r1 for p0: c=0, T(i)=0"
    )]
    fn violation_message_names_class_kind_round_process_and_counts() {
        let mut d = CheckedDetector::new(NoCdDetector, CdClass::AC);
        d.advise(Round(1), &tx(0, vec![0]));
    }

    proptest! {
        /// ClassDetector never violates its own class, for any class, policy
        /// and traffic — the central well-formedness property of this crate.
        #[test]
        fn class_detector_respects_class(
            class_idx in 0usize..8,
            policy_idx in 0usize..3,
            r_acc in 1u64..12,
            seed in 0u64..100,
            rounds in proptest::collection::vec((0usize..5, 0usize..5), 1..12),
        ) {
            let class = CdClass::FIGURE_1[class_idx];
            let policy = match policy_idx {
                0 => FreedomPolicy::Quiet,
                1 => FreedomPolicy::Noisy,
                _ => FreedomPolicy::Random { p: 0.5 },
            };
            let inner = ClassDetector::new(class, policy, seed)
                .accurate_from(Round(r_acc));
            let mut d = CheckedDetector::new(inner, class);
            for (r, (c, t_raw)) in rounds.into_iter().enumerate() {
                let t = t_raw.min(c);
                d.advise(Round(r as u64 + 1), &tx(c, vec![t]));
            }
        }

        /// Monotonicity end-to-end: a detector checked clean against a class
        /// is also clean against any containing class.
        #[test]
        fn checked_monotone(
            inner_idx in 0usize..8,
            outer_idx in 0usize..8,
            rounds in proptest::collection::vec((0usize..5, 0usize..5), 1..10),
        ) {
            let inner_class = CdClass::FIGURE_1[inner_idx];
            let outer_class = CdClass::FIGURE_1[outer_idx];
            prop_assume!(outer_class.contains(inner_class));
            let det = ClassDetector::new(inner_class, FreedomPolicy::Noisy, 3);
            let mut checked = CheckedDetector::new(det, outer_class);
            for (r, (c, t_raw)) in rounds.into_iter().enumerate() {
                let t = t_raw.min(c);
                checked.advise(Round(r as u64 + 1), &tx(c, vec![t]));
            }
        }
    }
}
