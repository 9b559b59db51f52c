//! The outside judge: agreement, validity and termination verdicts.

use crate::value::Value;
use std::fmt;
use wan_sim::{ProcessId, Round};

/// A safety violation detected in a consensus run. The lower-bound
/// demonstrations of `wan-adversary` *construct* runs in which strawman
/// algorithms produce these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyViolation {
    /// Two processes decided different values.
    Agreement {
        /// First decider and its value.
        first: (ProcessId, Value),
        /// Second decider with a conflicting value.
        second: (ProcessId, Value),
    },
    /// A process decided a value that is no process's initial value
    /// (strong validity, Section 6).
    StrongValidity {
        /// The offending decider.
        process: ProcessId,
        /// The decided, un-proposed value.
        value: Value,
    },
    /// All processes started with the same value but some process decided a
    /// different one (uniform validity — the weaker property, so this is
    /// also always a strong-validity violation).
    UniformValidity {
        /// The common initial value.
        proposed: Value,
        /// The offending decider.
        process: ProcessId,
        /// The deviant decision.
        value: Value,
    },
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyViolation::Agreement { first, second } => write!(
                f,
                "agreement violated: {} decided {} but {} decided {}",
                first.0, first.1, second.0, second.1
            ),
            SafetyViolation::StrongValidity { process, value } => write!(
                f,
                "strong validity violated: {process} decided {value}, which nobody proposed"
            ),
            SafetyViolation::UniformValidity {
                proposed,
                process,
                value,
            } => write!(
                f,
                "uniform validity violated: all proposed {proposed} but {process} decided {value}"
            ),
        }
    }
}

/// The observable outcome of a consensus run, assembled by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusOutcome {
    /// Each process's initial value.
    pub initial_values: Vec<Value>,
    /// Each process's decision, if it made one.
    pub decisions: Vec<Option<Value>>,
    /// The round at which each process decided.
    pub decision_rounds: Vec<Option<Round>>,
    /// Which processes never crashed (the *correct* processes,
    /// Definition 13).
    pub correct: Vec<bool>,
    /// Rounds executed in total.
    pub rounds_executed: Round,
    /// Whether every correct process decided within the round cap.
    pub terminated: bool,
}

impl ConsensusOutcome {
    /// The earliest decision round, if anyone decided.
    pub fn first_decision(&self) -> Option<Round> {
        self.decision_rounds.iter().flatten().min().copied()
    }

    /// The latest decision round among deciders.
    pub fn last_decision(&self) -> Option<Round> {
        self.decision_rounds.iter().flatten().max().copied()
    }

    /// The decided value, when the run agreed on one.
    pub fn agreed_value(&self) -> Option<Value> {
        let mut vals = self.decisions.iter().flatten();
        let first = vals.next()?;
        vals.all(|v| v == first).then_some(*first)
    }

    /// Checks agreement and both validity properties, returning every
    /// violation found (empty = safe).
    pub fn safety_violations(&self) -> Vec<SafetyViolation> {
        let mut out = Vec::new();

        // Agreement: compare every decision against the first.
        let deciders: Vec<(ProcessId, Value)> = self
            .decisions
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|v| (ProcessId(i), v)))
            .collect();
        if let Some(&first) = deciders.first() {
            for &other in &deciders[1..] {
                if other.1 != first.1 {
                    out.push(SafetyViolation::Agreement {
                        first,
                        second: other,
                    });
                }
            }
        }

        // Strong validity.
        for &(p, v) in &deciders {
            if !self.initial_values.contains(&v) {
                out.push(SafetyViolation::StrongValidity {
                    process: p,
                    value: v,
                });
            }
        }

        // Uniform validity (implied by strong, but reported separately since
        // the lower bounds argue with it).
        if let Some(&common) = self.initial_values.first() {
            if self.initial_values.iter().all(|&v| v == common) {
                for &(p, v) in &deciders {
                    if v != common {
                        out.push(SafetyViolation::UniformValidity {
                            proposed: common,
                            process: p,
                            value: v,
                        });
                    }
                }
            }
        }

        out
    }

    /// `true` iff no safety violation was detected.
    pub fn is_safe(&self) -> bool {
        self.safety_violations().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(
        initial: Vec<u64>,
        decisions: Vec<Option<u64>>,
        rounds: Vec<Option<u64>>,
    ) -> ConsensusOutcome {
        let n = initial.len();
        ConsensusOutcome {
            initial_values: initial.into_iter().map(Value).collect(),
            decisions: decisions.into_iter().map(|d| d.map(Value)).collect(),
            decision_rounds: rounds.into_iter().map(|r| r.map(Round)).collect(),
            correct: vec![true; n],
            rounds_executed: Round(10),
            terminated: true,
        }
    }

    #[test]
    fn clean_run_is_safe() {
        let o = outcome(
            vec![3, 1, 2],
            vec![Some(1), Some(1), Some(1)],
            vec![Some(4), Some(4), Some(6)],
        );
        assert!(o.is_safe());
        assert_eq!(o.agreed_value(), Some(Value(1)));
        assert_eq!(o.first_decision(), Some(Round(4)));
        assert_eq!(o.last_decision(), Some(Round(6)));
    }

    #[test]
    fn agreement_violation_detected() {
        let o = outcome(vec![0, 1], vec![Some(0), Some(1)], vec![Some(1), Some(1)]);
        let vs = o.safety_violations();
        assert!(matches!(vs[0], SafetyViolation::Agreement { .. }));
        assert_eq!(o.agreed_value(), None);
        let text = vs[0].to_string();
        assert!(text.contains("agreement violated"), "{text}");
    }

    #[test]
    fn strong_validity_violation_detected() {
        let o = outcome(vec![0, 1], vec![Some(7), None], vec![Some(2), None]);
        let vs = o.safety_violations();
        assert!(vs
            .iter()
            .any(|v| matches!(v, SafetyViolation::StrongValidity { .. })));
    }

    #[test]
    fn uniform_validity_violation_detected() {
        // Uniform inputs, deviant output: both uniform- and strong-validity
        // violations fire.
        let o = outcome(vec![4, 4], vec![Some(5), Some(5)], vec![Some(3), Some(3)]);
        let vs = o.safety_violations();
        assert!(vs
            .iter()
            .any(|v| matches!(v, SafetyViolation::UniformValidity { .. })));
        assert!(vs
            .iter()
            .any(|v| matches!(v, SafetyViolation::StrongValidity { .. })));
    }

    #[test]
    fn no_decisions_is_vacuously_safe() {
        let o = outcome(vec![0, 1], vec![None, None], vec![None, None]);
        assert!(o.is_safe());
        assert_eq!(o.agreed_value(), None);
        assert_eq!(o.first_decision(), None);
    }
}
