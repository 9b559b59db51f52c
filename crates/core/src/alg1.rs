//! Algorithm 1 (Section 7.1): anonymous consensus with eventual collision
//! freedom and a majority-complete, eventually-accurate collision detector.
//!
//! Two alternating phases, starting at round 1:
//!
//! * **proposal** (odd rounds): contention-manager-active processes
//!   broadcast their estimate; a process that hears no collision and at
//!   least one value adopts the minimum value received;
//! * **veto** (even rounds): a process that heard a collision or more than
//!   one distinct value in the preceding proposal broadcasts `veto`; a
//!   process that passes a veto round with no messages, no collision, and a
//!   *single* value from the proposal decides that value and halts.
//!
//! Majority completeness is what makes the silent-veto decision safe: a
//! process with no collision notification received a strict majority of the
//! proposal's messages, and majority sets intersect, so all silent
//! processes saw the *same* single value (Lemma 5). Theorem 1: terminates by
//! `CST + 2` and tolerates any number of crash failures.

use crate::consensus::ConsensusAutomaton;
use crate::value::{Value, ValueDomain, ValueSpread};
use wan_sim::{Automaton, CdAdvice, CmAdvice, RoundInput};

/// Messages of Algorithm 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Alg1Msg {
    /// A proposal-phase estimate broadcast.
    Estimate(Value),
    /// A veto-phase complaint.
    Veto,
}

/// The phase of a given round (derived from the number of completed rounds,
/// so all processes stay in lockstep).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Proposal,
    Veto,
}

/// One process of Algorithm 1 — the paper's `(E(maj-⋄AC, WS), V, ECF)`-
/// consensus algorithm. Anonymous: every process runs identical code.
///
/// # Examples
///
/// ```
/// use ccwan_core::alg1::MajEcfConsensus;
/// use ccwan_core::{ConsensusAutomaton, Value, ValueDomain};
///
/// let p = MajEcfConsensus::new(ValueDomain::new(4), Value(2));
/// assert_eq!(p.initial_value(), Value(2));
/// assert_eq!(p.decision(), None);
/// ```
#[derive(Debug, Clone)]
pub struct MajEcfConsensus {
    domain: ValueDomain,
    initial: Value,
    estimate: Value,
    /// `SET(messages)` of the last proposal round (line 8), as its
    /// minimum and whether it held more than one value.
    last_proposal_values: ValueSpread,
    /// Collision advice of the last proposal round (line 9).
    last_proposal_cd: CdAdvice,
    decided: Option<Value>,
    halted: bool,
    rounds_done: u64,
}

impl MajEcfConsensus {
    /// A process with the given initial value.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not in `domain`.
    pub fn new(domain: ValueDomain, initial: Value) -> Self {
        assert!(domain.contains(initial), "initial value outside domain");
        MajEcfConsensus {
            domain,
            initial,
            estimate: initial,
            last_proposal_values: ValueSpread::default(),
            last_proposal_cd: CdAdvice::Null,
            decided: None,
            halted: false,
            rounds_done: 0,
        }
    }

    /// The current estimate (the value this process would decide).
    pub fn estimate(&self) -> Value {
        self.estimate
    }

    fn phase(&self) -> Phase {
        if self.rounds_done.is_multiple_of(2) {
            Phase::Proposal
        } else {
            Phase::Veto
        }
    }
}

impl Automaton for MajEcfConsensus {
    type Msg = Alg1Msg;

    fn message(&self, cm: CmAdvice) -> Option<Alg1Msg> {
        if self.halted {
            return None;
        }
        match self.phase() {
            // Line 6-7: active processes broadcast their estimate.
            Phase::Proposal => cm.is_active().then_some(Alg1Msg::Estimate(self.estimate)),
            // Line 14-15: veto on collision or value disagreement.
            Phase::Veto => (self.last_proposal_cd.is_collision()
                || self.last_proposal_values.several)
                .then_some(Alg1Msg::Veto),
        }
    }

    fn transition(&mut self, input: RoundInput<'_, Alg1Msg>) {
        let phase = self.phase();
        self.rounds_done += 1;
        if self.halted {
            return;
        }
        match phase {
            Phase::Proposal => {
                let values = ValueSpread::of(input.received.support().filter_map(|m| match m {
                    Alg1Msg::Estimate(v) => Some(*v),
                    Alg1Msg::Veto => None,
                }));
                // Lines 10-11: adopt the minimum on a clean round.
                if !input.cd.is_collision() {
                    if let Some(min) = values.min {
                        debug_assert!(self.domain.contains(min));
                        self.estimate = min;
                    }
                }
                self.last_proposal_values = values;
                self.last_proposal_cd = input.cd;
            }
            Phase::Veto => {
                // Line 18: silent veto round + unique proposal value =>
                // decide. Own vetoes are received back (constraint 5), so a
                // vetoing process never passes this test.
                if input.received.is_empty()
                    && input.cd == CdAdvice::Null
                    && self.last_proposal_values.is_unique()
                {
                    self.decided = Some(self.estimate);
                    self.halted = true;
                }
            }
        }
    }

    fn is_contending(&self) -> bool {
        !self.halted
    }
}

impl ConsensusAutomaton for MajEcfConsensus {
    fn initial_value(&self) -> Value {
        self.initial
    }

    fn decision(&self) -> Option<Value> {
        self.decided
    }

    fn halted(&self) -> bool {
        self.halted
    }
}

/// Builds the full anonymous process vector for a run: one
/// [`MajEcfConsensus`] per initial value.
pub fn processes(domain: ValueDomain, initial_values: &[Value]) -> Vec<MajEcfConsensus> {
    initial_values
        .iter()
        .map(|&v| MajEcfConsensus::new(domain, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ConsensusRun;
    use wan_cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
    use wan_cm::FairWakeUp;
    use wan_sim::crash::NoCrashes;
    use wan_sim::loss::{Ecf, RandomLoss};
    use wan_sim::{Components, Round};

    fn run_clean(values: &[u64], v_size: u64) -> crate::checker::ConsensusOutcome {
        let domain = ValueDomain::new(v_size);
        let procs = processes(
            domain,
            &values.iter().map(|&v| Value(v)).collect::<Vec<_>>(),
        );
        let components = Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 0),
                CdClass::MAJ_EV_AC,
            )),
            manager: Box::new(FairWakeUp::immediate()),
            loss: Box::new(Ecf::new(RandomLoss::new(0.0, 0), Round(1))),
            crash: Box::new(NoCrashes),
        };
        let mut run = ConsensusRun::new(procs, components);
        run.run_to_completion(Round(100))
    }

    #[test]
    fn clean_environment_decides_by_cst_plus_2() {
        let outcome = run_clean(&[3, 1, 2, 2], 4);
        assert!(outcome.terminated);
        assert!(outcome.is_safe());
        // CST = 1; Theorem 1: decide by CST + 2.
        assert!(outcome.last_decision().unwrap() <= Round(3));
    }

    #[test]
    fn uniform_inputs_decide_that_value() {
        let outcome = run_clean(&[2, 2, 2], 4);
        assert_eq!(outcome.agreed_value(), Some(Value(2)));
    }

    #[test]
    fn singleton_system_decides_alone() {
        let outcome = run_clean(&[1], 4);
        assert!(outcome.terminated);
        assert_eq!(outcome.agreed_value(), Some(Value(1)));
    }

    #[test]
    fn phase_alternation_and_message_shape() {
        let domain = ValueDomain::new(4);
        let p = MajEcfConsensus::new(domain, Value(3));
        // Round 1 = proposal: broadcasts estimate iff active.
        assert_eq!(
            p.message(CmAdvice::Active),
            Some(Alg1Msg::Estimate(Value(3)))
        );
        assert_eq!(p.message(CmAdvice::Passive), None);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn initial_value_must_be_in_domain() {
        let _ = MajEcfConsensus::new(ValueDomain::new(2), Value(5));
    }
}
