//! Deliberately *incorrect* algorithms, used by the impossibility
//! demonstrations of `wan-adversary`.
//!
//! An impossibility theorem quantifies over all algorithms: every algorithm
//! either stalls forever in some admissible execution or violates safety in
//! one. The paper's own algorithms exhibit the first horn when run outside
//! their detector class (they simply never pass their silence tests); these
//! strawmen exhibit the second horn — they decide, and the adversarial
//! constructions of Section 8 drive them into agreement/validity violations
//! that the checker catches.

use crate::alg1::Alg1Msg;
use crate::consensus::ConsensusAutomaton;
use crate::value::{Value, ValueDomain, ValueSpread};
use wan_sim::{Automaton, CmAdvice, RoundInput};

/// Algorithm 1 with the collision detector wires cut: it treats every round
/// as collision-free. Against honest environments it often "works"; under
/// the Theorem 4 partition construction the two halves silently decide
/// different values — exactly the behaviour Theorem 4 proves unavoidable
/// for *any* algorithm without collision detection.
#[derive(Debug, Clone)]
pub struct CdBlindOptimist {
    domain: ValueDomain,
    initial: Value,
    estimate: Value,
    last_proposal_values: ValueSpread,
    decided: Option<Value>,
    halted: bool,
    rounds_done: u64,
}

impl CdBlindOptimist {
    /// A process with the given initial value.
    pub fn new(domain: ValueDomain, initial: Value) -> Self {
        assert!(domain.contains(initial), "initial value outside domain");
        CdBlindOptimist {
            domain,
            initial,
            estimate: initial,
            last_proposal_values: ValueSpread::default(),
            decided: None,
            halted: false,
            rounds_done: 0,
        }
    }

    fn in_proposal(&self) -> bool {
        self.rounds_done.is_multiple_of(2)
    }
}

impl Automaton for CdBlindOptimist {
    type Msg = Alg1Msg;

    fn message(&self, cm: CmAdvice) -> Option<Alg1Msg> {
        if self.halted {
            return None;
        }
        if self.in_proposal() {
            cm.is_active().then_some(Alg1Msg::Estimate(self.estimate))
        } else {
            // Veto only on observed value disagreement — collisions are
            // invisible to it.
            self.last_proposal_values.several.then_some(Alg1Msg::Veto)
        }
    }

    fn transition(&mut self, input: RoundInput<'_, Alg1Msg>) {
        let proposal = self.in_proposal();
        self.rounds_done += 1;
        if self.halted {
            return;
        }
        if proposal {
            let values = ValueSpread::of(input.received.support().filter_map(|m| match m {
                Alg1Msg::Estimate(v) => Some(*v),
                Alg1Msg::Veto => None,
            }));
            if let Some(min) = values.min {
                debug_assert!(self.domain.contains(min));
                self.estimate = min;
            }
            self.last_proposal_values = values;
        } else if input.received.is_empty() && self.last_proposal_values.is_unique() {
            self.decided = Some(self.estimate);
            self.halted = true;
        }
    }

    fn is_contending(&self) -> bool {
        !self.halted
    }
}

impl ConsensusAutomaton for CdBlindOptimist {
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

/// The maximally naive algorithm: broadcasts once, then decides the minimum
/// value it has seen (its own if nothing arrives) at the end of round
/// `patience`. Useful as a baseline that *any* nontrivial loss pattern
/// breaks.
#[derive(Debug, Clone)]
pub struct EagerDecider {
    domain: ValueDomain,
    initial: Value,
    best: Value,
    patience: u64,
    decided: Option<Value>,
    rounds_done: u64,
}

impl EagerDecider {
    /// A process deciding after `patience` rounds.
    pub fn new(domain: ValueDomain, initial: Value, patience: u64) -> Self {
        assert!(domain.contains(initial), "initial value outside domain");
        assert!(patience >= 1, "patience must be at least one round");
        EagerDecider {
            domain,
            initial,
            best: initial,
            patience,
            decided: None,
            rounds_done: 0,
        }
    }
}

impl Automaton for EagerDecider {
    type Msg = Value;

    fn message(&self, cm: CmAdvice) -> Option<Value> {
        (self.decided.is_none() && cm.is_active()).then_some(self.best)
    }

    fn transition(&mut self, input: RoundInput<'_, Value>) {
        self.rounds_done += 1;
        if self.decided.is_some() {
            return;
        }
        if let Some(&min) = input.received.min() {
            debug_assert!(self.domain.contains(min));
            self.best = self.best.min(min);
        }
        if self.rounds_done >= self.patience {
            self.decided = Some(self.best);
        }
    }

    fn is_contending(&self) -> bool {
        self.decided.is_none()
    }
}

impl ConsensusAutomaton for EagerDecider {
    fn initial_value(&self) -> Value {
        self.initial
    }
    fn decision(&self) -> Option<Value> {
        self.decided
    }
    fn halted(&self) -> bool {
        self.decided.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ConsensusRun;
    use wan_cd::NoCdDetector;
    use wan_cm::{LeaderElectionService, PreStabilization};
    use wan_sim::crash::NoCrashes;
    use wan_sim::loss::{IntraGroupRule, NoLoss, PartitionLoss};
    use wan_sim::{Components, ProcessId, Round, Script};

    #[test]
    fn optimist_works_in_honest_environments() {
        let domain = ValueDomain::new(4);
        let procs: Vec<CdBlindOptimist> = [3, 1]
            .into_iter()
            .map(|v| CdBlindOptimist::new(domain, Value(v)))
            .collect();
        let components = Components {
            detector: Box::new(NoCdDetector),
            manager: Box::new(LeaderElectionService::new(
                Round(1),
                ProcessId(0),
                PreStabilization::AllPassive,
                0,
            )),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        };
        let outcome = ConsensusRun::new(procs, components).run_to_completion(Round(20));
        assert!(outcome.terminated);
        assert!(outcome.is_safe());
        assert_eq!(
            outcome.agreed_value(),
            Some(Value(3)),
            "leader's value wins"
        );
    }

    #[test]
    fn optimist_splits_under_partition() {
        // The Theorem 4 shape: two groups that never hear each other, both
        // with a "leader" broadcasting. Without collision detection the
        // groups decide their own values.
        let domain = ValueDomain::new(4);
        let procs: Vec<CdBlindOptimist> = [0, 0, 1, 1]
            .into_iter()
            .map(|v| CdBlindOptimist::new(domain, Value(v)))
            .collect();
        let leaders = vec![
            CmAdvice::Active,
            CmAdvice::Passive,
            CmAdvice::Active,
            CmAdvice::Passive,
        ];
        let components = Script {
            cm: vec![leaders; 40],
            ..Script::default()
        }
        .over(Components {
            detector: Box::new(NoCdDetector),
            manager: Box::new(wan_cm::NoCm),
            loss: Box::new(PartitionLoss::two_groups(4, 2, IntraGroupRule::Full)),
            crash: Box::new(NoCrashes),
        });
        let outcome = ConsensusRun::new(procs, components).run_to_completion(Round(30));
        let violations = outcome.safety_violations();
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, crate::checker::SafetyViolation::Agreement { .. })),
            "expected an agreement violation, got {violations:?}"
        );
    }

    #[test]
    fn eager_decider_is_broken_by_one_lost_message() {
        let domain = ValueDomain::new(4);
        let procs = vec![
            EagerDecider::new(domain, Value(0), 1),
            EagerDecider::new(domain, Value(1), 1),
        ];
        let components = Components {
            detector: Box::new(NoCdDetector),
            manager: Box::new(wan_cm::NoCm),
            loss: Box::new(PartitionLoss::two_groups(2, 1, IntraGroupRule::Full)),
            crash: Box::new(NoCrashes),
        };
        let outcome = ConsensusRun::new(procs, components).run_to_completion(Round(5));
        assert!(!outcome.is_safe());
    }
}
