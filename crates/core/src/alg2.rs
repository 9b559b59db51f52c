//! Algorithm 2 (Section 7.2): anonymous consensus with eventual collision
//! freedom and only a zero-complete, eventually-accurate collision detector
//! (`0-⋄AC` — the weakest class in Figure 1).
//!
//! Three phases repeat in a fixed cycle of `⌈lg |V|⌉ + 2` rounds:
//!
//! * **prepare** — contention-manager-active processes broadcast their
//!   estimate; clean receivers adopt the minimum;
//! * **propose** — one round per estimate bit: processes whose current bit
//!   is 1 broadcast a marker; a listener (bit 0) that hears anything — a
//!   message *or* a collision notification — learns that estimates
//!   disagree and sets its reject flag;
//! * **accept** — rejecting processes broadcast a veto; a process that
//!   hears neither message nor collision decides its estimate and halts
//!   (by the Noise Lemma, real silence is globally observable with a
//!   zero-complete detector).
//!
//! Theorem 2: terminates by `CST + 2(⌈lg |V|⌉ + 1)` — matching the Ω(log
//! |V|) lower bound of Theorem 6 for half-complete-or-weaker detectors.
//!
//! The phase state machine is exposed separately as [`Alg2Core`] because the
//! non-anonymous protocol of Section 7.3 reuses it verbatim to elect a
//! leader over the ID space (`crate::alg3`).

use crate::consensus::ConsensusAutomaton;
use crate::value::{Value, ValueDomain};
use wan_sim::{Automaton, CmAdvice, RoundInput};

/// Messages of Algorithm 2. The propose- and accept-phase broadcasts carry
/// no payload (the paper reuses the literal `"veto"`); only their presence
/// on the channel matters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Alg2Msg {
    /// A prepare-phase estimate broadcast.
    Estimate(Value),
    /// A propose-phase bit marker or accept-phase veto.
    Mark,
}

/// Where a process is within the `⌈lg |V|⌉ + 2`-round cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Alg2Phase {
    /// Estimate dissemination.
    Prepare,
    /// Bit-by-bit comparison; `bit` is 1-indexed MSB-first.
    Propose {
        /// The estimate bit being compared this round.
        bit: u32,
    },
    /// Silent-round decision.
    Accept,
}

/// What a process broadcasts in one Algorithm 2 round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Alg2Wire {
    /// The current estimate (prepare phase).
    Estimate(Value),
    /// A contentless marker (propose/accept phases).
    Mark,
}

/// The bare Algorithm 2 state machine, independent of message framing and of
/// *when* its rounds happen. [`ZeroEcfConsensus`] drives it every round; the
/// Section 7.3 protocol drives it only on its election rounds and resets it
/// across leader epochs.
#[derive(Debug, Clone)]
pub struct Alg2Core {
    domain: ValueDomain,
    estimate: Value,
    decide_flag: bool,
    /// Whether this process broadcasts in prepare rounds when advised
    /// active (the Section 7.3 participation gating; plain Algorithm 2
    /// always contends).
    contend: bool,
}

impl Alg2Core {
    /// A core with the given starting estimate.
    ///
    /// # Panics
    ///
    /// Panics if `estimate` is not in `domain`.
    pub fn new(domain: ValueDomain, estimate: Value) -> Self {
        assert!(domain.contains(estimate), "estimate outside domain");
        Alg2Core {
            domain,
            estimate,
            decide_flag: true,
            contend: true,
        }
    }

    /// Rounds per cycle: `⌈lg |V|⌉ + 2`.
    pub fn cycle_len(&self) -> u64 {
        u64::from(self.domain.bits()) + 2
    }

    /// The phase at cycle position `pos ∈ [0, cycle_len)`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn phase_at(&self, pos: u64) -> Alg2Phase {
        let bits = u64::from(self.domain.bits());
        match pos {
            0 => Alg2Phase::Prepare,
            p if p <= bits => Alg2Phase::Propose { bit: p as u32 },
            p if p == bits + 1 => Alg2Phase::Accept,
            p => panic!("cycle position {p} outside 0..{}", bits + 2),
        }
    }

    /// The message (if any) for cycle position `pos`, given whether the
    /// contention manager advised `active` this round.
    pub fn wire(&self, pos: u64, cm_active: bool) -> Option<Alg2Wire> {
        match self.phase_at(pos) {
            Alg2Phase::Prepare => {
                (self.contend && cm_active).then_some(Alg2Wire::Estimate(self.estimate))
            }
            Alg2Phase::Propose { bit } => self
                .domain
                .bit(self.estimate, bit)
                .then_some(Alg2Wire::Mark),
            Alg2Phase::Accept => (!self.decide_flag).then_some(Alg2Wire::Mark),
        }
    }

    /// Feeds one round's observations in; returns `Some(value)` when an
    /// accept round decides.
    ///
    /// * `least_estimate` — the minimum of the `SET` of estimate values
    ///   received, if any (prepare rounds; ignored otherwise);
    /// * `received_any` — whether *any* message was received (including the
    ///   process's own broadcast, per constraint 5);
    /// * `collision` — the collision detector advice.
    pub fn observe(
        &mut self,
        pos: u64,
        least_estimate: Option<Value>,
        received_any: bool,
        collision: bool,
    ) -> Option<Value> {
        match self.phase_at(pos) {
            Alg2Phase::Prepare => {
                // Lines 11-12: adopt the minimum on a clean round.
                if !collision {
                    if let Some(min) = least_estimate {
                        debug_assert!(self.domain.contains(min));
                        self.estimate = min;
                    }
                }
                // Line 13: optimistically plan to decide this cycle.
                self.decide_flag = true;
                None
            }
            Alg2Phase::Propose { bit } => {
                // Lines 21-22: a listening process that hears anything
                // rejects. (A broadcaster hears its own mark, but its bit is
                // 1, so the condition is vacuous for it.)
                if (received_any || collision) && !self.domain.bit(self.estimate, bit) {
                    self.decide_flag = false;
                }
                None
            }
            Alg2Phase::Accept => {
                // Lines 31-32: pure silence decides. A vetoing process hears
                // its own veto, so it never decides here.
                (!received_any && !collision).then_some(self.estimate)
            }
        }
    }

    /// The current estimate.
    pub fn estimate(&self) -> Value {
        self.estimate
    }

    /// The reject flag (`decide` in the paper's pseudocode).
    pub fn decide_flag(&self) -> bool {
        self.decide_flag
    }

    /// Sets whether this core broadcasts in prepare rounds (Section 7.3
    /// gating).
    pub fn set_contend(&mut self, contend: bool) {
        self.contend = contend;
    }

    /// Resets the core to a fresh instance with a new starting estimate
    /// (Section 7.3: "setting their estimate value back to their unique
    /// ID"). The reject flag is cleared pessimistically so a mid-cycle
    /// reset vetoes out the current cycle instead of corrupting it.
    pub fn reset(&mut self, estimate: Value) {
        assert!(self.domain.contains(estimate), "estimate outside domain");
        self.estimate = estimate;
        self.decide_flag = false;
    }

    /// The value domain this core runs over.
    pub fn domain(&self) -> ValueDomain {
        self.domain
    }
}

/// One process of Algorithm 2 — the paper's `(E(0-⋄AC, WS), V, ECF)`-
/// consensus algorithm. Anonymous.
#[derive(Debug, Clone)]
pub struct ZeroEcfConsensus {
    core: Alg2Core,
    initial: Value,
    decided: Option<Value>,
    halted: bool,
    rounds_done: u64,
}

impl ZeroEcfConsensus {
    /// A process with the given initial value.
    pub fn new(domain: ValueDomain, initial: Value) -> Self {
        ZeroEcfConsensus {
            core: Alg2Core::new(domain, initial),
            initial,
            decided: None,
            halted: false,
            rounds_done: 0,
        }
    }

    /// The current estimate.
    pub fn estimate(&self) -> Value {
        self.core.estimate()
    }

    fn pos(&self) -> u64 {
        self.rounds_done % self.core.cycle_len()
    }
}

impl Automaton for ZeroEcfConsensus {
    type Msg = Alg2Msg;

    fn message(&self, cm: CmAdvice) -> Option<Alg2Msg> {
        if self.halted {
            return None;
        }
        self.core.wire(self.pos(), cm.is_active()).map(|w| match w {
            Alg2Wire::Estimate(v) => Alg2Msg::Estimate(v),
            Alg2Wire::Mark => Alg2Msg::Mark,
        })
    }

    fn transition(&mut self, input: RoundInput<'_, Alg2Msg>) {
        let pos = self.pos();
        self.rounds_done += 1;
        if self.halted {
            return;
        }
        let least_estimate = input
            .received
            .support()
            .filter_map(|m| match m {
                Alg2Msg::Estimate(v) => Some(*v),
                Alg2Msg::Mark => None,
            })
            .min();
        if let Some(v) = self.core.observe(
            pos,
            least_estimate,
            !input.received.is_empty(),
            input.cd.is_collision(),
        ) {
            self.decided = Some(v);
            self.halted = true;
        }
    }

    fn is_contending(&self) -> bool {
        !self.halted
    }
}

impl ConsensusAutomaton for ZeroEcfConsensus {
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

/// Builds the full anonymous process vector for a run.
pub fn processes(domain: ValueDomain, initial_values: &[Value]) -> Vec<ZeroEcfConsensus> {
    initial_values
        .iter()
        .map(|&v| ZeroEcfConsensus::new(domain, v))
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

    fn clean_components(policy: FreedomPolicy, seed: u64) -> Components {
        Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::ZERO_EV_AC, policy, seed),
                CdClass::ZERO_EV_AC,
            )),
            manager: Box::new(FairWakeUp::immediate()),
            loss: Box::new(Ecf::new(RandomLoss::new(0.0, seed), Round(1))),
            crash: Box::new(NoCrashes),
        }
    }

    #[test]
    fn decides_within_theorem_2_bound() {
        let domain = ValueDomain::new(16); // bits = 4, cycle = 6
        let values: Vec<Value> = [9, 3, 14, 3].into_iter().map(Value).collect();
        let procs = processes(domain, &values);
        let mut run = ConsensusRun::new(procs, clean_components(FreedomPolicy::Quiet, 0));
        let outcome = run.run_to_completion(Round(100));
        assert!(outcome.terminated);
        assert!(outcome.is_safe());
        // CST = 1; Theorem 2: by CST + 2(⌈lg|V|⌉ + 1) = 1 + 10.
        assert!(
            outcome.last_decision().unwrap() <= Round(11),
            "decided at {:?}",
            outcome.last_decision()
        );
    }

    #[test]
    fn uniform_inputs_decide_that_value() {
        let domain = ValueDomain::new(8);
        let values = vec![Value(5); 3];
        let procs = processes(domain, &values);
        let mut run = ConsensusRun::new(procs, clean_components(FreedomPolicy::Quiet, 1));
        let outcome = run.run_to_completion(Round(100));
        assert_eq!(outcome.agreed_value(), Some(Value(5)));
    }

    #[test]
    fn singleton_domain_still_works() {
        let domain = ValueDomain::new(1);
        let procs = processes(domain, &[Value(0), Value(0)]);
        let mut run = ConsensusRun::new(procs, clean_components(FreedomPolicy::Quiet, 2));
        let outcome = run.run_to_completion(Round(50));
        assert_eq!(outcome.agreed_value(), Some(Value(0)));
    }

    #[test]
    fn core_phase_schedule() {
        let core = Alg2Core::new(ValueDomain::new(8), Value(0)); // bits=3
        assert_eq!(core.cycle_len(), 5);
        assert_eq!(core.phase_at(0), Alg2Phase::Prepare);
        assert_eq!(core.phase_at(1), Alg2Phase::Propose { bit: 1 });
        assert_eq!(core.phase_at(3), Alg2Phase::Propose { bit: 3 });
        assert_eq!(core.phase_at(4), Alg2Phase::Accept);
    }

    #[test]
    #[should_panic(expected = "cycle position")]
    fn out_of_cycle_position_panics() {
        let core = Alg2Core::new(ValueDomain::new(8), Value(0));
        let _ = core.phase_at(5);
    }

    #[test]
    fn core_bit_broadcast_matches_encoding() {
        // estimate v5 = 101 over 3 bits.
        let core = Alg2Core::new(ValueDomain::new(8), Value(5));
        assert_eq!(core.wire(1, false), Some(Alg2Wire::Mark)); // bit 1 = 1
        assert_eq!(core.wire(2, false), None); // bit 2 = 0
        assert_eq!(core.wire(3, false), Some(Alg2Wire::Mark)); // bit 3 = 1
    }

    #[test]
    fn listener_hearing_mark_rejects_and_vetoes() {
        let mut core = Alg2Core::new(ValueDomain::new(8), Value(0)); // bits all 0
        assert!(core.decide_flag());
        // Propose round for bit 1: hears something while listening.
        core.observe(1, None, true, false);
        assert!(!core.decide_flag());
        // It now vetoes in accept.
        assert_eq!(core.wire(4, false), Some(Alg2Wire::Mark));
        // And hearing its own veto, it does not decide.
        assert_eq!(core.observe(4, None, true, false), None);
    }

    #[test]
    fn collision_notification_also_rejects() {
        let mut core = Alg2Core::new(ValueDomain::new(8), Value(0));
        core.observe(2, None, false, true);
        assert!(!core.decide_flag());
    }

    #[test]
    fn reset_clears_flag_pessimistically() {
        let mut core = Alg2Core::new(ValueDomain::new(8), Value(3));
        core.reset(Value(6));
        assert_eq!(core.estimate(), Value(6));
        assert!(!core.decide_flag());
    }
}
