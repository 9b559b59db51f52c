//! The non-anonymous protocol of Section 7.3: consensus in
//! `CST + Θ(min{lg |V|, lg |I|})` rounds with a `0-⋄AC` detector and a
//! wake-up service, under eventual collision freedom.
//!
//! The paper describes this protocol *informally* and explicitly provides
//! "no formal pseudo-code or rigorous correctness proof". The sketch:
//! if `|V| ≤ |I|`, run Algorithm 2 on values directly; otherwise run
//! Algorithm 2 on the (smaller) ID space to elect a leader, have the leader
//! broadcast its value, and use negative-acknowledgement vetoes plus
//! leader-failure detection to survive crashes.
//!
//! # Corrections
//!
//! The informal sketch has unsafe corners (e.g. a leader crashing after one
//! process received its value but before the rest can lead a later leader
//! to disseminate a different value). This implementation hardens it:
//!
//! * **Epoch-tagged dissemination.** Leader generations are numbered.
//!   A process vetoes while it lacks a value of its current epoch, and
//!   decides only in a *silent* veto round when it both holds a
//!   current-epoch value **and** heard a fresh leader heartbeat in the
//!   immediately preceding value round. The heartbeat requirement is what
//!   excludes split decisions across epochs: a value round is silent to
//!   everyone once its leader is gone (the Noise Lemma makes silence
//!   global), so stale-epoch holders can never decide after their leader
//!   died.
//! * **Value carry-over.** A newly elected leader disseminates the highest-
//!   epoch value it has ever heard (falling back to its own initial value).
//!   Since any *decision* required a globally silent veto round, at that
//!   moment every live process held the decided value — so every possible
//!   future leader carries it, and agreement is preserved across leader
//!   crashes.
//! * **Election freezing.** Once a process learns the epoch's winner it
//!   freezes its election state (stops adopting estimates, keeps
//!   broadcasting its frozen bit pattern). The frozen bit pattern jams any
//!   divergent late election — a second winner within an epoch is
//!   impossible while a frozen process lives, and if the leader dies the
//!   epoch advances and elections restart cleanly. This implements the
//!   paper's "processes do not broadcast in the prepare phase unless they
//!   detect the current leader to be failed" gating.
//! * **Sound failure detection.** The leader-death test is a truly silent
//!   value round (nothing received, no collision advice). Zero
//!   completeness makes that definitive: if the leader had broadcast,
//!   every process would have received something or a `±`.
//! * **Epoch synchronization rounds.** Every fourth round, the
//!   contention-manager-active process (plus an occasional random helper;
//!   the paper itself embraces probabilistic liveness for contention
//!   management) broadcasts its `{epoch, winner, value}` status, pulling
//!   stragglers forward. Safety never depends on these; only liveness in
//!   exotic mixed-epoch schedules does. Remaining liveness corner: if the
//!   wake-up service stabilizes on a process that missed an election whose
//!   leader then died, progress relies on a probabilistically-solo sync
//!   round (an adversary controlling all multi-broadcaster deliveries can
//!   delay it arbitrarily, but not forever with probability 1).
//!
//! The round structure is four interleaved slots — `elect`, `value`,
//! `veto`, `sync` — so the election advances every fourth round and the
//! asymptotic `CST + Θ(min{lg |V|, lg |I|})` bound is preserved (with a 4×
//! constant; experiment E4 measures the min{} crossover).

use crate::alg2::{Alg2Core, Alg2Wire};
use crate::consensus::ConsensusAutomaton;
use crate::uid::{IdSpace, Uid};
use crate::value::{Value, ValueDomain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use wan_sim::{Automaton, CdAdvice, CmAdvice, RoundInput};

/// Probability that a non-CM-active process volunteers a sync broadcast.
const SYNC_VOLUNTEER_P: f64 = 0.125;

/// Payload of an election-round broadcast.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ElectWire {
    /// A prepare-phase estimate (an ID, encoded as a domain value; or a
    /// plain value in direct mode).
    Estimate(Value),
    /// A propose-phase bit marker or accept-phase veto.
    Mark,
}

/// Messages of the Section 7.3 protocol.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Alg3Msg {
    /// Election traffic (slot 0), tagged with the sender's epoch.
    Elect {
        /// Sender's leader epoch.
        epoch: u32,
        /// Election payload.
        wire: ElectWire,
    },
    /// A leader heartbeat carrying the consensus value (slot 1).
    ValueMsg {
        /// The leader's epoch.
        epoch: u32,
        /// The disseminated value.
        value: Value,
    },
    /// A negative acknowledgement: "I lack a current-epoch value" (slot 2).
    Veto,
    /// An epoch synchronization broadcast (slot 3).
    Sync {
        /// Sender's epoch.
        epoch: u32,
        /// The winner the sender knows for that epoch, if any.
        elected: Option<Uid>,
        /// The sender's best value and its epoch.
        val: Option<(Value, u32)>,
    },
}

/// The four round slots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Slot {
    Elect,
    Value,
    Veto,
    Sync,
}

/// One process of the (corrected) Section 7.3 protocol. Non-anonymous: each
/// process knows its own [`Uid`], and nothing else about membership.
#[derive(Debug, Clone)]
pub struct NonAnonConsensus {
    domain: ValueDomain,
    my_id: Uid,
    initial: Value,
    /// `|V| ≤ |I|`: run the election machinery directly over values and
    /// decide its outcome.
    direct: bool,
    epoch: u32,
    core: Alg2Core,
    elected: Option<Uid>,
    /// Best value heard, with the epoch of the heartbeat that carried it.
    val: Option<(Value, u32)>,
    /// Whether the last value round delivered a current-epoch heartbeat.
    fresh_heartbeat: bool,
    /// Pre-drawn decision to volunteer a sync broadcast next sync round.
    volunteer_sync: bool,
    decided: Option<Value>,
    halted: bool,
    rounds_done: u64,
    elect_rounds_done: u64,
    rng: StdRng,
}

impl NonAnonConsensus {
    /// A process with identifier `my_id` and initial value `initial`.
    /// The `seed` drives only the probabilistic sync volunteering.
    ///
    /// # Panics
    ///
    /// Panics if `my_id` is outside `ids` or `initial` outside `domain`.
    pub fn new(ids: IdSpace, domain: ValueDomain, my_id: Uid, initial: Value, seed: u64) -> Self {
        assert!(ids.contains(my_id), "{my_id} outside {ids}");
        assert!(domain.contains(initial), "initial value outside domain");
        let direct = domain.size() <= ids.size();
        let core = if direct {
            Alg2Core::new(domain, initial)
        } else {
            Alg2Core::new(ids.as_domain(), Value(my_id.0))
        };
        NonAnonConsensus {
            domain,
            my_id,
            initial,
            direct,
            epoch: 1,
            core,
            elected: None,
            val: None,
            fresh_heartbeat: false,
            volunteer_sync: false,
            decided: None,
            halted: false,
            rounds_done: 0,
            elect_rounds_done: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether this process runs Algorithm 2 directly over values
    /// (`|V| ≤ |I|`).
    pub fn is_direct(&self) -> bool {
        self.direct
    }

    /// The current leader epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The winner this process knows for its current epoch.
    pub fn elected(&self) -> Option<Uid> {
        self.elected
    }

    /// This process's identifier.
    pub fn uid(&self) -> Uid {
        self.my_id
    }

    /// The value domain `V`.
    pub fn domain(&self) -> ValueDomain {
        self.domain
    }

    fn slot(&self) -> Slot {
        match self.rounds_done % 4 {
            0 => Slot::Elect,
            1 => Slot::Value,
            2 => Slot::Veto,
            _ => Slot::Sync,
        }
    }

    fn elect_pos(&self) -> u64 {
        self.elect_rounds_done % self.core.cycle_len()
    }

    fn own_election_start(&self) -> Value {
        if self.direct {
            self.initial
        } else {
            Value(self.my_id.0)
        }
    }

    fn has_current_val(&self) -> bool {
        self.val.is_some_and(|(_, e)| e == self.epoch)
    }

    /// The value a leader disseminates: its best-known value, else its own
    /// initial value (safe: if anyone ever decided, every live process —
    /// including every possible leader — already holds the decided value).
    fn dissemination_value(&self) -> Value {
        self.val.map(|(v, _)| v).unwrap_or(self.initial)
    }

    fn advance_epoch(&mut self, to: u32) {
        debug_assert!(to > self.epoch);
        self.epoch = to;
        self.elected = None;
        self.core.reset(self.own_election_start());
        self.core.set_contend(true);
        self.fresh_heartbeat = false;
    }

    fn set_winner(&mut self, winner: Uid) {
        self.elected = Some(winner);
        // Freeze the election: stop contending and stop adapting; the
        // frozen bit pattern jams divergent late elections.
        self.core.set_contend(false);
    }

    fn adopt_val(&mut self, value: Value, epoch: u32) {
        let newer = match self.val {
            None => true,
            Some((_, e)) => epoch >= e,
        };
        if newer {
            self.val = Some((value, epoch));
        }
    }
}

impl Automaton for NonAnonConsensus {
    type Msg = Alg3Msg;

    fn message(&self, cm: CmAdvice) -> Option<Alg3Msg> {
        if self.halted {
            return None;
        }
        match self.slot() {
            Slot::Elect => {
                // Frozen processes keep their wire: marks jam divergent
                // elections (contend=false already suppresses prepare).
                self.core
                    .wire(self.elect_pos(), cm.is_active())
                    .map(|w| Alg3Msg::Elect {
                        epoch: self.epoch,
                        wire: match w {
                            Alg2Wire::Estimate(v) => ElectWire::Estimate(v),
                            Alg2Wire::Mark => ElectWire::Mark,
                        },
                    })
            }
            Slot::Value => {
                (!self.direct && self.elected == Some(self.my_id)).then(|| Alg3Msg::ValueMsg {
                    epoch: self.epoch,
                    value: self.dissemination_value(),
                })
            }
            Slot::Veto => (!self.direct && !self.has_current_val()).then_some(Alg3Msg::Veto),
            Slot::Sync => {
                if self.direct {
                    return None;
                }
                (cm.is_active() || self.volunteer_sync).then_some(Alg3Msg::Sync {
                    epoch: self.epoch,
                    elected: self.elected,
                    val: self.val,
                })
            }
        }
    }

    fn transition(&mut self, input: RoundInput<'_, Alg3Msg>) {
        let slot = self.slot();
        self.rounds_done += 1;
        if slot == Slot::Elect {
            // The global election schedule advances whether or not this
            // process is frozen or halted, keeping all copies aligned.
            self.elect_rounds_done += 1;
        }
        if self.halted {
            return;
        }
        match slot {
            Slot::Elect => {
                // Fast-forward on higher-epoch election traffic.
                let max_epoch = input
                    .received
                    .support()
                    .filter_map(|m| match m {
                        Alg3Msg::Elect { epoch, .. } => Some(*epoch),
                        _ => None,
                    })
                    .max();
                if let Some(e) = max_epoch {
                    if e > self.epoch {
                        self.advance_epoch(e);
                    }
                }
                // Frozen (winner-known) processes skip observation; the
                // election is over for them until the epoch advances.
                if self.elected.is_some() {
                    return;
                }
                let least_estimate = input
                    .received
                    .support()
                    .filter_map(|m| match m {
                        Alg3Msg::Elect {
                            epoch,
                            wire: ElectWire::Estimate(v),
                        } if *epoch == self.epoch => Some(*v),
                        _ => None,
                    })
                    .min();
                // Note `elect_rounds_done` was already incremented; the
                // position this round ran at is the previous one.
                let pos = (self.elect_rounds_done - 1) % self.core.cycle_len();
                let outcome = self.core.observe(
                    pos,
                    least_estimate,
                    !input.received.is_empty(),
                    input.cd.is_collision(),
                );
                if let Some(winner) = outcome {
                    if self.direct {
                        self.decided = Some(winner);
                        self.halted = true;
                    } else {
                        self.set_winner(Uid(winner.0));
                    }
                }
            }
            Slot::Value => {
                if self.direct {
                    return;
                }
                self.fresh_heartbeat = false;
                // Adopt the best heartbeat; advance epoch if it is ahead.
                let best = input
                    .received
                    .support()
                    .filter_map(|m| match m {
                        Alg3Msg::ValueMsg { epoch, value } => Some((*epoch, *value)),
                        _ => None,
                    })
                    .max_by_key(|&(e, v)| (e, std::cmp::Reverse(v)));
                if let Some((e, v)) = best {
                    if e > self.epoch {
                        self.advance_epoch(e);
                    }
                    if e >= self.epoch {
                        self.adopt_val(v, e);
                        self.fresh_heartbeat = e == self.epoch;
                    }
                }
                // Sound leader-death detection: a truly silent value round
                // while a leader is known. Zero completeness makes silence
                // definitive; the leader itself hears its own heartbeat.
                if self.elected.is_some() && input.received.is_empty() && input.cd == CdAdvice::Null
                {
                    self.advance_epoch(self.epoch + 1);
                }
            }
            Slot::Veto => {
                if self.direct {
                    return;
                }
                // Decide on: current-epoch value + fresh heartbeat +
                // globally silent veto round. (A vetoing process hears its
                // own veto, so it never passes.)
                if self.has_current_val()
                    && self.fresh_heartbeat
                    && input.received.is_empty()
                    && input.cd == CdAdvice::Null
                {
                    self.decided = Some(self.val.expect("has_current_val").0);
                    self.halted = true;
                }
                // Pre-draw the sync volunteering coin for the next slot.
                self.volunteer_sync = self.rng.random_bool(SYNC_VOLUNTEER_P);
            }
            Slot::Sync => {
                if self.direct {
                    return;
                }
                let best = input
                    .received
                    .support()
                    .filter_map(|m| match m {
                        Alg3Msg::Sync {
                            epoch,
                            elected,
                            val,
                        } => Some((*epoch, *elected, *val)),
                        _ => None,
                    })
                    .max_by_key(|&(e, el, _)| (e, el.is_some()));
                if let Some((e, el, v)) = best {
                    if e > self.epoch {
                        self.advance_epoch(e);
                        if let Some(winner) = el {
                            self.set_winner(winner);
                            self.core.reset(Value(winner.0));
                            self.core.set_contend(false);
                        }
                    } else if e == self.epoch && self.elected.is_none() {
                        if let Some(winner) = el {
                            self.set_winner(winner);
                            self.core.reset(Value(winner.0));
                            self.core.set_contend(false);
                        }
                    }
                    if let Some((value, ve)) = v {
                        if ve >= self.val.map_or(0, |(_, e0)| e0) && ve <= self.epoch {
                            self.adopt_val(value, ve);
                        }
                    }
                }
            }
        }
    }

    fn is_contending(&self) -> bool {
        !self.halted
    }
}

impl ConsensusAutomaton for NonAnonConsensus {
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

/// Builds the process vector: `assignments[i] = (uid, initial value)` for
/// simulation index `i`. UIDs must be distinct.
///
/// # Panics
///
/// Panics if two processes share a UID.
pub fn processes(
    ids: IdSpace,
    domain: ValueDomain,
    assignments: &[(Uid, Value)],
    seed: u64,
) -> Vec<NonAnonConsensus> {
    let distinct: BTreeSet<Uid> = assignments.iter().map(|&(u, _)| u).collect();
    assert_eq!(
        distinct.len(),
        assignments.len(),
        "process identifiers must be unique"
    );
    assignments
        .iter()
        .enumerate()
        .map(|(i, &(uid, v))| NonAnonConsensus::new(ids, domain, uid, v, seed ^ (i as u64)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ConsensusRun;
    use wan_cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
    use wan_cm::FairWakeUp;
    use wan_sim::crash::{NoCrashes, ScheduledCrashes};
    use wan_sim::loss::{Ecf, RandomLoss};
    use wan_sim::{Components, CrashAdversary, ProcessId, Round};

    fn components(seed: u64, crash: Box<dyn CrashAdversary>) -> Components {
        Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, seed),
                CdClass::ZERO_EV_AC,
            )),
            manager: Box::new(FairWakeUp::immediate()),
            loss: Box::new(Ecf::new(RandomLoss::new(0.0, seed), Round(1))),
            crash,
        }
    }

    #[test]
    fn direct_mode_when_values_fit_in_ids() {
        let ids = IdSpace::new(256);
        let domain = ValueDomain::new(8);
        let procs = processes(
            ids,
            domain,
            &[(Uid(10), Value(5)), (Uid(77), Value(2)), (Uid(3), Value(7))],
            0,
        );
        assert!(procs.iter().all(|p| p.is_direct()));
        let mut run = ConsensusRun::new(procs, components(0, Box::new(NoCrashes)));
        let outcome = run.run_to_completion(Round(400));
        assert!(outcome.terminated);
        assert!(outcome.is_safe());
    }

    #[test]
    fn elect_mode_when_ids_smaller_than_values() {
        let ids = IdSpace::new(4);
        let domain = ValueDomain::new(1 << 20);
        let procs = processes(
            ids,
            domain,
            &[
                (Uid(2), Value(999_999)),
                (Uid(0), Value(123_456)),
                (Uid(3), Value(7)),
            ],
            1,
        );
        assert!(procs.iter().all(|p| !p.is_direct()));
        let mut run = ConsensusRun::new(procs, components(1, Box::new(NoCrashes)));
        let outcome = run.run_to_completion(Round(600));
        assert!(outcome.terminated, "undecided after 600 rounds");
        assert!(outcome.is_safe());
        // The decision is the elected leader's initial value.
        let decided = outcome.agreed_value().unwrap();
        assert!(outcome.initial_values.contains(&decided));
    }

    #[test]
    fn leader_crash_before_dissemination_is_survived() {
        let ids = IdSpace::new(4);
        let domain = ValueDomain::new(1 << 16);
        let procs = processes(
            ids,
            domain,
            &[
                (Uid(0), Value(11)),
                (Uid(1), Value(22)),
                (Uid(2), Value(33)),
            ],
            2,
        );
        // Uid(0) at index 0 wins the first election (min id with the fair
        // wake-up). Crash it immediately after election could complete but
        // likely before everyone decided: round 40 is mid-protocol.
        let crash = ScheduledCrashes::new().crash(ProcessId(0), Round(40));
        let mut run = ConsensusRun::new(procs, components(2, Box::new(crash)));
        let outcome = run.run_to_completion(Round(2000));
        assert!(outcome.terminated, "survivors undecided after 2000 rounds");
        assert!(outcome.is_safe());
    }

    #[test]
    fn leader_crash_storm_is_survived() {
        let ids = IdSpace::new(8);
        let domain = ValueDomain::new(1 << 16);
        let assignments: Vec<(Uid, Value)> = (0..6).map(|i| (Uid(i), Value(1000 + i))).collect();
        let procs = processes(ids, domain, &assignments, 3);
        // Crash the first three indices in waves.
        let crash = ScheduledCrashes::new()
            .crash(ProcessId(0), Round(30))
            .crash(ProcessId(1), Round(70))
            .crash(ProcessId(2), Round(110));
        let mut run = ConsensusRun::new(procs, components(3, Box::new(crash)));
        let outcome = run.run_to_completion(Round(4000));
        assert!(outcome.terminated, "survivors undecided after 4000 rounds");
        assert!(outcome.is_safe());
    }

    #[test]
    fn noisy_detector_and_lossy_prefix_stay_safe() {
        let ids = IdSpace::new(4);
        let domain = ValueDomain::new(1 << 10);
        for seed in 0..10u64 {
            let procs = processes(
                ids,
                domain,
                &[
                    (Uid(1), Value(500)),
                    (Uid(2), Value(600)),
                    (Uid(3), Value(700)),
                ],
                seed,
            );
            let comps = Components {
                detector: Box::new(CheckedDetector::new(
                    ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Random { p: 0.3 }, seed)
                        .accurate_from(Round(40)),
                    CdClass::ZERO_EV_AC,
                )),
                manager: Box::new(FairWakeUp::immediate()),
                loss: Box::new(Ecf::new(RandomLoss::new(0.5, seed), Round(40))),
                crash: Box::new(NoCrashes),
            };
            let mut run = ConsensusRun::new(procs, comps);
            let outcome = run.run_to_completion(Round(3000));
            assert!(
                outcome.is_safe(),
                "seed {seed}: {:?}",
                outcome.safety_violations()
            );
            assert!(outcome.terminated, "seed {seed} undecided");
        }
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_uids_rejected() {
        let ids = IdSpace::new(4);
        let domain = ValueDomain::new(4);
        let _ = processes(ids, domain, &[(Uid(1), Value(0)), (Uid(1), Value(1))], 0);
    }

    // ---- state-machine-level tests of the epoch machinery ----
    // These drive a single automaton with crafted RoundInputs, checking the
    // corrected protocol's rules directly.

    mod epoch_machine {
        use super::super::*;
        use wan_sim::{Multiset, Round};

        fn elect_proc() -> NonAnonConsensus {
            // |V| > |I| forces elect mode.
            NonAnonConsensus::new(
                IdSpace::new(8),
                ValueDomain::new(1 << 10),
                Uid(5),
                Value(700),
                0,
            )
        }

        fn feed(p: &mut NonAnonConsensus, round: u64, msgs: &[Alg3Msg], cd: CdAdvice) {
            let received: Multiset<Alg3Msg> = msgs.iter().copied().collect();
            p.transition(RoundInput {
                round: Round(round),
                received: received.view(),
                cd,
                cm: CmAdvice::Passive,
            });
        }

        #[test]
        fn fast_forward_on_higher_epoch_elect_traffic() {
            let mut p = elect_proc();
            assert_eq!(p.epoch(), 1);
            // Round 1 is an ELECT round; a higher-epoch estimate arrives.
            feed(
                &mut p,
                1,
                &[Alg3Msg::Elect {
                    epoch: 4,
                    wire: ElectWire::Estimate(Value(2)),
                }],
                CdAdvice::Null,
            );
            assert_eq!(p.epoch(), 4, "must fast-forward to the sender's epoch");
            assert_eq!(p.elected(), None, "fast-forward resets the election");
        }

        #[test]
        fn value_round_heartbeat_and_adoption() {
            let mut p = elect_proc();
            feed(&mut p, 1, &[], CdAdvice::Null); // ELECT: silence
                                                  // VALUE round: a current-epoch heartbeat.
            feed(
                &mut p,
                2,
                &[Alg3Msg::ValueMsg {
                    epoch: 1,
                    value: Value(123),
                }],
                CdAdvice::Null,
            );
            // VETO round with global silence: decide.
            feed(&mut p, 3, &[], CdAdvice::Null);
            assert_eq!(p.decision(), Some(Value(123)));
            assert!(p.halted());
        }

        #[test]
        fn stale_heartbeat_neither_adopts_nor_decides() {
            let mut p = elect_proc();
            // Jump the process to epoch 3 first.
            feed(
                &mut p,
                1,
                &[Alg3Msg::Elect {
                    epoch: 3,
                    wire: ElectWire::Mark,
                }],
                CdAdvice::Null,
            );
            assert_eq!(p.epoch(), 3);
            // A stale epoch-1 value arrives in the VALUE round.
            feed(
                &mut p,
                2,
                &[Alg3Msg::ValueMsg {
                    epoch: 1,
                    value: Value(123),
                }],
                CdAdvice::Null,
            );
            // Silent veto round: must NOT decide (no current-epoch value).
            feed(&mut p, 3, &[], CdAdvice::Null);
            assert_eq!(p.decision(), None);
            // And it must be vetoing.
            assert_eq!(p.message(CmAdvice::Passive), None); // round 4 = SYNC, passive
        }

        #[test]
        fn silent_value_round_without_leader_is_not_death() {
            let mut p = elect_proc();
            assert_eq!(p.elected(), None);
            feed(&mut p, 1, &[], CdAdvice::Null); // ELECT
            feed(&mut p, 2, &[], CdAdvice::Null); // VALUE: silence, no leader known
            assert_eq!(p.epoch(), 1, "no leader known, no death to detect");
        }

        #[test]
        fn collision_advice_blocks_death_detection() {
            let mut p = elect_proc();
            // Adopt a leader via sync.
            feed(&mut p, 1, &[], CdAdvice::Null); // ELECT
            feed(&mut p, 2, &[], CdAdvice::Null); // VALUE (silent, но elected=None)
            feed(&mut p, 3, &[], CdAdvice::Null); // VETO
            feed(
                &mut p,
                4,
                &[Alg3Msg::Sync {
                    epoch: 1,
                    elected: Some(Uid(2)),
                    val: None,
                }],
                CdAdvice::Null,
            ); // SYNC: learn the winner
            assert_eq!(p.elected(), Some(Uid(2)));
            feed(&mut p, 5, &[], CdAdvice::Null); // ELECT
                                                  // VALUE round: nothing received but a collision notification —
                                                  // the leader may have broadcast and been lost. NOT death.
            feed(&mut p, 6, &[], CdAdvice::Collision);
            assert_eq!(p.epoch(), 1, "± is not evidence of death");
            // VALUE round with true silence: death.
            feed(&mut p, 7, &[], CdAdvice::Null); // VETO (no-op here)
            feed(&mut p, 8, &[], CdAdvice::Null); // SYNC
            feed(&mut p, 9, &[], CdAdvice::Null); // ELECT
            feed(&mut p, 10, &[], CdAdvice::Null); // VALUE: silence => death
            assert_eq!(p.epoch(), 2, "definitive silence advances the epoch");
            assert_eq!(p.elected(), None);
        }

        #[test]
        fn sync_adoption_of_winner_and_value() {
            let mut p = elect_proc();
            feed(&mut p, 1, &[], CdAdvice::Null);
            feed(&mut p, 2, &[], CdAdvice::Null);
            feed(&mut p, 3, &[], CdAdvice::Null);
            feed(
                &mut p,
                4,
                &[Alg3Msg::Sync {
                    epoch: 2,
                    elected: Some(Uid(7)),
                    val: Some((Value(55), 2)),
                }],
                CdAdvice::Null,
            );
            assert_eq!(p.epoch(), 2);
            assert_eq!(p.elected(), Some(Uid(7)));
            // Next VALUE round heartbeat at epoch 2, then silent veto:
            feed(&mut p, 5, &[], CdAdvice::Null); // ELECT
            feed(
                &mut p,
                6,
                &[Alg3Msg::ValueMsg {
                    epoch: 2,
                    value: Value(55),
                }],
                CdAdvice::Null,
            );
            feed(&mut p, 7, &[], CdAdvice::Null); // VETO: silent => decide
            assert_eq!(p.decision(), Some(Value(55)));
        }

        #[test]
        fn leader_self_election_broadcasts_its_value() {
            // A lone process (n = 1 view): elects itself and disseminates.
            let ids = IdSpace::new(4);
            let domain = ValueDomain::new(1 << 8);
            let mut p = NonAnonConsensus::new(ids, domain, Uid(2), Value(99), 1);
            // Drive ELECT rounds with its own (solo) traffic echoed back:
            // prepare (pos 0): CM-active => broadcasts estimate.
            let m = p.message(CmAdvice::Active).expect("prepare broadcast");
            assert!(matches!(
                m,
                Alg3Msg::Elect {
                    epoch: 1,
                    wire: ElectWire::Estimate(Value(2))
                }
            ));
            // Feed its own message back (constraint 5) through the whole
            // election cycle: bits of id 2 (10 over 2 bits), accept.
            let cycle = u64::from(ids.bits()) + 2;
            let mut round = 1u64;
            for pos in 0..cycle {
                let msg = p.message(CmAdvice::Active);
                let msgs: Vec<Alg3Msg> = msg.into_iter().collect();
                feed(&mut p, round, &msgs, CdAdvice::Null);
                round += 1; // VALUE
                let vmsgs: Vec<Alg3Msg> = p.message(CmAdvice::Passive).into_iter().collect();
                feed(&mut p, round, &vmsgs, CdAdvice::Null);
                round += 1; // VETO
                let vetos: Vec<Alg3Msg> = p.message(CmAdvice::Passive).into_iter().collect();
                feed(&mut p, round, &vetos, CdAdvice::Null);
                round += 1; // SYNC
                feed(&mut p, round, &[], CdAdvice::Null);
                round += 1;
                let _ = pos;
                if p.halted() {
                    break;
                }
            }
            assert_eq!(p.elected(), Some(Uid(2)).or(p.elected()), "sanity");
            assert_eq!(
                p.decision(),
                Some(Value(99)),
                "lone leader decides its own value"
            );
        }
    }
}
