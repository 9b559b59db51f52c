//! Adapters plugging the radio into the formal model: a
//! [`wan_sim::LossAdversary`] and a [`wan_sim::CollisionDetector`] that
//! share one per-round channel resolution.
//!
//! The engine calls the loss adversary first and the detector afterwards in
//! the same round, so the pair communicates through a shared cell holding
//! the latest [`PhyRound`].

use crate::channel::{PhyRound, RadioChannel};
use crate::config::PhyConfig;
use std::cell::RefCell;
use std::rc::Rc;
use wan_sim::{
    CdAdvice, CollisionDetector, DeliveryMatrix, LossAdversary, ProcessId, Round, TransmissionEntry,
};

/// Shared per-round channel state. `outcome` is a reusable buffer the
/// radio resolves into each round ([`RadioChannel::resolve_into`]), so
/// steady-state rounds stay allocation-free.
#[derive(Debug)]
struct Shared {
    channel: RadioChannel,
    resolved: Option<Round>,
    outcome: PhyRound,
}

/// The radio as a message-loss adversary: deliveries are the SINR decodes.
#[derive(Debug, Clone)]
pub struct PhyLoss {
    shared: Rc<RefCell<Shared>>,
}

/// The radio's carrier-sensing collision detector: `±` iff some foreign
/// slot was energy-busy but yielded no decode.
///
/// Its *declared* accuracy horizon is the interference horizon: once
/// external bursts cease, every busy-but-undecoded slot really does carry a
/// lost packet, so the detector is accurate. Its completeness is emergent
/// and *measured* (experiment E11), not declared — exactly the situation
/// the paper's class system is built to describe.
#[derive(Debug, Clone)]
pub struct PhyDetector {
    shared: Rc<RefCell<Shared>>,
}

/// Builds the adapter pair over one radio.
pub fn phy_components(cfg: PhyConfig) -> (PhyLoss, PhyDetector) {
    let shared = Rc::new(RefCell::new(Shared {
        channel: RadioChannel::new(cfg),
        resolved: None,
        outcome: PhyRound::new(),
    }));
    (
        PhyLoss {
            shared: Rc::clone(&shared),
        },
        PhyDetector { shared },
    )
}

impl LossAdversary for PhyLoss {
    fn deliver_into(
        &mut self,
        round: Round,
        senders: &[ProcessId],
        n: usize,
        out: &mut DeliveryMatrix,
    ) {
        let shared = &mut *self.shared.borrow_mut();
        let radio = shared.channel.config().n;
        assert_eq!(
            radio, n,
            "radio sized for {radio} nodes driven with n = {n}"
        );
        shared
            .channel
            .resolve_into(round, senders, &mut shared.outcome);
        // One branchless OR per (sender, receiver) pair, with the sender's
        // word and bit hoisted out of the receiver loop.
        out.clear_and_resize(senders, n);
        let outcome = &shared.outcome;
        for (si, &s) in senders.iter().enumerate() {
            out.deliver_from_where(s, |r| outcome.delivered(si, r.index()));
        }
        shared.resolved = Some(round);
    }

    fn collision_free_from(&self) -> Option<Round> {
        // The radio gives solo broadcasts a large margin but no absolute
        // guarantee (deep fades exist) — ECF holds only statistically, so
        // nothing is declared. Harnesses that need a declared r_cf wrap
        // this adversary in `wan_sim::loss::Ecf`.
        None
    }
}

impl CollisionDetector for PhyDetector {
    fn advise_into(&mut self, round: Round, tx: &TransmissionEntry, out: &mut [CdAdvice]) {
        let shared = self.shared.borrow();
        let last_round = shared
            .resolved
            .expect("PhyLoss must resolve the round before PhyDetector advises");
        assert_eq!(
            last_round, round,
            "detector consulted for a round the radio did not resolve"
        );
        assert_eq!(shared.outcome.collisions().len(), tx.received.len());
        for (slot, &c) in out.iter_mut().zip(shared.outcome.collisions().iter()) {
            *slot = if c {
                CdAdvice::Collision
            } else {
                CdAdvice::Null
            };
        }
    }

    fn accuracy_from(&self) -> Option<Round> {
        let shared = self.shared.borrow();
        let cfg = shared.channel.config();
        if cfg.interference_prob > 0.0 {
            cfg.interference_until
        } else {
            Some(Round::FIRST)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wan_sim::crash::NoCrashes;
    use wan_sim::{AllActive, Automaton, CmAdvice, Components, Engine, RoundInput};

    /// Broadcasts its id in round 1 only; counts decodes and collisions.
    struct OneShot {
        id: usize,
        sent: bool,
        heard: usize,
        flagged: bool,
    }

    impl Automaton for OneShot {
        type Msg = usize;
        fn message(&self, cm: CmAdvice) -> Option<usize> {
            (!self.sent && cm.is_active()).then_some(self.id)
        }
        fn transition(&mut self, input: RoundInput<'_, usize>) {
            self.sent = true;
            self.heard += input.received.total();
            self.flagged |= input.cd.is_collision();
        }
    }

    #[test]
    fn radio_plugs_into_engine() {
        let n = 6;
        let (loss, detector) = phy_components(PhyConfig::new(n, 2));
        let procs = (0..n)
            .map(|id| OneShot {
                id,
                sent: false,
                heard: 0,
                flagged: false,
            })
            .collect();
        let mut sim = Engine::new(
            procs,
            Components {
                detector: Box::new(detector),
                manager: Box::new(AllActive),
                loss: Box::new(loss),
                crash: Box::new(NoCrashes),
            },
        );
        for _ in 0..3 {
            sim.advance(&mut ());
        }
        // Round 1 had n simultaneous broadcasters: physics decides, but by
        // the Noise Lemma proxy everyone heard something or flagged.
        for p in sim.processes() {
            assert!(p.heard >= 1, "own message at least (constraint 5)");
        }
    }

    #[test]
    fn loss_hands_off_exactly_the_resolved_decodes() {
        // The adapter must copy the radio's decodes into the delivery
        // matrix bit for bit: every (sender, receiver) pair the radio
        // decoded, nothing else, and no bit of a non-sender anywhere.
        for n in [5, 16, 64] {
            for interference in [false, true] {
                let mut cfg = PhyConfig::new(n, 3 + n as u64);
                if interference {
                    cfg = cfg.with_interference(0.5, Some(Round(150)));
                }
                let (mut loss, _) = phy_components(cfg);
                let reference = RadioChannel::new(cfg);
                let mut resolved = PhyRound::new();
                let mut state = 0x5EED_u64 ^ n as u64;
                for r in 1..=200u64 {
                    state = crate::hash::splitmix64(state);
                    let density = state % 4;
                    let senders: Vec<ProcessId> = (0..n)
                        .filter(|&i| crate::hash::hash_tuple(&[state, i as u64]) % 4 <= density)
                        .map(ProcessId)
                        .collect();
                    let m = loss.deliver(Round(r), &senders, n);
                    reference.resolve_into(Round(r), &senders, &mut resolved);
                    assert_eq!(m.senders().collect::<Vec<_>>(), senders);
                    for rx in 0..n {
                        let mut expected = vec![0u64; n.div_ceil(64)];
                        for (si, s) in senders.iter().enumerate() {
                            if resolved.delivered(si, rx) {
                                expected[s.index() / 64] |= 1 << (s.index() % 64);
                            }
                        }
                        assert_eq!(
                            m.row_words(ProcessId(rx)),
                            &expected[..],
                            "n={n} interference={interference} round {r} receiver {rx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn accuracy_declaration_tracks_interference() {
        let (_, quiet) = phy_components(PhyConfig::new(4, 1));
        assert_eq!(quiet.accuracy_from(), Some(Round::FIRST));
        let (_, noisy) =
            phy_components(PhyConfig::new(4, 1).with_interference(0.2, Some(Round(40))));
        assert_eq!(noisy.accuracy_from(), Some(Round(40)));
        let (_, forever) = phy_components(PhyConfig::new(4, 1).with_interference(0.2, None));
        assert_eq!(forever.accuracy_from(), None);
    }

    #[test]
    #[should_panic(expected = "radio sized for 8 nodes driven with n = 16")]
    fn a_radio_driven_at_another_size_names_both_sizes() {
        let (mut loss, _) = phy_components(PhyConfig::new(8, 1));
        let mut out = DeliveryMatrix::empty();
        loss.deliver_into(Round(1), &[ProcessId(0)], 16, &mut out);
    }

    #[test]
    #[should_panic(expected = "resolve the round")]
    fn detector_requires_loss_first() {
        let (_, mut detector) = phy_components(PhyConfig::new(2, 1));
        let tx = TransmissionEntry {
            sent_count: 0,
            received: vec![0, 0],
        };
        let _ = detector.advise(Round(1), &tx);
    }
}
