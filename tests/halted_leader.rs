//! A wake-up-service subtlety the paper's termination proofs pass over,
//! reproduced and then resolved:
//!
//! The formal wake-up service of Property 2 is *oblivious* — nothing stops
//! it from stabilizing onto a process that has already decided-and-halted.
//! Algorithms 1 and 2 halt on decision, so such a stabilization starves
//! every undecided process: the sole "active" process never broadcasts
//! again and nobody else is allowed to. The paper's termination proofs
//! (Lemmas 8 and 13) implicitly assume the stabilized-upon process
//! broadcasts; a fair wake-up service (stabilize on a *contending*
//! process — what any real backoff MAC does) restores the theorem.

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use ccwan::cm::{FairWakeUp, PreStabilization, WakeUpService};
use ccwan::consensus::{alg1, ConsensusAutomaton, ConsensusRun, Value, ValueDomain};
use ccwan::sim::crash::NoCrashes;
use ccwan::sim::loss::{Ecf, NoLoss, RandomLoss};
use ccwan::sim::{
    CdAdvice, Components, ContentionManager, DeliveryMatrix, ProcessId, Round, Script,
};

/// The shared prefix of the stall: round 1 (proposal) clean everywhere;
/// round 2 (veto) silent, but with false positives at p1 and p2. Replayed
/// over a maj-⋄AC detector accurate from round 3, the bundle declares
/// `r_acc = 3` and its detector is certified live against maj-⋄AC.
fn false_positive_prefix(manager: Box<dyn ContentionManager>) -> Components {
    let components = Script {
        cd: vec![
            vec![CdAdvice::Null; 3],
            vec![CdAdvice::Null, CdAdvice::Collision, CdAdvice::Collision],
        ],
        ..Script::default()
    }
    .over(Components {
        detector: Box::new(
            ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 0).accurate_from(Round(3)),
        ),
        manager,
        loss: Box::new(Ecf::new(RandomLoss::new(0.0, 0), Round(1))),
        crash: Box::new(NoCrashes),
    });
    assert_eq!(components.detector.accuracy_from(), Some(Round(3)));
    Components {
        detector: Box::new(CheckedDetector::new(
            components.detector,
            CdClass::MAJ_EV_AC,
        )),
        ..components
    }
}

/// An environment where process 0 decides early (a clean first exchange
/// reaches only rounds it participates in), after which the *oblivious*
/// wake-up service stabilizes on process 0 — which has halted.
fn stalled_run() -> ConsensusRun<alg1::MajEcfConsensus> {
    let domain = ValueDomain::new(4);
    let procs = alg1::processes(domain, &[Value(1), Value(2), Value(2)]);
    // Round 1 (proposal): only p0 active; message delivered to everyone.
    // Round 2 (veto): the false positives at p1 and p2 keep them from
    // deciding, while p0 decides and halts. From round 3 on, the oblivious
    // service keeps designating p0.
    let components = false_positive_prefix(Box::new(WakeUpService::new(
        Round(1),
        ProcessId(0),
        PreStabilization::AllPassive,
        0,
    )));
    ConsensusRun::new(procs, components)
}

#[test]
fn oblivious_wakeup_on_a_halted_process_stalls_algorithm_1() {
    let mut run = stalled_run();
    let outcome = run.run_to_completion(Round(500));
    // p0 decided and halted...
    assert_eq!(run.sim().processes()[0].decision(), Some(Value(1)));
    assert!(run.sim().processes()[0].halted());
    // ...and the others are starved forever: liveness lost, safety intact.
    assert!(!outcome.terminated, "expected the documented stall");
    assert!(outcome.is_safe());
    assert_eq!(outcome.decisions[1], None);
    assert_eq!(outcome.decisions[2], None);
}

#[test]
fn fair_wakeup_restores_the_theorem() {
    // Same scripted prefix, but the service stabilizes on the lowest
    // *contending* process: once p0 halts, p1 gets the channel.
    let domain = ValueDomain::new(4);
    let procs = alg1::processes(domain, &[Value(1), Value(2), Value(2)]);
    let components = false_positive_prefix(Box::new(FairWakeUp::new(
        Round(1),
        PreStabilization::AllPassive,
        0,
    )));
    let mut run = ConsensusRun::new(procs, components);
    let outcome = run.run_to_completion(Round(50));
    assert!(outcome.terminated, "fair wake-up must unblock the laggards");
    assert!(outcome.is_safe());
    assert_eq!(outcome.agreed_value(), Some(Value(1)));
}

/// The flip side, pinning down *why* the stall needs false positives:
/// message loss alone cannot produce it. If the laggards merely *lose* the
/// exchange, majority completeness forces `±` at them, they veto, the
/// decider hears the veto (or its own mandatory `±`), and nobody halts
/// early — the run converges once loss stops. The asymmetric-halt window
/// is exactly the eventual-accuracy slack, which is why the paper's
/// accurate-from-round-1 classes never exhibit it.
#[test]
fn loss_alone_cannot_create_the_asymmetric_halt() {
    let domain = ValueDomain::new(4);
    // The proposal reaches only its sender (the engine always hands a
    // broadcaster its own message); the veto round delivers everything.
    let everyone = [ProcessId(0), ProcessId(1), ProcessId(2)];
    let components = Script {
        deliveries: vec![
            DeliveryMatrix::none(&everyone, 3),
            DeliveryMatrix::full(&everyone, 3),
        ],
        ..Script::default()
    }
    .over(Components {
        detector: Box::new(ClassDetector::new(
            CdClass::MAJ_AC, // accurate from round 1: no false positives
            FreedomPolicy::Quiet,
            0,
        )),
        manager: Box::new(WakeUpService::new(
            Round(1),
            ProcessId(0),
            PreStabilization::AllPassive,
            0,
        )),
        loss: Box::new(NoLoss),
        crash: Box::new(NoCrashes),
    });
    let mut run = ConsensusRun::new(
        alg1::processes(domain, &[Value(1), Value(2), Value(2)]),
        components,
    );
    let outcome = run.run_to_completion(Round(300));
    // Everyone converges (the designated process keeps broadcasting until
    // all decide together): no stall without false positives.
    assert!(outcome.terminated);
    assert!(outcome.is_safe());
    assert_eq!(outcome.agreed_value(), Some(Value(1)));
}
