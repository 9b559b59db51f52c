//! The wake-up-service subtlety documented in DESIGN.md ("Known
//! subtleties" #1), reproduced and then resolved:
//!
//! The formal wake-up service of Property 2 is *oblivious* — nothing stops
//! it from stabilizing onto a process that has already decided-and-halted.
//! Algorithms 1 and 2 halt on decision, so such a stabilization starves
//! every undecided process: the sole "active" process never broadcasts
//! again and nobody else is allowed to. The paper's termination proofs
//! (Lemmas 8 and 13) implicitly assume the stabilized-upon process
//! broadcasts; a fair wake-up service (stabilize on a *contending*
//! process — what any real backoff MAC does) restores the theorem.

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy, ScriptedDetector};
use ccwan::cm::{FairWakeUp, PreStabilization, WakeUpService};
use ccwan::consensus::{alg1, ConsensusAutomaton, ConsensusRun, Value, ValueDomain};
use ccwan::sim::crash::NoCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss, ScriptedLoss};
use ccwan::sim::{CdAdvice, Components, ProcessId, Round};

/// An environment where process 0 decides early (a clean first exchange
/// reaches only rounds it participates in), after which the *oblivious*
/// wake-up service stabilizes on process 0 — which has halted.
fn stalled_run() -> ConsensusRun<alg1::MajEcfConsensus> {
    let domain = ValueDomain::new(4);
    let procs = alg1::processes(domain, &[Value(1), Value(2), Value(2)]);
    // Round 1 (proposal): only p0 active; message delivered to everyone.
    // Round 2 (veto): silence everywhere — but scripted false positives at
    // p1 and p2 keep them from deciding, while p0 decides and halts.
    // From round 3 on, the oblivious service keeps designating p0.
    let cd_script = vec![
        vec![CdAdvice::Null; 3],
        vec![CdAdvice::Null, CdAdvice::Collision, CdAdvice::Collision],
    ];
    let components = Components {
        detector: Box::new(CheckedDetector::new(
            ScriptedDetector::new(
                cd_script,
                Box::new(
                    ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 0)
                        .accurate_from(Round(3)),
                ),
            )
            .declaring_accuracy_from(Some(Round(3))),
            CdClass::MAJ_EV_AC,
        )),
        manager: Box::new(WakeUpService::new(
            Round(1),
            ProcessId(0),
            PreStabilization::AllPassive,
            0,
        )),
        loss: Box::new(Ecf::new(RandomLoss::new(0.0, 0), Round(1))),
        crash: Box::new(NoCrashes),
    };
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
    let cd_script = vec![
        vec![CdAdvice::Null; 3],
        vec![CdAdvice::Null, CdAdvice::Collision, CdAdvice::Collision],
    ];
    let components = Components {
        detector: Box::new(
            ScriptedDetector::new(
                cd_script,
                Box::new(
                    ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Quiet, 0)
                        .accurate_from(Round(3)),
                ),
            )
            .declaring_accuracy_from(Some(Round(3))),
        ),
        manager: Box::new(FairWakeUp::new(Round(1), PreStabilization::AllPassive, 0)),
        loss: Box::new(Ecf::new(RandomLoss::new(0.0, 0), Round(1))),
        crash: Box::new(NoCrashes),
    };
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
    fn proposal_only_self(s: ProcessId, r: ProcessId) -> bool {
        s == r
    }
    fn all(_s: ProcessId, _r: ProcessId) -> bool {
        true
    }
    let domain = ValueDomain::new(4);
    let loss = ScriptedLoss::new(vec![proposal_only_self, all]);
    let components = Components {
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
        loss: Box::new(loss),
        crash: Box::new(NoCrashes),
    };
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
