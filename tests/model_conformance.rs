//! Conformance of recorded executions to Definition 11's constraints and
//! the derived lemmas — checked on real runs of real algorithms, not on
//! synthetic traces.

use ccwan::cd::{CdClass, ClassDetector, FreedomPolicy};
use ccwan::cm::{verify_leader_election, verify_wakeup, FairWakeUp, PreStabilization};
use ccwan::consensus::{alg1, alg2, ConsensusRun, Value, ValueDomain};
use ccwan::sim::crash::RandomCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, Multiset, ProcessId, Round};

fn run_alg2(
    seed: u64,
    cst: u64,
    rounds: u64,
) -> ConsensusRun<ccwan::consensus::alg2::ZeroEcfConsensus> {
    let domain = ValueDomain::new(32);
    let values: Vec<Value> = (0..5).map(|i| Value((seed + i) % 32)).collect();
    let mut run = ConsensusRun::new(
        alg2::processes(domain, &values),
        Components {
            detector: Box::new(
                ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Random { p: 0.3 }, seed)
                    .accurate_from(Round(cst)),
            ),
            manager: Box::new(FairWakeUp::new(
                Round(cst),
                PreStabilization::Random { p: 0.5 },
                seed,
            )),
            loss: Box::new(Ecf::new(RandomLoss::new(0.5, seed), Round(cst))),
            crash: Box::new(RandomCrashes::new(0.01, 2, seed)),
        },
    );
    run.run_rounds(rounds);
    run
}

/// Constraint 4 (integrity / no duplication): every receive multiset is a
/// sub-multiset of the round's broadcast multiset.
#[test]
fn receive_sets_are_submultisets_of_broadcasts() {
    for seed in 0..8u64 {
        let run = run_alg2(seed, 8, 40);
        for rec in run.trace().rounds() {
            let broadcast: Multiset<_> = rec.sent_messages().cloned().collect();
            for i in 0..rec.n() {
                let received = rec.received_of(ProcessId(i)).expect("full trace detail");
                assert!(
                    received.is_submultiset_of(&broadcast),
                    "seed {seed} {} p{i}: {received:?} ⊄ {broadcast:?}",
                    rec.round()
                );
            }
        }
    }
}

/// Constraint 5: broadcasters always receive their own message.
#[test]
fn broadcasters_receive_their_own_message() {
    for seed in 0..8u64 {
        let run = run_alg2(seed, 8, 40);
        for rec in run.trace().rounds() {
            for &s in rec.senders() {
                let msg = rec.sent(s).expect("sender has a message");
                let received = rec.received_of(s).expect("full trace detail");
                assert!(
                    received.count(msg) >= 1,
                    "seed {seed} {}: {s} missing its own {msg:?}",
                    rec.round()
                );
            }
        }
    }
}

/// Lemma 2 (Noise Lemma) on live traces: with a zero-complete detector, if
/// anyone broadcast, every process received something or saw `±`.
#[test]
fn noise_lemma_holds_on_traces() {
    for seed in 0..8u64 {
        let run = run_alg2(seed, 8, 40);
        for rec in run.trace().rounds() {
            let c = rec.senders().len();
            if c == 0 {
                continue;
            }
            for (i, (&t, advice)) in rec
                .received_counts()
                .iter()
                .zip(rec.cd().iter())
                .enumerate()
            {
                assert!(
                    t > 0 || advice.is_collision(),
                    "seed {seed} {} p{i}: c={c}, T=0, advice=null",
                    rec.round()
                );
            }
        }
    }
}

/// Property 1 on live traces: from `r_cf` on, a solo broadcast reaches
/// every process.
#[test]
fn ecf_holds_on_traces() {
    for seed in 0..8u64 {
        let cst = 8;
        let run = run_alg2(seed, cst, 60);
        for rec in run.trace().rounds() {
            if rec.round() < Round(cst) {
                continue;
            }
            let senders = rec.senders();
            if senders.len() == 1 {
                for (i, &t) in rec.received_counts().iter().enumerate() {
                    assert!(
                        t >= 1,
                        "seed {seed} {}: solo broadcast lost at p{i}",
                        rec.round()
                    );
                }
            }
        }
    }
}

/// Property 2 on live traces: the fair wake-up service really does
/// stabilize to a single active process (and, not rotating here, even to a
/// leader while no decision-halts intervene).
#[test]
fn wakeup_property_holds_on_traces() {
    for seed in 0..8u64 {
        let cst = 8;
        let domain = ValueDomain::new(8);
        // No halting interference: run only until just before decisions.
        let values: Vec<Value> = (0..4).map(|i| Value((seed + i) % 8)).collect();
        let mut run = ConsensusRun::new(
            alg1::processes(domain, &values),
            Components {
                detector: Box::new(ClassDetector::new(
                    CdClass::MAJ_EV_AC,
                    FreedomPolicy::Noisy,
                    seed,
                )),
                manager: Box::new(FairWakeUp::new(
                    Round(cst),
                    PreStabilization::AllActive,
                    seed,
                )),
                // Never accurate, never collision-free: nobody ever halts,
                // so the CM target never changes.
                loss: Box::new(RandomLoss::new(0.9, seed)),
                crash: Box::new(ccwan::sim::crash::NoCrashes),
            },
        );
        run.run_rounds(40);
        assert_eq!(verify_wakeup(run.trace(), Round(cst)), Ok(()));
        assert!(verify_leader_election(run.trace(), Round(cst)).is_ok());
    }
}

/// Determinism: identical configurations yield identical traces.
#[test]
fn executions_replay_exactly() {
    let a = run_alg2(5, 8, 50);
    let b = run_alg2(5, 8, 50);
    assert_eq!(a.trace().len(), b.trace().len());
    for (ra, rb) in a.trace().rounds().zip(b.trace().rounds()) {
        assert_eq!(ra.senders(), rb.senders());
        assert!(ra.sent_messages().eq(rb.sent_messages()));
        assert_eq!(ra.cd(), rb.cd());
        assert_eq!(ra.cm(), rb.cm());
        assert_eq!(ra.received_counts(), rb.received_counts());
    }
}
