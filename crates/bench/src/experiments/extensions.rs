//! E15–E16: extensions beyond the paper's main results — the Section 9
//! open question about occasionally well-behaved detectors, and the
//! Section 4.1 k-wake-up/counting separation.

use crate::{Scale, Table};
use ccwan_core::counting;
use ccwan_core::{alg1, alg2, ConsensusRun, Value, ValueDomain};
use wan_cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy, OccasionalDetector};
use wan_cm::{KWakeUp, LeaderElectionService, PreStabilization, WakeUpService};
use wan_sim::crash::NoCrashes;
use wan_sim::loss::{Ecf, NoLoss, RandomLoss};
use wan_sim::{Components, Engine, ProcessId, Round};

/// E15 (Section 9 open question): what does "always zero complete,
/// occasionally majority complete" buy?
///
/// Data points per strong-round probability: (a) Algorithm 1 — which
/// *requires* majority completeness — run against the occasional detector:
/// fraction of seeds ending in a safety violation; (b) Algorithm 2 —
/// honest about the weak class — always safe, and its round count is
/// unchanged by the strong rounds. Conclusion shape: high-probability
/// completeness cannot carry safety; a fast-path design must take safety
/// from the weak guarantee and only speed from the strong rounds.
pub fn e15_occasional_detectors(scale: Scale) -> Table {
    let mut t = Table::new(
        "E15 (Section 9 open question): occasionally majority-complete detectors",
        &[
            "P(strong round)",
            "Alg 1 (needs maj): unsafe seeds",
            "Alg 2 (honest 0-AC): unsafe seeds",
            "Alg 2 worst decision round",
        ],
    );
    let domain = ValueDomain::new(16);
    let n = 4;
    let seeds = scale.seeds().max(10);
    for strong_prob in [0.5, 0.9, 0.99] {
        let mut alg1_unsafe = 0u64;
        let mut alg2_unsafe = 0u64;
        let mut alg2_worst = 0u64;
        for seed in 0..seeds {
            let values: Vec<Value> = (0..n).map(|i| Value((seed + i) % 16)).collect();
            let components = |det_seed: u64| Components {
                detector: Box::new(OccasionalDetector::new(
                    wan_cd::Completeness::Zero,
                    wan_cd::Completeness::Majority,
                    strong_prob,
                    det_seed,
                )),
                // A long all-active prefix keeps the channel contended: the
                // regime where completeness is load-bearing.
                manager: Box::new(WakeUpService::new(
                    Round(30),
                    ProcessId(0),
                    PreStabilization::AllActive,
                    det_seed,
                )),
                loss: Box::new(Ecf::new(RandomLoss::new(0.5, det_seed), Round(30))),
                crash: Box::new(NoCrashes),
            };
            let out1 = ConsensusRun::new(alg1::processes(domain, &values), components(seed))
                .run_rounds(120);
            alg1_unsafe += u64::from(!out1.is_safe());
            let mut run2 = ConsensusRun::new(alg2::processes(domain, &values), components(seed));
            let out2 = run2.run_to_completion(Round(400));
            alg2_unsafe += u64::from(!out2.is_safe());
            if let Some(d) = out2.last_decision() {
                alg2_worst = alg2_worst.max(d.0);
            }
        }
        t.row(vec![
            format!("{strong_prob:.2}"),
            format!("{alg1_unsafe}/{seeds}"),
            format!("{alg2_unsafe}/{seeds}"),
            alg2_worst.to_string(),
        ]);
    }
    t.note(
        "Probabilistic completeness cannot carry safety: Algorithm 1 splits whenever a weak \
         round coincides with a divided channel, however rare. The paper's safety/liveness \
         separation is the answer shape for its own open question.",
    );
    t
}

/// E16 (Section 4.1): the k-wake-up/leader-election separation, measured —
/// anonymous counting succeeds (exactly) with a k-wake-up service and
/// cannot with a leader election service.
pub fn e16_counting_separation(_scale: Scale) -> Table {
    let mut t = Table::new(
        "E16 (Section 4.1): anonymous counting — k-wake-up vs leader election service",
        &["n", "k", "service", "counts decided", "correct"],
    );
    for n in [1usize, 3, 6, 10] {
        for k in [1u64, 3] {
            let mut sim = Engine::new(
                counting::processes(n, k),
                Components {
                    detector: Box::new(CheckedDetector::new(
                        ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, 0),
                        CdClass::ZERO_AC,
                    )),
                    manager: Box::new(KWakeUp::new(k, 0)),
                    loss: Box::new(NoLoss),
                    crash: Box::new(NoCrashes),
                },
            );
            for _ in 0..k * n as u64 + 3 {
                sim.advance(&mut ());
            }
            let counts: Vec<Option<u64>> = sim.processes().iter().map(|p| p.count()).collect();
            let correct = counts.iter().all(|&c| c == Some(n as u64));
            t.row(vec![
                n.to_string(),
                k.to_string(),
                "k-wake-up".into(),
                format!("{counts:?}"),
                correct.to_string(),
            ]);
        }
    }
    // The leader-election side: the count never resolves (the leader
    // broadcasts forever; silence never comes) — and systems of different
    // sizes are indistinguishable.
    for n in [2usize, 5] {
        let mut sim = Engine::new(
            counting::processes(n, 1),
            Components {
                detector: Box::new(ClassDetector::new(
                    CdClass::ZERO_AC,
                    FreedomPolicy::Quiet,
                    0,
                )),
                manager: Box::new(LeaderElectionService::min_leader_from_start()),
                loss: Box::new(NoLoss),
                crash: Box::new(NoCrashes),
            },
        );
        for _ in 0..60 {
            sim.advance(&mut ());
        }
        let counts: Vec<Option<u64>> = sim.processes().iter().map(|p| p.count()).collect();
        t.row(vec![
            n.to_string(),
            "1".into(),
            "leader election".into(),
            format!("{counts:?}"),
            "never decides (sizes indistinguishable)".into(),
        ]);
    }
    t.note(
        "The k-wake-up service's one-shot roster plus the Noise Lemma make every process \
         audible exactly once; a leader election service hides everyone but the leader forever.",
    );
    t
}
