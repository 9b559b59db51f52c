//! Property-based safety sweeps: the paper's safety/liveness separation
//! says agreement and validity must hold **unconditionally** — under any
//! message loss, any crash pattern, any detector noise admissible for the
//! algorithm's class, and any contention advice whatsoever. Liveness may
//! die; safety may not.

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use ccwan::cm::{FairWakeUp, NoCm, PreStabilization};
use ccwan::consensus::{
    alg1, alg2, alg3, alg4, ConsensusAutomaton, ConsensusRun, IdSpace, Uid, Value, ValueDomain,
};
use ccwan::sim::crash::RandomCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, Round};
use proptest::prelude::*;

/// Shared adversarial environment generator: arbitrary loss rate, noisy
/// advice within the class, random crash pressure, chaotic contention.
fn hostile(class: CdClass, seed: u64, loss: f64, r_acc: u64, crashes: usize) -> Components {
    Components {
        detector: Box::new(CheckedDetector::new(
            ClassDetector::new(class, FreedomPolicy::Random { p: 0.4 }, seed)
                .accurate_from(Round(r_acc)),
            class,
        )),
        manager: Box::new(FairWakeUp::new(
            Round(r_acc),
            PreStabilization::Random { p: 0.6 },
            seed ^ 3,
        )),
        loss: Box::new(Ecf::new(RandomLoss::new(loss, seed ^ 5), Round(r_acc))),
        crash: Box::new(RandomCrashes::new(0.02, crashes, seed ^ 7)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Algorithm 1 never violates safety inside maj-⋄AC, whatever happens.
    #[test]
    fn alg1_safety(
        seed in 0u64..10_000,
        loss in 0.0f64..1.0,
        r_acc in 1u64..40,
        n in 2usize..7,
        v_size in 2u64..40,
        crashes in 0usize..3,
    ) {
        let domain = ValueDomain::new(v_size);
        let values: Vec<Value> = (0..n).map(|i| Value((seed + i as u64) % v_size)).collect();
        let mut run = ConsensusRun::new(
            alg1::processes(domain, &values),
            hostile(CdClass::MAJ_EV_AC, seed, loss, r_acc, crashes),
        );
        let outcome = run.run_rounds(120);
        prop_assert!(outcome.is_safe(), "{:?}", outcome.safety_violations());
    }

    /// Algorithm 2 never violates safety inside 0-⋄AC.
    #[test]
    fn alg2_safety(
        seed in 0u64..10_000,
        loss in 0.0f64..1.0,
        r_acc in 1u64..40,
        n in 2usize..7,
        v_size in 2u64..100,
        crashes in 0usize..3,
    ) {
        let domain = ValueDomain::new(v_size);
        let values: Vec<Value> = (0..n).map(|i| Value((seed * 3 + i as u64) % v_size)).collect();
        let mut run = ConsensusRun::new(
            alg2::processes(domain, &values),
            hostile(CdClass::ZERO_EV_AC, seed, loss, r_acc, crashes),
        );
        let outcome = run.run_rounds(150);
        prop_assert!(outcome.is_safe(), "{:?}", outcome.safety_violations());
    }

    /// The corrected Section 7.3 protocol never violates safety inside
    /// 0-⋄AC — including under leader crashes at arbitrary rounds.
    #[test]
    fn alg3_safety(
        seed in 0u64..10_000,
        loss in 0.0f64..1.0,
        r_acc in 1u64..40,
        n in 2usize..6,
        crashes in 0usize..3,
    ) {
        let ids = IdSpace::new(16);
        let domain = ValueDomain::new(1 << 12);
        let assignments: Vec<(Uid, Value)> = (0..n as u64)
            .map(|j| (Uid((seed + 3 * j) % 16), Value((seed * 31 + j) % (1 << 12))))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let assignments: Vec<(Uid, Value)> = assignments
            .into_iter()
            .map(|(mut u, v)| {
                while !seen.insert(u) { u = Uid((u.0 + 1) % 16); }
                (u, v)
            })
            .collect();
        let mut run = ConsensusRun::new(
            alg3::processes(ids, domain, &assignments, seed),
            hostile(CdClass::ZERO_EV_AC, seed, loss, r_acc, crashes),
        );
        let outcome = run.run_rounds(250);
        prop_assert!(outcome.is_safe(), "{:?}", outcome.safety_violations());
    }

    /// The BST algorithm never violates safety inside 0-AC under arbitrary
    /// loss and crashes (no ECF, no contention manager).
    #[test]
    fn alg4_safety(
        seed in 0u64..10_000,
        loss in 0.0f64..1.0,
        n in 2usize..7,
        v_size in 2u64..100,
        crashes in 0usize..4,
    ) {
        let domain = ValueDomain::new(v_size);
        let values: Vec<Value> = (0..n).map(|i| Value((seed * 7 + i as u64) % v_size)).collect();
        let mut run = ConsensusRun::new(
            alg4::processes(domain, &values),
            Components {
                detector: Box::new(
                    CheckedDetector::new(
                        ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, seed),
                        CdClass::ZERO_AC,
                    ),
                ),
                manager: Box::new(NoCm),
                loss: Box::new(RandomLoss::new(loss, seed ^ 9)),
                crash: Box::new(RandomCrashes::new(0.02, crashes, seed ^ 11)),
            },
        );
        let outcome = run.run_rounds(200);
        prop_assert!(outcome.is_safe(), "{:?}", outcome.safety_violations());
    }

    /// Decisions, when they happen, are monotone facts: once decided, a
    /// process never changes or retracts its decision.
    #[test]
    fn decisions_are_stable(
        seed in 0u64..5_000,
        loss in 0.0f64..0.9,
        n in 2usize..5,
    ) {
        let domain = ValueDomain::new(16);
        let values: Vec<Value> = (0..n).map(|i| Value((seed + i as u64) % 16)).collect();
        let mut run = ConsensusRun::new(
            alg2::processes(domain, &values),
            hostile(CdClass::ZERO_EV_AC, seed, loss, 10, 1),
        );
        let mut seen: Vec<Option<Value>> = vec![None; n];
        for _ in 0..80 {
            run.step();
            for (i, p) in run.sim().processes().iter().enumerate() {
                if let Some(prev) = seen[i] {
                    prop_assert_eq!(p.decision(), Some(prev), "decision changed");
                } else {
                    seen[i] = p.decision();
                }
            }
        }
    }
}
