//! Extension results: the Section 4.1 counting separation and the
//! Section 9 open-question probe, end-to-end.

use ccwan::adversary::theorems;
use ccwan::cd::{
    CdClass, CheckedDetector, ClassDetector, Completeness, FreedomPolicy, OccasionalDetector,
};
use ccwan::cm::{KWakeUp, PreStabilization, WakeUpService};
use ccwan::consensus::{alg1, alg2, counting, ConsensusRun, Value, ValueDomain};
use ccwan::sim::crash::NoCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, Engine, ProcessId, Round, StableHasher};

#[test]
fn counting_is_exact_under_k_wakeup_with_heavy_loss() {
    for n in 1..=8usize {
        for (k, loss, seed) in [(1u64, 0.0, 1u64), (2, 0.8, 2), (3, 1.0, 3)] {
            let mut sim = Engine::new(
                counting::processes(n, k),
                Components {
                    detector: Box::new(CheckedDetector::new(
                        ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, seed),
                        CdClass::ZERO_AC,
                    )),
                    manager: Box::new(KWakeUp::new(k, 0)),
                    loss: Box::new(RandomLoss::new(loss, seed)),
                    crash: Box::new(NoCrashes),
                },
            );
            for _ in 0..k * n as u64 + 2 {
                sim.advance(&mut ());
            }
            assert!(
                sim.processes().iter().all(|p| p.count() == Some(n as u64)),
                "n={n} k={k} loss={loss}"
            );
        }
    }
}

#[test]
fn no_completeness_remark_holds() {
    let r = theorems::no_completeness(ValueDomain::new(16), 4);
    assert!(r.established, "{:#?}", r.details);
    // The whole report, evidence lines included, as `tests/impossibility.rs`
    // pins the Section 8 reports.
    assert_eq!(
        StableHasher::hash_str(&format!("{r:?}")),
        0xc02cca65c36e7e52,
        "report drifted from its pin: {r:#?}"
    );
}

/// The Section 9 probe: there exists an environment in which Algorithm 1
/// paired with an occasionally-majority-complete detector violates
/// agreement, while Algorithm 2 (claiming only the weak class) stays safe
/// in the very same environments.
#[test]
fn occasional_strength_cannot_carry_safety() {
    let domain = ValueDomain::new(16);
    let n = 4;
    let env = |seed: u64, strong_prob: f64| Components {
        detector: Box::new(OccasionalDetector::new(
            Completeness::Zero,
            Completeness::Majority,
            strong_prob,
            seed,
        )),
        manager: Box::new(WakeUpService::new(
            Round(30),
            ProcessId(0),
            PreStabilization::AllActive,
            seed,
        )),
        loss: Box::new(Ecf::new(RandomLoss::new(0.5, seed), Round(30))),
        crash: Box::new(NoCrashes),
    };
    let mut alg1_violation_found = false;
    for seed in 0..300u64 {
        let values: Vec<Value> = (0..n).map(|i| Value((seed + i) % 16)).collect();
        let out1 =
            ConsensusRun::new(alg1::processes(domain, &values), env(seed, 0.9)).run_rounds(120);
        alg1_violation_found |= !out1.is_safe();
        // Algorithm 2 must be safe in every one of these environments: the
        // detector *does* honour zero completeness and accuracy.
        let out2 =
            ConsensusRun::new(alg2::processes(domain, &values), env(seed, 0.9)).run_rounds(120);
        assert!(
            out2.is_safe(),
            "seed {seed}: {:?}",
            out2.safety_violations()
        );
    }
    assert!(
        alg1_violation_found,
        "expected at least one Algorithm 1 split under 90%-majority completeness"
    );
}

/// With P(strong) = 1 the occasional detector *is* majority-complete, and
/// Algorithm 1 is safe and fast again — the probe's control arm.
#[test]
fn always_strong_is_just_the_strong_class() {
    let domain = ValueDomain::new(16);
    for seed in 0..20u64 {
        let values: Vec<Value> = (0..4).map(|i| Value((seed + i) % 16)).collect();
        let components = Components {
            detector: Box::new(OccasionalDetector::new(
                Completeness::Zero,
                Completeness::Majority,
                1.0,
                seed,
            )),
            manager: Box::new(WakeUpService::new(
                Round(10),
                ProcessId(0),
                PreStabilization::AllActive,
                seed,
            )),
            loss: Box::new(Ecf::new(RandomLoss::new(0.5, seed), Round(10))),
            crash: Box::new(NoCrashes),
        };
        let mut run = ConsensusRun::new(alg1::processes(domain, &values), components);
        let outcome = run.run_to_completion(Round(60));
        assert!(outcome.is_safe(), "seed {seed}");
        assert!(outcome.terminated, "seed {seed}");
        assert!(outcome.last_decision().unwrap() <= Round(12), "seed {seed}");
    }
}
