//! The Section 7 termination bounds, verified against adversarial (but
//! class-admissible) environments:
//!
//! * Theorem 1 — Algorithm 1 by `CST + 2`;
//! * Theorem 2 — Algorithm 2 by `CST + 2(⌈lg|V|⌉ + 1)`;
//! * Section 7.3 — the non-anonymous protocol in `CST + Θ(min{lg|V|, lg|I|})`;
//! * Theorem 3 — the BST algorithm within `8·lg|V|` rounds of failures
//!   ceasing, including the worst-case walk-then-crash schedule.

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use ccwan::cm::{FairWakeUp, NoCm, PreStabilization};
use ccwan::consensus::{alg1, alg2, alg3, alg4, ConsensusRun, IdSpace, Uid, Value, ValueDomain};
use ccwan::sim::crash::{NoCrashes, ScheduledCrashes};
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, ProcessId, Round};

/// A hostile-prefix environment: heavy loss, detector noise and chaotic
/// contention advice until `cst`, then stabilization — all certified
/// against `class`.
fn chaos_until(cst: u64, class: CdClass, seed: u64) -> Components {
    Components {
        detector: Box::new(CheckedDetector::new(
            ClassDetector::new(class, FreedomPolicy::Random { p: 0.35 }, seed)
                .accurate_from(Round(cst)),
            class,
        )),
        manager: Box::new(FairWakeUp::new(
            Round(cst),
            PreStabilization::Random { p: 0.5 },
            seed ^ 1,
        )),
        loss: Box::new(Ecf::new(RandomLoss::new(0.65, seed ^ 2), Round(cst))),
        crash: Box::new(NoCrashes),
    }
}

#[test]
fn theorem_1_alg1_terminates_by_cst_plus_2() {
    let domain = ValueDomain::new(32);
    for seed in 0..30u64 {
        let cst = 5 + seed % 10;
        let values: Vec<Value> = (0..5).map(|i| Value((seed + i) % 32)).collect();
        let mut run = ConsensusRun::new(
            alg1::processes(domain, &values),
            chaos_until(cst, CdClass::MAJ_EV_AC, seed),
        );
        let outcome = run.run_to_completion(Round(cst + 50));
        assert!(outcome.terminated, "seed {seed}: no termination");
        assert!(outcome.is_safe(), "seed {seed}: unsafe");
        let past = outcome.last_decision().unwrap().since(Round(cst));
        assert!(past <= 2, "seed {seed}: decided {past} rounds past CST");
    }
}

#[test]
fn theorem_2_alg2_terminates_by_cst_plus_2_log_v_plus_2() {
    for (v_size, seed) in [(4u64, 0u64), (64, 1), (1024, 2), (4096, 3)] {
        let domain = ValueDomain::new(v_size);
        let bound = 2 * (u64::from(domain.bits()) + 1);
        for s in 0..8u64 {
            let seed = seed * 100 + s;
            let cst = 7;
            let values: Vec<Value> = (0..4).map(|i| Value((seed * 3 + i) % v_size)).collect();
            let mut run = ConsensusRun::new(
                alg2::processes(domain, &values),
                chaos_until(cst, CdClass::ZERO_EV_AC, seed),
            );
            let outcome = run.run_to_completion(Round(cst + 10 * bound));
            assert!(outcome.terminated && outcome.is_safe(), "seed {seed}");
            let past = outcome.last_decision().unwrap().since(Round(cst));
            assert!(
                past <= bound,
                "|V|={v_size} seed {seed}: {past} > bound {bound}"
            );
        }
    }
}

#[test]
fn section_7_3_scales_with_min_of_log_v_log_i() {
    // With a huge value space but a tiny ID space, the non-anonymous
    // protocol must finish in rounds proportional to lg|I|, not lg|V|.
    let ids = IdSpace::new(8); // lg|I| = 3
    let domain = ValueDomain::new(1 << 24); // lg|V| = 24
                                            // Generous constant for the 4-slot interleave and one full election
                                            // cycle plus dissemination: c · (lg|I| + 2) with c = 16.
    let budget = 16 * (u64::from(ids.bits()) + 2);
    for seed in 0..10u64 {
        let cst = 5;
        let assignments: Vec<(Uid, Value)> = (0..4u64)
            .map(|j| {
                (
                    Uid((seed + 2 * j) % 8),
                    Value((seed * 99_991 + j) % (1 << 24)),
                )
            })
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let assignments: Vec<(Uid, Value)> = assignments
            .into_iter()
            .map(|(mut u, v)| {
                while !seen.insert(u) {
                    u = Uid((u.0 + 1) % 8);
                }
                (u, v)
            })
            .collect();
        let mut run = ConsensusRun::new(
            alg3::processes(ids, domain, &assignments, seed),
            chaos_until(cst, CdClass::ZERO_EV_AC, seed),
        );
        let outcome = run.run_to_completion(Round(cst + 20 * budget));
        assert!(outcome.terminated && outcome.is_safe(), "seed {seed}");
        let past = outcome.last_decision().unwrap().since(Round(cst));
        assert!(
            past <= budget,
            "seed {seed}: {past} rounds past CST exceeds lg|I|-scale budget {budget} \
             (protocol is using the value space, not the ID space)"
        );
    }
}

#[test]
fn theorem_3_bst_decides_within_8_log_v_without_failures() {
    for v_bits in [3u32, 5, 8] {
        let v_size = 1u64 << v_bits;
        let domain = ValueDomain::new(v_size);
        let bound = 8 * u64::from(domain.bits()) + 4; // +4: group alignment
        for seed in 0..8u64 {
            let values: Vec<Value> = (0..4).map(|i| Value((seed * 7 + i) % v_size)).collect();
            let mut run = ConsensusRun::new(
                alg4::processes(domain, &values),
                Components {
                    detector: Box::new(CheckedDetector::new(
                        ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, seed),
                        CdClass::ZERO_AC,
                    )),
                    manager: Box::new(NoCm),
                    loss: Box::new(RandomLoss::new(1.0, seed)),
                    crash: Box::new(NoCrashes),
                },
            );
            let outcome = run.run_to_completion(Round(10 * bound));
            assert!(outcome.terminated && outcome.is_safe(), "seed {seed}");
            let decided = outcome.last_decision().unwrap().0;
            assert!(
                decided <= bound,
                "|V|={v_size} seed {seed}: decided at {decided} > {bound}"
            );
        }
    }
}

#[test]
fn theorem_3_worst_case_crash_schedule_costs_a_climb() {
    // One process leads the walk to the deepest left leaf, then dies *in
    // the very round it would vote for its value*; the rest must climb back
    // to the root and descend right — still within 8·lg|V| of the crash
    // (the paper's "after failures cease" bound).
    let domain = ValueDomain::new(64);
    // Walk depth of value 0: the number of descents before its vote-val.
    let mut node = ccwan::consensus::bst::BstNode::root(domain);
    let mut steps = 0u64;
    while node.value() != Value(0) {
        node = node.left().expect("value 0 is leftmost");
        steps += 1;
    }
    // Group g spans rounds 4g+1..4g+4; the leaf's vote-val round is
    // 4·steps + 1. Crashing at round start silences the vote.
    let crash_round = 4 * steps + 1;
    let bound = 8 * u64::from(domain.bits()) + 8;
    for seed in 0..6u64 {
        let mut values = vec![Value(63); 4];
        values[0] = Value(0);
        let mut run = ConsensusRun::new(
            alg4::processes(domain, &values),
            Components {
                detector: Box::new(ClassDetector::new(
                    CdClass::ZERO_AC,
                    FreedomPolicy::Quiet,
                    seed,
                )),
                manager: Box::new(NoCm),
                loss: Box::new(RandomLoss::new(1.0, seed)),
                crash: Box::new(ScheduledCrashes::new().crash(ProcessId(0), Round(crash_round))),
            },
        );
        let outcome = run.run_to_completion(Round(crash_round + 10 * bound));
        assert!(outcome.terminated && outcome.is_safe(), "seed {seed}");
        assert_eq!(
            outcome.agreed_value(),
            Some(Value(63)),
            "survivors must decide their own value"
        );
        let after = outcome.last_decision().unwrap().since(Round(crash_round));
        assert!(
            after <= bound,
            "seed {seed}: {after} rounds after failures cease > {bound}"
        );
        // The crash really cost something: the walk had to climb.
        assert!(after > 8, "seed {seed}: suspiciously fast ({after})");
    }
}
