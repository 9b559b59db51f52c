//! Fault-tolerance torture for the corrected Section 7.3 protocol: leader
//! crashes at every phase of the protocol, cascading crashes, and crashes
//! interleaved with lossy prefixes. Safety must hold in every schedule;
//! termination in all of these (they avoid the documented probabilistic-
//! liveness corner by keeping at least one synced survivor).

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use ccwan::cm::FairWakeUp;
use ccwan::consensus::{alg3, ConsensusRun, IdSpace, Uid, Value, ValueDomain};
use ccwan::sim::crash::ScheduledCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, ProcessId, Round};

fn run_with_crashes(
    crashes: &[(usize, u64)],
    seed: u64,
    loss: f64,
    r_stab: u64,
) -> ccwan::consensus::ConsensusOutcome {
    let ids = IdSpace::new(16);
    let domain = ValueDomain::new(1 << 16);
    let assignments: Vec<(Uid, Value)> = (0..5u64)
        .map(|j| (Uid(2 * j + 1), Value(10_000 + j * 997)))
        .collect();
    let crash =
        ScheduledCrashes::from_pairs(crashes.iter().map(|&(p, r)| (ProcessId(p), Round(r))));
    let components = Components {
        detector: Box::new(CheckedDetector::new(
            ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Random { p: 0.2 }, seed)
                .accurate_from(Round(r_stab)),
            CdClass::ZERO_EV_AC,
        )),
        manager: Box::new(FairWakeUp::new(
            Round(r_stab),
            ccwan::cm::PreStabilization::Random { p: 0.4 },
            seed,
        )),
        loss: Box::new(Ecf::new(RandomLoss::new(loss, seed), Round(r_stab))),
        crash: Box::new(crash),
    };
    let mut run = ConsensusRun::new(alg3::processes(ids, domain, &assignments, seed), components);
    run.run_to_completion(Round(12_000))
}

/// The leader (Uid(1), index 0, minimum id) crashes at each round of the
/// first few protocol groups: election rounds, value rounds, veto rounds,
/// sync rounds.
#[test]
fn leader_crash_at_every_early_round_is_survived() {
    for crash_round in 1..=40u64 {
        let outcome = run_with_crashes(&[(0, crash_round)], 7, 0.0, 1);
        assert!(
            outcome.is_safe(),
            "crash at r{crash_round}: {:?}",
            outcome.safety_violations()
        );
        assert!(
            outcome.terminated,
            "crash at r{crash_round}: survivors stuck"
        );
        // Validity: the decision is some process's initial value.
        let v = outcome.agreed_value().expect("agreement among survivors");
        assert!(outcome.initial_values.contains(&v));
    }
}

/// Cascading leader deaths: each successor is killed shortly after the
/// previous one.
#[test]
fn cascading_leader_crashes_are_survived() {
    for seed in 0..5u64 {
        let outcome = run_with_crashes(&[(0, 15), (1, 60), (2, 120)], seed, 0.0, 1);
        assert!(outcome.is_safe(), "seed {seed}");
        assert!(outcome.terminated, "seed {seed}");
    }
}

/// Crashes during a lossy, noisy prefix (before CST): the protocol must
/// still converge once the environment stabilizes.
#[test]
fn crashes_during_chaotic_prefix() {
    for seed in 0..5u64 {
        let outcome = run_with_crashes(&[(0, 5), (2, 25)], seed, 0.6, 50);
        assert!(
            outcome.is_safe(),
            "seed {seed}: {:?}",
            outcome.safety_violations()
        );
        assert!(outcome.terminated, "seed {seed}");
    }
}

/// All but one process crashes; the lone survivor must still decide
/// (termination holds for any number of failures).
#[test]
fn lone_survivor_decides() {
    for seed in 0..4u64 {
        let outcome = run_with_crashes(&[(0, 10), (1, 14), (2, 18), (3, 22)], seed, 0.0, 1);
        assert!(outcome.is_safe(), "seed {seed}");
        assert!(
            outcome.terminated,
            "seed {seed}: the survivor never decided"
        );
        let survivor_decision = outcome.decisions[4];
        assert!(survivor_decision.is_some());
    }
}

/// Direct mode (|V| ≤ |I|) under crashes behaves like Algorithm 2.
#[test]
fn direct_mode_crash_tolerance() {
    let ids = IdSpace::new(256);
    let domain = ValueDomain::new(16);
    for seed in 0..5u64 {
        let assignments: Vec<(Uid, Value)> = (0..4u64)
            .map(|j| (Uid(seed * 4 + j), Value((seed + j) % 16)))
            .collect();
        let crash = ScheduledCrashes::new().crash(ProcessId(0), Round(3 + seed));
        let components = Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, seed),
                CdClass::ZERO_EV_AC,
            )),
            manager: Box::new(FairWakeUp::immediate()),
            loss: Box::new(Ecf::new(RandomLoss::new(0.0, seed), Round(1))),
            crash: Box::new(crash),
        };
        let mut run =
            ConsensusRun::new(alg3::processes(ids, domain, &assignments, seed), components);
        let outcome = run.run_to_completion(Round(500));
        assert!(outcome.is_safe() && outcome.terminated, "seed {seed}");
    }
}
