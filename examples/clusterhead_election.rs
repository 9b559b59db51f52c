//! Clusterhead election with crash recovery: non-anonymous devices agree on
//! a configuration value via the Section 7.3 protocol — Algorithm 2 over
//! the (small) identifier space elects a leader, the leader disseminates
//! its value, and epoch-tagged failure detection survives the leader
//! crashing mid-protocol.
//!
//! ```text
//! cargo run --example clusterhead_election
//! ```

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use ccwan::cm::FairWakeUp;
use ccwan::consensus::{alg3, ConsensusRun, IdSpace, Uid, Value, ValueDomain};
use ccwan::sim::crash::ScheduledCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, ProcessId, Round};

fn main() {
    // Five devices with 4-bit MAC-like IDs must agree on a 20-bit config
    // hash: |I| << |V|, so electing a leader by ID is cheaper than
    // bit-spelling the value (the min{lg|V|, lg|I|} crossover).
    let ids = IdSpace::new(16);
    let domain = ValueDomain::new(1 << 20);
    let assignments: Vec<(Uid, Value)> = vec![
        (Uid(3), Value(871_203)),
        (Uid(7), Value(11_111)),
        (Uid(1), Value(524_288)),
        (Uid(9), Value(999_999)),
        (Uid(12), Value(42)),
    ];
    println!("devices: {assignments:?}");

    // Uid(1) (index 2) is the minimum identifier and wins the first
    // election; it is killed at round 13 — right around dissemination, so
    // the epoch machinery must detect the death and elect a successor.
    let crash = ScheduledCrashes::new().crash(ProcessId(2), Round(13));
    let components = Components {
        detector: Box::new(CheckedDetector::new(
            ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Quiet, 5),
            CdClass::ZERO_EV_AC,
        )),
        manager: Box::new(FairWakeUp::immediate()),
        loss: Box::new(Ecf::new(RandomLoss::new(0.1, 5), Round(1))),
        crash: Box::new(crash),
    };

    let mut run = ConsensusRun::new(alg3::processes(ids, domain, &assignments, 99), components);
    let outcome = run.run_to_completion(Round(5000));

    let survivors: Vec<usize> = outcome
        .correct
        .iter()
        .enumerate()
        .filter_map(|(i, &ok)| ok.then_some(i))
        .collect();
    println!(
        "device at index 2 (uid {:?}) crashed at round 13; survivors {survivors:?}",
        assignments[2].0
    );
    println!(
        "agreed config: {} at round {} (validity: the value belongs to some device: {})",
        outcome.agreed_value().expect("agreement"),
        outcome.last_decision().unwrap(),
        outcome.is_safe(),
    );
    assert!(outcome.terminated && outcome.is_safe());
}
