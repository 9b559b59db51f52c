//! Data-aggregation voting (the Kumar-style scenario of Section 1.4): a
//! sensor cluster must agree on *which reading to report upstream*, so the
//! whole cluster costs one message instead of n. First the cluster counts
//! itself (anonymous counting under a k-wake-up service, Section 4.1), then
//! it runs consensus on the readings.
//!
//! ```text
//! cargo run --example aggregation_vote
//! ```

use ccwan::cd::{CdClass, CheckedDetector, ClassDetector, FreedomPolicy};
use ccwan::cm::{FairWakeUp, KWakeUp};
use ccwan::consensus::{alg2, counting, ConsensusRun, Value, ValueDomain};
use ccwan::sim::crash::NoCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, Engine, Round};

fn main() {
    let n = 6;

    // Phase 1: how many of us are there? (No identifiers, no membership
    // list — the k-wake-up roster plus the Noise Lemma count heads.)
    let k = 2;
    let mut census = Engine::new(
        counting::processes(n, k),
        Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::ZERO_AC, FreedomPolicy::Quiet, 0),
                CdClass::ZERO_AC,
            )),
            manager: Box::new(KWakeUp::new(k, 0)),
            loss: Box::new(RandomLoss::new(0.4, 11)),
            crash: Box::new(NoCrashes),
        },
    );
    for _ in 0..k * n as u64 + 2 {
        census.advance(&mut ());
    }
    let population = census.processes()[0].count().expect("census closed");
    println!("census: every node counted {population} cluster members");
    assert!(census
        .processes()
        .iter()
        .all(|p| p.count() == Some(population)));

    // Phase 2: agree on the reading to report (consensus over readings).
    let domain = ValueDomain::new(1024);
    let readings: Vec<Value> = (0..n).map(|i| Value(500 + (i as u64 * 37) % 100)).collect();
    println!("readings: {readings:?}");
    let mut vote = ConsensusRun::new(
        alg2::processes(domain, &readings),
        Components {
            detector: Box::new(CheckedDetector::new(
                ClassDetector::new(CdClass::ZERO_EV_AC, FreedomPolicy::Random { p: 0.2 }, 3)
                    .accurate_from(Round(6)),
                CdClass::ZERO_EV_AC,
            )),
            manager: Box::new(FairWakeUp::new(
                Round(6),
                ccwan::cm::PreStabilization::Random { p: 0.4 },
                3,
            )),
            loss: Box::new(Ecf::new(RandomLoss::new(0.5, 3), Round(6))),
            crash: Box::new(NoCrashes),
        },
    );
    let outcome = vote.run_to_completion(Round(300));
    println!(
        "cluster reports reading {} (decided at {}, every node got a vote, safe: {})",
        outcome.agreed_value().expect("agreement"),
        outcome.last_decision().unwrap(),
        outcome.is_safe(),
    );
    assert!(outcome.terminated && outcome.is_safe());
}
