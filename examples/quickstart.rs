//! Quickstart: four crash-prone wireless nodes agree on a value in two
//! rounds past stabilization, using Algorithm 1 (Newport '05, Section 7.1)
//! with a majority-complete, eventually-accurate collision detector —
//! and the run is *measured* with the probe API while it executes: the
//! built-in probe set plus a custom probe watch every round, next to the
//! trace recorder that draws the timeline.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ccwan::bench::sweep::{
    CellEnd, MetricId, MetricRow, MetricValue, Probe, ProbeManifest, ProbeSet,
};
use ccwan::cd::{CdClass, ClassDetector, FreedomPolicy};
use ccwan::cm::{FairWakeUp, PreStabilization};
use ccwan::consensus::{alg1, ConsensusRun, Cst, Value, ValueDomain};
use ccwan::sim::crash::NoCrashes;
use ccwan::sim::loss::{Ecf, RandomLoss};
use ccwan::sim::{Components, ExecutionTrace, Round, RoundView};

/// A custom probe in about a dozen lines: how many rounds *after* the
/// declared CST still saw two or more broadcasters (the contention the
/// stabilized wake-up service is supposed to have eliminated).
struct PostCstContention {
    cst: u64,
    contended: u64,
}

impl<M: Ord> Probe<M> for PostCstContention {
    fn observe(&mut self, view: &RoundView<'_, M>) {
        if view.round().0 > self.cst && view.sent_count() >= 2 {
            self.contended += 1;
        }
    }
    fn finish(&mut self, _end: &CellEnd, out: &mut MetricRow) {
        out.set(
            MetricId::Custom("post_cst_contention"),
            MetricValue::U64(self.contended),
        );
    }
}

fn main() {
    // Four sensors propose calibration profile ids from V = {0..7}.
    let domain = ValueDomain::new(8);
    let proposals: Vec<Value> = [5, 2, 7, 2].into_iter().map(Value).collect();
    println!("proposals: {proposals:?}");

    // The environment is hostile until round 10: up to 70% message loss,
    // detector false positives, and chaotic contention advice. From round
    // 10 on (the communication stabilization time), solo broadcasts get
    // through, the detector is accurate, and one process at a time is told
    // to speak.
    let cst = Round(10);
    let components = Components {
        detector: Box::new(
            ClassDetector::new(CdClass::MAJ_EV_AC, FreedomPolicy::Random { p: 0.25 }, 42)
                .accurate_from(cst),
        ),
        manager: Box::new(FairWakeUp::new(
            cst,
            PreStabilization::Random { p: 0.5 },
            42,
        )),
        loss: Box::new(Ecf::new(RandomLoss::new(0.7, 42), cst)),
        crash: Box::new(NoCrashes),
    };

    // Measure the run as it executes: the built-in probe set (broadcast
    // counts, CD accuracy, crash exposure, wake-up stabilization, decision
    // latency) plus the custom probe above watch every round, next to the
    // trace recorder.
    let mut probes = ProbeSet::from_manifest(&ProbeManifest::standard());
    probes.push(Box::new(PostCstContention {
        cst: cst.0,
        contended: 0,
    }));
    println!("declared {}", Cst::from_components(&components));
    let mut run = ConsensusRun::new(alg1::processes(domain, &proposals), components)
        .with_observer((ExecutionTrace::new(proposals.len()), probes));

    let outcome = run.run_to_completion(Round(100));
    let (trace, mut probes) = run.into_observer();

    // The whole execution at a glance: `*` = told to speak, `B` =
    // broadcast, `±` = collision advice, digits = messages received.
    println!("{}", ccwan::sim::timeline::timeline(&trace));

    let mut metrics = MetricRow::new();
    probes.finish(
        &CellEnd {
            reference: cst.0,
            last_decision: outcome.last_decision().map(|r| r.0),
            terminated: outcome.terminated,
            safe: outcome.is_safe(),
            rounds_executed: outcome.rounds_executed.0,
        },
        &mut metrics,
    );
    println!("probe metrics:");
    for (id, value) in metrics.iter() {
        println!("  {id:<22} {value:?}");
    }

    println!(
        "\ndecided {} at round {} ({} rounds past CST; Theorem 1 bound: 2; \
         signed latency metric: {:?})",
        outcome.agreed_value().expect("agreement"),
        outcome.last_decision().unwrap(),
        outcome.last_decision().unwrap().since(cst),
        metrics.get(MetricId::DecisionLatency),
    );
    assert!(outcome.is_safe() && outcome.terminated);
}
