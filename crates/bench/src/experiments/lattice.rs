//! E1: Figure 1 — the collision-detector class lattice, with measured
//! solvability and round complexity per class (ECF setting).

use crate::sweep::{spec::lattice_specs, Algorithm, MetricId, SweepRunner};
use crate::{Scale, Table};
use ccwan_core::{alg1, ConsensusRun, Value, ValueDomain};
use wan_cd::NoCdDetector;
use wan_cm::LeaderElectionService;
use wan_sim::crash::NoCrashes;
use wan_sim::loss::NoLoss;
use wan_sim::{Components, Round};

/// One row per Figure 1 class plus `NoCD` and `NoACC`: which algorithm
/// solves consensus with it (if any), the paper's round bound, the
/// measured worst-case rounds past CST across seeds, and two probe-metric
/// columns the cells' probes measure as the rounds run — mean broadcasts
/// per cell (the Newport abstract-MAC-layer broadcast complexity) and the
/// detector's accuracy-violation count.
///
/// The per-class measurements run as one parallel scenario sweep (one
/// spec per class, [`crate::sweep::spec::lattice_specs`]); the extra
/// columns read the [`crate::sweep::ResultsFrame`]'s metric columns
/// instead of any hand-rolled re-run.
pub fn e1_figure1_lattice(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1 (Figure 1): collision detector classes — solvability and measured rounds past CST",
        &[
            "class",
            "solvable (ECF)",
            "algorithm",
            "paper bound",
            "measured worst rounds past CST",
            "mean broadcasts/cell",
            "CD false positives",
        ],
    );
    let domain = ValueDomain::new(16);
    let n = 4;
    let alg2_bound = 2 * (u64::from(domain.bits()) + 1);

    let specs = lattice_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    for (i, spec) in specs.iter().enumerate() {
        let worst = results.worst_rounds_past(i);
        let frame = results.spec(i);
        let mean_broadcasts = frame
            .column(MetricId::BroadcastsTotal)
            .and_then(|col| col.mean())
            .map_or_else(|| "—".to_string(), |m| format!("{m:.1}"));
        let false_positives = frame
            .column(MetricId::CdFalsePositives)
            .map_or_else(|| "—".to_string(), |col| col.sum().to_string());
        let (alg_name, bound) = match spec.algorithm {
            Algorithm::Alg1 => ("Algorithm 1", "CST + 2".to_string()),
            _ => (
                "Algorithm 2",
                format!("CST + 2(⌈lg|V|⌉+1) = CST + {alg2_bound}"),
            ),
        };
        t.row(vec![
            spec.class.to_string(),
            "yes".into(),
            alg_name.into(),
            bound,
            worst.to_string(),
            mean_broadcasts,
            false_positives,
        ]);
    }

    // NoCD: demonstrated stall (Theorem 4).
    let values: Vec<Value> = (0..n).map(|i| Value(i as u64 % domain.size())).collect();
    let mut stall = ConsensusRun::new(
        alg1::processes(domain, &values),
        Components {
            detector: Box::new(NoCdDetector),
            manager: Box::new(LeaderElectionService::min_leader_from_start()),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        },
    );
    let horizon = scale.rounds();
    let out = stall.run_to_completion(Round(horizon));
    t.row(vec![
        "NoCD".into(),
        "no (Thm 4)".into(),
        "—".into(),
        "impossible".into(),
        format!("no decision in {horizon} rounds: {}", !out.terminated),
        "—".into(),
        "—".into(),
    ]);
    t.row(vec![
        "NoACC".into(),
        "no (Thm 5)".into(),
        "—".into(),
        "impossible".into(),
        "see E6".into(),
        "—".into(),
        "—".into(),
    ]);
    t.note(format!(
        "n = {n}, |V| = {}, chaotic prefix with CST = 6, detector noise up to r_acc, {} seeds; \
         all runs safety-checked and class-certified (CheckedDetector strict); cells fanned \
         across the sweep runner's worker threads (results are thread-count-independent).",
        domain.size(),
        scale.seeds(),
    ));
    t
}
