//! E14: model and detector ablations — why the paper's model and detector
//! classes matter.

use crate::sweep::{spec::ablation_specs, SweepRunner};
use crate::{Scale, Table};
use ccwan_core::{alg1, ConsensusRun, Value, ValueDomain};
use wan_cd::{CdClass, ClassDetector, FreedomPolicy};
use wan_cm::FairWakeUp;
use wan_sim::crash::NoCrashes;
use wan_sim::loss::{NoLoss, TotalCollisionLoss};
use wan_sim::{Components, DeliveryMatrix, Round, Script};

/// E14: (a) the total collision model baseline vs the arbitrary-loss model;
/// (b) the detector-class ablation for Algorithm 1, including the
/// deterministic zero-complete counterexample.
pub fn e14_model_and_detector_ablation(scale: Scale) -> Table {
    let mut t = Table::new(
        "E14: ablations — loss model and detector class",
        &["configuration", "outcome"],
    );
    let domain = ValueDomain::new(16);
    let values: Vec<Value> = [3, 7, 7].into_iter().map(Value).collect();

    // (a) Total collision model baseline: Algorithm 1 with a perfect
    // detector decides immediately; the same setup under arbitrary loss
    // still decides within the bound (the point of the model generality).
    let mut base = ConsensusRun::new(
        alg1::processes(domain, &values),
        Components {
            detector: Box::new(ClassDetector::perfect()),
            manager: Box::new(FairWakeUp::immediate()),
            loss: Box::new(TotalCollisionLoss),
            crash: Box::new(NoCrashes),
        },
    );
    let out = base.run_to_completion(Round(50));
    t.row(vec![
        "total collision model + AC + Algorithm 1".into(),
        format!(
            "decided {} at round {:?} (safe: {})",
            out.agreed_value()
                .map(|v| v.to_string())
                .unwrap_or_default(),
            out.last_decision().map(|r| r.0),
            out.is_safe()
        ),
    ]);

    let specs = ablation_specs(scale);
    let results = SweepRunner::parallel().run_fresh(&specs);
    t.row(vec![
        "arbitrary loss + ECF + maj-⋄AC + Algorithm 1".into(),
        format!(
            "worst rounds past CST = {} (bound 2)",
            results.worst_rounds_past(0)
        ),
    ]);
    t.row(vec![
        "arbitrary loss + ECF + 0-⋄AC + Algorithm 2".into(),
        format!(
            "worst rounds past CST = {} (bound {})",
            results.worst_rounds_past(1),
            2 * (domain.bits() + 1)
        ),
    ]);

    // (b) Detector ablation: Algorithm 1 run below its class requirement.
    // Deterministic counterexample: three processes, all broadcasting, each
    // receiving only its own message (t=1 of c=3). A zero-complete detector
    // may stay silent; Algorithm 1 then splits.
    let mut split = ConsensusRun::new(
        alg1::processes(domain, &[Value(3), Value(7), Value(7)]),
        Script {
            deliveries: vec![DeliveryMatrix::none(&[], 3); 2],
            ..Script::default()
        }
        .over(Components {
            detector: Box::new(ClassDetector::new(
                CdClass::ZERO_AC,
                FreedomPolicy::Quiet,
                0,
            )),
            manager: Box::new(wan_cm::NoCm),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        }),
    );
    let out = split.run_rounds(2);
    t.row(vec![
        "Algorithm 1 run below class (0-AC detector, own-message-only round)".into(),
        format!(
            "decisions {:?} — safety violations: {}",
            out.decisions
                .iter()
                .map(|d| d.map(|v| v.0))
                .collect::<Vec<_>>(),
            out.safety_violations().len()
        ),
    ]);
    t.note(
        "The last row is the complexity-gap in action: one message below a majority and \
         Algorithm 1's silent-veto argument (Lemma 5, majority sets intersect) collapses. \
         The E7 maj/half gap row shows the same break one message finer.",
    );
    t
}
