//! Executable theorem drivers: one per impossibility / lower-bound result
//! of Section 8. Each driver builds the paper's construction, runs it
//! against concrete algorithms, verifies the side conditions the proof
//! relies on (class admissibility, service properties,
//! indistinguishability), and reports what was observed.

use crate::alpha::AlphaExecution;
use crate::beta::{BetaExecution, OwnMessageOnly};
use crate::compose::{compose_and_verify, group_leaders, CompositionReport};
use crate::indist::group_observations_equal;
use crate::sequences::{lemma21_depth, lemma22_depth, longest_shared_prefix_pair};
use ccwan_core::alg1::MajEcfConsensus;
use ccwan_core::alg3::NonAnonConsensus;
use ccwan_core::strawman::CdBlindOptimist;
use ccwan_core::{alg2, alg4, ConsensusRun, IdSpace, SafetyViolation, Uid, Value, ValueDomain};
use wan_cd::{
    Accuracy, CdClass, CheckedDetector, ClassDetector, Completeness, FreedomPolicy, NoCdDetector,
};
use wan_cm::{LeaderElectionService, PreStabilization};
use wan_sim::crash::NoCrashes;
use wan_sim::loss::{IntraGroupRule, NoLoss, PartitionLoss};
use wan_sim::{
    AllActive, BroadcastCount, CdAdvice, CmAdvice, Components, ProcessId, Round, Script,
};

/// The structured result of one theorem demonstration.
#[derive(Debug)]
pub struct TheoremReport {
    /// Which theorem this demonstrates.
    pub name: &'static str,
    /// The paper's claim, restated.
    pub claim: String,
    /// Whether the demonstration went through.
    pub established: bool,
    /// Human-readable evidence lines (consumed by the bench tables).
    pub details: Vec<String>,
}

impl TheoremReport {
    fn new(name: &'static str, claim: impl Into<String>) -> Self {
        TheoremReport {
            name,
            claim: claim.into(),
            established: false,
            details: Vec::new(),
        }
    }

    fn note(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }
}

/// `components` with its detector certified, live, against `class`: the
/// advice a construction replays must be a behaviour of `MAXCD(class)`
/// (the first advice outside it panics).
fn certified(components: Components, class: CdClass) -> Components {
    Components {
        detector: Box::new(CheckedDetector::new(components.detector, class)),
        ..components
    }
}

/// Theorem 4: consensus is unsolvable with no collision detector, even with
/// a leader election service and eventual collision freedom.
///
/// Two horns, both demonstrated: (a) a *correct* algorithm (Algorithm 1)
/// paired with the trivial `NOCD` detector loses liveness — the constant
/// `±` advice makes its silence test unsatisfiable; (b) an algorithm that
/// ignores the detector and decides anyway (the CD-blind strawman) is
/// driven into an agreement violation by the partition construction of the
/// proof, with per-group indistinguishability from the solo executions
/// verified.
pub fn t4_no_cd(domain: ValueDomain, n: usize, horizon: u64) -> TheoremReport {
    let mut report = TheoremReport::new(
        "Theorem 4",
        "no (E(NoCD,LS),V,ECF)-consensus algorithm exists",
    );

    // Horn (a): Algorithm 1 + NOCD stalls forever.
    let values: Vec<Value> = (0..n).map(|i| Value(i as u64 % domain.size())).collect();
    let procs: Vec<MajEcfConsensus> = ccwan_core::alg1::processes(domain, &values);
    let mut run = ConsensusRun::new(
        procs,
        Components {
            detector: Box::new(NoCdDetector),
            manager: Box::new(LeaderElectionService::min_leader_from_start()),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        },
    );
    let stall = run.run_to_completion(Round(horizon));
    let stalled = !stall.terminated && stall.first_decision().is_none();
    report.note(format!(
        "Algorithm 1 + NOCD + LS + lossless ECF: no decision in {horizon} rounds (stall: {stalled})"
    ));

    // Horn (b): the partition construction versus a CD-blind decider.
    let k = 4u64;
    let (v, v_alt) = (Value(0), Value(1 % domain.size()));
    let build = |val: Value| -> Vec<CdBlindOptimist> {
        (0..n).map(|_| CdBlindOptimist::new(domain, val)).collect()
    };
    // Solo executions: lossless, LS on min, constant-± advice.
    let solo = |val: Value| {
        let mut r = ConsensusRun::new(
            build(val),
            Components {
                detector: Box::new(NoCdDetector),
                manager: Box::new(LeaderElectionService::min_leader_from_start()),
                loss: Box::new(NoLoss),
                crash: Box::new(NoCrashes),
            },
        );
        let o = r.run_rounds(k);
        (r, o)
    };
    let (solo_a, out_a) = solo(v);
    let (solo_b, out_b) = solo(v_alt);
    let both_decided = out_a.terminated && out_b.terminated;
    report.note(format!(
        "CD-blind strawman decides by round {k} in both solo executions: {both_decided}"
    ));

    // γ: partition for k rounds, then healed; CM: min of each group, then
    // min overall; detector: constant ± (the only NOCD behaviour).
    let mut composed_procs = build(v);
    composed_procs.extend(build(v_alt));
    let mut gamma = ConsensusRun::new(
        composed_procs,
        Script {
            cm: group_leaders(n, k as usize),
            ..Script::default()
        }
        .over(Components {
            detector: Box::new(NoCdDetector),
            manager: Box::new(LeaderElectionService::new(
                Round(k + 1),
                ProcessId(0),
                PreStabilization::AllPassive,
                0,
            )),
            loss: Box::new(
                PartitionLoss::two_groups(2 * n, n, IntraGroupRule::Full)
                    .healing_from(Round(k + 1)),
            ),
            crash: Box::new(NoCrashes),
        }),
    );
    let gamma_out = gamma.run_rounds(k);
    let indist_a = group_observations_equal(gamma.trace(), 0, n, solo_a.trace(), k as usize);
    let indist_b = group_observations_equal(gamma.trace(), n, n, solo_b.trace(), k as usize);
    let indistinguishable = indist_a.is_ok() && indist_b.is_ok();
    report.note(format!(
        "γ is indistinguishable per group from the solo executions: {indistinguishable}"
    ));
    let agreement_broken = gamma_out
        .safety_violations()
        .iter()
        .any(|x| matches!(x, SafetyViolation::Agreement { .. }));
    report.note(format!(
        "γ breaks agreement for the strawman: {agreement_broken}"
    ));

    report.established = stalled && both_decided && indistinguishable && agreement_broken;
    report
}

/// Theorem 5: consensus is unsolvable with a detector that is complete but
/// never accurate (`NoACC`). By Lemma 1 the `NOCD` behaviour is inside
/// `NoACC`; the demonstration shows the always-`±` member of `NoACC`
/// stalls Algorithms 1 and 2.
pub fn t5_no_acc(domain: ValueDomain, n: usize, horizon: u64) -> TheoremReport {
    let mut report = TheoremReport::new(
        "Theorem 5",
        "no (E(NoACC,LS),V,ECF)-consensus algorithm exists",
    );
    let values: Vec<Value> = (0..n).map(|i| Value(i as u64 % domain.size())).collect();
    // A complete, never-accurate detector, at its noisiest: constant ±.
    let noacc = || ClassDetector::new(CdClass::NO_ACC, FreedomPolicy::Noisy, 0);

    let mut run1 = ConsensusRun::new(
        ccwan_core::alg1::processes(domain, &values),
        Components {
            detector: Box::new(noacc()),
            manager: Box::new(LeaderElectionService::min_leader_from_start()),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        },
    );
    let o1 = run1.run_to_completion(Round(horizon));
    let mut run2 = ConsensusRun::new(
        alg2::processes(domain, &values),
        Components {
            detector: Box::new(noacc()),
            manager: Box::new(LeaderElectionService::min_leader_from_start()),
            loss: Box::new(NoLoss),
            crash: Box::new(NoCrashes),
        },
    );
    let o2 = run2.run_to_completion(Round(horizon));
    report.note(format!(
        "Algorithm 1 stalls under NoACC noise: {}",
        !o1.terminated
    ));
    report.note(format!(
        "Algorithm 2 stalls under NoACC noise: {}",
        !o2.terminated
    ));
    report.established = !o1.terminated && !o2.terminated;
    report
}

/// Theorem 6 (anonymous, half-AC): no anonymous algorithm can always decide
/// within `lg |V|/2 − 1` rounds of CST. The driver finds the deepest
/// alpha-indistinguishable value pair for Algorithm 2 (pigeonhole
/// guarantees at least the Lemma 21 depth), splices the Lemma 23
/// composition, and verifies that no process decides within the shared
/// prefix.
pub fn t6_anon_half_ac(domain: ValueDomain, n: usize) -> TheoremReport {
    let mut report = TheoremReport::new(
        "Theorem 6",
        format!(
            "anonymous half-AC consensus needs > lg|V|/2 - 1 = {} rounds past CST",
            lemma21_depth(domain)
        ),
    );
    let depth = 4 * (domain.bits() as usize + 2);
    let pair = longest_shared_prefix_pair(domain.values().collect::<Vec<_>>(), depth, |&v| {
        AlphaExecution::run(alg2::processes(domain, &vec![v; n]), depth as u64).broadcast_seq(depth)
    });
    let Some((v1, v2, shared)) = pair else {
        report.note("domain too small for a pair".to_string());
        return report;
    };
    report.note(format!(
        "deepest alpha-indistinguishable pair: {v1} vs {v2}, shared prefix {shared} (guarantee {})",
        lemma21_depth(domain)
    ));
    let k = shared.max(1);
    let comp: CompositionReport = compose_and_verify(
        || alg2::processes(domain, &vec![v1; n]),
        || alg2::processes(domain, &vec![v2; n]),
        k,
        CdClass::HALF_AC,
    );
    report.note(format!(
        "composition: prefixes match {}, indistinguishable {}, class-certified {}, no decision through {k}: {}",
        comp.prefixes_match,
        comp.indistinguishability_failure.is_none(),
        comp.detector_violations == 0,
        !comp.decided_within_k
    ));
    report.established = shared >= lemma21_depth(domain) && comp.establishes_lower_bound();
    report
}

/// The majority/half completeness gap (the complexity separation behind
/// Theorems 1 vs 6): with two simultaneous broadcasters, a half-complete
/// detector may stay silent at receivers that got exactly half the
/// messages, splitting Algorithm 1 into two cleanly-deciding halves — an
/// agreement violation. The very same advice script is *inadmissible* for
/// a majority-complete detector, which is why Algorithm 1 is safe in
/// `maj-⋄AC`.
pub fn maj_half_gap(domain: ValueDomain) -> TheoremReport {
    let mut report = TheoremReport::new(
        "maj/half gap",
        "half-complete silence at T(i)=c/2 breaks Algorithm 1; majority completeness forbids it",
    );
    // Two processes, different values, both active in the proposal round,
    // partitioned: each receives only its own estimate (t=1 of c=2).
    let cd: Vec<Vec<CdAdvice>> = vec![vec![CdAdvice::Null; 2]; 2];
    // The advice is half-AC-admissible...
    let half_ok = CdClass::HALF_AC.admits(Round(1), Round(1), 2, 1, false);
    // ...but not maj-AC-admissible.
    let maj_bad = !CdClass::MAJ_AC.admits(Round(1), Round(1), 2, 1, false);
    report.note(format!(
        "null advice at (c=2, T=1) admissible for half-AC: {half_ok}; for maj-AC: {}",
        !maj_bad
    ));

    let procs = vec![
        MajEcfConsensus::new(domain, Value(0)),
        MajEcfConsensus::new(domain, Value(1 % domain.size())),
    ];
    let components = Script {
        cm: vec![vec![CmAdvice::Active; 2]; 1],
        cd,
        ..Script::default()
    }
    .over(Components {
        detector: Box::new(ClassDetector::perfect()),
        manager: Box::new(LeaderElectionService::new(
            Round(2),
            ProcessId(0),
            PreStabilization::AllPassive,
            0,
        )),
        loss: Box::new(PartitionLoss::two_groups(2, 1, IntraGroupRule::Full)),
        crash: Box::new(NoCrashes),
    });
    let mut run = ConsensusRun::new(procs, certified(components, CdClass::HALF_AC));
    let outcome = run.run_rounds(2);
    let split = outcome
        .safety_violations()
        .iter()
        .any(|v| matches!(v, SafetyViolation::Agreement { .. }));
    report.note(format!(
        "Algorithm 1 under the half-AC script: decided {:?}, agreement broken: {split}",
        outcome.decisions
    ));
    report.established = half_ok && maj_bad && split;
    report
}

/// Theorem 7 / Corollary 3 (non-anonymous, half-AC): the same construction
/// over (ID block, value) pairs. Finds a colliding pair with *different ID
/// sets and different values*, composes, and verifies no early decision.
pub fn t7_nonanon_half_ac(ids: IdSpace, domain: ValueDomain, n: usize) -> TheoremReport {
    let guarantee = lemma22_depth(domain.size(), ids.size(), n as u64);
    let mut report = TheoremReport::new(
        "Theorem 7",
        format!(
            "non-anonymous half-AC consensus needs > lg(|V||I|/(n|V|+|I|))/2 = {guarantee} rounds past CST"
        ),
    );
    let blocks = (ids.size() / n as u64).min(16);
    let value_samples: Vec<Value> = {
        let step = (domain.size() / 16).max(1);
        (0..domain.size())
            .step_by(step as usize)
            .map(Value)
            .collect()
    };
    let depth = 8 * (ids.bits().max(domain.bits()) as usize + 2);
    let build = |block: u64, v: Value| -> Vec<NonAnonConsensus> {
        let assignments: Vec<(Uid, Value)> = (0..n as u64)
            .map(|j| (Uid(block * n as u64 + j), v))
            .collect();
        ccwan_core::alg3::processes(ids, domain, &assignments, 1234)
    };
    let candidates: Vec<(u64, Value)> = (0..blocks)
        .flat_map(|b| value_samples.iter().map(move |&v| (b, v)))
        .collect();
    let mut entries: Vec<(Vec<BroadcastCount>, (u64, Value))> = candidates
        .into_iter()
        .map(|(b, v)| {
            let seq = AlphaExecution::run(build(b, v), depth as u64).broadcast_seq(depth);
            (seq, (b, v))
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    // Deepest pair with different block AND value.
    type BlockValue = (u64, Value);
    let mut best: Option<(BlockValue, BlockValue, usize)> = None;
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len().min(i + 8) {
            let (ka, kb) = (entries[i].1, entries[j].1);
            if ka.0 == kb.0 || ka.1 == kb.1 {
                continue;
            }
            let shared = entries[i]
                .0
                .iter()
                .zip(entries[j].0.iter())
                .take_while(|(x, y)| x == y)
                .count();
            if best.is_none_or(|(_, _, s)| shared > s) {
                best = Some((ka, kb, shared));
            }
        }
    }
    let Some(((b1, v1), (b2, v2), shared)) = best else {
        report.note("no valid pair found".to_string());
        return report;
    };
    report.note(format!(
        "deepest pair: block {b1}/{v1} vs block {b2}/{v2}, shared prefix {shared} (guarantee {guarantee})"
    ));
    let k = shared.max(1);
    let comp = compose_and_verify(|| build(b1, v1), || build(b2, v2), k, CdClass::HALF_AC);
    report.note(format!(
        "composition: indistinguishable {}, certified {}, no decision through {k}: {}",
        comp.indistinguishability_failure.is_none(),
        comp.detector_violations == 0,
        !comp.decided_within_k
    ));
    report.established = shared >= guarantee && comp.establishes_lower_bound();
    report
}

/// Theorem 8: without eventual collision freedom, an eventually-accurate
/// detector does not suffice. The construction runs γ (two groups, total
/// cross loss forever, complete *and* accurate advice) to a decision, then
/// replays the losing group's advice as false positives in a solo
/// execution — a valid `⋄AC` environment — where the group decides a value
/// nobody proposed: a uniform-validity violation.
pub fn t8_ev_accuracy_nocf(domain: ValueDomain, n: usize) -> TheoremReport {
    let mut report = TheoremReport::new(
        "Theorem 8",
        "no (E(⋄AC,LS),V,NOCF)-consensus algorithm exists",
    );
    let (va, vb) = (Value(domain.size() / 4), Value(3 * domain.size() / 4));
    assert_ne!(va, vb, "domain too small");
    let build = |v: Value| alg4::processes(domain, &vec![v; n]);

    // γ: permanent partition, perfect advice, LS on the global minimum.
    let mut gamma = ConsensusRun::new(
        {
            let mut p = build(va);
            p.extend(build(vb));
            p
        },
        Components {
            detector: Box::new(ClassDetector::perfect()),
            manager: Box::new(LeaderElectionService::min_leader_from_start()),
            loss: Box::new(PartitionLoss::two_groups(2 * n, n, IntraGroupRule::Full)),
            crash: Box::new(NoCrashes),
        },
    );
    let gamma_out = gamma.run_to_completion(Round(64 * u64::from(domain.bits())));
    let Some(x) = gamma_out.agreed_value() else {
        report.note(format!(
            "γ did not reach agreement (decisions {:?})",
            gamma_out.decisions
        ));
        return report;
    };
    let k = gamma_out.last_decision().expect("agreed").0;
    report.note(format!(
        "γ (BST algorithm, complete+accurate advice, total partition) decides {x} by round {k}"
    ));

    // The losing group started with a value other than x.
    let (loser_base, loser_value) = if x == va { (n, vb) } else { (0, va) };
    let cd: Vec<Vec<CdAdvice>> = (1..=k)
        .map(|r| {
            let rec = gamma.trace().round(Round(r)).expect("recorded");
            rec.cd()[loser_base..loser_base + n].to_vec()
        })
        .collect();
    // Solo replay: no loss, and the scripted advice over a perfect
    // detector, so r_acc falls at k + 1, after the prefix: every false
    // positive in the prefix is admissible for ⋄AC. The contention advice
    // must also replay what the losing group saw in γ: all-passive for the
    // first k rounds if the γ leader was in the other group (the proof's β
    // fixes it so), else the leader p0 from round 1.
    let passive_rounds = if loser_base == 0 { 0 } else { k };
    let components = Script {
        cm: vec![vec![CmAdvice::Passive; n]; passive_rounds as usize],
        cd,
        ..Script::default()
    }
    .over(Components {
        detector: Box::new(ClassDetector::perfect()),
        manager: Box::new(LeaderElectionService::new(
            Round(passive_rounds + 1),
            ProcessId(0),
            PreStabilization::AllPassive,
            0,
        )),
        loss: Box::new(NoLoss),
        crash: Box::new(NoCrashes),
    });
    let mut solo = ConsensusRun::new(build(loser_value), certified(components, CdClass::EV_AC));
    let solo_out = solo.run_rounds(k);
    let indist = group_observations_equal(gamma.trace(), loser_base, n, solo.trace(), k as usize);
    report.note(format!(
        "solo replay indistinguishable from γ for the losing group: {}",
        indist.is_ok()
    ));
    let validity_broken = solo_out
        .safety_violations()
        .iter()
        .any(|v| matches!(v, SafetyViolation::UniformValidity { .. }));
    report.note(format!(
        "solo replay (all inputs {loser_value}) decides {:?}: uniform validity broken: {validity_broken}",
        solo_out.agreed_value()
    ));
    report.established = indist.is_ok() && validity_broken;
    report
}

/// The Section 5.2 remark, made executable: "It is easy to show that
/// consensus is impossible if a collision detector might satisfy no
/// completeness properties for an a priori unknown number of rounds."
///
/// With completeness suspended, silence stops being evidence: a round in
/// which every message was lost *and* the detector stayed quiet is
/// indistinguishable from a genuinely empty round. Algorithm 2's safety
/// rests entirely on the Noise Lemma (zero completeness), so a scripted
/// all-`null` detector plus own-message-only loss drives it into deciding
/// divergent estimates within one cycle — an agreement violation, caught
/// live. (The advice script is certified *in*admissible for every class
/// with completeness, and admissible, live, for `(Never, Accurate)`.)
pub fn no_completeness(domain: ValueDomain, n: usize) -> TheoremReport {
    let mut report = TheoremReport::new(
        "§5.2 remark",
        "consensus is impossible if completeness can be suspended for unknown prefixes",
    );
    assert!(n >= 2, "need at least two processes to split");
    let cycle = u64::from(domain.bits()) + 2;

    // All-null advice for one full Algorithm 2 cycle.
    let cd: Vec<Vec<CdAdvice>> = vec![vec![CdAdvice::Null; n]; cycle as usize];
    // Certification: the script violates zero completeness (there will be
    // rounds with c > 0 and T(i) = 0 and null advice) but satisfies
    // accuracy — i.e. it is admissible exactly for the no-completeness
    // class, against which the run certifies it live.
    let zero_inadmissible = !CdClass::ZERO_AC.admits(Round(1), Round(1), 2, 0, false);
    report.note(format!(
        "all-null advice at (c=2, T=0) inadmissible for 0-AC: {zero_inadmissible}"
    ));

    let values: Vec<Value> = (0..n).map(|i| Value(i as u64 % domain.size())).collect();
    let components = Script {
        cd,
        ..Script::default()
    }
    .over(Components {
        detector: Box::new(ClassDetector::perfect()),
        manager: Box::new(AllActive),
        loss: Box::new(OwnMessageOnly),
        crash: Box::new(NoCrashes),
    });
    let class = CdClass::new(Completeness::Never, Accuracy::Accurate);
    let mut run = ConsensusRun::new(
        alg2::processes(domain, &values),
        certified(components, class),
    );
    let outcome = run.run_rounds(cycle);
    let split = outcome
        .safety_violations()
        .iter()
        .any(|v| matches!(v, SafetyViolation::Agreement { .. }));
    report.note(format!(
        "Algorithm 2 under suspended completeness: decisions {:?}, agreement broken: {split}",
        outcome
            .decisions
            .iter()
            .map(|d| d.map(|v| v.0))
            .collect::<Vec<_>>()
    ));
    report.established = zero_inadmissible && split;
    report
}

/// Theorem 9: with accuracy but no delivery guarantees and no contention
/// manager, `lg |V| − 1` rounds are necessary. The driver finds two values
/// whose beta executions share a binary broadcast prefix, composes them
/// under total loss, and verifies indistinguishability plus no early
/// decision.
pub fn t9_accuracy_nocf(domain: ValueDomain, n: usize) -> TheoremReport {
    let bound = (u64::from(domain.bits())).saturating_sub(1);
    let mut report = TheoremReport::new(
        "Theorem 9",
        format!("anonymous AC/NoCM/NOCF consensus needs > lg|V| - 1 = {bound} rounds"),
    );
    let depth = 8 * (domain.bits() as usize + 2);
    let to_counts = |bits: Vec<bool>| -> Vec<BroadcastCount> {
        bits.into_iter()
            .map(|b| {
                if b {
                    BroadcastCount::TwoPlus
                } else {
                    BroadcastCount::Zero
                }
            })
            .collect()
    };
    let pair = longest_shared_prefix_pair(domain.values().collect::<Vec<_>>(), depth, |&v| {
        to_counts(
            BetaExecution::run(alg4::processes(domain, &vec![v; n]), depth as u64)
                .binary_broadcast_seq(depth),
        )
    });
    let Some((v1, v2, shared)) = pair else {
        report.note("domain too small".to_string());
        return report;
    };
    report.note(format!(
        "deepest beta-indistinguishable pair: {v1} vs {v2}, shared prefix {shared} (bound {bound})"
    ));
    let k = shared.max(1) as u64;

    // Solo betas for indistinguishability reference.
    let beta_a = BetaExecution::run(alg4::processes(domain, &vec![v1; n]), k);
    let beta_b = BetaExecution::run(alg4::processes(domain, &vec![v2; n]), k);

    // Composition: both groups together, still total loss, perfect advice.
    let mut composed = alg4::processes(domain, &vec![v1; n]);
    composed.extend(alg4::processes(domain, &vec![v2; n]));
    let mut gamma = ConsensusRun::new(
        composed,
        Components {
            detector: Box::new(ClassDetector::perfect()),
            manager: Box::new(AllActive),
            loss: Box::new(OwnMessageOnly),
            crash: Box::new(NoCrashes),
        },
    );
    let out = gamma.run_rounds(k);
    let ind_a = group_observations_equal(gamma.trace(), 0, n, &beta_a.trace, k as usize);
    let ind_b = group_observations_equal(gamma.trace(), n, n, &beta_b.trace, k as usize);
    report.note(format!(
        "composition indistinguishable from both betas: {}",
        ind_a.is_ok() && ind_b.is_ok()
    ));
    let undecided = out.first_decision().is_none();
    report.note(format!("no decision through round {k}: {undecided}"));
    report.established = shared as u64 >= bound && ind_a.is_ok() && ind_b.is_ok() && undecided;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem_4_established() {
        let r = t4_no_cd(ValueDomain::new(4), 3, 200);
        assert!(r.established, "{:#?}", r.details);
    }

    #[test]
    fn theorem_5_established() {
        let r = t5_no_acc(ValueDomain::new(4), 3, 200);
        assert!(r.established, "{:#?}", r.details);
    }

    #[test]
    fn theorem_6_established() {
        let r = t6_anon_half_ac(ValueDomain::new(64), 3);
        assert!(r.established, "{:#?}", r.details);
    }

    #[test]
    fn maj_half_gap_established() {
        let r = maj_half_gap(ValueDomain::new(4));
        assert!(r.established, "{:#?}", r.details);
    }

    #[test]
    fn no_completeness_remark_established() {
        let r = no_completeness(ValueDomain::new(8), 3);
        assert!(r.established, "{:#?}", r.details);
    }

    #[test]
    fn theorem_8_established() {
        let r = t8_ev_accuracy_nocf(ValueDomain::new(32), 3);
        assert!(r.established, "{:#?}", r.details);
    }

    #[test]
    fn theorem_9_established() {
        let r = t9_accuracy_nocf(ValueDomain::new(64), 3);
        assert!(r.established, "{:#?}", r.details);
    }
}
