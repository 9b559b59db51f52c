//! The two-group composition of Lemma 23.
//!
//! Given alpha executions `α_P(v)` and `α_P'(v')` with the same basic
//! broadcast count sequence through round `k`, Lemma 23 constructs a single
//! execution `γ` over `P ∪ P'` — cross-group messages lost, intra-group
//! deliveries following the alpha rule, collision advice replayed from the
//! alphas, the contention manager designating `min(P)` and `min(P')` for
//! `k` rounds — that is:
//!
//! * admissible for a **half-AC** detector and a leader-election service
//!   (certified here by checking every advice `γ` records against
//!   `CdClass::admits`, and by construction of the CM script),
//! * satisfies eventual collision freedom (loss heals at `k+1`), and
//! * indistinguishable from each alpha, for that alpha's group, through
//!   round `k` (checked here observation-by-observation).
//!
//! Consequence (Theorems 6/7): if the algorithm decided within `k` rounds
//! in the alphas, `γ` would decide both `v` and `v'` — so a correct
//! algorithm cannot decide that fast. Running the composition against a
//! *correct* algorithm shows no decision through `k`; against a strawman,
//! the checker reports the agreement violation.

use crate::alpha::AlphaExecution;
use crate::indist::group_observations_equal;
use ccwan_core::{ConsensusAutomaton, ConsensusOutcome, ConsensusRun};
use wan_cd::{CdClass, ClassDetector};
use wan_cm::{LeaderElectionService, PreStabilization};
use wan_sim::crash::NoCrashes;
use wan_sim::loss::{IntraGroupRule, PartitionLoss};
use wan_sim::{CdAdvice, CmAdvice, Components, ExecutionTrace, ProcessId, Round, Script};

/// What the composition construction established.
#[derive(Debug)]
pub struct CompositionReport {
    /// The prefix length `k` the construction covers.
    pub k: usize,
    /// Whether the two alpha executions really share their broadcast-count
    /// prefix (the Lemma 23 precondition).
    pub prefixes_match: bool,
    /// Whether each group's view of `γ` matched its alpha through `k`
    /// (`None` = matched; `Some(description)` = the first mismatch).
    pub indistinguishability_failure: Option<String>,
    /// Process-rounds of `γ` whose advice the declared detector class does
    /// not admit (certification that `γ`'s advice lies within
    /// `MAXCD(class)`; must be 0).
    pub detector_violations: usize,
    /// Whether any process of `γ` decided within the first `k` rounds.
    pub decided_within_k: bool,
    /// The judged outcome of `γ` after `k` rounds.
    pub outcome: ConsensusOutcome,
}

impl CompositionReport {
    /// The Lemma 23 conclusion for a *correct* algorithm: the construction
    /// is valid and nobody decided through `k`.
    pub fn establishes_lower_bound(&self) -> bool {
        self.prefixes_match
            && self.indistinguishability_failure.is_none()
            && self.detector_violations == 0
            && !self.decided_within_k
    }
}

/// Builds and verifies the Lemma 23 composition for two process groups.
///
/// `build_a()`/`build_b()` must produce fresh, equally sized process
/// vectors (group `P` with value `v`, group `P'` with value `v'`). `class`
/// is the detector class the scripted advice is certified against
/// (`CdClass::HALF_AC` for the Theorem 6/7 constructions).
pub fn compose_and_verify<A, FA, FB>(
    build_a: FA,
    build_b: FB,
    k: usize,
    class: CdClass,
) -> CompositionReport
where
    A: ConsensusAutomaton,
    A::Msg: Eq,
    FA: Fn() -> Vec<A>,
    FB: Fn() -> Vec<A>,
{
    let group_a = build_a();
    let group_b = build_b();
    let n = group_a.len();
    assert_eq!(n, group_b.len(), "groups must be equally sized");
    assert!(n >= 1 && k >= 1, "need at least one process and one round");

    // 1. The solo alpha executions.
    let alpha_a = AlphaExecution::run(group_a, k as u64);
    let alpha_b = AlphaExecution::run(group_b, k as u64);
    let prefixes_match = alpha_a.broadcast_seq(k) == alpha_b.broadcast_seq(k);

    // 2. Scripted collision advice: each group sees exactly its alpha's
    //    advice (Lemma 23, item 3 of the γ definition).
    let cd: Vec<Vec<CdAdvice>> = (0..k)
        .map(|r| {
            let round = Round(r as u64 + 1);
            let mut advice = alpha_a
                .trace
                .round(round)
                .expect("alpha round")
                .cd()
                .to_vec();
            advice.extend(alpha_b.trace.round(round).expect("alpha round").cd().iter());
            advice
        })
        .collect();

    // 3. Scripted contention advice: min(P) and min(P') active for the
    //    prefix (each group sees a single active process — its alpha's
    //    leader), then a leader election service on min(P) (item 4).
    let cm = group_leaders(n, k);

    // 4. Loss: alpha rule within each group, total loss across, healing at
    //    k+1 so γ satisfies eventual collision freedom (item 2).
    let loss =
        PartitionLoss::two_groups(2 * n, n, IntraGroupRule::Solo).healing_from(Round(k as u64 + 1));

    let mut composed_procs = build_a();
    composed_procs.extend(build_b());
    let components = Script {
        cm,
        cd,
        ..Script::default()
    }
    .over(Components {
        detector: Box::new(ClassDetector::perfect()),
        manager: Box::new(LeaderElectionService::new(
            Round(k as u64 + 1),
            ProcessId(0),
            PreStabilization::AllPassive,
            0,
        )),
        loss: Box::new(loss),
        crash: Box::new(NoCrashes),
    });
    let mut run = ConsensusRun::new(composed_procs, components);
    let outcome = run.run_rounds(k as u64);

    // 5. Indistinguishability of γ from each alpha (Definition 12).
    let indist_a = group_observations_equal(run.trace(), 0, n, &alpha_a.trace, k);
    let indist_b = group_observations_equal(run.trace(), n, n, &alpha_b.trace, k);
    let indistinguishability_failure = match (indist_a, indist_b) {
        (Ok(()), Ok(())) => None,
        (Err((p, m)), _) => Some(format!("group A process {p}: {m}")),
        (_, Err((p, m))) => Some(format!("group B process {p}: {m}")),
    };

    let decided_within_k = outcome.decisions.iter().any(|d| d.is_some());

    let detector_violations = inadmissible_advice(run.trace(), class);

    CompositionReport {
        k,
        prefixes_match,
        indistinguishability_failure,
        detector_violations,
        decided_within_k,
        outcome,
    }
}

/// `k` rounds of contention advice over two groups of `n` processes each:
/// the first process of each group active, everyone else passive.
pub(crate) fn group_leaders(n: usize, k: usize) -> Vec<Vec<CmAdvice>> {
    let mut advice = vec![CmAdvice::Passive; 2 * n];
    advice[0] = CmAdvice::Active;
    advice[n] = CmAdvice::Active;
    vec![advice; k]
}

/// Counts the process-rounds of `trace` whose collision advice `class`
/// does not admit for that round's `(c, T(i))`, with accuracy required
/// from round 1: zero certifies that the advice is a behaviour of
/// `MAXCD(class)`.
fn inadmissible_advice<M: Ord>(trace: &ExecutionTrace<M>, class: CdClass) -> usize {
    trace
        .rounds()
        .map(|view| {
            let c = view.sent_count();
            view.received_counts()
                .iter()
                .zip(view.cd())
                .filter(|&(&t, advice)| {
                    !class.admits(view.round(), Round::FIRST, c, t, advice.is_collision())
                })
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequences::{lemma21_depth, longest_shared_prefix_pair};
    use ccwan_core::alg2;
    use ccwan_core::strawman::CdBlindOptimist;
    use ccwan_core::{Value, ValueDomain};
    use wan_sim::trace::RoundRecord;

    #[test]
    fn alg2_composition_establishes_lower_bound() {
        let domain = ValueDomain::new(64);
        let n = 3;
        let depth = 4 * (domain.bits() as usize + 2);
        let (v1, v2, shared) =
            longest_shared_prefix_pair(domain.values().collect::<Vec<_>>(), depth, |&v| {
                AlphaExecution::run(alg2::processes(domain, &vec![v; n]), depth as u64)
                    .broadcast_seq(depth)
            })
            .unwrap();
        assert!(shared >= lemma21_depth(domain));
        let k = shared.max(1);
        let report = compose_and_verify(
            || alg2::processes(domain, &vec![v1; n]),
            || alg2::processes(domain, &vec![v2; n]),
            k,
            CdClass::HALF_AC,
        );
        assert!(report.prefixes_match, "chosen pair must share prefix");
        assert!(
            report.indistinguishability_failure.is_none(),
            "{:?}",
            report.indistinguishability_failure
        );
        assert_eq!(report.detector_violations, 0);
        assert!(
            !report.decided_within_k,
            "Algorithm 2 must not decide early"
        );
        assert!(report.establishes_lower_bound());
    }

    #[test]
    fn strawman_composition_breaks_agreement() {
        // The CD-blind strawman decides in its alpha by round 2; composing
        // two such alphas yields a live agreement violation.
        let domain = ValueDomain::new(4);
        let n = 2;
        let report = compose_and_verify(
            || {
                (0..n)
                    .map(|_| CdBlindOptimist::new(domain, Value(1)))
                    .collect()
            },
            || {
                (0..n)
                    .map(|_| CdBlindOptimist::new(domain, Value(2)))
                    .collect()
            },
            4,
            CdClass::HALF_AC,
        );
        assert!(report.prefixes_match);
        assert!(report.decided_within_k);
        assert!(
            !report.outcome.is_safe(),
            "expected an agreement violation: {:?}",
            report.outcome.decisions
        );
    }

    #[test]
    fn inadmissible_advice_counts_each_rejected_process_round() {
        // p0 and p1 broadcast in both rounds (c = 2) and p2 listens. Round
        // 1: each broadcaster hears only itself and p2 hears nothing but is
        // told `±`, all of which half-AC admits. Round 2: the broadcasters
        // hear both messages, and p2 hears nothing (T(i) = 0) yet is told
        // `null`: the one advice half-AC rejects.
        let record = |round: u64, received_counts: Vec<usize>, p2: CdAdvice| RoundRecord {
            round: Round(round),
            cm: vec![CmAdvice::Active, CmAdvice::Active, CmAdvice::Passive],
            sent: vec![Some(0u8), Some(1), None],
            cd: vec![CdAdvice::Null, CdAdvice::Null, p2],
            received_counts,
            received: None,
            crashed: vec![],
            alive: vec![true; 3],
        };
        let mut trace = ExecutionTrace::new(3);
        trace.push_record(record(1, vec![1, 1, 0], CdAdvice::Collision));
        trace.push_record(record(2, vec![2, 2, 0], CdAdvice::Null));
        assert_eq!(inadmissible_advice(&trace, CdClass::HALF_AC), 1);
        // Full completeness also rejects round 1's `null` to each
        // broadcaster, which lost one of the two messages.
        assert_eq!(inadmissible_advice(&trace, CdClass::AC), 3);
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn unequal_groups_rejected() {
        let domain = ValueDomain::new(4);
        let _ = compose_and_verify(
            || alg2::processes(domain, &[Value(0)]),
            || alg2::processes(domain, &[Value(1), Value(1)]),
            2,
            CdClass::HALF_AC,
        );
    }
}
