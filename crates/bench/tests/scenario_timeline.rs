//! Contracts of the fault-injection scenario timelines, end to end:
//!
//! * **Compilation is pure.** A [`ScenarioTimeline`] compiles to the same
//!   dense per-round schedule every time, for arbitrary (proptest-drawn)
//!   event sets, and the compiled schedule agrees with the declarative
//!   entry list round for round.
//! * **An empty timeline is structurally absent.** The cell rows and the
//!   engine execution are bit-identical to the pre-timeline static path,
//!   so no existing golden file moves.
//! * **Churn sweeps are order-independent.** Serial and parallel runs of
//!   the `churn/*` family produce byte-identical [`ResultsFrame`]s — the
//!   same determinism contract every static family already obeys, now
//!   under mid-run crash bursts, loss swaps, partitions, and detector
//!   degradation.

use proptest::prelude::*;
use wan_bench::sweep::spec::churn_specs;
use wan_bench::sweep::{scan_safety, ScenarioSpec};
use wan_bench::{Scale, SweepRunner};
use wan_sim::{Round, ScenarioEvent, ScenarioTimeline};

/// Every event constructor, driven off a small drawn tuple.
fn arb_event() -> impl Strategy<Value = ScenarioEvent> {
    (0u8..7, 0u32..4, 0usize..4).prop_map(|(kind, small, idx)| match kind {
        0 => ScenarioEvent::CrashBurst { count: small + 1 },
        1 => ScenarioEvent::WakeWave { count: small + 1 },
        2 => ScenarioEvent::SetLossRate {
            p: f64::from(small) / 4.0,
        },
        3 => ScenarioEvent::Split { boundary: idx + 1 },
        4 => ScenarioEvent::Heal,
        5 => ScenarioEvent::CdSwitch { slot: small as u8 },
        _ => ScenarioEvent::ContentionShift {
            p: f64::from(small) / 4.0,
        },
    })
}

fn timeline_of(entries: &[(u64, ScenarioEvent)]) -> ScenarioTimeline {
    entries.iter().fold(ScenarioTimeline::new(), |t, &(r, e)| {
        t.at_round(Round(r), e)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compiling is a pure function of the entry list, and the compiled
    /// schedule delivers exactly the declared events at exactly the
    /// declared rounds, in insertion order within a round.
    #[test]
    fn compilation_is_pure_and_faithful(
        entries in proptest::collection::vec((1u64..200, arb_event()), 0..12),
    ) {
        let timeline = timeline_of(&entries);
        let once = timeline.compile();
        let again = timeline.compile();
        for round in 0..210 {
            let at: Vec<ScenarioEvent> = once.events_at(Round(round)).to_vec();
            prop_assert_eq!(&at, again.events_at(Round(round)), "round {}", round);
            let declared: Vec<ScenarioEvent> = entries
                .iter()
                .filter(|&&(r, _)| r == round)
                .map(|&(_, e)| e)
                .collect();
            prop_assert_eq!(at, declared, "round {}", round);
        }
    }
}

/// A fixed churn spec re-timelined.
fn spec_with(timeline: ScenarioTimeline) -> ScenarioSpec {
    let mut spec = churn_specs(Scale::Quick)
        .into_iter()
        .find(|s| s.name == "churn/static-baseline")
        .expect("baseline churn spec exists");
    spec.timeline = timeline;
    spec
}

/// An empty timeline is structurally absent: the spec runs exactly as it
/// did before the timeline field existed.
#[test]
fn empty_timeline_is_bit_identical_to_the_static_path() {
    let baseline = spec_with(ScenarioTimeline::new());
    // Round-trip through a non-empty timeline and back.
    let mut cleared = spec_with(ScenarioTimeline::new().at_round(Round(3), ScenarioEvent::Heal));
    cleared.timeline = ScenarioTimeline::new();
    assert_eq!(baseline.run_cell(0, 0), cleared.run_cell(0, 0));
    assert_eq!(baseline.run_cell(0, 1), cleared.run_cell(0, 1));
}

/// Serial and parallel churn sweeps produce byte-identical frames, and
/// every injected-fault cell stays safe (the same invariant the sweep-wide
/// gate enforces in `check`).
#[test]
fn churn_sweeps_are_order_independent_and_safe() {
    let specs = churn_specs(Scale::Quick);
    let serial = SweepRunner::serial().run_fresh(&specs);
    let parallel = SweepRunner::with_threads(4).run_fresh(&specs);
    assert_eq!(
        serial.fingerprint(),
        parallel.fingerprint(),
        "serial and parallel churn sweeps must be byte-identical"
    );
    assert_eq!(serial, parallel);
    assert!(
        scan_safety(&specs, &serial).is_empty(),
        "no injected schedule may break agreement/validity"
    );
    // And every cell still decides within its cap.
    assert!(serial
        .specs()
        .iter()
        .all(|spec| spec.core().terminated.iter().all(|&done| done)));
}
