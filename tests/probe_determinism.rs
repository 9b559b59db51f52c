//! Probe determinism: the contracts the composable observation API adds
//! on top of the sweep substrate's replay guarantees.
//!
//! 1. Serial and work-stealing parallel sweeps produce **byte-identical**
//!    [`ResultsFrame`]s — equal frames, same fingerprint — for arbitrary
//!    spec subsets and thread counts (proptest).
//! 2. A probe's output is a pure function of `(spec, case)`: re-running a
//!    cell, in any order, through any entry point, yields the identical
//!    metric row. (The cross-*process* half of this contract is pinned by
//!    `crates/bench/tests/check_mode.rs`, which compares `metrics`
//!    stdout bytes across separate `run_experiments` invocations at one
//!    and at four worker threads.)

use ccwan::bench::sweep::{MetricId, ProbeManifest, Registry};
use ccwan::bench::{Scale, SweepRunner};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any subset of the standard registry, swept serially and with 2–8
    /// worker threads, assembles byte-identical frames.
    #[test]
    fn serial_and_parallel_frames_are_byte_identical(
        start in 0usize..40,
        len in 1usize..4,
        threads in 2usize..8,
    ) {
        let registry = Registry::standard(Scale::Quick);
        let all = registry.specs();
        let start = start.min(all.len() - 1);
        let end = (start + len).min(all.len());
        let specs = &all[start..end];

        let serial = SweepRunner::serial().run_fresh(specs);
        let parallel = SweepRunner::with_threads(threads).run_fresh(specs);
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(serial.fingerprint(), parallel.fingerprint());
    }
}

/// Replaying one cell — directly or inside a sweep — always yields the
/// identical metric row.
#[test]
fn probe_output_is_a_pure_function_of_spec_and_case() {
    let registry = Registry::standard(Scale::Quick);
    for prefix in ["lattice/", "alg2/", "bst/", "phy/"] {
        let spec = registry
            .specs()
            .iter()
            .find(|s| s.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("registry has a {prefix} spec"));
        for case in 0..2 {
            let direct = spec.run_cell(7, case);
            let again = spec.run_cell(7, case);
            assert_eq!(direct, again, "{} case {case} replay", spec.name);
        }
        // The same cell inside a sweep carries the same metrics.
        let frame = SweepRunner::with_threads(3).run_fresh(std::slice::from_ref(spec));
        let from_sweep = frame.spec(0).row(1);
        assert_eq!(
            from_sweep,
            spec.run_cell(0, 1).metrics,
            "{}: sweep-assembled row diverged from direct execution",
            spec.name
        );
    }
}

/// The frame fingerprint moves when any probe metric moves: two specs
/// differing only in probe manifest produce frames with different
/// fingerprints (columns differ), while their five core columns agree.
#[test]
fn frame_fingerprint_covers_probe_columns() {
    let spec = Registry::standard(Scale::Quick)
        .specs()
        .iter()
        .find(|s| s.name.starts_with("lattice/"))
        .expect("lattice spec")
        .clone();
    let mut outcome_only = spec.clone();
    outcome_only.probes = ProbeManifest::outcome_only();

    let rich = SweepRunner::serial().run_fresh(std::slice::from_ref(&spec));
    let lean = SweepRunner::serial().run_fresh(std::slice::from_ref(&outcome_only));
    assert_ne!(
        rich.fingerprint(),
        lean.fingerprint(),
        "dropping probe columns must change the frame fingerprint"
    );
    let core = [
        MetricId::Reference,
        MetricId::LastDecision,
        MetricId::Terminated,
        MetricId::Safe,
        MetricId::RoundsExecuted,
    ];
    assert_eq!(rich.spec(0).cases(), lean.spec(0).cases());
    assert_eq!(rich.spec(0).seeds(), lean.spec(0).seeds());
    for id in core {
        assert!(rich.spec(0).column(id).is_some(), "{id} column");
        assert_eq!(
            rich.spec(0).column(id),
            lean.spec(0).column(id),
            "the core measurements must not depend on the probe selection ({id})"
        );
    }
    assert!(rich.spec(0).column(MetricId::BroadcastsTotal).is_some());
    assert!(lean.spec(0).column(MetricId::BroadcastsTotal).is_none());
}
