//! Engine and sweep determinism: the same `(ScenarioSpec, case)` cell must
//! replay byte-identically, and a parallel sweep must equal the serial one
//! cell for cell. These are the contracts the scenario-sweep subsystem is
//! built on — without them, parallel experiment tables would be
//! unreproducible.

use ccwan::bench::sweep::spec::{alg2_staircase_specs, bst_nocf_specs, lattice_specs};
use ccwan::bench::sweep::{CellRow, MetricId, MetricValue};
use ccwan::bench::Scale;
use ccwan::bench::{Registry, SweepRunner};

/// The outcome metrics every probe manifest emits (`ProbeKind::Core`).
const CORE: [MetricId; 5] = [
    MetricId::Reference,
    MetricId::LastDecision,
    MetricId::Terminated,
    MetricId::Safe,
    MetricId::RoundsExecuted,
];

fn core_of(row: &CellRow) -> [Option<MetricValue>; 5] {
    CORE.map(|id| row.metrics.get(id))
}

/// Same spec + same case ⇒ byte-identical execution trace (full detail,
/// every round record, every receive multiset).
#[test]
fn same_cell_replays_byte_identical_traces() {
    let registry = Registry::standard(Scale::Quick);
    // One representative of each environment/algorithm family.
    let picks: Vec<_> = ["lattice/", "alg2/", "alg3/", "bst/"]
        .iter()
        .map(|prefix| {
            registry
                .specs()
                .iter()
                .find(|s| s.name.starts_with(prefix))
                .unwrap_or_else(|| panic!("registry has a {prefix} spec"))
        })
        .collect();
    for spec in picks {
        for case in 0..2 {
            let first = spec.trace_fingerprint(case);
            let second = spec.trace_fingerprint(case);
            assert!(
                !first.is_empty(),
                "{}: fingerprint must capture the execution",
                spec.name
            );
            assert_eq!(
                first, second,
                "{} case {case}: trace replay diverged",
                spec.name
            );
        }
    }
}

/// The standard manifest and the core outcome agree: a standard-manifest
/// cell's five core metrics equal those of the outcome-only run of the
/// same cell.
#[test]
fn traced_by_default_cells_preserve_the_legacy_core_fields() {
    let registry = Registry::standard(Scale::Quick);
    for prefix in ["lattice/", "alg2/", "bst/"] {
        let spec = registry
            .specs()
            .iter()
            .find(|s| s.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("registry has a {prefix} spec"));
        let mut outcome_only = spec.clone();
        outcome_only.probes = ccwan::bench::sweep::ProbeManifest::outcome_only();
        for case in 0..2 {
            assert_eq!(
                core_of(&spec.run_cell(0, case)),
                core_of(&outcome_only.run_cell(0, case)),
                "{} case {case}: probe manifest changed the measured outcome",
                spec.name
            );
        }
    }
}

/// Different cells of one spec see different RNG seeds (no accidental
/// cross-cell coupling).
#[test]
fn cells_are_independently_seeded() {
    let spec = &lattice_specs(Scale::Quick)[0];
    let seeds: Vec<u64> = (0..16).map(|k| spec.cell_seed(k)).collect();
    let mut dedup = seeds.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), seeds.len(), "cell seeds collide");
}

/// Serial vs. 4-way-parallel sweep over the full lattice family: identical
/// result tables, cell for cell.
#[test]
fn serial_and_parallel_lattice_sweeps_are_identical() {
    let specs = lattice_specs(Scale::Quick);
    let serial = SweepRunner::serial().run_fresh(&specs);
    let parallel = SweepRunner::with_threads(4).run_fresh(&specs);
    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
    // And the derived per-spec statistics agree.
    for (i, spec) in specs.iter().enumerate() {
        assert_eq!(
            serial.worst_rounds_past(i),
            parallel.worst_rounds_past(i),
            "spec {i} ({})",
            spec.name
        );
    }
}

/// The same holds across environment families (ECF staircase + NOCF with
/// scheduled crashes) and thread counts.
#[test]
fn parallel_sweeps_agree_across_families_and_thread_counts() {
    let mut specs = alg2_staircase_specs(Scale::Quick);
    specs.truncate(3);
    specs.extend(bst_nocf_specs(Scale::Quick).into_iter().take(2));
    let reference = SweepRunner::serial().run_fresh(&specs);
    for threads in [2, 4, 8] {
        let parallel = SweepRunner::with_threads(threads).run_fresh(&specs);
        assert_eq!(
            reference, parallel,
            "{threads}-thread sweep diverged from serial"
        );
    }
}
