//! Correctness of every pass: expected output at seed 0, a clean safety
//! scan, and pass-to-pass frame identity.
//!
//! Termination is checked at seed 0 only, through the expected output,
//! where every cell terminates. At a salted seed a cell may livelock
//! within its cap as the registry documents for `absmac/mac-*` (seed 509:
//! `absmac/mac-n8-l30-c0-zero` case 16 runs all 600 rounds); that is a
//! deterministic outcome of the workload, not a failure.

use wan_bench::sweep::{SafetyViolation, SweepSummary};
use wan_bench::ResultsFrame;

/// Lines of failure detail printed to stderr before going quiet.
const REPORT_LIMIT: usize = 20;

pub struct Checker {
    /// What each pass's summary must equal: the expected output at seed 0,
    /// otherwise the first pass's own summary.
    reference: Option<SweepSummary>,
    /// The first pass's frame fingerprint.
    fingerprint: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    reported: usize,
}

impl Checker {
    pub fn new(expected: Option<SweepSummary>) -> Checker {
        Checker {
            reference: expected,
            fingerprint: None,
            attempted: 0,
            failed: 0,
            reported: 0,
        }
    }

    pub fn reference(&self) -> Option<&SweepSummary> {
        self.reference.as_ref()
    }

    /// Records one pass: `drift` is `reference().diff(&summary)` as the
    /// pass computed it. A cell fails if it is unsafe; every cell of a
    /// spec fails if the spec's row differs from the reference, or the
    /// frame differs from the first pass's.
    pub fn record(
        &mut self,
        frame: &ResultsFrame,
        summary: SweepSummary,
        violations: &[SafetyViolation],
        drift: &[String],
    ) {
        let fingerprint = frame.fingerprint();
        let same_frame = *self.fingerprint.get_or_insert(fingerprint) == fingerprint;
        let reference = self.reference.get_or_insert_with(|| summary.clone());
        let same_shape = reference.specs.len() == summary.specs.len();
        let failed: u64 = summary
            .specs
            .iter()
            .enumerate()
            .map(|(i, row)| {
                if same_frame && same_shape && reference.specs[i] == *row {
                    row.cells - row.safe
                } else {
                    row.cells
                }
            })
            .sum();
        self.attempted += frame.cell_count() as u64;
        self.failed += failed;
        if !same_frame {
            self.report(format!(
                "frame fingerprint {fingerprint:016x} differs from the first pass's"
            ));
        }
        for line in drift {
            self.report(line.clone());
        }
        for violation in violations {
            self.report(format!("safety violation: {violation}"));
        }
    }

    /// Counts `failed` of `cells` cells checked outside a full pass.
    pub fn record_cells(&mut self, cells: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += cells;
        self.failed += failed;
        if failed > 0 {
            self.report(what());
        }
    }

    fn report(&mut self, line: String) {
        if self.reported < REPORT_LIMIT {
            eprintln!("sweepbench: FAILED: {line}");
        }
        self.reported += 1;
    }
}
