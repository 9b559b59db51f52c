//! The columnar sweep result frame: struct-of-arrays metric columns per
//! spec, mirroring the trace arena's representation discipline.
//!
//! A [`ResultsFrame`] holds, per spec, one typed column per [`MetricId`]
//! the spec's probe manifest emitted ([`MetricColumn`] — `Vec<u64>`,
//! `Vec<Option<u64>>`, …), plus the cell coordinate columns (case,
//! derived seed). Summary and percentile accessors on the columns serve
//! the golden gate and the experiment tables. A cell's outcome is read
//! through one typed view, [`SpecFrame::core`]: the four core columns
//! every manifest emits ([`CoreColumns`]).
//!
//! Frames are deterministic down to the byte: columns are in ascending
//! [`MetricId`] order, rows in cell order, and every value is an exact
//! integer/bool — frame equality and [`ResultsFrame::fingerprint`] are
//! what the determinism suite pins across serial/parallel runs and across
//! processes.

use super::probe::{MetricId, MetricRow, MetricValue};
use super::spec::{CellRow, ScenarioSpec};
use wan_sim::fingerprint::{absorb_debug, StableHasher};

/// One metric across all cells of a spec, stored as a typed array. The
/// variant is fixed by the first cell's value (every cell of a spec emits
/// the same metric set with the same types — the probes are deterministic
/// per manifest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricColumn {
    /// Unsigned counts / round numbers.
    U64(Vec<u64>),
    /// Signed quantities.
    I64(Vec<i64>),
    /// Flags.
    Bool(Vec<bool>),
    /// Optional round numbers.
    OptU64(Vec<Option<u64>>),
    /// Optional signed quantities.
    OptI64(Vec<Option<i64>>),
}

impl MetricColumn {
    fn for_value(value: MetricValue) -> MetricColumn {
        match value {
            MetricValue::U64(_) => MetricColumn::U64(Vec::new()),
            MetricValue::I64(_) => MetricColumn::I64(Vec::new()),
            MetricValue::Bool(_) => MetricColumn::Bool(Vec::new()),
            MetricValue::OptU64(_) => MetricColumn::OptU64(Vec::new()),
            MetricValue::OptI64(_) => MetricColumn::OptI64(Vec::new()),
        }
    }

    fn push(&mut self, value: MetricValue) {
        match (self, value) {
            (MetricColumn::U64(col), MetricValue::U64(v)) => col.push(v),
            (MetricColumn::I64(col), MetricValue::I64(v)) => col.push(v),
            (MetricColumn::Bool(col), MetricValue::Bool(v)) => col.push(v),
            (MetricColumn::OptU64(col), MetricValue::OptU64(v)) => col.push(v),
            (MetricColumn::OptI64(col), MetricValue::OptI64(v)) => col.push(v),
            _ => panic!("metric changed type across cells of one spec"),
        }
    }

    /// Number of cells in the column.
    pub fn len(&self) -> usize {
        match self {
            MetricColumn::U64(col) => col.len(),
            MetricColumn::I64(col) => col.len(),
            MetricColumn::Bool(col) => col.len(),
            MetricColumn::OptU64(col) => col.len(),
            MetricColumn::OptI64(col) => col.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value of cell `idx`, back in row form.
    pub fn value(&self, idx: usize) -> MetricValue {
        match self {
            MetricColumn::U64(col) => MetricValue::U64(col[idx]),
            MetricColumn::I64(col) => MetricValue::I64(col[idx]),
            MetricColumn::Bool(col) => MetricValue::Bool(col[idx]),
            MetricColumn::OptU64(col) => MetricValue::OptU64(col[idx]),
            MetricColumn::OptI64(col) => MetricValue::OptI64(col[idx]),
        }
    }

    /// The present (non-`None`) values as exact signed integers
    /// (`true` = 1), in cell order.
    pub fn present(&self) -> impl Iterator<Item = i128> + '_ {
        (0..self.len()).filter_map(move |i| self.value(i).as_i128())
    }

    /// Number of present values.
    pub fn count_present(&self) -> u64 {
        self.present().count() as u64
    }

    /// Sum of the present values.
    pub fn sum(&self) -> i128 {
        self.present().sum()
    }

    /// Minimum present value, if any.
    pub fn min(&self) -> Option<i128> {
        self.present().min()
    }

    /// Maximum present value, if any.
    pub fn max(&self) -> Option<i128> {
        self.present().max()
    }

    /// Mean of the present values, if any.
    pub fn mean(&self) -> Option<f64> {
        let count = self.count_present();
        (count > 0).then(|| self.sum() as f64 / count as f64)
    }

    /// Nearest-rank percentile (`p` in 0..=100) over the present values.
    /// `p = 50` is the median; `p = 100` the maximum.
    pub fn percentile(&self, p: u32) -> Option<i128> {
        assert!(p <= 100, "percentile out of range");
        let mut values: Vec<i128> = self.present().collect();
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        let rank = ((p as usize) * values.len()).div_ceil(100).max(1) - 1;
        Some(values[rank.min(values.len() - 1)])
    }
}

/// All cells of one spec, as columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFrame {
    /// The spec's registry name.
    name: String,
    /// Case indices, in cell order.
    cases: Vec<u64>,
    /// Derived RNG seeds, in cell order.
    seeds: Vec<u64>,
    /// Metric columns, ascending [`MetricId`].
    columns: Vec<(MetricId, MetricColumn)>,
}

impl SpecFrame {
    fn new(name: &str) -> SpecFrame {
        SpecFrame {
            name: name.to_string(),
            cases: Vec::new(),
            seeds: Vec::new(),
            columns: Vec::new(),
        }
    }

    fn push_row(&mut self, row: &CellRow) {
        if self.cases.is_empty() {
            self.columns = row
                .metrics
                .iter()
                .map(|(id, value)| (id, MetricColumn::for_value(value)))
                .collect();
        } else {
            assert_eq!(
                self.columns.len(),
                row.metrics.len(),
                "{}: cells emitted different metric sets",
                self.name
            );
        }
        self.cases.push(row.case);
        self.seeds.push(row.cell_seed);
        for ((col_id, column), (row_id, value)) in self.columns.iter_mut().zip(row.metrics.iter()) {
            assert_eq!(*col_id, row_id, "{}: metric ids diverged", self.name);
            column.push(value);
        }
    }

    /// The spec's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the spec contributed no cells.
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Case indices, in cell order.
    pub fn cases(&self) -> &[u64] {
        &self.cases
    }

    /// Derived RNG seeds, in cell order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The column of `id`, if the spec's manifest emitted it.
    pub fn column(&self, id: MetricId) -> Option<&MetricColumn> {
        self.columns
            .iter()
            .find(|(col_id, _)| *col_id == id)
            .map(|(_, col)| col)
    }

    /// The core outcome columns, typed. A spec with no cells has empty
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics naming the spec if a core column is missing or mistyped.
    /// Sweep frames always have them: every manifest selects
    /// [`ProbeKind::Core`](super::probe::ProbeKind::Core).
    pub fn core(&self) -> CoreColumns<'_> {
        if self.is_empty() {
            return CoreColumns::default();
        }
        let missing =
            |id: MetricId| -> ! { panic!("core metric {id} missing from spec `{}`", self.name) };
        let Some(MetricColumn::U64(reference)) = self.column(MetricId::Reference) else {
            missing(MetricId::Reference)
        };
        let Some(MetricColumn::OptU64(last_decision)) = self.column(MetricId::LastDecision) else {
            missing(MetricId::LastDecision)
        };
        let Some(MetricColumn::Bool(terminated)) = self.column(MetricId::Terminated) else {
            missing(MetricId::Terminated)
        };
        let Some(MetricColumn::Bool(safe)) = self.column(MetricId::Safe) else {
            missing(MetricId::Safe)
        };
        CoreColumns {
            reference,
            last_decision,
            terminated,
            safe,
        }
    }

    /// Cell `idx`'s metrics, reassembled into a row.
    pub fn row(&self, idx: usize) -> MetricRow {
        let mut row = MetricRow::new();
        for (id, column) in &self.columns {
            row.set(*id, column.value(idx));
        }
        row
    }

    /// A stable digest over every cell of the spec: coordinates plus the
    /// full metric columns. Independent of the spec's position in the
    /// sweep; sensitive to any single value.
    pub fn digest(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.cases.len());
        for (&case, &seed) in self.cases.iter().zip(&self.seeds) {
            h.write_u64(case);
            h.write_u64(seed);
        }
        h.write_usize(self.columns.len());
        for (id, column) in &self.columns {
            h.write_bytes(id.name().as_bytes());
            absorb_debug(&mut h, column);
        }
        h.finish()
    }
}

/// One spec's core outcome columns, borrowed from its [`SpecFrame`]
/// ([`SpecFrame::core`]): the measurement reference, the last decision,
/// termination and safety of every cell, in cell order. The golden
/// summary, the safety scan and the experiment tables read a cell's
/// outcome through this view only.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreColumns<'a> {
    /// The measurement reference round: declared CST (ECF) or the round
    /// failures cease (NOCF).
    pub reference: &'a [u64],
    /// The last decision round, if every correct process decided.
    pub last_decision: &'a [Option<u64>],
    /// Whether every correct process decided within the cap.
    pub terminated: &'a [bool],
    /// Whether agreement/validity held.
    pub safe: &'a [bool],
}

impl CoreColumns<'_> {
    /// The worst (max) rounds past the reference at the last decision,
    /// over the deciding cells; `None` if no cell decided.
    ///
    /// **Saturating:** a decision that lands *before* the reference round
    /// counts as 0, the same as a decision exactly at it. The
    /// [`MetricId::DecisionLatency`] column carries the signed distance.
    pub fn worst_rounds_past(&self) -> Option<u64> {
        self.last_decision
            .iter()
            .zip(self.reference)
            .filter_map(|(decision, &reference)| decision.map(|d| d.saturating_sub(reference)))
            .max()
    }
}

/// The outcome of a sweep: one [`SpecFrame`] per input spec, in spec
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultsFrame {
    specs: Vec<SpecFrame>,
}

impl ResultsFrame {
    /// Assembles a frame from executed cell rows in canonical cell order
    /// (spec-major, then case) — the shape every sweep produces.
    pub fn from_rows(specs: &[ScenarioSpec], rows: Vec<CellRow>) -> ResultsFrame {
        let mut frames: Vec<SpecFrame> = specs.iter().map(|s| SpecFrame::new(&s.name)).collect();
        for row in &rows {
            frames[row.spec_index].push_row(row);
        }
        ResultsFrame { specs: frames }
    }

    /// The per-spec frames, in spec order.
    pub fn specs(&self) -> &[SpecFrame] {
        &self.specs
    }

    /// The frame of spec `spec_index`.
    pub fn spec(&self, spec_index: usize) -> &SpecFrame {
        &self.specs[spec_index]
    }

    /// Total cells across all specs.
    pub fn cell_count(&self) -> usize {
        self.specs.iter().map(SpecFrame::len).sum()
    }

    /// The worst rounds past the measurement reference across a spec's
    /// cells ([`CoreColumns::worst_rounds_past`], 0 if none decided).
    /// Panics on any safety violation or non-termination, naming the cell
    /// (`` spec `name` case N seed 0x… ``, as a `SafetyViolation` prints
    /// it), so experiment tables can't silently hide broken runs.
    pub fn worst_rounds_past(&self, spec_index: usize) -> u64 {
        let spec = &self.specs[spec_index];
        assert!(!spec.is_empty(), "spec `{}` has no cells", spec.name);
        let core = spec.core();
        for idx in 0..spec.len() {
            let cell = || {
                format!(
                    "spec `{}` case {} seed {:#018x}",
                    spec.name, spec.cases[idx], spec.seeds[idx]
                )
            };
            assert!(core.safe[idx], "safety violation in {}", cell());
            assert!(core.terminated[idx], "non-termination in {}", cell());
        }
        core.worst_rounds_past().unwrap_or(0)
    }

    /// A stable 64-bit fingerprint of the whole frame (all specs, all
    /// columns) — what the cross-process determinism tests compare.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_usize(self.specs.len());
        for spec in &self.specs {
            h.write_bytes(spec.name.as_bytes());
            h.write_u64(spec.digest());
        }
        h.finish()
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::sweep::spec::lattice_specs;
    use crate::sweep::SweepRunner;
    use crate::Scale;

    /// Rebuilds cell `idx`'s row with `id` set to `value` (a sealed row
    /// is append-only, and a second `id` entry would not column-ize).
    pub(crate) fn forge(rows: &mut [CellRow], idx: usize, id: MetricId, value: MetricValue) {
        let mut forged = MetricRow::new();
        for (row_id, row_value) in rows[idx].metrics.iter() {
            forged.set(row_id, if row_id == id { value } else { row_value });
        }
        rows[idx].metrics = forged;
    }

    /// Three cells of a renamed lattice spec, with cell 1's `id` forged to
    /// `value`.
    fn forged_frame(id: MetricId, value: MetricValue) -> ResultsFrame {
        let specs = [ScenarioSpec {
            name: "lattice/forged".to_string(),
            ..lattice_specs(Scale::Quick)[0].clone()
        }];
        let mut rows: Vec<CellRow> = (0..3).map(|case| specs[0].run_cell(0, case)).collect();
        forge(&mut rows, 1, id, value);
        ResultsFrame::from_rows(&specs, rows)
    }

    #[test]
    #[should_panic(expected = "safety violation in spec `lattice/forged` case 1 seed 0x")]
    fn worst_rounds_past_names_an_unsafe_cell() {
        forged_frame(MetricId::Safe, MetricValue::Bool(false)).worst_rounds_past(0);
    }

    #[test]
    #[should_panic(expected = "non-termination in spec `lattice/forged` case 1 seed 0x")]
    fn worst_rounds_past_names_a_non_terminated_cell() {
        forged_frame(MetricId::Terminated, MetricValue::Bool(false)).worst_rounds_past(0);
    }

    #[test]
    fn column_summaries() {
        let col = MetricColumn::OptU64(vec![Some(4), None, Some(10), Some(6)]);
        assert_eq!(col.len(), 4);
        assert_eq!(col.count_present(), 3);
        assert_eq!(col.sum(), 20);
        assert_eq!(col.min(), Some(4));
        assert_eq!(col.max(), Some(10));
        assert_eq!(col.mean(), Some(20.0 / 3.0));
        assert_eq!(col.percentile(0), Some(4));
        assert_eq!(col.percentile(50), Some(6));
        assert_eq!(col.percentile(100), Some(10));
        let empty = MetricColumn::OptU64(vec![None, None]);
        assert_eq!(empty.percentile(50), None);
        assert_eq!(empty.mean(), None);
        let signed = MetricColumn::I64(vec![-3, 5, 1]);
        assert_eq!(signed.min(), Some(-3));
        assert_eq!(signed.percentile(50), Some(1));
        let flags = MetricColumn::Bool(vec![true, false, true]);
        assert_eq!(flags.sum(), 2);
    }

    #[test]
    fn frame_round_trips_cells_and_digests_move() {
        let specs = &lattice_specs(Scale::Quick)[..2];
        let frame = SweepRunner::serial().run_fresh(specs);
        assert_eq!(frame.specs().len(), 2);
        assert_eq!(
            frame.cell_count(),
            specs.iter().map(|s| s.seeds as usize).sum::<usize>()
        );
        // Row/column round trip.
        let spec = frame.spec(0);
        let row = spec.row(1);
        for (id, value) in row.iter() {
            assert_eq!(spec.column(id).unwrap().value(1), value);
        }
        // The core view reads the same cell the row does.
        let core = spec.core();
        assert_eq!(core.reference.len(), spec.len());
        assert_eq!(
            row.get(MetricId::Reference),
            Some(MetricValue::U64(core.reference[1]))
        );
        assert_eq!(
            row.get(MetricId::LastDecision),
            Some(MetricValue::OptU64(core.last_decision[1]))
        );
        assert!(core.safe[1] && core.terminated[1]);
        // Digest sensitivity: the same sweep re-run digests identically...
        let again = SweepRunner::serial().run_fresh(specs);
        assert_eq!(frame, again);
        assert_eq!(frame.fingerprint(), again.fingerprint());
        // ...and distinct specs digest differently.
        assert_ne!(frame.spec(0).digest(), frame.spec(1).digest());
    }
}
