//! Golden sweep summaries: the experiment matrix as a CI regression gate.
//!
//! `run_experiments check` re-executes the standard scenario registry,
//! summarizes the resulting [`ResultsFrame`] per spec, and compares
//! against the committed golden file under `golden/sweeps/` — any drift (a
//! changed worst-case bound, a safety or termination flip, a moved probe
//! metric, or any cell-level change via the per-spec digests) exits
//! nonzero. `bless` regenerates the golden file after an *intentional*
//! behavior change. [`gate`] is the policy both share: the safety scan
//! first, and only a safe sweep is blessed or diffed.
//!
//! The summary is deliberately cell-exact at two depths: each spec row
//! carries the legacy stable FNV digest over every cell's coordinates and
//! core columns ([`SpecFrame::core`](super::frame::SpecFrame::core);
//! continuity with the pre-probe gate) **and** a frame digest over every
//! metric column the spec's probe manifest emitted — so the gate catches
//! drift in any probe measurement, not just the four core columns, while
//! the committed file stays a reviewable handful of lines per spec.

use super::frame::ResultsFrame;
use super::json::{escape, field_opt, field_str, field_u64, opt_token};
use super::probe::MetricId;
use super::runner::SweepRunner;
use super::spec::{Registry, ScenarioSpec};
use crate::Scale;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use wan_sim::fingerprint::StableHasher;

/// Bumped when the summary schema changes; a mismatch fails `check`
/// with a regeneration hint. v2: frame digests and probe summary fields
/// joined the per-spec rows.
pub const FORMAT_VERSION: u32 = 2;
const HEADER_TAG: &str = "ccwan-golden-sweep";

/// The committed file name for a scale's registry summary.
pub fn golden_file_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "registry_quick.json",
        Scale::Full => "registry_full.json",
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    }
}

/// One agreement/validity violation surfaced by a sweep — the unit of the
/// sweep-wide safety gate. Every registry environment (including every
/// fault-injection timeline in the `churn/*` family) is constructed so
/// that consensus safety holds; a cell whose outcome checker flags
/// disagreement or an invalid decision is therefore always a bug, never
/// an expected measurement, and `run_experiments check` fails loudly
/// with these coordinates on stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyViolation {
    /// The registry spec name.
    pub spec: String,
    /// The cell's case index within the spec.
    pub case: u64,
    /// The cell's derived RNG seed (reproduce with a single-cell run).
    pub cell_seed: u64,
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "spec `{}` case {} seed {:#018x}",
            self.spec, self.case, self.cell_seed
        )
    }
}

/// Scans every cell of an executed sweep for safety violations
/// (`safe == false`: broken agreement or validity).
pub fn scan_safety(specs: &[ScenarioSpec], results: &ResultsFrame) -> Vec<SafetyViolation> {
    let mut violations = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let frame = results.spec(i);
        for (idx, &safe) in frame.core().safe.iter().enumerate() {
            if !safe {
                violations.push(SafetyViolation {
                    spec: spec.name.clone(),
                    case: frame.cases()[idx],
                    cell_seed: frame.seeds()[idx],
                });
            }
        }
    }
    violations
}

/// Why [`gate`] failed. `Display` renders the stderr report.
#[derive(Debug)]
pub enum GateError {
    /// Cells broke agreement or validity; no golden file was read or
    /// written.
    Unsafe(Vec<SafetyViolation>),
    /// The observed summary differs from the golden file at the path.
    Drift(PathBuf, Vec<String>),
    /// The golden file could not be written, read, or parsed.
    Golden(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Unsafe(violations) => {
                writeln!(
                    f,
                    "check: {} cell(s) violated consensus safety (agreement/validity):",
                    violations.len()
                )?;
                for violation in violations {
                    writeln!(f, "  {violation}")?;
                }
                write!(
                    f,
                    "(a cell is a pure function of its spec and case; \
                     `ScenarioSpec::run_cell` replays it)"
                )
            }
            GateError::Drift(path, drift) => {
                writeln!(
                    f,
                    "check: {} drift(s) against {}:",
                    drift.len(),
                    path.display()
                )?;
                for line in drift {
                    writeln!(f, "  {line}")?;
                }
                write!(
                    f,
                    "(if this change is intentional, regenerate with `bless`)"
                )
            }
            GateError::Golden(msg) => f.write_str(msg),
        }
    }
}

/// The registry gate's policy, shared by `check` and `bless`. The safety
/// scan comes first and unconditionally: every registry environment is
/// constructed so consensus safety holds, so a violated cell is a bug —
/// it fails the gate before any golden file is read, and it is never
/// blessed into one. Only a safe sweep is then written to `golden_path`
/// (`bless`) or diffed against it. Returns the stdout line on success.
pub fn gate(
    observed: &SweepSummary,
    violations: Vec<SafetyViolation>,
    golden_path: &Path,
    bless: bool,
) -> Result<String, GateError> {
    if !violations.is_empty() {
        return Err(GateError::Unsafe(violations));
    }
    let path = golden_path.display();
    if bless {
        atomic_write(golden_path, observed.to_json().as_bytes())
            .map_err(|err| GateError::Golden(format!("bless: writing {path} failed: {err}")))?;
        return Ok(format!(
            "--bless: wrote {} spec summaries to {path}",
            observed.specs.len()
        ));
    }
    let text = fs::read_to_string(golden_path).map_err(|err| {
        let quick = if observed.scale == scale_name(Scale::Quick) {
            " --quick"
        } else {
            ""
        };
        GateError::Golden(format!(
            "check: cannot read golden summary {path}: {err}\n\
             (generate it with `run_experiments bless{quick}`)"
        ))
    })?;
    let expected = SweepSummary::parse(&text)
        .map_err(|err| GateError::Golden(format!("check: {path}: {err}")))?;
    let drift = expected.diff(observed);
    if !drift.is_empty() {
        return Err(GateError::Drift(golden_path.to_path_buf(), drift));
    }
    Ok(format!(
        "--check: {} specs match {path}",
        observed.specs.len()
    ))
}

/// Writes `bytes` to `path` atomically: the content goes to a sibling
/// temp file (suffixed with this process id, so concurrent writers never
/// share one), is fsynced, and is renamed over `path`; on Unix the parent
/// directory is fsynced afterwards so the rename itself is durable. A
/// kill at any instant leaves either the old file or the new one — never
/// a torn mix — which is what lets `check` and `bless` be interrupted
/// with impunity.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let write = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    write?;
    #[cfg(unix)]
    if let Some(dir) = dir {
        // Durability of the rename, not correctness, so best-effort.
        if let Ok(handle) = fs::File::open(dir) {
            let _ = handle.sync_all();
        }
    }
    Ok(())
}

/// One spec's row in a summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecSummary {
    /// The registry name.
    pub name: String,
    /// Number of cells executed.
    pub cells: u64,
    /// How many cells were safe (agreement + validity).
    pub safe: u64,
    /// How many cells terminated within the cap.
    pub terminated: u64,
    /// Worst rounds past the measurement reference, over deciding cells
    /// (saturating: [`CoreColumns::worst_rounds_past`]).
    ///
    /// [`CoreColumns::worst_rounds_past`]: super::frame::CoreColumns::worst_rounds_past
    pub worst_rounds_past: Option<u64>,
    /// Worst *signed* decision latency (`max` of the `decision_latency`
    /// metric over deciding cells — can be negative when every decision
    /// beat the reference).
    pub worst_latency: Option<i64>,
    /// Total broadcasts across the spec's cells (`None` for outcome-only
    /// manifests, which record no round-derived metrics).
    pub broadcasts: Option<u64>,
    /// Stable digest over every cell's core result (order-sensitive,
    /// independent of the spec's position in the registry) — the legacy
    /// lane.
    pub digest: u64,
    /// Stable digest over the spec's full metric columns
    /// (`SpecFrame::digest`) — catches drift in any probe measurement.
    pub frame_digest: u64,
}

/// A full registry summary at one scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSummary {
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// One row per registry spec, in registration order.
    pub specs: Vec<SpecSummary>,
}

impl SweepSummary {
    /// Runs the standard registry at `scale` through `runner`, summarizes
    /// it, and scans every cell for safety violations ([`scan_safety`]) —
    /// the pair [`gate`] consumes, so the gate sees the exact frame the
    /// summary was computed from.
    pub fn measure_gated(
        scale: Scale,
        runner: &SweepRunner,
    ) -> (SweepSummary, Vec<SafetyViolation>) {
        let registry = Registry::standard(scale);
        let results = runner.run_fresh(registry.specs());
        (
            SweepSummary::from_results(scale, registry.specs(), &results),
            scan_safety(registry.specs(), &results),
        )
    }

    /// Summarizes an already-assembled results frame.
    pub fn from_results(
        scale: Scale,
        specs: &[ScenarioSpec],
        results: &ResultsFrame,
    ) -> SweepSummary {
        let specs = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let frame = results.spec(i);
                let core = frame.core();
                let mut h = StableHasher::new();
                for idx in 0..frame.len() {
                    h.write_u64(frame.cases()[idx]);
                    h.write_u64(frame.seeds()[idx]);
                    h.write_u64(core.reference[idx]);
                    h.write_u64(core.last_decision[idx].unwrap_or(u64::MAX));
                    h.write_u64(u64::from(core.terminated[idx]));
                    h.write_u64(u64::from(core.safe[idx]));
                }
                let count = |flags: &[bool]| flags.iter().filter(|&&flag| flag).count() as u64;
                SpecSummary {
                    name: spec.name.clone(),
                    cells: frame.len() as u64,
                    safe: count(core.safe),
                    terminated: count(core.terminated),
                    worst_rounds_past: core.worst_rounds_past(),
                    worst_latency: frame
                        .column(MetricId::DecisionLatency)
                        .and_then(|col| col.max())
                        .map(|v| v as i64),
                    broadcasts: frame
                        .column(MetricId::BroadcastsTotal)
                        .map(|col| col.sum() as u64),
                    digest: h.finish(),
                    frame_digest: frame.digest(),
                }
            })
            .collect();
        SweepSummary {
            scale: scale_name(scale).to_string(),
            specs,
        }
    }

    /// Renders the committed format: a header line, one line per spec
    /// (diff-friendly), a closing line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"{HEADER_TAG}\":{FORMAT_VERSION},\"scale\":\"{}\",\"specs\":[\n",
            escape(&self.scale)
        );
        for (i, spec) in self.specs.iter().enumerate() {
            let comma = if i + 1 == self.specs.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cells\":{},\"safe\":{},\"terminated\":{},\"worst\":{},\"latency\":{},\"broadcasts\":{},\"digest\":\"{:016x}\",\"frame\":\"{:016x}\"}}{comma}\n",
                escape(&spec.name),
                spec.cells,
                spec.safe,
                spec.terminated,
                opt_token(spec.worst_rounds_past),
                opt_token(spec.worst_latency),
                opt_token(spec.broadcasts),
                spec.digest,
                spec.frame_digest,
            ));
        }
        out.push_str("]}\n");
        out
    }

    /// Parses [`SweepSummary::to_json`]'s rendering. Errors carry enough
    /// context for a CI log.
    pub fn parse(text: &str) -> Result<SweepSummary, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty golden summary file")?;
        match field_u64(header, HEADER_TAG) {
            Some(v) if v == u64::from(FORMAT_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "golden summary format v{v}, this binary writes v{FORMAT_VERSION}: regenerate with `run_experiments bless`"
                ))
            }
            None => return Err("not a golden sweep summary (bad header)".to_string()),
        }
        let scale = field_str(header, "scale").ok_or("header missing \"scale\"")?;
        let mut specs = Vec::new();
        for line in lines {
            let line = line.trim().trim_end_matches(',');
            if !line.contains("\"name\":") {
                continue;
            }
            let parse = || -> Option<SpecSummary> {
                Some(SpecSummary {
                    name: field_str(line, "name")?,
                    cells: field_u64(line, "cells")?,
                    safe: field_u64(line, "safe")?,
                    terminated: field_u64(line, "terminated")?,
                    worst_rounds_past: field_opt(line, "worst")?,
                    worst_latency: field_opt(line, "latency")?,
                    broadcasts: field_opt(line, "broadcasts")?,
                    digest: u64::from_str_radix(&field_str(line, "digest")?, 16).ok()?,
                    frame_digest: u64::from_str_radix(&field_str(line, "frame")?, 16).ok()?,
                })
            };
            specs.push(parse().ok_or_else(|| format!("malformed spec row: {line}"))?);
        }
        Ok(SweepSummary { scale, specs })
    }

    /// Describes every difference between a golden summary (`self`) and an
    /// observed one. Empty means the gate passes.
    pub fn diff(&self, observed: &SweepSummary) -> Vec<String> {
        let mut drift = Vec::new();
        if self.scale != observed.scale {
            drift.push(format!(
                "scale mismatch: golden {:?}, observed {:?}",
                self.scale, observed.scale
            ));
        }
        for expected in &self.specs {
            let Some(actual) = observed.specs.iter().find(|s| s.name == expected.name) else {
                drift.push(format!(
                    "spec {:?} missing from this registry",
                    expected.name
                ));
                continue;
            };
            let fields = [
                (
                    "cells",
                    expected.cells.to_string(),
                    actual.cells.to_string(),
                ),
                ("safe", expected.safe.to_string(), actual.safe.to_string()),
                (
                    "terminated",
                    expected.terminated.to_string(),
                    actual.terminated.to_string(),
                ),
                (
                    "worst_rounds_past",
                    format!("{:?}", expected.worst_rounds_past),
                    format!("{:?}", actual.worst_rounds_past),
                ),
                (
                    "worst_latency",
                    format!("{:?}", expected.worst_latency),
                    format!("{:?}", actual.worst_latency),
                ),
                (
                    "broadcasts",
                    format!("{:?}", expected.broadcasts),
                    format!("{:?}", actual.broadcasts),
                ),
                (
                    "digest",
                    format!("{:016x}", expected.digest),
                    format!("{:016x}", actual.digest),
                ),
                (
                    "frame_digest",
                    format!("{:016x}", expected.frame_digest),
                    format!("{:016x}", actual.frame_digest),
                ),
            ];
            for (field, want, got) in fields {
                if want != got {
                    drift.push(format!(
                        "spec {:?}: {field} drifted (golden {want}, observed {got})",
                        expected.name
                    ));
                }
            }
        }
        for actual in &observed.specs {
            if !self.specs.iter().any(|s| s.name == actual.name) {
                drift.push(format!(
                    "spec {:?} observed but absent from the golden summary",
                    actual.name
                ));
            }
        }
        drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::frame::tests::forge;
    use crate::sweep::probe::MetricValue;
    use crate::sweep::spec::{absmac_specs, lattice_specs, CellRow};

    fn summary() -> SweepSummary {
        let specs = &lattice_specs(Scale::Quick)[..2];
        let results = SweepRunner::with_threads(2).run_fresh(specs);
        SweepSummary::from_results(Scale::Quick, specs, &results)
    }

    /// A fresh, empty directory for one test's golden files.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccwan-gate-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Flips cell `idx`'s `safe` bit.
    fn forge_unsafe(rows: &mut [CellRow], idx: usize) {
        forge(rows, idx, MetricId::Safe, MetricValue::Bool(false));
    }

    #[test]
    fn scan_safety_reports_only_unsafe_cells() {
        let specs = &lattice_specs(Scale::Quick)[..1];
        let spec = &specs[0];
        let mut rows: Vec<CellRow> = (0..3).map(|case| spec.run_cell(0, case)).collect();
        let clean = ResultsFrame::from_rows(specs, rows.clone());
        assert!(
            scan_safety(specs, &clean).is_empty(),
            "clean sweeps scan clean"
        );

        forge_unsafe(&mut rows, 1);
        let poisoned = ResultsFrame::from_rows(specs, rows);
        let violations = scan_safety(specs, &poisoned);
        assert_eq!(
            violations,
            vec![SafetyViolation {
                spec: spec.name.clone(),
                case: 1,
                cell_seed: spec.cell_seed(1),
            }]
        );
    }

    /// The summary off the happy path: a forged undecided cell and a
    /// forged unsafe cell are counted and digested, and the undecided cell
    /// stays out of the worst-rounds-past statistic.
    #[test]
    fn summary_counts_and_digests_forged_outcomes() {
        let specs = &lattice_specs(Scale::Quick)[..1];
        let rows: Vec<CellRow> = (0..specs[0].seeds)
            .map(|case| specs[0].run_cell(0, case))
            .collect();
        let cells = rows.len() as u64;
        let summarize = |rows: Vec<CellRow>| {
            let frame = ResultsFrame::from_rows(specs, rows);
            let summary = SweepSummary::from_results(Scale::Quick, specs, &frame);
            summary.specs.into_iter().next().expect("one spec row")
        };
        let rounds_past = |row: &CellRow| match (
            row.metrics.get(MetricId::Reference),
            row.metrics.get(MetricId::LastDecision),
        ) {
            (Some(MetricValue::U64(reference)), Some(MetricValue::OptU64(decision))) => {
                decision.map(|d| d.saturating_sub(reference))
            }
            other => panic!("core metrics missing: {other:?}"),
        };
        // The undecided cell is the clean sweep's worst, so counting it
        // would show; the unsafe cell is another one.
        let undecided = (0..rows.len())
            .max_by_key(|&idx| rounds_past(&rows[idx]))
            .expect("cells");
        let unsafe_cell = (undecided + 1) % rows.len();
        let mut forged = rows.clone();
        forge(
            &mut forged,
            undecided,
            MetricId::Terminated,
            MetricValue::Bool(false),
        );
        forge(
            &mut forged,
            undecided,
            MetricId::LastDecision,
            MetricValue::OptU64(None),
        );
        forge(
            &mut forged,
            unsafe_cell,
            MetricId::Safe,
            MetricValue::Bool(false),
        );
        let decided_worst = (0..rows.len())
            .filter(|&idx| idx != undecided)
            .filter_map(|idx| rounds_past(&rows[idx]))
            .max();

        let clean = summarize(rows.clone());
        let forged = summarize(forged);
        assert_eq!((clean.safe, clean.terminated), (cells, cells));
        assert_eq!((forged.safe, forged.terminated), (cells - 1, cells - 1));
        assert!(decided_worst.is_some());
        assert_eq!(forged.worst_rounds_past, decided_worst);
        assert_ne!(forged.digest, clean.digest);
        assert_ne!(forged.frame_digest, clean.frame_digest);

        // With no deciding cell there is no worst statistic at all.
        let mut none_decided = rows;
        for idx in 0..none_decided.len() {
            forge(
                &mut none_decided,
                idx,
                MetricId::LastDecision,
                MetricValue::OptU64(None),
            );
        }
        assert_eq!(summarize(none_decided).worst_rounds_past, None);
    }

    /// The legacy digest writes an undecided cell's last decision as
    /// `u64::MAX` (golden format v2). Every registry cell decides, so
    /// `check` never sees that case; this pins it instead.
    #[test]
    fn legacy_digest_writes_an_undecided_cell_as_u64_max() {
        let specs = &lattice_specs(Scale::Quick)[..1];
        let digest = |last_decision: Option<u64>| {
            let mut rows: Vec<CellRow> = (0..3).map(|case| specs[0].run_cell(0, case)).collect();
            forge(
                &mut rows,
                1,
                MetricId::LastDecision,
                MetricValue::OptU64(last_decision),
            );
            let frame = ResultsFrame::from_rows(specs, rows);
            SweepSummary::from_results(Scale::Quick, specs, &frame).specs[0].digest
        };
        assert_eq!(digest(None), digest(Some(u64::MAX)));
        assert_ne!(digest(None), digest(Some(0)));
    }

    /// The sweep-wide safety gate covers the abstract-MAC family: a forged
    /// agreement violation in an `absmac/mac-*` cell — exactly what a
    /// buggy MAC component would produce — fails the gate with the cell's
    /// spec/case/seed, under `check` and `bless` alike, and `bless` never
    /// writes the golden file.
    #[test]
    fn gate_fails_on_an_absmac_violation_before_blessing_or_diffing() {
        let specs: Vec<ScenarioSpec> = absmac_specs(Scale::Quick)
            .into_iter()
            .filter(|spec| spec.name.starts_with("absmac/mac-"))
            .take(1)
            .collect();
        let spec = &specs[0];
        let mut rows: Vec<CellRow> = (0..3).map(|case| spec.run_cell(0, case)).collect();
        forge_unsafe(&mut rows, 2);
        let poisoned = ResultsFrame::from_rows(&specs, rows);
        let observed = SweepSummary::from_results(Scale::Quick, &specs, &poisoned);
        let golden = scratch("absmac").join(golden_file_name(Scale::Quick));

        for bless in [true, false] {
            let violations = scan_safety(&specs, &poisoned);
            let err = gate(&observed, violations, &golden, bless)
                .expect_err("a safety violation must fail the gate");
            assert!(
                matches!(err, GateError::Unsafe(ref v) if v.len() == 1),
                "{err}"
            );
            let report = err.to_string();
            assert!(report.contains("violated consensus safety"), "{report}");
            assert!(report.contains(&spec.name), "{report}");
            assert!(report.contains("case 2"), "{report}");
            assert!(
                report.contains(&format!("{:#018x}", spec.cell_seed(2))),
                "{report}"
            );
            assert!(
                !golden.exists(),
                "an unsafe sweep must never be blessed into a golden file"
            );
        }
    }

    #[test]
    fn gate_blesses_checks_and_reports_drift() {
        let observed = summary();
        let dir = scratch("roundtrip");
        let golden = dir.join(golden_file_name(Scale::Quick));

        let missing = gate(&observed, Vec::new(), &golden, false).expect_err("no golden file yet");
        assert!(matches!(missing, GateError::Golden(_)), "{missing}");
        assert!(
            missing
                .to_string()
                .contains("run_experiments bless --quick"),
            "{missing}"
        );

        let blessed = gate(&observed, Vec::new(), &golden, true).expect("bless");
        assert!(blessed.contains("wrote 2 spec summaries"), "{blessed}");
        let checked = gate(&observed, Vec::new(), &golden, false).expect("check");
        assert!(checked.contains("2 specs match"), "{checked}");

        let mut moved = observed.clone();
        moved.specs[1].digest ^= 1;
        let drift = gate(&moved, Vec::new(), &golden, false).expect_err("a moved digest is drift");
        assert!(
            matches!(drift, GateError::Drift(_, ref d) if d.len() == 1),
            "{drift}"
        );
        assert!(drift.to_string().contains("digest drifted"), "{drift}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_parse_roundtrips() {
        let s = summary();
        let parsed = SweepSummary::parse(&s.to_json()).expect("own rendering parses");
        assert_eq!(parsed, s);
        assert!(s.diff(&parsed).is_empty());
        // The probe columns flow into the summary.
        assert!(s.specs[0].broadcasts.is_some());
        assert!(s.specs[0].worst_latency.is_some());
    }

    #[test]
    fn diff_reports_each_kind_of_drift() {
        let golden = summary();
        let mut observed = golden.clone();
        observed.specs[0].worst_rounds_past = Some(999);
        observed.specs[1].digest ^= 1;
        observed.specs[1].frame_digest ^= 1;
        let renamed = observed.specs[1].name.clone() + "-renamed";
        observed.specs.push(SpecSummary {
            name: renamed,
            ..observed.specs[1].clone()
        });
        let drift = golden.diff(&observed);
        assert_eq!(drift.len(), 4, "{drift:#?}");
        assert!(drift[0].contains("worst_rounds_past"));
        assert!(drift[1].contains("digest"));
        assert!(drift[2].contains("frame_digest"));
        assert!(drift[3].contains("absent from the golden"));
    }

    #[test]
    fn frame_digest_moves_with_probe_metrics_the_core_digest_ignores() {
        // Two summaries of the same specs where only a round-derived
        // metric differs would agree on the legacy digest but disagree on
        // the frame digest — simulate by perturbing the frame lane only.
        let golden = summary();
        let mut observed = golden.clone();
        observed.specs[0].frame_digest ^= 0xDEAD;
        let drift = golden.diff(&observed);
        assert_eq!(drift.len(), 1, "{drift:#?}");
        assert!(drift[0].contains("frame_digest"));
    }

    #[test]
    fn parse_rejects_alien_and_future_headers() {
        assert!(SweepSummary::parse("").is_err());
        assert!(SweepSummary::parse("{\"something\":1}\n").is_err());
        let future = summary().to_json().replacen(
            &format!("\"{HEADER_TAG}\":{FORMAT_VERSION}"),
            &format!("\"{HEADER_TAG}\":{}", FORMAT_VERSION + 1),
            1,
        );
        let err = SweepSummary::parse(&future).unwrap_err();
        assert!(err.contains("run_experiments bless"), "{err}");
    }

    #[test]
    fn parse_rejects_v1_summaries_with_a_bless_hint() {
        // The pre-probe (v1) golden format: no latency/broadcasts/frame
        // fields. The version gate must fail it cleanly.
        let v1 = format!(
            "{{\"{HEADER_TAG}\":1,\"scale\":\"quick\",\"specs\":[\n\
             {{\"name\":\"x\",\"cells\":5,\"safe\":5,\"terminated\":5,\"worst\":2,\"digest\":\"00000000000000aa\"}}\n]}}\n"
        );
        let err = SweepSummary::parse(&v1).unwrap_err();
        assert!(err.contains("run_experiments bless"), "{err}");
    }
}
