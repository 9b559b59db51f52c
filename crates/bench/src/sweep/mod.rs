//! # The scenario-sweep subsystem
//!
//! Experiments in this crate used to run one `(environment, algorithm,
//! seed)` cell at a time, serially, inside each experiment function. This
//! module factors that shape out into three pieces:
//!
//! * [`ScenarioSpec`] — a declarative description of one experiment
//!   configuration: environment plan × detector class × contention-manager
//!   arrangement × algorithm × `n` × `|V|` × seed count. A spec expands
//!   into independent *cells* (one per seed index), each with its own
//!   deterministic RNG seed derived from the spec name and cell index, so
//!   a cell's execution is a pure function of `(spec, index)` no matter
//!   where or in what order it runs.
//! * [`Registry`] — the named catalogue of the standard scenario families
//!   (the Figure 1 lattice, the Theorem 1/2 scaling grids, the Section 7.3
//!   crossover, the Theorem 3 NOCF runs, the ablation arms), shared by the
//!   experiment tables, the determinism tests, and the benches.
//! * [`probe`] — the composable observation API: a [`Probe`] is one
//!   measurement over an execution (fed [`wan_sim::RoundView`]s, emitting
//!   typed [`MetricId`]/[`MetricValue`] pairs into a reusable
//!   [`MetricRow`]); a [`ProbeManifest`] is the data form of a spec's
//!   probe selection. A cell's [`ProbeSet`] is its run's
//!   [`wan_sim::RoundObserver`]: the probes watch each round as the
//!   engine executes it, and no cell records a trace.
//! * [`frame`] — the columnar [`ResultsFrame`]: struct-of-arrays metric
//!   columns per spec (mirroring the trace arena), with
//!   summary/percentile accessors for the golden gate and the experiment
//!   tables. A cell's outcome has one form: the typed core columns
//!   ([`CoreColumns`], from [`SpecFrame::core`]) that the golden summary,
//!   the safety scan and the tables read.
//! * [`SweepRunner`] — a work-stealing fan-out over OS threads
//!   (`std::thread::scope`; the environment is offline so rayon is not
//!   available, and the dependency-free pool below is all the sweep
//!   needs). Every sweep executes every cell, in this process; results
//!   arrive in deterministic cell order regardless of thread count:
//!   [`SweepRunner::serial`] and [`SweepRunner::parallel`] produce
//!   byte-identical [`ResultsFrame`]s.
//! * [`golden`] — registry summaries as a CI regression gate:
//!   `run_experiments check` compares a fresh run of the standard
//!   registry against the committed `golden/sweeps/*.json` and exits
//!   nonzero on any drift, down to single-cell changes via per-spec
//!   digests over both the core columns and the full frame columns. The
//!   safety scan runs first ([`golden::gate`]): a cell that breaks
//!   agreement or validity fails the gate by its spec/case/seed before
//!   any golden file is read or written.
//!
//! The experiment functions in [`crate::experiments`] are thin table
//! renderers over this subsystem.

pub mod frame;
pub mod golden;
mod json;
pub mod probe;
pub mod runner;
pub mod spec;

pub use frame::{CoreColumns, MetricColumn, ResultsFrame, SpecFrame};
pub use golden::{scan_safety, SafetyViolation, SweepSummary};
pub use probe::{
    CellEnd, MetricId, MetricRow, MetricValue, Probe, ProbeKind, ProbeManifest, ProbeSet,
};
pub use runner::SweepRunner;
pub use spec::{
    AbsMacPlan, Algorithm, CellRow, ChurnPlan, CrashPlan, EnvironmentPlan, Registry, ScenarioSpec,
};
