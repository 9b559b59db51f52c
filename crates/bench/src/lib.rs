//! # wan-bench: the experiment harness
//!
//! One function per experiment of DESIGN.md Section 3 (E1–E14), each
//! returning renderable [`table::Table`]s. The bench targets
//! (`benches/fig1_lattice.rs`, `benches/results_summary.rs`,
//! `benches/lower_bounds.rs`, `benches/phy_claims.rs`) and the
//! `run_experiments` binary print them; `EXPERIMENTS.md` records
//! paper-versus-measured for each.

pub mod experiments;
pub mod sweep;
pub mod table;

pub use sweep::{
    MetricId, Probe, ProbeManifest, ProbeSet, Registry, ResultsFrame, ScenarioSpec, SweepRunner,
};
pub use table::Table;

/// How big to run the sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds per experiment.
    Quick,
    /// Paper-sized sweeps.
    Full,
}

impl Scale {
    /// Number of seeds per configuration.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 5,
            Scale::Full => 25,
        }
    }

    /// Seeds per cell for the *dense* registry family — the
    /// confidence-interval grid. Quick stays CI-sized; Full runs hundreds
    /// of seeds per cell (the scale at which per-cell rates get real error
    /// bars).
    pub fn dense_seeds(self) -> u64 {
        match self {
            Scale::Quick => 4,
            Scale::Full => 200,
        }
    }

    /// Measurement rounds for statistics experiments.
    pub fn rounds(self) -> u64 {
        match self {
            Scale::Quick => 300,
            Scale::Full => 2000,
        }
    }
}
