//! # wan-bench: the experiment harness
//!
//! One function per experiment E1–E16 ([`experiments`]), each returning
//! a renderable [`table::Table`]. The `run_experiments` binary prints
//! them (`run --only eN` for one) and gates the [`sweep`] registry
//! against the committed goldens; the `engine_dispatch` bench target
//! times registry cells and micro lanes and holds the round engine's
//! allocation gates.

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
