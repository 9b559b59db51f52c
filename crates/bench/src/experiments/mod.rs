//! The experiments E1–E16, grouped by the part of the paper they test:
//! the Figure 1 lattice ([`lattice`], E1), the Section 6–7 upper bounds
//! ([`upper_bounds`], E2–E5), the Section 8 lower bounds
//! ([`lower_bounds`], E6–E10), the Section 1 physical-layer claims
//! ([`phy_claims`], E11–E13), ablations ([`ablation`], E14) and
//! extensions ([`extensions`], E15–E16).
//!
//! The suite order and id table (`e1`..`e16`) live in the
//! `run_experiments` binary, which dispatches `--only eN` to exactly one
//! of these functions.

pub mod ablation;
pub mod extensions;
pub mod helpers;
pub mod lattice;
pub mod lower_bounds;
pub mod phy_claims;
pub mod upper_bounds;
