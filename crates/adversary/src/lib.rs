//! # wan-adversary: executable lower bounds
//!
//! Section 8 of Newport '05 proves its impossibility results and round
//! lower bounds with *constructions*: carefully resolved choices of message
//! loss, collision-detector advice (within a class), contention-manager
//! advice (within a service property), and initial values, under which
//! indistinguishable executions force any algorithm to either stall or
//! violate agreement/validity. Because our model is executable, so are the
//! constructions:
//!
//! * [`alpha`] — the deterministic *alpha executions* of Definition 24
//!   (solo broadcasts delivered, concurrent broadcasts reduced to
//!   self-delivery, `MAXLS` designating the minimum index, perfect
//!   detector advice).
//! * [`beta`] — the fully-isolated executions of Theorem 9 (no contention
//!   manager, *nothing* delivered but one's own broadcasts).
//! * [`sequences`] — basic broadcast count sequences (Definition 22) and
//!   the pigeonhole pair-finders of Lemmas 21 and 22.
//! * [`compose`] — the two-group composition of Lemma 23: the paired alpha
//!   executions are spliced into one system whose scripted half-AC
//!   detector advice is *certified* against `CdClass::admits`, and whose
//!   per-group indistinguishability from the originals is checked
//!   observation-by-observation (Definition 12).
//! * [`indist`] — the observation-stream comparison behind those checks.
//! * [`theorems`] — one driver per theorem (4, 5, 6, 7, 8, 9) producing a
//!   [`theorems::TheoremReport`] consumed by tests and by the `lower_bounds`
//!   bench table.

pub mod alpha;
pub mod beta;
pub mod compose;
pub mod indist;
pub mod sequences;
pub mod theorems;

pub use alpha::AlphaExecution;
pub use compose::{compose_and_verify, CompositionReport};
pub use indist::{observations_equal, IndistMismatch};
pub use sequences::{find_pair_with_shared_prefix, longest_shared_prefix_pair};
pub use theorems::TheoremReport;
