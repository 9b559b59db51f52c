//! # wan-cd: collision detector classes and implementations
//!
//! Section 5 of Newport '05 classifies receiver-side collision detectors by
//! two families of properties:
//!
//! * **Completeness** (Properties 4–7) — when a detector is *obliged to
//!   report* a collision: always when anything was lost (`Complete`), when a
//!   strict majority was not received (`Majority`), when less than half was
//!   received (`Half`), or only when *everything* was lost (`Zero`, i.e.
//!   plain carrier sensing).
//! * **Accuracy** (Properties 8–9) — when a detector is *forbidden to
//!   report*: always when nothing was lost (`Accurate`), or only from some
//!   execution-specific round `r_acc` on (`Eventual`, the paper's ⋄).
//!
//! The cross product gives the eight classes of Figure 1 ([`CdClass`]), plus
//! the special classes `NoACC` (complete, never accurate) and the trivial
//! always-collision detector `NoCD` — Lemma 1's `NoCD ⊂ NoACC` is
//! [`CdClass::contains`] applied to [`NoCdDetector`].
//!
//! Concrete detectors:
//!
//! * [`ClassDetector`] — any class, with the unconstrained slack filled by a
//!   [`FreedomPolicy`] (silent, maximally noisy, or random): this is how one
//!   detector type covers best-case, adversarial, and realistic behaviour
//!   inside a class.
//! * [`NoCdDetector`] — the trivial `NOCD` detector (always `±`).
//! * [`CheckedDetector`] — a wrapper that panics on the first advice its
//!   class does not admit. The sweep wraps the detector of every ECF,
//!   radio and abstract-MAC cell in it; so do most tests, and so do the
//!   lower-bound constructions that replay explicit advice (a
//!   `wan_sim::Script`) as a behaviour of a class (Theorem 8, the maj/half
//!   gap and the §5.2 remark).

pub mod checked;
pub mod class;
pub mod degrading;
pub mod detector;
pub mod occasional;
pub mod trivial;

pub use checked::CheckedDetector;
pub use class::{Accuracy, CdClass, Completeness};
pub use degrading::Degrading;
pub use detector::{ClassDetector, FreedomPolicy};
pub use occasional::OccasionalDetector;
pub use trivial::NoCdDetector;
