//! # ccwan-core: the consensus problem and its algorithms
//!
//! This crate implements Sections 6 and 7 of Newport '05: the fault-tolerant
//! consensus problem for crash-prone processes on an unreliable single-hop
//! wireless channel, and the four matching upper-bound algorithms:
//!
//! | Algorithm | Module | Detector | Manager | Delivery | Rounds |
//! |---|---|---|---|---|---|
//! | Algorithm 1 (§7.1) | [`alg1`] | maj-⋄AC | wake-up | ECF | `CST + 2` |
//! | Algorithm 2 (§7.2) | [`alg2`] | 0-⋄AC | wake-up | ECF | `CST + 2(⌈lg \|V\|⌉+1)` |
//! | §7.3 protocol | [`alg3`] | 0-⋄AC | wake-up | ECF | `CST + Θ(min{lg \|V\|, lg \|I\|})` |
//! | Algorithm 3 (§7.4) | [`alg4`] | 0-AC | none | none | `8·lg \|V\|` after failures cease |
//!
//! Supporting pieces: value domains with the `V^{0,1}` binary encoding
//! ([`value`]), identifier spaces ([`uid`]), the consensus automaton trait
//! ([`consensus`]), the agreement/validity/termination judge ([`checker`]),
//! the communication stabilization time of Definition 20 ([`cst`]), the run
//! harness ([`harness`]), the balanced search tree walked by Algorithm 3
//! ([`bst`]), and deliberately broken strawmen for the impossibility
//! demonstrations ([`strawman`]).
//!
//! ## Quick start
//!
//! ```
//! use ccwan_core::alg1::{self, MajEcfConsensus};
//! use ccwan_core::{ConsensusRun, Value, ValueDomain};
//! use wan_cd::{CdClass, ClassDetector, FreedomPolicy};
//! use wan_cm::FairWakeUp;
//! use wan_sim::loss::{Ecf, RandomLoss};
//! use wan_sim::crash::NoCrashes;
//! use wan_sim::{Components, Round};
//!
//! let domain = ValueDomain::new(8);
//! let values: Vec<Value> = [3, 5, 1].into_iter().map(Value).collect();
//! let mut run = ConsensusRun::new(
//!     alg1::processes(domain, &values),
//!     Components {
//!         detector: Box::new(ClassDetector::new(
//!             CdClass::MAJ_EV_AC,
//!             FreedomPolicy::Quiet,
//!             0,
//!         )),
//!         manager: Box::new(FairWakeUp::immediate()),
//!         loss: Box::new(Ecf::new(RandomLoss::new(0.2, 7), Round(1))),
//!         crash: Box::new(NoCrashes),
//!     },
//! );
//! let outcome = run.run_to_completion(Round(100));
//! assert!(outcome.terminated && outcome.is_safe());
//! ```

pub mod alg1;
pub mod alg2;
pub mod alg3;
pub mod alg4;
pub mod bst;
pub mod checker;
pub mod consensus;
pub mod counting;
pub mod cst;
pub mod harness;
pub mod strawman;
pub mod uid;
pub mod value;

pub use checker::{ConsensusOutcome, SafetyViolation};
pub use consensus::ConsensusAutomaton;
pub use cst::Cst;
pub use harness::ConsensusRun;
pub use uid::{IdSpace, Uid};
pub use value::{Value, ValueDomain};
