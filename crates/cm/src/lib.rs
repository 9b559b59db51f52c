//! # wan-cm: contention managers
//!
//! Section 4 of Newport '05 encapsulates the task of reducing contention on
//! the broadcast channel into an abstract *contention manager* service that
//! advises each process, each round, to be `active` or `passive`. Two
//! service properties matter:
//!
//! * **Wake-up service** (Property 2): from some round `r_wake` on, exactly
//!   one process is told to be active each round (which one may vary).
//! * **Leader election service** (Property 3): additionally, it is the
//!   *same* process from `r_lead` on. Every leader election service is a
//!   wake-up service.
//!
//! The paper uses the *weaker* wake-up service for upper bounds and the
//! *stronger* leader election service for lower bounds, and we follow suit.
//!
//! This crate provides:
//!
//! * [`WakeUpService`] / [`LeaderElectionService`] — declared-stabilization
//!   formal managers with configurable pre-stabilization chaos
//!   ([`PreStabilization`]); the wake-up service can optionally rotate the
//!   post-stabilization active slot (still a wake-up service, never a
//!   leader election service).
//! * [`FairWakeUp`] — a wake-up service that stabilizes onto a process that
//!   is alive *and still contending*. The paper's termination proofs
//!   implicitly require this (a wake-up service stabilized on a process
//!   that has already decided-and-halted starves everyone else, as the
//!   root package's `tests/halted_leader.rs` reproduces); any real backoff
//!   MAC has this property since halted processes stop contending.
//! * [`BackoffCm`] — a concrete randomized backoff protocol (window
//!   doubling plus solo-winner lock-in), the kind of implementation the
//!   paper says "one could imagine... implemented in a real system by a
//!   backoff protocol". Its stabilization round is *measured*, not declared.
//! * Trace validators [`verify_wakeup`] / [`verify_leader_election`] that
//!   certify a recorded execution against the service properties, also
//!   one whose advice a `wan_sim::Script` chose (the lower-bound
//!   constructions).
//!
//! The trivial all-active manager (`NOCM`, Section 4.2) is
//! [`wan_sim::AllActive`], re-exported here as [`NoCm`].

pub mod backoff;
pub mod checked;
pub mod kwakeup;
pub mod oracle;
pub mod schedule;

pub use backoff::BackoffCm;
pub use checked::{verify_leader_election, verify_wakeup};
pub use kwakeup::KWakeUp;
pub use oracle::FairWakeUp;
pub use schedule::{LeaderElectionService, PreStabilization, WakeUpService};

/// The trivial contention manager `NOCM`: all processes active, all rounds
/// (Section 4.2). Algorithm 3 of Section 7.4 runs with this manager.
pub use wan_sim::AllActive as NoCm;
