//! Core CPR abstractions shared by the transactional database
//! (`cpr-memdb`) and the FASTER key-value store (`cpr-faster`).
//!
//! *Concurrent Prefix Recovery* (CPR) is a group-commit durability model:
//! instead of acknowledging individual operations, the system periodically
//! tells each client session `i` a *commit point* `t_i` in the session's
//! local operation timeline such that **all** operations before `t_i` are
//! durable and **none** after are (paper, Definition 1). A CPR commit is
//! coordinated by a global state machine whose transitions are realized
//! lazily by worker threads through the epoch framework (`cpr-epoch`).
//!
//! This crate provides the pieces both systems share:
//! * [`Phase`] — the commit state machine phases;
//! * [`SystemState`] — (phase, version) packed into one atomic word;
//! * [`SessionRegistry`] — per-session published state used both for the
//!   "all sessions have entered phase P" trigger conditions and for
//!   recording per-session CPR points;
//! * [`manifest`] — durable checkpoint metadata;
//! * the protocol core both engines embed: [`CommitCore`] (the store's
//!   commit bookkeeping and the one place committed versions are
//!   published), [`Participant`] (one session's part: attach, refresh,
//!   CPR points, detach), and the one [`watchdog`] loop with each engine's
//!   [`watchdog::Remedies`].

pub mod commit;
pub mod liveness;
pub mod manifest;
mod participant;
mod phase;
pub mod resume;
mod sessions;
mod state;
pub mod sync;
pub mod value;
mod version;
pub mod watchdog;

pub use commit::{CommitCallback, CommitCore, CprEngine};
pub use liveness::{
    BusyState, Clock, CommitOutcome, LivenessConfig, SessionStatus, SystemClock, VirtualClock,
};
pub use manifest::{CheckpointKind, CheckpointManifest, SessionCpr};
pub use participant::{Entry, Participant, Refreshed};
pub use phase::Phase;
pub use resume::{CommitPoint, DetachedSessions};
pub use sessions::{SessionId, SessionInfo, SessionRegistry, SessionSlot, INTERNAL_SESSION};
pub use state::SystemState;
pub use sync::NoWaitLock;
pub use value::{pod_read, pod_size, pod_write, Pod};
pub use version::CheckpointVersion;

/// One-stop imports for applications using either engine:
///
/// ```
/// use cpr_core::prelude::*;
///
/// let cfg = LivenessConfig::system();
/// assert_eq!(Phase::Rest.name(), "rest");
/// assert_eq!(CheckpointVersion::NONE, 0);
/// let _ = (cfg, CommitOutcome::default());
/// ```
pub mod prelude {
    pub use crate::liveness::{CommitOutcome, LivenessConfig, SessionStatus};
    pub use crate::manifest::{CheckpointKind, CheckpointManifest};
    pub use crate::{CheckpointVersion, CommitPoint, Phase, SessionId, SessionInfo};
}
