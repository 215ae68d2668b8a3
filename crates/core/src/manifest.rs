//! Durable checkpoint metadata.
//!
//! A CPR commit persists, next to the captured data, a manifest describing
//! *what* was committed: the database version, the per-session CPR points,
//! and (for FASTER) the HybridLog/index offsets used by recovery (paper
//! Secs. 6.2–6.4).

use serde::{Deserialize, Serialize};

use crate::sessions::SessionId;

/// What kind of checkpoint a manifest describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointKind {
    /// Whole-database capture (the in-memory transactional DB).
    Database,
    /// FASTER fold-over log commit: read-only offset advanced to the tail;
    /// the log file itself is the checkpoint (incremental).
    FoldOver,
    /// FASTER snapshot log commit: volatile log region written to a
    /// separate snapshot file; offsets unchanged.
    Snapshot,
    /// FASTER fuzzy hash-index checkpoint.
    Index,
}

/// Per-session commit point: all operations with serial ≤ `cpr_point`
/// are durable in this checkpoint; none after are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionCpr {
    pub guid: SessionId,
    pub cpr_point: u64,
}

/// Durable description of one checkpoint.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Unique, monotonically increasing token.
    pub token: u64,
    pub kind: CheckpointKind,
    /// The committed database version `v`.
    pub version: u64,
    /// HybridLog tail when the commit was requested (`L_hs`), if any.
    pub log_begin: Option<u64>,
    /// HybridLog tail when all version-`v` operations had completed
    /// (`L_he`), if any. Recovery replays `[min(L_is, L_hs), max(L_ie,
    /// L_he))`.
    pub log_end: Option<u64>,
    /// HybridLog tail before the fuzzy index write started (`L_is`).
    pub index_begin: Option<u64>,
    /// HybridLog tail after the fuzzy index write completed (`L_ie`).
    pub index_end: Option<u64>,
    /// Snapshot commits: first address covered by the snapshot file (the
    /// main log file covers everything below it).
    pub snapshot_start: Option<u64>,
    /// FASTER log commits: the HybridLog begin address. Nothing below it
    /// is needed to recover this commit (the log there may be gone);
    /// absent in manifests written before the log could be truncated.
    pub begin_address: Option<u64>,
    /// Per-session CPR points.
    pub sessions: Vec<SessionCpr>,
    /// Number of records captured (database checkpoints).
    pub records: Option<u64>,
    /// Incremental database checkpoints: token of the checkpoint this
    /// delta builds on (recovery applies the chain oldest → newest).
    pub base: Option<u64>,
}

impl CheckpointManifest {
    pub fn new(token: u64, kind: CheckpointKind, version: u64) -> Self {
        CheckpointManifest {
            token,
            kind,
            version,
            log_begin: None,
            log_end: None,
            index_begin: None,
            index_end: None,
            snapshot_start: None,
            begin_address: None,
            sessions: Vec::new(),
            records: None,
            base: None,
        }
    }

    /// The recovered CPR point for `guid`, if the session is known.
    pub fn cpr_point(&self, guid: SessionId) -> Option<u64> {
        self.sessions
            .iter()
            .find(|s| s.guid == guid)
            .map(|s| s.cpr_point)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serializes")
    }

    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointManifest {
        let mut m = CheckpointManifest::new(3, CheckpointKind::FoldOver, 7);
        m.log_begin = Some(4096);
        m.log_end = Some(8192);
        m.sessions = vec![
            SessionCpr {
                guid: 1,
                cpr_point: 100,
            },
            SessionCpr {
                guid: 2,
                cpr_point: 250,
            },
        ];
        m
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let j = m.to_json();
        let back = CheckpointManifest::from_json(&j).unwrap();
        assert_eq!(back.token, 3);
        assert_eq!(back.kind, CheckpointKind::FoldOver);
        assert_eq!(back.version, 7);
        assert_eq!(back.log_begin, Some(4096));
        assert_eq!(back.sessions.len(), 2);
        assert_eq!(back.cpr_point(2), Some(250));
    }

    #[test]
    fn cpr_point_for_unknown_session_is_none() {
        assert_eq!(sample().cpr_point(42), None);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(CheckpointManifest::from_json("{not json").is_err());
    }
}
