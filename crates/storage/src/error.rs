//! Typed storage errors.
//!
//! The device layer plumbs `std::io::Result` end to end (completion
//! handles carry error *messages* across threads), but fault-injection
//! and checkpoint-store failures have structure worth keeping:
//! [`StorageError`] distinguishes a real I/O failure from an injected
//! transient fault and from a frozen post-crash device, and converts
//! losslessly into `io::Error` for the existing plumbing.

use std::fmt;
use std::io;

/// A storage-layer failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// A scripted fault fired for this operation (transient: a retry is
    /// a new operation and may succeed). Carries the fault-plan seed so
    /// a failing run can be replayed from its message.
    Injected { op: u64, seed: u64 },
    /// The simulated crash has fired: all I/O fails and on-disk state is
    /// frozen until the store is reopened fault-free.
    Crashed { op: u64, seed: u64 },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Injected { op, seed } => {
                write!(f, "injected fault at op {op} (plan seed {seed:#018x})")
            }
            StorageError::Crashed { op, seed } => {
                write!(
                    f,
                    "simulated crash: I/O frozen at op {op} (plan seed {seed:#018x})"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<StorageError> for io::Error {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = StorageError::Injected {
            op: 3,
            seed: 0xBEEF,
        };
        assert!(e.to_string().contains("op 3"), "{e}");
        assert!(std::error::Error::source(&e).is_none());
        let io_err: io::Error = e.into();
        assert!(io_err.to_string().contains("injected fault"));

        let wrapped = StorageError::from(io::Error::other("disk on fire"));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(wrapped.to_string().contains("disk on fire"));
    }
}
