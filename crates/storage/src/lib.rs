//! Simulated durable storage for the CPR reproduction.
//!
//! The paper evaluates on local NVMe SSDs; this crate replaces them with a
//! [`Device`] abstraction with two implementations:
//!
//! * [`FileDevice`] — file-backed positioned I/O over fixed-size segment
//!   files (so a log's front can be unlinked), with writer threads
//!   providing asynchronous completions (the common case);
//! * [`MemDevice`] — an in-memory device with optional simulated write
//!   latency, for deterministic tests and for machines without a fast
//!   disk.
//!
//! Both deliver the property CPR relies on: writes are issued from worker
//! threads without blocking and complete asynchronously; a completion
//! handle ([`IoHandle`]) reports when data is durable.
//!
//! [`CheckpointStore`] lays out checkpoint directories and persists
//! [`cpr_core::CheckpointManifest`]s with atomic (write-temp-then-rename)
//! commit semantics.
//!
//! Large I/O passes (checkpoint flushes and file writes, capture, load,
//! recovery scans) split into [`IO_CHUNK_BYTES`] units and run over a
//! store's I/O threads through [`fan_out`].

mod checkpoint;
mod device;
mod error;
mod fault;
mod metered;
mod parallel;

pub use checkpoint::CheckpointStore;
pub use device::{Device, FileDevice, IoHandle, IoProfile, MemDevice};
pub use error::StorageError;
pub use fault::{Fault, FaultDevice, FaultInjector, FaultPlan, IoVerdict};
pub use metered::MeteredDevice;
pub use parallel::{env_io_threads, fan_out, IO_CHUNK_BYTES};
