//! A [`Device`] decorator that feeds a metrics registry.
//!
//! Records, per write: bytes issued, queue depth at issue, and the
//! issue-to-durable completion latency (via the handle's completion
//! callback). Syncs record their blocking duration. Engines wrap their
//! log device in a [`MeteredDevice`] only when metrics are enabled, so
//! the disabled path pays nothing at all.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use cpr_metrics::Registry;

use crate::device::{Device, IoHandle};

/// Metering [`Device`] decorator; see the module docs.
pub struct MeteredDevice {
    inner: Arc<dyn Device>,
    metrics: Arc<Registry>,
}

impl MeteredDevice {
    pub fn new(inner: Arc<dyn Device>, metrics: Arc<Registry>) -> Self {
        MeteredDevice { inner, metrics }
    }
}

impl Device for MeteredDevice {
    fn write_at(&self, offset: u64, data: Vec<u8>) -> IoHandle {
        if !self.metrics.is_enabled() {
            return self.inner.write_at(offset, data);
        }
        self.metrics.storage_write_issued(data.len() as u64);
        let issued = Instant::now();
        let handle = self.inner.write_at(offset, data);
        let metrics = Arc::clone(&self.metrics);
        handle.on_complete(move |_ok| {
            metrics.storage_write_done(issued.elapsed());
        });
        handle
    }

    // One logical write in the metrics, however many queues it fans
    // out to underneath.
    fn write_vectored_at(&self, offset: u64, bufs: Vec<Vec<u8>>) -> IoHandle {
        if !self.metrics.is_enabled() {
            return self.inner.write_vectored_at(offset, bufs);
        }
        let total: usize = bufs.iter().map(Vec::len).sum();
        self.metrics.storage_write_issued(total as u64);
        let issued = Instant::now();
        let handle = self.inner.write_vectored_at(offset, bufs);
        let metrics = Arc::clone(&self.metrics);
        handle.on_complete(move |_ok| {
            metrics.storage_write_done(issued.elapsed());
        });
        handle
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_at(offset, buf)
    }

    fn sync(&self) -> io::Result<()> {
        if !self.metrics.is_enabled() {
            return self.inner.sync();
        }
        let t0 = Instant::now();
        let res = self.inner.sync();
        self.metrics.storage_sync(t0.elapsed());
        res
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn truncate_below(&self, offset: u64) -> io::Result<()> {
        self.inner.truncate_below(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemDevice;

    #[test]
    fn write_and_sync_are_recorded() {
        let metrics = Registry::new();
        let dev = MeteredDevice::new(MemDevice::new(), Arc::clone(&metrics));
        dev.write_at(0, vec![7; 128]).wait().unwrap();
        dev.sync().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.storage.writes, 1);
        assert_eq!(s.storage.bytes_written, 128);
        assert_eq!(s.storage.syncs, 1);
        assert_eq!(s.storage.flush_latency.count, 2);
        assert!(s.storage.max_queue_depth >= 1);
        let mut buf = [0u8; 4];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [7; 4]);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let metrics = Registry::noop();
        let dev = MeteredDevice::new(MemDevice::new(), Arc::clone(&metrics));
        dev.write_at(0, vec![1; 64]).wait().unwrap();
        dev.sync().unwrap();
        let s = metrics.snapshot();
        assert_eq!(s.storage.writes, 0);
        assert_eq!(s.storage.syncs, 0);
    }
}
