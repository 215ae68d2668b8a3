//! Recovery to a CPR-consistent state (paper Sec. 6.4 / Alg. 3).
//!
//! Recovery combines the newest committed log checkpoint (fold-over or
//! snapshot) with the newest fuzzy index checkpoint at or before it, then
//! scans the HybridLog section `[S, E)` fixing the index:
//!
//! * `S = max(min(L_is, L_hs), begin)`, `E = L_he` (our index dumps
//!   complete before `L_he` is recorded, so every dumped address is
//!   durable — see DESIGN.md; nothing below the manifest's begin address
//!   is needed, see `compact.rs`);
//! * a record with version ≤ v becomes its slot's newest address (the
//!   scan runs in address order, so later records win);
//! * a record with version v + 1 is marked invalid on the device, and any
//!   slot pointing at or beyond it is unlinked to the record's previous
//!   address — the UNDO of FASTER recovery.
//!
//! ## Partitioned scan
//!
//! The `[S, E)` scan is embarrassingly parallel: `[S, E)` is split into
//! page-aligned chunks pulled from a shared counter by up to
//! `io_threads` workers, never more workers than chunks. Each worker
//! reduces its chunks to a per-slot summary — `(max valid address,
//! lowest v + 1 address and its prev pointer)` — and issues the
//! idempotent invalid-marker writes for its own chunks. The summaries
//! merge with `(max, min-by-address)`, which is commutative and
//! associative, and are applied to the index sequentially in sorted hash
//! order. The same collect-then-merge path runs at every thread count
//! (including 1), so the recovered index and log bytes are identical no
//! matter how many workers ran.
//!
//! ## Crash safety of recovery itself
//!
//! Recovery may be killed and re-run: snapshot normalization always
//! re-copies `snapshot.dat` into the main log and syncs it *before* the
//! index is loaded or scanned, so a crash mid-normalization just means
//! the next attempt re-copies the same committed bytes; invalid-marker
//! writes are 8-byte header rewrites of fixed content at fixed
//! addresses, so replaying them is a no-op. When
//! [`FasterOptions::fault`] is set, the log device and checkpoint reads
//! are routed through the injector so tests can crash recovery at a
//! chosen read or write.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use cpr_core::{CheckpointKind, CheckpointManifest, Pod};
use cpr_storage::{fan_out, CheckpointStore, Device, FaultDevice, FileDevice, IO_CHUNK_BYTES};

use crate::addr::PageLayout;
use crate::header::{version13, Header, RecordLayout};
use crate::hlog::segment_bits;
use crate::index::{key_hash, HashIndex};
use crate::store::{FasterKv, FasterOptions};

/// What the scan learned about one hash slot: the fold of every record
/// for the slot in address order, reduced to the two numbers the apply
/// phase needs. Merging two summaries is `(max, min-by-address)`.
#[derive(Clone, Copy, Default)]
struct SlotOutcome {
    /// Highest address of a valid version-≤v record.
    max_valid: Option<u64>,
    /// Lowest-addressed version-v+1 record: `(address, prev pointer)`.
    min_invalid: Option<(u64, u64)>,
}

impl SlotOutcome {
    fn merge(&mut self, other: SlotOutcome) {
        if let Some(a) = other.max_valid {
            self.max_valid = Some(self.max_valid.map_or(a, |b| b.max(a)));
        }
        if let Some((a, p)) = other.min_invalid {
            self.min_invalid = Some(match self.min_invalid {
                Some((b, q)) if b < a => (b, q),
                _ => (a, p),
            });
        }
    }
}

pub(crate) fn recover<V: Pod>(
    opts: FasterOptions<V>,
) -> io::Result<(FasterKv<V>, Option<CheckpointManifest>)> {
    let cs = CheckpointStore::open_with(opts.dir.join("checkpoints"), opts.fault.clone())?;
    let m_log = cs.latest_matching(|m| {
        matches!(m.kind, CheckpointKind::FoldOver | CheckpointKind::Snapshot)
    })?;
    let Some(m_log) = m_log else {
        // Nothing committed: a fresh store.
        return Ok((FasterKv::open_inner(opts)?, None));
    };

    let metrics_on = opts.metrics.is_enabled();
    let base: Arc<dyn Device> = Arc::new(FileDevice::open_segmented(
        opts.dir.join("log.dat"),
        segment_bits(opts.hlog.page_bits),
        opts.io_threads,
        opts.io_profile,
    )?);
    let device: Arc<dyn Device> = match &opts.fault {
        Some(inj) => Arc::new(FaultDevice::new(base, Arc::clone(inj))),
        None => base,
    };

    // Normalize a snapshot commit into the main log file so a single
    // contiguous source covers [0, E). Idempotent and re-runnable: the
    // full snapshot is re-copied unconditionally (a previous recovery
    // attempt may have died mid-copy), and it is synced before anything
    // below reads the log.
    if m_log.kind == CheckpointKind::Snapshot {
        let t0 = metrics_on.then(std::time::Instant::now);
        let start = m_log
            .snapshot_start
            .expect("snapshot manifest has snapshot_start");
        let bytes = cs.read_file(m_log.token, "snapshot.dat")?;
        let mut off = 0usize;
        while off < bytes.len() {
            let end = (off + IO_CHUNK_BYTES as usize).min(bytes.len());
            device
                .write_at(start + off as u64, bytes[off..end].to_vec())
                .wait()?;
            off = end;
        }
        device.sync()?;
        if let Some(t0) = t0 {
            opts.metrics
                .record_phase("recovery.normalize", 1, t0.elapsed());
        }
    }

    // Newest usable index checkpoint (the log checkpoint itself if full).
    let m_idx = if m_log.index_begin.is_some() {
        Some(m_log.clone())
    } else {
        cs.latest_matching(|m| m.token <= m_log.token && m.index_begin.is_some())?
    };
    let index = match &m_idx {
        Some(mi) => HashIndex::load(&cs.read_file(mi.token, "index.dat")?)?,
        None => HashIndex::new(opts.index_buckets),
    };

    let layout = PageLayout::new(opts.hlog.page_bits);
    let rec = RecordLayout::new(opts.hlog.value_size);
    let rec_size = rec.record_size() as u64;
    // Nothing below the manifest's begin address is needed (or may
    // still exist): the scan starts there and chains end there.
    let begin = m_log.begin_address.unwrap_or(rec_size);

    let v = m_log.version;
    let vnext13 = version13(v + 1);
    let lhs = m_log.log_begin.expect("log checkpoint has log_begin");
    let e = m_log.log_end.expect("log checkpoint has log_end");
    let s = m_idx
        .as_ref()
        .and_then(|m| m.index_begin)
        .unwrap_or(begin)
        .min(lhs)
        .max(begin);

    // Scan [s, e): page-aligned chunks handed to a worker pool, merged
    // into one per-slot summary map.
    let t_scan = metrics_on.then(std::time::Instant::now);
    let merged = scan_partitioned(&device, &layout, rec_size, vnext13, s, e, opts.io_threads)?;
    if let Some(t0) = t_scan {
        opts.metrics
            .record_phase("recovery.scan", opts.io_threads, t0.elapsed());
    }

    // Apply summaries to the index in sorted hash order (BTreeMap
    // iteration), so slot creation order — and therefore the index dump
    // bytes — do not depend on worker scheduling.
    let t_apply = metrics_on.then(std::time::Instant::now);
    for (hash, o) in &merged {
        let slot = index.find_or_create(*hash);
        loop {
            let cur = slot.address();
            let new = match (o.max_valid, o.min_invalid) {
                (Some(mv), _) => mv,
                (None, Some((ia, prev))) if cur >= ia => prev,
                _ => break,
            };
            if new == cur || slot.try_update(cur, new) {
                break;
            }
        }
    }
    device.sync()?;
    if let Some(t0) = t_apply {
        opts.metrics.record_phase("recovery.apply", 1, t0.elapsed());
    }

    let sessions: HashMap<u64, u64> = m_log
        .sessions
        .iter()
        .map(|s| (s.guid, s.cpr_point))
        .collect();

    let kv = FasterKv::build(opts, device, Some((index, v + 1, sessions, e)))?;
    kv.inner.hlog.restore_at(begin, e);
    // Unlink segments a crash left below the begin address. Best effort:
    // the next truncation retries.
    let _ = kv.inner.hlog.unlink_below_begin();
    Ok((kv, Some(m_log)))
}

/// Scan `[s, e)` with up to `threads` workers over page-aligned chunks and
/// return the merged per-slot summaries. Workers also rewrite the
/// headers of version-v+1 records with the invalid bit set (idempotent
/// 8-byte writes at disjoint addresses; chunks never split a record).
fn scan_partitioned(
    device: &Arc<dyn Device>,
    layout: &PageLayout,
    rec_size: u64,
    vnext13: u64,
    s: u64,
    e: u64,
    threads: usize,
) -> io::Result<BTreeMap<u64, SlotOutcome>> {
    if s >= e {
        return Ok(BTreeMap::new());
    }
    let psz = layout.page_size();
    let chunk_pages = (IO_CHUNK_BYTES / psz).max(1);
    let chunk_bytes = chunk_pages * psz;
    let chunk0 = layout.page_start(layout.page(s));
    let nchunks = (e - chunk0).div_ceil(chunk_bytes);

    let next = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let worker = || -> io::Result<BTreeMap<u64, SlotOutcome>> {
        let mut local: BTreeMap<u64, SlotOutcome> = BTreeMap::new();
        let mut buf: Vec<u8> = Vec::new();
        let mut markers: Vec<cpr_storage::IoHandle> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= nchunks || failed.load(Ordering::Acquire) {
                break;
            }
            let cstart = (chunk0 + i * chunk_bytes).max(s);
            let cend = (chunk0 + (i + 1) * chunk_bytes).min(e);
            if cstart >= cend {
                continue;
            }
            buf.clear();
            buf.resize((cend - cstart) as usize, 0);
            device.read_at(cstart, &mut buf)?;
            scan_chunk(
                &buf,
                cstart,
                cend,
                layout,
                rec_size,
                vnext13,
                device,
                &mut local,
                &mut markers,
            );
        }
        for m in markers {
            m.wait()?;
        }
        Ok(local)
    };

    let results = fan_out(threads, nchunks as usize, |_, _| {
        worker().inspect_err(|_| failed.store(true, Ordering::Release))
    })?;

    let mut merged: BTreeMap<u64, SlotOutcome> = BTreeMap::new();
    for r in results {
        for (hash, o) in r {
            merged.entry(hash).or_default().merge(o);
        }
    }
    Ok(merged)
}

/// Reduce one chunk's records into `local`, issuing invalid-marker
/// writes for version-v+1 records (completion handles are pushed to
/// `markers`; the caller waits them so injected write faults surface).
#[allow(clippy::too_many_arguments)]
fn scan_chunk(
    buf: &[u8],
    cstart: u64,
    cend: u64,
    layout: &PageLayout,
    rec_size: u64,
    vnext13: u64,
    device: &Arc<dyn Device>,
    local: &mut BTreeMap<u64, SlotOutcome>,
    markers: &mut Vec<cpr_storage::IoHandle>,
) {
    let psz = layout.page_size();
    let mut addr = cstart;
    while addr < cend && addr + rec_size <= cend {
        // Records never straddle pages; skip page-tail slack.
        if layout.offset(addr) + rec_size > psz {
            addr = layout.page_start(layout.page(addr) + 1);
            continue;
        }
        let base = (addr - cstart) as usize;
        let word = u64::from_le_bytes(buf[base..base + 8].try_into().unwrap());
        if word == 0 {
            // Unwritten slack: nothing else in this page.
            addr = layout.page_start(layout.page(addr) + 1);
            continue;
        }
        let h = Header::unpack(word);
        let key = u64::from_le_bytes(buf[base + 8..base + 16].try_into().unwrap());
        let entry = local.entry(key_hash(key)).or_default();
        if h.version != vnext13 && !h.invalid {
            // Part of the commit: later addresses win.
            entry.merge(SlotOutcome {
                max_valid: Some(addr),
                min_invalid: None,
            });
        } else {
            // Post-CPR-point record: mark invalid on the device and
            // remember the unlink target — the UNDO of FASTER recovery.
            let inv = Header { invalid: true, ..h };
            markers.push(device.write_at(addr, inv.pack().to_le_bytes().to_vec()));
            entry.merge(SlotOutcome {
                max_valid: None,
                min_invalid: Some((addr, h.prev)),
            });
        }
        addr += rec_size;
    }
}
