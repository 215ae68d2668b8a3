//! The FASTER hash index (paper Secs. 5, 6.3).
//!
//! An array of 64-byte buckets, each holding 7 entries plus an overflow
//! pointer. An entry packs a 48-bit HybridLog address, a 14-bit tag
//! (additional hash bits distinguishing keys that share a bucket), and a
//! *tentative* bit used by the latch-free two-phase insert. All reads and
//! updates are atomic and latch-free.
//!
//! The index is always physically consistent (entries change only by CAS),
//! so a *fuzzy checkpoint* is just an atomic-read dump of the arrays
//! (paper Sec. 6.3).
//!
//! Main and overflow buckets share one zeroed allocation, as the
//! HybridLog's frames do: the OS commits its pages on first touch, so
//! opening or recovering a store does not pay for the (mostly unused)
//! overflow pool or for buckets no key has reached yet.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::addr::{Address, ADDRESS_MASK, INVALID_ADDRESS};

pub const ENTRIES_PER_BUCKET: usize = 7;
const TAG_BITS: u32 = 14;
const TAG_SHIFT: u32 = 48;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;
const TENTATIVE_BIT: u64 = 1 << 62;

/// First bytes of an index checkpoint ([`HashIndex::dump_into`]).
const DUMP_MAGIC: [u8; 4] = *b"FIDX";
/// Format 2: per-bucket occupancy masks. (Format 1 had no header and
/// stored every word.)
const DUMP_VERSION: u32 = 2;

/// 64-byte hash bucket: 7 entries + 1 overflow pointer (index+1 into the
/// overflow pool; 0 = none).
#[repr(C, align(64))]
pub struct Bucket {
    entries: [AtomicU64; ENTRIES_PER_BUCKET],
    overflow: AtomicU64,
}

const BUCKET_WORDS: usize = ENTRIES_PER_BUCKET + 1;
const _: () = assert!(std::mem::size_of::<Bucket>() == BUCKET_WORDS * 8);

/// A zeroed array of buckets carved out of one word allocation.
///
/// `Box<[Bucket]>` cannot be allocated lazily: a 64-byte alignment takes
/// the allocator's aligned path, which writes every page. A word-aligned
/// zeroed allocation is a fresh anonymous mapping instead, and the
/// buckets start at its first 64-byte boundary.
struct BucketArena {
    words: Box<[AtomicU64]>,
    /// Words skipped to reach the first 64-byte boundary.
    skip: usize,
    len: usize,
}

impl BucketArena {
    fn zeroed(len: usize) -> Self {
        let words = crate::hlog::zeroed_words(len * BUCKET_WORDS + BUCKET_WORDS - 1);
        let skip = words.as_ptr().align_offset(std::mem::align_of::<Bucket>());
        assert!(
            skip < BUCKET_WORDS,
            "no bucket boundary in the first bucket's words"
        );
        BucketArena { words, skip, len }
    }

    #[inline]
    fn buckets(&self) -> &[Bucket] {
        let words = &self.words[self.skip..self.skip + self.len * BUCKET_WORDS];
        // SAFETY: `words` starts on a 64-byte boundary (`skip`) and holds
        // exactly `len` buckets' worth of words, all inside the
        // allocation. `Bucket` is `repr(C)`, made only of `AtomicU64`s
        // with no padding (size asserted above), so each bucket overlays
        // eight of those words, and the all-zero pattern (an empty
        // bucket) is valid. The words are only ever accessed atomically,
        // through this view, and the borrow ties the view to `self`.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<Bucket>(), self.len) }
    }
}

#[inline]
fn entry_tag(word: u64) -> u64 {
    (word >> TAG_SHIFT) & TAG_MASK
}

#[inline]
fn entry_addr(word: u64) -> Address {
    word & ADDRESS_MASK
}

#[inline]
fn make_entry(tag: u64, addr: Address, tentative: bool) -> u64 {
    (addr & ADDRESS_MASK) | (tag << TAG_SHIFT) | if tentative { TENTATIVE_BIT } else { 0 }
}

/// Mix a key into a 64-bit hash (bucket index from the low bits, tag from
/// the high bits).
#[inline]
pub fn key_hash(key: u64) -> u64 {
    let mut h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 31;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h
}

#[inline]
fn tag_of(hash: u64) -> u64 {
    // Skip the top bit so tags also differ from the tentative bit's
    // position semantics; any 14 bits work.
    (hash >> 49) & TAG_MASK
}

/// A located index slot for some key hash. The caller reads the current
/// address and CASes updates through this handle.
#[derive(Clone, Copy)]
pub struct Slot<'a> {
    cell: &'a AtomicU64,
    tag: u64,
}

impl Slot<'_> {
    /// Current record address in this slot (`INVALID_ADDRESS` if empty).
    #[inline]
    pub fn address(&self) -> Address {
        let w = self.cell.load(Ordering::Acquire);
        debug_assert!(w == 0 || entry_tag(w) == self.tag);
        entry_addr(w)
    }

    /// CAS the slot's address from `old` to `new`. Fails if a concurrent
    /// update changed it.
    #[inline]
    pub fn try_update(&self, old: Address, new: Address) -> bool {
        let old_word = make_entry(self.tag, old, false);
        let new_word = make_entry(self.tag, new, false);
        self.cell
            .compare_exchange(old_word, new_word, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

/// The latch-free hash index.
pub struct HashIndex {
    /// `mask + 1` main buckets followed by the overflow pool.
    arena: BucketArena,
    mask: u64,
    overflow_next: AtomicUsize,
}

impl HashIndex {
    /// Create an index with at least `bucket_hint` main buckets (rounded
    /// up to a power of two). Overflow capacity is proportional.
    pub fn new(bucket_hint: usize) -> Self {
        let n = bucket_hint.next_power_of_two().max(64);
        // Generous: the index is normally sized at #keys/2 buckets so
        // chains are short, but undersized indexes (tests, skewed loads)
        // must keep working. Untouched overflow buckets cost no memory.
        let overflow_cap = (n * 4).max(256);
        HashIndex {
            arena: BucketArena::zeroed(n + overflow_cap),
            mask: (n - 1) as u64,
            overflow_next: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn main(&self) -> &[Bucket] {
        &self.arena.buckets()[..=self.mask as usize]
    }

    #[inline]
    fn overflow(&self) -> &[Bucket] {
        &self.arena.buckets()[self.mask as usize + 1..]
    }

    pub fn bucket_count(&self) -> usize {
        self.mask as usize + 1
    }

    /// Hint the CPU to start loading the main bucket of `hash`. Reads
    /// nothing and changes nothing; a later [`HashIndex::find`] reads the
    /// bucket again.
    #[inline]
    pub fn prefetch(&self, hash: u64) {
        crate::prefetch::line(&self.main()[(hash & self.mask) as usize]);
    }

    /// Main-bucket index for a key hash — used to key the per-bucket
    /// latches of the fine-grained CPR variant.
    #[inline]
    pub fn bucket_index(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    fn bucket_chain(&self, hash: u64) -> impl Iterator<Item = &Bucket> {
        let first = &self.main()[(hash & self.mask) as usize];
        BucketChain {
            index: self,
            cur: Some(first),
        }
    }

    /// Find the slot for `hash` if one exists (does not allocate).
    pub fn find(&self, hash: u64) -> Option<Slot<'_>> {
        let tag = tag_of(hash);
        for bucket in self.bucket_chain(hash) {
            for cell in &bucket.entries {
                let w = cell.load(Ordering::Acquire);
                if w != 0 && entry_tag(w) == tag && w & TENTATIVE_BIT == 0 {
                    return Some(Slot { cell, tag });
                }
            }
        }
        None
    }

    /// Find or create the slot for `hash` (latch-free two-phase insert:
    /// claim a free cell with the tentative bit, re-scan for a racing
    /// duplicate, then clear the bit).
    pub fn find_or_create(&self, hash: u64) -> Slot<'_> {
        let tag = tag_of(hash);
        'retry: loop {
            let mut free: Option<&AtomicU64> = None;
            let mut last_bucket: Option<&Bucket> = None;
            for bucket in self.bucket_chain(hash) {
                for cell in &bucket.entries {
                    let w = cell.load(Ordering::Acquire);
                    if w != 0 && entry_tag(w) == tag {
                        if w & TENTATIVE_BIT != 0 {
                            // A racing insert is mid-flight; wait for it.
                            std::hint::spin_loop();
                            continue 'retry;
                        }
                        return Slot { cell, tag };
                    }
                    if w == 0 && free.is_none() {
                        free = Some(cell);
                    }
                }
                last_bucket = Some(bucket);
            }

            let Some(cell) = free else {
                // Chain full: link a new overflow bucket and retry.
                self.extend_chain(last_bucket.expect("chain has >= 1 bucket"));
                continue 'retry;
            };

            // Phase 1: claim tentatively.
            let tentative = make_entry(tag, INVALID_ADDRESS, true);
            if cell
                .compare_exchange(0, tentative, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue 'retry;
            }
            // Phase 2: if another entry with our tag exists (tentative or
            // not), back off and retry — exactly one insert must win.
            let mut duplicate = false;
            for bucket in self.bucket_chain(hash) {
                for other in &bucket.entries {
                    if std::ptr::eq(other, cell) {
                        continue;
                    }
                    let w = other.load(Ordering::Acquire);
                    if w != 0 && entry_tag(w) == tag {
                        duplicate = true;
                    }
                }
            }
            if duplicate {
                cell.store(0, Ordering::Release);
                continue 'retry;
            }
            // Commit: clear the tentative bit.
            cell.store(make_entry(tag, INVALID_ADDRESS, false), Ordering::Release);
            return Slot { cell, tag };
        }
    }

    /// Link a fresh overflow bucket after `bucket` (no-op if a racer
    /// already did).
    fn extend_chain(&self, bucket: &Bucket) {
        if bucket.overflow.load(Ordering::Acquire) != 0 {
            return;
        }
        let idx = self.overflow_next.fetch_add(1, Ordering::AcqRel);
        assert!(
            idx < self.overflow().len(),
            "hash index overflow pool exhausted ({} buckets)",
            self.overflow().len()
        );
        if bucket
            .overflow
            .compare_exchange(0, idx as u64 + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Lost the race; the pool slot idx is leaked (bounded by racer
            // count, and the pool is sized generously).
        }
    }

    /// Visit every non-empty, non-tentative (tag, address) entry.
    pub fn for_each(&self, mut f: impl FnMut(Address)) {
        let visit = |bucket: &Bucket, f: &mut dyn FnMut(Address)| {
            for cell in &bucket.entries {
                let w = cell.load(Ordering::Acquire);
                if w != 0 && w & TENTATIVE_BIT == 0 && entry_addr(w) != INVALID_ADDRESS {
                    f(entry_addr(w));
                }
            }
        };
        for b in self.main() {
            visit(b, &mut f);
        }
        for b in self.overflow_used() {
            visit(b, &mut f);
        }
    }

    /// Fuzzy checkpoint: atomically read every word into a new buffer
    /// (paper Sec. 6.3); see [`HashIndex::dump_into`].
    pub fn dump(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.dump_into(&mut out);
        out
    }

    /// Fuzzy checkpoint into `out`, replacing its contents (commits reuse
    /// one buffer). Layout: `[DUMP_MAGIC][version u32][n_buckets u64]
    /// [overflow_used u64]`, then per bucket, main buckets first, a
    /// one-byte occupancy mask (bit `i` for entry `i`, bit 7 for the
    /// overflow pointer) followed by only the non-zero words. Most
    /// buckets of a sized index are partly empty, so this is about half
    /// the size of a word-by-word image.
    pub fn dump_into(&self, out: &mut Vec<u8>) {
        let used = self.overflow_used().len();
        out.clear();
        out.extend_from_slice(&DUMP_MAGIC);
        out.extend_from_slice(&DUMP_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.bucket_count() as u64).to_le_bytes());
        out.extend_from_slice(&(used as u64).to_le_bytes());
        let mut dump_bucket = |b: &Bucket| {
            let mut words = [0u64; BUCKET_WORDS];
            for (w, cell) in words.iter_mut().zip(&b.entries) {
                // Clear tentative bits: a tentative entry is an
                // in-flight insert, logically absent.
                let v = cell.load(Ordering::Acquire);
                *w = if v & TENTATIVE_BIT != 0 { 0 } else { v };
            }
            words[ENTRIES_PER_BUCKET] = b.overflow.load(Ordering::Acquire);
            let mask = words
                .iter()
                .enumerate()
                .fold(0u8, |m, (i, &w)| m | (((w != 0) as u8) << i));
            out.push(mask);
            for w in words.iter().filter(|&&w| w != 0) {
                out.extend_from_slice(&w.to_le_bytes());
            }
        };
        for b in self.main() {
            dump_bucket(b);
        }
        for b in &self.overflow()[..used] {
            dump_bucket(b);
        }
    }

    /// The overflow buckets handed out so far.
    fn overflow_used(&self) -> &[Bucket] {
        let pool = self.overflow();
        &pool[..self.overflow_next.load(Ordering::Acquire).min(pool.len())]
    }

    /// Restore an index from a [`HashIndex::dump`] buffer. Anything else
    /// (another format, a truncated or padded dump) is `InvalidData`.
    pub fn load(data: &[u8]) -> std::io::Result<Self> {
        use std::io::{Error, ErrorKind};
        let err = |m: &str| Error::new(ErrorKind::InvalidData, m.to_string());
        const HEADER: usize = DUMP_MAGIC.len() + 4 + 16;
        if data.len() < HEADER {
            return Err(err("index dump truncated"));
        }
        let u64_at = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        if data[..DUMP_MAGIC.len()] != DUMP_MAGIC {
            return Err(err("not an index dump (bad magic)"));
        }
        let at = DUMP_MAGIC.len();
        let version = u32::from_le_bytes(data[at..at + 4].try_into().unwrap());
        if version != DUMP_VERSION {
            return Err(err("unsupported index dump version"));
        }
        let n = u64_at(at + 4) as usize;
        let used = u64_at(at + 12) as usize;
        if !n.is_power_of_two() {
            return Err(err("bucket count not a power of two"));
        }
        // Every bucket takes at least its mask byte.
        if data.len() - HEADER < n.saturating_add(used) {
            return Err(err("index dump too short"));
        }
        let index = HashIndex::new(n);
        if used > index.overflow().len() {
            return Err(err("overflow pool too large for layout"));
        }
        // The arena is zeroed: store only the present words, so empty
        // buckets stay untouched pages.
        let mut at = HEADER;
        for b in &index.arena.buckets()[..n + used] {
            let mask = *data.get(at).ok_or_else(|| err("index dump truncated"))?;
            at += 1;
            let present = mask.count_ones() as usize;
            let words = data
                .get(at..at + 8 * present)
                .ok_or_else(|| err("index dump truncated"))?;
            at += 8 * present;
            let mut words = words.chunks_exact(8);
            let cells = b.entries.iter().chain(std::iter::once(&b.overflow));
            for (i, cell) in cells.enumerate() {
                if mask & (1 << i) != 0 {
                    let w = words.next().expect("one word per mask bit");
                    cell.store(u64::from_le_bytes(w.try_into().unwrap()), Ordering::Relaxed);
                }
            }
        }
        if at != data.len() {
            return Err(err("trailing bytes after index dump"));
        }
        index.overflow_next.store(used, Ordering::Release);
        Ok(index)
    }
}

struct BucketChain<'a> {
    index: &'a HashIndex,
    cur: Option<&'a Bucket>,
}

impl<'a> Iterator for BucketChain<'a> {
    type Item = &'a Bucket;
    fn next(&mut self) -> Option<&'a Bucket> {
        let cur = self.cur?;
        let next = cur.overflow.load(Ordering::Acquire);
        self.cur = if next == 0 {
            None
        } else {
            Some(&self.index.overflow()[(next - 1) as usize])
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn create_then_find() {
        let idx = HashIndex::new(64);
        let h = key_hash(42);
        assert!(idx.find(h).is_none());
        let slot = idx.find_or_create(h);
        assert_eq!(slot.address(), INVALID_ADDRESS);
        assert!(slot.try_update(INVALID_ADDRESS, 1024));
        assert_eq!(idx.find(h).unwrap().address(), 1024);
    }

    #[test]
    fn cas_fails_on_stale_old() {
        let idx = HashIndex::new(64);
        let slot = idx.find_or_create(key_hash(1));
        assert!(slot.try_update(0, 100));
        assert!(!slot.try_update(0, 200), "stale expected value");
        assert!(slot.try_update(100, 200));
        assert_eq!(slot.address(), 200);
    }

    #[test]
    fn many_keys_chain_into_overflow() {
        let idx = HashIndex::new(64); // 64 buckets * 7 entries = 448 slots
        let n = 2000u64;
        for k in 0..n {
            let slot = idx.find_or_create(key_hash(k));
            // Keys with colliding (bucket, tag) share a slot — CAS from
            // whatever is current, as real ops do.
            loop {
                let cur = slot.address();
                if slot.try_update(cur, 24 * (k + 1)) {
                    break;
                }
            }
        }
        for k in 0..n {
            let got = idx.find(key_hash(k)).map(|s| s.address());
            // Tag collisions within a bucket are possible (same 14-bit
            // tag): colliding keys share a slot, the last CAS wins the
            // chain head. What must hold: every key finds *a* slot.
            assert!(got.is_some(), "key {k} lost");
        }
    }

    #[test]
    fn concurrent_find_or_create_converges_to_one_slot() {
        let idx = Arc::new(HashIndex::new(8));
        let addrs: Vec<u64> = (0..8u64)
            .map(|t| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    let slot = idx.find_or_create(key_hash(7));
                    // Everyone tries to install a distinct address.
                    slot.try_update(INVALID_ADDRESS, 24 * (t + 1));
                    slot.address()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        // Exactly one install can succeed from INVALID.
        let final_addr = idx.find(key_hash(7)).unwrap().address();
        assert!(final_addr != 0);
        for a in addrs {
            assert_eq!(a, final_addr, "all racers must converge on one slot");
        }
    }

    #[test]
    fn dump_load_roundtrip() {
        let idx = HashIndex::new(64);
        for k in 0..500u64 {
            let slot = idx.find_or_create(key_hash(k));
            slot.try_update(INVALID_ADDRESS, 24 * (k + 1));
        }
        let dump = idx.dump();
        let restored = HashIndex::load(&dump).unwrap();
        for k in 0..500u64 {
            let a = idx.find(key_hash(k)).unwrap().address();
            let b = restored.find(key_hash(k)).unwrap().address();
            assert_eq!(a, b, "key {k}");
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(HashIndex::load(&[1, 2, 3]).is_err());
        let mut bad = HashIndex::new(64).dump();
        bad[8] = 3; // bucket count not a power of two
        assert!(HashIndex::load(&bad).is_err());
    }

    #[test]
    fn load_rejects_the_old_format_and_truncation() {
        let invalid = |data: &[u8]| {
            HashIndex::load(data).err().map(|e| e.kind()) == Some(std::io::ErrorKind::InvalidData)
        };
        let idx = HashIndex::new(64);
        for k in 0..300u64 {
            idx.find_or_create(key_hash(k))
                .try_update(INVALID_ADDRESS, 24 * (k + 1));
        }
        let dump = idx.dump();
        // Format 1: `[n_buckets][overflow_used]`, then every word.
        let mut old = Vec::new();
        old.extend_from_slice(&64u64.to_le_bytes());
        old.extend_from_slice(&0u64.to_le_bytes());
        old.resize(16 + 64 * 64, 0);
        assert!(invalid(&old), "the word-by-word format");
        for cut in [0, 10, 23, 24, 25, dump.len() / 2, dump.len() - 1] {
            assert!(invalid(&dump[..cut]), "cut at {cut}");
        }
        let mut padded = dump.clone();
        padded.push(0);
        assert!(invalid(&padded), "trailing byte");
        assert!(HashIndex::load(&dump).is_ok());
    }

    #[test]
    fn sparse_dump_is_smaller_and_reuses_its_buffer() {
        let idx = HashIndex::new(1 << 10);
        for k in 0..2000u64 {
            idx.find_or_create(key_hash(k))
                .try_update(INVALID_ADDRESS, 24 * (k + 1));
        }
        let mut buf = Vec::new();
        idx.dump_into(&mut buf);
        let words = (idx.bucket_count() + idx.overflow_used().len()) * 64;
        assert!(buf.len() < words * 3 / 4, "{} vs {words}", buf.len());
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        idx.dump_into(&mut buf);
        assert_eq!((buf.capacity(), buf.as_ptr()), (cap, ptr));
        assert_eq!(buf, idx.dump());
        let back = HashIndex::load(&buf).unwrap();
        assert_eq!(back.dump(), buf, "load then dump is the identity");
    }

    #[test]
    fn for_each_visits_installed_addresses() {
        let idx = HashIndex::new(64);
        for k in 0..100u64 {
            let slot = idx.find_or_create(key_hash(k));
            slot.try_update(INVALID_ADDRESS, 24 * (k + 1));
        }
        let mut n = 0;
        idx.for_each(|addr| {
            assert!(addr >= 24);
            n += 1;
        });
        // Tag collisions may merge keys; count is <= 100 but close.
        assert!(n > 90 && n <= 100, "visited {n}");
    }
}
