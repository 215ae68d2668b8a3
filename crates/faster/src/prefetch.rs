//! Cache prefetch hints for batched execution.
//!
//! A prefetch only asks the CPU to start loading a cache line: it reads
//! no value the program sees, cannot fault, and is dropped by the CPU if
//! the address is not mapped. Callers may therefore pass a stale address.

/// Hint the CPU to load the cache line holding `p` into all cache levels.
/// A no-op on targets without a prefetch intrinsic.
#[inline(always)]
pub(crate) fn line<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `prefetcht0` performs no architectural memory access: it
        // never faults and never changes memory, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}
