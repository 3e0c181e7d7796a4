//! The workspace's one software-prefetch hint, behind a safe wrapper.
//!
//! The `_mm_prefetch` intrinsic is confined to this module by a
//! `vr-audit` lint rule; everything else in the workspace keeps
//! `unsafe_code = forbid`. Its one caller is `vr-engine`'s `LpmCache`,
//! which hints the direct-mapped slot a few packets ahead of the probe.
//! On non-x86_64 targets the hint is a no-op.

/// Best-effort prefetch of `slab[idx]` into all cache levels.
///
/// Safe wrapper: the index is bounds-checked (out-of-range silently
/// skips — prefetch is advisory, never load-bearing) and the pointer is
/// derived from a live borrow, so the hint can never fault on memory
/// the slice does not own. On non-x86_64 targets this is a no-op.
#[inline(always)]
pub fn prefetch_index<T>(slab: &[T], idx: u32) {
    #[cfg(target_arch = "x86_64")]
    if let Some(word) = slab.get(idx as usize) {
        let ptr: *const T = word;
        // SAFETY: `ptr` points into a live slice borrow; `_mm_prefetch`
        // only hints the cache hierarchy and performs no access that
        // could fault or race.
        #[allow(unsafe_code)]
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                ptr.cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slab, idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_out_of_range_is_harmless() {
        prefetch_index::<u32>(&[], 0);
        prefetch_index(&[1u32, 2, 3], 2);
        prefetch_index(&[1u32, 2, 3], u32::MAX);
    }
}
