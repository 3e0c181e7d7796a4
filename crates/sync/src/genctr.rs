//! Cache generation tags.
//!
//! The generation itself lives inside the published snapshot
//! ([`crate::Publish::update`] derives `generation + 1` under the slot's
//! lock), so the only free-standing generation type is the tag a cache
//! slot stores to tell which generation filled it.

/// Generation tag stored in a cache slot.
///
/// `GenTag::EMPTY` is `u64::MAX`, unreachable by any live generation (the
/// counter starts at 0 and bumps by 1), so an empty slot can never satisfy
/// [`GenTag::matches`] — the property the `no_stale_cache_hit` model
/// program depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct GenTag(u64);

impl GenTag {
    /// Sentinel for "slot never filled / invalidated".
    pub const EMPTY: GenTag = GenTag(u64::MAX);

    /// Tag a cache fill with the generation of the snapshot it came from.
    #[inline]
    pub fn of(generation: u64) -> Self {
        GenTag(generation)
    }

    /// Does this slot's fill generation match the pinned snapshot's?
    /// A mismatch (including `EMPTY`) is a miss — O(1) whole-cache
    /// invalidation falls out of bumping the generation.
    #[inline]
    pub fn matches(self, generation: u64) -> bool {
        self.0 == generation
    }

    /// The raw fill generation (for telemetry / debug assertions).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tag_never_matches_a_live_generation() {
        assert!(!GenTag::EMPTY.matches(0));
        assert!(!GenTag::EMPTY.matches(1));
        assert!(GenTag::of(3).matches(3));
        assert!(!GenTag::of(3).matches(4));
        assert_eq!(GenTag::of(7).raw(), 7);
    }
}
