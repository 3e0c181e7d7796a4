//! The one sort behind every bulk build: a stable least-significant-digit
//! radix sort by prefix, which the family generators' per-table sorts and
//! `vr-trie`'s sorted routes share.

/// Bits of [`Ipv4Prefix::sort_key`](crate::Ipv4Prefix::sort_key): the
/// 32-bit address above the 8-bit length.
const KEY_BITS: u32 = 40;
/// Bits one counting pass resolves.
const DIGIT_BITS: u32 = 10;
const DIGITS: usize = 1 << DIGIT_BITS;
const PASSES: usize = KEY_BITS.div_ceil(DIGIT_BITS) as usize;

/// Sorts `items` stably by `key`, an [`Ipv4Prefix::sort_key`]
/// (bits above the 40th are ignored): by address, then by length, items
/// with equal keys in the order they came.
///
/// One read of `items` counts the digits of all four 10-bit passes a
/// 40-bit key needs, so the sort reads its input five times: that count,
/// then one scatter a pass.
///
/// [`Ipv4Prefix::sort_key`]: crate::Ipv4Prefix::sort_key
///
/// ```
/// use vr_net::{radix_sort_by_prefix, Ipv4Prefix};
///
/// let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
/// let mut routes = vec![(p("10.1.0.0/16"), 'a'), (p("10.0.0.0/8"), 'b'), (p("10.1.0.0/16"), 'c')];
/// radix_sort_by_prefix(&mut routes, |&(prefix, _)| prefix.sort_key());
/// assert_eq!(routes.iter().map(|&(_, tag)| tag).collect::<String>(), "bac");
/// ```
pub fn radix_sort_by_prefix<T: Copy>(items: &mut Vec<T>, key: impl Fn(&T) -> u64) {
    let Some(&first) = items.first() else {
        return;
    };
    let mut spare = vec![first; items.len()];
    let digit = |key: u64, pass: usize| (key >> (pass as u32 * DIGIT_BITS)) as usize % DIGITS;
    let mut counts = [[0usize; DIGITS]; PASSES];
    for item in items.iter() {
        let key = key(item);
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(key, pass)] += 1;
        }
    }
    for (pass, starts) in counts.iter_mut().enumerate() {
        let mut at = 0;
        for start in starts.iter_mut() {
            (*start, at) = (at, at + *start);
        }
        for item in items.iter() {
            let start = &mut starts[digit(key(item), pass)];
            spare[*start] = *item;
            *start += 1;
        }
        std::mem::swap(items, &mut spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ipv4Prefix;
    use proptest::prelude::*;

    /// The reference: the standard library's stable sort by the same key.
    fn stable(items: &[(Ipv4Prefix, u32)]) -> Vec<(Ipv4Prefix, u32)> {
        let mut want = items.to_vec();
        want.sort_by_key(|&(prefix, _)| prefix);
        want
    }

    fn radix(items: &[(Ipv4Prefix, u32)]) -> Vec<(Ipv4Prefix, u32)> {
        let mut got = items.to_vec();
        radix_sort_by_prefix(&mut got, |&(prefix, _)| prefix.sort_key());
        got
    }

    #[test]
    fn empty_and_single_inputs_are_their_own_sort() {
        assert!(radix(&[]).is_empty());
        let one = [(Ipv4Prefix::must(0x0A00_0000, 8), 7)];
        assert_eq!(radix(&one), one);
    }

    #[test]
    fn key_order_is_the_prefix_order() {
        let p = |s: &str| s.parse::<Ipv4Prefix>().unwrap();
        let prefixes = [
            "0.0.0.0/0",
            "0.0.0.0/1",
            "10.0.0.0/8",
            "10.0.0.0/32",
            "10.0.0.1/32",
            "128.0.0.0/1",
            "255.255.255.255/32",
        ];
        for pair in prefixes.windows(2) {
            let (a, b) = (p(pair[0]), p(pair[1]));
            assert!(a < b && a.sort_key() < b.sort_key(), "{a} {b}");
        }
        assert!(p("255.255.255.255/32").sort_key() < 1 << KEY_BITS);
    }

    /// Digits the same for every item: the same /24 in many VNs with one
    /// length apart, then the same prefix everywhere, so only the length
    /// digit, then no digit, orders them and the input order must come
    /// back.
    #[test]
    fn constant_digits_keep_the_input_order() {
        let base = Ipv4Prefix::must(0xC0A8_0100, 24);
        let long = Ipv4Prefix::must(0xC0A8_0100, 25);
        let items: Vec<_> = (0..300)
            .map(|vn| (if vn % 3 == 0 { long } else { base }, vn))
            .collect();
        assert_eq!(radix(&items), stable(&items));
        let same: Vec<_> = (0..300).map(|vn| (base, vn)).collect();
        assert_eq!(radix(&same), same);
    }

    /// Prefixes from a narrow pool half the time, so equal prefixes and
    /// equal high digits are common, and from the whole space otherwise.
    fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
        (any::<bool>(), any::<u32>(), 0u8..=32).prop_map(|(narrow, addr, len)| {
            let addr = if narrow { (addr % 8) << 22 } else { addr };
            Ipv4Prefix::must(addr, len)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Equal to a stable sort, items tagged by position.
        #[test]
        fn radix_sort_equals_a_stable_sort(prefixes in prop::collection::vec(arb_prefix(), 0..400)) {
            let items: Vec<_> = prefixes.into_iter().zip(0..).collect();
            prop_assert_eq!(radix(&items), stable(&items));
        }

        /// The same prefixes in several VNs, gathered VN by VN as the
        /// sorted routes gather them, each VN's in its own order: a
        /// prefix's VNs stay in order.
        #[test]
        fn a_prefix_keeps_its_vn_order(
            prefixes in prop::collection::vec(arb_prefix(), 0..100),
            vns in 1u32..6,
        ) {
            let mut prefixes = prefixes;
            prefixes.sort_unstable();
            prefixes.dedup();
            let n = prefixes.len().max(1);
            let items: Vec<_> = (0..vns)
                .flat_map(|vn| {
                    let turn = vn as usize * 7 % n;
                    let own = prefixes[turn..].iter().chain(&prefixes[..turn]);
                    own.map(move |&prefix| (prefix, vn))
                })
                .collect();
            let got = radix(&items);
            prop_assert_eq!(&got, &stable(&items));
            for pair in got.windows(2) {
                prop_assert!(pair[0].0 != pair[1].0 || pair[0].1 < pair[1].1);
            }
        }
    }
}
