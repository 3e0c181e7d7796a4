//! Canonical IPv4 prefixes.
//!
//! A prefix is stored as a masked 32-bit address plus a length. All
//! constructors canonicalize (zero the host bits), so two prefixes covering
//! the same address range always compare equal — an invariant the trie
//! construction in `vr-trie` relies on.

use crate::error::NetError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 prefix: a masked network address and a prefix length in `0..=32`.
///
/// Ordering is lexicographic on `(addr, len)`, which groups prefixes sharing
/// a bit-string prefix together — convenient for deterministic table dumps.
///
/// ```
/// use vr_net::Ipv4Prefix;
///
/// let p: Ipv4Prefix = "192.168.1.0/24".parse().unwrap();
/// assert!(p.contains(0xC0A8_0142)); // 192.168.1.66
/// assert!(!p.contains(0xC0A8_0242)); // 192.168.2.66
/// assert_eq!(p.to_string(), "192.168.1.0/24");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    addr: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT_ROUTE: Ipv4Prefix = Ipv4Prefix { addr: 0, len: 0 };

    /// Creates a prefix from a (possibly non-canonical) address and length.
    ///
    /// Host bits below the prefix length are zeroed.
    ///
    /// # Errors
    /// Returns [`NetError::InvalidPrefixLen`] if `len > 32`.
    pub fn new(addr: u32, len: u8) -> Result<Self, NetError> {
        if len > 32 {
            return Err(NetError::InvalidPrefixLen(len));
        }
        Ok(Self {
            addr: addr & mask(len),
            len,
        })
    }

    /// Creates a prefix, panicking on an invalid length.
    ///
    /// Intended for literals in tests and generators where the length is a
    /// constant known to be valid.
    #[must_use]
    pub fn must(addr: u32, len: u8) -> Self {
        Self::new(addr, len).expect("prefix length must be 0..=32")
    }

    /// The masked network address.
    #[must_use]
    pub fn addr(&self) -> u32 {
        self.addr
    }

    /// The prefix length in bits. (A prefix is not a container, so no
    /// `is_empty` counterpart exists; `/0` is the default route.)
    #[must_use]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The netmask corresponding to the prefix length.
    #[must_use]
    pub fn netmask(&self) -> u32 {
        mask(self.len)
    }

    /// Whether `ip` falls inside this prefix.
    #[must_use]
    pub fn contains(&self, ip: u32) -> bool {
        (ip & self.netmask()) == self.addr
    }

    /// Whether `other` is fully covered by `self` (i.e. `self` is shorter or
    /// equal and their masked addresses agree on `self.len` bits).
    #[must_use]
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && (other.addr & self.netmask()) == self.addr
    }

    /// The `i`-th bit of the address counted from the most significant bit
    /// (bit 0 is the MSB). Only bits `0..self.len` are meaningful.
    #[must_use]
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.addr >> (31 - i)) & 1 == 1
    }

    /// Iterator over the meaningful bits, MSB first.
    pub fn bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bit(i))
    }

    /// The two children of this prefix in the binary trie (one bit longer).
    ///
    /// Returns `None` when the prefix is already a host route (`/32`).
    #[must_use]
    pub fn children(&self) -> Option<(Ipv4Prefix, Ipv4Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let len = self.len + 1;
        let left = Ipv4Prefix {
            addr: self.addr,
            len,
        };
        let right = Ipv4Prefix {
            addr: self.addr | (1 << (32 - len)),
            len,
        };
        Some((left, right))
    }

    /// The immediate parent (one bit shorter), or `None` for the default route.
    #[must_use]
    pub fn parent(&self) -> Option<Ipv4Prefix> {
        if self.len == 0 {
            return None;
        }
        let len = self.len - 1;
        Some(Ipv4Prefix {
            addr: self.addr & mask(len),
            len,
        })
    }

    /// Number of host addresses covered (2^(32-len)); saturates for `/0`.
    #[must_use]
    pub fn address_count(&self) -> u64 {
        1u64 << (32 - u32::from(self.len))
    }
}

/// Netmask for a prefix length; `mask(0) == 0`, `mask(32) == u32::MAX`.
#[must_use]
pub fn mask(len: u8) -> u32 {
    debug_assert!(len <= 32);
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.addr;
        write!(
            f,
            "{}.{}.{}.{}/{}",
            (a >> 24) & 0xff,
            (a >> 16) & 0xff,
            (a >> 8) & 0xff,
            a & 0xff,
            self.len
        )
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = NetError;

    /// Parses `a.b.c.d/len`. Host bits are canonicalized away.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |reason| NetError::InvalidPrefix {
            input: s.chars().take(64).collect(),
            reason,
        };
        let (ip_part, len_part) = s.split_once('/').ok_or_else(|| bad("missing '/'"))?;
        let len: u8 = len_part.parse().map_err(|_| bad("non-numeric length"))?;
        if len > 32 {
            return Err(NetError::InvalidPrefixLen(len));
        }
        let mut addr: u32 = 0;
        let mut octets = 0;
        for part in ip_part.split('.') {
            if octets == 4 {
                return Err(bad("too many octets"));
            }
            let octet: u8 = part.parse().map_err(|_| bad("bad octet"))?;
            addr = (addr << 8) | u32::from(octet);
            octets += 1;
        }
        if octets != 4 {
            return Err(bad("too few octets"));
        }
        Self::new(addr, len)
    }
}

/// Parses a dotted-quad IPv4 address (no prefix length).
pub fn parse_ipv4(s: &str) -> Result<u32, NetError> {
    let p: Ipv4Prefix = format!("{s}/32").parse()?;
    Ok(p.addr())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_zeroes_host_bits() {
        let p = Ipv4Prefix::must(0xC0A8_01FF, 24);
        assert_eq!(p.addr(), 0xC0A8_0100);
        assert_eq!(p.to_string(), "192.168.1.0/24");
    }

    #[test]
    fn equal_ranges_compare_equal() {
        let a = Ipv4Prefix::must(0x0A00_00FF, 8);
        let b = Ipv4Prefix::must(0x0A12_3456, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn parse_round_trips() {
        for s in ["0.0.0.0/0", "10.0.0.0/8", "192.168.1.0/24", "1.2.3.4/32"] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.256/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn contains_and_covers() {
        let p: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(p.contains(0x0A01_FFFF));
        assert!(!p.contains(0x0A02_0000));
        let q: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
        assert!(p.covers(&q));
        assert!(!q.covers(&p));
        assert!(p.covers(&p));
        assert!(Ipv4Prefix::DEFAULT_ROUTE.covers(&p));
    }

    #[test]
    fn bits_msb_first() {
        let p: Ipv4Prefix = "192.0.0.0/3".parse().unwrap();
        let bits: Vec<bool> = p.bits().collect();
        assert_eq!(bits, vec![true, true, false]);
    }

    #[test]
    fn children_and_parent_are_inverse() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let (l, r) = p.children().unwrap();
        assert_eq!(l.to_string(), "10.0.0.0/9");
        assert_eq!(r.to_string(), "10.128.0.0/9");
        assert_eq!(l.parent().unwrap(), p);
        assert_eq!(r.parent().unwrap(), p);
        assert!(Ipv4Prefix::must(0, 32).children().is_none());
        assert!(Ipv4Prefix::DEFAULT_ROUTE.parent().is_none());
    }

    #[test]
    fn mask_extremes() {
        assert_eq!(mask(0), 0);
        assert_eq!(mask(32), u32::MAX);
        assert_eq!(mask(1), 0x8000_0000);
        assert_eq!(mask(24), 0xFFFF_FF00);
    }

    #[test]
    fn address_count() {
        assert_eq!(Ipv4Prefix::must(0, 32).address_count(), 1);
        assert_eq!(Ipv4Prefix::must(0, 24).address_count(), 256);
        assert_eq!(Ipv4Prefix::DEFAULT_ROUTE.address_count(), 1u64 << 32);
    }

    #[test]
    fn parse_ipv4_plain_address() {
        assert_eq!(parse_ipv4("1.2.3.4").unwrap(), 0x0102_0304);
        assert!(parse_ipv4("1.2.3").is_err());
    }

    #[test]
    fn ordering_groups_by_address() {
        let mut v = [
            Ipv4Prefix::must(0x0B00_0000, 8),
            Ipv4Prefix::must(0x0A00_0000, 8),
            Ipv4Prefix::must(0x0A00_0000, 16),
        ];
        v.sort();
        assert_eq!(v[0].len(), 8);
        assert_eq!(v[0].addr(), 0x0A00_0000);
        assert_eq!(v[1].len(), 16);
        assert_eq!(v[2].addr(), 0x0B00_0000);
    }
}
