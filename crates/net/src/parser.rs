//! Parser for `bgp.potaroo.net`-style routing-table dumps.
//!
//! The paper obtained its edge-network tables from BGP analysis reports
//! (reference \[15\]). Real dumps are not bundled here, but any table
//! exported as plain text can be loaded with [`parse_dump`]. The accepted
//! grammar per line is:
//!
//! ```text
//! <prefix> [next-hop]     # trailing comment
//! ```
//!
//! * `<prefix>` — `a.b.c.d/len`;
//! * `next-hop` — optional integer `0..=255`; when omitted, a deterministic
//!   next hop is derived from the prefix so that repeated parses agree;
//! * blank lines and lines starting with `#` or `;` are ignored;
//! * a trailing `# comment` on a data line is ignored.

use crate::error::NetError;
use crate::prefix::Ipv4Prefix;
use crate::table::{NextHop, RouteEntry, RoutingTable};

/// Derives a stable next hop from a prefix, for dumps that carry no
/// next-hop column. Any deterministic mixing works; this keeps distinct
/// prefixes likely-distinct so forwarding correctness checks stay sharp.
#[must_use]
pub fn derive_next_hop(prefix: &Ipv4Prefix) -> NextHop {
    let x = prefix.addr().wrapping_mul(0x9E37_79B9) ^ u32::from(prefix.len());
    (x >> 24) as NextHop
}

/// Parses a full dump into a [`RoutingTable`]. A prefix on a later line
/// replaces its earlier next hop.
///
/// # Errors
/// Returns [`NetError::InvalidDumpLine`] (with a 1-based line number) on the
/// first malformed line, or a prefix parse error.
pub fn parse_dump(input: &str) -> Result<RoutingTable, NetError> {
    let mut entries = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = match raw.find(['#', ';']) {
            Some(pos) => &raw[..pos],
            None => raw,
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let prefix_str = fields.next().ok_or(NetError::InvalidDumpLine {
            line: line_no,
            reason: "empty data line",
        })?;
        let prefix: Ipv4Prefix = prefix_str.parse()?;
        let next_hop = match fields.next() {
            Some(nh) => nh.parse::<NextHop>().map_err(|_| NetError::InvalidDumpLine {
                line: line_no,
                reason: "next hop must be an integer 0..=255",
            })?,
            None => derive_next_hop(&prefix),
        };
        if fields.next().is_some() {
            return Err(NetError::InvalidDumpLine {
                line: line_no,
                reason: "trailing fields after next hop",
            });
        }
        entries.push(RouteEntry::new(prefix, next_hop));
    }
    Ok(RoutingTable::from_entries(entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_dump() {
        let t = parse_dump("10.0.0.0/8 1\n192.168.0.0/16 2\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&"10.0.0.0/8".parse().unwrap()), Some(1));
    }

    #[test]
    fn skips_blank_lines_and_comments() {
        let t = parse_dump("# header\n\n; other comment\n10.0.0.0/8 1 # inline\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn derives_next_hop_when_absent() {
        let t = parse_dump("10.0.0.0/8\n").unwrap();
        let p = "10.0.0.0/8".parse().unwrap();
        assert_eq!(t.get(&p), Some(derive_next_hop(&p)));
        // Deterministic across parses.
        let t2 = parse_dump("10.0.0.0/8\n").unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn reports_line_numbers_on_errors() {
        let err = parse_dump("10.0.0.0/8 1\n10.0.0.0/8 boom\n").unwrap_err();
        assert_eq!(
            err,
            NetError::InvalidDumpLine {
                line: 2,
                reason: "next hop must be an integer 0..=255"
            }
        );
    }

    #[test]
    fn rejects_trailing_fields() {
        assert!(parse_dump("10.0.0.0/8 1 extra\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_next_hop() {
        assert!(parse_dump("10.0.0.0/8 256\n").is_err());
    }

    #[test]
    fn bubbles_up_prefix_errors() {
        assert!(matches!(
            parse_dump("10.0.0.0/99 1\n"),
            Err(NetError::InvalidPrefixLen(99))
        ));
    }

    #[test]
    fn later_duplicate_wins() {
        let t = parse_dump("10.0.0.0/8 1\n10.0.0.0/8 2\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&"10.0.0.0/8".parse().unwrap()), Some(2));
        // Repeats apart from each other, around a prefix that sorts first.
        let t = parse_dump("10.0.0.0/8 1\n9.0.0.0/8 5\n10.0.0.0/8 3\n10.0.0.0/8\n10.0.0.0/8 4\n")
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&"10.0.0.0/8".parse().unwrap()), Some(4));
        assert_eq!(t.get(&"9.0.0.0/8".parse().unwrap()), Some(5));
    }
}
