//! Batch coalescing: last-writer-wins dedup per `(vnid, prefix)`.
//!
//! Route churn is bursty and repetitive — BGP path hunting announces
//! and re-announces the same prefix several times within one batch
//! window. Applying every intermediate state to the data plane wastes
//! bucket repaints on states no lookup will ever observe. The
//! coalescer collapses each `(vnid, prefix)` key to its **final**
//! update in batch order (the same last-writer-wins contract
//! `UpdateStream::batch` documents), preserving the first-occurrence
//! order of keys so unrelated updates keep their relative sequence.

use serde::Serialize;
use std::collections::HashMap;
use vr_net::{Ipv4Prefix, RouteUpdate, VnId};

/// What a coalescing pass did to a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CoalesceStats {
    /// Updates in the raw batch.
    pub input: usize,
    /// Updates surviving coalescing.
    pub output: usize,
    /// Updates discarded because a later one targeted the same
    /// `(vnid, prefix)` — always `input - output`.
    pub superseded: usize,
}

/// Coalesces a batch to one update per `(vnid, prefix)`,
/// last-writer-wins, keys in first-occurrence order.
///
/// Determinism matters here: the incremental and full-rebuild publish
/// paths both consume the coalesced batch, so the dedup itself can
/// never be a source of divergence between them.
#[must_use]
pub fn coalesce(updates: &[RouteUpdate]) -> (Vec<RouteUpdate>, CoalesceStats) {
    let mut out: Vec<RouteUpdate> = Vec::with_capacity(updates.len());
    let mut slot: HashMap<(VnId, Ipv4Prefix), usize> = HashMap::with_capacity(updates.len());
    for update in updates {
        let key = match *update {
            RouteUpdate::Announce { vnid, prefix, .. } | RouteUpdate::Withdraw { vnid, prefix } => {
                (vnid, prefix)
            }
        };
        match slot.get(&key) {
            Some(&i) => out[i] = *update,
            None => {
                slot.insert(key, out.len());
                out.push(*update);
            }
        }
    }
    let stats = CoalesceStats {
        input: updates.len(),
        output: out.len(),
        superseded: updates.len() - out.len(),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn announce(vnid: VnId, prefix: &str, next_hop: u8) -> RouteUpdate {
        RouteUpdate::Announce {
            vnid,
            prefix: prefix.parse().unwrap(),
            next_hop,
        }
    }

    fn withdraw(vnid: VnId, prefix: &str) -> RouteUpdate {
        RouteUpdate::Withdraw {
            vnid,
            prefix: prefix.parse().unwrap(),
        }
    }

    #[test]
    fn last_writer_wins_per_key() {
        let batch = [
            announce(0, "10.0.0.0/8", 1),
            announce(1, "10.0.0.0/8", 2),
            announce(0, "10.0.0.0/8", 3),
            withdraw(1, "10.0.0.0/8"),
        ];
        let (out, stats) = coalesce(&batch);
        assert_eq!(
            out,
            vec![announce(0, "10.0.0.0/8", 3), withdraw(1, "10.0.0.0/8")]
        );
        assert_eq!(
            stats,
            CoalesceStats {
                input: 4,
                output: 2,
                superseded: 2
            }
        );
    }

    #[test]
    fn distinct_keys_pass_through_in_order() {
        let batch = [
            announce(0, "10.0.0.0/8", 1),
            withdraw(0, "192.168.0.0/16"),
            announce(1, "172.16.0.0/12", 7),
        ];
        let (out, stats) = coalesce(&batch);
        assert_eq!(out, batch.to_vec());
        assert_eq!(stats.superseded, 0);
    }

    #[test]
    fn announce_then_withdraw_collapses_to_withdraw() {
        let batch = [announce(0, "10.0.0.0/8", 1), withdraw(0, "10.0.0.0/8")];
        let (out, _) = coalesce(&batch);
        assert_eq!(out, vec![withdraw(0, "10.0.0.0/8")]);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let (out, stats) = coalesce(&[]);
        assert!(out.is_empty());
        assert_eq!(stats.input, 0);
        assert_eq!(stats.superseded, 0);
    }

    #[test]
    fn replaying_coalesced_equals_replaying_raw() {
        // The semantic contract: per-table end state is identical.
        let mut tables = vr_net::synth::FamilySpec {
            k: 2,
            prefixes_per_table: 120,
            shared_fraction: 0.5,
            seed: 9,
            distribution: vr_net::synth::PrefixLenDistribution::edge_default(),
            next_hops: 8,
        }
        .generate()
        .unwrap();
        let mut stream =
            vr_net::UpdateStream::new(tables.clone(), vr_net::UpdateMix::default(), 8, 77).unwrap();
        let batch = stream.batch(300);
        let mut coalesced_tables = tables.clone();
        let (deduped, stats) = coalesce(&batch);
        assert!(
            stats.superseded > 0,
            "300 updates over 240 routes must collide"
        );
        for (target, updates) in [
            (&mut tables, &batch[..]),
            (&mut coalesced_tables, &deduped[..]),
        ] {
            for u in updates {
                u.apply_to(target);
            }
        }
        assert_eq!(tables, coalesced_tables);
    }
}
