//! Route update (announce/withdraw) stream generation.
//!
//! §V-B assumes a 1 % write rate — routing tables change while the engine
//! forwards. The authors' follow-up work (paper ref. \[6\]) makes those
//! updates incremental on FPGA. This module synthesizes realistic update
//! streams against a K-table family: withdrawals of currently-installed
//! routes, re-announcements with changed next hops, and announcements of
//! new prefixes, at a configurable mix, deterministically seeded.

use crate::error::NetError;
use crate::prefix::Ipv4Prefix;
use crate::table::{NextHop, RoutingTable};
use crate::traffic::VnId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One routing update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteUpdate {
    /// Announce (insert or replace) a route.
    Announce {
        /// Virtual network the update belongs to.
        vnid: VnId,
        /// The prefix announced.
        prefix: Ipv4Prefix,
        /// Its next hop.
        next_hop: NextHop,
    },
    /// Withdraw a route.
    Withdraw {
        /// Virtual network the update belongs to.
        vnid: VnId,
        /// The prefix withdrawn.
        prefix: Ipv4Prefix,
    },
}

impl RouteUpdate {
    /// The virtual network this update targets.
    #[must_use]
    pub fn vnid(&self) -> VnId {
        match self {
            RouteUpdate::Announce { vnid, .. } | RouteUpdate::Withdraw { vnid, .. } => *vnid,
        }
    }

    /// Applies the update to per-VN tables (VNID = index): an announce
    /// inserts or replaces the route, a withdraw removes it.
    ///
    /// # Panics
    /// If the VNID indexes past `tables`.
    pub fn apply_to(&self, tables: &mut [RoutingTable]) {
        match *self {
            RouteUpdate::Announce {
                vnid,
                prefix,
                next_hop,
            } => {
                tables[usize::from(vnid)].insert(prefix, next_hop);
            }
            RouteUpdate::Withdraw { vnid, prefix } => {
                tables[usize::from(vnid)].remove(&prefix);
            }
        }
    }
}

/// Mix of update kinds; weights need not be normalized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateMix {
    /// Announce a brand-new prefix.
    pub announce_new: f64,
    /// Re-announce an existing prefix with a (possibly) different next hop
    /// (BGP path change — the most common event in practice).
    pub reannounce: f64,
    /// Withdraw an existing prefix.
    pub withdraw: f64,
}

impl Default for UpdateMix {
    /// Roughly BGP-like: path changes dominate; announcements slightly
    /// outnumber withdrawals so tables drift upward like real ones do.
    fn default() -> Self {
        Self {
            announce_new: 0.25,
            reannounce: 0.55,
            withdraw: 0.20,
        }
    }
}

/// A seeded generator of route updates, tracking the evolving tables so
/// withdrawals always target installed routes.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    tables: Vec<RoutingTable>,
    mix: UpdateMix,
    next_hops: NextHop,
    rng: SmallRng,
}

impl UpdateStream {
    /// Creates a stream over the given starting tables.
    ///
    /// # Errors
    /// Rejects empty input, non-finite/negative/all-zero mixes, and an
    /// empty next-hop pool.
    pub fn new(
        tables: Vec<RoutingTable>,
        mix: UpdateMix,
        next_hops: NextHop,
        seed: u64,
    ) -> Result<Self, NetError> {
        if tables.is_empty() {
            return Err(NetError::InvalidSpec("need at least one table"));
        }
        let weights = [mix.announce_new, mix.reannounce, mix.withdraw];
        if weights.iter().any(|w| *w < 0.0 || !w.is_finite()) {
            return Err(NetError::InvalidSpec(
                "update mix weights must be finite and non-negative",
            ));
        }
        if weights.iter().sum::<f64>() <= 0.0 {
            return Err(NetError::InvalidSpec("update mix must not be all zero"));
        }
        if next_hops == 0 {
            return Err(NetError::InvalidSpec("next-hop pool must be non-empty"));
        }
        Ok(Self {
            tables,
            mix,
            next_hops,
            rng: SmallRng::seed_from_u64(seed),
        })
    }

    /// The current (evolved) view of the tables.
    #[must_use]
    pub fn tables(&self) -> &[RoutingTable] {
        &self.tables
    }

    /// Draws the next update and applies it to the tracked tables.
    pub fn next_update(&mut self) -> RouteUpdate {
        let vnid = self.rng.gen_range(0..self.tables.len());
        let table = &self.tables[vnid];
        let weights = [self.mix.announce_new, self.mix.reannounce, self.mix.withdraw];
        let total: f64 = weights.iter().sum();
        let mut x = self.rng.gen_range(0.0..total);
        let mut kind = 0usize;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                kind = i;
                break;
            }
            x -= w;
        }
        // Withdraw/reannounce need an existing route; fall back to a new
        // announcement when the table is empty.
        if table.is_empty() && kind != 0 {
            kind = 0;
        }
        let update = match kind {
            0 => {
                let len = self.rng.gen_range(16..=24u8);
                let prefix = Ipv4Prefix::must(self.rng.gen(), len);
                RouteUpdate::Announce {
                    vnid: vnid as VnId,
                    prefix,
                    next_hop: self.rng.gen_range(0..self.next_hops),
                }
            }
            1 => {
                let idx = self.rng.gen_range(0..table.len());
                let prefix = table.prefixes().nth(idx).expect("index in range");
                RouteUpdate::Announce {
                    vnid: vnid as VnId,
                    prefix,
                    next_hop: self.rng.gen_range(0..self.next_hops),
                }
            }
            _ => {
                let idx = self.rng.gen_range(0..table.len());
                let prefix = table.prefixes().nth(idx).expect("index in range");
                RouteUpdate::Withdraw {
                    vnid: vnid as VnId,
                    prefix,
                }
            }
        };
        update.apply_to(&mut self.tables);
        update
    }

    /// Draws a batch of `n` updates.
    ///
    /// A batch may carry several updates for the same `(vnid, prefix)`
    /// pair — a route announced, re-announced and withdrawn within one
    /// window. Batch semantics are **last-writer-wins**: applying the
    /// updates in order leaves the final occurrence in effect, and the
    /// tables tracked by [`Self::tables`] evolve exactly that way.
    /// Consumers that coalesce before applying (vr-control's
    /// `coalesce`) must therefore keep only the last update per pair;
    /// dropping any other subset changes the meaning of the batch.
    pub fn batch(&mut self, n: usize) -> Vec<RouteUpdate> {
        (0..n).map(|_| self.next_update()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::TableSpec;

    fn tables(k: usize) -> Vec<RoutingTable> {
        (0..k)
            .map(|i| {
                let mut spec = TableSpec::paper_worst_case(50 + i as u64);
                spec.prefixes = 200;
                spec.generate().unwrap()
            })
            .collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = UpdateStream::new(tables(2), UpdateMix::default(), 16, 7).unwrap();
        let mut b = UpdateStream::new(tables(2), UpdateMix::default(), 16, 7).unwrap();
        assert_eq!(a.batch(50), b.batch(50));
    }

    #[test]
    fn withdrawals_target_installed_routes() {
        let start = tables(2);
        let mix = UpdateMix {
            announce_new: 0.0,
            reannounce: 0.0,
            withdraw: 1.0,
        };
        let mut s = UpdateStream::new(start.clone(), mix, 16, 3).unwrap();
        let mut shadow = start;
        for update in s.batch(100) {
            match update {
                RouteUpdate::Withdraw { vnid, prefix } => {
                    assert!(
                        shadow[usize::from(vnid)].remove(&prefix).is_some(),
                        "withdrew a route that was not installed"
                    );
                }
                RouteUpdate::Announce { .. } => panic!("mix is withdraw-only"),
            }
        }
    }

    #[test]
    fn tracked_tables_follow_the_stream() {
        let start = tables(2);
        let mut s = UpdateStream::new(start.clone(), UpdateMix::default(), 16, 9).unwrap();
        let mut shadow = start;
        for update in s.batch(300) {
            update.apply_to(&mut shadow);
        }
        assert_eq!(s.tables(), &shadow[..]);
    }

    #[test]
    fn empty_table_falls_back_to_announce() {
        let mix = UpdateMix {
            announce_new: 0.0,
            reannounce: 0.0,
            withdraw: 1.0,
        };
        let mut s = UpdateStream::new(vec![RoutingTable::new()], mix, 4, 1).unwrap();
        match s.next_update() {
            RouteUpdate::Announce { .. } => {}
            RouteUpdate::Withdraw { .. } => panic!("cannot withdraw from an empty table"),
        }
        assert_eq!(s.tables()[0].len(), 1);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(UpdateStream::new(vec![], UpdateMix::default(), 16, 0).is_err());
        let zero = UpdateMix {
            announce_new: 0.0,
            reannounce: 0.0,
            withdraw: 0.0,
        };
        assert!(UpdateStream::new(tables(1), zero, 16, 0).is_err());
        let negative = UpdateMix {
            announce_new: -1.0,
            ..UpdateMix::default()
        };
        assert!(UpdateStream::new(tables(1), negative, 16, 0).is_err());
        assert!(UpdateStream::new(tables(1), UpdateMix::default(), 0, 0).is_err());
    }

    #[test]
    fn update_vnid_accessor() {
        let u = RouteUpdate::Withdraw {
            vnid: 3,
            prefix: "10.0.0.0/8".parse().unwrap(),
        };
        assert_eq!(u.vnid(), 3);
    }
}
