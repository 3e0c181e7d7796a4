//! Model programs: the engine's lock-free publish protocol, reduced to
//! its synchronization skeleton and checked by [`crate::model`].
//!
//! The program exists in a *correct* variant — proven to satisfy its
//! invariants on every explored interleaving — and in a deliberately
//! broken variant ([`SeededBug`]) that the explorer must catch,
//! demonstrating the checker has teeth:
//!
//! * [`PublishVsLookup`] — the service core's RCU swap, the one publish
//!   protocol both `LookupService` and `ShardedService` run: a publisher
//!   writes the payload then publishes the generation; readers must never
//!   observe a generation newer than the payload (**never-torn**) and
//!   generations must be **monotonic** per reader. `RelaxedGenStore`
//!   downgrades the publication to `Relaxed`, letting the generation
//!   commit out of the store buffer ahead of the payload.

use crate::model::{Ctx, MemOrdering, ModelSpec, Step};

/// Deliberately introduced protocol bugs the explorer must detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeededBug {
    /// Publish the generation with `Relaxed` instead of `Release`.
    RelaxedGenStore,
}

const DATA: usize = 0;
const GEN: usize = 1;

/// RCU publish vs. concurrent lookups over a payload/generation pair.
pub struct PublishVsLookup {
    /// Number of publishes (generations 1..=publishes).
    pub publishes: usize,
    /// Number of concurrent reader threads.
    pub readers: usize,
    /// Generation+payload observations per reader.
    pub rounds: usize,
    /// Optional seeded bug.
    pub bug: Option<SeededBug>,
}

impl PublishVsLookup {
    /// Correct protocol at a size that yields well over 10k distinct
    /// interleavings.
    pub fn correct() -> Self {
        PublishVsLookup {
            publishes: 3,
            readers: 2,
            rounds: 3,
            bug: None,
        }
    }

    /// `Relaxed` generation store — must be caught as a torn read.
    pub fn relaxed_gen_store() -> Self {
        PublishVsLookup {
            bug: Some(SeededBug::RelaxedGenStore),
            ..Self::correct()
        }
    }
}

impl ModelSpec for PublishVsLookup {
    fn name(&self) -> &'static str {
        "publish_vs_lookup"
    }
    fn atomics(&self) -> usize {
        2
    }
    fn threads(&self) -> usize {
        1 + self.readers
    }
    fn step(&self, t: usize, pc: usize, ctx: &mut Ctx<'_>) -> Step {
        if t == 0 {
            // Publisher: payload first (Relaxed, buffered), then the
            // generation (Release — drains the payload ahead of itself).
            if pc >= 2 * self.publishes {
                return Step::Done;
            }
            let g = (pc / 2 + 1) as u64;
            if pc.is_multiple_of(2) {
                ctx.store(DATA, g, MemOrdering::Relaxed);
            } else {
                let ord = if self.bug == Some(SeededBug::RelaxedGenStore) {
                    MemOrdering::Relaxed
                } else {
                    MemOrdering::Release
                };
                ctx.store(GEN, g, ord);
            }
            Step::Next
        } else {
            // Reader: observe generation, then payload. reg0 = last
            // observed generation this round, reg1 = previous round's.
            if pc >= 2 * self.rounds {
                return Step::Done;
            }
            if pc.is_multiple_of(2) {
                let g = ctx.load(GEN, MemOrdering::Acquire);
                if g < ctx.reg(1) {
                    return Step::Fail(format!(
                        "generation not monotonic: observed {g} after {}",
                        ctx.reg(1)
                    ));
                }
                ctx.set_reg(0, g);
                ctx.set_reg(1, g);
                Step::Next
            } else {
                let d = ctx.load(DATA, MemOrdering::Relaxed);
                let g = ctx.reg(0);
                if d < g {
                    return Step::Fail(format!(
                        "torn read: generation {g} published but payload still at {d}"
                    ));
                }
                Step::Next
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{explore, replay, ExplorerConfig};

    fn cfg() -> ExplorerConfig {
        ExplorerConfig::default()
    }

    #[test]
    fn publish_vs_lookup_is_never_torn_and_monotonic() {
        let report = explore(&PublishVsLookup::correct(), &cfg());
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(
            report.schedules >= 10_000,
            "only {} interleavings explored",
            report.schedules
        );
    }

    #[test]
    fn relaxed_generation_store_is_caught_and_replayable() {
        let spec = PublishVsLookup::relaxed_gen_store();
        let report = explore(&spec, &cfg());
        let failure = report.failure.expect("relaxed publish must tear");
        assert!(failure.message.contains("torn read"), "{failure}");
        let replayed = replay(&spec, &failure.seed).expect_err("seed must reproduce the tear");
        assert!(replayed.message.contains("torn read"), "{replayed}");
    }
}
