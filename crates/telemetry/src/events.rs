//! Bounded structured-event ring with droppage-detectable sequencing.
//!
//! Metrics answer "how much"; events answer "what happened, in order".
//! The ring keeps the most recent `capacity` events. Every event gets a
//! monotonic sequence number at publish time, so a consumer comparing
//! the first retained sequence against `dropped` knows exactly how many
//! older events were evicted — droppage is visible, never silent.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The structured events the service emits. Variants carry the minimum
/// context needed to reconstruct what the control plane did.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A new table generation was published (RCU snapshot swap).
    GenerationSwap {
        /// Generation number now visible to workers.
        generation: u64,
    },
    /// A publish was rejected by the audit gate; no swap happened.
    AuditRejected {
        /// Generation that would have been published.
        generation: u64,
    },
    /// A submit found the bounded job queue full (backpressure signal).
    WorkerStall {
        /// Worker the batch was destined for.
        worker: u64,
    },
    /// The control plane detected merging-efficiency drift below its
    /// floor and republished a freshly re-merged table generation.
    RemergeTriggered {
        /// Generation published by the re-merge.
        generation: u64,
        /// Merging efficiency α after the re-merge, in parts-per-mille
        /// (events are integer-only; 1000 = α of 1.0).
        alpha_pm: u64,
    },
}

/// One event plus its publish-time sequence number.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Monotonic sequence number, starting at 0.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Bounded MPMC event buffer. Publishing takes a short mutex (events
/// are control-plane rate — swaps, stalls, re-merges — not per-packet),
/// keeping the data-plane record path atomic-only.
pub struct EventRing {
    inner: Mutex<RingState>,
    capacity: usize,
}

struct RingState {
    events: VecDeque<EventRecord>,
    next_seq: u64,
    dropped: u64,
}

impl EventRing {
    /// Creates a ring retaining at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(RingState {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Publishes an event, evicting the oldest if the ring is full.
    /// Returns the event's sequence number.
    pub fn publish(&self, kind: EventKind) -> u64 {
        let mut state = self.inner.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
        state.events.push_back(EventRecord { seq, kind });
        seq
    }

    /// Total events ever published.
    #[must_use]
    pub fn published(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Copies the retained events out, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> EventRingSnapshot {
        let state = self.inner.lock();
        EventRingSnapshot {
            next_seq: state.next_seq,
            dropped: state.dropped,
            events: state.events.iter().cloned().collect(),
        }
    }

    /// Cursor-based incremental read: returns every retained event with
    /// `seq >= cursor`, oldest first, without consuming anything (the
    /// ring itself stays a bounded MPMC buffer; each consumer keeps its
    /// own cursor). `missed` counts the events the cursor asked for that
    /// were already evicted — after a wrap, a consumer that fell behind
    /// learns exactly how large its gap is instead of silently skipping
    /// it. Feed `next_seq` back as the next call's cursor.
    #[must_use]
    pub fn drain_since(&self, cursor: u64) -> EventDrain {
        let state = self.inner.lock();
        // Events below `dropped` are gone; a cursor pointing into that
        // evicted range missed `dropped - cursor` events.
        let missed = state.dropped.saturating_sub(cursor);
        let events: Vec<EventRecord> = state
            .events
            .iter()
            .filter(|e| e.seq >= cursor)
            .cloned()
            .collect();
        EventDrain {
            events,
            missed,
            next_seq: state.next_seq,
        }
    }
}

/// Result of an incremental [`EventRing::drain_since`] read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventDrain {
    /// Retained events with `seq >= cursor`, oldest first (contiguous).
    pub events: Vec<EventRecord>,
    /// Events in `[cursor, first retained seq)` that were evicted before
    /// this read — the consumer's gap, zero when it kept up.
    pub missed: u64,
    /// Cursor to pass to the next `drain_since` call.
    pub next_seq: u64,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.lock();
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity)
            .field("retained", &state.events.len())
            .field("next_seq", &state.next_seq)
            .field("dropped", &state.dropped)
            .finish()
    }
}

/// A serializable copy of the ring. `events` are oldest-first with
/// contiguous sequence numbers; `events[0].seq == dropped` always holds
/// (everything below it was evicted), so consumers can detect gaps.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRingSnapshot {
    /// Sequence number the next published event will get (= total
    /// events ever published).
    pub next_seq: u64,
    /// Events evicted to stay within capacity.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<EventRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_monotonic_and_droppage_visible() {
        let ring = EventRing::new(3);
        for g in 0..5u64 {
            let seq = ring.publish(EventKind::GenerationSwap { generation: g });
            assert_eq!(seq, g);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.next_seq, 5);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.events.len(), 3);
        // Oldest retained sequence equals the drop count: gap detectable.
        assert_eq!(snap.events[0].seq, snap.dropped);
        assert_eq!(
            snap.events.last().map(|e| e.seq),
            Some(4),
            "newest event retained"
        );
    }

    #[test]
    fn empty_ring_snapshot() {
        let snap = EventRing::new(8).snapshot();
        assert_eq!(snap.next_seq, 0);
        assert_eq!(snap.dropped, 0);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn wraparound_keeps_gap_arithmetic_exact() {
        // Wrap a tiny ring many times over: after N publishes into a
        // capacity-C ring the retained window must be the contiguous
        // tail [N-C, N) and `dropped` must equal N-C exactly, or a
        // consumer's gap computation silently lies after the first wrap.
        let ring = EventRing::new(4);
        let total = 1000u64;
        for g in 0..total {
            ring.publish(EventKind::GenerationSwap { generation: g });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.next_seq, total);
        assert_eq!(snap.dropped, total - 4);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![total - 4, total - 3, total - 2, total - 1]);
        // Consumer-side gap check: a reader that last saw sequence 100
        // knows exactly how many events it missed, not just "some".
        let last_seen = 100u64;
        assert_eq!(snap.events[0].seq - (last_seen + 1), total - 4 - 101);
        // Capacity-1 is the degenerate wraparound: every publish evicts,
        // and the single retained seq still equals the drop count.
        let tiny = EventRing::new(1);
        for g in 0..10 {
            tiny.publish(EventKind::GenerationSwap { generation: g });
        }
        let snap = tiny.snapshot();
        assert_eq!(snap.dropped, 9);
        assert_eq!(snap.events[0].seq, snap.dropped);
    }

    #[test]
    fn drain_since_tracks_cursor_across_wraparound() {
        let ring = EventRing::new(4);
        // Empty ring: nothing to read, no gap, cursor stays at 0.
        let d = ring.drain_since(0);
        assert_eq!((d.events.len(), d.missed, d.next_seq), (0, 0, 0));

        for g in 0..3u64 {
            ring.publish(EventKind::GenerationSwap { generation: g });
        }
        // A consumer starting from 0 sees everything, no gap.
        let d = ring.drain_since(0);
        assert_eq!(d.missed, 0);
        assert_eq!(d.next_seq, 3);
        let seqs: Vec<u64> = d.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);

        // Incremental read from the returned cursor: only the new events.
        ring.publish(EventKind::WorkerStall { worker: 7 });
        let d2 = ring.drain_since(d.next_seq);
        assert_eq!(d2.missed, 0);
        assert_eq!(d2.events.len(), 1);
        assert_eq!(d2.events[0].seq, 3);
        assert_eq!(d2.next_seq, 4);

        // Wrap the ring far past capacity: the stale cursor's gap is
        // exact (everything between the cursor and the oldest retained
        // event), and the retained tail is contiguous from `dropped`.
        for g in 0..100u64 {
            ring.publish(EventKind::GenerationSwap { generation: g });
        }
        let d3 = ring.drain_since(d2.next_seq);
        assert_eq!(d3.next_seq, 104);
        assert_eq!(d3.missed, 100 - 4, "gap = dropped - cursor");
        let seqs: Vec<u64> = d3.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![100, 101, 102, 103]);

        // A caught-up cursor reads nothing and reports no gap even
        // though the ring has dropped plenty overall.
        let d4 = ring.drain_since(d3.next_seq);
        assert_eq!((d4.events.len(), d4.missed), (0, 0));

        // Cursor inside the retained window: partial read, no gap.
        let d5 = ring.drain_since(102);
        let seqs: Vec<u64> = d5.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![102, 103]);
        assert_eq!(d5.missed, 0);
    }

    #[test]
    fn concurrent_publishes_assign_unique_seqs() {
        let ring = EventRing::new(1024);
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for _ in 0..100 {
                        ring.publish(EventKind::WorkerStall { worker: w });
                    }
                });
            }
        });
        let snap = ring.snapshot();
        assert_eq!(snap.next_seq, 400);
        assert_eq!(snap.dropped, 0);
        let mut seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 400);
    }
}
