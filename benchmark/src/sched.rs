//! Open-loop pacing: operation `i` is due at `start + i * period` whether
//! or not the operations before it have finished, so a stall in the system
//! under test shows up as waiting time on the operations queued behind it
//! instead of silently lowering the offered load.

use std::time::{Duration, Instant};

/// A fixed-rate schedule. Due times depend only on the index, never on
/// how late earlier operations ran, so lateness cannot accumulate as drift.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    start: Instant,
    period: Duration,
    next: u32,
}

/// One scheduled operation: when it was due and how late the generator
/// got to it.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    pub due: Instant,
    pub late: Duration,
}

impl OpenLoop {
    pub fn new(start: Instant, period: Duration) -> Self {
        Self {
            start,
            period,
            next: 0,
        }
    }

    fn due(&self, index: u32) -> Instant {
        self.start + self.period * index
    }

    /// Sleeps until the next operation is due and returns its slot, or
    /// `None` once that due time is at or past `end`. An operation whose
    /// due time has already passed is returned at once, with its lateness.
    pub fn next_slot(&mut self, end: Instant) -> Option<Slot> {
        let due = self.due(self.next);
        if due >= end {
            return None;
        }
        self.next += 1;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        Some(Slot {
            due,
            late: Instant::now().saturating_duration_since(due),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_sit_on_the_grid_and_stop_at_the_end() {
        let start = Instant::now();
        let period = Duration::from_millis(2);
        let mut sched = OpenLoop::new(start, period);
        let end = start + Duration::from_millis(9);
        let mut dues = Vec::new();
        while let Some(slot) = sched.next_slot(end) {
            assert!(Instant::now() >= slot.due, "never early");
            dues.push(slot.due);
        }
        // 0, 2, 4, 6, 8 ms; 10 ms is past the end.
        assert_eq!(dues.len(), 5);
        for (i, due) in dues.iter().enumerate() {
            assert_eq!(*due, start + period * i as u32);
        }
    }

    #[test]
    fn a_stall_is_charged_as_lateness_and_does_not_shift_the_grid() {
        let start = Instant::now();
        let period = Duration::from_millis(1);
        let mut sched = OpenLoop::new(start, period);
        let end = start + Duration::from_secs(1);
        let first = sched.next_slot(end).unwrap();
        assert_eq!(first.due, start);
        // The "system" stalls across five due times.
        let stall_end = start + Duration::from_micros(5500);
        while Instant::now() < stall_end {
            std::hint::spin_loop();
        }
        // Slots 1..=5 were due during the stall: each comes back at once,
        // still on the grid and charged the wait since its own due time.
        for i in 1..=5u32 {
            let slot = sched.next_slot(end).unwrap();
            assert_eq!(slot.due, start + period * i);
            assert!(slot.late >= stall_end - slot.due);
        }
        // Slot 6 is in the future again and keeps its original due time.
        let slot = sched.next_slot(end).unwrap();
        assert_eq!(slot.due, start + period * 6);
    }
}
