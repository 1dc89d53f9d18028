//! The virtual-time event queue.
//!
//! A discrete-event simulation advances by popping the earliest pending
//! event; everything downstream (metrics, scheduler decisions, replay
//! determinism) depends on two properties this queue guarantees:
//!
//! 1. **Monotonicity** — pops never go backwards in virtual time;
//! 2. **Deterministic tie-breaking** — events at the *same* virtual time
//!    pop in the order they were pushed (a strictly increasing sequence
//!    number is the secondary key), so simultaneous completions and
//!    arrivals replay identically on every run.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The event vocabulary of the fleet timeline: arrivals and completions,
/// plus fault injection, hedging timers, autoscaler epochs and degrade
/// flushes, all on one [`EventQueue`] so one deterministic timeline
/// orders compute, failures and control-plane actions against each
/// other. Internal to the [`simulate`](crate::simulate) /
/// [`simulate_frontend`](crate::frontend::simulate_frontend) core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FleetEvent {
    /// A request is issued (open-loop stream or closed-loop re-issue).
    Arrival,
    /// A shard finishes the service attempt it started. `attempt` is the
    /// globally unique attempt id — a cancelled or failed attempt's
    /// completion pops dead (lazy cancellation) when the id no longer
    /// matches what the shard is running.
    Completion {
        /// Shard the attempt ran on.
        shard: usize,
        /// Unique id of the service attempt.
        attempt: u64,
    },
    /// A shard fail-stops: its in-service attempt and queue are lost.
    Fail {
        /// Shard that fails.
        shard: usize,
    },
    /// A failed shard comes back empty and healthy.
    Recover {
        /// Shard that recovers.
        shard: usize,
    },
    /// A shard's service times stretch by `factor` (a straggler appears).
    SlowdownStart {
        /// Shard that slows down.
        shard: usize,
        /// Service-time multiplier, > 1.
        factor: f64,
    },
    /// The straggler returns to nominal speed.
    SlowdownEnd {
        /// Shard that recovers its speed.
        shard: usize,
    },
    /// A hedging timer fires: if the request is still unfinished, a
    /// duplicate attempt is dispatched and the first finisher wins.
    Hedge {
        /// Request the timer watches.
        request: usize,
    },
    /// An autoscaler epoch boundary: observe utilization and tail
    /// latency, decide scale-out/in.
    ScaleTick,
    /// A scaled-out shard finishes warming up and starts taking traffic.
    ShardReady {
        /// Shard that becomes active.
        shard: usize,
    },
    /// The degrade-tier batching deadline fires: if the front end's
    /// degrade buffer still holds its oldest request past the deadline,
    /// the buffer flushes as one batch (a guarded no-op otherwise —
    /// fills flush the buffer early and leave stale deadlines behind).
    BatchFlush,
}

/// One scheduled entry: a payload due at a virtual time.
#[derive(Clone, Debug)]
struct Entry<T> {
    time_us: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) on top. total_cmp gives f64 a total order (the queue
        // never stores NaN, but a total order keeps Ord lawful regardless).
        other
            .time_us
            .total_cmp(&self.time_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A min-queue of `T` keyed by virtual time (µs), FIFO among equal times.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue at virtual time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time_us`.
    ///
    /// # Panics
    ///
    /// Panics on a NaN time — a NaN deadline would never pop in a defined
    /// position.
    pub fn push(&mut self, time_us: f64, payload: T) {
        assert!(!time_us.is_nan(), "event scheduled at NaN virtual time");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time_us,
            seq,
            payload,
        });
    }

    /// Pops the earliest event: smallest time, then earliest push.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time_us, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..16 {
            q.push(5.0, i);
        }
        for i in 0..16 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn interleaved_pushes_stay_deterministic() {
        let mut q = EventQueue::new();
        q.push(2.0, "late-first-pushed");
        q.push(0.0, "early");
        assert_eq!(q.pop(), Some((0.0, "early")));
        q.push(2.0, "late-second-pushed");
        q.push(1.0, "middle");
        assert_eq!(q.pop(), Some((1.0, "middle")));
        assert_eq!(q.pop(), Some((2.0, "late-first-pushed")));
        assert_eq!(q.pop(), Some((2.0, "late-second-pushed")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_deadline_is_rejected() {
        EventQueue::new().push(f64::NAN, ());
    }
}
