//! Network-on-chip link model: a latency + bandwidth-limited queue.
//!
//! The paper reuses McPAT's NoC model for power; for performance we model
//! the interconnect between cores and memory partitions as two directed
//! links (request and response), each with a fixed traversal latency and
//! a flit-per-cycle bandwidth cap.
//!
//! Links participate in the event-driven uncore (`crate::uncore`): in
//! addition to the per-cycle [`Link::tick`], they expose
//! [`Link::next_event`], the earliest future cycle at which ticking
//! could change observable state. It is exact: driving a link
//! event-to-event produces the same arrival cycles and ordering as
//! ticking every cycle.

use std::collections::VecDeque;

/// A directed, bandwidth-limited, fixed-latency link carrying messages of
/// type `T`.
///
/// # Examples
///
/// ```
/// use gpusimpow_sim::noc::Link;
///
/// let mut link: Link<&str> = Link::new(4, 2);
/// link.push("a", 1);
/// link.push("b", 4);
/// let mut arrived = Vec::new();
/// for cycle in 0..12 {
///     link.tick(cycle);
///     arrived.extend(link.pop_ready(cycle));
/// }
/// assert_eq!(arrived, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct Link<T> {
    latency: u64,
    flits_per_cycle: usize,
    /// Waiting for bandwidth: (message, flits still to transmit).
    waiting: VecDeque<(T, usize)>,
    /// Transmitted, arriving at `ready` cycle.
    in_flight: VecDeque<(u64, T)>,
}

impl<T> Link<T> {
    /// Creates a link with `latency` cycles of traversal delay and
    /// `flits_per_cycle` of injection bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `flits_per_cycle` is zero.
    pub fn new(latency: u64, flits_per_cycle: usize) -> Self {
        assert!(flits_per_cycle > 0, "link needs bandwidth");
        Link {
            latency,
            flits_per_cycle,
            waiting: VecDeque::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// Enqueues a message occupying `flits` flits.
    ///
    /// # Panics
    ///
    /// Panics if `flits` is zero.
    pub fn push(&mut self, message: T, flits: usize) {
        assert!(flits > 0, "a message needs at least one flit");
        self.waiting.push_back((message, flits));
    }

    /// Advances the link by one cycle: transmits up to the bandwidth cap.
    pub fn tick(&mut self, cycle: u64) {
        let mut budget = self.flits_per_cycle;
        while budget > 0 {
            let done = match self.waiting.front_mut() {
                Some((_, flits)) => {
                    let step = (*flits).min(budget);
                    *flits -= step;
                    budget -= step;
                    *flits == 0
                }
                None => break,
            };
            if done {
                let (msg, _) = self.waiting.pop_front().expect("front exists");
                self.in_flight.push_back((cycle + self.latency, msg));
            }
        }
    }

    /// Removes and returns every message that has arrived by `cycle`.
    pub fn pop_ready(&mut self, cycle: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_ready_into(cycle, &mut out);
        out
    }

    /// Appends every message that has arrived by `cycle` to `out`
    /// (allocation-free variant of [`Link::pop_ready`]).
    pub fn pop_ready_into(&mut self, cycle: u64, out: &mut Vec<T>) {
        while let Some((ready, _)) = self.in_flight.front() {
            if *ready <= cycle {
                out.push(self.in_flight.pop_front().expect("front exists").1);
            } else {
                break;
            }
        }
    }

    /// The earliest cycle strictly after `cycle` at which this link has
    /// observable work: transmitting queued flits (next cycle while the
    /// waiting queue is non-empty) or delivering an in-flight message.
    /// `None` when the link is completely empty.
    ///
    /// A [`Link::tick`] + [`Link::pop_ready`] at any cycle before the
    /// returned one is provably a no-op, which is what lets the uncore
    /// skip ahead without changing results.
    pub fn next_event(&self, cycle: u64) -> Option<u64> {
        if !self.waiting.is_empty() {
            return Some(cycle + 1);
        }
        self.in_flight
            .front()
            .map(|(ready, _)| (*ready).max(cycle + 1))
    }

    /// `true` when messages are queued awaiting bandwidth (a tick would
    /// make transmission progress).
    pub fn has_waiting(&self) -> bool {
        !self.waiting.is_empty()
    }

    /// `true` when nothing is queued or in flight.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty() && self.in_flight.is_empty()
    }

    /// Messages currently queued or in flight.
    pub fn len(&self) -> usize {
        self.waiting.len() + self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_respected() {
        let mut link: Link<u32> = Link::new(5, 8);
        link.push(7, 1);
        link.tick(0);
        assert!(link.pop_ready(4).is_empty());
        assert_eq!(link.pop_ready(5), vec![7]);
        assert!(link.is_empty());
    }

    #[test]
    fn bandwidth_serializes_large_messages() {
        let mut link: Link<u32> = Link::new(0, 2);
        link.push(1, 4); // needs 2 cycles
        link.push(2, 2); // 1 more cycle
        link.tick(0);
        assert!(link.pop_ready(0).is_empty(), "4-flit message not done");
        link.tick(1);
        assert_eq!(link.pop_ready(1), vec![1]);
        link.tick(2);
        assert_eq!(link.pop_ready(2), vec![2]);
    }

    #[test]
    fn ordering_is_fifo() {
        let mut link: Link<u32> = Link::new(1, 100);
        for i in 0..10 {
            link.push(i, 1);
        }
        link.tick(0);
        assert_eq!(link.pop_ready(1), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shared_bandwidth_cycle() {
        // 3 single-flit messages through a 2-flit/cycle link.
        let mut link: Link<u32> = Link::new(0, 2);
        link.push(1, 1);
        link.push(2, 1);
        link.push(3, 1);
        link.tick(0);
        assert_eq!(link.pop_ready(0), vec![1, 2]);
        link.tick(1);
        assert_eq!(link.pop_ready(1), vec![3]);
    }

    #[test]
    fn len_tracks_everything() {
        let mut link: Link<u32> = Link::new(10, 1);
        link.push(1, 3);
        link.push(2, 1);
        assert_eq!(link.len(), 2);
        link.tick(0);
        link.tick(1);
        link.tick(2);
        assert_eq!(link.len(), 2, "one in flight, one waiting");
        link.tick(3);
        assert_eq!(link.len(), 2, "both in flight");
        let _ = link.pop_ready(13);
        assert_eq!(link.len(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_flit_message_panics() {
        let mut link: Link<u32> = Link::new(0, 1);
        link.push(1, 0);
    }

    #[test]
    fn next_event_reports_transmission_then_arrival() {
        let mut link: Link<u32> = Link::new(5, 2);
        assert_eq!(link.next_event(0), None, "empty link has no events");
        link.push(1, 4);
        assert_eq!(
            link.next_event(0),
            Some(1),
            "queued flits transmit next cycle"
        );
        link.tick(1); // 2 of 4 flits
        assert_eq!(link.next_event(1), Some(2));
        link.tick(2); // transmission done, arrives at 2 + 5
        assert_eq!(
            link.next_event(2),
            Some(7),
            "in-flight arrival is the next event"
        );
        assert_eq!(link.pop_ready(6), Vec::<u32>::new());
        assert_eq!(link.pop_ready(7), vec![1]);
        assert_eq!(link.next_event(7), None);
    }

    #[test]
    fn skipping_to_next_event_is_invisible() {
        // Ticks strictly before next_event must be no-ops: a link ticked
        // only at event cycles delivers at the same cycles.
        let mut dense: Link<u32> = Link::new(10, 4);
        let mut sparse: Link<u32> = Link::new(10, 4);
        dense.push(7, 3);
        sparse.push(7, 3);
        let mut dense_arrivals = Vec::new();
        for c in 0..30 {
            dense.tick(c);
            dense_arrivals.extend(dense.pop_ready(c).into_iter().map(|m| (c, m)));
        }
        let mut sparse_arrivals = Vec::new();
        let mut c = 0;
        sparse.tick(c);
        sparse_arrivals.extend(sparse.pop_ready(c).into_iter().map(|m| (c, m)));
        while let Some(e) = sparse.next_event(c) {
            sparse.tick(e);
            sparse_arrivals.extend(sparse.pop_ready(e).into_iter().map(|m| (e, m)));
            c = e;
        }
        assert_eq!(dense_arrivals, sparse_arrivals);
    }
}
