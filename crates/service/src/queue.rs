//! The bounded MPMC admission queue.
//!
//! Built on `Mutex<VecDeque>` + `Condvar` only — the workspace has no
//! registry dependencies. Capacity is fixed at construction; a push against
//! a full queue **sheds** (returns the item to the caller) instead of
//! blocking or panicking, which is the admission-control contract of
//! [`CpqService`](crate::CpqService): under overload, producers get an
//! immediate `Rejected` and the latency of admitted queries stays bounded.

use cpq_check::sync::{self, Condvar, Mutex};
use std::collections::VecDeque;

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer FIFO with shed-on-full push and
/// blocking pop.
pub struct AdmissionQueue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `capacity` in-flight items.
    ///
    /// `capacity` must be at least 1.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "admission queue capacity must be >= 1");
        AdmissionQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy the instant it returns; for reporting).
    pub fn len(&self) -> usize {
        sync::lock(&self.state).items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue `item`. Returns it back (`Err`) when the queue is
    /// full — the load-shedding path — or already closed. Never blocks.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut g = sync::lock(&self.state);
        if g.closed || g.items.len() >= self.capacity {
            return Err(item);
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is open but empty.
    /// Returns `None` only once the queue is closed **and** drained, so no
    /// admitted item is ever lost to a shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut g = sync::lock(&self.state);
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = sync::wait(&self.not_empty, g);
        }
    }

    /// Closes the queue: further pushes shed, and poppers drain the backlog
    /// then observe `None`. Idempotent.
    pub fn close(&self) {
        sync::lock(&self.state).closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_shed_on_full() {
        let q = AdmissionQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue sheds, returning item");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "space freed re-admits");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_backlog_then_ends() {
        let q = AdmissionQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue sheds");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays ended");
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_close() {
        let q = Arc::new(AdmissionQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        // Feed items one at a time through a capacity-1 queue.
        for i in 0..50 {
            loop {
                match q.try_push(i) {
                    Ok(()) => break,
                    Err(_) => std::thread::yield_now(),
                }
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let q = Arc::new(AdmissionQueue::new(8));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Some(v) = q.pop() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let mut v = t * 1000 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expected: u64 = (0..4u64)
            .map(|t| (0..100u64).map(|i| t * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(total, expected, "every admitted item consumed exactly once");
    }
}
