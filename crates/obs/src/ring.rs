//! The bounded ring behind [`EventLog`](crate::EventLog) and
//! [`SpanRing`](crate::SpanRing).
//!
//! A resident service must not grow memory with its history, so each of its
//! logs keeps only the newest `capacity` entries and counts the ones that
//! rotated away. Pushes take one short mutex on a cold path (job lifecycle,
//! one span per finished job), never on task dispatch.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A shareable ring keeping the newest `capacity` entries. Capacity `0`
/// retains nothing (but still counts).
pub struct Ring<T> {
    capacity: usize,
    state: Mutex<State<T>>,
}

struct State<T> {
    pushed: u64,
    ring: VecDeque<T>,
}

impl<T: Clone> Ring<T> {
    /// A ring retaining the newest `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        Ring {
            capacity,
            state: Mutex::new(State {
                pushed: 0,
                ring: VecDeque::with_capacity(capacity.min(4096)),
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends the entry `make` builds from its lifetime index (0, 1, …),
    /// evicting the oldest once full, and returns that index. `make` runs
    /// only if the entry is retained.
    pub(crate) fn push_with(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let mut st = self.state();
        let index = st.pushed;
        st.pushed += 1;
        if self.capacity > 0 {
            if st.ring.len() == self.capacity {
                st.ring.pop_front();
            }
            st.ring.push_back(make(index));
        }
        index
    }

    /// Appends one entry.
    pub fn push(&self, entry: T) {
        self.push_with(|_| entry);
    }

    /// The newest `max` retained entries, oldest first.
    pub fn tail(&self, max: usize) -> Vec<T> {
        let st = self.state();
        let skip = st.ring.len().saturating_sub(max);
        st.ring.iter().skip(skip).cloned().collect()
    }

    /// Every retained entry, oldest first (at most `capacity`).
    pub fn snapshot(&self) -> Vec<T> {
        self.tail(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Clone> Ring<T> {
        /// Entries pushed over the ring's lifetime (including evicted ones).
        pub(crate) fn total(&self) -> u64 {
            self.state().pushed
        }

        /// Entries retained right now.
        pub(crate) fn len(&self) -> usize {
            self.state().ring.len()
        }

        /// The retention bound.
        pub(crate) fn capacity(&self) -> usize {
            self.capacity
        }
    }
}
